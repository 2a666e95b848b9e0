import hashlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import (
    PERFBENCH,
    assert_entrywise,
    count_calls,
    count_decompositions,
    generated_scheme,
    level_arrays,
    perfbench_pool,
    projector_scheme,
    random_scheme,
    random_unitary,
    with_offenders,
)
from qseal import linalg, seal
from qseal.linalg import CapacityError, partial_trace, tensor_product, trace_norm
from qseal.naive import build_message_states, dense_state, majority_projector_povm
from qseal.qubit_seal import QubitSealFamily
from qseal.seal import (
    SealScheme,
    _convert_matrix,
    _vector_from_pairs,
    clamp_probability,
    clamp_promise,
    coarse_cheat_state,
    evaluate_scheme,
    load_scheme,
    monotonicity_check,
    p_dist_numeric,
    p_dist_upper_bound,
    p_nfp_numeric,
    p_nfp_upper_bound,
    promise_probability,
    save_scheme,
)
from qseal.states import (
    DensityMatrix,
    Povm,
    PureState,
    coarse_grain,
    densify,
    helstrom_probability,
    merged_elements,
)


def biased_qubit_scheme(p):
    """Two messages in one qubit, read out in the standard basis.

    Message m concentrates weight p on basis state m-1, so each standard
    basis readout succeeds with probability exactly p.
    """
    psi1 = PureState(np.array([np.sqrt(p), np.sqrt(1.0 - p)]), (1, 2))
    psi2 = PureState(np.array([np.sqrt(1.0 - p), np.sqrt(p)]), (1, 2))
    povm = Povm((((1, 1), np.diag([1.0, 0.0])), ((2, 1), np.diag([0.0, 1.0]))))
    return SealScheme(2, 1, 2, p, (psi1, psi2), povm)


def orthogonal_readout_scheme():
    """Messages stored in orthogonal Bob states and read projectively.

    The readout commutes with both encodings, so every cheat is invisible:
    all detection metrics sit at their floor.
    """
    psi1 = PureState(np.array([1.0, 0.0]), (1, 2))
    psi2 = PureState(np.array([0.0, 1.0]), (1, 2))
    povm = Povm((((1, 1), np.diag([1.0, 0.0])), ((2, 1), np.diag([0.0, 1.0]))))
    return SealScheme(2, 1, 2, 1.0, (psi1, psi2), povm)


def entangled_scheme():
    """Bell-type states on a 2x2 split with a noisy two-message readout."""
    v1 = np.zeros(4)
    v1[0] = v1[3] = 1.0 / np.sqrt(2.0)
    v2 = np.zeros(4)
    v2[1] = v2[2] = 1.0 / np.sqrt(2.0)
    e00, e11 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    f1 = 0.9 * e00 + 0.1 * e11
    povm = Povm((((1, 1), 0.5 * f1), ((1, 2), 0.5 * f1),
                 ((2, 1), np.eye(2) - f1)))
    return SealScheme(2, 2, 2, 0.5 + 1e-10,
                      (PureState(v1, (2, 2)), PureState(v2, (2, 2))), povm)


class TestSchemeValidation:
    def test_promise_must_beat_random_guessing(self):
        with pytest.raises(ValueError):
            biased_qubit_scheme(0.5)

    def test_state_count_must_match(self):
        good = biased_qubit_scheme(0.75)
        with pytest.raises(ValueError):
            SealScheme(2, 1, 2, 0.75, good.joint_states[:1], good.bob_povm)

    def test_povm_labels_must_be_pairs(self):
        psi1 = PureState(np.array([1.0, 0.0]), (1, 2))
        psi2 = PureState(np.array([0.0, 1.0]), (1, 2))
        flat = Povm(((1, np.diag([1.0, 0.0])), (2, np.diag([0.0, 1.0]))))
        with pytest.raises(ValueError):
            SealScheme(2, 1, 2, 0.9, (psi1, psi2), flat)

    def test_first_index_must_name_a_message(self):
        psi1 = PureState(np.array([1.0, 0.0]), (1, 2))
        psi2 = PureState(np.array([0.0, 1.0]), (1, 2))
        povm = Povm((((1, 1), np.diag([1.0, 0.0])), ((3, 1), np.diag([0.0, 1.0]))))
        with pytest.raises(ValueError):
            SealScheme(2, 1, 2, 0.9, (psi1, psi2), povm)

    def test_promise_violation_names_the_message(self):
        psi1 = PureState(np.array([1.0, 0.0]), (1, 2))
        psi2 = PureState(np.array([np.sqrt(0.4), np.sqrt(0.6)]), (1, 2))
        povm = Povm((((1, 1), np.diag([1.0, 0.0])), ((2, 1), np.diag([0.0, 1.0]))))
        with pytest.raises(ValueError, match="message 2"):
            SealScheme(2, 1, 2, 0.9, (psi1, psi2), povm)

    def test_message_no_label_reads_fails_its_promise(self):
        # its merged element is zero, so it is read with probability exactly 0
        psi1 = PureState(np.array([1.0, 0.0]), (1, 2))
        psi2 = PureState(np.array([0.0, 1.0]), (1, 2))
        povm = Povm((((1, 1), np.diag([1.0, 0.0])), ((2, 1), np.diag([0.0, 1.0]))))
        with pytest.raises(ValueError) as exc:
            SealScheme(3, 1, 2, 0.5, (psi1, psi2, psi1), povm)
        assert str(exc.value) == ("promise violated for message 3: read probability"
                                  " 0.0 < promised_p 0.5")

    def test_state_dims_must_match_scheme(self):
        psi1 = PureState(np.array([1.0, 0.0]))
        psi2 = PureState(np.array([0.0, 1.0]))
        povm = Povm((((1, 1), np.eye(2) / 2.0), ((2, 1), np.eye(2) / 2.0)))
        with pytest.raises(ValueError):
            SealScheme(2, 1, 4, 0.6, (psi1, psi2), povm)

    def test_state_with_other_dims_names_the_message(self):
        psi1 = PureState(np.array([1.0, 0.0]), (1, 2))
        psi2 = PureState(np.array([0.0, 1.0]), (2, 1))
        povm = Povm((((1, 1), np.diag([1.0, 0.0])), ((2, 1), np.diag([0.0, 1.0]))))
        with pytest.raises(ValueError, match="message 2"):
            SealScheme(2, 1, 2, 0.75, (psi1, psi2), povm)

    def test_keeps_the_states_it_is_given(self):
        psi1 = PureState(np.array([1.0, 0.0]), (1, 2))
        psi2 = PureState(np.array([0.0, 1.0]), (1, 2))
        povm = Povm((((1, 1), np.diag([1.0, 0.0])), ((2, 1), np.diag([0.0, 1.0]))))
        scheme = SealScheme(2, 1, 2, 1.0, [psi1, psi2], povm)
        assert scheme.state(1) is psi1 and scheme.state(2) is psi2
        assert isinstance(scheme.joint_states, tuple)

    def test_one_based_state_lookup(self):
        scheme = biased_qubit_scheme(0.8)
        assert scheme.state(1) is scheme.joint_states[0]
        with pytest.raises(ValueError):
            scheme.state(0)
        with pytest.raises(ValueError):
            scheme.state(3)


class TestPromise:
    def test_biased_qubit_reads_at_p(self):
        scheme = biased_qubit_scheme(0.75)
        assert promise_probability(scheme, 1) == pytest.approx(0.75, abs=1e-12)
        assert promise_probability(scheme, 2) == pytest.approx(0.75, abs=1e-12)

    def test_orthogonal_readout_is_certain(self):
        scheme = orthogonal_readout_scheme()
        for m in (1, 2):
            assert promise_probability(scheme, m) == pytest.approx(1.0, abs=1e-14)

    def test_uniform_povm_sits_at_random_guessing(self):
        # all elements I/M: reads succeed with probability exactly 1/M
        psi1 = PureState(np.array([1.0, 0.0]), (1, 2))
        psi2 = PureState(np.array([0.0, 1.0]), (1, 2))
        povm = Povm((((1, 1), np.eye(2) / 2.0), ((2, 1), np.eye(2) / 2.0)))
        scheme = SealScheme(2, 1, 2, 0.5 + 1e-10, (psi1, psi2), povm)
        for m in (1, 2):
            assert promise_probability(scheme, m) == pytest.approx(0.5, abs=1e-12)

    def test_marginal_of_entangled_states(self, monkeypatch):
        scheme = entangled_scheme()
        for m in (1, 2):
            rho_b = partial_trace(densify(scheme.state(m)).matrix,
                                  (scheme.dim_a, scheme.dim_b), "A")
            np.testing.assert_allclose(rho_b, np.eye(2) / 2.0, atol=1e-14)
        self.check_promise_reads_marginal(monkeypatch, scheme)

    def test_marginal_of_random_entangled_states(self, monkeypatch):
        scheme = random_scheme(np.random.default_rng(271), 3, 2, 4)
        self.check_promise_reads_marginal(monkeypatch, scheme)

    @staticmethod
    def check_promise_reads_marginal(monkeypatch, scheme):
        # the promise is tr(F_m rho_B) of Bob's marginal, and bit for bit the
        # squared norm of the column v_m of the W that _detection factors
        merged = merged_elements(scheme.bob_povm)
        factored, original = [], np.linalg.qr

        def qr(a, **kwargs):
            # each W^T of a stacked call
            factored.extend(a.swapaxes(-1, -2).reshape(-1, a.shape[-1], a.shape[-2]))
            return original(a, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", qr)
        evaluate_scheme(scheme)
        assert len(factored) == scheme.n_messages
        for m, w_t in enumerate(factored, 1):
            rho_b = partial_trace(densify(scheme.state(m)).matrix,
                                  (scheme.dim_a, scheme.dim_b), "A")
            promise = promise_probability(scheme, m)
            assert promise == pytest.approx(np.trace(merged[m] @ rho_b).real, abs=1e-14)
            assert promise == np.sum(np.abs(w_t) ** 2, axis=-1)[m]


class TestCheatState:
    def test_orthogonal_readout_leaves_states_alone(self):
        scheme = orthogonal_readout_scheme()
        for m in (1, 2):
            cheat = coarse_cheat_state(scheme, m)
            np.testing.assert_allclose(cheat.matrix,
                                       densify(scheme.state(m)).matrix,
                                       atol=1e-14)

    def test_biased_qubit_dephases_to_diagonal(self):
        for p in (0.6, 0.75, 0.9, 1.0):
            cheat = coarse_cheat_state(biased_qubit_scheme(p), 1)
            np.testing.assert_allclose(cheat.matrix, np.diag([p, 1.0 - p]),
                                       atol=1e-12)

    @pytest.mark.parametrize("dim_a", [1, 2])
    def test_matches_collapse_then_mixture_oracle(self, dim_a):
        # lift each merged element to A x B, collapse, and average by hand
        rng = np.random.default_rng(127 + dim_a)
        for _ in range(5):
            scheme = random_scheme(rng, 3, dim_a, 4)
            for m in (1, 2, 3):
                rho = densify(scheme.state(m))
                merged = {}
                for label in scheme.bob_povm.labels:
                    merged.setdefault(label[0], np.zeros((4, 4), dtype=complex))
                    merged[label[0]] += scheme.bob_povm.element(label)
                lifted = Povm(tuple(
                    (i, tensor_product(np.eye(dim_a), f))
                    for i, f in sorted(merged.items())))
                mixture = np.zeros((dim_a * 4, dim_a * 4), dtype=complex)
                for o in oracles.standard_implementation(rho, lifted):
                    if o.post_state is not None:
                        mixture += o.probability * o.post_state.matrix
                np.testing.assert_allclose(coarse_cheat_state(scheme, m).matrix,
                                           mixture, atol=1e-10)
                direct = oracles.unknown_outcome_state(rho, lifted)
                np.testing.assert_allclose(coarse_cheat_state(scheme, m).matrix,
                                           direct.matrix, atol=1e-12)


def dense_metrics(scheme, m):
    """(p_dist, p_nfp) of message m from the dense joint-space cheat state."""
    rho = densify(scheme.state(m))
    cheat = coarse_cheat_state(scheme, m)
    p_nfp = np.trace((np.eye(rho.dim) - rho.matrix) @ cheat.matrix).real
    return helstrom_probability(rho, cheat), float(p_nfp)


def assert_matches_dense(scheme):
    for m in range(1, scheme.n_messages + 1):
        p_dist, p_nfp = dense_metrics(scheme, m)
        got = p_dist_numeric(scheme, m)
        assert abs(got - p_dist) <= 1e-12
        assert abs(p_nfp_numeric(scheme, m) - p_nfp) <= 1e-12
        # the gap |psi><psi| - cheat is a rank-one projector minus a PSD
        # matrix, so it has at most one positive eigenvalue; its trace is 0,
        # so that eigenvalue is half its trace norm
        gap = densify(scheme.state(m)).matrix - coarse_cheat_state(scheme, m).matrix
        spectrum = np.linalg.eigvalsh(gap)
        assert np.count_nonzero(spectrum > 1e-12) <= 1
        assert abs(got - (0.5 + spectrum[-1] / 2.0)) <= 1e-12


# (M, dim_a, dim_b) with M <= 4, dim_a <= 3, M <= dim_b <= 8; dim_a = 1 and
# dim_b = M gives a joint dimension below M + 1.
SMALL_SHAPES = st.integers(2, 4).flatmap(lambda m_count: st.tuples(
    st.just(m_count), st.integers(1, 3), st.integers(m_count, 8)))


class TestLowRankMetrics:
    """The low-rank (QR) metrics against the dense joint-space reference."""

    @settings(max_examples=100)
    @given(shape=SMALL_SHAPES, seed=st.integers(0, 2 ** 32 - 1))
    def test_random_schemes_match_dense(self, shape, seed):
        assert_matches_dense(random_scheme(np.random.default_rng(seed), *shape))

    @settings(max_examples=50)
    @given(shape=SMALL_SHAPES, seed=st.integers(0, 2 ** 32 - 1))
    def test_projector_schemes_match_dense(self, shape, seed):
        assert_matches_dense(projector_scheme(np.random.default_rng(seed), *shape))

    def test_joint_below_message_count_plus_one(self):
        rng = np.random.default_rng(173)
        for generate in (random_scheme, projector_scheme):
            scheme = generate(rng, 4, 1, 4)
            assert scheme.dim_a * scheme.dim_b < scheme.n_messages + 1
            assert_matches_dense(scheme)

    def test_qubit_family_grid_matches_dense(self):
        for p in [0.55 + 0.05 * i for i in range(10)]:
            for phi in np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False):
                assert_matches_dense(QubitSealFamily(min(p, 1.0), phi).scheme())

    @pytest.mark.parametrize("defect", ["state", "povm"])
    def test_trace_defect_is_rejected_like_the_dense_path(self, defect):
        # Inside the state-norm and POVM-sum tolerances, yet one of the two
        # density matrices has trace 1 +- more than 1e-10.
        norm = 1.0 + 0.9e-10 if defect == "state" else 1.0
        f1 = np.diag([1.0 + (0.9e-9 if defect == "povm" else 0.0), 0.0])
        scheme = SealScheme(
            2, 1, 2, 0.9,
            (PureState(np.array([norm, 0.0]), (1, 2)),
             PureState(np.array([0.0, 1.0]), (1, 2))),
            Povm((((1, 1), f1), ((2, 1), np.diag([0.0, 1.0])))))
        with pytest.raises(ValueError, match="trace"):
            dense_metrics(scheme, 1)
        for metric in (p_dist_numeric, p_nfp_numeric):
            with pytest.raises(ValueError, match="trace"):
                metric(scheme, 1)


class TestPDist:
    def test_floor_for_commuting_readout(self):
        scheme = orthogonal_readout_scheme()
        for m in (1, 2):
            assert p_dist_numeric(scheme, m) == pytest.approx(0.5, abs=1e-12)

    def test_biased_qubit_closed_form(self):
        # Alice distinguishes psi from diag(p, 1-p); the off-diagonal loss
        # gives trace distance 2*sqrt(p(1-p))
        for p in (0.6, 0.75, 0.95):
            got = p_dist_numeric(biased_qubit_scheme(p), 1)
            expect = 0.5 + 2.0 * np.sqrt(p * (1.0 - p)) / 4.0
            assert got == pytest.approx(expect, abs=1e-10)

    def test_upper_bound_spot_values(self):
        assert p_dist_upper_bound(1.0) == pytest.approx(0.5, abs=1e-15)
        assert p_dist_upper_bound(0.75) == pytest.approx(0.8125, abs=1e-15)
        # raw formula exceeds one once the promise drops low enough
        assert p_dist_upper_bound(0.0) == pytest.approx(1.25, abs=1e-15)
        with pytest.raises(ValueError):
            p_dist_upper_bound(-0.1)
        with pytest.raises(ValueError):
            p_dist_upper_bound(1.1)

    LEVELS = level_arrays(0.0, 1.0, [0.0, 0.5, 1.0])

    @given(values=LEVELS)
    def test_upper_bound_array_matches_scalar_calls(self, values):
        assert_entrywise(p_dist_upper_bound, values,
                         lambda p: 0.5 + (2.0 * math.sqrt(1.0 - p) + (1.0 - p)) / 4.0)

    @given(values=with_offenders(LEVELS, 0.0, 1.0))
    def test_upper_bound_array_names_first_offender(self, values):
        assert_entrywise(p_dist_upper_bound, values)

    @given(values=level_arrays(-2.0, 2.0, [0.0, 0.5, 1.0, np.nan, -np.inf, np.inf]))
    def test_clamp_probability_array_matches_scalar_calls(self, values):
        assert_entrywise(clamp_probability, values, lambda x: min(max(x, 0.0), 1.0))

    def test_numeric_respects_bound_on_random_schemes(self):
        rng = np.random.default_rng(131)
        for _ in range(10):
            scheme = random_scheme(rng, 2, 1, 4)
            for m in (1, 2):
                level = promise_probability(scheme, m)
                assert (p_dist_numeric(scheme, m)
                        <= p_dist_upper_bound(level) + 1e-9)

    def test_qubitwise_readout_beats_coarse_readout(self):
        # Encoding two messages in restricted product states: merging the
        # readout by message is non-disturbing (floor detection), but the
        # same readout applied string by string dephases everything and
        # pushes detection up to 1 - 2^-(q+1).
        for q in (1, 2, 3):
            s1, s2 = build_message_states(q, 11, 12)
            v1, v2 = dense_state(s1).amplitudes, dense_state(s2).amplitudes
            dim = v1.size
            rho = densify(PureState(v1))
            if dim <= 64:
                # full machinery: one projector per computational string
                fine = Povm(tuple(
                    (x, np.diag((np.arange(dim) == x).astype(float)))
                    for x in range(dim)))
                dephased = oracles.unknown_outcome_state(rho, fine)
            else:
                # same channel written in closed form (a dense 512-element
                # projector family would be needlessly heavy)
                dephased = DensityMatrix(np.diag(np.abs(v1) ** 2))
            got = helstrom_probability(rho, dephased)
            assert got == pytest.approx(1.0 - 0.5 ** (q + 1), abs=1e-10)
            assert got > 0.5

            # merged by message the projector fixes both states: floor
            coarse = majority_projector_povm(q)
            pairs = Povm(tuple(((i, 1), coarse.element(i)) for i in (1, 2)))
            scheme = SealScheme(2, 1, dim, 1.0,
                                (PureState(v1, (1, dim)), PureState(v2, (1, dim))),
                                pairs)
            for m in (1, 2):
                assert p_dist_numeric(scheme, m) == pytest.approx(0.5, abs=1e-12)


class TestPNfp:
    def test_floor_for_commuting_readout(self):
        scheme = orthogonal_readout_scheme()
        for m in (1, 2):
            assert p_nfp_numeric(scheme, m) == pytest.approx(0.0, abs=1e-12)

    def test_biased_qubit_closed_form(self):
        # overlap with the dephased state: p^2 + (1-p)^2 survives
        for p in (0.6, 0.75, 0.9):
            got = p_nfp_numeric(biased_qubit_scheme(p), 1)
            assert got == pytest.approx(1.0 - p * p - (1.0 - p) ** 2, abs=1e-10)

    def test_matches_projector_overlap_oracle(self):
        rng = np.random.default_rng(137)
        for _ in range(10):
            scheme = random_scheme(rng, int(rng.integers(2, 5)),
                                   int(rng.integers(1, 3)), 6)
            for m in range(1, scheme.n_messages + 1):
                rho = densify(scheme.state(m)).matrix
                cheat = coarse_cheat_state(scheme, m).matrix
                oracle = np.trace((np.eye(rho.shape[0]) - rho) @ cheat).real
                assert p_nfp_numeric(scheme, m) == pytest.approx(oracle,
                                                                 abs=1e-10)

    def test_upper_bound_spot_values(self):
        assert p_nfp_upper_bound(1.0, 2) == 0.0
        assert p_nfp_upper_bound(0.5, 2) == pytest.approx(0.5, abs=1e-15)
        assert p_nfp_upper_bound(0.25, 4) == pytest.approx(0.75, abs=1e-15)
        # hand arithmetic: 1 - 0.01 - 0.81/99
        assert p_nfp_upper_bound(0.1, 100) == pytest.approx(
            1.0 - 0.01 - 0.81 / 99.0, abs=1e-15)
        # with a huge message space the cap approaches 1 - p^2
        assert p_nfp_upper_bound(0.1, 10 ** 6) == pytest.approx(0.99, abs=1e-6)

    def test_upper_bound_domain(self):
        with pytest.raises(ValueError):
            p_nfp_upper_bound(0.4, 2)  # below 1/M
        with pytest.raises(ValueError):
            p_nfp_upper_bound(1.1, 2)
        with pytest.raises(ValueError):
            p_nfp_upper_bound(0.5, 1)
        # a float M is refused, never truncated
        with pytest.raises(ValueError) as exc:
            p_nfp_upper_bound(0.5, 2.5)
        assert str(exc.value) == "n_messages must be an integer, got float"

    @staticmethod
    def levels(draw_offenders: bool):
        """(M, levels in [1/M, 1], with offenders if asked) for one M."""
        def at(m_count):
            arrays = level_arrays(1.0 / m_count, 1.0, [1.0 / m_count, 0.5, 1.0])
            if draw_offenders:
                arrays = with_offenders(arrays, 1.0 / m_count, 1.0)
            return st.tuples(st.just(m_count), arrays)
        return st.sampled_from([2, 3, 4, 7, 1000, 10 ** 6]).flatmap(at)

    @staticmethod
    def float_formula(m_count):
        return lambda p: (1.0 - p) * ((1.0 + p) - (1.0 - p) / (m_count - 1))

    @given(case=levels(False))
    def test_upper_bound_array_matches_scalar_calls(self, case):
        m_count, values = case
        assert_entrywise(lambda p: p_nfp_upper_bound(p, m_count), values,
                         self.float_formula(m_count))

    @pytest.mark.parametrize("m_count", [2, 3, 7, 1000])
    def test_upper_bound_array_keeps_the_float_square(self, m_count):
        # the cap takes only + - * /, which numpy rounds as Python does; a
        # square or a pow in it would differ from Python's ``**`` in about 1
        # uniform level in 1,200, which the simple floats hypothesis favours
        # do not show
        values = np.random.default_rng(m_count).uniform(1.0 / m_count, 1.0, 20_000)
        expected = list(map(self.float_formula(m_count), values.tolist()))
        assert p_nfp_upper_bound(values, m_count).tolist() == expected

    @given(case=levels(True))
    def test_upper_bound_array_names_first_offender(self, case):
        m_count, values = case
        assert_entrywise(lambda p: p_nfp_upper_bound(p, m_count), values)

    @given(m_count=st.sampled_from([2, 3, 7, 10 ** 6]),
           values=level_arrays(-2.0, 2.0, [0.0, 0.5, 1.0, np.nan, -np.inf, np.inf]))
    def test_clamp_promise_array_matches_scalar_calls(self, m_count, values):
        assert_entrywise(lambda p: clamp_promise(p, m_count), values,
                         lambda p: min(max(p, 1.0 / m_count), 1.0))

    def test_numeric_respects_bound_on_random_schemes(self):
        rng = np.random.default_rng(139)
        for _ in range(10):
            m_count = int(rng.integers(2, 5))
            scheme = random_scheme(rng, m_count, 1, max(4, m_count))
            for m in range(1, m_count + 1):
                level = min(max(promise_probability(scheme, m), 1.0 / m_count), 1.0)
                assert (p_nfp_numeric(scheme, m)
                        <= p_nfp_upper_bound(level, m_count) + 1e-9)

    @pytest.mark.parametrize("m_count", [2, 3, 10, 100])
    def test_upper_bound_monotone_in_promise(self, m_count):
        grid = np.linspace(1.0 / m_count, 1.0, 1000)
        assert monotonicity_check(grid, m_count)

    def test_monotonicity_check_semantics(self):
        # ascending promise grid -> non-increasing cap
        assert monotonicity_check([0.5, 0.7, 1.0], 2)
        # walking the grid downward makes the cap rise: reported as False
        assert not monotonicity_check([1.0, 0.7, 0.5], 2)
        with pytest.raises(ValueError):
            monotonicity_check([0.4], 2)  # below 1/M
        with pytest.raises(ValueError):
            monotonicity_check([1.2], 2)

    def test_monotonicity_check_makes_one_cap_call(self, monkeypatch):
        calls = count_calls(monkeypatch, seal, "p_nfp_upper_bound")
        assert monotonicity_check(np.linspace(1.0 / 3, 1.0, 1000), 3)
        assert calls == [("monotonicity_check", (1000,))]


class TestEvaluate:
    def test_averages_are_plain_means(self):
        rng = np.random.default_rng(149)
        scheme = random_scheme(rng, 3, 2, 5)
        report = evaluate_scheme(scheme)
        assert len(report.per_message) == 3
        for field in ("p_dist_numeric", "p_dist_upper",
                      "p_nfp_numeric", "p_nfp_upper"):
            rows = [getattr(row, field) for row in report.per_message]
            assert getattr(report, field) == pytest.approx(np.mean(rows),
                                                           abs=1e-15)

    @settings(max_examples=50)
    @given(shape=SMALL_SHAPES, seed=st.integers(0, 2 ** 32 - 1),
           generate=st.sampled_from([random_scheme, projector_scheme]))
    @example(shape=(3, 2, 4), seed=157, generate=random_scheme)
    def test_rows_repeat_the_per_message_functions(self, shape, seed, generate):
        # the one pass over all messages gives each message's one-message
        # values bit for bit, in message order
        scheme = generate(np.random.default_rng(seed), *shape)
        rows = evaluate_scheme(scheme).per_message
        assert [row.message for row in rows] == list(range(1, shape[0] + 1))
        for row in rows:
            m = row.message
            assert row.promise_probability == promise_probability(scheme, m)
            assert row.p_dist_numeric == p_dist_numeric(scheme, m)
            assert row.p_nfp_numeric == p_nfp_numeric(scheme, m)
            level, m_count = row.promise_probability, scheme.n_messages
            assert row.p_dist_upper_raw == p_dist_upper_bound(level)
            assert row.p_dist_upper == clamp_probability(p_dist_upper_bound(level))
            assert row.p_nfp_upper == p_nfp_upper_bound(clamp_promise(level, m_count),
                                                        m_count)
        assert_matches_dense(scheme)

    def test_one_call_of_each_cap_per_scheme(self, monkeypatch):
        calls = [count_calls(monkeypatch, seal, name) for name in
                 ("p_dist_upper_bound", "p_nfp_upper_bound", "clamp_promise",
                  "clamp_probability")]
        scheme = random_scheme(np.random.default_rng(151), 5, 1, 6)
        evaluate_scheme(scheme)
        for cap in calls:
            assert [shape for caller, shape in cap if caller == "evaluate_scheme"] == [(5,)]

    def test_reported_bounds_are_clamped(self):
        rng = np.random.default_rng(151)
        scheme = random_scheme(rng, 2, 1, 4)
        report = evaluate_scheme(scheme)
        for row in report.per_message:
            assert 0.0 <= row.p_dist_upper <= 1.0
            assert row.p_dist_upper_raw >= row.p_dist_upper
            assert 0.5 <= row.p_dist_numeric <= 1.0
            assert 0.0 <= row.p_nfp_numeric <= 1.0

    def test_each_merged_element_decomposed_once(self, monkeypatch):
        built = random_scheme(np.random.default_rng(233), 3, 2, 4)
        assert len(built.bob_povm.elements) > 3  # some messages merge pieces
        counts = count_decompositions(monkeypatch)
        scheme = SealScheme(built.n_messages, built.dim_a, built.dim_b, built.promised_p,
                            built.joint_states, built.bob_povm)
        # per merged element, at construction: its checks and root share one eigh
        assert counts == {"eigh": 3, "eigvalsh": 0, "svd": 0, "qr": 0}
        counts.update(dict.fromkeys(counts, 0))
        evaluate_scheme(scheme)
        # per message: one QR of W and one SVD for the trace norm of R C R^dag
        assert counts == {"eigh": 0, "eigvalsh": 0, "svd": 3, "qr": 3}

    def test_memory_holds_one_message_at_a_time(self):
        # W is joint x (M+1), 0.5 MiB here, and the W of all 32 messages
        # would take about 17 MiB
        scheme = random_scheme(np.random.default_rng(241), 32, 32, 32)
        tracemalloc.start()
        try:
            evaluate_scheme(scheme)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2 ** 20  # measured 1.55 MiB

    def test_many_qubit_messages_take_little_time_and_memory(self):
        # 256 qubit messages read by F_m = (2/M) |u_m><u_m| around a great
        # circle: each W is 2 x 257, so its R is 2 x 257 and R C R^dag only
        # 2 x 2, and no (M+1) x (M+1) matrix is built
        m_count = 256
        angles = np.pi * np.arange(m_count) / m_count
        vecs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        scheme = SealScheme(m_count, 1, 2, 2.0 / m_count - 1e-12,
                            tuple(PureState(v, (1, 2)) for v in vecs),
                            Povm(tuple(((m, 1), 2.0 / m_count * np.outer(v, v))
                                       for m, v in enumerate(vecs, 1))))
        start = time.perf_counter()
        rows = evaluate_scheme(scheme).per_message
        elapsed = time.perf_counter() - start
        tracemalloc.start()
        try:
            evaluate_scheme(scheme)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0  # measured 0.05 s
        assert peak < 8 * 2 ** 20  # measured 0.06 MiB
        for row in rows:
            assert row.p_dist_numeric == p_dist_numeric(scheme, row.message)
            assert row.p_nfp_numeric == p_nfp_numeric(scheme, row.message)

    def test_merged_element_checks_name_the_element(self):
        # each piece of message 1 is PSD within tolerance, their sum is not
        t = 0.8e-10
        povm = Povm((((1, 1), np.diag([-t, 0.5])), ((1, 2), np.diag([-t, 0.5])),
                     ((2, 1), np.diag([1.0 + 2.0 * t, 0.0]))))
        with pytest.raises(ValueError) as exc:
            SealScheme(2, 1, 2, 0.9, (PureState(np.array([0.0, 1.0]), (1, 2)),
                                      PureState(np.array([1.0, 0.0]), (1, 2))), povm)
        assert str(exc.value) == ("element 1 has negative eigenvalue -1.600e-10"
                                  " beyond -1.0e-10")

    @pytest.mark.parametrize("rotated", [False, True])
    def test_first_bad_merged_element_is_named(self, rotated):
        # the pieces of messages 2 and 3 are PSD within tolerance, their sums
        # are not; the label-by-label checks and coarse_grain's Povm name 2
        t2, t3 = 0.8e-10, 0.9e-10
        u = random_unitary(3, np.random.default_rng(239)) if rotated else np.eye(3)

        def piece(*diagonal):
            return u @ np.diag(diagonal) @ u.conj().T

        povm = Povm((((1, 1), piece(1.0 + 2.0 * (t2 + t3), 0.0, 0.0)),
                     ((2, 1), piece(-t2, 0.5, 0.0)), ((2, 2), piece(-t2, 0.5, 0.0)),
                     ((3, 1), piece(-t3, 0.0, 0.5)), ((3, 2), piece(-t3, 0.0, 0.5))))
        with pytest.raises(ValueError) as exc:
            SealScheme(3, 1, 3, 0.9, tuple(PureState(u[:, m], (1, 3))
                                           for m in range(3)), povm)
        merged = merged_elements(povm)
        with pytest.raises(ValueError) as per_label:
            oracles.povm_roots(np.stack(list(merged.values())), merged.keys())
        with pytest.raises(ValueError) as coarse:
            coarse_grain(povm)
        assert str(exc.value) == str(per_label.value) == str(coarse.value)
        assert str(exc.value) == ("element 2 has negative eigenvalue -1.600e-10"
                                  " beyond -1.0e-10")

    def test_floor_scheme_report(self):
        report = evaluate_scheme(orthogonal_readout_scheme())
        assert report.p_dist_numeric == pytest.approx(0.5, abs=1e-12)
        assert report.p_nfp_numeric == pytest.approx(0.0, abs=1e-12)
        assert report.p_dist_upper == pytest.approx(0.5, abs=1e-12)
        assert report.p_nfp_upper == pytest.approx(0.0, abs=1e-12)


# Numbers a JSON document can hold, with the edges of the float range:
# ints past int64 and uint64, the largest int that still rounds to a finite
# float and the smallest that does not, and non-finite floats.
JSON_NUMBERS = st.one_of(
    st.integers(),
    st.floats(),
    st.sampled_from([2 ** 63, 2 ** 64 + 1, -(2 ** 63) - 1, 10 ** 400, -10 ** 400,
                     2 ** 1024 - 2 ** 970 - 1, 2 ** 1024 - 2 ** 970]),
)
NOT_NUMBERS = st.one_of(st.booleans(), st.text(max_size=2), st.none())
GOOD_PAIR = st.lists(JSON_NUMBERS, min_size=2, max_size=2)
BAD_ENTRY = st.one_of(
    st.tuples(JSON_NUMBERS, st.booleans()).map(list),
    st.tuples(st.booleans(), JSON_NUMBERS).map(list),
    st.lists(st.one_of(JSON_NUMBERS, NOT_NUMBERS, GOOD_PAIR), min_size=2, max_size=2),
    st.lists(JSON_NUMBERS, max_size=1),
    st.lists(JSON_NUMBERS, min_size=3, max_size=4),
    JSON_NUMBERS,
    NOT_NUMBERS,
)


@st.composite
def pair_lists(draw):
    """(pairs, expected_len): good pairs, alone or with one bad entry put
    among them, a list of entries of any kind, or a lone entry; a list's
    length matches three times in four."""
    pairs = draw(st.lists(GOOD_PAIR, max_size=6))
    kind = draw(st.integers(0, 3))
    if kind == 1:
        pairs.insert(draw(st.integers(0, len(pairs))), draw(BAD_ENTRY))
    elif kind == 2:
        pairs = draw(st.lists(st.one_of(GOOD_PAIR, BAD_ENTRY), max_size=6))
    elif kind == 3:
        pairs = draw(st.one_of(GOOD_PAIR, BAD_ENTRY))
    if isinstance(pairs, list) and draw(st.integers(0, 3)) < 3:
        return pairs, len(pairs)
    return pairs, draw(st.integers(-1, 7))


# ``save_scheme``'s file for ``pinned_scheme()`` on one line; re-dumped with
# ``indent=1`` it is the file, byte for byte.
PINNED_SCHEME = (
    '{"M": 2, "dimA": 1, "dimB": 2, "promised_p": 0.6, "states": '
    '[[[0.8660254037844386, -0.0], [-0.0, -0.5]], '
    '[[-0.5, 0.0], [0.0, 0.8660254037844386]]], '
    '"povm": [{"label": [1, 1], "matrix": '
    '[[0.9, 0.0], [0.0, 0.1], [0.0, -0.1], [0.1, 0.0]]}, '
    '{"label": [2, 1], "matrix": '
    '[[0.09999999999999998, 0.0], [0.0, -0.1], [0.0, 0.1], [0.9, 0.0]]}]}')


# Floats that test the writer's number rendering: signed zeros, the smallest
# subnormal, values repr prints in exponent form and integer-valued floats.
EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-07, -2.5e-07,
                               3e-08, 1e-100])
UNIT_PHASES = st.one_of(
    st.sampled_from([1.0, -1.0, 1j, -1j, complex(-0.0, 1.0), complex(0.6, 0.8)]),
    st.floats(0.0, 2.0 * math.pi).map(lambda t: complex(math.cos(t), math.sin(t))))
# Off-diagonal entries small enough to keep a 0/1 projector PSD within PSD_TOL.
EDGE_COUPLINGS = st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 5e-11, -2.5e-11j,
                                  complex(-0.0, 5e-324)])


@st.composite
def edge_value_schemes(draw) -> SealScheme:
    """A valid scheme (M 2-4, dimA 1-4, dimB M-4) whose entries include the
    ``EDGE_FLOATS``: message m sits on Bob's basis vector m - 1 up to tiny
    entries elsewhere, and is read by the 0/1 projector onto its group of
    Bob's basis, whole or split in two."""
    m_count = draw(st.integers(2, 4))
    dim_a, dim_b = draw(st.integers(1, 4)), draw(st.integers(m_count, 4))
    states = []
    for m in range(m_count):
        amp = np.array([complex(draw(EDGE_FLOATS), draw(EDGE_FLOATS))
                        for _ in range(dim_a * dim_b)])
        amp[draw(st.integers(0, dim_a - 1)) * dim_b + m] = draw(UNIT_PHASES)
        states.append(PureState(amp, (dim_a, dim_b)))
    group = np.minimum(np.arange(dim_b), m_count - 1)
    elements = []
    for m in range(m_count):
        projector = np.diag((group == m).astype(float)).astype(complex)
        if m == 0:
            coupling = draw(EDGE_COUPLINGS)
            projector[0, 1], projector[1, 0] = coupling, np.conj(coupling)
        weight = draw(st.sampled_from([1.0, 0.5, 0.25, 0.1]))
        elements.append(((m + 1, 1), weight * projector))
        if weight < 1.0:
            elements.append(((m + 1, 2), (1.0 - weight) * projector))
    promised_p = draw(st.one_of(st.sampled_from([1.0, 0.75]),
                                st.floats(1.0 / m_count + 1e-3, 1.0)))
    return SealScheme(m_count, dim_a, dim_b, promised_p, tuple(states),
                      Povm(tuple(elements)))


def pinned_scheme():
    """Qubit scheme with signed zeros, complex entries and a rounded element."""
    a = np.sqrt(0.75)
    states = (PureState(np.array([complex(a, -0.0), complex(-0.0, -0.5)]), (1, 2)),
              PureState(np.array([complex(-0.5, 0.0), complex(0.0, a)]), (1, 2)))
    read = np.array([[0.9, 0.1j], [-0.1j, 0.1]])
    return SealScheme(2, 1, 2, 0.6, states,
                      Povm((((1, 1), read), ((2, 1), np.eye(2) - read))))


def assert_reads_like_reference(value, pairs, expected_len):
    """``_vector_from_pairs(value, ...)`` returns the bytes, or raises the
    message, of the per-pair reference reading ``pairs``."""
    try:
        want = oracles.vector_from_pairs(pairs, expected_len, "povm[3].matrix")
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            _vector_from_pairs(value, expected_len, "povm[3].matrix")
        assert str(got.value) == str(exc)
    else:
        got = _vector_from_pairs(value, expected_len, "povm[3].matrix")
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestSchemeIo:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(157)
        scheme = random_scheme(rng, 3, 2, 4)
        path = tmp_path / "scheme.json"
        save_scheme(scheme, path)
        loaded = load_scheme(path)
        assert loaded.n_messages == scheme.n_messages
        assert loaded.dim_a == scheme.dim_a and loaded.dim_b == scheme.dim_b
        assert loaded.promised_p == scheme.promised_p
        for m in range(1, 4):
            assert np.array_equal(loaded.state(m).amplitudes,
                                  scheme.state(m).amplitudes)
        assert loaded.bob_povm.labels == scheme.bob_povm.labels
        for label in scheme.bob_povm.labels:
            assert np.array_equal(loaded.bob_povm.element(label),
                                  scheme.bob_povm.element(label))

    def test_save_writes_the_pinned_bytes(self, tmp_path):
        path = tmp_path / "scheme.json"
        save_scheme(pinned_scheme(), path)
        expected = json.dumps(json.loads(PINNED_SCHEME), indent=1) + "\n"
        assert path.read_bytes() == expected.encode("utf-8")

    @settings(max_examples=200)
    @given(scheme=edge_value_schemes())
    def test_save_writes_the_json_bytes(self, scheme, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "edge_values.json"
        save_scheme(scheme, path)
        assert path.read_bytes() == oracles.scheme_file_text(scheme).encode("utf-8")

    @settings(max_examples=200)
    @given(floats=st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                     st.sampled_from([1e16, -1e16, 1e22, 1.5e300,
                                                      123456789.0, 5e-324])),
                           min_size=12, max_size=12),
           labels=st.tuples(st.integers(-10 ** 20, 10 ** 20), st.integers()))
    def test_save_renders_any_finite_float_as_json(self, floats, labels,
                                                   tmp_path_factory):
        # No entry of a valid scheme exceeds 1 in modulus; the writer reads
        # only these fields, and renders any finite float as json does.
        values = np.array(floats).view(np.complex128)
        stand_in = SimpleNamespace(
            n_messages=2, dim_a=1, dim_b=2, promised_p=floats[0],
            joint_states=(SimpleNamespace(amplitudes=values[:2]),
                          SimpleNamespace(amplitudes=values[:0:-2])),
            bob_povm=SimpleNamespace(elements=(
                (labels, values[2:].reshape(2, 2)),
                ((1, 2), values[1:5].reshape(2, 2).T))))
        path = tmp_path_factory.getbasetemp() / "stand_in.json"
        save_scheme(stand_in, path)
        assert path.read_bytes() == oracles.scheme_file_text(stand_in).encode("utf-8")

    def test_save_leaves_the_file_alone_when_a_label_cannot_be_written(self, tmp_path):
        scheme = pinned_scheme()
        stand_in = SimpleNamespace(
            n_messages=2, dim_a=1, dim_b=2, promised_p=0.6,
            joint_states=scheme.joint_states,
            bob_povm=SimpleNamespace(elements=(scheme.bob_povm.elements[0],
                                               (("2", 1), np.eye(2)))))
        path = tmp_path / "scheme.json"
        save_scheme(scheme, path)
        before = path.read_bytes()
        with pytest.raises(TypeError):
            save_scheme(stand_in, path)
        assert path.read_bytes() == before

    def test_save_and_load_hold_little_beside_the_file(self, tmp_path):
        # 8 messages in 15 POVM pieces of 4,096 pairs, a 4.2 MB file: the
        # whole text, or every pair as Python objects, takes about 3x that
        scheme = generated_scheme(8, 1, 64, np.random.default_rng(7))
        path = tmp_path / "scheme.json"
        tracemalloc.start()
        try:
            save_scheme(scheme, path)
            save_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            loaded = load_scheme(path)
            load_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(scheme.bob_povm.elements) >= 8
        assert save_peak < 2 * 2 ** 20  # 0.67 MiB; 11.9 when written at once
        # 1.16x; 2.0x with the file's bytes and its whole text held, 3.1x
        # with every pair decoded
        assert load_peak < 1.25 * path.stat().st_size
        assert loaded.bob_povm.labels == scheme.bob_povm.labels

    def test_broken_file_error_holds_little_beside_the_file(self, tmp_path):
        # the file above without its last "}": the error rereads the whole
        # text; 3.45x when the arrays read before the error stayed alive and
        # the reread held every pair as Python objects
        scheme = generated_scheme(8, 1, 64, np.random.default_rng(7))
        path = tmp_path / "scheme.json"
        save_scheme(scheme, path)
        text = path.read_text(encoding="utf-8")
        path.write_text(text[:text.rindex("}")], encoding="utf-8")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"^scheme file: not valid JSON \(Expecting"):
                load_scheme(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * path.stat().st_size  # 2.00x

    def test_save_writes_the_json_bytes_for_the_benchmark_pool(self, tmp_path):
        for k, scheme in enumerate(perfbench_pool(seed=7)):
            path = tmp_path / f"scheme_{k:02d}.json"
            save_scheme(scheme, path)
            assert path.read_bytes() == oracles.scheme_file_text(scheme).encode("utf-8")

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2 ** 16), where=st.sampled_from(["state", "element"]),
           bad=st.sampled_from([math.nan, math.inf, -math.inf]), part=st.integers(0, 1))
    def test_no_valid_scheme_holds_a_non_finite_entry(self, seed, where, bad, part):
        # %r spells these nan/inf, json NaN/Infinity; a scheme never has one
        good = random_scheme(np.random.default_rng(seed), 2, 1, 2)
        states = [s.amplitudes.copy() for s in good.joint_states]
        elements = [(label, e.copy()) for label, e in good.bob_povm.elements]
        target = states[0] if where == "state" else elements[0][1]
        target.reshape(-1).view(np.float64)[part - 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            SealScheme(2, 1, 2, good.promised_p,
                       tuple(PureState(a, (1, 2)) for a in states),
                       Povm(tuple(elements)))
        for promised_p in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="promised_p"):
                SealScheme(2, 1, 2, promised_p, good.joint_states, good.bob_povm)

    def test_setup_digest_is_the_json_writers(self):
        # The seal_eval inputs are the files save_scheme writes; the digest
        # the benchmark reports must be that of the json writer's bytes.
        done = subprocess.run(
            [sys.executable, "-B", str(PERFBENCH / "run.py"), "--setup-only",
             "--workload", "seal_eval", "--seed", "0"],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
        assert done.returncode == 0, done.stderr
        reported = json.loads(done.stdout.strip().splitlines()[-1])["digest"]
        digest = hashlib.sha256()
        for scheme in perfbench_pool(seed=0):
            digest.update(oracles.scheme_file_text(scheme).encode("utf-8"))
        assert reported == digest.hexdigest()

    @settings(max_examples=500)
    @given(case=pair_lists())
    def test_pair_reader_matches_the_per_pair_reference(self, case):
        assert_reads_like_reference(case[0], *case)

    @settings(max_examples=500)
    @given(case=pair_lists())
    def test_hooked_pair_reader_matches_the_per_pair_reference(self, case):
        # load_scheme's object hook converts a "matrix" list while json
        # parses; what it leaves or makes must read as the raw list does
        assert_reads_like_reference(_convert_matrix({"matrix": case[0]})["matrix"],
                                    *case)

    def test_load_validates_each_state_once(self, tmp_path, monkeypatch):
        scheme = random_scheme(np.random.default_rng(151), 3, 2, 4)
        path = tmp_path / "scheme.json"
        save_scheme(scheme, path)
        built = []
        validate = PureState.__post_init__

        def counting(state):
            built.append(state)
            validate(state)

        monkeypatch.setattr(PureState, "__post_init__", counting)
        loaded = load_scheme(path)
        assert len(built) == 3
        assert all(loaded.state(m) is built[m - 1] for m in (1, 2, 3))

    def test_rejects_malformed_documents(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all")
        with pytest.raises(ValueError):
            load_scheme(path)

        rng = np.random.default_rng(163)
        scheme = random_scheme(rng, 2, 1, 4)
        good = tmp_path / "good.json"
        save_scheme(scheme, good)

        for mutate in (
            lambda d: d.pop("M"),
            lambda d: d.__setitem__("promised_p", "high"),
            lambda d: d["states"][0].pop(),
            lambda d: d["povm"][0].__setitem__("label", [1]),
            lambda d: d["povm"][0]["matrix"][0].pop(),
        ):
            broken = json.loads(good.read_text())
            mutate(broken)
            bad = tmp_path / "mutated.json"
            bad.write_text(json.dumps(broken))
            with pytest.raises(ValueError, match="scheme file"):
                load_scheme(bad)

    def test_loaded_scheme_revalidates_promise(self, tmp_path):
        scheme = biased_qubit_scheme(0.75)
        path = tmp_path / "scheme.json"
        save_scheme(scheme, path)
        doc = json.loads(path.read_text())
        doc["promised_p"] = 0.99  # above what the readout achieves
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="message"):
            load_scheme(path)


# Small scheme files to mutate: (seed, M, dimA, dimB) of ``random_scheme``.
BASE_SHAPES = ((1, 2, 1, 2), (2, 3, 2, 3), (3, 2, 2, 4))
# Characters a byte flip writes: JSON's punctuation, a few letters of its
# literals, an escape, bytes that are not UTF-8, and only the digits 0 and 1,
# so that three mutations cannot lift a dimB above the dense cap.
FLIP_BYTES = st.sampled_from(list(b'[]{}",:01-.eE tnfalsu\\') + [0, 0x80, 0xff])
WHITESPACE = st.text(" \t\n\r", min_size=1, max_size=4).map(str.encode)


@st.composite
def mutated_scheme_files(draw) -> bytes:
    """A ``save_scheme`` file, or its document written another way, with
    members moved, repeated or replaced, maybe put inside a non-object top
    level, and then cut, flipped or padded at random bytes."""
    seed, m_count, dim_a, dim_b = draw(st.sampled_from(BASE_SHAPES))
    scheme = random_scheme(np.random.default_rng(seed), m_count, dim_a, dim_b)
    doc = json.loads(oracles.scheme_file_text(scheme))
    members = [(key, json.dumps(value)) for key, value in doc.items()]
    kind = draw(st.sampled_from(["saved", "compact", "moved", "repeated", "nested",
                                 "not an object"]))
    if kind == "moved":  # the states or the POVM before the header
        k = draw(st.sampled_from([4, 5]))
        members.insert(draw(st.integers(0, 3)), members.pop(k))
    elif kind == "repeated":  # the last of a repeated key wins
        key = draw(st.sampled_from(list(doc)))
        value = draw(st.sampled_from([json.dumps(doc[key]), "1", "2", "[]", "{}",
                                      '"x"', "null", json.dumps(doc["states"][:1])]))
        members.insert(draw(st.integers(0, len(members))), (key, value))
    elif kind == "nested":  # json recurses once per level
        depth = draw(st.sampled_from([3, 60, 5000]))
        k = draw(st.integers(0, len(members) - 1))
        members[k] = (members[k][0], "[" * depth + "1" + "]" * depth)
    if kind == "saved":
        text = oracles.scheme_file_text(scheme)
    else:
        text = "{" + ", ".join(f"{json.dumps(key)}: {value}" for key, value in members) + "}"
    if kind == "not an object":
        text = draw(st.sampled_from(["[{}]", "{}]", "3 {}", '"{}"', "null"])).replace("{}", text)
    data = bytearray(text.encode("utf-8"))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(["cut", "flip", "whitespace", "bom"]))
        if edit == "cut":
            del data[at:]
        elif edit == "flip" and at < len(data):
            data[at] = draw(FLIP_BYTES)
        elif edit == "whitespace":
            data[at:at] = draw(WHITESPACE)
        elif edit == "bom":
            data[at:at] = b"\xef\xbb\xbf"
    return bytes(data)


def load_outcome(load, path):
    """The scheme ``load`` reads from ``path``, or the type and message of
    what it raises."""
    try:
        return load(path)
    except Exception as exc:  # every error is compared, not only ValueError
        return type(exc), str(exc)


def assert_same_scheme(got: SealScheme, want: SealScheme) -> None:
    assert (got.n_messages, got.dim_a, got.dim_b) == (want.n_messages, want.dim_a, want.dim_b)
    assert repr(got.promised_p) == repr(want.promised_p)
    for a, b in zip(got.joint_states, want.joint_states, strict=True):
        assert a.amplitudes.tobytes() == b.amplitudes.tobytes()
    assert got.bob_povm.labels == want.bob_povm.labels
    for (_, a), (_, b) in zip(got.bob_povm.elements, want.bob_povm.elements):
        assert a.tobytes() == b.tobytes()


class TestStreamingLoader:
    """``load_scheme`` reads a window of the text at a time; ``oracles``
    reads the whole text with ``json.loads`` and checks the document."""

    @settings(max_examples=400)
    @given(data=mutated_scheme_files(), budget=st.sampled_from([1, 5, 64, 1 << 16]))
    def test_accepts_and_refuses_what_the_whole_text_reader_does(
            self, data, budget, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "mutated.json"
        path.write_bytes(data)
        want = load_outcome(oracles.load_scheme, path)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(linalg, "_CHUNK_BYTES", budget)
            got = load_outcome(load_scheme, path)
        if isinstance(want, SealScheme):
            assert isinstance(got, SealScheme), got
            assert_same_scheme(got, want)
        else:
            assert got == want
            assert "\n" not in want[1]

    # (budget, layout): the saved file, and its document as json.dumps
    # writes it with the default separators and with no spaces
    DECODE_CASES = [
        pytest.param(budget, layout,
                     id=str(budget) if layout == "saved" else f"{budget}-{layout}")
        for layout in ("saved", "dumps", "compact") for budget in (1 << 16, 4096, None)]

    @pytest.mark.parametrize("budget,layout", DECODE_CASES)
    def test_decodes_each_value_of_a_saved_file_once(self, monkeypatch, tmp_path, budget,
                                                      layout):
        # povm entries of 1,024 pairs, about 64 KiB of text each as saved
        # and 45 KiB without the indent, run past the 4096 window, and the
        # saved ones past either; None ends the first window just after the
        # first POVM matrix's closing brackets, before its entry's "}"
        scheme = generated_scheme(4, 2, 32, np.random.default_rng(11))
        path = tmp_path / "scheme.json"
        save_scheme(scheme, path)
        if layout != "saved":
            doc = json.loads(path.read_text())
            path.write_text(json.dumps(doc) if layout == "dumps"
                            else json.dumps(doc, separators=(",", ":")))
        if budget is None:
            text = path.read_text()
            budget = seal._CLOSING.search(text, text.index('"matrix"')).end()
            assert text[budget:].lstrip().startswith("}")
        lengths, decoder = [], seal._DECODER

        class Counting:
            def raw_decode(self, text, pos):
                lengths.append(None)  # a call that fails counts too
                value, end = decoder.raw_decode(text, pos)
                lengths[-1] = end - pos
                return value, end

        monkeypatch.setattr(linalg, "_CHUNK_BYTES", budget)
        monkeypatch.setattr(seal, "_DECODER", Counting())
        assert_same_scheme(load_scheme(path), oracles.load_scheme(path))
        # six keys, four header values, the states and the POVM entries
        assert len(lengths) == 6 + 4 + scheme.n_messages + len(scheme.bob_povm.elements)
        assert max(lengths) > (1 << 16 if layout == "saved" else 4096)

    @pytest.mark.parametrize("layout", ["saved", "compact"])
    def test_reads_the_family_file_through_every_small_window(self, monkeypatch, tmp_path,
                                                              layout):
        # windows that end inside a number ("0." of "promised_p": 0.75 or of
        # an amplitude 0.8660254037844386) or right after it, before the
        # comma, bracket or whitespace that ends it
        path = tmp_path / "family.json"
        save_scheme(QubitSealFamily(0.75).scheme(), path)
        if layout == "compact":
            path.write_text(json.dumps(json.loads(path.read_text())))
        want = oracles.load_scheme(path)
        for budget in range(1, 65):
            monkeypatch.setattr(linalg, "_CHUNK_BYTES", budget)
            got = load_outcome(load_scheme, path)
            assert isinstance(got, SealScheme), (budget, got)
            assert_same_scheme(got, want)

    CAP_ERROR = (CapacityError, "scheme file: dimB 5000 is above the dense cap 4096")

    @pytest.mark.parametrize("tail,whole_text", [
        # the one kind of file the two readers tell apart: a header whose
        # dimB is above the cap, then a member that breaks the file ...
        (' "povm": [{"label": [1, 1], "matrix": [[', "scheme file: not valid JSON ("),
        # ... or that the whole-text reader checks first
        (' "povm": [{"label": [1, 1], "matrix": []}], "M": 2.5}',
         "scheme file: M, dimA, dimB must be integers"),
        (' "povm": [], "dimB": 2}', "scheme file: states must list 2 vectors"),
        # a sound rest is refused by both for the cap
        (' "povm": [{"label": [1, 1], "matrix": []}]}', CAP_ERROR[1]),
    ])
    def test_refuses_dim_b_above_the_cap_before_the_povm(self, tmp_path, tail, whole_text):
        path = tmp_path / "wide.json"
        path.write_text('{"M": 2, "dimA": 1, "dimB": 5000, "promised_p": 0.9,'
                        ' "states": [],' + tail)
        assert load_outcome(load_scheme, path) == self.CAP_ERROR
        assert load_outcome(oracles.load_scheme, path)[1].startswith(whole_text)

    def test_dim_b_after_the_povm_is_checked_in_order(self, tmp_path):
        # with dimB after "povm", the streaming reader checks it where the
        # whole-text reader does: after the file is read, before the rest
        path = tmp_path / "late.json"
        for text, want in (
                ('{"M": 2, "dimA": 1, "promised_p": 0.9, "states": [], "povm": [1],'
                 ' "dimB": 5000}', self.CAP_ERROR),
                ('{"M": 2, "dimA": 1, "promised_p": 0.9, "states": [], "povm": [1],'
                 ' "dimB": 5000', (ValueError, "scheme file: not valid JSON (Expecting"
                                   " ',' delimiter: line 1 column 79 (char 78))"))):
            path.write_text(text)
            assert load_outcome(load_scheme, path) == want
            assert load_outcome(oracles.load_scheme, path) == want
