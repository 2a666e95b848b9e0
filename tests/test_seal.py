import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import count_decompositions, projector_scheme, random_scheme
from qseal.linalg import tensor_product, trace_norm
from qseal.naive import build_message_states, dense_state, majority_projector_povm
from qseal.qubit_seal import QubitSealFamily
from qseal.seal import (
    SealScheme,
    _vector_from_pairs,
    coarse_cheat_state,
    evaluate_scheme,
    load_scheme,
    marginal,
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
    densify,
    helstrom_probability,
    standard_implementation,
    unknown_outcome_state,
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

    def test_marginal_of_entangled_states(self):
        scheme = entangled_scheme()
        for m in (1, 2):
            np.testing.assert_allclose(marginal(scheme, m).matrix,
                                       np.eye(2) / 2.0, atol=1e-14)


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
                for o in standard_implementation(rho, lifted):
                    if o.post_state is not None:
                        mixture += o.probability * o.post_state.matrix
                np.testing.assert_allclose(coarse_cheat_state(scheme, m).matrix,
                                           mixture, atol=1e-10)
                direct = unknown_outcome_state(rho, lifted)
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
        assert abs(p_dist_numeric(scheme, m) - p_dist) <= 1e-12
        assert abs(p_nfp_numeric(scheme, m) - p_nfp) <= 1e-12


# (M, dim_a, dim_b) with M <= 4, dim_a <= 3, M <= dim_b <= 8; dim_a = 1 and
# dim_b = M gives a joint dimension below M + 1.
SMALL_SHAPES = st.integers(2, 4).flatmap(lambda m_count: st.tuples(
    st.just(m_count), st.integers(1, 3), st.integers(m_count, 8)))


class TestLowRankMetrics:
    """The Gram-matrix metrics against the dense joint-space reference."""

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
                dephased = unknown_outcome_state(rho, fine)
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


class TestEvaluate:
    def test_averages_are_plain_means(self):
        rng = np.random.default_rng(149)
        scheme = random_scheme(rng, 3, 2, 5)
        report = evaluate_scheme(scheme)
        assert report.prior == "uniform"
        assert len(report.per_message) == 3
        for field in ("p_dist_numeric", "p_dist_upper",
                      "p_nfp_numeric", "p_nfp_upper"):
            rows = [getattr(row, field) for row in report.per_message]
            assert getattr(report, field) == pytest.approx(np.mean(rows),
                                                           abs=1e-15)

    def test_rows_repeat_the_per_message_functions(self):
        # values evaluate_scheme reuses must be the ones each function gives
        rng = np.random.default_rng(157)
        scheme = random_scheme(rng, 3, 2, 4)
        for row in evaluate_scheme(scheme).per_message:
            m = row.message
            assert row.promise_probability == promise_probability(scheme, m)
            assert row.p_dist_numeric == p_dist_numeric(scheme, m)
            assert row.p_nfp_numeric == p_nfp_numeric(scheme, m)
        assert len(set(scheme.read_probabilities)) == 3

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
        scheme = random_scheme(np.random.default_rng(233), 3, 2, 4)
        assert len(scheme.bob_povm.elements) > 3  # some messages merge pieces
        counts = count_decompositions(monkeypatch)
        evaluate_scheme(scheme)
        # per message: its merged element's checks and root share one eigh,
        # the Gram matrix's root takes one more and its trace norm one SVD
        assert counts == {"eigh": 6, "eigvalsh": 0, "svd": 3}

    def test_merged_element_checks_name_the_element(self):
        # each piece of message 1 is PSD within tolerance, their sum is not
        t = 0.8e-10
        povm = Povm((((1, 1), np.diag([-t, 0.5])), ((1, 2), np.diag([-t, 0.5])),
                     ((2, 1), np.diag([1.0 + 2.0 * t, 0.0]))))
        scheme = SealScheme(2, 1, 2, 0.9, (PureState(np.array([0.0, 1.0]), (1, 2)),
                                           PureState(np.array([1.0, 0.0]), (1, 2))),
                            povm)
        with pytest.raises(ValueError) as exc:
            evaluate_scheme(scheme)
        assert str(exc.value) == ("element 1 has negative eigenvalue -1.600e-10"
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


def pinned_scheme():
    """Qubit scheme with signed zeros, complex entries and a rounded element."""
    a = np.sqrt(0.75)
    states = (PureState(np.array([complex(a, -0.0), complex(-0.0, -0.5)]), (1, 2)),
              PureState(np.array([complex(-0.5, 0.0), complex(0.0, a)]), (1, 2)))
    read = np.array([[0.9, 0.1j], [-0.1j, 0.1]])
    return SealScheme(2, 1, 2, 0.6, states,
                      Povm((((1, 1), read), ((2, 1), np.eye(2) - read))))


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

    @settings(max_examples=500)
    @given(case=pair_lists())
    def test_pair_reader_matches_the_per_pair_reference(self, case):
        pairs, expected_len = case
        try:
            want = oracles.vector_from_pairs(pairs, expected_len, "povm[3].matrix")
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                _vector_from_pairs(pairs, expected_len, "povm[3].matrix")
            assert str(got.value) == str(exc)
        else:
            got = _vector_from_pairs(pairs, expected_len, "povm[3].matrix")
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

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
