import numpy as np
import pytest

import oracles
from conftest import random_density_matrix, random_povm, random_unitary
from oracles import measure_probabilities, standard_implementation, unknown_outcome_state
from qseal import gentle
from qseal.states import (
    DensityMatrix,
    Povm,
    PureState,
    _element_roots,
    check_density,
    coarse_grain,
    densify,
    helstrom_probability,
    require_identity_sum,
)


def z_diag(x):
    return DensityMatrix(np.diag([x, 1.0 - x]).astype(np.complex128))


def standard_basis_povm(dim=2):
    eye = np.eye(dim, dtype=np.complex128)
    return Povm(tuple((i, np.outer(eye[:, i], eye[:, i])) for i in range(dim)))


PLUS = PureState(np.array([1.0, 1.0]) / np.sqrt(2.0))


class TestPureState:
    def test_densify_hand_values(self):
        rho = densify(PureState(np.array([1.0, 0.0])))
        assert np.array_equal(rho.matrix, np.diag([1.0, 0.0]))
        amps = np.array([1.0, 1.0j]) / np.sqrt(2.0)
        rho = densify(PureState(amps)).matrix
        expect = np.array([[0.5, -0.5j], [0.5j, 0.5]])
        np.testing.assert_allclose(rho, expect, atol=1e-15)

    def test_rejects_bad_vectors(self):
        with pytest.raises(ValueError):
            PureState(np.array([1.0, 1.0]))  # not normalized
        with pytest.raises(ValueError):
            PureState(np.array([np.nan, 0.0]))
        with pytest.raises(ValueError):
            PureState(np.array([], dtype=float))
        with pytest.raises(ValueError):
            PureState(np.eye(2))  # not 1-D

    def test_split_dims_must_factor(self):
        amps = np.zeros(6)
        amps[0] = 1.0
        assert PureState(amps, (2, 3)).dim == 6
        with pytest.raises(ValueError):
            PureState(amps, (2, 2))

    def test_split_dims_are_integers(self):
        amps = np.zeros(6)
        amps[0] = 1.0
        assert PureState(amps, (np.int64(2), 3)).dims == (2, 3)
        for dims in ((2.0, 3), (2, 3, 1), 6, ("2", 3)):
            with pytest.raises(ValueError) as exc:
                PureState(amps, dims)
            assert str(exc.value) == f"dims must be a pair of integers, got {dims!r}"

    def test_amplitudes_read_only(self):
        state = PureState(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.5


class TestDensityMatrix:
    def test_accepts_mixed_and_freezes(self):
        rho = z_diag(0.3)
        assert rho.dim == 2
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([0.7, 0.7]))

    def test_rejects_nonhermitian(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.5, 0.4], [0.0, 0.5]]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_tolerates_roundoff_negative(self):
        rho = DensityMatrix(np.diag([1.0 + 5e-11, -5e-11]))
        assert rho.dim == 2

    def test_spectrum_is_checked_before_trace(self):
        # one defect of each kind: the PSD check runs with the Hermitian one
        with pytest.raises(ValueError, match="negative eigenvalue -2.000e-01"):
            DensityMatrix(np.diag([1.5, -0.2]))

    def test_rejects_stack(self):
        # check_density takes a stack; a DensityMatrix holds one matrix
        with pytest.raises(ValueError, match="must be 2-D"):
            DensityMatrix(np.stack([np.eye(2) / 2.0] * 3))


class TestPovm:
    def test_canonical_pair_ordering(self):
        eye = np.eye(2, dtype=np.complex128)
        quarter = eye / 4.0
        povm = Povm((((2, 1), quarter), ((1, 2), quarter),
                     ((1, 1), quarter), ((2, 2), quarter)))
        assert povm.labels == ((1, 1), (1, 2), (2, 1), (2, 2))

    def test_int_and_mixed_label_ordering(self):
        third = np.eye(2, dtype=np.complex128) / 3.0
        povm = Povm(((3, third), (1, third), (2, third)))
        assert povm.labels == (1, 2, 3)
        # ints sort before their own pairs: (1,) < (1, 1) < (2,)
        povm = Povm(((2, third), ((1, 1), third), (1, third)))
        assert povm.labels == (1, (1, 1), 2)

    def test_rejects_duplicates(self):
        half = np.eye(2, dtype=np.complex128) / 2.0
        with pytest.raises(ValueError):
            Povm(((1, half), (1, half)))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            Povm(((1, 0.6 * np.eye(2)), (2, 0.3 * np.eye(2))))

    def test_rejects_non_psd_element(self):
        up = np.diag([1.5, 0.0])
        down = np.eye(2) - up
        with pytest.raises(ValueError):
            Povm(((1, up), (2, down)))

    def test_rejects_mismatched_dims(self):
        with pytest.raises(ValueError):
            Povm(((1, np.eye(2)), (2, np.zeros((3, 3)))))

    def test_shape_defects_come_before_spectrum_defects(self):
        # element 0's Hermitian defect is found with the others' spectra,
        # after every element's label, type, shape and dimension checks
        skew = np.array([[0.5, 0.1], [0.0, 0.5]])
        with pytest.raises(ValueError, match="^element 1 has dimension 3, expected 2$"):
            Povm(((0, skew), (1, np.eye(3))))

    def test_elements_are_views_of_one_frozen_stack(self):
        given = [np.eye(2) / 2.0, np.diag([0.5, 0.0]), np.diag([0.0, 0.5])]
        povm = Povm(((2, given[0]), (0, given[1]), (1, given[2])))
        stack = povm.elements[0][1].base
        assert povm.labels == (0, 1, 2) and not stack.flags.writeable
        assert all(matrix.base is stack for _, matrix in povm.elements)
        assert np.array_equal(stack, [given[1], given[2], given[0]])
        given[1][0, 0] = 7.0  # the caller's arrays are not aliased
        assert povm.element(0)[0, 0] == 0.5

    def test_rejects_bool_labels(self):
        with pytest.raises(ValueError):
            Povm(((True, np.eye(2)),))

    def test_element_lookup(self):
        povm = standard_basis_povm()
        assert povm.element(1)[1, 1] == 1.0
        with pytest.raises(KeyError):
            povm.element(7)


class TestMeasurement:
    def test_diagonal_probabilities(self):
        probs = measure_probabilities(z_diag(0.3), standard_basis_povm())
        np.testing.assert_allclose(probs, [0.3, 0.7], atol=1e-15)

    def test_double_sum_born_oracle(self):
        rng = np.random.default_rng(41)
        dim = 4
        rho = random_density_matrix(dim, rng)
        povm = random_povm(dim, 3, rng)
        probs = measure_probabilities(rho, povm)
        for idx, label in enumerate(povm.labels):
            element = povm.element(label)
            oracle = sum(element[a, b] * rho.matrix[b, a]
                         for a in range(dim) for b in range(dim)).real
            assert abs(probs[idx] - oracle) < 1e-12
        assert abs(probs.sum() - 1.0) < 1e-12

    def test_collapse_of_plus_state(self):
        outcomes = standard_implementation(densify(PLUS), standard_basis_povm())
        assert [o.label for o in outcomes] == [0, 1]
        for o, target in zip(outcomes, (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))):
            assert abs(o.probability - 0.5) < 1e-15
            np.testing.assert_allclose(o.post_state.matrix, target, atol=1e-14)

    def test_identity_povm_does_nothing(self):
        rng = np.random.default_rng(43)
        rho = random_density_matrix(3, rng)
        outcomes = standard_implementation(rho, Povm(((0, np.eye(3)),)))
        assert len(outcomes) == 1 and outcomes[0].probability == pytest.approx(1.0)
        np.testing.assert_allclose(outcomes[0].post_state.matrix, rho.matrix,
                                   atol=1e-14)

    def test_scaled_identity_preserves_state(self):
        # elements proportional to the identity never disturb
        rho = densify(PLUS)
        povm = Povm(((0, 0.7 * np.eye(2)), (1, 0.3 * np.eye(2))))
        outcomes = standard_implementation(rho, povm)
        assert [round(o.probability, 12) for o in outcomes] == [0.7, 0.3]
        for o in outcomes:
            np.testing.assert_allclose(o.post_state.matrix, rho.matrix, atol=1e-13)

    def test_impossible_outcome_has_no_post_state(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]))
        outcomes = standard_implementation(rho, standard_basis_povm())
        assert outcomes[1].probability == 0.0
        assert outcomes[1].post_state is None
        assert outcomes[0].post_state is not None

    def test_projective_remeasurement_is_stable(self):
        rng = np.random.default_rng(47)
        dim = 4
        u = random_unitary(dim, rng)
        povm = Povm(tuple((i, np.outer(u[:, i], u[:, i].conj()))
                          for i in range(dim)))
        rho = random_density_matrix(dim, rng)
        for outcome in standard_implementation(rho, povm):
            if outcome.post_state is None:
                continue
            repeat = measure_probabilities(outcome.post_state, povm)
            idx = povm.labels.index(outcome.label)
            assert abs(repeat[idx] - 1.0) < 1e-10


class TestUnknownOutcome:
    def test_plus_state_fully_dephases(self):
        out = unknown_outcome_state(densify(PLUS), standard_basis_povm())
        np.testing.assert_allclose(out.matrix, np.eye(2) / 2.0, atol=1e-14)

    def test_identity_povm_fixed_point(self):
        rng = np.random.default_rng(53)
        rho = random_density_matrix(4, rng)
        out = unknown_outcome_state(rho, Povm(((0, np.eye(4)),)))
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-13)

    @pytest.mark.parametrize("dim,n", [(2, 2), (4, 3), (8, 5)])
    def test_equals_outcome_mixture(self, dim, n):
        # averaging the per-outcome collapses must give the same state
        rng = np.random.default_rng(59 + dim)
        rho = random_density_matrix(dim, rng)
        povm = random_povm(dim, n, rng)
        out = unknown_outcome_state(rho, povm)
        mixture = np.zeros((dim, dim), dtype=np.complex128)
        for o in standard_implementation(rho, povm):
            if o.post_state is not None:
                mixture += o.probability * o.post_state.matrix
        np.testing.assert_allclose(out.matrix, mixture, atol=1e-10)


class TestCoarseGrain:
    def test_merges_by_first_index(self):
        eye = np.eye(2, dtype=np.complex128)
        up = np.outer(eye[:, 0], eye[:, 0])
        down = np.outer(eye[:, 1], eye[:, 1])
        fine = Povm((((1, 1), up / 2.0), ((1, 2), up / 2.0), ((2, 1), down)))
        coarse = coarse_grain(fine)
        assert coarse.labels == (1, 2)
        np.testing.assert_allclose(coarse.element(1), up, atol=1e-15)
        np.testing.assert_allclose(coarse.element(2), down, atol=1e-15)

    def test_requires_pair_labels(self):
        with pytest.raises(ValueError):
            coarse_grain(standard_basis_povm())
        half = np.eye(2, dtype=np.complex128) / 2.0
        with pytest.raises(ValueError):
            coarse_grain(Povm((((1, 1), half), (2, half))))

    def test_probabilities_add_up(self):
        rng = np.random.default_rng(61)
        rho = random_density_matrix(4, rng)
        fine = random_povm(4, 4, rng,
                           labels=[(1, 1), (1, 2), (2, 1), (3, 1)])
        fine_probs = dict(zip(fine.labels, measure_probabilities(rho, fine)))
        coarse = coarse_grain(fine)
        coarse_probs = dict(zip(coarse.labels, measure_probabilities(rho, coarse)))
        for i in (1, 2, 3):
            total = sum(p for lab, p in fine_probs.items() if lab[0] == i)
            assert abs(coarse_probs[i] - total) < 1e-12


class TestHelstrom:
    def test_identical_states_floor(self):
        rho = z_diag(0.3)
        assert helstrom_probability(rho, rho) == pytest.approx(0.5, abs=1e-15)

    def test_orthogonal_states_ceiling(self):
        a = DensityMatrix(np.diag([1.0, 0.0]))
        b = DensityMatrix(np.diag([0.0, 1.0]))
        assert helstrom_probability(a, b) == pytest.approx(1.0, abs=1e-15)

    def test_zero_vs_plus_quadratic_value(self):
        # trace distance between |0><0| and |+><+| is sqrt(2)
        val = helstrom_probability(DensityMatrix(np.diag([1.0, 0.0])),
                                   densify(PLUS))
        assert abs(val - (0.5 + np.sqrt(2.0) / 4.0)) < 1e-13

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(67)
        a = random_density_matrix(5, rng)
        b = random_density_matrix(5, rng)
        ab = helstrom_probability(a, b)
        assert ab == pytest.approx(helstrom_probability(b, a), abs=1e-14)
        assert 0.5 <= ab <= 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            helstrom_probability(z_diag(0.5), DensityMatrix(np.eye(3) / 3.0))


def valid_chunk(dim=3, n_outcomes=3, n=4):
    """(raw states, element stack, dominant indices, instances) of n valid
    instances."""
    rng = np.random.default_rng(227)
    built = [oracles.random_instance(dim, n_outcomes, 0.1, rng) for _ in range(n)]
    raw = np.stack([b.rho.matrix for b in built])
    elements = np.stack([[m for _, m in b.povm.elements] for b in built])
    dominant = np.array([b.dominant_label for b in built])
    return raw, elements, dominant, built


def check_chunk(raw, elements) -> tuple:
    """The batched checks the gentle sweep runs on a chunk, in its order."""
    rho = check_density(raw)
    roots = _element_roots(elements, range(elements.shape[1]))
    require_identity_sum(list(np.moveaxis(elements, 1, 0)))
    return rho, roots


def chunk_error(raw, elements) -> str:
    with pytest.raises(ValueError) as exc:
        check_chunk(raw, elements)
    return str(exc.value)


def constructor_error(make) -> str:
    with pytest.raises(ValueError) as exc:
        make()
    return str(exc.value)


class TestBatchedChecks:
    """One bad matrix in an otherwise valid chunk: ``check_density``,
    ``_element_roots`` and ``require_identity_sum`` raise what the per-object
    constructor raises for it."""

    def test_valid_chunk_passes(self):
        raw, elements, dominant, built = valid_chunk()
        rho, _ = check_chunk(raw, elements)
        assert np.array_equal(rho, raw)
        reports = gentle._reports(rho, elements, dominant,
                                  [b.epsilon for b in built], gentle.VIOLATION_TOL)
        for b, batched in zip(built, reports):
            report = oracles.verify_instance(b)
            assert (report.lhs_classic, report.lhs_unknown,
                    report.off_dominant_trace_norm_sum,
                    report.off_dominant_probability) == (
                batched.lhs_classic, batched.lhs_unknown,
                batched.off_dominant_trace_norm_sum, batched.off_dominant_probability)

    def test_non_hermitian_state(self):
        raw, elements, _, _ = valid_chunk()
        raw[2, 0, 1] += 1e-6
        assert chunk_error(raw, elements) == constructor_error(
            lambda: DensityMatrix(raw[2]))

    def test_state_trace_off_one(self):
        raw, elements, _, _ = valid_chunk()
        raw[1] *= 1.001
        assert chunk_error(raw, elements) == constructor_error(
            lambda: DensityMatrix(raw[1]))

    def test_state_not_psd(self):
        raw, elements, _, _ = valid_chunk()
        raw[3] = 1.5 * raw[3] - 0.5 * raw[0]
        message = constructor_error(lambda: DensityMatrix(raw[3]))
        assert "negative eigenvalue" in message
        assert chunk_error(raw, elements) == message

    def test_non_hermitian_element(self):
        raw, elements, _, _ = valid_chunk()
        elements[1, 2, 0, 2] += 1e-6j
        assert chunk_error(raw, elements) == constructor_error(
            lambda: Povm(tuple(enumerate(elements[1]))))

    def test_element_not_psd(self):
        raw, elements, _, _ = valid_chunk()
        v = np.linalg.eigh(elements[2, 1])[1][:, 0]
        shift = 2.0 * np.outer(v, v.conj())
        elements[2, 1] -= shift
        elements[2, 0] += shift
        message = constructor_error(lambda: Povm(tuple(enumerate(elements[2]))))
        assert message.startswith("element 1 has negative eigenvalue")
        assert chunk_error(raw, elements) == message

    def test_one_call_roots_equal_per_label_roots(self):
        raw, elements, _, _ = valid_chunk(n=5)
        elements[3] = 0.0
        elements[3, 1] = np.eye(3)  # an exact instance: diagonal elements
        assert np.array_equal(_element_roots(elements, range(3)),
                              oracles.povm_roots(elements, range(3)))

    # (fault, instance, outcome) cells of a 4-instance, 3-outcome chunk, and
    # the instance whose Povm raises the chunk's error: the label-by-label
    # order checks one outcome of every instance before the next outcome,
    # each outcome for finite entries, then Hermiticity, then the spectrum
    SEVERAL_BAD = [
        ([("not psd", 3, 0), ("not hermitian", 0, 2), ("not psd", 1, 1)], 3),
        ([("not psd", 0, 1), ("not hermitian", 2, 1)], 2),
        ([("not psd", 3, 2), ("non-finite", 1, 2), ("not psd", 0, 2)], 1),
        ([("not psd", 1, 1), ("not psd", 3, 1), ("not hermitian", 2, 2)], 1),
        ([("overflow", 2, 1), ("not psd", 0, 2), ("non-finite", 3, 2)], 2),
    ]

    @pytest.mark.parametrize("faults,named", SEVERAL_BAD)
    def test_several_bad_elements(self, faults, named):
        raw, elements, _, _ = valid_chunk()
        for fault, i, k in faults:
            if fault == "not psd":
                v = np.linalg.eigh(elements[i, k])[1][:, 0]
                elements[i, k] -= (2.0 + i) * np.outer(v, v.conj())
            elif fault == "not hermitian":
                elements[i, k, 0, 2] += (1.0 + i) * 1e-6j
            elif fault == "non-finite":
                elements[i, k, 1, 1] = np.nan
            else:  # Hermitian, but its symmetrized copy overflows
                elements[i, k] = 1e308
        message = chunk_error(raw, elements)
        assert message == constructor_error(lambda: oracles.povm_roots(elements, range(3)))
        assert message == constructor_error(
            lambda: Povm(tuple(enumerate(elements[named]))))

    def test_elements_not_summing_to_identity(self):
        raw, elements, _, _ = valid_chunk()
        elements[0, 2] *= 0.5
        message = constructor_error(lambda: Povm(tuple(enumerate(elements[0]))))
        assert message.startswith("POVM element sum deviates")
        assert chunk_error(raw, elements) == message
