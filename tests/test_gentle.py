import numpy as np
import pytest

import oracles
from conftest import count_decompositions
from qseal import gentle
from qseal.cli import format_cell
from qseal.gentle import (
    MAX_INSTANCES,
    MAX_OUTCOMES,
    GentleInstance,
    classic_bound,
    random_epsilon_target,
    random_instance,
    sweep_instances,
    unknown_outcome_bound,
    verify_instance,
)
from qseal.linalg import hermitian_part, trace_norm
from qseal.states import DensityMatrix, Povm, PureState, densify


def plus_state():
    return densify(PureState(np.array([1.0, 1.0]) / np.sqrt(2.0)))


def standard_basis_povm():
    return Povm(((0, np.diag([1.0, 0.0])), (1, np.diag([0.0, 1.0]))))


class TestBoundFormulas:
    def test_hand_values(self):
        assert classic_bound(0.0) == 0.0
        assert unknown_outcome_bound(0.0) == 0.0
        assert classic_bound(0.25) == pytest.approx(1.0, abs=1e-15)
        assert unknown_outcome_bound(0.25) == pytest.approx(1.25, abs=1e-15)
        assert classic_bound(1.0) == pytest.approx(2.0, abs=1e-15)
        assert unknown_outcome_bound(1.0) == pytest.approx(3.0, abs=1e-15)

    def test_unknown_dominates_classic(self):
        for eps in np.linspace(0.0, 1.0, 21):
            assert unknown_outcome_bound(eps) >= classic_bound(eps)

    def test_domain_checks(self):
        for bad in (-0.1, 1.1, np.nan):
            with pytest.raises(ValueError):
                classic_bound(bad)
            with pytest.raises(ValueError):
                unknown_outcome_bound(bad)


class TestVerifyInstance:
    def test_identity_povm_is_perfectly_gentle(self):
        instance = GentleInstance(plus_state(), Povm(((0, np.eye(2)),)), 0)
        report = verify_instance(instance)
        assert report.epsilon <= 1e-15  # only state-construction roundoff
        assert report.lhs_classic == pytest.approx(0.0, abs=1e-14)
        assert report.lhs_unknown == pytest.approx(0.0, abs=1e-14)
        assert report.satisfied_classic and report.satisfied_unknown

    def test_eigenstate_of_projector_untouched(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]))
        report = verify_instance(GentleInstance(rho, standard_basis_povm(), 0))
        assert report.epsilon == pytest.approx(0.0, abs=1e-15)
        assert report.lhs_classic == pytest.approx(0.0, abs=1e-14)

    def test_plus_state_halfway_case(self):
        # dominant outcome captures only half the weight: eps = 1/2
        report = verify_instance(GentleInstance(plus_state(),
                                                standard_basis_povm(), 0))
        assert report.epsilon == pytest.approx(0.5, abs=1e-15)
        # collapse branch is |0><0|/2; quadratic-formula trace norm of the gap
        diff = plus_state().matrix - np.diag([0.5, 0.0])
        tr, det = diff.trace().real, np.linalg.det(diff).real
        disc = np.sqrt(tr * tr - 4.0 * det)
        expect_classic = abs((tr + disc) / 2.0) + abs((tr - disc) / 2.0)
        assert report.lhs_classic == pytest.approx(expect_classic, abs=1e-13)
        assert report.lhs_classic <= report.bound_classic
        # unknown-outcome state is maximally mixed, one unit of trace distance
        assert report.lhs_unknown == pytest.approx(1.0, abs=1e-13)
        assert report.bound_unknown == pytest.approx(np.sqrt(2.0) + 0.5, abs=1e-13)
        assert report.satisfied_classic and report.satisfied_unknown

    def test_numpy_label_is_stored_canonical(self):
        numpy_label = GentleInstance(plus_state(), standard_basis_povm(), np.int64(0))
        assert type(numpy_label.dominant_label) is int
        builtin_label = GentleInstance(plus_state(), standard_basis_povm(), 0)
        assert verify_instance(numpy_label) == verify_instance(builtin_label)
        pairs = Povm((((1, 1), np.diag([1.0, 0.0])), ((2, 1), np.diag([0.0, 1.0]))))
        pair_label = GentleInstance(plus_state(), pairs, (np.int64(1), np.int64(1)))
        assert pair_label.dominant_label == (1, 1)
        assert all(type(x) is int for x in pair_label.dominant_label)

    def test_proof_identities(self):
        rng = np.random.default_rng(83)
        for _ in range(25):
            target = random_epsilon_target(rng)
            instance = random_instance(4, 3, target, rng)
            report = verify_instance(instance)
            # off-dominant branch mass equals epsilon both as probabilities
            # and as trace norms of the collapse terms
            assert abs(report.off_dominant_probability - report.epsilon) < 1e-10
            assert abs(report.off_dominant_trace_norm_sum
                       - report.off_dominant_probability) < 1e-10

    def test_triangle_decomposition(self):
        rng = np.random.default_rng(89)
        for _ in range(25):
            instance = random_instance(6, 4, random_epsilon_target(rng), rng)
            report = verify_instance(instance)
            assert (report.lhs_unknown <= report.lhs_classic
                    + report.off_dominant_trace_norm_sum + 1e-10)

    def test_unknown_lhs_matches_direct_computation(self):
        rng = np.random.default_rng(97)
        instance = random_instance(5, 3, 0.2, rng)
        report = verify_instance(instance)
        from qseal.states import unknown_outcome_state
        direct = trace_norm(instance.rho.matrix
                            - unknown_outcome_state(instance.rho,
                                                    instance.povm).matrix)
        assert report.lhs_unknown == pytest.approx(direct, abs=1e-12)


class TestRandomInstance:
    def test_zero_target_gives_identity_element(self):
        rng = np.random.default_rng(101)
        instance = random_instance(4, 3, 0.0, rng)
        dominant = instance.povm.element(instance.dominant_label)
        assert np.abs(dominant - np.eye(4)).max() <= 1e-12
        for label in instance.povm.labels:
            if label != instance.dominant_label:
                assert np.abs(instance.povm.element(label)).max() <= 1e-12
        assert instance.epsilon == 0.0

    @pytest.mark.parametrize("target", [1e-6, 1e-3, 0.05, 0.2, 0.45])
    @pytest.mark.parametrize("dim", [2, 8, 16])
    def test_realized_epsilon_near_target(self, dim, target):
        rng = np.random.default_rng(int(target * 1e7) + dim)
        instance = random_instance(dim, 4, target, rng)
        assert 0.0 <= instance.epsilon <= 2.0 * target + 1e-12

    def test_dim_64_supported(self):
        rng = np.random.default_rng(103)
        instance = random_instance(64, 3, 0.1, rng)
        assert instance.rho.dim == 64
        assert verify_instance(instance).satisfied_unknown

    def test_replay_is_bit_identical(self):
        a = random_instance(6, 3, 0.07, np.random.default_rng(55))
        b = random_instance(6, 3, 0.07, np.random.default_rng(55))
        assert np.array_equal(a.rho.matrix, b.rho.matrix)
        assert a.povm.labels == b.povm.labels
        for label in a.povm.labels:
            assert np.array_equal(a.povm.element(label), b.povm.element(label))
        assert a.dominant_label == b.dominant_label

    def test_matrices_read_only(self):
        for _, instance, _ in sweep_instances(3, 3, 6, np.random.default_rng(57)):
            matrices = [instance.rho.matrix] + [m for _, m in instance.povm.elements]
            for m in matrices:
                with pytest.raises(ValueError, match="read-only"):
                    m[0, 0] = 0.0

    def test_argument_validation(self):
        rng = np.random.default_rng(107)
        with pytest.raises(ValueError):
            random_instance(1, 3, 0.1, rng)
        with pytest.raises(ValueError):
            random_instance(65, 3, 0.1, rng)
        with pytest.raises(ValueError):
            random_instance(4, 1, 0.1, rng)
        with pytest.raises(ValueError, match="outcomes must lie in 2 to 256"):
            random_instance(4, MAX_OUTCOMES + 1, 0.1, rng)
        with pytest.raises(ValueError):
            random_instance(4, 3, 1.0, rng)
        with pytest.raises(ValueError):
            random_instance(4, 3, -0.2, rng)

    def test_epsilon_target_distribution(self):
        rng = np.random.default_rng(109)
        targets = [random_epsilon_target(rng) for _ in range(500)]
        assert all(0.0 <= t <= 0.45 for t in targets)
        assert any(t == 0.0 for t in targets)
        assert any(t < 1e-6 for t in targets)
        assert any(t > 0.1 for t in targets)


class TestSweep:
    @pytest.mark.parametrize("dim", [2, 8])
    def test_no_violations_and_identities(self, dim):
        rng = np.random.default_rng(113 + dim)
        for target, instance, report in sweep_instances(dim, 4, 100, rng):
            assert report.satisfied_classic, (dim, target)
            assert report.satisfied_unknown, (dim, target)
            assert abs(report.off_dominant_probability - report.epsilon) < 1e-10
            assert abs(report.off_dominant_trace_norm_sum
                       - report.off_dominant_probability) < 1e-10
            assert 0.0 <= instance.epsilon <= 2.0 * target + 1e-12

    @pytest.mark.parametrize("dim,n_outcomes", [(1, 4), (65, 4), (4, 1),
                                                (4, MAX_OUTCOMES + 1)])
    @pytest.mark.parametrize("instances", [0, 3])
    def test_shape_checked_before_first_draw(self, dim, n_outcomes, instances):
        rng = np.random.default_rng(127)
        before = rng.bit_generator.state
        with pytest.raises(ValueError):
            next(sweep_instances(dim, n_outcomes, instances, rng))
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("instances", [-1, MAX_INSTANCES + 1])
    def test_instance_count_checked_before_first_draw(self, instances):
        rng = np.random.default_rng(131)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"instances must lie in 0 to {MAX_INSTANCES}"):
            next(sweep_instances(4, 3, instances, rng))
        assert rng.bit_generator.state == before


def cells(sweep) -> list:
    """Each (target, instance, report) as the CLI's CSV cells, plus the
    report fields the CSV leaves out and the instance's matrices as bytes."""
    out = []
    for target, instance, report in sweep:
        row = [target, report.epsilon, report.lhs_classic, report.bound_classic,
               report.bound_classic - report.lhs_classic, report.lhs_unknown,
               report.bound_unknown, report.bound_unknown - report.lhs_unknown,
               report.satisfied_classic and report.satisfied_unknown,
               report.off_dominant_trace_norm_sum, report.off_dominant_probability,
               instance.epsilon, instance.dominant_label]
        matrices = [instance.rho.matrix] + [m for _, m in instance.povm.elements]
        out.append([format_cell(x) for x in row] + [instance.povm.labels]
                   + [m.tobytes() for m in matrices])
    return out


ORACLE_SHAPES = [(dim, n_outcomes) for dim in (2, 3, 8, 16, 64)
                 for n_outcomes in (2, 4, 17)]


class TestDenseOracle:
    """The batched sweep against ``oracles``, the one-instance-at-a-time
    sweep: equal CSV cells, equal matrices, the same generator state."""

    @pytest.mark.parametrize("dim,n_outcomes", ORACLE_SHAPES)
    def test_sweep_matches_oracle(self, dim, n_outcomes):
        size = gentle._chunk_size(dim, n_outcomes)
        count = 2 if dim == 64 else 11
        assert size == 1 or count % size  # a partial last chunk
        for seed in (0, 1, 2):
            rng, oracle_rng = (np.random.default_rng([seed, dim, n_outcomes])
                               for _ in range(2))
            batched = cells(sweep_instances(dim, n_outcomes, count, rng))
            assert batched == cells(oracles.sweep_instances(
                dim, n_outcomes, count, oracle_rng))
            assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_zero_targets_inside_a_chunk(self, monkeypatch):
        # chunks of 4 mixing exact (diagonal) and generic instances
        monkeypatch.setattr(gentle, "_CHUNK_BYTES", 4 * 16 * 3 * 5 * 5)
        rng, oracle_rng = np.random.default_rng(5), np.random.default_rng(5)
        batched = cells(sweep_instances(5, 3, 30, rng))
        assert batched == cells(oracles.sweep_instances(5, 3, 30, oracle_rng))
        targets = [float(row[0]) for row in batched]
        assert targets.count(0.0) >= 2
        assert any(0.0 in targets[k:k + 4] and max(targets[k:k + 4]) > 0.0
                   for k in range(0, 30, 4))

    @pytest.mark.parametrize("dim", [2, 7, 64])
    def test_zero_target_instance_matches_oracle(self, dim):
        instance = random_instance(dim, 4, 0.0, np.random.default_rng(dim))
        dense = oracles.random_instance(dim, 4, 0.0, np.random.default_rng(dim))
        assert (cells([(0.0, instance, verify_instance(instance))])
                == cells([(0.0, dense, oracles.verify_instance(dense))]))

    @pytest.mark.parametrize("budget", [1, 1 << 40])
    def test_chunk_size_changes_no_bit(self, monkeypatch, budget):
        rng = np.random.default_rng(211)
        reference = cells(sweep_instances(8, 4, 21, rng))
        after = rng.bit_generator.state
        monkeypatch.setattr(gentle, "_CHUNK_BYTES", budget)
        rng = np.random.default_rng(211)
        assert cells(sweep_instances(8, 4, 21, rng)) == reference
        assert rng.bit_generator.state == after

    def test_each_matrix_decomposed_once(self, monkeypatch):
        counts = count_decompositions(monkeypatch)
        dim, n_outcomes, count = 6, 3, 40
        targets = [t for t, _, _ in sweep_instances(
            dim, n_outcomes, count, np.random.default_rng(223))]
        active = sum(t > 0.0 for t in targets)
        assert 0 < active < count
        # rho once each; the remainder, the share total and every element of
        # a generic instance once each; the exact instances' elements are
        # diagonal and take no decomposition
        assert counts["eigh"] == count + active * (2 + n_outcomes)
        assert counts["eigvalsh"] == 0
        # every branch and each unknown-outcome difference, once
        assert counts["svd"] == count * (n_outcomes + 1)

    def test_random_instance_runs_no_branch_pass(self, monkeypatch):
        counts = count_decompositions(monkeypatch)
        random_instance(6, 3, 0.1, np.random.default_rng(229))
        # rho, the remainder, the share total and the three elements
        assert counts == {"eigh": 6, "eigvalsh": 0, "svd": 0}


def valid_chunk(dim=3, n_outcomes=3, n=4):
    """(raw states, element stack, dominant indices, instances) of n valid
    instances."""
    rng = np.random.default_rng(227)
    built = [oracles.random_instance(dim, n_outcomes, 0.1, rng) for _ in range(n)]
    raw = np.stack([b.rho.matrix for b in built])
    elements = np.stack([[m for _, m in b.povm.elements] for b in built])
    dominant = np.array([b.dominant_label for b in built])
    return raw, elements, dominant, built


def chunk_error(raw, elements) -> str:
    vals = np.linalg.eigh(hermitian_part(raw))[0]
    with pytest.raises(ValueError) as exc:
        gentle._check_chunk(raw, vals, elements)
    return str(exc.value)


def constructor_error(make) -> str:
    with pytest.raises(ValueError) as exc:
        make()
    return str(exc.value)


class TestBatchedChecks:
    """One bad matrix in an otherwise valid chunk: the batched checks raise
    what the per-object constructor raises for it."""

    def test_valid_chunk_passes(self):
        raw, elements, dominant, built = valid_chunk()
        rho, roots = gentle._check_chunk(
            raw, np.linalg.eigh(hermitian_part(raw))[0], elements)
        assert np.array_equal(rho, raw)
        sums = gentle._branch_sums(rho, elements, roots, dominant)
        for b, lhs_classic, lhs_unknown, off_norm, off_prob in zip(built, *sums):
            report = oracles.verify_instance(b)
            assert (report.lhs_classic, report.lhs_unknown,
                    report.off_dominant_trace_norm_sum,
                    report.off_dominant_probability) == (
                lhs_classic, lhs_unknown, off_norm, off_prob)

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

    def test_elements_not_summing_to_identity(self):
        raw, elements, _, _ = valid_chunk()
        elements[0, 2] *= 0.5
        message = constructor_error(lambda: Povm(tuple(enumerate(elements[0]))))
        assert message.startswith("POVM element sum deviates")
        assert chunk_error(raw, elements) == message
