import numpy as np
import pytest

from qseal.gentle import (
    MAX_OUTCOMES,
    GentleInstance,
    classic_bound,
    random_epsilon_target,
    random_instance,
    sweep_instances,
    unknown_outcome_bound,
    verify_instance,
)
from qseal.linalg import trace_norm
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
