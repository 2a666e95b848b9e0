import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given

import oracles
from conftest import (
    assert_entrywise,
    count_calls,
    count_decompositions,
    level_arrays,
    random_density_matrix,
    random_povm,
    random_unitary,
    with_offenders,
)
from qseal import gentle, linalg
from qseal.cli import format_cell
from qseal.gentle import (
    MAX_INSTANCES,
    MAX_OUTCOMES,
    GentleInstance,
    classic_bound,
    random_epsilon_target,
    random_instance,
    remainder_root,
    sweep_instances,
    unknown_outcome_bound,
    verify_instance,
)
from qseal.linalg import hermitian_part, matrix_sqrt_psd, trace_norm
from qseal.states import DensityMatrix, Povm, PureState, densify, helstrom_probability


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

    EPSILONS = level_arrays(0.0, 1.0, [0.0, 0.5, 1.0])

    @given(values=EPSILONS)
    def test_array_matches_scalar_calls(self, values):
        assert_entrywise(classic_bound, values, lambda eps: 2.0 * math.sqrt(eps))
        assert_entrywise(unknown_outcome_bound, values,
                         lambda eps: 2.0 * math.sqrt(eps) + eps)

    @given(values=with_offenders(EPSILONS, 0.0, 1.0))
    def test_array_names_first_offender(self, values):
        assert_entrywise(classic_bound, values)
        assert_entrywise(unknown_outcome_bound, values)


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
        direct = trace_norm(instance.rho.matrix
                            - oracles.unknown_outcome_state(instance.rho,
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


def sweep_projector(dim: int, keep: int, rng) -> np.ndarray:
    """A rank-``keep`` projector hermitian_part(V V^dag), the form in which
    ``gentle._draw`` builds P, here from the eigenvectors of a random
    Hermitian matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    vecs = np.linalg.eigh(hermitian_part(g))[1][:, :keep]
    return hermitian_part(vecs @ vecs.conj().T)


class TestRemainderRoot:
    """The closed-form sqrt(I - w P) against the eigendecomposition root."""

    WEIGHTS = [0.3, 0.9, 1.0 - 1e-4, 1.0 - 4e-9]  # 1 - w >= 4e-9 in the sweep

    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 16, 33, 64])
    def test_matches_eigh_root(self, dim):
        rng = np.random.default_rng(500 + dim)
        eps = np.finfo(float).eps
        for keep in sorted({1, dim // 2, dim}):
            projector = sweep_projector(dim, keep, rng)
            for w in self.WEIGHTS:
                m = np.eye(dim) - w * projector
                closed = remainder_root(w, projector)
                dense = matrix_sqrt_psd(m)
                assert np.abs(closed @ closed - m).max() <= 1e-13
                # two Hermitian roots with residuals E_i = R_i^2 - m differ
                # by at most ||E_1 - E_2||_F over the sum of their smallest
                # eigenvalues, sqrt(1 - w) each (the eigh root's error is
                # its residual over 2 sqrt(1 - w)); doubled, and 2 dim eps
                # added, for the rounding of the residuals themselves
                residuals = sum(np.linalg.norm(r @ r - m) for r in (closed, dense))
                tol = 2.0 * (residuals + 2 * dim * eps) / (2.0 * np.sqrt(1.0 - w))
                assert np.linalg.norm(closed - dense) <= tol, (dim, keep, w)


def rotating_eigh(original, rng):
    """``np.linalg.eigh`` that turns the eigenvectors of each cluster of equal
    eigenvalues (relative gap at most 1e-12) by a seeded random unitary:
    still a valid answer, in another basis of each degenerate eigenspace."""
    def eigh(a, *args, **kwargs):
        vals, vecs = original(a, *args, **kwargs)
        vecs = vecs.copy()
        for lam, v in zip(vals.reshape(-1, vals.shape[-1]),
                          vecs.reshape((-1,) + vecs.shape[-2:])):
            gaps = np.diff(lam) > 1e-12 * max(np.abs(lam).max(), np.finfo(float).tiny)
            for cluster in np.split(np.arange(len(lam)), np.flatnonzero(gaps) + 1):
                if len(cluster) > 1:
                    v[:, cluster] = v[:, cluster] @ random_unitary(len(cluster), rng)
        return vals, vecs
    return eigh


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

    @pytest.mark.parametrize("shape,message", [
        ((16.0, 4, 10), "dim must be an integer, got float"),
        ((16, 4.0, 10), "outcomes must be an integer, got float"),
        ((16, 4, 10.0), "instances must be an integer, got float"),
        ((16, 4, 2.5), "instances must be an integer, got float"),
    ])
    def test_counts_are_integers(self, shape, message):
        # a float count is refused with a one-line ValueError before any draw
        rng = np.random.default_rng(131)
        before = rng.bit_generator.state
        with pytest.raises(ValueError) as exc:
            next(sweep_instances(*shape, rng))
        assert str(exc.value) == message
        assert rng.bit_generator.state == before

    def test_instance_shape_is_integer(self):
        with pytest.raises(ValueError) as exc:
            random_instance(4, 3.0, 0.1, np.random.default_rng(131))
        assert str(exc.value) == "outcomes must be an integer, got float"

    @pytest.mark.parametrize("instances", [-1, MAX_INSTANCES + 1])
    def test_instance_count_checked_before_first_draw(self, instances):
        rng = np.random.default_rng(131)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"instances must lie in 0 to {MAX_INSTANCES}"):
            next(sweep_instances(4, 3, instances, rng))
        assert rng.bit_generator.state == before

    def test_independent_of_the_eigenbasis_lapack_returns(self, monkeypatch):
        # an instance is a function of the seed alone: any valid basis of
        # each degenerate eigenspace gives the same instance up to rounding
        def sweep():
            return list(sweep_instances(16, 4, 100, np.random.default_rng(7)))

        plain = sweep()
        monkeypatch.setattr(np.linalg, "eigh",
                            rotating_eigh(np.linalg.eigh, np.random.default_rng(11)))
        for (_, a, report_a), (_, b, report_b) in zip(plain, sweep(), strict=True):
            assert np.abs(a.rho.matrix - b.rho.matrix).max() <= 1e-12
            assert a.dominant_label == b.dominant_label
            for (label_a, ea), (label_b, eb) in zip(a.povm.elements, b.povm.elements,
                                                    strict=True):
                assert label_a == label_b
                assert np.abs(ea - eb).max() <= 1e-12
            for name in ("epsilon", "lhs_classic", "lhs_unknown"):
                assert abs(getattr(report_a, name) - getattr(report_b, name)) <= 1e-12


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
        monkeypatch.setattr(linalg, "_CHUNK_BYTES", 4 * 16 * 3 * 5 * 5)
        rng, oracle_rng = np.random.default_rng(5), np.random.default_rng(5)
        swept = list(sweep_instances(5, 3, 30, rng))
        batched = cells(swept)
        assert batched == cells(oracles.sweep_instances(5, 3, 30, oracle_rng))
        for target, instance, _ in swept:
            if target == 0.0:
                assert_exact_limit(instance)
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

    def test_blocks_split_an_instance(self, monkeypatch):
        # two outcomes of a 5 x 5 instance per block: every instance is its
        # own chunk, its 7 outcomes run in blocks 2, 2, 2, 1, and its normals
        # are drawn two outcomes at a time
        monkeypatch.setattr(linalg, "_CHUNK_BYTES", 2 * 16 * 5 * 5)
        assert (gentle._chunk_size(5, 7), gentle._chunk_size(5, 1)) == (1, 2)
        rng, oracle_rng = np.random.default_rng(7), np.random.default_rng(7)
        swept = list(sweep_instances(5, 7, 30, rng))
        batched = cells(swept)
        assert batched == cells(oracles.sweep_instances(5, 7, 30, oracle_rng))
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        dominants = {instance.dominant_label for _, instance, _ in swept}
        targets = [target for target, _, _ in swept]
        assert dominants == set(range(7)) and 0.0 in targets

    @pytest.mark.parametrize("budget", [1, 1 << 40])
    def test_chunk_size_changes_no_bit(self, monkeypatch, budget):
        rng = np.random.default_rng(211)
        reference = cells(sweep_instances(8, 4, 21, rng))
        after = rng.bit_generator.state
        monkeypatch.setattr(linalg, "_CHUNK_BYTES", budget)
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
        # every instance's share total once (an exact instance's is I, taken
        # on the batched path with the rest) and every element once, the
        # exact instances' diagonal I and 0 included (a generic remainder's
        # root is in closed form)
        assert counts["eigh"] == count * (1 + n_outcomes)
        # rho's PSD check, once each; one QR draws each rho's basis
        assert counts["eigvalsh"] == count
        assert counts["qr"] == count
        # every branch and each unknown-outcome difference, once
        assert counts["svd"] == count * (n_outcomes + 1)

    def test_each_chunk_calls_each_bound_once(self, monkeypatch):
        calls = (count_calls(monkeypatch, gentle, "classic_bound"),
                 count_calls(monkeypatch, gentle, "unknown_outcome_bound"))
        size = gentle._chunk_size(8, 4)
        list(sweep_instances(8, 4, 2 * size + 1, np.random.default_rng(5)))
        # one call of each bound per chunk, on all of the chunk's epsilons
        for bound in calls:
            assert [shape for caller, shape in bound if caller == "_reports"] == [
                (size,), (size,), (1,)]

    def test_largest_instance_memory_stays_small(self):
        # the element stack is 16 MiB; whole-instance temporaries took the
        # parent of the blocked sweep to 80.4 MiB, and a whole stack of
        # element roots beside it to 32.7 MiB
        list(sweep_instances(2, 2, 1, np.random.default_rng(0)))
        tracemalloc.start()
        try:
            list(sweep_instances(64, MAX_OUTCOMES, 1, np.random.default_rng(233)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2 ** 20

    def test_caller_built_instance_memory_stays_small(self):
        # verify_instance roots the elements a block at a time on the
        # sweep's path; one root call on the whole stack took it to 64.1
        # MiB, and a whole stack of roots filled a block at a time to 32.6
        instance = random_instance(64, MAX_OUTCOMES, 0.1, np.random.default_rng(239))
        tracemalloc.start()
        try:
            verify_instance(instance)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2 ** 20

    def test_caller_built_instance_blocks_change_no_bit(self, monkeypatch):
        # 7 outcomes of a 5 x 5 instance, rooted in blocks 2, 2, 2, 1
        instance = random_instance(5, 7, 0.05, np.random.default_rng(241))
        whole = verify_instance(instance)
        monkeypatch.setattr(linalg, "_CHUNK_BYTES", 2 * 16 * 5 * 5)
        assert verify_instance(instance) == whole == oracles.verify_instance(instance)

    def test_random_instance_runs_no_branch_pass(self, monkeypatch):
        counts = count_decompositions(monkeypatch)
        random_instance(6, 3, 0.1, np.random.default_rng(229))
        # the share total; the PSD checks of DensityMatrix and of Povm's
        # three elements, which take no roots; one QR draws rho's basis
        assert counts == {"eigh": 1, "eigvalsh": 4, "svd": 0, "qr": 1}


def both_reports(instance):
    """``verify_instance``'s report and the per-instance reference's; every
    case below needs them equal."""
    report = verify_instance(instance)
    assert report == oracles.verify_instance(instance)
    return report


def random_pure(dim, rng):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return densify(PureState(v / np.linalg.norm(v)))


def assert_exact_limit(instance):
    """A zero target's elements: exactly I for the dominant label, exactly
    zero for the rest."""
    dim = instance.rho.dim
    for label, element in instance.povm.elements:
        exact = np.eye(dim) if label == instance.dominant_label else 0.0
        assert np.array_equal(element, exact + np.zeros((dim, dim)))


class TestLimitCases:
    """Winter's gentle lemma at its ends, degenerate states, rank-deficient
    elements, and the two ends of the Helstrom probability."""

    @pytest.mark.parametrize("dim", [2, 5, 16])
    def test_zero_target_is_the_exact_limit(self, dim):
        for seed in range(4):
            instance = random_instance(dim, 3, 0.0, np.random.default_rng([dim, seed]))
            assert_exact_limit(instance)
            report = both_reports(instance)
            # epsilon is only the trace roundoff of rho
            assert report.epsilon <= 4 * np.finfo(float).eps
            assert report.lhs_classic == 0.0 and report.lhs_unknown == 0.0
            assert report.satisfied_classic and report.satisfied_unknown

    def test_zero_epsilon_on_a_degenerate_pure_state(self):
        rho = DensityMatrix(np.diag([1.0, 0.0, 0.0]))
        povm = Povm(((0, np.diag([1.0, 0.0, 0.0])), (1, np.diag([0.0, 1.0, 1.0]))))
        report = both_reports(GentleInstance(rho, povm, 0))
        assert report.epsilon == 0.0
        assert report.bound_classic == 0.0 and report.bound_unknown == 0.0
        assert report.lhs_classic == 0.0 and report.lhs_unknown == 0.0
        assert report.satisfied_classic and report.satisfied_unknown

    @pytest.mark.parametrize("kept", [0.0, 1e-12, 1e-6, 1e-3])
    def test_epsilon_near_one(self, kept):
        # |0><0| read by {diag(kept, 1), diag(1 - kept, 0)}, dominant first:
        # epsilon = 1 - kept; keeping the outcome leaves kept |0><0|, and
        # discarding it gives |0><0| back
        rho = DensityMatrix(np.diag([1.0, 0.0]))
        povm = Povm(((0, np.diag([kept, 1.0])), (1, np.diag([1.0 - kept, 0.0]))))
        report = both_reports(GentleInstance(rho, povm, 0))
        assert report.epsilon == 1.0 - kept
        assert report.lhs_classic == pytest.approx(1.0 - kept, abs=1e-15)
        assert report.lhs_unknown == pytest.approx(0.0, abs=1e-15)
        assert report.off_dominant_probability == pytest.approx(1.0 - kept, abs=1e-15)
        assert report.satisfied_classic and report.satisfied_unknown

    @pytest.mark.parametrize("dim,n_outcomes", [(2, 2), (4, 3), (8, 5)])
    def test_maximally_mixed_state(self, dim, n_outcomes):
        # every Lueders channel fixes I/d: nothing is disturbed on average
        rng = np.random.default_rng([41, dim])
        rho = DensityMatrix(np.eye(dim) / dim)
        povm = random_povm(dim, n_outcomes, rng)
        report = both_reports(GentleInstance(rho, povm, 0))
        assert report.lhs_unknown == pytest.approx(0.0, abs=1e-14)
        assert report.satisfied_classic and report.satisfied_unknown

    @pytest.mark.parametrize("dim", [3, 6])
    def test_degenerate_spectrum_and_rank_one_elements(self, dim):
        # rho = (|u_0><u_0| + |u_1><u_1|) / 2 in a random basis, read by the
        # rank-one projectors of another random basis
        rng = np.random.default_rng([43, dim])
        basis = random_unitary(dim, rng)
        rho = DensityMatrix((basis[:, :2] @ basis[:, :2].conj().T) / 2.0)
        readout = random_unitary(dim, rng)
        povm = Povm(tuple((k, np.outer(readout[:, k], readout[:, k].conj()))
                          for k in range(dim)))
        for label in povm.labels:
            report = both_reports(GentleInstance(rho, povm, label))
            assert report.satisfied_classic and report.satisfied_unknown
            assert report.off_dominant_trace_norm_sum == pytest.approx(
                report.epsilon, abs=1e-12)

    def test_rank_deficient_elements_on_pure_states(self):
        rng = np.random.default_rng(47)
        for dim in (2, 4, 7):
            rho = random_pure(dim, rng)
            half = np.diag((np.arange(dim) < dim // 2).astype(float))
            povm = Povm(((0, half), (1, 0.5 * (np.eye(dim) - half)),
                         (2, 0.5 * (np.eye(dim) - half))))
            for label in povm.labels:
                report = both_reports(GentleInstance(rho, povm, label))
                assert report.satisfied_classic and report.satisfied_unknown

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_helstrom_of_identical_states_is_one_half(self, dim):
        rng = np.random.default_rng([53, dim])
        for rho in (random_pure(dim, rng), random_density_matrix(dim, rng)):
            assert helstrom_probability(rho, rho) == 0.5
        # a readout that commutes with rho returns it unchanged: the
        # unknown-outcome gap is zero, Helstrom exactly 1/2, on both paths
        rho = DensityMatrix(np.diag(rng.dirichlet(np.ones(dim))))
        projectors = Povm(tuple((k, np.diag(np.eye(dim)[k])) for k in range(dim)))
        report = both_reports(GentleInstance(rho, projectors, 0))
        assert 0.5 + report.lhs_unknown / 4.0 == 0.5

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_helstrom_of_orthogonal_pure_states_is_one(self, dim):
        eye = np.eye(dim)
        for a, b in ((0, 1), (dim - 1, 0)):
            first = densify(PureState(eye[a]))
            second = densify(PureState(1j * eye[b]))
            assert helstrom_probability(first, second) == 1.0
        basis = random_unitary(dim, np.random.default_rng([59, dim]))
        first, second = (densify(PureState(basis[:, k])) for k in (0, 1))
        assert helstrom_probability(first, second) == pytest.approx(1.0, abs=1e-15)
        # a projective readout of the pair: keeping the outcome that never
        # occurs on |b> removes all of |b><b|, a trace-norm gap of 1
        povm = Povm(((0, first.matrix), (1, np.eye(dim) - first.matrix)))
        report = both_reports(GentleInstance(second, povm, 0))
        assert report.epsilon == pytest.approx(1.0, abs=1e-15)
        assert report.lhs_classic == pytest.approx(1.0, abs=1e-15)
