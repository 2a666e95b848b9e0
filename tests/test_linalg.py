import numpy as np
import pytest

from conftest import random_density_matrix, random_unitary
from qseal import linalg
from qseal.linalg import (
    CapacityError,
    MAX_DENSE_DIM,
    PSD_TOL,
    matrix_sqrt_psd,
    partial_trace,
    sqrt_psd,
    tensor_product,
    trace_norm,
)
from qseal.states import Povm


def two_by_two_abs_eigenvalue_sum(m):
    """Quadratic-formula |lambda_1| + |lambda_2| for a 2x2 Hermitian matrix."""
    tr = (m[0, 0] + m[1, 1]).real
    det = (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]).real
    disc = np.sqrt(tr * tr - 4.0 * det)
    return abs((tr + disc) / 2.0) + abs((tr - disc) / 2.0)


class TestTensorProduct:
    def test_identity_blocks(self):
        assert np.array_equal(tensor_product(np.eye(2), np.eye(3)), np.eye(6))

    def test_index_arithmetic_oracle(self):
        # result[i*rows_b + k, j*cols_b + l] must equal a[i,j] * b[k,l]
        rng = np.random.default_rng(3)
        a = rng.integers(-4, 5, size=(3, 2)).astype(np.complex128)
        b = rng.integers(-4, 5, size=(2, 4)).astype(np.complex128)
        out = tensor_product(a, b)
        assert out.shape == (6, 8)
        for i in range(3):
            for j in range(2):
                for k in range(2):
                    for l in range(4):
                        assert out[i * 2 + k, j * 4 + l] == a[i, j] * b[k, l]

    def test_pauli_x_pair_maps_basis(self):
        sx = np.array([[0, 1], [1, 0]], dtype=np.complex128)
        e0 = np.zeros(4)
        e0[0] = 1.0
        mapped = tensor_product(sx, sx) @ e0
        expect = np.zeros(4)
        expect[3] = 1.0  # X|0> x X|0> = |11>
        assert np.array_equal(mapped, expect)

    def test_associative_on_integer_entries(self):
        rng = np.random.default_rng(5)
        a, b, c = (rng.integers(-3, 4, size=(2, 2)).astype(np.complex128)
                   for _ in range(3))
        left = tensor_product(tensor_product(a, b), c)
        right = tensor_product(a, tensor_product(b, c))
        assert np.array_equal(left, right)

    def test_capacity_guard(self):
        wide = np.ones((1, MAX_DENSE_DIM + 1), dtype=np.complex128)
        with pytest.raises(CapacityError):
            tensor_product(wide, np.ones((1, 1)))
        # at the limit it goes through
        ok = tensor_product(np.ones((1, MAX_DENSE_DIM)), np.ones((1, 1)))
        assert ok.shape == (1, MAX_DENSE_DIM)

    def test_rejects_non_finite(self):
        bad = np.array([[np.nan, 0], [0, 1]])
        with pytest.raises(ValueError):
            tensor_product(bad, np.eye(2))


class TestPartialTrace:
    def test_bell_state_marginals(self):
        bell = np.zeros(4, dtype=np.complex128)
        bell[0] = bell[3] = 1.0 / np.sqrt(2.0)
        rho = np.outer(bell, bell.conj())
        for side in ("A", "B"):
            reduced = partial_trace(rho, (2, 2), side)
            np.testing.assert_allclose(reduced, np.eye(2) / 2.0, atol=1e-15)

    def test_product_state_factors(self):
        rng = np.random.default_rng(11)
        rho_a = random_density_matrix(3, rng).matrix
        rho_b = random_density_matrix(4, rng).matrix
        joint = tensor_product(rho_a, rho_b)
        np.testing.assert_allclose(partial_trace(joint, (3, 4), "A"), rho_b,
                                   atol=1e-12)
        np.testing.assert_allclose(partial_trace(joint, (3, 4), "B"), rho_a,
                                   atol=1e-12)

    def test_explicit_double_sum_oracle(self):
        rng = np.random.default_rng(13)
        da, db = 3, 5
        m = rng.normal(size=(da * db, da * db)) + 1j * rng.normal(size=(da * db, da * db))
        traced_a = np.zeros((db, db), dtype=np.complex128)
        for b1 in range(db):
            for b2 in range(db):
                traced_a[b1, b2] = sum(m[a * db + b1, a * db + b2]
                                       for a in range(da))
        traced_b = np.zeros((da, da), dtype=np.complex128)
        for a1 in range(da):
            for a2 in range(da):
                traced_b[a1, a2] = sum(m[a1 * db + b, a2 * db + b]
                                       for b in range(db))
        np.testing.assert_allclose(partial_trace(m, (da, db), "A"), traced_a,
                                   atol=1e-13)
        np.testing.assert_allclose(partial_trace(m, (da, db), "B"), traced_b,
                                   atol=1e-13)

    def test_preserves_trace(self):
        rng = np.random.default_rng(17)
        rho = random_density_matrix(6, rng).matrix
        for side in ("A", "B"):
            reduced = partial_trace(rho, (2, 3), side)
            assert abs(np.trace(reduced) - 1.0) < 1e-12

    def test_float_dims_are_rejected(self):
        with pytest.raises(ValueError) as exc:
            partial_trace(np.eye(4) / 4, (2.9, 2), "A")
        assert str(exc.value) == "dim_a must be an integer, got float"
        with pytest.raises(ValueError) as exc:
            partial_trace(np.eye(4) / 4, (2, 2.0), "B")
        assert str(exc.value) == "dim_b must be an integer, got float"

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(6), (2, 2), "A")
        with pytest.raises(ValueError):
            partial_trace(np.eye(4), (2, 2), "C")


class TestMatrixSqrt:
    def test_identity_and_diagonal(self):
        assert np.array_equal(matrix_sqrt_psd(np.eye(3)), np.eye(3))
        np.testing.assert_allclose(matrix_sqrt_psd(np.diag([4.0, 9.0])),
                                   np.diag([2.0, 3.0]), atol=1e-15)

    def test_projector_is_fixed_point(self):
        v = np.array([1.0, 1.0]) / np.sqrt(2.0)
        proj = np.outer(v, v)
        np.testing.assert_allclose(matrix_sqrt_psd(proj), proj, atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 5, 16, 64])
    def test_square_recovers_input(self, dim):
        rng = np.random.default_rng(200 + dim)
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        psd = g @ g.conj().T
        root = matrix_sqrt_psd(psd)
        np.testing.assert_allclose(root @ root, psd, atol=1e-9)
        np.testing.assert_allclose(root, root.conj().T, atol=1e-10)

    def test_clamps_roundoff_negatives(self):
        out = matrix_sqrt_psd(np.diag([1.0, -5e-11]))
        np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-15)

    def test_rejects_real_negatives(self):
        with pytest.raises(ValueError):
            matrix_sqrt_psd(np.diag([1.0, -1e-9]))
        with pytest.raises(ValueError):
            matrix_sqrt_psd(np.diag([1.0, -1.0]))

    def test_rejects_clearly_nonhermitian(self):
        with pytest.raises(ValueError):
            matrix_sqrt_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_symmetrizes_tiny_defect(self):
        m = np.diag([1.0, 4.0]).astype(np.complex128)
        m[0, 1] = 1e-12j  # below the hermiticity tolerance
        root = matrix_sqrt_psd(m)
        np.testing.assert_allclose(root, root.conj().T, atol=1e-15)
        np.testing.assert_allclose(root, np.diag([1.0, 2.0]), atol=1e-11)


class TestChecksAtExtremeMagnitudes:
    def test_nan_spectrum_is_rejected(self):
        with pytest.raises(ValueError, match="negative eigenvalue nan"):
            linalg.clamp_psd_eigenvalues(np.array([0.5, np.nan]))
        with pytest.raises(ValueError, match="negative eigenvalue nan"):
            linalg.clamp_psd_eigenvalues(np.array([[0.5, 0.5], [1.0, np.nan]]))

    @pytest.mark.parametrize("m", [np.full((2, 2), 1e308),
                                   np.array([[0.0, 1e308], [-1e308, 0.0]]),
                                   np.array([[[1.0, 0.0], [0.0, 1.0]], [[1.7e308, 0.0], [0.0, 0.0]]])])
    def test_overflow_is_one_error(self, m):
        with pytest.raises(ValueError, match="^matrix has entries too large to symmetrize$"):
            linalg.require_hermitian(m.astype(np.complex128))

    @pytest.mark.parametrize("scale", [1.0, 1e-300, 5e-324, 1e300])
    def test_symmetrized_bits_unchanged(self, scale):
        # (m + m^dag)/2, not m/2 + m^dag/2, which loses odd subnormals
        rng = np.random.default_rng(233)
        g = scale * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        m = g + g.conj().T
        m[0, 1] += 5e-324  # a defect within HERMITICITY_TOL
        assert np.array_equal(linalg.require_hermitian(m), (m + m.conj().T) / 2.0)


def bits(m):
    """The float64 bit patterns of a complex matrix, so that a comparison
    also tells +0.0 from -0.0."""
    return np.asarray(m, dtype=np.complex128).view(np.uint64)


class TestDiagonalOnOnePath:
    # a diagonal matrix takes the same eigh as any other, and its root is
    # exactly the entrywise one while its entries stay within LAPACK's
    # unscaled range (eigh rescales at 1e-150 and below, or 1e150 and above)
    @pytest.mark.parametrize("kind", ["projector", "general"])
    def test_root_is_the_entrywise_root(self, kind):
        rng = np.random.default_rng(241)
        for dim in range(1, 65):
            if kind == "projector":
                d = rng.integers(0, 2, size=dim).astype(np.float64)
            else:
                d = rng.uniform(0.0, 4.0, size=dim) * 10.0 ** rng.integers(-8, 9, size=dim)
                d[rng.random(dim) < 0.25] = 0.0
            assert np.array_equal(bits(sqrt_psd(np.diag(d), "m")), bits(np.diag(np.sqrt(d)))), dim

    @pytest.mark.parametrize("dim", [1, 2, 7, 16, 64])
    def test_stack_mixing_diagonal_and_dense(self, dim):
        rng = np.random.default_rng(251 + dim)
        diagonals = [rng.integers(0, 2, size=dim).astype(np.float64),
                     rng.uniform(0.0, 3.0, size=dim)]
        dense = [random_density_matrix(dim, rng).matrix for _ in range(2)]
        stack = np.stack([np.diag(diagonals[0]), dense[0], np.diag(diagonals[1]), dense[1]])
        roots = sqrt_psd(stack, "m")
        for k, d in ((0, diagonals[0]), (2, diagonals[1])):
            assert np.array_equal(bits(roots[k]), bits(np.diag(np.sqrt(d))))
        for k, m in ((1, dense[0]), (3, dense[1])):
            assert np.array_equal(bits(roots[k]), bits(sqrt_psd(m, "m")))

    @pytest.mark.parametrize("low", [-PSD_TOL, -PSD_TOL / 2, -5e-324])
    def test_povm_accepts_diagonal_roundoff(self, low):
        povm = Povm((((1, 1), np.diag([1.0, low])), ((1, 2), np.diag([0.0, 1.0 - low]))))
        assert povm.element((1, 1))[1, 1] == low

    @pytest.mark.parametrize("low", [np.nextafter(-PSD_TOL, -1.0), -2e-10, -1.0])
    def test_povm_rejects_diagonal_negative(self, low):
        with pytest.raises(ValueError) as exc:
            Povm((((1, 1), np.diag([1.0, 0.0])), ((1, 2), np.diag([low, 1.0 - low]))))
        assert str(exc.value) == (
            f"element (1, 2) has negative eigenvalue {low:.3e} beyond -{PSD_TOL:.1e}")


class TestTraceNorm:
    def test_hand_values(self):
        assert trace_norm(np.zeros((2, 2))) == 0.0
        assert abs(trace_norm(np.diag([1.0, -1.0])) - 2.0) < 1e-15
        rng = np.random.default_rng(23)
        rho = random_density_matrix(4, rng).matrix
        assert abs(trace_norm(rho) - 1.0) < 1e-12

    def test_projector_difference_quadratic_oracle(self):
        # |0><0| minus |+><+| : eigenvalues come from the 2x2 quadratic formula
        plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        diff = np.diag([1.0, 0.0]) - np.outer(plus, plus)
        expect = two_by_two_abs_eigenvalue_sum(diff.astype(np.complex128))
        assert abs(expect - np.sqrt(2.0)) < 1e-14
        assert abs(trace_norm(diff) - expect) < 1e-13

    @pytest.mark.parametrize("dim", [2, 7, 16, 64])
    def test_hermitian_eigenvalue_oracle(self, dim):
        rng = np.random.default_rng(300 + dim)
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (g + g.conj().T) / 2.0
        assert abs(trace_norm(h) - np.abs(np.linalg.eigvalsh(h)).sum()) < 1e-10

    def test_general_matrix_singular_value_oracle(self):
        # a general matrix is not taken: every caller's matrix is Hermitian
        rng = np.random.default_rng(29)
        m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        with pytest.raises(ValueError, match="^m is not Hermitian: max") as exc:
            trace_norm(m)
        with pytest.raises(ValueError) as rule:
            linalg.require_hermitian(m, "m")
        assert str(exc.value) == str(rule.value)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(31)
        h = random_density_matrix(6, rng).matrix - random_density_matrix(6, rng).matrix
        u = random_unitary(6, rng)
        assert abs(trace_norm(u @ h @ u.conj().T) - trace_norm(h)) < 1e-11

    @pytest.mark.parametrize("dim", [2, 3, 8, 16, 33, 64])
    def test_hermitian_path_matches_svd_path(self, dim):
        rng = np.random.default_rng(400 + dim)
        g = rng.normal(size=(3, dim, dim)) + 1j * rng.normal(size=(3, dim, dim))
        half = np.diag((np.arange(dim) < dim // 2).astype(float))
        u = random_unitary(dim, rng)
        stack = np.stack([
            *linalg.hermitian_part(g),
            random_density_matrix(dim, rng).matrix - random_density_matrix(dim, rng).matrix,
            u @ half @ u.conj().T - random_density_matrix(dim, rng, rank=1).matrix,
            np.zeros((dim, dim)),
        ])
        fast = trace_norm(stack)
        svd = np.linalg.svd(stack, compute_uv=False).sum(axis=-1)  # general SVD
        # each of the dim singular values lies within 4 dim eps ||m||_2 of
        # the exact one on both paths
        eps = np.finfo(float).eps
        tol = dim * 4 * dim * eps * np.linalg.norm(stack, ord=2, axis=(-2, -1))
        assert np.all(np.abs(fast - svd) <= tol)
        assert fast[-1] == 0.0
        for m, norm in zip(stack, fast):
            assert trace_norm(m) == norm  # a float, same bits

    @pytest.mark.parametrize("shape", [(4, 4), (3, 4, 4)])
    def test_hermitian_path_rejects_non_hermitian(self, shape):
        rng = np.random.default_rng(41)
        m = linalg.hermitian_part(rng.normal(size=shape) + 1j * rng.normal(size=shape))
        m[..., 0, 2] += 1e-6  # only the upper triangle
        with pytest.raises(ValueError) as exc:
            trace_norm(m)
        with pytest.raises(ValueError) as rule:
            linalg.require_hermitian(m, "m")
        assert str(exc.value) == str(rule.value)
        assert str(exc.value).startswith("m is not Hermitian")
        # numpy's Hermitian SVD would read the lower triangle and not notice
        np.linalg.svd(m, compute_uv=False, hermitian=True)

    def test_rejects_non_square_and_nan(self):
        with pytest.raises(ValueError):
            trace_norm(np.ones((2, 3)))
        with pytest.raises(ValueError):
            trace_norm(np.array([[np.nan, 0.0], [0.0, 1.0]]))
