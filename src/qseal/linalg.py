"""Dense complex linear algebra used throughout the seal simulator.

Everything here works on explicit 2-D complex ``numpy`` arrays; nothing is
sparse or lazy.  ``matrix_sqrt_psd`` and ``trace_norm`` also take a stack of
matrices, shape (..., d, d), and treat each matrix as the 2-D call would, with
the same bits.  Inputs are validated up front: non-finite entries are
rejected, matrices within ``HERMITICITY_TOL`` of Hermitian are symmetrized
(farther ones rejected), and eigenvalues of nominally PSD matrices are
clamped to zero only when they sit inside ``-PSD_TOL``.  A check on a stack
runs once per matrix and reports the first offender, in the words the 2-D
check uses.
"""

from __future__ import annotations

import numpy as np

# Max |m - m^dag| entry admitted before a matrix is rejected as non-Hermitian.
HERMITICITY_TOL = 1e-10
# Eigenvalues in [-PSD_TOL, 0) count as rounding noise; below that is an error.
PSD_TOL = 1e-10
# Hard cap on any dense dimension we are willing to materialize.
MAX_DENSE_DIM = 4096


class CapacityError(ValueError):
    """An operation would materialize a dense matrix beyond ``MAX_DENSE_DIM``."""


def as_complex_stack(m, name: str = "matrix") -> np.ndarray:
    """Coerce ``m`` to a complex128 matrix or stack of matrices, shape
    (..., rows, cols), rejecting NaN/Inf entries."""
    out = np.asarray(m, dtype=np.complex128)
    if out.ndim < 2:
        raise ValueError(f"{name} must be 2-D, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} contains non-finite entries")
    return out


def as_complex_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce ``m`` to a 2-D complex128 array, rejecting NaN/Inf entries."""
    out = as_complex_stack(m, name)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {out.shape}")
    return out


def require_square(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    if m.shape[-2] != m.shape[-1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    return m


def first_offender(values: np.ndarray, bad: np.ndarray):
    """The value of the first matrix (C order) flagged in ``bad``, or None."""
    bad = np.ravel(bad)
    return np.ravel(values)[bad][0] if bad.any() else None


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m^dag)/2 of a matrix or of each matrix of a stack."""
    return (m + m.conj().swapaxes(-1, -2)) / 2.0


def require_hermitian(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Return the symmetrized copy (m + m^dag)/2 of a matrix or stack of
    matrices; reject defects above HERMITICITY_TOL."""
    require_square(m, name)
    defects = np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
    defect = first_offender(defects, defects > HERMITICITY_TOL)
    if defect is not None:
        raise ValueError(f"{name} is not Hermitian: max |m - m^dag| = {defect:.3e}"
                         f" > {HERMITICITY_TOL:.1e}")
    return hermitian_part(m)


def is_diagonal(m: np.ndarray):
    """True iff every nonzero entry of ``m`` sits on the main diagonal, as a
    numpy bool; for a stack, one flag per matrix."""
    if m.ndim == 2:  # no boolean temporary the size of a large matrix
        # np.bool_ whatever integer type this numpy's count_nonzero returns
        return np.bool_(np.count_nonzero(m) == np.count_nonzero(np.diagonal(m)))
    return (np.count_nonzero(m, axis=(-2, -1))
            == np.count_nonzero(np.diagonal(m, axis1=-2, axis2=-1), axis=-1))


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product a (x) b with a capacity guard on the result size.

    Index convention: row index of the result is i*b_rows + k for row i of
    ``a`` and row k of ``b`` (numpy's ``kron`` layout), i.e. the left factor
    is the most significant subsystem.
    """
    a = as_complex_matrix(a, "a")
    b = as_complex_matrix(b, "b")
    rows = a.shape[0] * b.shape[0]
    cols = a.shape[1] * b.shape[1]
    if max(rows, cols) > MAX_DENSE_DIM:
        raise CapacityError(f"tensor product would be {rows}x{cols}, above the"
                            f" dense cap {MAX_DENSE_DIM}")
    return np.kron(a, b)


def partial_trace(m, dims: tuple[int, int], traced: str) -> np.ndarray:
    """Trace subsystem ``"A"`` or ``"B"`` out of an operator on H_A (x) H_B.

    ``dims = (dim_a, dim_b)``; the operator uses the ``tensor_product`` index
    convention (row index a*dim_b + b).
    """
    m = as_complex_matrix(m, "m")
    dim_a, dim_b = int(dims[0]), int(dims[1])
    if dim_a < 1 or dim_b < 1:
        raise ValueError(f"dims must be positive, got {dims}")
    if m.shape != (dim_a * dim_b, dim_a * dim_b):
        raise ValueError(
            f"operator shape {m.shape} does not match dims {dim_a}x{dim_b}")
    t = m.reshape(dim_a, dim_b, dim_a, dim_b)
    if traced == "A":
        return np.einsum("abac->bc", t)
    if traced == "B":
        return np.einsum("abcb->ac", t)
    raise ValueError(f"traced must be 'A' or 'B', got {traced!r}")


def clamp_psd_spectrum(vals: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Zero out eigenvalues in [-PSD_TOL, 0); reject anything more negative.

    ``vals`` holds one spectrum, or one per matrix of a stack along its last
    axis."""
    lows = vals.min(axis=-1, initial=0.0)
    low = first_offender(lows, lows < -PSD_TOL)
    if low is not None:
        raise ValueError(
            f"{name} has negative eigenvalue {low:.3e} beyond -{PSD_TOL:.1e}")
    return np.clip(vals, 0.0, None)


def matrix_sqrt_psd(m) -> np.ndarray:
    """Hermitian square root of a PSD matrix, or of each matrix of a stack;
    ``sqrt_psd`` with the input named ``m``."""
    return sqrt_psd(m, "m")


def sqrt_psd(m, name: str) -> np.ndarray:
    """Hermitian square root of a PSD matrix, or of each matrix of a stack.

    Exactly diagonal matrices take a direct elementwise path (bit-exact for
    0/1 projectors, and cheap at large dimension); everything else goes
    through the eigendecomposition, batched over the stack.  The Hermitian
    and PSD checks run once per matrix and call it ``name``.
    """
    m = require_hermitian(as_complex_stack(m, name), name)
    full = np.logical_not(is_diagonal(m))
    if full.all():  # the common case: one batched eigendecomposition
        vals, vecs = np.linalg.eigh(m)
        vals = clamp_psd_spectrum(vals, name)
        return (vecs * np.sqrt(vals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    vals = np.diagonal(m, axis1=-2, axis2=-1).real.copy()
    if full.any():
        vals[full], vecs = np.linalg.eigh(m[full])
    vals = clamp_psd_spectrum(vals, name)
    root = np.zeros_like(m)
    diag = np.arange(m.shape[-1])
    root[..., diag, diag] = np.sqrt(vals)
    if full.any():
        root[full] = ((vecs * np.sqrt(vals[full])[..., None, :])
                      @ vecs.conj().swapaxes(-1, -2))
    return root


def trace_norm(m):
    """Trace norm ||m||_1, the sum of singular values: a float for a matrix,
    an array of one norm per matrix for a stack.

    For Hermitian ``m`` this equals the sum of absolute eigenvalues.
    """
    m = require_square(as_complex_stack(m, "m"), "m")
    norms = np.linalg.svd(m, compute_uv=False).sum(axis=-1)
    return float(norms) if m.ndim == 2 else norms
