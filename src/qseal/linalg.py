"""Dense complex linear algebra used throughout the seal simulator.

Everything here works on explicit 2-D complex ``numpy`` arrays; nothing is
sparse or lazy.  ``matrix_sqrt_psd`` and ``trace_norm`` also take a stack of
matrices, shape (..., d, d), and treat each matrix as the 2-D call would, with
the same bits; both take Hermitian matrices only, and each has one path for
every matrix, diagonal or not: a root comes from one ``eigh``, a trace norm
from one Hermitian SVD.  Inputs are validated up front: non-finite entries
are rejected, matrices within ``HERMITICITY_TOL`` of Hermitian are
symmetrized (farther ones rejected), and eigenvalues of nominally PSD
matrices are clamped to zero only when they sit inside ``-PSD_TOL``.  A
check on a stack runs once per matrix and reports the first offender, in the
words the 2-D check uses.
"""

from __future__ import annotations

import operator

import numpy as np

# Max |m - m^dag| entry admitted before a matrix is rejected as non-Hermitian.
HERMITICITY_TOL = 1e-10
# Eigenvalues in [-PSD_TOL, 0) count as rounding noise; below that is an error.
PSD_TOL = 1e-10
# Hard cap on any dense dimension we are willing to materialize.
MAX_DENSE_DIM = 4096
# Bytes one batched step holds, never less than one item: the gentle sweep's
# chunks of instances and blocks of outcomes, the messages the seal detection
# kernel stacks, and the scheme reader's text window (in characters).
_CHUNK_BYTES = 1 << 16


def items_per_step(item_bytes: int) -> int:
    """How many items of ``item_bytes`` bytes one batched step holds
    (``_CHUNK_BYTES``), at least one."""
    return max(1, _CHUNK_BYTES // item_bytes)


class CapacityError(ValueError):
    """An operation would materialize a dense matrix beyond ``MAX_DENSE_DIM``."""


def as_integer(value, name: str) -> int:
    """``value`` as an int; only integer types pass, never a float."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(
            f"{name} must be an integer, got {type(value).__name__}") from None


def as_complex_stack(m, name: str = "matrix") -> np.ndarray:
    """Coerce ``m`` to a complex128 matrix or stack of matrices, shape
    (..., rows, cols), rejecting NaN/Inf entries."""
    try:
        out = np.asarray(m, dtype=np.complex128)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} must be an array of complex numbers") from None
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
    matrices; reject defects above HERMITICITY_TOL, and overflowing entries."""
    require_square(m, name)
    try:
        with np.errstate(over="raise"):
            defects = np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
            symmetrized = hermitian_part(m)
    except FloatingPointError:
        raise ValueError(f"{name} has entries too large to symmetrize") from None
    defect = first_offender(defects, defects > HERMITICITY_TOL)
    if defect is not None:
        raise ValueError(f"{name} is not Hermitian: max |m - m^dag| = {defect:.3e}"
                         f" > {HERMITICITY_TOL:.1e}")
    return symmetrized


def require_psd(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """The copy ``require_hermitian`` returns, checked PSD by one ``eigvalsh``
    of the matrix or stack and ``clamp_psd_eigenvalues``."""
    m = require_hermitian(m, name)
    clamp_psd_eigenvalues(np.linalg.eigvalsh(m), name)
    return m


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
    dim_a, dim_b = as_integer(dims[0], "dim_a"), as_integer(dims[1], "dim_b")
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


def clamp_psd_eigenvalues(vals: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Zero out eigenvalues in [-PSD_TOL, 0); reject lower ones and NaN.

    ``vals`` holds one spectrum, or one per matrix of a stack along its last
    axis."""
    lows = vals.min(axis=-1, initial=0.0)  # NaN if the spectrum holds one
    low = first_offender(lows, ~(lows >= -PSD_TOL))
    if low is not None:
        raise ValueError(
            f"{name} has negative eigenvalue {low:.3e} beyond -{PSD_TOL:.1e}")
    return np.clip(vals, 0.0, None)


def matrix_sqrt_psd(m) -> np.ndarray:
    """Hermitian square root of a PSD matrix, or of each matrix of a stack;
    ``sqrt_psd`` with the input named ``m``."""
    return sqrt_psd(m, "m")


def sqrt_psd(m, name: str) -> np.ndarray:
    """Hermitian square root of a PSD matrix, or of each matrix of a stack:
    V diag(sqrt(vals)) V^dag from one ``eigh`` of the symmetrized input,
    whose spectrum is clamped by ``clamp_psd_eigenvalues``.  The Hermitian
    and PSD checks run once per matrix and call it ``name``.
    """
    m = require_hermitian(as_complex_stack(m, name), name)
    vals, vecs = np.linalg.eigh(m)
    del m  # free the symmetrized copy before the product makes two more
    adjoint = vecs.conj().swapaxes(-1, -2)
    vecs *= np.sqrt(clamp_psd_eigenvalues(vals, name))[..., None, :]
    return vecs @ adjoint


def trace_norm(m):
    """Trace norm ||m||_1 of a Hermitian matrix (a float) or of each matrix of
    a stack (an array): the sum of its absolute eigenvalues, which numpy's
    Hermitian ``svd`` takes of the copy ``require_hermitian`` returns (its
    error is raised for a non-Hermitian ``m``)."""
    m = require_hermitian(as_complex_stack(m, "m"), "m")
    norms = np.linalg.svd(m, compute_uv=False, hermitian=True).sum(axis=-1)
    return float(norms) if m.ndim == 2 else norms
