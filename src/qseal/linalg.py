"""Dense complex linear algebra used throughout the seal simulator.

Everything here works on explicit 2-D complex ``numpy`` arrays; nothing is
sparse or lazy.  Inputs are validated up front: non-finite entries are
rejected, matrices within ``HERMITICITY_TOL`` of Hermitian are symmetrized
(farther ones rejected), and eigenvalues of nominally PSD matrices are
clamped to zero only when they sit inside ``-PSD_TOL``.
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


def as_complex_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce ``m`` to a 2-D complex128 array, rejecting NaN/Inf entries."""
    out = np.asarray(m, dtype=np.complex128)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} contains non-finite entries")
    return out


def require_square(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    return m


def require_hermitian(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Return the symmetrized copy (m + m^dag)/2; reject defects above HERMITICITY_TOL."""
    require_square(m, name)
    defect = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
    if defect > HERMITICITY_TOL:
        raise ValueError(f"{name} is not Hermitian: max |m - m^dag| = {defect:.3e}"
                         f" > {HERMITICITY_TOL:.1e}")
    return (m + m.conj().T) / 2.0


def is_diagonal(m: np.ndarray) -> bool:
    """True iff every nonzero entry of ``m`` sits on the main diagonal."""
    return np.count_nonzero(m) == np.count_nonzero(np.diagonal(m))


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
    """Zero out eigenvalues in [-PSD_TOL, 0); reject anything more negative."""
    if vals.size:
        low = float(vals.min())
        if low < -PSD_TOL:
            raise ValueError(
                f"{name} has negative eigenvalue {low:.3e} beyond -{PSD_TOL:.1e}")
    return np.clip(vals, 0.0, None)


def matrix_sqrt_psd(m) -> np.ndarray:
    """Hermitian square root of a PSD matrix.

    Exactly diagonal inputs take a direct elementwise path (bit-exact for
    0/1 projectors, and cheap at large dimension); everything else goes
    through the eigendecomposition.
    """
    m = require_hermitian(as_complex_matrix(m, "m"), "m")
    if is_diagonal(m):
        d = clamp_psd_spectrum(m.diagonal().real, "m")
        return np.diag(np.sqrt(d)).astype(np.complex128)
    vals, vecs = np.linalg.eigh(m)
    vals = clamp_psd_spectrum(vals, "m")
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def trace_norm(m) -> float:
    """Trace norm ||m||_1, the sum of singular values.

    For Hermitian ``m`` this equals the sum of absolute eigenvalues.
    """
    m = require_square(as_complex_matrix(m, "m"), "m")
    return float(np.linalg.svd(m, compute_uv=False).sum())
