"""Pure states, density matrices, POVMs, and the rules that validate them.

Conventions
-----------
* Kets are 1-D complex arrays in the computational basis; bipartite kets use
  the ``linalg.tensor_product`` index convention (index a*dim_b + b).
* A POVM is a finite set of labelled PSD elements summing to the identity
  within ``POVM_SUM_TOL`` (rejected otherwise -- never renormalized).
  Labels are either plain ints or (i, j) int pairs, and elements are kept in
  canonical lexicographic label order so every iteration is deterministic.

Batched code checks states with ``check_density``, POVM elements with
``_element_roots`` and their sums with ``require_identity_sum``, as the
constructors do; the Hermitian-PSD rule itself is ``linalg.require_psd``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import as_complex_matrix, as_complex_stack

UNIT_NORM_TOL = 1e-10
TRACE_TOL = 1e-10
POVM_SUM_TOL = 1e-9


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.complex128, copy=True)
    out.setflags(write=False)
    return out


def _adopt(cls, **fields):
    """A ``cls`` holding ``fields`` as given, without running its rule: only
    for read-only arrays, and the values derived from them, that already
    passed that rule in batched form."""
    self = object.__new__(cls)
    vars(self).update(fields)
    return self


def _one_line(value) -> str:
    """``repr(value)`` with each run of whitespace made one space, so that an
    error message quoting it stays on one line (numpy prints a 2-D array on
    several)."""
    return " ".join(repr(value).split())


def number_or_array(value):
    """``value`` as a float if it has no axes, else as it is: the return
    rule of every closed form that takes a number or an array."""
    return float(value) if np.ndim(value) == 0 else value


def require_within(x, ok, name: str, interval: str) -> None:
    """Reject a number ``x`` unless ``ok``, or an array ``x`` unless every
    entry of the equally shaped ``ok`` holds, quoting its first offender
    in C order.  This is the only code that raises "... must lie in ...";
    other range checks, the CLI's grid, tolerance and M checks among them,
    word their errors their own way."""
    value = linalg.first_offender(x, np.logical_not(ok))
    if value is not None:
        raise ValueError(f"{name} must lie in {interval}, got {np.asarray(value).item()!r}")


def clamp_probability(x):
    """``x`` clamped to [0, 1]: a float for a number, an array for an array."""
    return number_or_array(np.clip(x, 0.0, 1.0))


def require_unit_trace(traces: np.ndarray) -> None:
    """Reject the first of the (real) traces of density matrices that
    deviates from 1 by more than TRACE_TOL."""
    tr = linalg.first_offender(traces, np.abs(traces - 1.0) > TRACE_TOL)
    if tr is not None:
        raise ValueError(
            f"density matrix trace {float(tr)!r} deviates from 1 by more than {TRACE_TOL:.1e}")


def require_identity_sum(elements) -> None:
    """Reject POVM elements (a sequence of matrices, or of equally shaped
    stacks) whose sum deviates from the identity by more than POVM_SUM_TOL."""
    with np.errstate(over="ignore"):  # an overflowing sum deviates by inf
        total = sum(elements)
    defects = np.abs(total - np.eye(total.shape[-1])).max(axis=(-2, -1))
    defect = linalg.first_offender(defects, defects > POVM_SUM_TOL)
    if defect is not None:
        raise ValueError(
            f"POVM element sum deviates from identity by {defect:.3e}"
            f" > {POVM_SUM_TOL:.1e}")


def check_density(m) -> np.ndarray:
    """The symmetrized copy of a density matrix, or of each matrix of a
    stack (..., d, d).  Rejects non-finite entries, then the first matrix
    that is not Hermitian or not PSD (``linalg.require_psd``), then the
    first that is not of unit trace."""
    name = "density matrix"
    m = linalg.require_psd(as_complex_stack(m, name), name)
    require_unit_trace(np.trace(m, axis1=-2, axis2=-1).real)
    return m


def _element_roots(elements: np.ndarray, labels, rule=linalg.sqrt_psd) -> np.ndarray:
    """``rule(elements, "element")`` on a stack (..., outcomes, d, d) whose
    outcomes are labelled ``labels``: by default sqrt(E) of each element,
    whose one eigendecomposition serves its Hermitian and PSD checks and
    its root.  A stack that fails is walked label by label, so that the
    error names its first offender in the words ``Povm`` uses."""
    try:
        return rule(elements, "element")
    except ValueError:
        for k, label in enumerate(labels):
            rule(elements[..., k, :, :], f"element {label!r}")
        raise


@dataclass(frozen=True)
class PureState:
    """Unit-norm ket, optionally carrying a bipartite (dim_a, dim_b) split."""

    amplitudes: np.ndarray
    dims: tuple[int, int] | None = None

    def __post_init__(self):
        try:
            amp = np.asarray(self.amplitudes, dtype=np.complex128)
        except (TypeError, ValueError, OverflowError):
            raise ValueError("amplitudes must be an array of complex numbers") from None
        if amp.ndim != 1:
            raise ValueError(f"amplitudes must be 1-D, got shape {amp.shape}")
        if amp.size == 0:
            raise ValueError("amplitudes must be non-empty")
        if not np.all(np.isfinite(amp)):
            raise ValueError("amplitudes contain non-finite entries")
        with np.errstate(over="ignore"):  # an overflowing norm is inf, rejected below
            norm = float(np.linalg.norm(amp))
        if abs(norm - 1.0) > UNIT_NORM_TOL:
            raise ValueError(
                f"state norm {norm!r} deviates from 1 by more than {UNIT_NORM_TOL:.1e}")
        if self.dims is not None:
            try:
                dim_a, dim_b = (linalg.as_integer(x, "dims") for x in self.dims)
            except (TypeError, ValueError):
                raise ValueError(
                    f"dims must be a pair of integers, got {_one_line(self.dims)}") from None
            if dim_a < 1 or dim_b < 1 or dim_a * dim_b != amp.size:
                raise ValueError(
                    f"dims {self.dims} incompatible with vector length {amp.size}")
            object.__setattr__(self, "dims", (dim_a, dim_b))
        object.__setattr__(self, "amplitudes", _freeze(amp))

    @property
    def dim(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, PSD, unit-trace operator."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.ndim > 2:  # check_density also takes a stack
            raise ValueError(f"density matrix must be 2-D, got shape {m.shape}")
        object.__setattr__(self, "matrix", _freeze(check_density(m)))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _label_key(label) -> tuple[int, ...]:
    """Canonical sort key: plain index i -> (i,), pair (i, j) -> (i, j)."""
    if isinstance(label, (int, np.integer)) and not isinstance(label, bool):
        return (int(label),)
    if (isinstance(label, tuple) and len(label) == 2
            and all(isinstance(x, (int, np.integer)) and not isinstance(x, bool)
                    for x in label)):
        return (int(label[0]), int(label[1]))
    raise ValueError(
        f"POVM label must be an int or an (i, j) int pair, got {_one_line(label)}")


def canonical_label(label):
    """The label as a Povm stores it: a builtin int or a pair of them."""
    key = _label_key(label)
    return key[0] if len(key) == 1 else key


@dataclass(frozen=True)
class Povm:
    """Labelled POVM; elements are stored in canonical label order."""

    elements: tuple

    def __post_init__(self):
        try:
            raw = [tuple(entry) for entry in self.elements]
        except TypeError:
            raw = None
        if raw is None or any(len(entry) != 2 for entry in raw):
            raise ValueError("POVM elements must be (label, matrix) pairs")
        if not raw:
            raise ValueError("POVM needs at least one element")
        found = {}  # canonical label -> matrix, in input order
        for label, matrix in raw:
            label = canonical_label(label)
            if label in found:
                raise ValueError(f"duplicate POVM label {label!r}")
            name = f"element {label!r}"
            m = linalg.require_square(as_complex_matrix(matrix, name), name)
            dim = len(next(iter(found.values()), m))  # the first element's
            if len(m) != dim:
                raise ValueError(f"element {label!r} has dimension {len(m)}, expected {dim}")
            found[label] = m
        labels = list(found)
        order = sorted(range(len(labels)), key=lambda k: _label_key(labels[k]))
        # checked in input order, so that the first offender is named
        stack = _element_roots(np.stack([*found.values()]), labels, linalg.require_psd)[order]
        stack.setflags(write=False)
        require_identity_sum(list(stack))
        object.__setattr__(self, "elements", tuple(zip([labels[k] for k in order], stack)))

    @property
    def dim(self) -> int:
        return self.elements[0][1].shape[0]

    @property
    def labels(self) -> tuple:
        return tuple(label for label, _ in self.elements)

    def element(self, label) -> np.ndarray:
        wanted = canonical_label(label)
        for current, matrix in self.elements:
            if current == wanted:
                return matrix
        raise KeyError(f"no POVM element labelled {label!r}")


def densify(state: PureState) -> DensityMatrix:
    """Rank-one density matrix |psi><psi|."""
    amp = state.amplitudes
    return DensityMatrix(np.outer(amp, amp.conj()))


def require_same_dim(rho: DensityMatrix, povm: Povm) -> None:
    if rho.dim != povm.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, POVM {povm.dim}")


def expectation(element: np.ndarray, rho: np.ndarray):
    """Raw tr(E rho): no window check, no clamp.  A float for two matrices,
    an array of one value per pair for stacks."""
    return number_or_array(np.einsum("...ab,...ba->...", element, rho).real)


def merged_elements(povm: Povm) -> dict[int, np.ndarray]:
    """The merged elements F_i = sum_j E_(i,j) of a pair-labelled POVM, keyed
    by i in order of first appearance.

    Every label must be an (i, j) pair; plain int labels (or a mix) are
    rejected because there is nothing well-defined to merge.
    """
    groups: dict[int, np.ndarray] = {}
    for label, element in povm.elements:
        if not isinstance(label, tuple):
            raise ValueError(
                f"coarse graining needs pair labels throughout, found {label!r}")
        i = label[0]
        if i in groups:
            groups[i] = groups[i] + element
        else:
            groups[i] = element.copy()
    return groups


def coarse_grain(povm: Povm) -> Povm:
    """Merge pair-labelled elements over their second index: F_i = sum_j E_(i,j)."""
    return Povm(tuple(merged_elements(povm).items()))


def helstrom_from_norm(d):
    """Equal-prior Helstrom probability 1/2 + d / 4 at d = ||rho - sigma||_1."""
    return 0.5 + d / 4.0


def helstrom_probability(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Best two-hypothesis discrimination probability
    1/2 + ||rho - sigma||_1 / 4 (equal priors)."""
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    return helstrom_from_norm(linalg.trace_norm(rho.matrix - sigma.matrix))

