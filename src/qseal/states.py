"""Pure states, density matrices, POVMs, and measurement rules.

Conventions
-----------
* Kets are 1-D complex arrays in the computational basis; bipartite kets use
  the ``linalg.tensor_product`` index convention (index a*dim_b + b).
* A POVM is a finite set of labelled PSD elements summing to the identity
  within ``POVM_SUM_TOL`` (rejected otherwise -- never renormalized).
  Labels are either plain ints or (i, j) int pairs, and elements are kept in
  canonical lexicographic label order so every iteration is deterministic.
* Measuring and keeping outcome i collapses rho to sqrt(E_i) rho sqrt(E_i) /
  tr(E_i rho); discarding the outcome leaves sum_i sqrt(E_i) rho sqrt(E_i).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import PSD_TOL, as_complex_matrix, is_diagonal, require_hermitian

UNIT_NORM_TOL = 1e-10
TRACE_TOL = 1e-10
POVM_SUM_TOL = 1e-9
# tr(E rho) may stray this far outside [0, 1] before we call it a bug.
PROB_WINDOW_TOL = 1e-12
# Outcomes at or below this probability get no post-measurement state.
ZERO_PROBABILITY = 1e-12

Label = int | tuple[int, int]


def _freeze(a: np.ndarray) -> np.ndarray:
    return _read_only(np.array(a, dtype=np.complex128, copy=True))


def _read_only(a: np.ndarray) -> np.ndarray:
    out = a.view()
    out.setflags(write=False)
    return out


def clamp_probability(x: float) -> float:
    return min(max(float(x), 0.0), 1.0)


def require_unit_trace(m: np.ndarray) -> None:
    """Reject a density matrix, or any matrix of a stack of them, whose trace
    deviates from 1 by more than TRACE_TOL."""
    traces = np.trace(m, axis1=-2, axis2=-1).real
    tr = linalg.first_offender(traces, np.abs(traces - 1.0) > TRACE_TOL)
    if tr is not None:
        raise ValueError(
            f"density matrix trace {float(tr)!r} deviates from 1 by more than {TRACE_TOL:.1e}")


def require_identity_sum(elements) -> None:
    """Reject POVM elements (a sequence of matrices, or of equally shaped
    stacks) whose sum deviates from the identity by more than POVM_SUM_TOL."""
    total = sum(elements)
    defects = np.abs(total - np.eye(total.shape[-1])).max(axis=(-2, -1))
    defect = linalg.first_offender(defects, defects > POVM_SUM_TOL)
    if defect is not None:
        raise ValueError(
            f"POVM element sum deviates from identity by {defect:.3e}"
            f" > {POVM_SUM_TOL:.1e}")


def _check_psd(m: np.ndarray, name: str) -> None:
    """Reject matrices with an eigenvalue below -PSD_TOL.

    Diagonal matrices are checked entrywise; this keeps large 0/1 projectors
    (dimension up to 4096) out of the dense eigensolver.
    """
    if is_diagonal(m):
        linalg.clamp_psd_spectrum(m.diagonal().real, name)
    else:
        linalg.clamp_psd_spectrum(np.linalg.eigvalsh(m), name)


@dataclass(frozen=True)
class PureState:
    """Unit-norm ket, optionally carrying a bipartite (dim_a, dim_b) split."""

    amplitudes: np.ndarray
    dims: tuple[int, int] | None = None

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=np.complex128)
        if amp.ndim != 1:
            raise ValueError(f"amplitudes must be 1-D, got shape {amp.shape}")
        if amp.size == 0:
            raise ValueError("amplitudes must be non-empty")
        if not np.all(np.isfinite(amp)):
            raise ValueError("amplitudes contain non-finite entries")
        norm = float(np.linalg.norm(amp))
        if abs(norm - 1.0) > UNIT_NORM_TOL:
            raise ValueError(
                f"state norm {norm!r} deviates from 1 by more than {UNIT_NORM_TOL:.1e}")
        if self.dims is not None:
            dim_a, dim_b = self.dims
            if dim_a < 1 or dim_b < 1 or dim_a * dim_b != amp.size:
                raise ValueError(
                    f"dims {self.dims} incompatible with vector length {amp.size}")
            object.__setattr__(self, "dims", (int(dim_a), int(dim_b)))
        object.__setattr__(self, "amplitudes", _freeze(amp))

    @property
    def dim(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, PSD, unit-trace operator."""

    matrix: np.ndarray

    def __post_init__(self):
        m = require_hermitian(as_complex_matrix(self.matrix, "density matrix"),
                              "density matrix")
        require_unit_trace(m)
        _check_psd(m, "density matrix")
        object.__setattr__(self, "matrix", _freeze(m))

    @classmethod
    def prevalidated(cls, matrix: np.ndarray) -> DensityMatrix:
        """A density matrix from a complex symmetrized matrix that already
        passed this class's checks (in batched form), without running them
        again.  It keeps a read-only view, not a copy: the caller must not
        write to ``matrix`` afterwards."""
        self = object.__new__(cls)
        object.__setattr__(self, "matrix", _read_only(matrix))
        return self

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
    raise ValueError(f"POVM label must be an int or an (i, j) int pair, got {label!r}")


def canonical_label(label):
    """The label as a Povm stores it: a builtin int or a pair of them."""
    key = _label_key(label)
    return key[0] if len(key) == 1 else key


@dataclass(frozen=True)
class Povm:
    """Labelled POVM; elements are stored in canonical label order."""

    elements: tuple

    def __post_init__(self):
        raw = list(self.elements)
        if not raw:
            raise ValueError("POVM needs at least one element")
        seen = set()
        cooked = []
        dim = None
        for label, matrix in raw:
            label = canonical_label(label)
            if label in seen:
                raise ValueError(f"duplicate POVM label {label!r}")
            seen.add(label)
            m = require_hermitian(as_complex_matrix(matrix, f"element {label!r}"),
                                  f"element {label!r}")
            if dim is None:
                dim = m.shape[0]
            elif m.shape[0] != dim:
                raise ValueError(
                    f"element {label!r} has dimension {m.shape[0]}, expected {dim}")
            _check_psd(m, f"element {label!r}")
            cooked.append((label, _freeze(m)))
        cooked.sort(key=lambda pair: _label_key(pair[0]))
        require_identity_sum([m for _, m in cooked])
        object.__setattr__(self, "elements", tuple(cooked))

    @classmethod
    def prevalidated(cls, elements) -> Povm:
        """A POVM from (label, complex matrix) pairs that already passed this
        class's checks (in batched form), canonical labels in canonical
        order, without running them again.  It keeps read-only views, not
        copies: the caller must not write to the matrices afterwards."""
        self = object.__new__(cls)
        object.__setattr__(self, "elements", tuple(
            (label, _read_only(matrix)) for label, matrix in elements))
        return self

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


@dataclass(frozen=True)
class MeasurementOutcome:
    """One branch of a measurement: label, probability, collapsed state.

    ``post_state`` is None when the branch probability is numerically zero
    (at or below ``ZERO_PROBABILITY``) and no collapse is defined.
    """

    label: object
    probability: float
    post_state: DensityMatrix | None


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
    value = np.einsum("...ab,...ba->...", element, rho).real
    return float(value) if value.ndim == 0 else value


def luders_branch(element: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Unnormalized post-measurement branch sqrt(E) rho sqrt(E)."""
    root = linalg.matrix_sqrt_psd(element)
    return root @ rho @ root


def _born_probability(element: np.ndarray, rho: np.ndarray, label) -> float:
    p = expectation(element, rho)
    if p < -PROB_WINDOW_TOL or p > 1.0 + PROB_WINDOW_TOL:
        raise ValueError(
            f"outcome {label!r} probability {p!r} outside [-{PROB_WINDOW_TOL:.0e},"
            f" 1+{PROB_WINDOW_TOL:.0e}]")
    return clamp_probability(p)


def measure_probabilities(rho: DensityMatrix, povm: Povm) -> np.ndarray:
    """Born probabilities tr(E_i rho) in canonical label order, clamped to [0, 1]."""
    require_same_dim(rho, povm)
    return np.array([_born_probability(m, rho.matrix, label)
                     for label, m in povm.elements])


def standard_implementation(rho: DensityMatrix, povm: Povm) -> list[MeasurementOutcome]:
    """Measure ``povm`` on ``rho``, keeping the outcome.

    Returns one ``MeasurementOutcome`` per element in canonical label order,
    with post state sqrt(E) rho sqrt(E) / tr(E rho).
    """
    require_same_dim(rho, povm)
    outcomes = []
    for label, element in povm.elements:
        p = _born_probability(element, rho.matrix, label)
        if p <= ZERO_PROBABILITY:
            outcomes.append(MeasurementOutcome(label, p, None))
            continue
        post = luders_branch(element, rho.matrix) / p
        outcomes.append(MeasurementOutcome(label, p, DensityMatrix(post)))
    return outcomes


def unknown_outcome_state(rho: DensityMatrix, povm: Povm) -> DensityMatrix:
    """Post-measurement state when the outcome is discarded:
    sum_i sqrt(E_i) rho sqrt(E_i)."""
    require_same_dim(rho, povm)
    total = np.zeros((rho.dim, rho.dim), dtype=np.complex128)
    for _, element in povm.elements:
        total += luders_branch(element, rho.matrix)
    return DensityMatrix(total)


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


def helstrom_probability(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Best two-hypothesis discrimination probability
    1/2 + ||rho - sigma||_1 / 4 (equal priors)."""
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    return 0.5 + linalg.trace_norm(rho.matrix - sigma.matrix) / 4.0

