"""Gentle-measurement disturbance bounds and their numerical verification.

If a POVM element E_j is nearly certain on rho -- tr(E_j rho) >= 1 - eps --
then measuring barely disturbs the state:

* keeping the outcome:    ||rho - sqrt(E_j) rho sqrt(E_j)||_1 <= 2 sqrt(eps)
* discarding the outcome: ||rho - sum_i sqrt(E_i) rho sqrt(E_i)||_1
                          <= 2 sqrt(eps) + eps

The unknown-outcome form follows from the triangle inequality plus the fact
that the off-dominant branches carry total weight
sum_{i != j} ||sqrt(E_i) rho sqrt(E_i)||_1 = sum_{i != j} tr(E_i rho) <= eps;
``verify_instance`` checks those intermediate identities too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg, states
from .states import DensityMatrix, Povm

# Slack allowed before a numerically evaluated bound counts as violated.
VIOLATION_TOL = 1e-9
# Eigenvalues above this are counted as support when building instances.
_SUPPORT_TOL = 1e-12
# Most outcomes a random instance may have; each is one dim x dim matrix.
MAX_OUTCOMES = 256


def _require_epsilon(epsilon: float) -> float:
    eps = float(epsilon)
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon!r}")
    return eps


def classic_bound(epsilon: float) -> float:
    """Disturbance cap 2 sqrt(eps) when the dominant outcome is kept."""
    return 2.0 * math.sqrt(_require_epsilon(epsilon))


def unknown_outcome_bound(epsilon: float) -> float:
    """Disturbance cap 2 sqrt(eps) + eps when the outcome is discarded."""
    eps = _require_epsilon(epsilon)
    return 2.0 * math.sqrt(eps) + eps


@dataclass(frozen=True)
class GentleInstance:
    """A state, a POVM, the canonical label of its dominant element, and
    ``epsilon`` = 1 - tr(E_dominant rho) clamped to [0, 1]."""

    rho: DensityMatrix
    povm: Povm
    dominant_label: object
    epsilon: float = field(init=False)

    def __post_init__(self):
        label = states.canonical_label(self.dominant_label)
        dominant = self.povm.element(label)  # KeyError if the label is absent
        states.require_same_dim(self.rho, self.povm)
        kept = states.expectation(dominant, self.rho.matrix)
        object.__setattr__(self, "dominant_label", label)
        object.__setattr__(self, "epsilon", states.clamp_probability(1.0 - kept))


@dataclass(frozen=True)
class GentleReport:
    """Numerically evaluated left-hand sides and bounds for one instance."""

    epsilon: float
    lhs_classic: float
    bound_classic: float
    satisfied_classic: bool
    lhs_unknown: float
    bound_unknown: float
    satisfied_unknown: bool
    # sum_{i != j} ||sqrt(E_i) rho sqrt(E_i)||_1 and sum_{i != j} tr(E_i rho);
    # equal to each other, and to epsilon, up to rounding.
    off_dominant_trace_norm_sum: float
    off_dominant_probability: float


def verify_instance(instance: GentleInstance, tol: float = VIOLATION_TOL) -> GentleReport:
    """Evaluate both disturbance inequalities and the branch-weight identities."""
    rho = instance.rho.matrix

    unknown = np.zeros_like(rho)
    off_norm_sum = 0.0
    off_prob = 0.0
    lhs_classic = math.nan
    for label, element in instance.povm.elements:
        branch = states.luders_branch(element, rho)
        unknown += branch
        if label == instance.dominant_label:
            lhs_classic = linalg.trace_norm(rho - branch)
        else:
            off_norm_sum += linalg.trace_norm(branch)
            off_prob += states.expectation(element, rho)

    lhs_unknown = linalg.trace_norm(rho - unknown)
    b_classic = classic_bound(instance.epsilon)
    b_unknown = unknown_outcome_bound(instance.epsilon)
    return GentleReport(
        epsilon=instance.epsilon,
        lhs_classic=lhs_classic,
        bound_classic=b_classic,
        satisfied_classic=lhs_classic <= b_classic + tol,
        lhs_unknown=lhs_unknown,
        bound_unknown=b_unknown,
        satisfied_unknown=lhs_unknown <= b_unknown + tol,
        off_dominant_trace_norm_sum=off_norm_sum,
        off_dominant_probability=off_prob,
    )


def _random_density(dim: int, rng: np.random.Generator) -> DensityMatrix:
    """Haar-random pure state, or a random-rank mixture (sometimes degenerate)."""
    if rng.random() < 0.5:
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v /= np.linalg.norm(v)
        return DensityMatrix(np.outer(v, v.conj()))
    rank = int(rng.integers(1, dim + 1))
    if rng.random() < 0.25:
        weights = np.full(rank, 1.0 / rank)  # exactly degenerate spectrum
    else:
        weights = rng.dirichlet(np.ones(rank))
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(g)
    basis = q[:, :rank]
    return DensityMatrix((basis * weights) @ basis.conj().T)


def _inverse_sqrt_pd(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    return (vecs / np.sqrt(vals)) @ vecs.conj().T


def _require_shape(dim: int, n_outcomes: int) -> None:
    if not 2 <= dim <= 64:
        raise ValueError(f"dim must lie in [2, 64], got {dim}")
    if n_outcomes < 2:
        raise ValueError(f"need at least 2 outcomes, got {n_outcomes}")
    if n_outcomes > MAX_OUTCOMES:
        raise ValueError(
            f"outcomes must lie in 2 to {MAX_OUTCOMES}, got {n_outcomes}")


def random_instance(dim: int, n_outcomes: int, epsilon_target: float,
                    rng: np.random.Generator) -> GentleInstance:
    """Random instance whose realized epsilon lands in [0, 2 * epsilon_target].

    The dominant element is (1 - delta) * P plus a small residue, where P is
    a projector carrying most of rho's support and delta ~ epsilon_target;
    what remains of the identity is split among the other outcomes through a
    random PSD convex combination.  ``epsilon_target = 0`` yields the exact
    limiting instance: dominant element I, all other elements zero.
    """
    _require_shape(dim, n_outcomes)
    eps_target = float(epsilon_target)
    if not 0.0 <= eps_target < 1.0:
        raise ValueError(f"epsilon_target must lie in [0, 1), got {epsilon_target}")

    rho = _random_density(dim, rng)
    dominant = int(rng.integers(0, n_outcomes))

    vals, vecs = np.linalg.eigh(rho.matrix)
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]

    if eps_target == 0.0:
        elements = [(k, np.zeros((dim, dim), dtype=np.complex128))
                    for k in range(n_outcomes)]
        elements[dominant] = (dominant, np.eye(dim, dtype=np.complex128))
        return GentleInstance(rho, Povm(tuple(elements)), dominant)

    support = int(np.sum(vals > _SUPPORT_TOL))
    keep = support
    if support >= 2 and rng.random() < 0.5:
        # drop trailing support directions worth at most 0.3 * eps_target
        budget = 0.3 * eps_target
        while keep > 1 and vals[keep - 1:support].sum() <= budget:
            keep -= 1
    # occasionally widen P beyond the support (harmless for epsilon)
    if keep < dim and rng.random() < 0.5:
        keep = int(rng.integers(keep, dim + 1))
    projector = vecs[:, :keep] @ vecs[:, :keep].conj().T
    projector = (projector + projector.conj().T) / 2.0

    delta = eps_target * rng.uniform(0.4, 1.3)
    remainder = np.eye(dim) - (1.0 - delta) * projector
    root = linalg.matrix_sqrt_psd(remainder)

    shares = []
    for k in range(n_outcomes):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        a = g @ g.conj().T + 0.1 * np.eye(dim)
        if k == dominant:
            a = a * rng.uniform(0.0, 0.1)  # keep the dominant residue small
        shares.append(a)
    inv_root_total = _inverse_sqrt_pd(sum(shares))
    elements = []
    for k, a in enumerate(shares):
        piece = root @ inv_root_total @ a @ inv_root_total @ root
        if k == dominant:
            piece = piece + (1.0 - delta) * projector
        elements.append((k, (piece + piece.conj().T) / 2.0))

    instance = GentleInstance(rho, Povm(tuple(elements)), dominant)
    if instance.epsilon > 2.0 * eps_target + 1e-12:
        raise RuntimeError(f"construction bug: realized epsilon {instance.epsilon}"
                           f" > 2 * {eps_target}")
    return instance


def random_epsilon_target(rng: np.random.Generator) -> float:
    """Sweep policy for verification runs: occasionally 0, else log-uniform."""
    if rng.random() < 0.1:
        return 0.0
    return float(10.0 ** rng.uniform(-8.0, math.log10(0.45)))


def sweep_instances(dim: int, n_outcomes: int, instances: int,
                    rng: np.random.Generator, tol: float = VIOLATION_TOL):
    """Yield (epsilon_target, instance, report) for a randomized sweep."""
    _require_shape(dim, n_outcomes)  # before the first draw, even for 0 instances
    for _ in range(instances):
        target = random_epsilon_target(rng)
        instance = random_instance(dim, n_outcomes, target, rng)
        yield target, instance, verify_instance(instance, tol)
