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

The sweep generates and verifies instances in chunks of stacked (n, d, d)
arrays.  Each instance's random draws stay sequential, together with the one
eigendecomposition of rho whose support count decides the draws after it;
everything else runs batched over the chunk.  The chunk size changes no
draw and no bit of any result.
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
# Most instances one sweep may draw; every CSV row is kept until rendering.
MAX_INSTANCES = 100_000
# Bytes of a chunk's stacked POVM elements, (n, outcomes, dim, dim) complex,
# and so the number of instances batched at once (never fewer than one).  The
# chunk's arrays add to the peak memory of every sweep, so it stays small:
# four instances at dim 16 with 4 outcomes, one at dim 64 with 3 or more.
_CHUNK_BYTES = 1 << 16


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
    labels = instance.povm.labels
    elements = np.stack([m for _, m in instance.povm.elements])[None]
    dominant = np.array([labels.index(instance.dominant_label)])
    sums = _branch_sums(instance.rho.matrix[None], elements,
                        _element_roots(elements, labels), dominant)
    return _reports(sums, [instance.epsilon], tol)[0]


def _element_roots(elements: np.ndarray, labels) -> np.ndarray:
    """sqrt(E) of every element of n POVMs, (n, outcomes, d, d) labelled
    ``labels``.  Each element first gets the Hermitian and PSD checks ``Povm``
    runs on it, under the same name; one eigendecomposition serves both."""
    roots = np.empty_like(elements)
    for k, label in enumerate(labels):
        roots[:, k] = linalg.sqrt_psd(elements[:, k], f"element {label!r}")
    return roots


def _branch_sums(rho: np.ndarray, elements: np.ndarray, roots: np.ndarray,
                 dominant: np.ndarray) -> tuple:
    """One pass over the outcomes of n instances: rho (n, d, d), elements
    (n, outcomes, d, d) with their ``roots``, each dominant element's index.

    Returns per instance lhs_classic, lhs_unknown, the off-dominant trace-norm
    sum and the off-dominant probability.
    """
    unknown = np.zeros_like(rho)
    lhs_classic = np.empty(len(rho))
    off_norm_sum = np.zeros(len(rho))
    off_prob = np.zeros(len(rho))
    for k in range(elements.shape[1]):
        root = roots[:, k]
        branch = root @ rho @ root
        unknown += branch
        kept = dominant == k
        branch[kept] = rho[kept] - branch[kept]
        norms = linalg.trace_norm(branch)
        lhs_classic[kept] = norms[kept]
        # adding 0.0 for the dominant element leaves each running sum's bits
        off_norm_sum += np.where(kept, 0.0, norms)
        off_prob += np.where(kept, 0.0, states.expectation(elements[:, k], rho))
    return lhs_classic, linalg.trace_norm(rho - unknown), off_norm_sum, off_prob


def _reports(sums: tuple, epsilons, tol: float) -> list:
    """GentleReports from ``_branch_sums`` and each instance's epsilon."""
    reports = []
    for eps, lhs_classic, lhs_unknown, off_norm_sum, off_prob in zip(epsilons, *sums):
        b_classic = classic_bound(eps)
        b_unknown = unknown_outcome_bound(eps)
        reports.append(GentleReport(
            epsilon=eps,
            lhs_classic=float(lhs_classic),
            bound_classic=b_classic,
            satisfied_classic=bool(lhs_classic <= b_classic + tol),
            lhs_unknown=float(lhs_unknown),
            bound_unknown=b_unknown,
            satisfied_unknown=bool(lhs_unknown <= b_unknown + tol),
            off_dominant_trace_norm_sum=float(off_norm_sum),
            off_dominant_probability=float(off_prob),
        ))
    return reports


def _random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure state, or a random-rank mixture (sometimes degenerate);
    unchecked, ``_check_chunk`` checks it."""
    if rng.random() < 0.5:
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v /= np.linalg.norm(v)
        return np.outer(v, v.conj())
    rank = int(rng.integers(1, dim + 1))
    if rng.random() < 0.25:
        weights = np.full(rank, 1.0 / rank)  # exactly degenerate spectrum
    else:
        weights = rng.dirichlet(np.ones(rank))
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(g)
    basis = q[:, :rank]
    return (basis * weights) @ basis.conj().T


def _inverse_sqrt_pd(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    return (vecs / np.sqrt(vals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def _require_shape(dim: int, n_outcomes: int) -> None:
    if not 2 <= dim <= 64:
        raise ValueError(f"dim must lie in [2, 64], got {dim}")
    if n_outcomes < 2:
        raise ValueError(f"need at least 2 outcomes, got {n_outcomes}")
    if n_outcomes > MAX_OUTCOMES:
        raise ValueError(
            f"outcomes must lie in 2 to {MAX_OUTCOMES}, got {n_outcomes}")


def _check_chunk(raw: np.ndarray, rho_vals: np.ndarray, elements: np.ndarray) -> tuple:
    """Every check ``DensityMatrix`` and ``Povm`` run on a generated instance,
    once per matrix and batched over the chunk, with their messages.

    ``raw`` holds the (n, d, d) states as built, ``rho_vals`` the eigenvalues
    of their Hermitian parts, ``elements`` the (n, outcomes, d, d) POVMs with
    labels 0, 1, ...  Returns the symmetrized states and the elements' square
    roots, which the element checks compute.
    """
    name = "density matrix"
    rho = linalg.require_hermitian(linalg.as_complex_stack(raw, name), name)
    states.require_unit_trace(rho)
    linalg.clamp_psd_spectrum(rho_vals, name)
    roots = _element_roots(elements, range(elements.shape[1]))
    states.require_identity_sum(list(elements.swapaxes(0, 1)))
    return rho, roots


class _Chunk:
    """Up to n instances of one shape.  ``draw`` fills the buffers one
    instance at a time, in stream order; ``finish`` builds and checks the
    rest of every instance at once."""

    def __init__(self, dim: int, n_outcomes: int, n: int):
        self.dim, self.n_outcomes = dim, n_outcomes
        self.targets = np.zeros(n)
        self.raw = np.empty((n, dim, dim), dtype=np.complex128)
        self.rho_vals = np.empty((n, dim))
        self.dominant = np.empty(n, dtype=np.int64)
        # shares until ``finish`` turns them into the POVM elements
        self.elements = np.empty((n, n_outcomes, dim, dim), dtype=np.complex128)
        self.projectors = np.empty((n, dim, dim), dtype=np.complex128)
        self.totals = np.empty((n, dim, dim), dtype=np.complex128)
        self.kept_weight = np.empty(n)

    def draw(self, i: int, eps_target: float, rng: np.random.Generator) -> None:
        """Instance ``i``'s random draws, and the work that decides them."""
        dim = self.dim
        self.targets[i] = eps_target
        self.raw[i] = _random_density(dim, rng)
        dominant = self.dominant[i] = int(rng.integers(0, self.n_outcomes))

        vals, vecs = np.linalg.eigh(linalg.hermitian_part(self.raw[i]))
        self.rho_vals[i] = vals
        order = np.argsort(vals)[::-1]
        vals, vecs = vals[order], vecs[:, order]

        shares = self.elements[i]
        if eps_target == 0.0:
            shares[:] = 0.0
            shares[dominant] = np.eye(dim)
            return

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
        self.projectors[i] = linalg.hermitian_part(vecs[:, :keep] @ vecs[:, :keep].conj().T)
        self.kept_weight[i] = 1.0 - eps_target * rng.uniform(0.4, 1.3)

        total = 0
        floor = 0.1 * np.eye(dim)
        for k in range(self.n_outcomes):
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            a = g @ g.conj().T + floor
            if k == dominant:
                a = a * rng.uniform(0.0, 0.1)  # keep the dominant residue small
            shares[k] = a
            total = total + a
        self.totals[i] = total

    def _shares_to_elements(self) -> None:
        """Turn the shares of the instances with a nonzero target into their
        POVM elements, in place, and free the buffers only this needs."""
        active = np.flatnonzero(self.targets > 0.0)
        if active.size:
            weight = self.kept_weight[active, None, None]
            projectors = self.projectors[active]
            dominant = self.dominant[active]
            root = linalg.matrix_sqrt_psd(np.eye(self.dim) - weight * projectors)
            inv_root_total = _inverse_sqrt_pd(self.totals[active])
            left = root @ inv_root_total
            for k in range(self.n_outcomes):
                piece = left @ self.elements[active, k] @ inv_root_total @ root
                mine = dominant == k
                piece[mine] = piece[mine] + weight[mine] * projectors[mine]
                self.elements[active, k] = linalg.hermitian_part(piece)
        del self.projectors, self.totals

    def finish(self) -> tuple:
        """The checked instances, their symmetrized states (n, d, d) and the
        square roots of their elements (n, outcomes, d, d)."""
        self._shares_to_elements()
        rho, roots = _check_chunk(self.raw, self.rho_vals, self.elements)
        del self.raw
        # the instances keep views of these, not copies
        self.elements.setflags(write=False)
        instances = [
            GentleInstance(DensityMatrix.prevalidated(rho[i]),
                           Povm.prevalidated(tuple(enumerate(self.elements[i]))),
                           int(self.dominant[i]))
            for i in range(len(rho))]
        epsilons = np.array([instance.epsilon for instance in instances])
        bad = (self.targets > 0.0) & (epsilons > 2.0 * self.targets + 1e-12)
        if bad.any():
            i = int(np.argmax(bad))
            raise RuntimeError(f"construction bug: realized epsilon {instances[i].epsilon}"
                               f" > 2 * {self.targets[i]}")
        return instances, rho, roots


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
    chunk = _Chunk(dim, n_outcomes, 1)
    chunk.draw(0, eps_target, rng)
    return chunk.finish()[0][0]


def random_epsilon_target(rng: np.random.Generator) -> float:
    """Sweep policy for verification runs: occasionally 0, else log-uniform."""
    if rng.random() < 0.1:
        return 0.0
    return float(10.0 ** rng.uniform(-8.0, math.log10(0.45)))


def _chunk_size(dim: int, n_outcomes: int) -> int:
    return max(1, _CHUNK_BYTES // (16 * n_outcomes * dim * dim))


def sweep_instances(dim: int, n_outcomes: int, instances: int,
                    rng: np.random.Generator, tol: float = VIOLATION_TOL):
    """Yield (epsilon_target, instance, report) for a randomized sweep.

    Instances are drawn a chunk at a time, so the generator has made the
    draws of a whole chunk when the chunk's first instance is yielded.
    """
    # before the first draw, even for 0 instances
    _require_shape(dim, n_outcomes)
    if not 0 <= instances <= MAX_INSTANCES:
        raise ValueError(f"instances must lie in 0 to {MAX_INSTANCES}, got {instances}")
    size = _chunk_size(dim, n_outcomes)
    for start in range(0, instances, size):
        yield from _sweep_chunk(dim, n_outcomes, min(size, instances - start), rng, tol)


def _sweep_chunk(dim: int, n_outcomes: int, n: int, rng: np.random.Generator,
                 tol: float) -> list:
    # its own function, so that no array of one chunk is alive while the
    # next chunk is built
    chunk = _Chunk(dim, n_outcomes, n)
    targets = []
    for i in range(n):
        targets.append(random_epsilon_target(rng))
        chunk.draw(i, targets[-1], rng)
    built, rho, roots = chunk.finish()
    sums = _branch_sums(rho, chunk.elements, roots, chunk.dominant)
    reports = _reports(sums, [instance.epsilon for instance in built], tol)
    return list(zip(targets, built, reports))
