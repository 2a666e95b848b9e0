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
arrays.  Each instance's random draws stay sequential; rho and the dominant
projector come from one seeded Haar basis, so no decomposition sits between
them and an instance depends on the seed alone.  Everything else runs
batched over the chunk and a block of its outcomes at a time: one call
checks every state, one per block checks and roots the block's POVM
elements just before one trace-norm call takes its branches' norms (as in
``verify_instance``), and each bound is one call on every epsilon.
Neither the chunk size nor the block size changes a draw or a bit.
The dominant element is built on sqrt(I - w P) for a projector P, which is
taken in closed form (``remainder_root``).  Every branch gap is Hermitian,
as ``linalg.trace_norm`` requires; ``seal`` turns the unknown-outcome cap
into a Helstrom probability with ``states.helstrom_from_norm``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg, states
from .states import DensityMatrix, Povm

# Slack allowed before a numerically evaluated bound counts as violated.
VIOLATION_TOL = 1e-9
# Most outcomes a random instance may have; each is one dim x dim matrix.
MAX_OUTCOMES = 256
# Most instances one sweep may draw; every CSV row is kept until rendering.
MAX_INSTANCES = 100_000


def classic_bound(epsilon):
    """Disturbance cap 2 sqrt(eps) when the dominant outcome is kept: a float
    for a number in [0, 1], an array of one cap per entry for an array."""
    eps = np.asarray(epsilon, dtype=np.float64)
    states.require_within(eps, (eps >= 0.0) & (eps <= 1.0), "epsilon", "[0, 1]")
    return states.number_or_array(2.0 * np.sqrt(eps))


def unknown_outcome_bound(epsilon):
    """Disturbance cap 2 sqrt(eps) + eps when the outcome is discarded; takes
    what ``classic_bound`` takes."""
    eps = np.asarray(epsilon, dtype=np.float64)
    return states.number_or_array(classic_bound(eps) + eps)


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
        object.__setattr__(self, "dominant_label", label)
        object.__setattr__(self, "epsilon", _epsilons(dominant, self.rho.matrix))


def _epsilons(dominant: np.ndarray, rho: np.ndarray):
    """epsilon = 1 - tr(E_dominant rho) clamped to [0, 1], of one instance's
    matrices (a float) or of each instance of two stacks (an array)."""
    return states.clamp_probability(1.0 - states.expectation(dominant, rho))


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


def verify_instance(instance: GentleInstance) -> GentleReport:
    """Evaluate both disturbance inequalities and the branch-weight identities."""
    elements = np.stack([m for _, m in instance.povm.elements])[None]
    dominant = np.array([instance.povm.labels.index(instance.dominant_label)])
    return _reports(instance.rho.matrix[None], elements, dominant,
                    [instance.epsilon], VIOLATION_TOL)[0]


def _reports(rho: np.ndarray, elements: np.ndarray, dominant: np.ndarray,
             epsilons, tol: float) -> list:
    """GentleReports of n instances from their outcomes' branches, batched:
    rho (n, d, d), elements (n, outcomes, d, d), each dominant element's
    index and each instance's epsilon.  ``states._element_roots`` checks and
    roots each block of outcomes just before its branches."""
    n, n_outcomes = elements.shape[:2]
    norms = np.empty((n, n_outcomes + 1))
    probs = np.empty((n, n_outcomes))
    summed = 0  # the branches, in outcome order
    step = linalg.items_per_step(elements[:, 0].nbytes)
    for start in range(0, n_outcomes, step):
        stop = min(start + step, n_outcomes)
        last = stop == n_outcomes
        roots = states._element_roots(elements[:, start:stop], range(start, stop))
        # each Lueders branch of the block, the dominant one replaced by its
        # gap to rho, and after the last block the unknown-outcome gap; one
        # trace-norm call takes them all
        gaps = np.empty((n, stop - start + last) + rho.shape[1:], dtype=rho.dtype)
        branches = gaps[:, :stop - start]
        np.matmul(roots @ rho[:, None], roots, out=branches)
        summed = sum(np.moveaxis(branches, 1, 0), summed)
        if last:
            gaps[:, -1] = rho - summed
        mine = np.flatnonzero((start <= dominant) & (dominant < stop))
        kept = mine, dominant[mine] - start
        branches[kept] = rho[mine] - branches[kept]
        norms[:, start:stop + last] = linalg.trace_norm(gaps)
        # rho repeated, not broadcast: einsum sums a broadcast operand in
        # another order, and the probabilities must keep their per-pair bits
        probs[:, start:stop] = states.expectation(
            elements[:, start:stop], np.repeat(rho[:, None], stop - start, axis=1))
    off = np.arange(n_outcomes) != dominant[:, None]
    # summed in outcome order, adding 0.0 for the dominant element
    off_norm_sum = sum(np.where(off, norms[:, :n_outcomes], 0.0).T)
    off_prob = sum(np.where(off, probs, 0.0).T)
    eps = np.asarray(epsilons, dtype=np.float64)
    lhs_classic, b_classic = norms[np.arange(n), dominant], classic_bound(eps)
    lhs_unknown, b_unknown = norms[:, n_outcomes], unknown_outcome_bound(eps)
    columns = (eps, lhs_classic, b_classic, lhs_classic <= b_classic + tol,
               lhs_unknown, b_unknown, lhs_unknown <= b_unknown + tol,
               off_norm_sum, off_prob)  # in GentleReport's field order
    return [GentleReport(*fields) for fields in zip(*(c.tolist() for c in columns))]


def _random_density(dim: int, rng: np.random.Generator) -> tuple:
    """rho = sum_k w_k q_k q_k^dag over the first ``rank`` columns of a seeded
    Haar basis q: pure half the time, else of random rank, with equal
    weights (exactly degenerate) or Dirichlet weights sorted descending.
    Returns the unchecked rho, w and q."""
    rank = 1 if rng.random() < 0.5 else int(rng.integers(1, dim + 1))
    if rng.random() < 0.25:
        weights = np.full(rank, 1.0 / rank)
    else:
        weights = np.sort(rng.dirichlet(np.ones(rank)))[::-1]
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    basis = np.linalg.qr(g)[0]
    support = basis[:, :rank]
    return (support * weights) @ support.conj().T, weights, basis


def remainder_root(weight, projectors: np.ndarray) -> np.ndarray:
    """sqrt(I - w P) of a projector P, or of each of a stack (n, d, d) with
    its weight w (n, 1, 1), in closed form: P's eigenvalues are 0 and 1, so
    I - w P has 1 and 1 - w, and its root is I - P + sqrt(1 - w) P."""
    return np.eye(projectors.shape[-1]) - projectors + np.sqrt(1.0 - weight) * projectors


def _inverse_sqrt_pd(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    return (vecs / np.sqrt(vals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def _require_shape(dim: int, n_outcomes: int) -> tuple:
    dim, n_outcomes = linalg.as_integer(dim, "dim"), linalg.as_integer(n_outcomes, "outcomes")
    states.require_within(dim, 2 <= dim <= 64, "dim", "[2, 64]")
    if n_outcomes < 2:
        raise ValueError(f"need at least 2 outcomes, got {n_outcomes}")
    states.require_within(n_outcomes, n_outcomes <= MAX_OUTCOMES, "outcomes",
                          f"2 to {MAX_OUTCOMES}")
    return dim, n_outcomes


def _draw(eps_target: float, shares: np.ndarray, rng: np.random.Generator) -> tuple:
    """One instance's random draws in stream order.  Writes its shares,
    (outcomes, d, d), into ``shares``.

    Returns the target, the raw rho, the dominant index, the kept weight w
    and the projector P.  P spans the leading columns of rho's own basis:
    its support, less trailing weight, or widened past it.  A zero target
    keeps all of I (w = 1, P = I), so its remainder's root is exactly 0 and
    its elements come out exactly I and 0.
    """
    n_outcomes, dim = shares.shape[0], shares.shape[-1]
    raw, weights, basis = _random_density(dim, rng)
    dominant = int(rng.integers(0, n_outcomes))

    if eps_target == 0.0:
        shares[:] = 0.0
        shares[dominant] = np.eye(dim)
        return eps_target, raw, dominant, 1.0, np.eye(dim)

    keep = len(weights)
    if keep >= 2 and rng.random() < 0.5:
        # drop trailing support directions worth at most 0.3 * eps_target
        budget = 0.3 * eps_target
        while keep > 1 and weights[keep - 1:].sum() <= budget:
            keep -= 1
    # occasionally widen P beyond the support (harmless for epsilon)
    if keep < dim and rng.random() < 0.5:
        keep = int(rng.integers(keep, dim + 1))
    projector = linalg.hermitian_part(basis[:, :keep] @ basis[:, :keep].conj().T)
    weight = 1.0 - eps_target * rng.uniform(0.4, 1.3)

    def grams(run: np.ndarray) -> None:
        # each outcome's normals, real part then imaginary part, in outcome
        # order, a block at a time; the shares are g g^dag + I/10
        step = linalg.items_per_step(shares[0].nbytes)
        for start in range(0, len(run), step):
            block = run[start:start + step]
            normals = rng.normal(size=(len(block), 2, dim, dim))
            g = normals[:, 0] + 1j * normals[:, 1]
            np.matmul(g, g.conj().swapaxes(-1, -2), out=block)
            block += 0.1 * np.eye(dim)

    grams(shares[:dominant + 1])
    scale = rng.uniform(0.0, 0.1)  # keeps the dominant residue small
    grams(shares[dominant + 1:])
    shares[dominant] *= scale
    return eps_target, raw, dominant, weight, projector


def _stack(elements: np.ndarray, draws) -> tuple:
    """The targets of ``draws``, one ``_draw`` per instance of ``elements``,
    and their dominant indices and raw states, stacked.  Turns the shares
    into the POVM elements in place, batched over the instances and a block
    of their outcomes at a time (a zero target's zero remainder root leaves
    w P = I alone); nothing else of the draws outlives this call."""
    targets, raw, dominant, weight, projectors = zip(*draws)
    raw, dominant, projectors = np.array(raw), np.array(dominant), np.array(projectors)
    weight = np.array(weight)[:, None, None]
    root = remainder_root(weight, projectors)
    # summed in outcome order, as one instance at a time
    inv_root_total = _inverse_sqrt_pd(sum(np.moveaxis(elements, 1, 0)))
    left = (root @ inv_root_total)[:, None]
    step = linalg.items_per_step(elements[:, 0].nbytes)
    for start in range(0, elements.shape[1], step):
        block = elements[:, start:start + step]
        pieces = left @ block @ inv_root_total[:, None] @ root[:, None]
        mine = np.flatnonzero((start <= dominant) & (dominant < start + step))
        kept = mine, dominant[mine] - start
        pieces[kept] = pieces[kept] + weight[mine] * projectors[mine]
        block[:] = linalg.hermitian_part(pieces)
    return targets, dominant, raw


def _require_realized(targets, epsilons) -> None:
    """Reject a realized epsilon above twice its nonzero target: a construction bug."""
    targets, epsilons = np.array(targets), np.asarray(epsilons)
    bad = (targets > 0.0) & (epsilons > 2.0 * targets + 1e-12)
    if bad.any():
        i = int(np.argmax(bad))
        raise RuntimeError(f"construction bug: realized epsilon {float(epsilons[i])}"
                           f" > 2 * {float(targets[i])}")


def random_instance(dim: int, n_outcomes: int, epsilon_target: float,
                    rng: np.random.Generator) -> GentleInstance:
    """Random instance whose realized epsilon lands in [0, 2 * epsilon_target].

    The dominant element is (1 - delta) * P plus a small residue, where P is
    a projector carrying most of rho's support and delta ~ epsilon_target;
    what remains of the identity is split among the other outcomes through a
    random PSD convex combination.  ``epsilon_target = 0`` yields the exact
    limiting instance: dominant element I, all other elements zero.  The
    instance is built through ``DensityMatrix``, ``Povm`` and
    ``GentleInstance``, which check it.
    """
    dim, n_outcomes = _require_shape(dim, n_outcomes)
    eps_target = float(epsilon_target)
    states.require_within(epsilon_target, 0.0 <= eps_target < 1.0, "epsilon_target", "[0, 1)")
    elements = np.empty((1, n_outcomes, dim, dim), dtype=np.complex128)
    _, dominant, raw = _stack(elements, [_draw(eps_target, elements[0], rng)])
    instance = GentleInstance(DensityMatrix(raw[0]), Povm(tuple(enumerate(elements[0]))),
                              int(dominant[0]))
    _require_realized([eps_target], [instance.epsilon])
    return instance


def random_epsilon_target(rng: np.random.Generator) -> float:
    """Sweep policy for verification runs: occasionally 0, else log-uniform."""
    if rng.random() < 0.1:
        return 0.0
    return float(10.0 ** rng.uniform(-8.0, math.log10(0.45)))


def sweep_instances(dim: int, n_outcomes: int, instances: int,
                    rng: np.random.Generator, tol: float = VIOLATION_TOL):
    """Yield (epsilon_target, instance, report) for a randomized sweep.

    Instances are drawn a chunk at a time, so the generator has made the
    draws of a whole chunk when the chunk's first instance is yielded.
    """
    # before the first draw, even for 0 instances
    dim, n_outcomes = _require_shape(dim, n_outcomes)
    instances = linalg.as_integer(instances, "instances")
    states.require_within(instances, 0 <= instances <= MAX_INSTANCES, "instances",
                          f"0 to {MAX_INSTANCES}")
    size = linalg.items_per_step(16 * n_outcomes * dim * dim)  # one instance's elements
    for start in range(0, instances, size):
        yield from _sweep_chunk(dim, n_outcomes, min(size, instances - start), rng, tol)


def _sweep_chunk(dim: int, n_outcomes: int, n: int, rng: np.random.Generator,
                 tol: float) -> list:
    # its own function, so that no array of one chunk is alive while the
    # next chunk is built
    elements = np.empty((n, n_outcomes, dim, dim), dtype=np.complex128)
    # each target is drawn just before the rest of its instance's draws, and
    # the draws go to ``_stack`` without being kept here
    targets, dominant, raw = _stack(elements, (
        _draw(random_epsilon_target(rng), shares, rng) for shares in elements))
    # each matrix is checked once, in the constructors' order: the states,
    # each element as ``_reports`` roots it, then the identity sums
    rho = states.check_density(raw)
    # the instances keep read-only views of these, not copies
    rho.setflags(write=False)
    elements.setflags(write=False)
    epsilons = _epsilons(elements[np.arange(n), dominant], rho)
    reports = _reports(rho, elements, dominant, epsilons, tol)
    states.require_identity_sum(list(np.moveaxis(elements, 1, 0)))
    _require_realized(targets, epsilons)
    instances = [
        states._adopt(GentleInstance,
                      rho=states._adopt(DensityMatrix, matrix=rho[i]),
                      povm=states._adopt(Povm, elements=tuple(enumerate(elements[i]))),
                      dominant_label=int(dominant[i]), epsilon=float(epsilons[i]))
        for i in range(n)]
    return list(zip(targets, instances, reports))
