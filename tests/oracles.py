"""Loop-at-a-time references for the batched and vectorized code paths.

* The gentle-measurement sweep written one instance at a time: every state
  and POVM goes through its validating constructor, every square root and
  trace norm is a 2-D ``linalg`` call, and every random draw is made in the
  order the batched sweep in ``qseal.gentle`` must reproduce.  Tests compare
  the batched sweep against it cell by cell.
* The scheme loader's [re, im] pair reader written one pair at a time
  (``vector_from_pairs``).  Tests require the vectorized reader in
  ``qseal.seal`` to return the same bits or raise the same message.
"""

from __future__ import annotations

import math

import numpy as np

from qseal import linalg, states
from qseal.gentle import (
    GentleInstance,
    GentleReport,
    VIOLATION_TOL,
    classic_bound,
    random_epsilon_target,
    unknown_outcome_bound,
)
from qseal.states import DensityMatrix, Povm

SUPPORT_TOL = 1e-12


def verify_instance(instance: GentleInstance, tol: float = VIOLATION_TOL) -> GentleReport:
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
    if rng.random() < 0.5:
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v /= np.linalg.norm(v)
        return DensityMatrix(np.outer(v, v.conj()))
    rank = int(rng.integers(1, dim + 1))
    if rng.random() < 0.25:
        weights = np.full(rank, 1.0 / rank)
    else:
        weights = rng.dirichlet(np.ones(rank))
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(g)
    basis = q[:, :rank]
    return DensityMatrix((basis * weights) @ basis.conj().T)


def _inverse_sqrt_pd(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    return (vecs / np.sqrt(vals)) @ vecs.conj().T


def random_instance(dim: int, n_outcomes: int, eps_target: float,
                    rng: np.random.Generator) -> GentleInstance:
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

    support = int(np.sum(vals > SUPPORT_TOL))
    keep = support
    if support >= 2 and rng.random() < 0.5:
        budget = 0.3 * eps_target
        while keep > 1 and vals[keep - 1:support].sum() <= budget:
            keep -= 1
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
            a = a * rng.uniform(0.0, 0.1)
        shares.append(a)
    inv_root_total = _inverse_sqrt_pd(sum(shares))
    elements = []
    for k, a in enumerate(shares):
        piece = root @ inv_root_total @ a @ inv_root_total @ root
        if k == dominant:
            piece = piece + (1.0 - delta) * projector
        elements.append((k, (piece + piece.conj().T) / 2.0))

    instance = GentleInstance(rho, Povm(tuple(elements)), dominant)
    assert instance.epsilon <= 2.0 * eps_target + 1e-12
    return instance


def sweep_instances(dim: int, n_outcomes: int, instances: int,
                    rng: np.random.Generator, tol: float = VIOLATION_TOL):
    """Yield (epsilon_target, instance, report), one instance at a time."""
    for _ in range(instances):
        target = random_epsilon_target(rng)
        instance = random_instance(dim, n_outcomes, target, rng)
        yield target, instance, verify_instance(instance, tol)


def vector_from_pairs(pairs, expected_len: int, what: str) -> np.ndarray:
    """Check and convert ``expected_len`` [re, im] pairs one pair at a time."""
    if not isinstance(pairs, list) or len(pairs) != expected_len:
        raise ValueError(f"scheme file: {what} must list {expected_len} [re, im] pairs")
    out = np.empty(expected_len, dtype=np.complex128)
    for k, pair in enumerate(pairs):
        if (not isinstance(pair, list) or len(pair) != 2
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                           for x in pair)):
            raise ValueError(f"scheme file: {what}[{k}] is not a [re, im] pair")
        try:
            out[k] = complex(pair[0], pair[1])
        except OverflowError:
            raise ValueError(f"scheme file: {what}[{k}] is too large for a float") from None
    return out
