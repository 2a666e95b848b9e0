"""Shared random generators and a decomposition counter for the test suite.

The generators build objects from raw numpy draws, independent of the
package's own construction helpers, so tests can use them as neutral
fixtures or oracles.
"""

from __future__ import annotations

import numpy as np
from hypothesis import settings

from qseal.seal import SealScheme
from qseal.states import DensityMatrix, Povm, PureState

# Property tests draw the same examples on every run: no example database,
# no wall-clock deadline, a derandomized search.
settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("deterministic")

# One line per acceptance criterion, filled in by test_acceptance.py and
# echoed after the run so the verdicts survive pytest's output capture.
ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


def count_decompositions(monkeypatch) -> dict:
    """Counts of the matrices ``np.linalg`` decomposes from here on, by call."""
    counts = {"eigh": 0, "eigvalsh": 0, "svd": 0}

    def counting(name, original):
        def wrapper(a, *args, **kwargs):
            counts[name] += int(np.prod(np.shape(a)[:-2]))
            return original(a, *args, **kwargs)
        return wrapper

    for name in counts:
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    return counts


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    # fix the phase convention so the distribution is Haar
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_density_matrix(dim: int, rng: np.random.Generator,
                          rank: int | None = None) -> DensityMatrix:
    if rank is None:
        rank = int(rng.integers(1, dim + 1))
    weights = rng.dirichlet(np.ones(rank))
    basis = random_unitary(dim, rng)[:, :rank]
    return DensityMatrix((basis * weights) @ basis.conj().T)


def random_pure_state(dim: int, rng: np.random.Generator) -> PureState:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState(v / np.linalg.norm(v))


def random_povm(dim: int, n_outcomes: int, rng: np.random.Generator,
                labels=None) -> Povm:
    """n random PSD elements normalized to sum to the identity."""
    if labels is None:
        labels = list(range(n_outcomes))
    blocks = []
    for _ in range(n_outcomes):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        blocks.append(g @ g.conj().T + 0.05 * np.eye(dim))
    total = sum(blocks)
    vals, vecs = np.linalg.eigh(total)
    inv_root = (vecs / np.sqrt(vals)) @ vecs.conj().T
    return Povm(tuple((label, inv_root @ block @ inv_root)
                      for label, block in zip(labels, blocks)))


def random_scheme(rng: np.random.Generator, n_messages: int, dim_a: int,
                  dim_b: int) -> SealScheme:
    """Valid scheme with a comfortable promise level.

    Each message gets a dedicated direction u_m on Bob's side; its merged
    element is (1 - eta) |u_m><u_m| plus a share of the leftover identity,
    optionally split into two labelled pieces.  States put most (and for
    dim_a >= 2, entangled) weight on u_m, so every read probability clears
    (1 - beta)(1 - eta) > 1/2 >= 1/M.
    """
    if n_messages > dim_b:
        raise ValueError("generator needs dim_b >= n_messages")
    eta = rng.uniform(0.02, 0.15)
    basis = random_unitary(dim_b, rng)
    anchors = [basis[:, m] for m in range(n_messages)]

    # leftover = I - (1 - eta) sum_m |u_m><u_m|, split randomly among messages
    leftover = np.eye(dim_b, dtype=np.complex128)
    for u in anchors:
        leftover -= (1.0 - eta) * np.outer(u, u.conj())
    shares = []
    for _ in range(n_messages):
        g = rng.normal(size=(dim_b, dim_b)) + 1j * rng.normal(size=(dim_b, dim_b))
        shares.append(g @ g.conj().T + 0.05 * np.eye(dim_b))
    vals, vecs = np.linalg.eigh(sum(shares))
    inv_root = (vecs / np.sqrt(vals)) @ vecs.conj().T
    lvals, lvecs = np.linalg.eigh((leftover + leftover.conj().T) / 2.0)
    lroot = (lvecs * np.sqrt(np.clip(lvals, 0.0, None))) @ lvecs.conj().T

    elements = []
    merged = []
    for m in range(1, n_messages + 1):
        u = anchors[m - 1]
        t = inv_root @ shares[m - 1] @ inv_root
        f = (1.0 - eta) * np.outer(u, u.conj()) + lroot @ t @ lroot
        f = (f + f.conj().T) / 2.0
        merged.append(f)
        if rng.random() < 0.5:
            elements.append(((m, 1), f))
        else:
            lam = rng.uniform(0.2, 0.8)
            elements.append(((m, 1), lam * f))
            elements.append(((m, 2), (1.0 - lam) * f))

    states = []
    promises = []
    for m in range(1, n_messages + 1):
        u = anchors[m - 1]
        w = rng.normal(size=dim_b) + 1j * rng.normal(size=dim_b)
        w -= np.vdot(u, w) * u
        w /= np.linalg.norm(w)
        beta = rng.uniform(0.0, 0.1)
        if dim_a == 1:
            vec = np.sqrt(1.0 - beta) * u + np.sqrt(beta) * w
            rho_b = np.outer(vec, vec.conj())
        else:
            vec = np.zeros(dim_a * dim_b, dtype=np.complex128)
            vec[:dim_b] = np.sqrt(1.0 - beta) * u
            vec[dim_b:2 * dim_b] = np.sqrt(beta) * w
            rho_b = ((1.0 - beta) * np.outer(u, u.conj())
                     + beta * np.outer(w, w.conj()))
        states.append(PureState(vec / np.linalg.norm(vec), (dim_a, dim_b)))
        promises.append(float(np.einsum("ab,ba->", merged[m - 1], rho_b).real))

    return SealScheme(
        n_messages=n_messages,
        dim_a=dim_a,
        dim_b=dim_b,
        promised_p=min(min(promises) - 1e-12, 1.0),
        joint_states=tuple(states),
        bob_povm=Povm(tuple(elements)),
    )


def projector_scheme(rng: np.random.Generator, n_messages: int, dim_a: int,
                     dim_b: int) -> SealScheme:
    """Valid scheme read out by 0/1 diagonal projectors.

    Bob's basis is split into M non-empty groups and F_m projects onto
    group m, so every sqrt(F_m) is rank-deficient (rank one when
    dim_b == M).  Message m puts weight 1 - beta on group m and beta on the
    rest, with random amplitudes across A, so it is read with probability
    exactly 1 - beta > 1/2 >= 1/M.
    """
    if n_messages > dim_b:
        raise ValueError("generator needs dim_b >= n_messages")
    groups = np.array_split(rng.permutation(dim_b), n_messages)
    masks = []
    for group in groups:
        mask = np.zeros(dim_b)
        mask[group] = 1.0
        masks.append(mask)
    states = []
    reads = []
    for mask in masks:
        g = rng.normal(size=(dim_a, dim_b)) + 1j * rng.normal(size=(dim_a, dim_b))
        inside, outside = g * mask, g * (1.0 - mask)
        beta = rng.uniform(0.0, 0.4)
        vec = (np.sqrt(1.0 - beta) * inside / np.linalg.norm(inside)
               + np.sqrt(beta) * outside / np.linalg.norm(outside))
        states.append(PureState(vec.reshape(-1), (dim_a, dim_b)))
        reads.append(1.0 - beta)
    return SealScheme(
        n_messages=n_messages,
        dim_a=dim_a,
        dim_b=dim_b,
        promised_p=min(reads) - 1e-12,
        joint_states=tuple(states),
        bob_povm=Povm(tuple(((m, 1), np.diag(mask))
                            for m, mask in enumerate(masks, start=1))),
    )
