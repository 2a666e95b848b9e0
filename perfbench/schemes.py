"""The benchmark's own seal-scheme generator and a numpy-only dense oracle.

Neither part imports ``qseal`` or the test suite, so edits to the package or
to the tests cannot move the benchmark's inputs or its reference values.
"""

from __future__ import annotations

import numpy as np

# (M, dim_a, dim_b) of the seal_eval pool, cheapest first.  Joint
# dimensions run from 16 to 512; dim_a = 1 entries are product states,
# dim_a >= 2 entries are entangled.  The six (2, 8, 32) entries (joint 256,
# about 0.1 s) hold the median task, with four entries cheaper and four
# dearer, so the median lands in the middle of one shape's times rather than
# at the edge between two shapes, where a run's few slow tasks would move it.
# The two joint-512 entries hold the tail: a run of six or more pool cycles
# has over ten tasks of that shape, so the tail never falls between two
# shapes.
POOL_SHAPES = (
    (2, 1, 16),
    (4, 1, 16),
    (4, 2, 32),
    (8, 1, 32),
    (2, 8, 32),
    (2, 8, 32),
    (2, 8, 32),
    (2, 8, 32),
    (2, 8, 32),
    (2, 8, 32),
    (8, 4, 32),
    (4, 4, 64),
    (2, 16, 32),
    (2, 16, 32),
)


def _random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _hermitian_power(m: np.ndarray, power: float) -> np.ndarray:
    vals, vecs = np.linalg.eigh((m + m.conj().T) / 2.0)
    return (vecs * np.clip(vals, 0.0, None) ** power) @ vecs.conj().T


def generate_scheme(n_messages: int, dim_a: int, dim_b: int,
                    rng: np.random.Generator) -> dict:
    """Arrays of a valid scheme: Bob's side is split into M blocks of a random
    basis; F_m concentrates on block m, and |psi_m> lives mostly there.

    Returns ``{"M", "dimA", "dimB", "promised_p", "states", "povm"}`` with
    ``povm`` a list of ((m, j), matrix) pairs, F_m split into 1 + (m-1) % 3
    pair-labelled pieces (fixed by the shape, so a task's cost is too).
    """
    basis = _random_unitary(dim_b, rng)
    blocks = np.array_split(np.arange(dim_b), n_messages)
    leak = rng.uniform(0.02, 0.1)
    raw = []
    for block in blocks:
        u = basis[:, block]
        g = rng.normal(size=(dim_b, dim_b)) + 1j * rng.normal(size=(dim_b, dim_b))
        noise = g @ g.conj().T / dim_b
        raw.append((1.0 - leak) * (u @ u.conj().T) + leak * noise)
    inv_root = _hermitian_power(sum(raw), -0.5)
    merged = []
    for a in raw:
        f = inv_root @ a @ inv_root
        merged.append((f + f.conj().T) / 2.0)

    povm = []
    for m, f in enumerate(merged, start=1):
        weights = rng.dirichlet(np.ones(1 + (m - 1) % 3))
        povm.extend(((m, j), w * f) for j, w in enumerate(weights, start=1))

    states = []
    reads = []
    for m, block in enumerate(blocks, start=1):
        u = basis[:, block]
        coeffs = (rng.normal(size=(dim_a, block.size))
                  + 1j * rng.normal(size=(dim_a, block.size)))
        spill = (rng.normal(size=(dim_a, dim_b))
                 + 1j * rng.normal(size=(dim_a, dim_b)))
        joint = coeffs @ u.T + 0.05 * spill / np.sqrt(dim_b)
        joint /= np.linalg.norm(joint)
        rho_b = joint.T @ joint.conj()
        reads.append(float(np.einsum("ab,ba->", merged[m - 1], rho_b).real))
        states.append(joint.reshape(-1))
    return {
        "M": n_messages,
        "dimA": dim_a,
        "dimB": dim_b,
        "promised_p": min(reads) - 1e-12,
        "states": states,
        "povm": povm,
    }


def oracle_metrics(scheme: dict) -> list:
    """[(p_dist, p_nfp)] per message from dense joint-space matrices."""
    dim_a, dim_b = scheme["dimA"], scheme["dimB"]
    merged: dict = {}
    for (m, _), element in scheme["povm"]:
        merged[m] = merged.get(m, 0) + element
    eye_a = np.eye(dim_a)
    lifted = [np.kron(eye_a, _hermitian_power(merged[m], 0.5))
              for m in sorted(merged)]
    out = []
    for psi in scheme["states"]:
        original = np.outer(psi, psi.conj())
        cheat = sum(k @ original @ k for k in lifted)
        gap = original - cheat
        p_dist = 0.5 + np.abs(np.linalg.eigvalsh((gap + gap.conj().T) / 2.0)).sum() / 4.0
        p_nfp = 1.0 - sum(abs(np.vdot(psi, k @ psi)) ** 2 for k in lifted)
        out.append((float(p_dist), float(p_nfp)))
    return out
