"""Shared random generators and a decomposition counter for the test suite.

The generators build objects from raw numpy draws, independent of the
package's own construction helpers, so tests can use them as neutral
fixtures or oracles.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from qseal.seal import SealScheme
from qseal.states import DensityMatrix, Povm, PureState

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

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
    counts = {"eigh": 0, "eigvalsh": 0, "svd": 0, "qr": 0}

    def counting(name, original):
        def wrapper(a, *args, **kwargs):
            counts[name] += int(np.prod(np.shape(a)[:-2]))
            return original(a, *args, **kwargs)
        return wrapper

    for name in counts:
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    return counts


def count_calls(monkeypatch, module, name: str) -> list:
    """The names of the functions that call ``module.name`` from here on, one
    per call, with the shape of each call's first argument."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append((sys._getframe(1).f_code.co_name, np.shape(args[0])))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def level_arrays(low: float, high: float, edges) -> st.SearchStrategy:
    """Float arrays of 1 or 2 axes whose entries are ``edges`` or lie in
    [low, high]: a list of them, folded into two rows when a drawn flag says
    so and its length is even."""
    entries = st.lists(st.one_of(st.sampled_from(edges), st.floats(low, high)),
                       min_size=1, max_size=24)
    return st.tuples(entries, st.booleans()).map(
        lambda case: np.array(case[0]).reshape(
            (2, -1) if case[1] and len(case[0]) % 2 == 0 else -1))


def with_offenders(arrays: st.SearchStrategy, low: float, high: float) -> st.SearchStrategy:
    """Arrays of ``arrays`` with one to three entries made NaN, infinite, or
    a float outside [low, high], the nearest ones included."""
    bad = [np.nan, -np.inf, np.inf, low - 1.0, high + 1.0,
           np.nextafter(low, -np.inf), np.nextafter(high, np.inf)]
    spots = st.lists(st.tuples(st.integers(0, 200), st.sampled_from(bad)),
                     min_size=1, max_size=3)

    def spoil(case):
        values, changes = case
        flat = values.reshape(-1)
        for index, value in changes:
            flat[index % flat.size] = value
        return values

    return st.tuples(arrays, spots).map(spoil)


def assert_entrywise(cap, values: np.ndarray, reference=None) -> None:
    """``cap`` on the array ``values`` against its scalar calls on each
    entry in C order.  If a scalar call raises, the array call raises the
    first such message.  Else each scalar call returns a float, and the array
    call an array of the same shape with the same bits; so does the float
    formula ``reference`` if given."""
    scalars = []
    for value in values.ravel().tolist():
        try:
            scalars.append(cap(value))
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                cap(values)
            assert str(raised.value) == str(exc)
            return
    assert all(type(s) is float for s in scalars)
    bits = np.array(scalars, dtype=np.float64).view(np.uint64)
    out = cap(values)
    assert isinstance(out, np.ndarray) and out.shape == values.shape
    assert np.array_equal(out.ravel().view(np.uint64), bits)
    if reference is not None:
        expected = [reference(value) for value in values.ravel().tolist()]
        assert np.array_equal(np.array(expected, dtype=np.float64).view(np.uint64), bits)


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


def source_module(path: Path) -> types.ModuleType:
    """The module in ``path``, compiled from its text so that no bytecode
    is written next to it; the file is only read."""
    module = types.ModuleType(f"{path.parent.name}_{path.stem}")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def perfbench_module(name: str) -> types.ModuleType:
    """``perfbench/<name>.py``; the benchmark's files are only read."""
    return source_module(PERFBENCH / f"{name}.py")


def generated_scheme(m_count: int, dim_a: int, dim_b: int,
                     rng: np.random.Generator) -> SealScheme:
    """The scheme ``perfbench/schemes.py`` generates for one shape."""
    arrays = perfbench_module("schemes").generate_scheme(m_count, dim_a, dim_b, rng)
    return SealScheme(
        n_messages=m_count, dim_a=dim_a, dim_b=dim_b,
        promised_p=arrays["promised_p"],
        joint_states=tuple(PureState(v, (dim_a, dim_b)) for v in arrays["states"]),
        bob_povm=Povm(tuple(arrays["povm"])))


def perfbench_pool(seed: int) -> list:
    """The ``seal_eval`` workload's schemes at ``seed``, in pool order, built
    from ``perfbench/schemes.py`` as the workload builds them."""
    return [generated_scheme(*shape, np.random.default_rng([seed, k]))
            for k, shape in enumerate(perfbench_module("schemes").POOL_SHAPES)]
