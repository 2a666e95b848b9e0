"""Bipartite seal schemes and the cheat-detection metrics.

A scheme commits to M messages.  Message m is encoded in a bipartite pure
state |psi_m> on H_A (x) H_B; Bob holds the B share plus a classical
description of a pair-labelled POVM {E_(i,j)}, and reading the message means
measuring and taking the first label index.  The scheme promises that the
correct message is read with probability at least ``promised_p``.

Bob's least-disturbing way to read early is to merge each message's elements
into F_i = sum_j E_(i,j), measure {F_i}, and hand back the unknown-outcome
state sum_i (I (x) sqrt(F_i)) |psi_m><psi_m| (I (x) sqrt(F_i)).  Alice gets
two handles on that:

* ``p_dist_numeric`` -- her best probability of distinguishing the returned
  state from the original (equal-prior Helstrom test on the joint state),
  capped by the gentle-measurement bound ``p_dist_upper_bound``.
* ``p_nfp_numeric`` -- the probability that the returned state fails the
  rank-one test {|psi_m><psi_m|, I - |psi_m><psi_m|}, capped by
  ``p_nfp_upper_bound``.

Both metrics depend only on the M+1 vectors psi_m and
v_i = (I (x) sqrt(F_i)) psi_m, so they are read off their (M+1)x(M+1) Gram
matrix; no operator on H_A (x) H_B is built.  Only Bob's dim_b x dim_b
matrices are dense, which is why ``load_scheme`` caps dim_b, not the joint
dimension.  ``coarse_cheat_state`` builds the returned state densely as the
reference the tests compare against.

Aggregate numbers in ``DetectionReport`` average the per-message values
under a uniform prior over m (no other prior is specified anywhere in this
package; pick your own weighting from ``per_message`` if you need one).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from pathlib import Path

import numpy as np

from . import gentle, linalg, states
from .linalg import MAX_DENSE_DIM, CapacityError
from .states import (TRACE_TOL, DensityMatrix, Povm, PureState, clamp_probability,
                     densify)

PROMISE_TOL = 1e-9
_MONOTONE_TOL = 1e-12


def clamp_promise(p: float, n_messages: int) -> float:
    """Clamp a promise level to [1/M, 1], where the false-negative cap is defined."""
    return min(max(p, 1.0 / n_messages), 1.0)


@dataclass(frozen=True)
class SealScheme:
    """M joint states plus Bob's pair-labelled POVM and the promise level.

    ``read_probabilities[m - 1]`` is ``promise_probability(self, m)``, taken
    once while the promise is checked.
    """

    n_messages: int
    dim_a: int
    dim_b: int
    promised_p: float
    joint_states: tuple
    bob_povm: Povm
    read_probabilities: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m_count = int(self.n_messages)
        if m_count < 2:
            raise ValueError(f"need at least 2 messages, got {m_count}")
        dim_a, dim_b = int(self.dim_a), int(self.dim_b)
        if dim_a < 1 or dim_b < 1:
            raise ValueError(f"dimensions must be positive, got {dim_a}, {dim_b}")
        p = float(self.promised_p)
        if not (1.0 / m_count < p <= 1.0):
            raise ValueError(
                f"promised_p must lie in (1/{m_count}, 1], got {p!r}")
        if len(self.joint_states) != m_count:
            raise ValueError(
                f"expected {m_count} joint states, got {len(self.joint_states)}")
        for m, state in enumerate(self.joint_states, 1):
            if state.dims != (dim_a, dim_b):
                raise ValueError(f"state of message {m} has dims {state.dims},"
                                 f" not ({dim_a}, {dim_b})")
        if self.bob_povm.dim != dim_b:
            raise ValueError(
                f"POVM dimension {self.bob_povm.dim} != dim_b {dim_b}")
        for label in self.bob_povm.labels:
            if not isinstance(label, tuple):
                raise ValueError(
                    f"scheme POVM labels must be (message, outcome) pairs, got {label!r}")
            if not 1 <= label[0] <= m_count:
                raise ValueError(
                    f"POVM label {label!r} names a message outside 1..{m_count}")
        object.__setattr__(self, "n_messages", m_count)
        object.__setattr__(self, "dim_a", dim_a)
        object.__setattr__(self, "dim_b", dim_b)
        object.__setattr__(self, "promised_p", p)
        object.__setattr__(self, "joint_states", tuple(self.joint_states))
        realized = tuple(promise_probability(self, m) for m in range(1, m_count + 1))
        for m, value in enumerate(realized, 1):
            if value < p - PROMISE_TOL:
                raise ValueError(
                    f"promise violated for message {m}: read probability "
                    f"{value!r} < promised_p {p!r}")
        object.__setattr__(self, "read_probabilities", realized)

    def state(self, m: int) -> PureState:
        if not 1 <= m <= self.n_messages:
            raise ValueError(f"message index {m} outside 1..{self.n_messages}")
        return self.joint_states[m - 1]

    @cached_property
    def merged_roots(self) -> np.ndarray:
        """sqrt(F_i) of the message-merged POVM F_i = sum_j E_(i,j), stacked
        in message order.

        Each F_i gets the Hermitian, PSD and identity-sum checks a ``Povm``
        of the merged elements would run, in the same words; one
        eigendecomposition serves its checks and its root.
        """
        merged = states.merged_elements(self.bob_povm)
        roots = np.stack([linalg.sqrt_psd(element, f"element {i!r}")
                          for i, element in merged.items()])
        states.require_identity_sum(list(merged.values()))
        return roots


def _bob_marginal(scheme: SealScheme, m: int) -> np.ndarray:
    """Bob's reduced state sum_a x_a x_a^dag, x_a the rows of psi_m reshaped
    to dim_a x dim_b.

    Summed row by row from elementwise products, which gives the same bits
    as ``linalg.partial_trace`` of |psi_m><psi_m| without building it.  A
    matrix product rounds differently, and one ulp of read probability near
    1 moves the p_dist cap by about 1e-8: its slope is infinite at p = 1.
    """
    rho_b = np.zeros((scheme.dim_b, scheme.dim_b), dtype=np.complex128)
    for row in scheme.state(m).amplitudes.reshape(scheme.dim_a, scheme.dim_b):
        rho_b += np.multiply.outer(row, row.conj())
    return rho_b


def marginal(scheme: SealScheme, m: int) -> DensityMatrix:
    """Bob's share of |psi_m>: trace out A."""
    return DensityMatrix(_bob_marginal(scheme, m))


def promise_probability(scheme: SealScheme, m: int) -> float:
    """Probability that Bob's honest measurement reads message m from |psi_m>."""
    rho_b = _bob_marginal(scheme, m)
    total = 0.0
    for label, element in scheme.bob_povm.elements:
        if label[0] == m:
            total += states.expectation(element, rho_b)
    return clamp_probability(total)


def coarse_cheat_state(scheme: SealScheme, m: int) -> DensityMatrix:
    """Joint state after Bob's merged measurement with the outcome discarded,
    sum_i (I (x) sqrt(F_i)) |psi_m><psi_m| (I (x) sqrt(F_i)), built densely.

    The metrics never build it; it is the small-dimension reference that
    tests compare them against.
    """
    joint = densify(scheme.state(m)).matrix
    eye_a = np.eye(scheme.dim_a)
    total = np.zeros_like(joint)
    for root in scheme.merged_roots:
        lifted_root = linalg.tensor_product(eye_a, root)
        total += lifted_root @ joint @ lifted_root
    return DensityMatrix(total)


def _cheat_gram(scheme: SealScheme, m: int) -> np.ndarray:
    """Gram matrix G = W^dag W of W = [psi_m, v_1 .. v_k], v_i = (I (x) sqrt(F_i)) psi_m.

    |psi_m><psi_m| - cheat state = W C W^dag with C = diag(1, -1, .., -1),
    so both metrics are functions of G.  The diagonal holds the traces of
    the two density matrices; each must be 1 within ``TRACE_TOL``.
    """
    amp = scheme.state(m).amplitudes
    roots = scheme.merged_roots
    shares = amp.reshape(scheme.dim_a, scheme.dim_b) @ roots.transpose(0, 2, 1)
    w = np.vstack([amp, shares.reshape(len(roots), -1)])
    gram = w.conj() @ w.T
    diagonal = gram.diagonal().real
    for trace in (diagonal[0], diagonal[1:].sum()):
        if abs(trace - 1.0) > TRACE_TOL:
            raise ValueError(
                f"density matrix trace {float(trace)!r} deviates from 1 by more"
                f" than {TRACE_TOL:.1e}")
    return gram


def _p_dist_from_gram(gram: np.ndarray) -> float:
    root = linalg.matrix_sqrt_psd(gram)
    signs = -np.ones(len(gram))
    signs[0] = 1.0
    return 0.5 + linalg.trace_norm(root @ (signs[:, None] * root)) / 4.0


def _p_nfp_from_gram(gram: np.ndarray) -> float:
    return clamp_probability(1.0 - float(np.sum(np.abs(gram[0, 1:]) ** 2)))


def p_dist_numeric(scheme: SealScheme, m: int) -> float:
    """Helstrom probability of telling the cheat state from |psi_m>:
    1/2 + ||W C W^dag||_1 / 4, where ||W C W^dag||_1 = ||G^1/2 C G^1/2||_1."""
    return _p_dist_from_gram(_cheat_gram(scheme, m))


def p_dist_upper_bound(p: float) -> float:
    """Distinguishability cap 1/2 + (2 sqrt(1-p) + (1-p)) / 4 at promise p.

    Raw value; it exceeds 1 for small p, so reports clamp it with
    ``clamp_probability``.
    """
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"promise probability must lie in [0, 1], got {p!r}")
    return 0.5 + gentle.unknown_outcome_bound(1.0 - p) / 4.0


def p_nfp_numeric(scheme: SealScheme, m: int) -> float:
    """Probability the cheat state fails Alice's rank-one test for |psi_m>:
    1 - sum_i |<psi_m| I (x) sqrt(F_i) |psi_m>|^2 = 1 - sum_i |G_0i|^2."""
    return _p_nfp_from_gram(_cheat_gram(scheme, m))


def p_nfp_upper_bound(p: float, n_messages: int) -> float:
    """False-negative cap 1 - p^2 - (1-p)^2 / (M-1) for promise p >= 1/M."""
    m_count = int(n_messages)
    if m_count < 2:
        raise ValueError(f"need at least 2 messages, got {n_messages}")
    p = float(p)
    if not 1.0 / m_count <= p <= 1.0:
        raise ValueError(
            f"promise probability must lie in [1/{m_count}, 1], got {p!r}")
    return 1.0 - p * p - (1.0 - p) ** 2 / (m_count - 1)


def monotonicity_check(values, n_messages: int) -> bool:
    """True iff the false-negative cap is non-increasing along ``values``.

    ``values`` must stay within [1/M, 1]; the cap strictly decreases there,
    so an ascending grid must map to a non-increasing sequence.
    """
    m_count = int(n_messages)
    grid = [float(v) for v in values]
    bounds = [p_nfp_upper_bound(v, m_count) for v in grid]
    return all(later <= earlier + _MONOTONE_TOL
               for earlier, later in zip(bounds, bounds[1:]))


@dataclass(frozen=True)
class MessageDetection:
    """Detection metrics for one message."""

    message: int
    promise_probability: float
    p_dist_numeric: float
    p_dist_upper: float
    p_dist_upper_raw: float
    p_nfp_numeric: float
    p_nfp_upper: float


@dataclass(frozen=True)
class DetectionReport:
    """Per-message metrics plus uniform-prior averages."""

    per_message: tuple
    p_dist_numeric: float
    p_dist_upper: float
    p_nfp_numeric: float
    p_nfp_upper: float
    prior: str = "uniform"


def evaluate_scheme(scheme: SealScheme) -> DetectionReport:
    """Evaluate every detection metric of ``scheme`` against the cheat attack.

    Upper bounds are evaluated at each message's realized read probability
    (never below the scheme-wide promise), which is the tightest level the
    bounds are valid at.  Both metrics of a message come from one Gram matrix.
    """
    rows = []
    for m, q in enumerate(scheme.read_probabilities, 1):
        gram = _cheat_gram(scheme, m)
        raw = p_dist_upper_bound(q)
        rows.append(MessageDetection(
            message=m,
            promise_probability=q,
            p_dist_numeric=_p_dist_from_gram(gram),
            p_dist_upper=clamp_probability(raw),
            p_dist_upper_raw=raw,
            p_nfp_numeric=_p_nfp_from_gram(gram),
            p_nfp_upper=p_nfp_upper_bound(clamp_promise(q, scheme.n_messages),
                                          scheme.n_messages),
        ))
    return DetectionReport(
        per_message=tuple(rows),
        p_dist_numeric=float(np.mean([r.p_dist_numeric for r in rows])),
        p_dist_upper=float(np.mean([r.p_dist_upper for r in rows])),
        p_nfp_numeric=float(np.mean([r.p_nfp_numeric for r in rows])),
        p_nfp_upper=float(np.mean([r.p_nfp_upper for r in rows])),
    )


# --- scheme file round trip -------------------------------------------------
#
# Plain JSON: complex numbers as [re, im] pairs, matrices row-major, floats
# written by repr (17 significant digits).

def pairs_from_array(array: np.ndarray) -> list:
    """Row-major [re, im] pairs of a complex vector or matrix."""
    flat = np.ascontiguousarray(array, np.complex128).reshape(-1)
    return flat.view(np.float64).reshape(-1, 2).tolist()


def _vector_from_pairs(pairs, expected_len: int, what: str) -> np.ndarray:
    """The complex vector of ``expected_len`` [re, im] pairs of JSON numbers
    (``int`` or ``float``, never ``bool``), with the bits ``complex(re, im)``
    gives.

    The rule is checked over the whole list at once; a list that breaks it
    is walked pair by pair to name its first bad pair.
    """
    if not isinstance(pairs, list) or len(pairs) != expected_len:
        raise ValueError(f"scheme file: {what} must list {expected_len} [re, im] pairs")
    if not (set(map(type, pairs)) <= {list} and set(map(len, pairs)) <= {2}
            and set(map(type, chain.from_iterable(pairs))) <= {int, float}):
        _check_pairs(pairs, what)
    try:
        flat = np.fromiter(chain.from_iterable(pairs), np.float64, 2 * expected_len)
    except OverflowError:
        _check_pairs(pairs, what)
        raise
    return flat.view(np.complex128)


def _check_pairs(pairs: list, what: str) -> None:
    """Reject the first entry of ``pairs`` that is not two JSON numbers, or
    whose numbers do not fit a float."""
    for k, pair in enumerate(pairs):
        if (not isinstance(pair, list) or len(pair) != 2
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                           for x in pair)):
            raise ValueError(f"scheme file: {what}[{k}] is not a [re, im] pair")
        try:
            complex(pair[0], pair[1])
        except OverflowError:
            raise ValueError(f"scheme file: {what}[{k}] is too large for a float") from None


def save_scheme(scheme: SealScheme, path) -> None:
    doc = {
        "M": scheme.n_messages,
        "dimA": scheme.dim_a,
        "dimB": scheme.dim_b,
        "promised_p": scheme.promised_p,
        "states": [pairs_from_array(s.amplitudes) for s in scheme.joint_states],
        "povm": [
            {"label": [label[0], label[1]], "matrix": pairs_from_array(element)}
            for label, element in scheme.bob_povm.elements
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def load_scheme(path) -> SealScheme:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"scheme file: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ValueError("scheme file: top level must be an object")
    for key in ("M", "dimA", "dimB", "promised_p", "states", "povm"):
        if key not in doc:
            raise ValueError(f"scheme file: missing key {key!r}")
    m_count, dim_a, dim_b = doc["M"], doc["dimA"], doc["dimB"]
    if not all(isinstance(x, int) and not isinstance(x, bool)
               for x in (m_count, dim_a, dim_b)):
        raise ValueError("scheme file: M, dimA, dimB must be integers")
    if dim_b > MAX_DENSE_DIM:
        raise CapacityError(
            f"scheme file: dimB {dim_b} is above the dense cap {MAX_DENSE_DIM}")
    if (isinstance(doc["promised_p"], bool)
            or not isinstance(doc["promised_p"], (int, float))):
        raise ValueError("scheme file: promised_p must be a number")
    try:
        promised_p = float(doc["promised_p"])
    except OverflowError:
        raise ValueError("scheme file: promised_p is too large for a float") from None
    if not isinstance(doc["states"], list) or len(doc["states"]) != m_count:
        raise ValueError(f"scheme file: states must list {m_count} vectors")
    joint = dim_a * dim_b
    vectors = [
        PureState(_vector_from_pairs(entry, joint, f"states[{k}]"), (dim_a, dim_b))
        for k, entry in enumerate(doc["states"])
    ]
    if not isinstance(doc["povm"], list) or not doc["povm"]:
        raise ValueError("scheme file: povm must be a non-empty list")
    elements = []
    for k, entry in enumerate(doc["povm"]):
        if not isinstance(entry, dict) or "label" not in entry or "matrix" not in entry:
            raise ValueError(f"scheme file: povm[{k}] needs 'label' and 'matrix'")
        label = entry["label"]
        if (not isinstance(label, list) or len(label) != 2
                or not all(isinstance(x, int) and not isinstance(x, bool)
                           for x in label)):
            raise ValueError(f"scheme file: povm[{k}].label must be an [i, j] pair")
        flat = _vector_from_pairs(entry["matrix"], dim_b * dim_b, f"povm[{k}].matrix")
        elements.append(((label[0], label[1]), flat.reshape(dim_b, dim_b)))
    return SealScheme(
        n_messages=m_count,
        dim_a=dim_a,
        dim_b=dim_b,
        promised_p=promised_p,
        joint_states=tuple(vectors),
        bob_povm=Povm(tuple(elements)),
    )
