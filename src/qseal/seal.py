"""Bipartite seal schemes and the cheat-detection metrics.

A scheme commits to M messages.  Message m is encoded in a bipartite pure
state |psi_m> on H_A (x) H_B; Bob holds the B share plus a classical
description of a pair-labelled POVM {E_(i,j)}, and reading the message means
measuring and taking the first label index.  The scheme promises that the
correct message is read with probability at least ``promised_p``.

Bob's least-disturbing way to read early is to merge each message's elements
into F_i = sum_j E_(i,j), measure {F_i}, and hand back the unknown-outcome
state sum_i (I (x) sqrt(F_i)) |psi_m><psi_m| (I (x) sqrt(F_i)).  A
``SealScheme`` checks the merged elements and takes sqrt(F_i) when it is
built.  Alice gets two handles on the cheat:

* ``p_dist_numeric`` -- her best probability of distinguishing the returned
  state from the original (equal-prior Helstrom test on the joint state),
  capped by the gentle-measurement bound ``p_dist_upper_bound``.
* ``p_nfp_numeric`` -- the probability that the returned state fails the
  rank-one test {|psi_m><psi_m|, I - |psi_m><psi_m|}, capped by
  ``p_nfp_upper_bound``.

Both metrics, and the promise ||v_m||^2, depend only on the M+1 vectors psi_m
and v_i = (I (x) sqrt(F_i)) psi_m, the columns of W, so they are read off W
and the R factor of its QR decomposition; no operator on H_A (x) H_B is
built.  One W is built at a time, one message after another.  Only Bob's
dim_b x dim_b matrices are dense, which is why ``load_scheme`` caps dim_b,
not the joint dimension.  ``coarse_cheat_state`` builds the returned state
densely, as the tests' reference.

``DetectionReport`` averages the per-message values under a uniform prior
over m; ``per_message`` holds them for any other weighting.  Both caps take
a number or an array of levels, so a report makes one call of each.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from . import gentle, linalg, states
from .linalg import MAX_DENSE_DIM, CapacityError
from .states import DensityMatrix, Povm, PureState, clamp_probability, densify

PROMISE_TOL = 1e-9
_MONOTONE_TOL = 1e-12


def clamp_promise(p, n_messages: int):
    """Clamp a promise level to [1/M, 1], where the false-negative cap is
    defined: a float for a number, an array for an array."""
    return states.number_or_array(np.clip(p, 1.0 / n_messages, 1.0))


@dataclass(frozen=True)
class SealScheme:
    """M joint states plus Bob's pair-labelled POVM and the promise level.

    ``merged_roots[m - 1]`` is sqrt(F_m) of the merged POVM F_m = sum_j E_(m,j)
    (zero if no label reads m), whose elements get the checks of a ``Povm``
    in the same words (``states.povm_roots``).  ``read_probabilities[m - 1]``
    is ``promise_probability(self, m)``, taken once to check the promise.
    """

    n_messages: int
    dim_a: int
    dim_b: int
    promised_p: float
    joint_states: tuple
    bob_povm: Povm
    merged_roots: np.ndarray = field(init=False, repr=False, compare=False)
    read_probabilities: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m_count = linalg.as_integer(self.n_messages, "n_messages")
        if m_count < 2:
            raise ValueError(f"need at least 2 messages, got {m_count}")
        dim_a = linalg.as_integer(self.dim_a, "dim_a")
        dim_b = linalg.as_integer(self.dim_b, "dim_b")
        if dim_a < 1 or dim_b < 1:
            raise ValueError(f"dimensions must be positive, got {dim_a}, {dim_b}")
        try:
            p = float(self.promised_p)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"promised_p must be a number, got"
                             f" {type(self.promised_p).__name__}") from None
        try:
            joint_states = tuple(self.joint_states)
        except TypeError:
            raise ValueError("joint_states must be a sequence of PureStates") from None
        if len(joint_states) != m_count:  # before 1/M, which a huge M overflows
            raise ValueError(
                f"expected {m_count} joint states, got {len(joint_states)}")
        states.require_within(p, 1.0 / m_count < p <= 1.0, "promised_p",
                              f"(1/{m_count}, 1]")
        for m, state in enumerate(joint_states, 1):
            if not isinstance(state, PureState):
                raise ValueError(f"state of message {m} is a {type(state).__name__},"
                                 " not a PureState")
            if state.dims != (dim_a, dim_b):
                raise ValueError(f"state of message {m} has dims {state.dims},"
                                 f" not ({dim_a}, {dim_b})")
        if not isinstance(self.bob_povm, Povm):
            raise ValueError(
                f"bob_povm is a {type(self.bob_povm).__name__}, not a Povm")
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
        merged = states.merged_elements(self.bob_povm)
        zero = np.zeros((dim_b, dim_b), dtype=np.complex128)
        messages = range(1, m_count + 1)
        roots = states.povm_roots(np.stack([merged.get(m, zero) for m in messages]), messages)
        roots.setflags(write=False)
        vars(self).update(n_messages=m_count, dim_a=dim_a, dim_b=dim_b, promised_p=p,
                          joint_states=joint_states, merged_roots=roots)
        realized = tuple(promise_probability(self, m) for m in messages)
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


def promise_probability(scheme: SealScheme, m: int) -> float:
    """Probability that Bob's honest measurement reads message m from |psi_m>:
    ||(I (x) sqrt(F_m)) psi_m||^2, with the product and sum that give
    ``_detection`` the squared norm of W's column v_m, so the bits agree."""
    branch = (scheme.state(m).amplitudes.reshape(scheme.dim_a, -1)
              @ scheme.merged_roots[m - 1].T)
    return clamp_probability(np.sum(np.abs(branch) ** 2))


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


def _detection(amplitudes, roots: np.ndarray, dim_a: int) -> list:
    """(p_dist, p_nfp) of each message, as pairs of floats, from its joint
    amplitudes (n vectors of length D), the merged roots sqrt(F_i)
    (k, dB, dB) and dim_a.

    |psi><psi| - cheat state = W C W^dag for W = [psi, v_1 .. v_k],
    v_i = (I (x) sqrt(F_i)) psi and C = diag(1, -1, .., -1).  With W = QR
    (reduced QR, W laid out D x (k+1)), ||W C W^dag||_1 = ||R C R^dag||_1,
    a min(D, k+1)-square Hermitian matrix.  W's squared column norms are the
    traces of the two density matrices; each must be 1 within ``TRACE_TOL``.
    One message is handled at a time, in order.
    """
    roots = roots.transpose(0, 2, 1)
    signs = np.append(1.0, -np.ones(len(roots)))  # the diagonal of C
    pairs = []
    for psi in amplitudes:
        w_t = np.vstack([psi, (psi.reshape(dim_a, -1) @ roots).reshape(len(roots), -1)])
        norms = np.sum(np.abs(w_t) ** 2, axis=-1)
        states.require_unit_trace(np.array([norms[0], norms[1:].sum()]))
        p_nfp = 1.0 - np.sum(np.abs(w_t[1:] @ psi.conj()) ** 2)
        r = np.linalg.qr(w_t.T, mode="r")
        p_dist = states.helstrom_from_norm(linalg.trace_norm((r * signs) @ r.conj().T))
        pairs.append((p_dist, clamp_probability(float(p_nfp))))
    return pairs


def p_dist_numeric(scheme: SealScheme, m: int) -> float:
    """Helstrom probability of telling the cheat state from |psi_m>:
    1/2 + ||W C W^dag||_1 / 4, where ||W C W^dag||_1 = ||R C R^dag||_1."""
    return _detection([scheme.state(m).amplitudes], scheme.merged_roots,
                      scheme.dim_a)[0][0]


def p_dist_upper_bound(p):
    """Distinguishability cap 1/2 + (2 sqrt(1-p) + (1-p)) / 4 at promise p:
    a float for a number in [0, 1], an array of one cap per entry for an
    array.

    Raw value; it exceeds 1 for small p, so reports clamp it with
    ``clamp_probability``.
    """
    p = np.asarray(p, dtype=np.float64)
    states.require_within(p, (p >= 0.0) & (p <= 1.0), "promise probability", "[0, 1]")
    return states.helstrom_from_norm(gentle.unknown_outcome_bound(1.0 - p))


def p_nfp_numeric(scheme: SealScheme, m: int) -> float:
    """Probability the cheat state fails Alice's rank-one test for |psi_m>:
    1 - sum_i |<psi_m| I (x) sqrt(F_i) |psi_m>|^2 = 1 - sum_i |v_i^dag psi_m|^2."""
    return _detection([scheme.state(m).amplitudes], scheme.merged_roots,
                      scheme.dim_a)[0][1]


def p_nfp_upper_bound(p, n_messages: int):
    """False-negative cap 1 - p^2 - (1-p)^2 / (M-1) for promise p >= 1/M, as
    (1-p) ((1+p) - (1-p)/(M-1)), which cancels nothing near p = 1 and takes
    only + - * /: a float for a number, an array with the scalar call's bits
    per entry for an array."""
    m_count = linalg.as_integer(n_messages, "n_messages")
    if m_count < 2:
        raise ValueError(f"need at least 2 messages, got {n_messages}")
    p = np.asarray(p, dtype=np.float64)
    states.require_within(p, (p >= 1.0 / m_count) & (p <= 1.0), "promise probability",
                          f"[1/{m_count}, 1]")
    return states.number_or_array((1.0 - p) * ((1.0 + p) - (1.0 - p) / (m_count - 1)))


def monotonicity_check(values, n_messages: int) -> bool:
    """True iff the false-negative cap is non-increasing along ``values``.

    ``values`` must stay within [1/M, 1]; the cap strictly decreases there,
    so an ascending grid must map to a non-increasing sequence.
    """
    caps = p_nfp_upper_bound(values, n_messages)
    return bool(np.all(caps[1:] <= caps[:-1] + _MONOTONE_TOL))


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


def evaluate_scheme(scheme: SealScheme) -> DetectionReport:
    """Evaluate every detection metric of ``scheme`` against the cheat attack.

    Upper bounds are evaluated at each message's realized read probability
    (never below the scheme-wide promise), which is the tightest level the
    bounds are valid at, with one call of each cap on all the messages.
    Both metrics come from one pass over the messages, one message at a
    time.
    """
    metrics = _detection([s.amplitudes for s in scheme.joint_states],
                         scheme.merged_roots, scheme.dim_a)
    levels = np.array(scheme.read_probabilities)
    raw = p_dist_upper_bound(levels)
    nfp_upper = p_nfp_upper_bound(clamp_promise(levels, scheme.n_messages),
                                  scheme.n_messages)
    rows = [MessageDetection(m, q, dist, dist_upper, dist_raw, nfp, nfp_cap)
            for m, q, (dist, nfp), dist_upper, dist_raw, nfp_cap in zip(
                range(1, scheme.n_messages + 1), scheme.read_probabilities, metrics,
                clamp_probability(raw).tolist(), raw.tolist(), nfp_upper.tolist())]
    means = {name: float(np.mean([getattr(r, name) for r in rows])) for name in
             ("p_dist_numeric", "p_dist_upper", "p_nfp_numeric", "p_nfp_upper")}
    return DetectionReport(per_message=tuple(rows), **means)


# --- scheme file round trip -------------------------------------------------
#
# Plain JSON: complex numbers as [re, im] pairs, matrices row-major, floats
# written by repr (the shortest string that reads back to the same float).

def _pair_floats(array: np.ndarray) -> np.ndarray:
    """Row-major [re, im] pairs of a complex vector or matrix, as an (n, 2)
    float view."""
    flat = np.ascontiguousarray(array, np.complex128).reshape(-1)
    return flat.view(np.float64).reshape(-1, 2)


def pairs_from_array(array: np.ndarray) -> list:
    """Row-major [re, im] pairs of a complex vector or matrix."""
    return _pair_floats(array).tolist()


def _flat_floats(value):
    """The flat float64 array of ``value``'s numbers if ``value`` is a list of
    [re, im] pairs of JSON numbers (``int`` or ``float``, never ``bool``)
    that all fit a float, with the bits ``complex(re, im)`` gives; else None.

    The rule is checked over the whole list at once and the numbers are
    converted in one pass."""
    if not (isinstance(value, list) and set(map(type, value)) <= {list}
            and set(map(len, value)) <= {2}
            and set(map(type, chain.from_iterable(value))) <= {int, float}):
        return None
    try:
        return np.fromiter(chain.from_iterable(value), np.float64, 2 * len(value))
    except OverflowError:
        return None


def _convert_matrix(obj: dict) -> dict:
    """``json`` object hook: replace a ``"matrix"`` list that passes
    ``_flat_floats`` by its array, as soon as the scanner closes its object,
    so one POVM matrix's pairs are alive as Python objects at a time.  Any
    other value is left as decoded."""
    flat = _flat_floats(obj.get("matrix"))
    if flat is not None:
        obj["matrix"] = flat
    return obj


def _vector_from_pairs(pairs, expected_len: int, what: str) -> np.ndarray:
    """The complex vector of ``expected_len`` [re, im] pairs of JSON numbers
    (``int`` or ``float``, never ``bool``), with the bits ``complex(re, im)``
    gives.

    ``pairs`` is a decoded JSON value, or the array ``_convert_matrix`` made
    of one, which only needs its length checked.  A list that breaks the
    rule is walked pair by pair to name its first bad pair.
    """
    if isinstance(pairs, list) and len(pairs) == expected_len:
        flat = _flat_floats(pairs)
        if flat is None:
            _check_pairs(pairs, what)
        pairs = flat
    if not isinstance(pairs, np.ndarray) or len(pairs) != 2 * expected_len:
        raise ValueError(f"scheme file: {what} must list {expected_len} [re, im] pairs")
    return pairs.view(np.complex128)


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


def _pair_list(array: np.ndarray, depth: int) -> str:
    """The [re, im] pairs of ``array`` as a JSON list whose closing bracket
    is indented ``depth`` spaces, laid out as ``json.dumps(..., indent=1)``
    lays it out.

    One ``%`` fills a repeated per-pair template: ``%r`` of a finite float
    is ``float.__repr__``, which is what ``json`` writes (no valid scheme
    holds a NaN or an infinity, which ``json`` spells differently).
    """
    floats = _pair_floats(array)
    pair_gap = "\n" + " " * (depth + 1)
    number_gap = "\n" + " " * (depth + 2)
    pair = "[" + number_gap + "%r," + number_gap + "%r" + pair_gap + "]"
    template = ("[" + pair_gap + ("," + pair_gap).join([pair] * len(floats))
                + "\n" + " " * depth + "]")
    return template % tuple(floats.ravel().tolist())


def save_scheme(scheme: SealScheme, path) -> None:
    """Write ``scheme`` as a scheme file: the bytes ``json.dumps`` writes at
    ``indent=1`` for the document of ``M``, ``dimA``, ``dimB``,
    ``promised_p``, the states and the POVM entries, and a newline, without
    running ``json``'s pure-Python indenting encoder over every float.

    The header and every label line are formatted before ``path`` is opened,
    so a scheme whose header or labels cannot be written leaves it as it
    was; then each state's and each POVM element's pair list is rendered
    and written in turn, so no more than one list's text is held at once.
    """
    head = ('{\n "M": %s,\n "dimA": %s,\n "dimB": %s,\n "promised_p": %s,\n'
            ' "states": [\n  '
            % tuple(map(json.dumps, (scheme.n_messages, scheme.dim_a,
                                     scheme.dim_b, scheme.promised_p))))
    elements = scheme.bob_povm.elements
    label_lines = ['{\n   "label": [\n    %d,\n    %d\n   ],\n   "matrix": '
                   % (label[0], label[1]) for label, _ in elements]
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        out.write(head)
        for k, state in enumerate(scheme.joint_states):
            out.write(",\n  " if k else "")
            out.write(_pair_list(state.amplitudes, 2))
        out.write('\n ],\n "povm": [\n  ')
        for k, (line, (_, element)) in enumerate(zip(label_lines, elements)):
            out.write(",\n  " if k else "")
            out.write(line)
            out.write(_pair_list(element, 3))
            out.write("\n  }")
        out.write("\n ]\n}\n")


def load_scheme(path) -> SealScheme:
    """Read and validate a scheme file ``save_scheme`` (or any JSON writer)
    wrote.

    ``json`` parses the whole text, and ``_convert_matrix`` turns each POVM
    matrix into an array as soon as its object closes, so the text plus one
    matrix's pairs are held as Python objects; the states are converted
    after parsing.  Any defect raises a one-line ``ValueError`` that starts
    ``scheme file:`` (``CapacityError`` for a ``dimB`` above the dense cap),
    or the one ``SealScheme`` raises.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"),
                         object_hook=_convert_matrix)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
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
