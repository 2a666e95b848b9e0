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
import re
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
    (zero if no label reads m), whose elements get the element checks of a
    ``Povm`` in the same words (``states._element_roots``); their sum is the
    one ``bob_povm`` checked, so it is not checked again.
    ``read_probabilities[m - 1]`` is ``promise_probability(self, m)``, taken
    once to check the promise.
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
        roots = states._element_roots(
            np.stack([merged.get(m, zero) for m in messages]), messages)
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
    The messages are stacked as many at a time as ``linalg._CHUNK_BYTES``
    holds of their W (at least one), in order; each stacked call gives every
    message the bits its own call would.
    """
    roots = roots.transpose(0, 2, 1)
    k = len(roots)
    signs = np.append(1.0, -np.ones(k))  # the diagonal of C
    step = max(1, linalg._CHUNK_BYTES // (16 * (k + 1) * len(amplitudes[0])))
    pairs = []
    for start in range(0, len(amplitudes), step):
        psi = np.stack(amplitudes[start:start + step])
        w_t = np.empty((len(psi), k + 1, psi.shape[1]), dtype=np.complex128)
        w_t[:, 0] = psi
        np.matmul(psi.reshape(len(psi), 1, dim_a, -1), roots,
                  out=w_t[:, 1:].reshape(len(psi), k, dim_a, -1))
        norms = np.sum(np.abs(w_t) ** 2, axis=-1)
        states.require_unit_trace(np.stack([norms[:, 0], norms[:, 1:].sum(axis=-1)], axis=-1))
        overlaps = w_t[:, 1:] @ psi.conj()[..., None]
        p_nfp = 1.0 - np.sum(np.abs(overlaps[..., 0]) ** 2, axis=-1)
        r = np.linalg.qr(w_t.swapaxes(-1, -2), mode="r")
        p_dist = states.helstrom_from_norm(
            linalg.trace_norm((r * signs) @ r.conj().swapaxes(-1, -2)))
        pairs.extend(zip(p_dist.tolist(), clamp_probability(p_nfp).tolist()))
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


_KEYS = ("M", "dimA", "dimB", "promised_p", "states", "povm")
_DECODER = json.JSONDecoder(object_hook=_convert_matrix)
_WHITESPACE = re.compile(r"[ \t\n\r]*")  # what json skips between tokens
# a "]" and a closing bracket with only whitespace between: the end of a
# state's pair list, and a few characters before the end of a POVM entry
# (a pattern that starts with one character is searched at memchr speed)
_CLOSING = re.compile(r"\][ \t\n\r]*[]}]")
# what may follow a number or a literal
_DELIMITER = re.compile(r"[,\]} \t\n\r]")


class _NotAnObject(Exception):
    """The text is not one JSON object; the whole-text parse says why."""


class _Window:
    """The unread text of a scheme file, read ``linalg._CHUNK_BYTES``
    characters at a time, from which JSON tokens and values are taken.

    Before an array or object is decoded, the window is grown until it holds
    a "]" and a closing bracket with only whitespace between, looked for from
    an eighth short of the length of the value before (and for an object a
    "}" after it).  That ends a state and a POVM entry of a ``save_scheme``
    file, and the entries of an array are about equally long, so ``json``
    parses each of them once and the search skips most of their text.  A
    number or a literal must be followed in the window by a delimiter.  A
    value that fails either way grows the window, as much again each time,
    and is parsed again.
    """

    def __init__(self, file):
        self.file, self.text, self.pos, self.eof = file, "", 0, False
        self.last = 0  # the length of the last value decoded

    def _grow(self) -> None:
        unread = self.text[self.pos:]
        size = max(linalg._CHUNK_BYTES, len(unread))
        more = self.file.read(size)  # short only at the end of the file
        self.text, self.pos, self.eof = unread + more, 0, len(more) < size

    def peek(self) -> str:
        """The next character after whitespace, '' at the end of the file."""
        while True:
            if self.pos < len(self.text) and self.text[self.pos] not in " \t\n\r":
                return self.text[self.pos]
            self.pos = _WHITESPACE.match(self.text, self.pos).end()
            if self.pos < len(self.text) or self.eof:
                return self.text[self.pos:self.pos + 1]
            self._grow()

    def take(self, allowed: str) -> str:
        """Consume the next character after whitespace, one of ``allowed``."""
        char = self.peek()
        if not char or char not in allowed:
            raise _NotAnObject
        self.pos += 1
        return char

    def value(self):
        """The next JSON value, decoded as ``json.loads`` decodes it, with
        ``_convert_matrix`` turning each "matrix" list into an array."""
        first = self.peek()
        if first in ("[", "{"):
            skip = self.last - self.last // 8
            while not self.eof:
                closing = _CLOSING.search(self.text, self.pos + skip)
                if closing and (first == "[" or self.text.find("}", closing.end() - 1) >= 0):
                    break
                self._grow()
        while True:
            try:
                value, end = _DECODER.raw_decode(self.text, self.pos)
            except json.JSONDecodeError:
                if self.eof:
                    raise
            else:
                if self.eof or first in ('"', "[", "{") or _DELIMITER.match(self.text, end):
                    self.last, self.pos = end - self.pos, end
                    return value
            self._grow()


def _members(window: _Window) -> dict:
    """The members of the JSON object that is the whole text, decoded as
    ``json.loads`` decodes them, the last of a repeated key winning.

    An array member is read one entry at a time, and an entry that is a
    list of [re, im] pairs becomes the flat floats ``_flat_floats`` makes of
    it, so each state is held as an array as soon as it is read (each POVM
    matrix is one already).  When ``M``, ``dimA``, ``dimB`` and
    ``promised_p`` come before a "povm" array, an integer ``dimB`` above the
    dense cap is refused before any of its entries is decoded.
    """
    members = {}
    window.take("{")
    if window.peek() == "}":
        window.pos += 1
    else:
        while True:
            key = window.value()
            if not isinstance(key, str):  # json's object keys are strings
                raise _NotAnObject
            window.take(":")
            if window.peek() != "[":
                members[key] = window.value()
            else:
                if key == "povm" and "promised_p" in members:
                    dims = [members.get(name) for name in ("M", "dimA", "dimB")]
                    if _integers(dims):
                        _require_dense(dims[2])
                window.pos += 1
                entries = []
                if window.peek() == "]":
                    window.pos += 1
                else:
                    while True:
                        entry = window.value()
                        flat = _flat_floats(entry)
                        entries.append(entry if flat is None else flat)
                        if window.take(",]") == "]":
                            break
                members[key] = entries
            if window.take(",}") == "}":
                break
    if window.peek():
        raise _NotAnObject
    return members


def _integers(values) -> bool:
    return all(isinstance(x, int) and not isinstance(x, bool) for x in values)


def _require_dense(dim_b: int) -> None:
    if dim_b > MAX_DENSE_DIM:
        raise CapacityError(
            f"scheme file: dimB {dim_b} is above the dense cap {MAX_DENSE_DIM}")


def _not_json(path, exc: Exception) -> ValueError:
    """The error of a scheme file that is not one JSON object: ``json``'s own
    message for the whole text, its positions counted from the file's start,
    holding each matrix as an array and none of the values ``exc`` saw."""
    exc.__traceback__ = None
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"), object_hook=_convert_matrix)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as whole:
        exc = whole
    else:
        if not isinstance(doc, dict):
            return ValueError("scheme file: top level must be an object")
    return ValueError(f"scheme file: not valid JSON ({exc})")


def load_scheme(path) -> SealScheme:
    """Read and validate a scheme file ``save_scheme`` (or any JSON writer)
    wrote.

    The text is read through a ``_Window``: the top-level object and its
    arrays are walked here (``_members``), and ``json`` decodes every value
    in them, so each state becomes a flat float array and each POVM matrix
    an array as soon as it is read.  The file is held as those arrays, the
    window and one entry's decoded value.  Any defect raises a
    one-line ``ValueError`` that starts ``scheme file:`` (``CapacityError``
    for a ``dimB`` above the dense cap), or the one ``SealScheme`` raises, as
    a whole-text ``json.loads`` and the same checks would, with one
    exception: a ``dimB`` above the cap that comes in the header (``M``,
    ``dimA``, ``dimB`` and ``promised_p``) before "povm" is refused there,
    even if a later member is broken.
    """
    try:
        with open(path, encoding="utf-8") as file:
            doc = _members(_Window(file))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError, _NotAnObject) as exc:
        raise _not_json(path, exc) from None
    for key in _KEYS:
        if key not in doc:
            raise ValueError(f"scheme file: missing key {key!r}")
    m_count, dim_a, dim_b = doc["M"], doc["dimA"], doc["dimB"]
    if not _integers((m_count, dim_a, dim_b)):
        raise ValueError("scheme file: M, dimA, dimB must be integers")
    _require_dense(dim_b)
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
        if not isinstance(label, list) or len(label) != 2 or not _integers(label):
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
