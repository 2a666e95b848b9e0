"""Permuted product-state seals, and the two attacks that break them.

Message 1 is a uniformly random qubit permutation of |0>^2q |+>^q, message 2
of |1>^2q |+>^q (3q registers total).  The permutation is supposed to hide
which registers carry the |+> padding, so that a reader who measures
everything in the standard basis wrecks the padding and gets caught.

Neither hope survives:

* Bob measures every register in the standard basis anyway and repairs --
  for message 1 he replaces every register that read 1 with a fresh |+>.
  Each padding register that read 0 is indistinguishable from a data
  register, costing fidelity 1/2; k such "false zeros" leave fidelity
  (1/2)^k, for a mean of (3/4)^q.  Alice's detection probability is stuck
  at 1 - (3/4)^q per trial no matter what the permutation was.
  ``simulate_qubitwise_attack`` samples this in fixed-size chunks and keeps
  only a histogram, so its memory does not depend on the trial count.  It
  takes 32-bit words straight from the bit generator's 64-bit output and
  bit 7 of each byte, which is how numpy makes a fair uint8 bit, so the
  stream is the one a (trials, q) draw of bits gives.  That needs numpy's
  buffered 32-bit half-word (PCG64, PCG64DXSM, Philox, SFC64), so MT19937
  is refused.
* Better: the two-outcome projector measurement {strings with more zeros
  than 3q/2, rest} reads the message with certainty and does not disturb
  either message state at all (``verify_nondisturbing``).

Dense amplitudes use register 0 as the most significant bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import MAX_DENSE_DIM, CapacityError
from .states import Povm, PureState

ZERO, ONE, PLUS = "zero", "one", "plus"

# Bits drawn per chunk of the attack Monte Carlo (rounded down to whole
# trials, a multiple of 4 bits).
_CHUNK_DRAWS = 1 << 20
# Largest trials * q the attack accepts: 2^32 fair bits, about 4 s (q = 1)
# to 18 s (q = 1000) per message.
MAX_ATTACK_BITS = 1 << 32
# A chunk holds about _CHUNK_DRAWS / q trials.  Below this q, q
# count_nonzero passes over its per-trial counts cost less than one
# bincount, which first copies them to intp.  Measured crossover: q = 12
# to 13 (median of 31 calls per 2^20-bit chunk, 4 runs at q = 11 to 18,
# one pinned CPU, numpy 2.4).
_BINCOUNT_FROM_Q = 12

_SQRT_HALF = 1.0 / math.sqrt(2.0)
_AMPLITUDES = {
    ZERO: np.array([1.0, 0.0], dtype=np.complex128),
    ONE: np.array([0.0, 1.0], dtype=np.complex128),
    PLUS: np.array([_SQRT_HALF, _SQRT_HALF], dtype=np.complex128),
}


@dataclass(frozen=True)
class ProductState:
    """One message state: base register labels plus the hiding permutation.

    ``labels`` is the layout before permuting (2q data registers, then q
    padding registers in canonical builds); ``permutation[i]`` is the
    physical position that base register i gets moved to.
    """

    q: int
    labels: tuple
    permutation: tuple

    def __post_init__(self):
        q = int(self.q)
        if q < 1:
            raise ValueError(f"q must be positive, got {self.q}")
        labels = tuple(self.labels)
        if len(labels) != 3 * q:
            raise ValueError(f"expected {3 * q} labels, got {len(labels)}")
        bad = [lab for lab in labels if lab not in _AMPLITUDES]
        if bad:
            raise ValueError(f"unknown register labels {bad!r}")
        counts = {lab: labels.count(lab) for lab in (ZERO, ONE, PLUS)}
        if counts[PLUS] != q or counts[ZERO] * counts[ONE] != 0 \
                or counts[ZERO] + counts[ONE] != 2 * q:
            raise ValueError(
                "labels must be 2q zeros (message 1) or 2q ones (message 2) "
                f"plus q plus-registers; got counts {counts}")
        perm = tuple(int(x) for x in self.permutation)
        if sorted(perm) != list(range(3 * q)):
            raise ValueError(f"permutation must be a bijection on 0..{3 * q - 1}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "permutation", perm)

    @property
    def message(self) -> int:
        return 1 if ZERO in self.labels else 2

    @property
    def physical_labels(self) -> tuple:
        out = [None] * len(self.labels)
        for base, target in enumerate(self.permutation):
            out[target] = self.labels[base]
        return tuple(out)

    @property
    def plus_positions(self) -> tuple:
        """Base indices of the padding registers."""
        return tuple(i for i, lab in enumerate(self.labels) if lab == PLUS)


def _require_dense_capacity(q: int) -> int:
    dim = 2 ** (3 * q)
    if dim > MAX_DENSE_DIM:
        raise CapacityError(
            f"dense register space is {dim}-dimensional, above the cap {MAX_DENSE_DIM}")
    return dim


def _dense_from_physical(physical_labels) -> PureState:
    vec = np.ones(1, dtype=np.complex128)
    for lab in physical_labels:
        vec = np.kron(vec, _AMPLITUDES[lab])
    return PureState(vec)


def dense_state(state: ProductState) -> PureState:
    """Explicit 2^(3q)-dimensional ket of the permuted product state."""
    _require_dense_capacity(state.q)
    return _dense_from_physical(state.physical_labels)


def build_message_states(q: int, sigma_seed, tau_seed) -> tuple:
    """Both message states with independent uniformly random permutations."""
    base_zero = (ZERO,) * (2 * q) + (PLUS,) * q
    base_one = (ONE,) * (2 * q) + (PLUS,) * q
    sigma = tuple(int(x) for x in np.random.default_rng(sigma_seed).permutation(3 * q))
    tau = tuple(int(x) for x in np.random.default_rng(tau_seed).permutation(3 * q))
    return (ProductState(q, base_zero, sigma), ProductState(q, base_one, tau))


def majority_projector_povm(q: int) -> Povm:
    """Two diagonal 0/1 projectors: strings with more zeros than 3q/2, and the rest.

    Dense: the reference the tests check ``states_nondisturbing`` against.
    """
    dim = _require_dense_capacity(q)
    zeros = 3 * q - np.bitwise_count(np.arange(dim, dtype=np.uint64)).astype(np.int64)
    mask = (2 * zeros > 3 * q).astype(np.complex128)
    return Povm(((1, np.diag(mask)), (2, np.diag(1.0 - mask))))


def states_nondisturbing(state_one: ProductState, state_two: ProductState) -> bool:
    """True iff each message state is fixed by its majority projector.

    The projectors are diagonal, so a state is fixed iff every string in its
    support lies in its mask.  A product state's support is every string that
    agrees with its 0/1 registers, so whatever the permutation its zero
    counts run over [#zero, #zero + #plus].  Message 1 is fixed iff its
    fewest zeros are a strict majority, message 2 iff its most zeros are
    not.  ``majority_projector_povm`` applied to ``dense_state`` is the
    dense check of the same statement.
    """
    if state_one.q != state_two.q:
        raise ValueError("message states must share q")
    if (state_one.message, state_two.message) != (1, 2):
        raise ValueError("expected a (message 1, message 2) pair")
    registers = 3 * state_one.q
    fewest_zeros = state_one.labels.count(ZERO)
    most_zeros = state_two.labels.count(ZERO) + state_two.labels.count(PLUS)
    return 2 * fewest_zeros > registers and 2 * most_zeros <= registers


def verify_nondisturbing(q: int, sigma_seed, tau_seed) -> bool:
    """Draw both message states from the seeds and test non-disturbance."""
    state_one, state_two = build_message_states(q, sigma_seed, tau_seed)
    return states_nondisturbing(state_one, state_two)


def repaired_state(state: ProductState, plus_outcomes) -> PureState:
    """Dense state Bob returns after measuring and repairing.

    ``plus_outcomes`` gives the standard-basis bit each padding register
    collapsed to, in base order.  Data registers always read their own bit;
    the repair replaces wrong-bit registers (1s for message 1, 0s for
    message 2) with fresh |+>.
    """
    bits = tuple(int(b) for b in plus_outcomes)
    if len(bits) != state.q or any(b not in (0, 1) for b in bits):
        raise ValueError(f"expected {state.q} outcome bits, got {plus_outcomes!r}")
    _require_dense_capacity(state.q)
    repaired = list(state.labels)
    for rank, base in enumerate(state.plus_positions):
        if state.message == 1:
            repaired[base] = ZERO if bits[rank] == 0 else PLUS
        else:
            repaired[base] = PLUS if bits[rank] == 0 else ONE
    physical = [None] * len(repaired)
    for base, target in enumerate(state.permutation):
        physical[target] = repaired[base]
    return _dense_from_physical(physical)


@dataclass(frozen=True)
class AttackResult:
    """Monte Carlo outcome of the measure-and-repair attack."""

    message: int
    trials: int
    mean_fidelity: float
    detection_probability: float
    zero_count_histogram: dict


def mean_fidelity_exact(q: int) -> float:
    """E[(1/2)^k] with k ~ Binomial(q, 1/2): exactly (3/4)^q."""
    if q < 1:
        raise ValueError(f"q must be positive, got {q}")
    return 0.75 ** q


def _words(bit_generator: np.random.BitGenerator, n: int) -> np.ndarray:
    """The ``n`` words of ``integers(0, 2**32, n, dtype=np.uint32)``, as ``<u4``.

    numpy makes each uint32 from half of a 64-bit output, low half first,
    and keeps the unused high half in the bit generator's ``has_uint32`` /
    ``uinteger`` buffer for the next call.  This takes the fresh words from
    one ``random_raw`` call instead, one C call for the whole array, and
    sets that buffer as numpy would: a buffered half-word is the first
    word, and after fresh outputs ``has_uint32`` is the parity of the fresh
    word count and ``uinteger`` the high half of the last output, even when
    that half was used.  So the words and the final ``state`` match the
    bounded draw's.  MT19937 has no such buffer and is refused.
    """
    state = bit_generator.state
    if "has_uint32" not in state:
        raise ValueError("the attack needs a bit generator with a buffered "
                         "32-bit half-word (PCG64, PCG64DXSM, Philox, SFC64), "
                         f"got {state['bit_generator']}")
    words = np.full(min(n, state["has_uint32"]), state["uinteger"], dtype="<u4")
    state["has_uint32"] -= words.size
    fresh = n - words.size
    if fresh:
        raw = bit_generator.random_raw(-(-fresh // 2))
        state = bit_generator.state
        state["has_uint32"], state["uinteger"] = fresh % 2, int(raw[-1] >> 32)
        drawn = raw.astype("<u8", copy=False).view("<u4")[:fresh]
        words = np.concatenate((words, drawn)) if words.size else drawn
    bit_generator.state = state
    return words


def _fair_bits(rng: np.random.Generator, count: int) -> np.ndarray:
    """The ``count`` bits ``rng.integers(0, 2, count, dtype=np.uint8)`` draws.

    That bounded draw (Lemire's, which never rejects for a power-of-two
    range) takes one byte of ``next_uint32`` per value, low byte first,
    returns its bit 7 and drops the unused bytes of its last word.  Taking
    bit 7 of each byte of the same words (``_words``, straight from the
    bit generator's 64-bit output) yields the same bits without the
    per-value work, and leaves the generator in the same state.
    """
    bits = _words(rng.bit_generator, -(-count // 4)).view(np.uint8)[:count]
    bits >>= 7
    return bits


def simulate_qubitwise_attack(state: ProductState, trials: int,
                              rng: np.random.Generator) -> AttackResult:
    """Sample the standard-basis attack register by register.

    Only the q padding registers are random (data registers always read
    their own bit), so each trial draws q fair bits; the repaired state's
    fidelity with the original is (1/2)^k where k counts padding registers
    that collapsed onto the data bit.

    Trials are drawn in chunks of ``rows`` trials, about ``_CHUNK_DRAWS``
    bits, and only a (q+1)-bin histogram of the ones per trial is kept, so
    memory does not depend on ``trials``; ``trials * q`` is capped at
    ``MAX_ATTACK_BITS``.  Each chunk's bits come from whole 32-bit words
    (``_fair_bits``), one byte per bit exactly as a bounded uint8 draw takes
    them, and ``rows * q`` is a multiple of 4, so the chunks consume exactly
    the bits one ``rng.integers(0, 2, (trials, q), dtype=np.uint8)`` draw
    would and leave ``rng`` where it would: the result does not depend on
    the chunk size.  ``rng`` needs a bit generator with numpy's buffered
    32-bit half-word; MT19937 raises ``ValueError`` before anything is
    drawn.  The mean is the histogram's exact rational value, correctly
    rounded.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    q, trials = state.q, int(trials)
    if trials * q > MAX_ATTACK_BITS:
        raise ValueError(f"trials * q must be at most {MAX_ATTACK_BITS}, "
                         f"got {trials} * {q}")
    rows = max(4, (_CHUNK_DRAWS // q) // 4 * 4)
    ones_histogram = np.zeros(q + 1, dtype=np.int64)
    remaining = trials
    while remaining:
        size = min(rows, remaining)
        bits = _fair_bits(rng, size * q).reshape(size, q)
        # column adds: np.sum(axis=1) is slow on narrow rows
        ones = (np.add(bits[:, 0], bits[:, -1], dtype=np.min_scalar_type(q))
                if q > 1 else bits[:, 0])
        for column in bits.T[1:-1]:
            ones += column
        if q < _BINCOUNT_FROM_Q:  # trials with no ones: the rest
            with_ones = [np.count_nonzero(ones == j) for j in range(1, q + 1)]
            ones_histogram[1:] += with_ones
            ones_histogram[0] += size - sum(with_ones)
        else:
            ones_histogram += np.bincount(ones, minlength=q + 1)
        remaining -= size
    counts = ones_histogram.tolist()  # counts[j]: trials with j ones
    if state.message == 1:  # padding that read 0 passes for data
        data_zeros, by_false_data = 2 * q, counts[::-1]
    else:  # padding that read 1 passes for data
        data_zeros, by_false_data = 0, counts
    numerator = sum(count << (q - k) for k, count in enumerate(by_false_data))
    mean = numerator / (trials << q)
    histogram = {data_zeros + q - j: counts[j]
                 for j in range(q, -1, -1) if counts[j]}
    return AttackResult(
        message=state.message,
        trials=trials,
        mean_fidelity=mean,
        detection_probability=1.0 - mean,
        zero_count_histogram=histogram,
    )
