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
  takes bit 7 of each byte of the bit generator's raw 64-bit outputs, which
  is how numpy makes a fair uint8 bit, so from a generator on an output
  boundary the stream is the one a (trials, q) draw of bits gives.  MT19937,
  whose raw outputs are 32-bit, is refused.  A chunk is counted on q-byte
  lanes for q <= 2, by column adds up to ``_ROW_SUM_FROM_Q``, then by row sums.
* Better: the two-outcome projector measurement {strings with more zeros
  than 3q/2, rest} reads the message with certainty and does not disturb
  either message state at all (``verify_nondisturbing``).

Dense amplitudes use register 0 as the most significant bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import states
from .linalg import MAX_DENSE_DIM, CapacityError, as_integer
from .states import Povm, PureState

ZERO, ONE, PLUS = "zero", "one", "plus"

# Bytes a chunk of the attack Monte Carlo holds, so that it stays in L2:
# about rows * (q + 2) for q bits per trial, per-trial counts and a mask (a
# lane chunk, q <= 2, holds q + 1: its lanes and a mask); rows * (q + 10)
# from ``_ROW_SUM_FROM_Q`` on, where no mask is taken but ``np.bincount``
# copies the counts to 8-byte intp.  The rows are a multiple of 8, so that
# a full chunk takes whole 64-bit outputs; q <= 3 runs 100,000 trials in one.
_CHUNK_BYTES = 1 << 19
# Largest trials * q the attack accepts: 2^32 fair bits, about 4 s (q = 1)
# to 18 s (q = 1000) per message.
MAX_ATTACK_BITS = 1 << 32
# From this q on, one row sum of a chunk's bits and one bincount of the
# per-trial counts cost less than q strided column adds and q count_nonzero
# passes: per 2^20-bit chunk the sums take 0.89-0.94 vs 1.18-1.29 ms at
# q = 32, 0.13 vs 3.0 ms at q = 1000 (median of 61 calls, one pinned CPU,
# numpy 2.4).  The counting half alone would cross earlier (bincount
# 0.05-0.14 ms, count_nonzero 0.10-0.13 ms at q = 12 to 31), but moves a
# 1.1 ms chunk by 0.08 ms at most.
_ROW_SUM_FROM_Q = 32

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
        q = as_integer(self.q, "q")
        if q < 1:
            raise ValueError(f"q must be positive, got {self.q}")
        try:
            labels, perm = tuple(self.labels), tuple(self.permutation)
        except TypeError:
            raise ValueError("labels and permutation must be sequences") from None
        if len(labels) != 3 * q:
            raise ValueError(f"expected {3 * q} labels, got {len(labels)}")
        bad = [lab for lab in labels if not (isinstance(lab, str) and lab in _AMPLITUDES)]
        if bad:
            raise ValueError(f"unknown register labels {states._one_line(bad)}")
        counts = {lab: labels.count(lab) for lab in (ZERO, ONE, PLUS)}
        if counts[PLUS] != q or counts[ZERO] * counts[ONE] != 0 \
                or counts[ZERO] + counts[ONE] != 2 * q:
            raise ValueError(
                "labels must be 2q zeros (message 1) or 2q ones (message 2) "
                f"plus q plus-registers; got counts {counts}")
        perm = tuple(as_integer(x, "permutation entry") for x in perm)
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
        return _placed(self.labels, self.permutation)

    @property
    def plus_positions(self) -> tuple:
        """Base indices of the padding registers."""
        return tuple(i for i, lab in enumerate(self.labels) if lab == PLUS)


def _placed(labels, permutation) -> tuple:
    """``labels`` in physical order: base register i goes to ``permutation[i]``."""
    return tuple(labels[base] for base in np.argsort(permutation))  # argsort inverts it


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
    return tuple(ProductState(q, (data,) * (2 * q) + (PLUS,) * q,
                              np.random.default_rng(seed).permutation(3 * q))
                 for data, seed in ((ZERO, sigma_seed), (ONE, tau_seed)))


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
    bits = tuple(as_integer(b, "outcome bit") for b in plus_outcomes)
    if len(bits) != state.q or any(b not in (0, 1) for b in bits):
        raise ValueError(f"expected {state.q} outcome bits, got {plus_outcomes!r}")
    _require_dense_capacity(state.q)
    repair = (ZERO, PLUS) if state.message == 1 else (PLUS, ONE)  # label by outcome bit
    repaired = list(state.labels)
    for rank, base in enumerate(state.plus_positions):
        repaired[base] = repair[bits[rank]]
    return _dense_from_physical(_placed(repaired, state.permutation))


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
    q = as_integer(q, "q")
    if q < 1:
        raise ValueError(f"q must be positive, got {q}")
    return 0.75 ** q


def _raw_bytes(rng: np.random.Generator, count: int) -> np.ndarray:
    """The first ``count`` bytes of the next ceil(count / 8) raw outputs, little-endian."""
    return rng.bit_generator.random_raw(-(-count // 8)).astype(
        "<u8", copy=False).view(np.uint8)[:count]


def _fair_bits(rng: np.random.Generator, count: int) -> np.ndarray:
    """Bit 7 of each byte of ``_raw_bytes(rng, count)``, as 0 or 1.

    numpy's ``rng.integers(0, 2, count, dtype=np.uint8)`` takes bit 7 of one
    byte per value from the same outputs, low byte first, so from a generator
    on an output boundary these are that draw's bits without its per-value work.
    """
    bits = _raw_bytes(rng, count)
    return np.right_shift(bits, 7, out=bits)


def simulate_qubitwise_attack(state: ProductState, trials: int,
                              rng: np.random.Generator) -> AttackResult:
    """Sample the standard-basis attack register by register.

    Only the q padding registers are random (data registers always read
    their own bit), so each trial draws q fair bits; the repaired state's
    fidelity with the original is (1/2)^k where k counts padding registers
    that collapsed onto the data bit.

    Trials are drawn in chunks of ``rows`` trials, about ``_CHUNK_BYTES``,
    and only a (q+1)-bin histogram of the ones per trial is kept, so memory
    does not depend on ``trials``; ``trials * q`` is capped at
    ``MAX_ATTACK_BITS``.  A chunk is counted on q-byte lanes of the raw
    outputs for q <= 2, by column adds of ``_fair_bits`` below
    ``_ROW_SUM_FROM_Q`` and by a row sum from it on.  ``rows`` is a multiple
    of 8, so every full chunk takes whole raw 64-bit outputs and a run takes
    ceil(trials * q / 8): the result does not depend on the chunk size, and
    from a generator on an output boundary (each command's messages get
    fresh ones) it is that of one ``rng.integers(0, 2, (trials, q),
    dtype=np.uint8)`` draw.  A non-``Generator`` ``rng``, or MT19937 (32-bit
    raw outputs), raises ``ValueError`` before anything is drawn.  The mean
    is the histogram's exact rational value, correctly rounded.
    """
    q, trials = state.q, as_integer(trials, "trials")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if trials * q > MAX_ATTACK_BITS:
        raise ValueError(f"trials * q must be at most {MAX_ATTACK_BITS}, "
                         f"got {trials} * {q}")
    if not isinstance(rng, np.random.Generator):
        raise ValueError(f"rng must be a numpy Generator, got {type(rng).__name__}")
    if "has_uint32" not in rng.bit_generator.state:  # numpy's mark of 64-bit raw outputs
        raise ValueError("the attack needs a bit generator with 64-bit raw outputs (PCG64, "
                         f"PCG64DXSM, Philox, SFC64), got {type(rng.bit_generator).__name__}")
    per_trial = q + 2 if q < _ROW_SUM_FROM_Q else q + 10
    rows = max(8, (_CHUNK_BYTES // per_trial) // 8 * 8)
    ones_histogram = np.zeros(q + 1, dtype=np.int64)
    remaining = trials
    while remaining:
        size = min(rows, remaining)
        if q <= 2:  # lanes: a trial's bits are the 0x80 or 0x8080 bits of its lane
            mask = 0x8080 if q == 2 else 0x80
            bits = _raw_bytes(rng, size * q).view(f"<u{q}")
            bits &= mask
            some = np.count_nonzero(bits)  # trials with a one
            every = np.count_nonzero(bits == mask)  # trials with all ones
            np.add.at(ones_histogram, [0, 1, q], [size - some, some - every, every])
        elif q < _ROW_SUM_FROM_Q:  # column adds: np.sum(axis=1) is slow on narrow rows
            bits = _fair_bits(rng, size * q).reshape(size, q)
            ones = np.add(bits[:, 0], bits[:, -1], dtype=np.min_scalar_type(q))
            for k in range(1, q - 1):
                ones += bits[:, k]
            with_ones = [np.count_nonzero(ones == j) for j in range(1, q + 1)]
            ones_histogram[1:] += with_ones
            ones_histogram[0] += size - sum(with_ones)  # trials with no ones
        else:
            bits = _fair_bits(rng, size * q).reshape(size, q)
            ones = bits.sum(axis=1, dtype=np.min_scalar_type(q))
            ones_histogram += np.bincount(ones, minlength=q + 1)
        # the bits go before the next draw (``ones`` when the next counts
        # replace it), so their memory is a hole the next bits fill, not free
        # space at the heap top that malloc may return and fault in again
        del bits
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
