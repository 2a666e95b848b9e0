import copy
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qseal import naive
from qseal.cli import MAX_Q
from qseal.linalg import CapacityError
from qseal.naive import (
    ONE,
    PLUS,
    ZERO,
    ProductState,
    build_message_states,
    dense_state,
    majority_projector_povm,
    mean_fidelity_exact,
    repaired_state,
    simulate_qubitwise_attack,
    states_nondisturbing,
    verify_nondisturbing,
)


def identity_state(q, message):
    data = ZERO if message == 1 else ONE
    return ProductState(q, (data,) * (2 * q) + (PLUS,) * q,
                        tuple(range(3 * q)))


class TestProductState:
    def test_message_from_labels(self):
        assert identity_state(1, 1).message == 1
        assert identity_state(1, 2).message == 2

    def test_count_validation(self):
        with pytest.raises(ValueError):
            ProductState(1, (ZERO, ONE, PLUS), (0, 1, 2))  # mixed data bits
        with pytest.raises(ValueError):
            ProductState(1, (ZERO, ZERO, ZERO), (0, 1, 2))  # no padding
        with pytest.raises(ValueError):
            ProductState(1, (ZERO, ZERO), (0, 1))  # wrong length
        with pytest.raises(ValueError):
            ProductState(1, (ZERO, ZERO, "minus"), (0, 1, 2))
        with pytest.raises(ValueError):
            ProductState(0, (), ())

    def test_permutation_validation(self):
        with pytest.raises(ValueError):
            ProductState(1, (ZERO, ZERO, PLUS), (0, 0, 2))
        with pytest.raises(ValueError):
            ProductState(1, (ZERO, ZERO, PLUS), (0, 1, 3))

    @pytest.mark.parametrize("q,permutation,message", [
        (2.7, (0, 1, 2, 3, 4, 5), "q must be an integer, got float"),
        (2, (0.5, 1, 2, 3, 4, 5), "permutation entry must be an integer, got float"),
        (2, (0, 1, 2, 3, 4, np.float64(5.0)),
         "permutation entry must be an integer, got float64"),
    ])
    def test_integers_are_not_truncated(self, q, permutation, message):
        # a float is refused, never truncated
        with pytest.raises(ValueError) as exc:
            ProductState(q, (ZERO,) * 4 + (PLUS,) * 2, permutation)
        assert str(exc.value) == message

    @pytest.mark.parametrize("labels,permutation,message", [
        ([["zero"], ["zero"], "plus"], (0, 1, 2),
         "unknown register labels [['zero'], ['zero']]"),
        (None, (0, 1, 2), "labels and permutation must be sequences"),
        ((ZERO, ZERO, PLUS), None, "labels and permutation must be sequences"),
        ([np.zeros((2, 2)), ZERO, PLUS], (0, 1, 2),
         "unknown register labels [array([[0., 0.], [0., 0.]])]"),
    ])
    def test_malformed_inputs_are_one_line_errors(self, labels, permutation, message):
        with pytest.raises(ValueError) as exc:
            ProductState(1, labels, permutation)
        assert str(exc.value) == message

    def test_physical_layout(self):
        state = ProductState(1, (ZERO, ZERO, PLUS), (2, 1, 0))
        assert state.physical_labels == (PLUS, ZERO, ZERO)
        assert state.plus_positions == (2,)
        # a 3-cycle is not its own inverse: base register i lands on permutation[i]
        state = ProductState(1, (ZERO, PLUS, ZERO), (1, 2, 0))
        assert state.physical_labels == (ZERO, ZERO, PLUS)


class TestDenseState:
    def test_identity_permutation_hand_values(self):
        vec = dense_state(identity_state(1, 1)).amplitudes
        expect = np.zeros(8)
        expect[0] = expect[1] = 1.0 / np.sqrt(2.0)  # |000> + |001>
        np.testing.assert_allclose(vec, expect, atol=1e-15)

        vec = dense_state(identity_state(1, 2)).amplitudes
        expect = np.zeros(8)
        expect[6] = expect[7] = 1.0 / np.sqrt(2.0)  # |110> + |111>
        np.testing.assert_allclose(vec, expect, atol=1e-15)

    def test_swap_moves_padding_to_front(self):
        state = ProductState(1, (ZERO, ZERO, PLUS), (2, 1, 0))
        vec = dense_state(state).amplitudes
        expect = np.zeros(8)
        expect[0] = expect[4] = 1.0 / np.sqrt(2.0)  # |000> + |100>
        np.testing.assert_allclose(vec, expect, atol=1e-15)

    def test_normalized_for_random_layouts(self):
        rng = np.random.default_rng(167)
        for _ in range(5):
            perm = tuple(int(x) for x in rng.permutation(9))
            state = ProductState(3, (ONE,) * 6 + (PLUS,) * 3, perm)
            vec = dense_state(state).amplitudes
            assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
            assert vec.size == 512

    def test_capacity_cap(self):
        assert dense_state(identity_state(4, 1)).dim == 4096
        with pytest.raises(CapacityError):
            dense_state(identity_state(5, 1))


class TestBuildStates:
    def test_seed_replay(self):
        a1, a2 = build_message_states(3, 21, 22)
        b1, b2 = build_message_states(3, 21, 22)
        assert a1 == b1 and a2 == b2
        assert (a1.message, a2.message) == (1, 2)

    def test_independent_permutations(self):
        s1, s2 = build_message_states(4, 5, 6)
        assert s1.permutation != s2.permutation  # seeds differ


class TestMajorityProjector:
    def test_q1_support(self):
        povm = majority_projector_povm(1)
        diag = np.diagonal(povm.element(1)).real
        assert set(np.nonzero(diag)[0]) == {0, 1, 2, 4}  # >= two zero bits
        assert set(diag) <= {0.0, 1.0}

    def test_partition_of_identity(self):
        for q in (1, 2):
            povm = majority_projector_povm(q)
            one, two = povm.element(1), povm.element(2)
            assert np.array_equal(one + two, np.eye(2 ** (3 * q)))
            assert np.abs(one @ two).max() == 0.0

    def test_strict_majority_threshold_matters(self):
        # lowering the cut to "at least half zeros" breaks message 2
        q = 1
        zeros = 3 - np.bitwise_count(np.arange(8, dtype=np.uint64)).astype(int)
        loose = np.diag((zeros >= (3 * q) // 2).astype(float))
        vec = dense_state(identity_state(1, 2)).amplitudes
        complement = np.eye(8) - loose
        assert np.max(np.abs(complement @ vec - vec)) > 0.1


def dense_fixed(state, povm):
    """Oracle: the message's dense projector leaves the dense ket unchanged."""
    vec = dense_state(state).amplitudes
    return np.max(np.abs(povm.element(state.message) @ vec - vec)) <= 1e-10


class TestNondisturbing:
    def test_exhaustive_q1(self):
        povm = majority_projector_povm(1)
        for perm1 in itertools.permutations(range(3)):
            s1 = ProductState(1, (ZERO, ZERO, PLUS), perm1)
            for perm2 in itertools.permutations(range(3)):
                s2 = ProductState(1, (ONE, ONE, PLUS), perm2)
                assert dense_fixed(s1, povm) and dense_fixed(s2, povm)
                assert states_nondisturbing(s1, s2)

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_random_seed_pairs(self, q):
        povm = majority_projector_povm(q)
        rng = np.random.default_rng(173 + q)
        for _ in range(10):
            sigma, tau = (int(x) for x in rng.integers(0, 2 ** 31, size=2))
            s1, s2 = build_message_states(q, sigma, tau)
            assert dense_fixed(s1, povm) and dense_fixed(s2, povm)
            assert verify_nondisturbing(q, sigma, tau)

    def test_rejects_mismatched_pair(self):
        with pytest.raises(ValueError):
            states_nondisturbing(identity_state(1, 1), identity_state(2, 2))
        with pytest.raises(ValueError):
            states_nondisturbing(identity_state(1, 2), identity_state(1, 1))


class TestRepair:
    def test_q1_hand_values(self):
        s1 = identity_state(1, 1)
        # padding read 0: looks like data, repair keeps |0>, overlap 1/sqrt(2)
        out = repaired_state(s1, (0,)).amplitudes
        expect = np.zeros(8)
        expect[0] = 1.0
        np.testing.assert_allclose(out, expect, atol=1e-15)
        # padding read 1: clearly padding, restored to |+>: state unchanged
        np.testing.assert_allclose(repaired_state(s1, (1,)).amplitudes,
                                    dense_state(s1).amplitudes, atol=1e-15)

        s2 = identity_state(1, 2)
        out = repaired_state(s2, (1,)).amplitudes
        expect = np.zeros(8)
        expect[7] = 1.0  # |111>
        np.testing.assert_allclose(out, expect, atol=1e-15)
        np.testing.assert_allclose(repaired_state(s2, (0,)).amplitudes,
                                    dense_state(s2).amplitudes, atol=1e-15)

    @pytest.mark.parametrize("q", [1, 2])
    @pytest.mark.parametrize("message", [1, 2])
    def test_fidelity_counts_false_data_bits(self, q, message):
        rng = np.random.default_rng(179 + q + message)
        perm = tuple(int(x) for x in rng.permutation(3 * q))
        data = ZERO if message == 1 else ONE
        state = ProductState(q, (data,) * (2 * q) + (PLUS,) * q, perm)
        original = dense_state(state).amplitudes
        for bits in itertools.product((0, 1), repeat=q):
            repaired = repaired_state(state, bits).amplitudes
            k = bits.count(0) if message == 1 else bits.count(1)
            fidelity = abs(np.vdot(original, repaired)) ** 2
            assert fidelity == pytest.approx(0.5 ** k, abs=1e-10)

    def test_outcome_validation(self):
        state = identity_state(2, 1)
        with pytest.raises(ValueError):
            repaired_state(state, (0,))
        with pytest.raises(ValueError):
            repaired_state(state, (0, 2))

    def test_outcome_bits_are_integers(self):
        # a float bit is refused, never truncated
        with pytest.raises(ValueError) as exc:
            repaired_state(identity_state(1, 1), [0.5])
        assert str(exc.value) == "outcome bit must be an integer, got float"


class TestAttack:
    def test_exact_mean_matches_binomial_sum(self):
        for q in range(1, 9):
            oracle = sum(math.comb(q, k) * 0.5 ** q * 0.5 ** k
                         for k in range(q + 1))
            assert mean_fidelity_exact(q) == pytest.approx(oracle, abs=1e-15)
            assert mean_fidelity_exact(q) == 0.75 ** q

    @pytest.mark.parametrize("message", [1, 2])
    def test_monte_carlo_tracks_exact_value(self, message):
        q, trials = 2, 40_000
        state = identity_state(q, message)
        result = simulate_qubitwise_attack(state, trials,
                                           np.random.default_rng(191))
        sigma = math.sqrt((0.625 ** q - 0.5625 ** q) / trials)
        assert abs(result.mean_fidelity - 0.75 ** q) < 5.0 * sigma
        assert result.detection_probability == pytest.approx(
            1.0 - result.mean_fidelity, abs=1e-15)

    def test_histogram_recovers_mean(self):
        q = 3
        state = identity_state(q, 1)
        result = simulate_qubitwise_attack(state, 5000,
                                           np.random.default_rng(193))
        assert sum(result.zero_count_histogram.values()) == 5000
        assert all(2 * q <= c <= 3 * q for c in result.zero_count_histogram)
        recovered = sum(count * 0.5 ** (c - 2 * q)
                        for c, count in result.zero_count_histogram.items()) / 5000
        assert result.mean_fidelity == pytest.approx(recovered, abs=1e-12)

    def test_message_two_zero_counts_stay_low(self):
        q = 3
        result = simulate_qubitwise_attack(identity_state(q, 2), 5000,
                                           np.random.default_rng(197))
        assert all(0 <= c <= q for c in result.zero_count_histogram)

    def test_seed_replay(self):
        state = identity_state(2, 1)
        a = simulate_qubitwise_attack(state, 1000, np.random.default_rng(7))
        b = simulate_qubitwise_attack(state, 1000, np.random.default_rng(7))
        assert a.mean_fidelity == b.mean_fidelity
        assert a.zero_count_histogram == b.zero_count_histogram

    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError):
            simulate_qubitwise_attack(identity_state(1, 1), 0,
                                      np.random.default_rng(1))
        with pytest.raises(ValueError):
            mean_fidelity_exact(0)

    def test_counts_are_integers(self):
        # a float count is refused before anything is drawn; a numpy integer passes
        rng = np.random.default_rng(1)
        before = rng.bit_generator.state
        with pytest.raises(ValueError) as exc:
            simulate_qubitwise_attack(identity_state(1, 1), 2.9, rng)
        assert str(exc.value) == "trials must be an integer, got float"
        assert rng.bit_generator.state == before
        with pytest.raises(ValueError) as exc:
            mean_fidelity_exact(2.5)
        assert str(exc.value) == "q must be an integer, got float"
        assert simulate_qubitwise_attack(identity_state(1, 1), np.int64(3), rng).trials == 3


def all_at_once_attack(state, trials, rng):
    """Oracle: one (trials, q) draw, per-trial fidelities and np.unique."""
    bits = rng.integers(0, 2, size=(trials, state.q), dtype=np.uint8)
    if state.message == 1:
        false_data = np.sum(bits == 0, axis=1)  # padding read as 0
        zero_counts = 2 * state.q + false_data
    else:
        false_data = np.sum(bits == 1, axis=1)  # padding read as 1
        zero_counts = state.q - false_data
    fidelities = 0.5 ** false_data.astype(np.float64)
    histogram = {int(value): int(count)
                 for value, count in zip(*np.unique(zero_counts, return_counts=True))}
    mean = float(fidelities.mean())
    return mean, 1.0 - mean, histogram


def assert_matches_oracle(state, trials, seed):
    result = simulate_qubitwise_attack(state, trials, np.random.default_rng(seed))
    mean, detection, histogram = all_at_once_attack(
        state, trials, np.random.default_rng(seed))
    assert result.trials == trials
    assert result.mean_fidelity == mean
    assert result.detection_probability == detection
    assert result.zero_count_histogram == histogram
    assert list(result.zero_count_histogram) == list(histogram)  # ascending keys


class TestStreamedAttack:
    """The chunked histogram equals the all-at-once draw bit for bit."""

    @pytest.mark.parametrize("q", [1, 2, 3, 5, 7])
    @pytest.mark.parametrize("message", [1, 2])
    def test_chunk_edges_match_oracle(self, monkeypatch, q, message):
        monkeypatch.setattr(naive, "_CHUNK_BYTES", 192)
        rows = max(8, (192 // (q + 2)) // 8 * 8)
        state = identity_state(q, message)
        for trials in (1, rows - 1, rows, rows + 1, 3 * rows + 3, 5000):
            assert_matches_oracle(state, trials, 211 + trials)

    # q = 2: three full lane chunks of 131,072 trials, then 5 trials that
    # end part-way through a raw output
    @pytest.mark.parametrize("q,trials,message", [
        pytest.param(q, trials, message, id=f"{prefix}{message}")
        for q, trials, prefix in ((1, 2 ** 20 + 3, ""),
                                  (2, 3 * (naive._CHUNK_BYTES // 4) + 5, "q2-"))
        for message in (1, 2)])
    def test_several_default_chunks(self, q, trials, message):
        assert_matches_oracle(identity_state(q, message), trials, 227)

    @pytest.mark.parametrize("message", [1, 2])
    def test_mean_is_the_correctly_rounded_histogram_value(self, message):
        # about q/2 = 300 ones per trial overflow a uint8 counter, and with
        # trials * 2^q above 2^53 a float sum of 2^-k terms is not exact
        q, trials = 600, 20_000
        state = identity_state(q, message)
        result = simulate_qubitwise_attack(state, trials, np.random.default_rng(229))
        _, _, histogram = all_at_once_attack(state, trials, np.random.default_rng(229))
        assert result.zero_count_histogram == histogram
        data_zeros = 2 * q if message == 1 else q  # zero count at k = 0
        exact = sum(Fraction(count, 2 ** abs(zeros - data_zeros))
                    for zeros, count in histogram.items()) / trials
        assert result.mean_fidelity == float(exact)
        assert result.detection_probability == 1.0 - float(exact)


def assert_stream_matches_oracle(state, trials, seed, advance=0):
    """``assert_attack_matches_oracle`` on two ``default_rng(seed)`` streams,
    both ``advance`` raw 64-bit outputs in."""
    assert_attack_matches_oracle(state, trials,
                                 *advanced_pair(np.random.PCG64, seed, advance))


class TestWordDraw:
    """Whole-output draws take the bounded uint8 draw's bits at every edge."""

    @pytest.mark.parametrize("advance", [1, 2, 3])
    @pytest.mark.parametrize("q", [1, 2, 3, 5, 7])
    def test_generator_started_mid_word(self, monkeypatch, advance, q):
        # an odd number of uint32 draws leaves PCG64's upper half-word
        # buffered: the attack starts on the next whole output and leaves it
        monkeypatch.setattr(naive, "_CHUNK_BYTES", 108)
        for trials in (1, 2, 3, 13, 101):
            streamed = np.random.default_rng(233 + q)
            streamed.integers(0, 1 << 32, size=advance, dtype=np.uint32)
            half_word = {key: streamed.bit_generator.state[key]
                         for key in ("has_uint32", "uinteger")}
            reference, _ = advanced_pair(np.random.PCG64, 233 + q, -(-advance // 2))
            assert_attack_matches_oracle(identity_state(q, 1 + trials % 2), trials,
                                         streamed, reference)
            assert {key: streamed.bit_generator.state[key] for key in half_word} == half_word

    # (chunk bits, q) where rows rounded to a multiple of 4, not 8, would
    # give every chunk half an output too many, so the stream would depend on
    # the chunk size; a budget of chunk_bits // q trials at q + 2 bytes each
    # keeps the rows a chunk of chunk_bits bits had
    ODD_WORD_CHUNKS = [(36, 1), (36, 3), (36, 5), (36, 7), (68, 1), (68, 3),
                       (68, 5), (100, 1), (100, 5), (100, 7)]

    @pytest.mark.parametrize("chunk_bits,q", ODD_WORD_CHUNKS)
    def test_odd_word_count_per_chunk(self, monkeypatch, chunk_bits, q):
        # these row counts now end mid-chunk or in an odd-word last chunk
        chunk_bytes = chunk_bits // q * (q + 2)
        monkeypatch.setattr(naive, "_CHUNK_BYTES", chunk_bytes)
        rows = max(4, (chunk_bytes // (q + 2)) // 4 * 4)
        assert rows * q // 4 % 2 == 1
        for trials in (rows, 2 * rows, 3 * rows + 1, 5 * rows + 3):
            for advance in (0, 1):
                assert_stream_matches_oracle(identity_state(q, 2), trials,
                                             239 + trials, advance)

    @pytest.mark.parametrize("chunk_bits,q", ODD_WORD_CHUNKS + [
        (36, 2), (100, 2), pytest.param(None, 2, id="default-2"),
        pytest.param(None, 11, id="default-11")])
    def test_full_chunks_draw_even_word_counts(self, monkeypatch, chunk_bits, q):
        # so every full chunk takes whole 64-bit outputs, 8 bits each, on
        # the lane path (q <= 2) and the bit paths alike (None keeps the
        # default budget)
        if chunk_bits is not None:
            monkeypatch.setattr(naive, "_CHUNK_BYTES", chunk_bits // q * (q + 2))
        calls, raw_bytes = [], naive._raw_bytes

        def spy(rng, count):
            calls.append(count)
            return raw_bytes(rng, count)

        monkeypatch.setattr(naive, "_raw_bytes", spy)
        rows = max(8, (naive._CHUNK_BYTES // (q + 2)) // 8 * 8)
        simulate_qubitwise_attack(identity_state(q, 1), 3 * rows + 1,
                                  np.random.default_rng(241))
        assert calls[:-1] == [rows * q] * 3 and calls[0] % 8 == 0

    @pytest.mark.parametrize("q", [255, 256, MAX_Q])
    @pytest.mark.parametrize("message", [1, 2])
    def test_counts_wider_than_a_byte(self, q, message):
        # from q = 256 on the per-trial ones no longer fit in uint8
        rows = (naive._CHUNK_BYTES // (q + 10)) // 8 * 8
        for trials in (1, 3, 2 * rows + 3):
            assert_stream_matches_oracle(identity_state(q, message), trials,
                                         241 + q, trials % 4)


class TestAttackBitCap:
    @pytest.mark.parametrize("q", [1, 3, MAX_Q])
    def test_rejects_more_bits_before_drawing(self, q):
        rng = np.random.default_rng(251)
        before = rng.bit_generator.state
        trials = naive.MAX_ATTACK_BITS // q + 1
        with pytest.raises(ValueError) as exc:
            simulate_qubitwise_attack(identity_state(q, 1), trials, rng)
        assert str(exc.value) == (f"trials * q must be at most {2 ** 32}, "
                                  f"got {trials} * {q}")
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("q", [1, 3, 7])
    def test_accepts_trials_up_to_the_cap(self, monkeypatch, q):
        monkeypatch.setattr(naive, "MAX_ATTACK_BITS", 60)
        monkeypatch.setattr(naive, "_CHUNK_BYTES", 108)
        assert_stream_matches_oracle(identity_state(q, 1), 60 // q, 257)
        with pytest.raises(ValueError):
            simulate_qubitwise_attack(identity_state(q, 1), 60 // q + 1,
                                      np.random.default_rng(257))


def test_chunk_memory_stays_small():
    # the bounded uint8 draw and intp bincount this replaced peaked at 5.5 MiB,
    # 2^20-bit chunks at 2.5 MiB; a 512 KiB chunk holds 2^17 trials' words,
    # counts and mask, and the small objects take a few hundred bytes more
    state = identity_state(2, 1)
    simulate_qubitwise_attack(state, 5, np.random.default_rng(263))
    tracemalloc.start()
    try:
        simulate_qubitwise_attack(state, 2 ** 21, np.random.default_rng(263))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 19 + 2 ** 14


def test_row_sum_chunk_memory_stays_small():
    # from q = 32 on, bincount copies each chunk's per-trial counts to intp;
    # rows budgeted without those 8 bytes a trial peaked at 613,784 B
    state = identity_state(40, 1)
    simulate_qubitwise_attack(state, 5, np.random.default_rng(269))
    tracemalloc.start()
    try:
        simulate_qubitwise_attack(state, 2 ** 16, np.random.default_rng(269))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 19 + 2 ** 14


BIT_GENERATORS = (np.random.PCG64, np.random.PCG64DXSM, np.random.Philox,
                  np.random.SFC64)


def assert_same_state(a, b):
    """Bit generator ``state`` dicts are equal, arrays compared by value."""
    assert a.keys() == b.keys()
    for key in a:
        if isinstance(a[key], dict):
            assert_same_state(a[key], b[key])
        else:
            np.testing.assert_array_equal(a[key], b[key], strict=True)


def advanced_pair(bit_generator, seed, advance):
    """Two generators on the same stream, both ``advance`` raw 64-bit outputs in."""
    pair = (np.random.Generator(bit_generator(seed)),
            np.random.Generator(bit_generator(seed)))
    for rng in pair:
        rng.bit_generator.random_raw(advance)
    return pair


def assert_same_next_outputs(a, b):
    assert (a.bit_generator.random_raw(5).tolist()
            == b.bit_generator.random_raw(5).tolist())


class TestRawWords:
    """Bits from whole raw 64-bit outputs equal numpy's bounded uint8 draw."""

    @pytest.mark.parametrize("advance", [0, 1, 2, 3])
    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    def test_bits_match_the_uint8_draw(self, bit_generator, advance):
        for count in range(45):
            raw, reference = advanced_pair(bit_generator, 271 + count, advance)
            bits = naive._fair_bits(raw, count)
            assert bits.tolist() == reference.integers(
                0, 2, size=count, dtype=np.uint8).tolist()
            assert_same_next_outputs(raw, reference)

    def test_mt19937_is_refused_before_drawing(self):
        rng = np.random.Generator(np.random.MT19937(277))
        rng.integers(0, 1 << 32, size=3, dtype=np.uint32)
        before = rng.bit_generator.state
        with pytest.raises(ValueError) as exc:
            simulate_qubitwise_attack(identity_state(2, 1), 10, rng)
        assert str(exc.value) == (
            "the attack needs a bit generator with 64-bit raw outputs "
            "(PCG64, PCG64DXSM, Philox, SFC64), got MT19937")
        assert_same_state(rng.bit_generator.state, before)

    @pytest.mark.parametrize("rng,name", [
        pytest.param(np.random.RandomState(1), "RandomState", id="RandomState"),
        pytest.param(np.random.PCG64(1), "PCG64", id="PCG64"),
        pytest.param(None, "NoneType", id="None")])
    def test_non_generator_is_a_one_line_error(self, rng, name):
        # RandomState runs MT19937, which the attack refuses in a Generator too
        with pytest.raises(ValueError) as exc:
            simulate_qubitwise_attack(identity_state(2, 1), 10, rng)
        assert str(exc.value) == f"rng must be a numpy Generator, got {name}"


def assert_attack_matches_oracle(state, trials, streamed, reference):
    """The attack on ``streamed`` gives the histogram and exact mean of the
    all-at-once draw on ``reference``, and moves ``streamed`` by exactly
    ceil(trials * q / 8) raw outputs."""
    moved = copy.deepcopy(streamed)
    moved.bit_generator.random_raw(-(-trials * state.q // 8))
    result = simulate_qubitwise_attack(state, trials, streamed)
    _, _, histogram = all_at_once_attack(state, trials, reference)
    assert result.zero_count_histogram == histogram
    data_zeros = 2 * state.q if state.message == 1 else state.q  # at k = 0
    exact = sum(Fraction(count, 2 ** abs(zeros - data_zeros))
                for zeros, count in histogram.items()) / trials
    assert result.mean_fidelity == float(exact)
    assert_same_next_outputs(streamed, moved)


@pytest.mark.parametrize("q", [11, 12, naive._ROW_SUM_FROM_Q - 1, naive._ROW_SUM_FROM_Q])
def test_counting_crossover_matches_oracle(monkeypatch, q):
    # 96 rows on both sides of the crossover
    per_trial = q + 2 if q < naive._ROW_SUM_FROM_Q else q + 10
    monkeypatch.setattr(naive, "_CHUNK_BYTES", 100 * per_trial)
    for trials in (1, 99, 100, 301):
        assert_attack_matches_oracle(identity_state(q, 1 + trials % 2), trials,
                                     *advanced_pair(np.random.PCG64, 281 + q, 1))


@settings(max_examples=150)
@given(q=st.integers(1, naive._ROW_SUM_FROM_Q + 4),
       trials=st.integers(1, 400),
       advance=st.integers(0, 3), message=st.sampled_from([1, 2]),
       chunk_bytes=st.sampled_from([108, 192, 300]),
       bit_generator=st.sampled_from(BIT_GENERATORS),
       seed=st.integers(0, 2 ** 32 - 1))
def test_attack_matches_oracle_on_every_bit_generator(
        q, trials, advance, message, chunk_bytes, bit_generator, seed):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(naive, "_CHUNK_BYTES", chunk_bytes)
        assert_attack_matches_oracle(identity_state(q, message), trials,
                                     *advanced_pair(bit_generator, seed, advance))
