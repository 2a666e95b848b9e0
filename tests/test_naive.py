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

    def test_physical_layout(self):
        state = ProductState(1, (ZERO, ZERO, PLUS), (2, 1, 0))
        assert state.physical_labels == (PLUS, ZERO, ZERO)
        assert state.plus_positions == (2,)


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
        monkeypatch.setattr(naive, "_CHUNK_DRAWS", 64)
        rows = max(4, (64 // q) // 4 * 4)
        state = identity_state(q, message)
        for trials in (1, rows - 1, rows, rows + 1, 3 * rows + 3, 5000):
            assert_matches_oracle(state, trials, 211 + trials)

    @pytest.mark.parametrize("message", [1, 2])
    def test_several_default_chunks(self, message):
        assert_matches_oracle(identity_state(1, message), 2 ** 20 + 3, 227)

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
    """From a generator advanced by ``advance`` uint32 draws, the attack's
    histogram equals the all-at-once draw's, its mean is that histogram's
    exact value, and it leaves its generator in the same state."""
    streamed, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    for rng in (streamed, reference):
        rng.integers(0, 1 << 32, size=advance, dtype=np.uint32)
    result = simulate_qubitwise_attack(state, trials, streamed)
    _, _, histogram = all_at_once_attack(state, trials, reference)
    assert result.zero_count_histogram == histogram
    data_zeros = 2 * state.q if state.message == 1 else state.q  # at k = 0
    exact = sum(Fraction(count, 2 ** abs(zeros - data_zeros))
                for zeros, count in histogram.items()) / trials
    assert result.mean_fidelity == float(exact)
    assert streamed.bit_generator.state == reference.bit_generator.state
    assert (streamed.integers(0, 1 << 32, size=3, dtype=np.uint32).tolist()
            == reference.integers(0, 1 << 32, size=3, dtype=np.uint32).tolist())


class TestWordDraw:
    """Whole-word draws take the bounded uint8 draw's bits at every edge."""

    @pytest.mark.parametrize("advance", [1, 2, 3])
    @pytest.mark.parametrize("q", [1, 2, 3, 5, 7])
    def test_generator_started_mid_word(self, monkeypatch, advance, q):
        # an odd advance leaves PCG64's upper half-word buffered
        monkeypatch.setattr(naive, "_CHUNK_DRAWS", 36)
        for trials in (1, 2, 3, 13, 101):
            assert_stream_matches_oracle(identity_state(q, 1 + trials % 2),
                                         trials, 233 + q, advance)

    ODD_WORD_CHUNKS = [(36, 1), (36, 3), (36, 5), (36, 7), (68, 1), (68, 3),
                       (68, 5), (100, 1), (100, 5), (100, 7)]

    @pytest.mark.parametrize("chunk_draws,q", ODD_WORD_CHUNKS)
    def test_odd_word_count_per_chunk(self, monkeypatch, chunk_draws, q):
        monkeypatch.setattr(naive, "_CHUNK_DRAWS", chunk_draws)
        rows = max(4, (chunk_draws // q) // 4 * 4)
        assert rows * q // 4 % 2 == 1
        for trials in (rows, 2 * rows, 3 * rows + 1, 5 * rows + 3):
            for advance in (0, 1):
                assert_stream_matches_oracle(identity_state(q, 2), trials,
                                             239 + trials, advance)

    @pytest.mark.parametrize("q", [255, 256, MAX_Q])
    @pytest.mark.parametrize("message", [1, 2])
    def test_counts_wider_than_a_byte(self, q, message):
        # from q = 256 on the per-trial ones no longer fit in uint8
        rows = (naive._CHUNK_DRAWS // q) // 4 * 4
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
        monkeypatch.setattr(naive, "_CHUNK_DRAWS", 36)
        assert_stream_matches_oracle(identity_state(q, 1), 60 // q, 257)
        with pytest.raises(ValueError):
            simulate_qubitwise_attack(identity_state(q, 1), 60 // q + 1,
                                      np.random.default_rng(257))


def test_chunk_memory_stays_small():
    # the bounded uint8 draw and intp bincount this replaced peaked at 5.5 MiB
    state = identity_state(2, 1)
    simulate_qubitwise_attack(state, 5, np.random.default_rng(263))
    tracemalloc.start()
    try:
        simulate_qubitwise_attack(state, 2 ** 21, np.random.default_rng(263))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


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
    """Two generators on the same stream, both ``advance`` uint32 draws in."""
    pair = (np.random.Generator(bit_generator(seed)),
            np.random.Generator(bit_generator(seed)))
    for rng in pair:
        rng.integers(0, 1 << 32, size=advance, dtype=np.uint32)
    return pair


def assert_same_next_words(a, b):
    assert_same_state(a.bit_generator.state, b.bit_generator.state)
    assert (a.integers(0, 1 << 32, size=5, dtype=np.uint32).tolist()
            == b.integers(0, 1 << 32, size=5, dtype=np.uint32).tolist())


class TestRawWords:
    """Words from the raw 64-bit output equal numpy's buffered uint32 draw."""

    @pytest.mark.parametrize("advance", [0, 1, 2, 3])
    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    def test_words_match_the_uint32_draw(self, bit_generator, advance):
        for n in range(12):
            raw, reference = advanced_pair(bit_generator, 269 + n, advance)
            words = naive._words(raw.bit_generator, n)
            assert words.dtype == np.dtype("<u4")
            assert words.tolist() == reference.integers(
                0, 1 << 32, size=n, dtype=np.uint32).tolist()
            assert_same_next_words(raw, reference)

    @pytest.mark.parametrize("advance", [0, 1, 2, 3])
    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    def test_bits_match_the_uint8_draw(self, bit_generator, advance):
        for count in range(45):
            raw, reference = advanced_pair(bit_generator, 271 + count, advance)
            bits = naive._fair_bits(raw, count)
            assert bits.tolist() == reference.integers(
                0, 2, size=count, dtype=np.uint8).tolist()
            assert_same_next_words(raw, reference)

    def test_mt19937_is_refused_before_drawing(self):
        rng = np.random.Generator(np.random.MT19937(277))
        rng.integers(0, 1 << 32, size=3, dtype=np.uint32)
        before = rng.bit_generator.state
        with pytest.raises(ValueError) as exc:
            simulate_qubitwise_attack(identity_state(2, 1), 10, rng)
        assert str(exc.value) == (
            "the attack needs a bit generator with a buffered 32-bit "
            "half-word (PCG64, PCG64DXSM, Philox, SFC64), got MT19937")
        assert_same_state(rng.bit_generator.state, before)


def assert_attack_matches_oracle(state, trials, streamed, reference):
    """The attack on ``streamed`` gives the histogram and exact mean of the
    all-at-once draw on ``reference`` and leaves the same generator state."""
    result = simulate_qubitwise_attack(state, trials, streamed)
    _, _, histogram = all_at_once_attack(state, trials, reference)
    assert result.zero_count_histogram == histogram
    data_zeros = 2 * state.q if state.message == 1 else state.q  # at k = 0
    exact = sum(Fraction(count, 2 ** abs(zeros - data_zeros))
                for zeros, count in histogram.items()) / trials
    assert result.mean_fidelity == float(exact)
    assert_same_next_words(streamed, reference)


@pytest.mark.parametrize("q", [naive._BINCOUNT_FROM_Q - 1, naive._BINCOUNT_FROM_Q])
def test_counting_crossover_matches_oracle(monkeypatch, q):
    monkeypatch.setattr(naive, "_CHUNK_DRAWS", 100 * q)
    for trials in (1, 99, 100, 301):
        assert_attack_matches_oracle(identity_state(q, 1 + trials % 2), trials,
                                     *advanced_pair(np.random.PCG64, 281 + q, 1))


@settings(max_examples=150)
@given(q=st.integers(1, 12), trials=st.integers(1, 400),
       advance=st.integers(0, 3), message=st.sampled_from([1, 2]),
       chunk_draws=st.sampled_from([36, 64, 100]),
       bit_generator=st.sampled_from(BIT_GENERATORS),
       seed=st.integers(0, 2 ** 32 - 1))
def test_attack_matches_oracle_on_every_bit_generator(
        q, trials, advance, message, chunk_draws, bit_generator, seed):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(naive, "_CHUNK_DRAWS", chunk_draws)
        assert_attack_matches_oracle(identity_state(q, message), trials,
                                     *advanced_pair(bit_generator, seed, advance))
