"""Unit and property tests for repro.util.bitops."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util import bitops


def make_words(nbits):
    return np.zeros(bitops.words_for_bits(nbits), dtype=np.uint64)


class TestWordsForBits:
    def test_exact_boundaries(self):
        assert bitops.words_for_bits(0) == 0
        assert bitops.words_for_bits(1) == 1
        assert bitops.words_for_bits(64) == 1
        assert bitops.words_for_bits(65) == 2
        assert bitops.words_for_bits(128) == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bitops.words_for_bits(-1)


class TestSetGetClear:
    def test_set_then_get(self):
        w = make_words(200)
        bitops.set_bits(w, np.array([0, 63, 64, 199]))
        got = bitops.get_bits(w, np.array([0, 63, 64, 199, 1, 100]))
        assert got.tolist() == [True, True, True, True, False, False]

    def test_repeated_indices(self):
        w = make_words(64)
        bitops.set_bits(w, np.array([5, 5, 5]))
        assert bitops.count_set_bits(w) == 1

    def test_clear(self):
        w = make_words(128)
        bitops.set_bits(w, np.arange(128))
        bitops.clear_bits(w, np.array([0, 64, 127]))
        assert bitops.count_set_bits(w) == 125
        assert not bitops.get_bits(w, np.array([0]))[0]

    def test_empty_index_noop(self):
        w = make_words(64)
        bitops.set_bits(w, np.array([], dtype=np.int64))
        bitops.clear_bits(w, np.array([], dtype=np.int64))
        assert bitops.count_set_bits(w) == 0

    def test_wrong_dtype_rejected(self):
        w = np.zeros(2, dtype=np.int64)
        with pytest.raises(TypeError):
            bitops.set_bits(w, np.array([1]))


class TestPopcount:
    def test_popcount_words(self):
        w = np.array([0, 1, 3, 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
        assert bitops.popcount_words(w).tolist() == [0, 1, 2, 64]

    def test_lookup_table_matches_native(self, monkeypatch):
        """The byte-table path (numpy < 2.0) counts like the native one."""
        w = np.random.default_rng(0).integers(
            0, 2**63, size=257, dtype=np.int64
        ).astype(np.uint64) * np.uint64(3)
        native = bitops.popcount_words(w)
        monkeypatch.setattr(bitops, "_BITWISE_COUNT", None)
        table = bitops.popcount_words(w)
        assert table.dtype == native.dtype == np.int64
        assert np.array_equal(table, native)
        assert table.tolist() == [bin(int(x)).count("1") for x in w]

    def test_count_with_nbits_masks_padding(self):
        w = make_words(70)
        bitops.set_bits(w, np.arange(70))
        # Manually pollute padding bits.
        w[1] |= np.uint64(1) << np.uint64(63)
        assert bitops.count_set_bits(w, nbits=70) == 70

    def test_count_empty(self):
        assert bitops.count_set_bits(np.zeros(0, dtype=np.uint64)) == 0


class TestConversions:
    def test_round_trip_bool(self):
        rng = np.random.default_rng(0)
        flags = rng.random(1000) < 0.3
        w = bitops.bool_to_bits(flags)
        back = bitops.bits_to_bool(w, flags.size)
        assert np.array_equal(flags, back)

    def test_nonzero_bit_indices(self):
        w = make_words(130)
        idx = np.array([3, 77, 129])
        bitops.set_bits(w, idx)
        assert np.array_equal(bitops.nonzero_bit_indices(w, 130), idx)


@settings(max_examples=60, deadline=None)
@given(
    nbits=st.integers(min_value=1, max_value=600),
    data=st.data(),
)
def test_property_set_get_roundtrip(nbits, data):
    idx = data.draw(
        st.lists(st.integers(min_value=0, max_value=nbits - 1), max_size=50)
    )
    w = make_words(nbits)
    bitops.set_bits(w, np.array(idx, dtype=np.int64))
    expected = np.zeros(nbits, dtype=bool)
    expected[idx] = True
    assert np.array_equal(bitops.bits_to_bool(w, nbits), expected)
    assert bitops.count_set_bits(w, nbits=nbits) == len(set(idx))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.booleans(), min_size=0, max_size=300))
def test_property_pack_unpack(flags):
    flags = np.array(flags, dtype=bool)
    w = bitops.bool_to_bits(flags)
    assert np.array_equal(bitops.bits_to_bool(w, flags.size), flags)
    assert bitops.count_set_bits(w) == int(flags.sum())


def naive_words(start, idx, value):
    """``start`` with the bits at ``idx`` set (``value``) or cleared, one
    Python int at a time."""
    out = [int(x) for x in start]
    for i in idx:
        if value:
            out[i >> 6] |= 1 << (i & 63)
        else:
            out[i >> 6] &= ~(1 << (i & 63)) & (2**64 - 1)
    return out


@settings(max_examples=80, deadline=None)
@given(
    nbits=st.integers(min_value=1, max_value=700),
    data=st.data(),
)
def test_property_set_and_clear_match_naive_loop(nbits, data):
    """Word-for-word equal to a per-bit loop, on a non-empty starting
    bitmap, with repeated indices and ``nbits`` not a multiple of 64."""
    positions = st.integers(min_value=0, max_value=nbits - 1)
    idx = data.draw(st.lists(positions, max_size=120))
    if idx:  # repeats of drawn positions
        idx += data.draw(st.lists(st.sampled_from(idx), max_size=20))
    start = make_words(nbits)
    start[:] = naive_words(start, data.draw(st.lists(positions)), True)
    for fn, value in ((bitops.set_bits, True), (bitops.clear_bits, False)):
        w = start.copy()
        fn(w, np.array(idx, dtype=np.int64))
        assert [int(x) for x in w] == naive_words(start, idx, value)
