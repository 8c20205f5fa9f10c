import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bratteli import _kernels
from bratteli.markers import row_markers
from bratteli.trapezoids import WidenSchedule, dependence_bound
from conftest import oracle_row_positions

# count and sha256 of np.sort(keys).astype("<i8").tobytes(), recorded with
# the bit-matrix kernel this one replaced
KEY_DIGESTS = [
    (1, 12, (1,), 8, "f7839c5ac4f1013db59e1fae08e3410699bd6202440cd0611625f1896a140e95"),
    (2, 14, (1,), 256, "5a185e196b8706b231e902148226faa293b1d83dcb156d5cfd83c2eda63959ea"),
    (3, 16, (1,), 2336, "b4e70c7aa98a6ea4dfea23fc887cc14a37ab55eecfd1c173bf6b38adcc5d7478"),
    (4, 17, (1,), 23424, "0f0c8709a9e2690e838e74a70997083766bc768c2462317746244f3aa5282232"),
    (5, 21, (1,), 266880, "0825b4eaf5af4c865578bddeef5db0b087bb5c46559f54ea4dce56d210e75272"),
    (3, 17, (1, 2), 37376, "014952dd90d2f0002be246c220e58ad504be2b08b934676fa00f48d141077dfa"),
    (6, 25, (1,), 3010048, "a4ecc8131e100ec7c203466555d21ddaf186db209580a071fd5aae80d5c41c34"),
]


def long_words(k: int) -> list[str]:
    """Words longer than 64 cells.  Long runs of ones make nearby blocks
    agree on long prefixes, so for k > 64 they first differ past the bits a
    uint64 holds."""
    rng = random.Random(k)
    length = max(65, 3 * k - 2) + 10
    words = ["1" * length, ("1" * (k - 1) + "0") * (length // k + 1)]
    words += ["1" * a + "0" + "1" * (length - a - 1) for a in range(k - 1, length, 7)]
    words += ["".join("0" if rng.random() < 0.05 else "1" for _ in range(length))
              for _ in range(4)]
    return [w[:length] for w in words]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 63, 64, 70])
def test_marker_rule_matches_oracle(k):
    for word in long_words(k):
        assert row_markers(word, k).positions == oracle_row_positions(word, k), (word, k)
    for length in range(3 * k - 2, 13):
        words = np.arange(1 << length, dtype=np.int64)
        marks = _kernels.marker_rows(words, length, k)
        lo, hi = k - 1, length - 2 * k + 1
        assert marks.shape == (hi - lo + 1, words.size)
        for w in range(1 << length):
            word = format(w, f"0{length}b")
            expect = oracle_row_positions(word, k)
            assert {lo + i for i in np.flatnonzero(marks[:, w])} == expect, (word, k)
            assert row_markers(word, k).positions == expect, (word, k)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_determined_markers_at_most_k_apart(data):
    k = data.draw(st.integers(1, 6))
    word = data.draw(st.text(alphabet="01", min_size=3 * k - 2, max_size=40))
    lo, hi = k - 1, len(word) - 2 * k + 1
    positions = oracle_row_positions(word, k)
    # every k consecutive determined positions hold a marker, so no gap
    # between consecutive markers exceeds k
    for i in range(lo, hi - k + 2):
        assert positions & set(range(i, i + k)), (word, k, i)
    pos = sorted(positions)
    assert all(b - a <= k for a, b in zip(pos, pos[1:])), (word, k)


@pytest.mark.parametrize("k,length,widths,count,digest", KEY_DIGESTS,
                         ids=[f"k{k}-L{n}-w{'.'.join(map(str, w))}" for k, n, w, *_ in KEY_DIGESTS])
def test_window_key_digest(k, length, widths, count, digest):
    pad_left, pad_right, min_len = dependence_bound(k, WidenSchedule(widths))
    assert length >= min_len
    keys = _kernels.enumerate_block_window_keys(length, k, pad_left, pad_right)
    assert keys.size == count
    assert hashlib.sha256(np.sort(keys).astype("<i8").tobytes()).hexdigest() == digest


@pytest.mark.parametrize("k,widths", [(1, (1,)), (3, (1,)), (3, (1, 2))])
def test_word_length_is_a_lower_bound(k, widths):
    pad_left, pad_right, min_len = dependence_bound(k, WidenSchedule(widths))
    shortest = _kernels.enumerate_block_window_keys(min_len, k, pad_left, pad_right)
    assert np.array_equal(shortest,
                          _kernels.enumerate_block_window_keys(60, k, pad_left, pad_right))
    with pytest.raises(ValueError):
        _kernels.enumerate_block_window_keys(min_len - 1, k, pad_left, pad_right)


def test_chunking_does_not_change_keys():
    pad_left, pad_right, _ = dependence_bound(2, WidenSchedule((1,)))
    whole = _kernels.enumerate_block_window_keys(10, 2, pad_left, pad_right, chunk_size=1 << 20)
    tiny = _kernels.enumerate_block_window_keys(10, 2, pad_left, pad_right, chunk_size=37)
    assert np.array_equal(whole, tiny)


def test_decode_key_round_trip():
    pad_left, pad_right, _ = dependence_bound(2, WidenSchedule((1,)))
    keys = _kernels.enumerate_block_window_keys(9, 2, pad_left, pad_right)
    assert keys.size > 0
    for key in keys.tolist():
        cw, window = _kernels.decode_key(key, pad_left, pad_right)
        assert 1 <= cw
        assert len(window) == cw + pad_left + pad_right + 1
        assert set(window) <= {"0", "1"}
