import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bratteli.markers
from bratteli.markers import (MarkedWord, MarkerRow, dominates, mark_all_rows,
                              render_marked_word, row_markers)
from conftest import oracle_row_positions

# the dense family of words with no deep marker at the center: ones, two
# zeros, ones; row-6 markers computed by the lex-max oracle and frozen
DENSITY_WORD = "1" * 9 + "00" + "1" * 9

binary_words = st.text(alphabet="01", min_size=7, max_size=16)


def all_words(length):
    return ("".join(bits) for bits in itertools.product("01", repeat=length))


def test_dominates_basic():
    assert dominates("1", "0")
    assert not dominates("0", "1")
    assert not dominates("01", "10")
    assert dominates("10", "01")
    for a in ("0", "10", "0110"):
        assert dominates(a, a)
    with pytest.raises(ValueError):
        dominates("01", "0")
    with pytest.raises(ValueError):
        dominates("", "")


def test_dominates_is_lexicographic_order():
    # independent oracle: python string comparison with '1' > '0'
    for length in range(1, 7):
        for a in all_words(length):
            for b in all_words(length):
                assert dominates(a, b) == (a >= b), (a, b)


def test_row1_markers_everywhere():
    for word in ("0110100", "0000000", "1011101"):
        row = row_markers(word, 1)
        assert row.determined_range == (0, len(word) - 1)
        assert row.positions == frozenset(range(len(word)))


def test_row2_alternating_word():
    row = row_markers("0101010101", 2)
    assert row.determined_range == (1, 7)
    assert sorted(row.positions) == [1, 3, 5, 7]  # the "10" starts


def test_row6_density_word_center_unmarked():
    row = row_markers(DENSITY_WORD, 6)
    assert row.determined_range == (5, 9)
    assert sorted(row.positions) == [5]
    assert 9 not in row.positions  # center of the zero block


def test_row_markers_word_too_short():
    with pytest.raises(ValueError, match="too short"):
        row_markers("0101", 3)  # needs length >= 7
    # length 3k-2 gives exactly one determined position
    row = row_markers("0000000", 3)
    assert row.determined_range == (2, 2)


def test_row_markers_rejects_bad_words():
    with pytest.raises(ValueError):
        row_markers("012", 1)
    with pytest.raises(ValueError):
        row_markers("0101", 0)


def test_rule_matches_lexmax_oracle_exhaustively():
    for length in (7, 8, 9, 10):
        for k in (1, 2, 3):
            if length < 3 * k - 2:
                continue
            for word in all_words(length):
                assert row_markers(word, k).positions == frozenset(
                    oracle_row_positions(word, k)), (word, k)


def test_mark_all_rows_invariants_sample():
    rng = random.Random(7)
    for _ in range(200):
        word = "".join(rng.choice("01") for _ in range(20))
        mw = mark_all_rows(word, 3)
        row1 = mw.row(1)
        assert row1.positions == frozenset(range(row1.lo, row1.hi + 1))
        for k in (1, 2):
            upper, lower = mw.row(k), mw.row(k + 1)
            lo, hi = max(upper.lo, lower.lo), min(upper.hi, lower.hi)
            nested = {p for p in lower.positions if lo <= p <= hi}
            assert nested <= upper.positions
        for k in (1, 2, 3):
            row = mw.row(k)
            pos = sorted(row.positions)
            assert all(b - a <= k for a, b in zip(pos, pos[1:]))


def test_all_ones_word_full_columns():
    mw = mark_all_rows("1" * 20, 3)
    for k in (1, 2, 3):
        row = mw.row(k)
        assert row.positions == frozenset(range(row.lo, row.hi + 1))


def test_mark_all_rows_fails_before_marking(monkeypatch):
    # 40 cells determine rows 1..14 only; nothing is marked before the refusal
    calls = []
    marks = bratteli.markers.window_max_marks
    monkeypatch.setattr(bratteli.markers, "window_max_marks",
                        lambda *a: calls.append(a) or marks(*a))
    with pytest.raises(ValueError) as err:
        mark_all_rows("01" * 20, 20)
    assert str(err.value) == "word of length 40 too short for row 15: no position is determined"
    assert calls == []
    assert mark_all_rows("01" * 20, 14).row(14).determined_range == (13, 13)
    assert len(calls) == 14



def test_mark_all_rows_refuses_bad_input_before_marking(monkeypatch):
    calls = []
    marks = bratteli.markers.window_max_marks
    monkeypatch.setattr(bratteli.markers, "window_max_marks",
                        lambda *a: calls.append(a) or marks(*a))
    with pytest.raises(ValueError, match=r"^need at least one row, got 0$"):
        mark_all_rows("0110100", 0)
    with pytest.raises(ValueError, match=r"^word must be over \{0,1\}, found \['2'\]$"):
        mark_all_rows("01102" * 8, 3)
    assert calls == []


def test_mark_all_rows_equals_row_markers_row_by_row():
    rng = random.Random(13)
    for length in (7, 19, 40):
        word = "".join(rng.choice("01") for _ in range(length))
        depth = (length + 2) // 3
        mw = mark_all_rows(word, depth)
        assert mw.word == word and mw.depth == depth
        assert mw.rows == tuple(row_markers(word, k) for k in range(1, depth + 1))


def test_marked_word_fields_and_row_index():
    rows = (MarkerRow(frozenset({0, 1, 2}), 0, 2), MarkerRow(frozenset(), 1, 1))
    mw = MarkedWord(rows, "010")
    assert (mw.rows, mw.word, mw.depth) == (rows, "010", 2)
    assert [f.name for f in dataclasses.fields(MarkedWord)] == ["rows", "word"]
    assert mw.row(1) is rows[0] and mw.row(2) is rows[1]
    for k in (0, 3, -1):
        with pytest.raises(IndexError, match=rf"^row {k} outside 1\.\.2$"):
            mw.row(k)
    with pytest.raises(dataclasses.FrozenInstanceError):
        mw.word = "111"
    assert mw == MarkedWord(rows, "010") and mw != MarkedWord(rows, "011")


def test_marker_row_refuses_positions_outside_its_range():
    assert MarkerRow(frozenset({2, 5}), 2, 5).determined_range == (2, 5)
    for positions in ({1, 3}, {3, 6}):
        with pytest.raises(ValueError, match="^marker positions outside the declared range$"):
            MarkerRow(frozenset(positions), 2, 5)


@settings(max_examples=200)
@given(word=binary_words, shift=st.integers(min_value=1, max_value=4))
def test_shift_equivariance(word, shift):
    for k in (1, 2):
        if len(word) - shift < 3 * k - 2 or len(word) < 3 * k - 2:
            continue
        full = row_markers(word, k)
        cut = row_markers(word[shift:], k)
        lo = max(full.lo - shift, cut.lo)
        hi = min(full.hi - shift, cut.hi)
        translated = {p - shift for p in full.positions if lo <= p - shift <= hi}
        restricted = {p for p in cut.positions if lo <= p <= hi}
        assert translated == restricted


@settings(max_examples=150)
@given(word=st.text(alphabet="01", min_size=10, max_size=14),
       n=st.integers(min_value=0, max_value=13), k=st.integers(min_value=1, max_value=3))
def test_locality(word, n, k):
    # flipping any cell outside [n-k+1, n+2k-2] leaves the bit at n unchanged
    lo, hi = k - 1, len(word) - 2 * k + 1
    if not lo <= n <= hi:
        return
    before = n in row_markers(word, k).positions
    for cell in range(len(word)):
        if n - k + 1 <= cell <= n + 2 * k - 2:
            continue
        flipped = word[:cell] + ("1" if word[cell] == "0" else "0") + word[cell + 1:]
        assert (n in row_markers(flipped, k).positions) == before


def test_render_marked_word_format():
    mw = mark_all_rows("0101010101", 2)
    lines = render_marked_word(mw).splitlines()
    assert lines[0] == "|0|1|0|1|0|1|0|1|0|1"
    assert lines[1] == " ?|1 0|1 0|1 0|1 ? ?"


@settings(max_examples=300)
@given(st.integers(1, 5).flatmap(
    lambda k: st.tuples(st.just(k), st.text(alphabet="01", min_size=3 * k - 2, max_size=24))))
def test_rule_rows_nest(k_word):
    # every row-(k+1) marker is a row-k marker, though the rows are computed apart
    k, word = k_word
    mw = mark_all_rows(word, k)
    for r in range(1, k):
        assert mw.row(r + 1).positions <= mw.row(r).positions
