import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bratteli.markers import (GenericMarkerRows, MarkerRow, dominates,
                              fill_outside_forbidden, infinite_order_positions,
                              mark_all_rows, render_marked_word, row_markers,
                              shift_row, upward_adjust)
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
    common = infinite_order_positions(mw)
    assert common == frozenset(range(2, 16))  # row-3 determined range [2, 15]


def test_infinite_order_positions_density_word():
    mw = mark_all_rows(DENSITY_WORD, 6)
    assert infinite_order_positions(mw) == frozenset({5})


def test_infinite_order_equals_deepest_row_on_common_range():
    rng = random.Random(11)
    for _ in range(100):
        word = "".join(rng.choice("01") for _ in range(22))
        mw = mark_all_rows(word, 3)
        lo = max(mw.row(k).lo for k in (1, 2, 3))
        hi = min(mw.row(k).hi for k in (1, 2, 3))
        expect = {p for p in mw.row(3).positions if lo <= p <= hi}
        assert infinite_order_positions(mw) == frozenset(expect)


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


def test_shift_row_examples():
    rows = GenericMarkerRows((MarkerRow(frozenset({2, 7, 12}), 0, 14),))
    shifted = shift_row(rows, 1, -2)
    assert shifted.row(1).positions == frozenset({0, 5, 10})
    assert shifted.row(1).determined_range == (0, 12)
    assert shift_row(rows, 1, 0).row(1) == rows.row(1)


def test_shift_row_composition_identity_on_shrunken_range():
    rows = GenericMarkerRows((MarkerRow(frozenset({0, 4, 9, 13}), 0, 14),))
    back = shift_row(shift_row(rows, 1, -3), 1, 3)
    assert back.row(1).determined_range == (3, 11)
    assert back.row(1).positions == frozenset({4, 9})


def test_fill_outside_forbidden_examples():
    rows = GenericMarkerRows((MarkerRow(frozenset({0, 10}), 0, 14),))
    filled = fill_outside_forbidden(rows, 1, 4)
    assert sorted(filled.row(1).positions) == [0, 4, 5, 6, 7, 8, 9, 10, 14]
    empty = GenericMarkerRows((MarkerRow(frozenset(), 0, 14),))
    assert fill_outside_forbidden(empty, 1, 4).row(1).positions == frozenset(range(15))
    one = GenericMarkerRows((MarkerRow(frozenset({0}), 0, 5),))
    assert fill_outside_forbidden(one, 1, 1).row(1).positions == frozenset(range(6))


def test_fill_interior_gap_bound():
    rng = random.Random(3)
    for _ in range(100):
        markers = frozenset(p for p in range(30) if rng.random() < 0.15)
        n = rng.randint(1, 6)
        rows = GenericMarkerRows((MarkerRow(markers, 0, 29),))
        out = sorted(fill_outside_forbidden(rows, 1, n).row(1).positions)
        assert markers <= set(out)
        assert all(b - a <= n for a, b in zip(out, out[1:]))


def test_upward_adjust_examples():
    rows = GenericMarkerRows((MarkerRow(frozenset({0, 3, 6, 9}), 0, 10),
                              MarkerRow(frozenset({4, 8}), 0, 10)))
    adjusted, dropped = upward_adjust(rows)
    assert adjusted.row(2).positions == frozenset({3, 6})
    assert dropped == ()
    # already-aligned marker stays put
    rows = GenericMarkerRows((MarkerRow(frozenset({0, 3}), 0, 5),
                              MarkerRow(frozenset({3}), 0, 5)))
    adjusted, dropped = upward_adjust(rows)
    assert adjusted.row(2).positions == frozenset({3})
    assert dropped == ()
    # unmatched marker is dropped and reported
    rows = GenericMarkerRows((MarkerRow(frozenset({5}), 0, 10),
                              MarkerRow(frozenset({4, 8}), 0, 10)))
    adjusted, dropped = upward_adjust(rows)
    assert adjusted.row(2).positions == frozenset({5})
    assert dropped == ((2, 4),)


def test_upward_adjust_nesting_holds_after():
    rng = random.Random(5)
    for _ in range(100):
        r1 = frozenset(p for p in range(25) if rng.random() < 0.3)
        r2 = frozenset(p for p in range(25) if rng.random() < 0.2)
        r3 = frozenset(p for p in range(25) if rng.random() < 0.15)
        rows = GenericMarkerRows(tuple(MarkerRow(r, 0, 24) for r in (r1, r2, r3)))
        adjusted, _ = upward_adjust(rows)
        assert adjusted.row(2).positions <= adjusted.row(1).positions
        assert adjusted.row(3).positions <= adjusted.row(2).positions


@settings(max_examples=300)
@given(st.integers(1, 5).flatmap(
    lambda k: st.tuples(st.just(k), st.text(alphabet="01", min_size=3 * k - 2, max_size=24))))
def test_upward_adjust_keeps_the_rule_rows(k_word):
    # the rule's rows are already nested, so adjusting them moves and drops nothing
    k, word = k_word
    mw = mark_all_rows(word, k)
    adjusted, dropped = upward_adjust(mw)
    assert adjusted.rows == mw.rows
    assert dropped == ()


def test_pipeline_takes_a_marked_word():
    mw = mark_all_rows("1001001001001", 3)
    assert isinstance(mw, GenericMarkerRows)
    plain = GenericMarkerRows(mw.rows)
    shifted, filled = shift_row(mw, 1, -2), fill_outside_forbidden(mw, 3, 2)
    # a changed row is no longer the word's rule row, so the result is plain
    # rows, equal to those the word's rows give
    assert type(shifted) is type(filled) is GenericMarkerRows
    assert shifted == shift_row(plain, 1, -2)
    assert filled == fill_outside_forbidden(plain, 3, 2)
    assert shifted.rows[1:] == mw.rows[1:] and filled.rows[:2] == mw.rows[:2]
    assert shifted.row(1).determined_range == (0, 10)
    assert filled.row(3).positions == frozenset({2, 3, 5, 6, 8})
