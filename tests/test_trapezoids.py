import functools
import hashlib
import os
import subprocess

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bratteli import _kernels
from bratteli.catalog import example_7_2, odometer
from bratteli.diagram import Edge, OrderedBratteliDiagram, deserialize, empty_prefix, serialize
from bratteli.markers import mark_all_rows
from bratteli.trapezoids import (InsufficientWindowError, Trapezoid, TrapezoidRow,
                                 WidenSchedule, _extract, _grow_spans, _marker_table, _read_table,
                                 build_diagram, canonical_text, decompose,
                                 dependence_bound, enumerate_level, k_blocks,
                                 longest_read_window, path_to_window, render_trapezoid,
                                 trapezoid_at, trapezoid_from_text, window_shift_mismatches)
from bratteli.vershik import all_prefixes, is_maximal_prefix, successor
from conftest import CLI, CLI_ENV, RESPELLINGS

W1 = WidenSchedule((1,))

# the published level-2 listing: seven width-1 cores and four width-2 cores
LEVEL2_PICTURES = {
    "0|0|0\n |0|",
    "0|0|1\n |0|",
    "1|0|0\n |0|",
    "0|1|0|1\n |1 0|",
    "0|1|0|0\n |1 0|",
    "1|1|0|0\n |1 0|",
    "1|1|0|1\n |1 0|",
    "0|1|0\n |1|",
    "0|1|1\n |1|",
    "1|1|0\n |1|",
    "1|1|1\n |1|",
}

# the published level-3 listing (15 configurations)
LEVEL3_PICTURES = {
    "0|0|0\n |0|\n |0|",
    "0|0|1\n |0|\n |0|",
    "1|0|0\n |0|\n |0|",
    "0|1|0|1\n |1 0|\n |1 0|",
    "0|1|0|0|0\n |1|0|0|\n |1 0 0|",
    "0|1|0|0|1\n |1 0|0|\n |1 0 0|",
    "1|1|0|0|0\n |1|0|0|\n |1 0 0|",
    "1|1|0|0|1\n |1 0|0|\n |1 0 0|",
    "0|1|1|0|1\n |1|1 0|\n |1 1 0|",
    "1|1|1|0|1\n |1|1 0|\n |1 1 0|",
    "1|1|0|1\n |1 0|\n |1 0|",
    "0|1|0\n |1|\n |1|",
    "0|1|1\n |1|\n |1|",
    "1|1|0\n |1|\n |1|",
    "1|1|1\n |1|\n |1|",
}


def test_widen_schedule_validation():
    with pytest.raises(ValueError):
        WidenSchedule(())
    with pytest.raises(ValueError):
        WidenSchedule((2, 1))
    with pytest.raises(ValueError):
        WidenSchedule((0,))
    assert WidenSchedule.parse("1,2,3").widths == (1, 2, 3)
    with pytest.raises(ValueError):
        WidenSchedule.parse("1,x")


def test_k_blocks_all_ones():
    mw = mark_all_rows("1" * 15, 3)
    blocks = k_blocks(mw, 3)
    assert all(b - a == 1 for a, b in blocks)
    lo, hi = mw.row(3).determined_range
    assert blocks[0] == (lo, lo + 1) and blocks[-1] == (hi - 1, hi)


def test_k_blocks_alternating_word():
    mw = mark_all_rows("01" * 6, 2)
    assert all(b - a == 2 for a, b in k_blocks(mw, 2))


def test_k_blocks_width_one_everywhere_for_row_one():
    mw = mark_all_rows("0110100110", 1)
    assert k_blocks(mw, 1) == [(i, i + 1) for i in range(9)]


def test_k_blocks_needs_two_markers():
    mw = mark_all_rows("0000000", 3)  # single determined position
    with pytest.raises(InsufficientWindowError):
        k_blocks(mw, 3)


def test_trapezoid_at_published_fixtures():
    # a "0" core with zeros on both sides
    mw = mark_all_rows("0000000000", 2)
    t = trapezoid_at(mw, (4, 5), 2, W1)
    assert render_trapezoid(t) == "0|0|0\n |0|"
    # a "10" core with 0 on the left and 1 on the right
    word = "0001011010"
    mw = mark_all_rows(word, 2)
    assert (3, 5) in k_blocks(mw, 2)
    t = trapezoid_at(mw, (3, 5), 2, W1)
    assert render_trapezoid(t) == "0|1|0|1\n |1 0|"
    # constant ones
    mw = mark_all_rows("1" * 10, 2)
    t = trapezoid_at(mw, (4, 5), 2, W1)
    assert render_trapezoid(t) == "1|1|1\n |1|"


def test_trapezoid_at_insufficient_window():
    mw = mark_all_rows("10101010", 2)
    assert sorted(mw.row(2).positions) == [2, 4]
    # a block reaching past the determined range cannot be read
    with pytest.raises(InsufficientWindowError):
        trapezoid_at(mw, (4, 6), 2, W1)


def test_trapezoid_at_rejects_non_blocks():
    mw = mark_all_rows("0101010101", 2)
    with pytest.raises(ValueError):
        trapezoid_at(mw, (2, 4), 2, W1)  # position 2 is not a marker


def test_translation_invariance():
    w1 = "000" + "10110" + "0000000"
    w2 = "11111" + "10110" + "11100"
    mw1, mw2 = mark_all_rows(w1, 2), mark_all_rows(w2, 2)
    # the same local content at different positions in different words
    pairs = []
    for mw, start in ((mw1, 3), (mw2, 5)):
        for block in k_blocks(mw, 2):
            if start + 1 <= block[0] and block[1] <= start + 4:
                pairs.append(trapezoid_at(mw, block, 2, W1))
    assert len(pairs) >= 2
    assert len({pairs[0]}) == 1


def test_enumerate_level_counts():
    assert len(enumerate_level(1, W1)) == 2
    assert len(enumerate_level(2, W1)) == 11
    assert len(enumerate_level(3, W1)) == 15


def test_enumerate_level_one_contents():
    pics = {render_trapezoid(t) for t in enumerate_level(1, W1)}
    assert pics == {"|0|", "|1|"}


def test_enumerate_level_two_matches_published_listing():
    pics = {render_trapezoid(t) for t in enumerate_level(2, W1)}
    assert pics == LEVEL2_PICTURES


def test_enumerate_level_three_matches_published_listing():
    pics = {render_trapezoid(t) for t in enumerate_level(3, W1)}
    assert pics == LEVEL3_PICTURES


def test_enumerate_level_stabilizes():
    # the level-k set depends on the widths below k alone
    for k, count in ((1, 2), (2, 11), (3, 15)):
        found = enumerate_level(k, W1)
        assert len(found) == count
        assert enumerate_level(k, WidenSchedule((1, k + 1))) == found


# (widths, level) -> distinct trapezoids
COMPLETENESS_CASES = {((1,), 1): 2, ((1,), 2): 11, ((1,), 3): 15,
                      ((1, 2), 1): 2, ((1, 2), 2): 11, ((1, 2), 3): 87,
                      ((1, 3), 1): 2, ((1, 3), 2): 11, ((1, 3), 3): 15}
COMPLETENESS_IDS = [f"w{'-'.join(map(str, w))}-k{k}" for w, k in sorted(COMPLETENESS_CASES)]


@pytest.mark.parametrize("widths,k", sorted(COMPLETENESS_CASES), ids=COMPLETENESS_IDS)
def test_enumerate_level_complete_at_dependence_bound(widths, k):
    assert len(enumerate_level(k, WidenSchedule(widths))) == COMPLETENESS_CASES[widths, k]


ORACLE_CASES = sorted(COMPLETENESS_CASES) + [((1,), 4)]


@pytest.mark.parametrize("widths,k", ORACLE_CASES,
                         ids=COMPLETENESS_IDS + ["w1-k4"])
def test_grown_spans_equal_the_window_scan(widths, k):
    """The spans grown cell by cell are exactly the spans of the windows of
    the reference scan, marked through the public path, and each span
    extracts the trapezoid of its windows.  Row r of a reference span holds
    the cells and markers over ``[-m_r, cw + m_r]`` around the core ``[0,
    cw]``, ``m_r`` the sum of the widths w >= r below k."""
    schedule = WidenSchedule(widths)
    pad_left, pad_right, min_len = dependence_bound(k, schedule)
    margins = [sum(w for w in schedule.widths_below(k) if w >= r) for r in range(1, k + 1)]
    scanned = {}
    for key in _kernels.enumerate_block_window_keys(min_len, k, pad_left, pad_right).tolist():
        cw, window = _kernels.decode_key(key, pad_left, pad_right)
        mw = mark_all_rows(window, k)
        rows = tuple(TrapezoidRow(-m, window[pad_left - m:pad_left + cw + m], frozenset(
            p - pad_left for p in mw.row(r).positions if -m <= p - pad_left <= cw + m))
            for r, m in enumerate(margins, start=1))
        t = trapezoid_at(mw, (pad_left, pad_left + cw), k, schedule)
        assert scanned.setdefault((cw, rows), t) == t, window
    grown = {(cw, rows) for cw in range(1, k + 1) for rows in _grow_spans(k, cw, schedule)[0]}
    assert grown == set(scanned)
    for (cw, rows), t in scanned.items():
        assert _extract(rows, 0, cw, k, schedule) == t
    assert set(enumerate_level(k, schedule)) == set(scanned.values())


@pytest.mark.parametrize("k", range(1, 7))
def test_spans_at_width_one_are_the_trapezoids(k):
    """A span holds only the bits extraction reads, so at widths (1,) no
    two spans give the same trapezoid."""
    spans = sum(len(list(_grow_spans(k, cw, W1)[0])) for cw in range(1, k + 1))
    assert spans == len(enumerate_level(k, W1))


@pytest.mark.parametrize("widths", [(1,), (1, 2), (1, 3), (1, 2, 3)],
                         ids=lambda w: "w" + "-".join(map(str, w)))
def test_longest_read_window_from_the_rule_reach(widths):
    """Row r is read over ``[-m_r, cw + m_r]``, and the rule decides its bit
    at p from the ``r - 1`` cells left of p and the ``2r - 2`` right of it,
    so the widest core, ``cw = k``, reads the longest window: the read
    table's ``first`` is the same for every core width and ``last - cw``
    is too."""
    schedule = WidenSchedule(widths)
    for k in range(1, 9):
        margins = [sum(w for w in schedule.widths_below(k) if w >= r) for r in range(1, k + 1)]
        first = min(-m - (r - 1) for r, m in enumerate(margins, start=1))
        last = max(k + m + 2 * r - 2 for r, m in enumerate(margins, start=1))
        assert longest_read_window(k, schedule) == last - first + 1, k
        for cw in range(1, k + 1):
            _, _, cw_first, cw_last = _read_table(k, cw, schedule)
            assert (cw_first, cw_last - cw) == (first, last - k), (k, cw)


# (widths, level) -> the longest read window, the least word length the
# CLI takes
READ_WINDOW_CASES = {((1,), 2): 6, ((1,), 3): 10, ((1,), 4): 14, ((1,), 7): 26,
                     ((1, 2, 3), 4): 18}


READ_WINDOW_IDS = [f"w{'-'.join(map(str, w))}-k{k}" for w, k in sorted(READ_WINDOW_CASES)]


@pytest.mark.parametrize("widths,k", sorted(READ_WINDOW_CASES), ids=READ_WINDOW_IDS)
def test_cli_word_length_bound_is_the_read_window(widths, k, tmp_path):
    """The word length is only an assertion of the CLI: one cell short of
    the longest read window exits 1 before anything is built, and at the
    bound the build gives the pinned BVD."""
    bound = READ_WINDOW_CASES[widths, k]
    args = ["build-fullshift", "-k", str(k), "--widths", ",".join(map(str, widths))]
    short = subprocess.run(CLI + args + ["-L", str(bound - 1)],
                           capture_output=True, text=True, env=CLI_ENV)
    assert (short.returncode, short.stdout) == (1, "")
    assert short.stderr == (f"error: word length {bound - 1} below the longest read window "
                            f"{bound} for level {k}; increase --word-length\n")
    if k <= 4:
        out_path = tmp_path / "fs.bvd"
        exact = subprocess.run(CLI + args + ["-L", str(bound), "-o", str(out_path)],
                               capture_output=True, text=True, env=CLI_ENV)
        assert exact.returncode == 0, exact.stderr
        digest = BVD_DIGESTS[k] if widths == (1,) else WIDE_BVD_DIGESTS[widths][1]
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest


GUARD_CASES = ([((1,), k) for k in range(1, 6)] + [(w, k) for w in ((1, 2), (1, 3)) for k in (2, 3)]
               + [((1, 2, 3), 4)])


@functools.cache
def level_set(widths, k):
    return frozenset(enumerate_level(k, WidenSchedule(widths)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_every_block_of_a_long_word_is_enumerated(data):
    """Completeness of ``enumerate_level`` checked without window enumeration:
    every block of a long random word gives a trapezoid of the level set, and
    the same one as its padded window alone, and as the cells from ``first``
    to ``last`` around its core alone: the first cell a span bit reads and
    the cell that decides the last one, with row r read over ``[-m_r, cw +
    m_r]`` and its bit at p decided by cells ``p - r + 1 .. p + 2r - 2``."""
    widths, k = data.draw(st.sampled_from(GUARD_CASES))
    schedule = WidenSchedule(widths)
    pad_left, pad_right, min_len = dependence_bound(k, schedule)
    margins = [sum(w for w in schedule.widths_below(k) if w >= r) for r in range(1, k + 1)]
    first = min(-m - r + 1 for r, m in enumerate(margins, start=1))
    word = data.draw(st.text(alphabet="01", min_size=min_len + 20, max_size=min_len + 60))
    mw = mark_all_rows(word, k)
    padded = cut = 0
    for s, e in k_blocks(mw, k):
        fits = pad_left <= s and e + pad_right < len(word)
        try:
            t = trapezoid_at(mw, (s, e), k, schedule)
        except InsufficientWindowError:
            assert not fits, (word, s, e)
            continue
        assert t in level_set(widths, k), (word, s, e)
        if fits:
            window = word[s - pad_left:e + pad_right + 1]
            assert trapezoid_at(mark_all_rows(window, k), (pad_left, pad_left + e - s),
                                k, schedule) == t, (word, s, e)
            padded += 1
        last = e + max(m + 2 * r - 2 for r, m in enumerate(margins, start=1))
        if 0 <= s + first and last < len(word):
            window = word[s + first:last + 1]
            assert trapezoid_at(mark_all_rows(window, k), (-first, e - s - first),
                                k, schedule) == t, (word, s, e)
            cut += 1
    assert padded > 0 and cut >= padded


def test_decompose_published_fixtures():
    level1 = enumerate_level(1, W1)
    level2 = enumerate_level(2, W1)
    by_pic = {render_trapezoid(t): t for t in level2}
    internal, external = decompose(by_pic["0|0|0\n |0|"], level1, W1)
    assert [render_trapezoid(t) for t in internal] == ["|0|"]
    # external 1-trapezoids of a 2-trapezoid are single cells, readable
    assert [render_trapezoid(t) for t in external] == ["|0|", "|0|"]
    internal, _ = decompose(by_pic["0|1|0|1\n |1 0|"], level1, W1)
    assert [render_trapezoid(t) for t in internal] == ["|1|", "|0|"]


def test_decompose_level3_shape():
    level2 = enumerate_level(2, W1)
    for t in enumerate_level(3, W1):
        internal, external = decompose(t, level2, W1)
        assert 1 <= len(internal) <= 3
        assert all(s in set(level2) for s in internal)
        # row-2 markers outside the core are unknown at this schedule
        assert external == (None, None)


def test_decompose_detects_missing_member():
    level2 = enumerate_level(2, W1)
    ones = next(t for t in level2 if render_trapezoid(t) == "1|1|1\n |1|")
    zero_only = [t for t in enumerate_level(1, W1)
                 if render_trapezoid(t) == "|0|"]
    with pytest.raises(ValueError, match="not found"):
        decompose(ones, zero_only, W1)


def test_canonical_text_round_trip():
    for t in enumerate_level(3, W1):
        assert trapezoid_from_text(canonical_text(t)) == t


def test_trapezoid_from_text_rejects_renumbered_rows():
    head, first, second = canonical_text(enumerate_level(2, W1)[0]).splitlines()
    assert first == "R 1 -1 000 M -1,0,1,2"
    with pytest.raises(ValueError, match="^malformed R line 'R 7 -1 000 M -1,0,1,2'$"):
        trapezoid_from_text("\n".join([head, first.replace("R 1", "R 7"), second]))
    with pytest.raises(ValueError, match="^malformed R line 'R 2 0 0 M 0,1'$"):
        trapezoid_from_text("\n".join([head, second, first]))


@pytest.mark.parametrize("text, message", [
    ("T a 1\nR 1 0 0 M 0,1", "malformed T line 'T a 1'"),
    ("T 1 1\nR 1 x 0 M 0,1", "malformed R line 'R 1 x 0 M 0,1'"),
    ("T 1 1\nR 1 0 0 M 0,,1", "malformed R line 'R 1 0 0 M 0,,1'"),
    # spellings int() reads but str never writes
    *[(f"T 1 {s}\nR 1 0 0 M 0,1", f"malformed T line 'T 1 {s}'") for s in RESPELLINGS],
    *[(f"T 1 1\nR 1 {s} 0 M 0,1", f"malformed R line 'R 1 {s} 0 M 0,1'") for s in RESPELLINGS],
    # canonical_text writes the markers ascending, each once
    ("T 1 1\nR 1 0 0 M 1,0", "malformed R line 'R 1 0 0 M 1,0'"),
    ("T 1 1\nR 1 0 0 M 0,0,1", "malformed R line 'R 1 0 0 M 0,0,1'"),
])
def test_trapezoid_from_text_names_the_line_of_a_non_integer(text, message):
    # the line, not Python's "invalid literal for int()"
    with pytest.raises(ValueError) as err:
        trapezoid_from_text(text)
    assert str(err.value) == message
    assert trapezoid_from_text("T 1 1\nR 1 0 0 M 0,1").core_width == 1


def test_trapezoid_from_text_breaks_lines_at_newline_alone():
    # canonical_text joins rows with "\n" and nothing else ends a label line;
    # splitting a line into fields still drops the "\r" of a CRLF label
    label = "T 2 1\nR 1 -1 011 M -1,0,1,2\nR 2 0 1 M 0,1"
    assert label in {canonical_text(t) for t in enumerate_level(2, W1)}
    assert canonical_text(trapezoid_from_text(label.replace("\n", "\r\n"))) == label
    joined = label.replace("\n", "\x0c")
    with pytest.raises(ValueError) as err:
        trapezoid_from_text(joined)
    assert str(err.value) == f"malformed T line {joined!r}"


def test_trapezoid_invariant_enforcement():
    with pytest.raises(ValueError, match="^core row must carry both boundary markers$"):
        Trapezoid(1, 1, (TrapezoidRow(0, "0", frozenset({0})),))
    with pytest.raises(ValueError, match=r"^core width 2 outside 1\.\.1$"):
        Trapezoid(1, 2, (TrapezoidRow(0, "00", frozenset({0, 2})),))
    with pytest.raises(ValueError, match="^row extents must nest downward$"):
        Trapezoid(2, 1, (TrapezoidRow(1, "0", frozenset({1})),
                         TrapezoidRow(0, "0", frozenset({0, 1}))))


@pytest.mark.parametrize("text, message", [
    ("T 0 1", "level must be >= 1, got 0"),
    ("T 2 1\nR 1 0 0 M 0,1", "expected 2 rows, got 1"),
    ("T 1 1\nR 1 0 00 M 0,2", "core row must span exactly the core"),
    ("T 1 1\nR 1 0 2 M 0,1", "symbols must be over {0,1}"),
    ("T 2 1\nR 1 0 0 M 0,1,5\nR 2 0 0 M 0,1", "row 1 markers outside its extent"),
    ("T 2 1\nR 1 -1 000 M -1,2\nR 2 0 0 M 0,1",
     "marker nesting violated between adjacent rows"),
])
def test_trapezoid_from_text_enforces_each_invariant(text, message):
    with pytest.raises(ValueError) as err:
        trapezoid_from_text(text)
    assert str(err.value) == message


def test_trapezoid_at_rejects_a_block_with_an_interior_marker():
    # (1, 5) spans the row-2 marker at 3
    with pytest.raises(ValueError) as err:
        trapezoid_at(mark_all_rows("0101010101", 2), (1, 5), 2)
    assert str(err.value) == "block (1, 5) contains an interior row-2 marker"


def test_build_diagram_structure(fullshift3):
    assert fullshift3.level_sizes == (1, 2, 11, 15)
    assert fullshift3.validate() == []
    assert deserialize(serialize(fullshift3)).structurally_equal(fullshift3)
    for v in range(11):
        assert len(fullshift3.edges_from(2, v)) in (1, 2)
    for v in range(15):
        assert 1 <= len(fullshift3.edges_from(3, v)) <= 3
    # labels parse back into trapezoids
    for (k, v), text in fullshift3.labels.items():
        assert trapezoid_from_text(text).level == k


# sha256 of the serialized diagram as `build-fullshift -k K -o` writes it;
# levels 1-5 recorded with one extraction per window, level 6 by window
# fingerprints and by span growth alike, level 7 by span growth and by
# fingerprints of the grown keys, level 8 by span growth
BVD_DIGESTS = {
    1: "b07405e0952af80c84e15cdd50ea3f0f19d8c120102acdd3a33ab469cbe334f9",
    2: "6c56b810fb6c3fe7ced983ffb1dde9bcc4e7ac29e113975e59ca1b6ff97f3a4d",
    3: "80bc1b4086317aaa9e09db0a2dcdc66e5a7cc8aeeea1f01ee1520c3c0b5fb259",
    4: "72ed80e7d1aca69029d7db739b2ce644399ecc6d2c0079222b6e7ff042f74335",
    5: "ceac169be6c8623c965400cd49f44940e7510c1d6892d6b29025d7f9c5321192",
    6: "3a6f5846e0c066a9a4b00d6c0507b3a4c3941b975449b5fc8ab1f769da738db8",
    7: "f21d9dc05b711fdf13cad829c74860d2a0d44288ee7ff8431faba1a9a42b4f18",
    8: "ff2685a7a8d9db0879b34b223ab64cc94c8845fd61c53ecf48c6045c48eb6b8a",
}


@pytest.mark.parametrize("levels", sorted(BVD_DIGESTS))
def test_build_diagram_bvd_digest(levels):
    text = serialize(build_diagram(levels, W1))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == BVD_DIGESTS[levels]


# level sizes and sha256 of `build_diagram(4, schedule)`'s BVD for wider
# schedules, recorded while spans still held every row over the whole window
WIDE_BVD_DIGESTS = {
    (1, 2): ((1, 2, 11, 87, 123),
             "a31bf2479d4a899927a003604454ea4569b444fbd7b15dc28bca7fd6472e9b36"),
    (1, 3): ((1, 2, 11, 15, 252),
             "297c464123d9cf8a8b34f4fa3189c63f10fbc1d310a70b05047f7f9a72daaafb"),
    (1, 2, 3): ((1, 2, 11, 87, 1381),
                "91ccbd91515b452fd7b6a1b4f2521bf26f58186e8f8090afe7c8f09145f5d582"),
}


@pytest.mark.parametrize("widths", sorted(WIDE_BVD_DIGESTS),
                         ids=lambda w: "w" + "-".join(map(str, w)))
def test_build_diagram_bvd_digest_wide_schedules(widths):
    d = build_diagram(4, WidenSchedule(widths))
    sizes, digest = WIDE_BVD_DIGESTS[widths]
    assert d.level_sizes == sizes
    assert hashlib.sha256(serialize(d).encode("utf-8")).hexdigest() == digest


def test_build_diagram_builds_each_marker_table_once(monkeypatch):
    # rows up to 6 fit one default chunk; in 37-word chunks the tables of
    # rows 3-6 (2^7 to 2^16 words) cross chunk boundaries
    rows, sizes = [], []
    marked_words = _kernels.marked_words

    def counted(length, k):
        rows.append(k)
        for words, marks in marked_words(length, k):
            sizes.append(words.size)
            yield words, marks

    monkeypatch.setattr(_kernels, "marked_words", counted)
    monkeypatch.setattr(_kernels, "_CHUNK", 37)
    _marker_table.cache_clear()
    try:
        text = serialize(build_diagram(6, W1))
    finally:
        _marker_table.cache_clear()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == BVD_DIGESTS[6]
    assert sorted(rows) == [1, 2, 3, 4, 5, 6]
    assert max(sizes) <= 37


def test_fullshift_extremal_prefix_counts(fullshift3):
    from bratteli.vershik import maximal_prefixes, minimal_prefixes
    assert len(maximal_prefixes(fullshift3, 2)) == 11
    assert len(minimal_prefixes(fullshift3, 2)) == 11
    assert len(maximal_prefixes(fullshift3, 3)) == 15


def test_path_to_window_depth_one(fullshift3):
    for p in all_prefixes(fullshift3, 1):
        w = path_to_window(fullshift3, p)
        assert len(w.rows) == 1
        assert w.symbol_at(1, 0) in "01"
        assert w.core_offsets == (0,)


def test_path_to_window_consistency(fullshift3):
    for p in all_prefixes(fullshift3, 3):
        w = path_to_window(fullshift3, p)
        # origin inside the deepest core
        deep_left = w.core_offsets[-1]
        deep = trapezoid_from_text(fullshift3.label(3, p.edges[-1].source))
        assert deep_left <= 0 <= deep_left + deep.core_width - 1
        # rows 1..2 of the window equal the level-2 trapezoid placed at its
        # occurrence offset
        mid = trapezoid_from_text(fullshift3.label(2, p.edges[1].source))
        mid_left = w.core_offsets[1]
        for r in (1, 2):
            row = mid.row(r)
            for i, sym in enumerate(row.symbols):
                assert w.symbol_at(r, mid_left + row.offset + i) == sym
            for m in row.markers:
                assert w.marker_at(r, mid_left + m) is True


def test_path_to_window_rejects_empty_and_unlabeled_prefixes(fullshift3):
    with pytest.raises(ValueError, match="^empty prefix determines no window$"):
        path_to_window(fullshift3, empty_prefix(fullshift3))
    with pytest.raises(ValueError, match="^vertex 0 of V_1 carries no trapezoid label$"):
        path_to_window(odometer(2), all_prefixes(odometer(2), 2)[0])
    with pytest.raises(ValueError, match="^canonical trapezoid text must start with a T line$"):
        path_to_window(example_7_2(2), all_prefixes(example_7_2(2), 2)[0])


def test_path_to_window_rejects_order_past_the_occurrences():
    d = build_diagram(2, W1)
    v = next(v for v in range(d.level_size(2))
             if trapezoid_from_text(d.label(2, v)).core_width == 1)
    extra = Edge(2, v, 1, 0)
    bad = OrderedBratteliDiagram(d.level_sizes, d.edges_at(1) + d.edges_at(2) + (extra,),
                                 d.labels)
    assert bad.validate() == []
    p = empty_prefix(bad).extend(Edge(1, 0, 0, 0)).extend(extra)
    with pytest.raises(ValueError, match="^edge order 1 exceeds the 1 internal occurrences "
                                         "of the level-2 trapezoid$"):
        path_to_window(bad, p)


def test_path_to_window_rejects_labels_of_another_level(fullshift3):
    labels = {**fullshift3.labels,
              **{(3, v): fullshift3.label(2, v % 11) for v in range(15)}}
    bad = OrderedBratteliDiagram(fullshift3.level_sizes,
                                 [e for k in (1, 2, 3) for e in fullshift3.edges_at(k)], labels)
    for p in all_prefixes(bad, 3):
        with pytest.raises(ValueError, match=f"^vertex {p.source[1]} of V_3 carries a "
                                             "level-2 label$"):
            path_to_window(bad, p)


def test_path_to_window_rejects_swapped_labels(fullshift3):
    bvd = serialize(fullshift3)
    v0, v1 = r'LABEL 1 0 "T 1 1\nR 1 0 0 M 0,1"', r'LABEL 1 1 "T 1 1\nR 1 0 1 M 0,1"'
    assert v0 in bvd and v1 in bvd
    swapped = deserialize(bvd.replace(v0, v0[:10] + v1[10:]).replace(v1, v1[:10] + v0[10:]))
    prefixes = all_prefixes(swapped, 3)
    assert len(prefixes) == 29
    for p in prefixes:
        with pytest.raises(ValueError, match=r"^label inconsistency at level 1: occurrence "
                                             r"[01] of the parent trapezoid does not match "
                                             r"the vertex label$"):
            path_to_window(swapped, p)


@pytest.mark.parametrize("levels, pairs", [(3, 14), (4, 44), (5, 106)])
def test_successor_window_shift(levels, pairs):
    d = build_diagram(levels, W1)
    checked = 0
    for p in all_prefixes(d, levels):
        if is_maximal_prefix(p):
            continue
        mism = window_shift_mismatches(path_to_window(d, p), path_to_window(d, successor(p)))
        assert mism == [], (str(p), mism)
        checked += 1
    assert checked == pairs


def test_path_to_window_round_tripped_diagram(fullshift3):
    d2 = deserialize(serialize(fullshift3))
    p = all_prefixes(d2, 3)[0]
    w = path_to_window(d2, p)
    assert len(w.rows) == 3


def test_successor_matches_brute_force_on_fullshift(fullshift3):
    from conftest import enumerate_prefixes, inverse_lex_key
    for depth in (1, 2, 3):
        classes = {}
        for p in enumerate_prefixes(fullshift3, depth):
            classes.setdefault(p.edges[-1].source, []).append(p)
        for group in classes.values():
            group.sort(key=inverse_lex_key)
            for p, expected in zip(group, group[1:] + [None]):
                assert successor(p) == expected, str(p)


def test_orbit_depth2_truth(fullshift3):
    # a core-width-2 source class has exactly two prefixes; the orbit of its
    # minimal prefix visits both, then exhausts
    from bratteli.vershik import minimal_prefixes, orbit
    two_wide = [p for p in minimal_prefixes(fullshift3, 2)
                if len(fullshift3.edges_from(2, p.edges[-1].source)) == 2]
    assert two_wide
    for p in two_wide:
        seq = orbit(p, 3)
        assert len(seq) == 2
        assert len(set(seq)) == 2
        assert successor(seq[-1]) is None


def test_wider_schedule_full_widening():
    # widths (1, 2) is the full widening for three levels: level 2 is
    # unchanged (only w=1 applies) while level 3 grows well past 50
    sched = WidenSchedule((1, 2))
    assert len(enumerate_level(2, sched)) == 11
    d = build_diagram(3, sched)
    assert d.level_sizes == (1, 2, 11, 87)
    assert d.validate() == []
    traps3 = [trapezoid_from_text(d.label(3, v)) for v in range(87)]
    for t in traps3:
        row2 = t.row(2)
        assert row2.offset < 0  # genuinely widened beyond the core
        assert len(t.row(1).symbols) >= len(row2.symbols)
    # the successor/left-shift law is schedule-independent
    for p in all_prefixes(d, 3):
        if is_maximal_prefix(p):
            continue
        mism = window_shift_mismatches(path_to_window(d, p, sched),
                                       path_to_window(d, successor(p), sched))
        assert mism == []
