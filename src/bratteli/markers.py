"""Marker rows on binary words from the domination rule, plus generic
marker-row manipulations (uniform shift, forbidden-zone fill, upward
adjustment).

A marker at position ``n`` sits on the left boundary of cell ``n``.  Row
``k`` of a word carries a marker at ``n`` exactly when the length-``k``
block starting at ``n`` dominates every block starting in some window of
``k`` consecutive positions that contains ``n``.  On a finite word the rule
is decided only on a sub-range of positions; that determined range is
carried explicitly everywhere.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from ._kernels import determined_range, window_max_marks


def _check_word(word: str) -> None:
    if not set(word) <= {"0", "1"}:
        bad = sorted(set(word) - {"0", "1"})
        raise ValueError(f"word must be over {{0,1}}, found {bad}")


def dominates(a: str, b: str) -> bool:
    """True iff ``a == b`` or ``a`` has 1 where they first differ."""
    if len(a) != len(b):
        raise ValueError(f"blocks must have equal length, got {len(a)} and {len(b)}")
    if not a:
        raise ValueError("blocks must be non-empty")
    for x, y in zip(a, b):
        if x != y:
            return x == "1"
    return True


@dataclass(frozen=True)
class MarkerRow:
    """Marker positions of one row, valid exactly on ``[lo, hi]``."""

    positions: frozenset[int]
    lo: int
    hi: int

    def __post_init__(self):
        if any(not self.lo <= p <= self.hi for p in self.positions):
            raise ValueError("marker positions outside the declared range")

    @property
    def determined_range(self) -> tuple[int, int]:
        return (self.lo, self.hi)


def row_markers(word: str, k: int) -> MarkerRow:
    """Evaluate the domination rule for row ``k`` on every determined position."""
    _check_word(word)
    if k < 1:
        raise ValueError(f"row index must be >= 1, got {k}")
    lo, hi = determined_range(len(word), k)
    if lo > hi:
        raise ValueError(f"word of length {len(word)} too short for row {k}: "
                         "no position is determined")
    # object dtype once the block values outgrow uint64
    values = np.array([int(word[j:j + k], 2) for j in range(len(word) - k + 1)],
                      dtype=np.min_scalar_type((1 << k) - 1))
    marks = window_max_marks(values[:, None], k)[:, 0]
    return MarkerRow(frozenset((lo + np.flatnonzero(marks)).tolist()), lo, hi)


@dataclass(frozen=True)
class GenericMarkerRows:
    """Per-row marker sets on explicit index ranges; inputs and outputs of
    the shift / fill / upward-adjustment pipeline.  Replacing a row gives
    plain rows, even for a marked word: the row is no longer its rule row."""

    rows: tuple[MarkerRow, ...]

    @property
    def depth(self) -> int:
        return len(self.rows)

    def row(self, k: int) -> MarkerRow:
        if not 1 <= k <= len(self.rows):
            raise IndexError(f"row {k} outside 1..{len(self.rows)}")
        return self.rows[k - 1]

    def replace_row(self, k: int, row: MarkerRow) -> "GenericMarkerRows":
        rows = list(self.rows)
        rows[k - 1] = row
        return GenericMarkerRows(tuple(rows))


@dataclass(frozen=True)
class MarkedWord(GenericMarkerRows):
    """A binary word with its domination-rule rows 1..K."""

    word: str


def mark_all_rows(word: str, rows: int) -> MarkedWord:
    """Compute rows 1..``rows`` independently from the word.

    Nesting of row k+1 markers into row k then holds as a consequence of the
    rule, not by construction.
    """
    if rows < 1:
        raise ValueError(f"need at least one row, got {rows}")
    return MarkedWord(tuple(row_markers(word, k) for k in range(1, rows + 1)), word)


def infinite_order_positions(mw: GenericMarkerRows, rows: int | None = None) -> frozenset[int]:
    """Positions carrying a marker in every row 1..``rows``, restricted to
    the intersection of the determined ranges."""
    if rows is None:
        rows = mw.depth
    if not 1 <= rows <= mw.depth:
        raise ValueError(f"rows {rows} outside 1..{mw.depth}")
    lo = max(mw.row(k).lo for k in range(1, rows + 1))
    hi = min(mw.row(k).hi for k in range(1, rows + 1))
    common = set(range(lo, hi + 1))
    for k in range(1, rows + 1):
        common &= mw.row(k).positions
    return frozenset(common)


def render_marked_word(mw: MarkedWord) -> str:
    """One line per row, row 1 on top.  Each cell is two characters: a '|'
    (marker on its left boundary) or ' ', then the symbol; undetermined
    cells render as ' ?'."""
    lines = []
    for k in range(1, mw.depth + 1):
        row = mw.row(k)
        cells = []
        for n in range(len(mw.word)):
            if row.lo <= n <= row.hi:
                cells.append(("|" if n in row.positions else " ") + mw.word[n])
            else:
                cells.append(" ?")
        lines.append("".join(cells).rstrip())
    return "\n".join(lines)


def shift_row(rows: GenericMarkerRows, k: int, delta: int) -> GenericMarkerRows:
    """Translate row ``k``'s markers by ``delta`` (negative = left).

    The row's valid range shrinks by ``|delta|`` on the side markers moved
    away from: a translated position is kept only where its pre-image was
    inside the old range and it still lies inside the declared window.
    """
    r = rows.row(k)
    lo = max(r.lo, r.lo + delta)
    hi = min(r.hi, r.hi + delta)
    moved = frozenset(p + delta for p in r.positions if lo <= p + delta <= hi)
    return rows.replace_row(k, MarkerRow(moved, lo, hi))


def fill_outside_forbidden(rows: GenericMarkerRows, k: int, n: int) -> GenericMarkerRows:
    """Add markers to row ``k`` at every in-range position outside the
    forbidden zone (the ``n-1`` positions directly right of each existing
    marker).  Existing markers are always retained.  Afterwards consecutive
    markers are at most ``n`` apart in the interior of the range."""
    if n < 1:
        raise ValueError(f"separation parameter must be >= 1, got {n}")
    r = rows.row(k)
    forbidden = set()
    for m in r.positions:
        forbidden.update(range(m + 1, m + n))
    new = set(r.positions)
    for p in range(r.lo, r.hi + 1):
        if p not in forbidden:
            new.add(p)
    return rows.replace_row(k, MarkerRow(frozenset(new), r.lo, r.hi))


def upward_adjust(rows: GenericMarkerRows) -> tuple[GenericMarkerRows, tuple[tuple[int, int], ...]]:
    """Move each row-(k+1) marker left onto the nearest adjusted row-k marker.

    Rows are processed bottom-up from row 1, which is never moved; row k+1
    is matched against the already-adjusted row k.  Several markers may land
    on one position.  A marker with no row-k marker to its left inside the
    range is dropped; dropped markers are returned as ``(row, position)``
    pairs.
    """
    if rows.depth == 0:
        return rows, ()
    adjusted = [rows.row(1)]
    dropped: list[tuple[int, int]] = []
    for k in range(2, rows.depth + 1):
        below = adjusted[-1]
        cur = rows.row(k)
        anchors = sorted(below.positions)
        out = set()
        for p in sorted(cur.positions):
            i = bisect_right(anchors, p)  # anchors[i - 1] is the nearest one <= p
            if i and anchors[i - 1] >= cur.lo:
                out.add(anchors[i - 1])
            else:
                dropped.append((k, p))
        adjusted.append(MarkerRow(frozenset(out), cur.lo, cur.hi))
    return GenericMarkerRows(tuple(adjusted)), tuple(dropped)
