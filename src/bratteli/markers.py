"""Marker rows on binary words from the domination rule, for the
``markers`` command.

A marker at position ``n`` sits on the left boundary of cell ``n``.  Row
``k`` of a word carries a marker at ``n`` exactly when the length-``k``
block starting at ``n`` dominates every block starting in some window of
``k`` consecutive positions that contains ``n``.  On a finite word the rule
is decided only on a sub-range of positions; that determined range is
carried explicitly everywhere.
"""

from __future__ import annotations

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
    return _mark_row(word, k)


def _determined(length: int, k: int) -> tuple[int, int]:
    lo, hi = determined_range(length, k)
    if lo > hi:
        raise ValueError(f"word of length {length} too short for row {k}: "
                         "no position is determined")
    return lo, hi


def _mark_row(word: str, k: int) -> MarkerRow:
    lo, hi = _determined(len(word), k)
    blocks = [word[j:j + k] for j in range(len(word) - k + 1)]
    # domination is string order on equal-length blocks: rank them by it
    rank = {block: i for i, block in enumerate(sorted(set(blocks)))}
    marks = window_max_marks(np.array([rank[block] for block in blocks])[:, None], k)[:, 0]
    return MarkerRow(frozenset((lo + np.flatnonzero(marks)).tolist()), lo, hi)


@dataclass(frozen=True)
class MarkedWord:
    """A binary word with its domination-rule rows 1..K."""

    rows: tuple[MarkerRow, ...]
    word: str

    @property
    def depth(self) -> int:
        return len(self.rows)

    def row(self, k: int) -> MarkerRow:
        if not 1 <= k <= len(self.rows):
            raise IndexError(f"row {k} outside 1..{len(self.rows)}")
        return self.rows[k - 1]


def mark_all_rows(word: str, rows: int) -> MarkedWord:
    """Compute rows 1..``rows`` independently from the word.

    Nesting of row k+1 markers into row k then holds as a consequence of the
    rule, not by construction.
    """
    if rows < 1:
        raise ValueError(f"need at least one row, got {rows}")
    _check_word(word)
    # row k is determined somewhere iff 3k <= len(word) + 2: fail on the
    # first row that is not before marking any
    _determined(len(word), min(rows, (len(word) + 2) // 3 + 1))
    return MarkedWord(tuple(_mark_row(word, k) for k in range(1, rows + 1)), word)


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
