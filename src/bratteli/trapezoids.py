"""Trapezoid extraction from marked words and assembly of the full-shift
diagram.

A k-block is the segment between two consecutive row-k markers (both
boundary markers included).  A k-trapezoid is the rows-1..k column over a
k-block (its *core*) widened, for every schedule width w < k in decreasing
order, by one w-block rectangle on each side.  Vertices of the constructed
diagram are the trapezoids occurring anywhere in the binary full shift;
edges record the internal occurrences of level-k trapezoids inside level-
(k+1) trapezoids, ordered left to right (order 0 = leftmost).
"""

from __future__ import annotations

import functools
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import compress
from typing import TYPE_CHECKING

import numpy as np

from . import _kernels
from .diagram import Edge, OrderedBratteliDiagram, PathPrefix, _ints

if TYPE_CHECKING:  # annotations only: building the diagram never marks a word
    from .markers import GenericMarkerRows, MarkedWord


class InsufficientWindowError(ValueError):
    """The available window cannot determine the requested configuration."""


@dataclass(frozen=True)
class WidenSchedule:
    """Rectangle widths used to widen cores into trapezoids."""

    widths: tuple[int, ...] = (1,)

    def __post_init__(self):
        w = self.widths
        if not w:
            raise ValueError("schedule needs at least one width")
        if any(x < 1 for x in w):
            raise ValueError(f"widths must be >= 1, got {list(w)}")
        if any(a >= b for a, b in zip(w, w[1:])):
            raise ValueError(f"widths must be strictly increasing, got {list(w)}")

    def widths_below(self, level: int) -> tuple[int, ...]:
        return tuple(x for x in self.widths if x < level)

    @classmethod
    def parse(cls, text: str) -> "WidenSchedule":
        try:
            widths = tuple(_ints(text.split(",")))
        except ValueError:
            raise ValueError(f"malformed widths list {text!r}") from None
        return cls(widths)


@dataclass(frozen=True)
class TrapezoidRow:
    """One row of a trapezoid: cells starting at ``offset`` (core-left = 0)
    and the marker positions on the boundaries of that extent."""

    offset: int
    symbols: str
    markers: frozenset[int]

    def symbol_at(self, p: int) -> str | None:
        """The symbol of cell ``p``; None outside ``[offset, offset + len(symbols))``."""
        if self.offset <= p < self.offset + len(self.symbols):
            return self.symbols[p - self.offset]
        return None

    def marker_at(self, p: int) -> bool | None:
        """Whether a marker sits at ``p``; None outside ``[offset, offset + len(symbols)]``."""
        if self.offset <= p <= self.offset + len(self.symbols):
            return p in self.markers
        return None


@dataclass(frozen=True)
class Trapezoid:
    """Translation-normalized multi-row configuration over a core block.

    ``rows[r-1]`` is row r; row ``level`` is the core row, whose left
    boundary marker sits at offset 0.  Equality and hashing use the full
    content.
    """

    level: int
    core_width: int
    rows: tuple[TrapezoidRow, ...]

    def __post_init__(self):
        if self.level < 1:
            raise ValueError(f"level must be >= 1, got {self.level}")
        if not 1 <= self.core_width <= self.level:
            raise ValueError(f"core width {self.core_width} outside 1..{self.level}")
        if len(self.rows) != self.level:
            raise ValueError(f"expected {self.level} rows, got {len(self.rows)}")
        deep = self.rows[-1]
        if deep.offset != 0 or len(deep.symbols) != self.core_width:
            raise ValueError("core row must span exactly the core")
        if not {0, self.core_width} <= deep.markers:
            raise ValueError("core row must carry both boundary markers")
        for r, row in enumerate(self.rows, start=1):
            if set(row.symbols) - {"0", "1"}:
                raise ValueError("symbols must be over {0,1}")
            if any(not row.offset <= p <= row.offset + len(row.symbols) for p in row.markers):
                raise ValueError(f"row {r} markers outside its extent")
        for shallow, deeper in zip(self.rows, self.rows[1:]):
            if (deeper.offset < shallow.offset
                    or deeper.offset + len(deeper.symbols) > shallow.offset + len(shallow.symbols)):
                raise ValueError("row extents must nest downward")
            if not deeper.markers <= shallow.markers:
                raise ValueError("marker nesting violated between adjacent rows")

    def row(self, r: int) -> TrapezoidRow:
        if not 1 <= r <= self.level:
            raise IndexError(f"row {r} outside 1..{self.level}")
        return self.rows[r - 1]


def canonical_text(t: Trapezoid) -> str:
    """Canonical serialization used for hashing order and vertex labels."""
    lines = [f"T {t.level} {t.core_width}"]
    for r, row in enumerate(t.rows, start=1):
        marks = ",".join(str(p) for p in sorted(row.markers))
        lines.append(f"R {r} {row.offset} {row.symbols} M {marks}")
    return "\n".join(lines)


def trapezoid_from_text(text: str) -> Trapezoid:
    lines = [ln for ln in text.split("\n") if ln.strip()]
    if not lines or not lines[0].startswith("T "):
        raise ValueError("canonical trapezoid text must start with a T line")
    head = lines[0].split()
    if len(head) != 3:
        raise ValueError(f"malformed T line {lines[0]!r}")
    try:
        level, core_width = _ints(head[1:])
    except ValueError:
        raise ValueError(f"malformed T line {lines[0]!r}") from None
    rows = []
    for r, ln in enumerate(lines[1:], start=1):
        parts = ln.split()
        if len(parts) not in (5, 6) or parts[:2] != ["R", str(r)] or parts[4] != "M":
            raise ValueError(f"malformed R line {ln!r}")
        marks = parts[5].split(",") if len(parts) == 6 else []
        try:
            offset, *marks = _ints([parts[2], *marks])
        except ValueError:
            raise ValueError(f"malformed R line {ln!r}") from None
        # canonical_text writes the markers ascending, each once
        if marks != sorted(set(marks)):
            raise ValueError(f"malformed R line {ln!r}")
        rows.append(TrapezoidRow(offset, parts[3], frozenset(marks)))
    return Trapezoid(level, core_width, tuple(rows))


def render_trapezoid(t: Trapezoid) -> str:
    """Pictorial form matching the published listings: rows top-down, each
    cell preceded by '|' where a marker is drawn; only markers on the core
    range ``[0, core_width]`` are drawn."""
    base = t.rows[0].offset
    lines = []
    for row in t.rows:
        last = row.offset + len(row.symbols)
        buf = [" "] * (2 * (last - base) + 1)
        for i, sym in enumerate(row.symbols):
            p = row.offset + i
            if p in row.markers and 0 <= p <= t.core_width:
                buf[2 * (p - base)] = "|"
            buf[2 * (p - base) + 1] = sym
        if last in row.markers and 0 <= last <= t.core_width:
            buf[2 * (last - base)] = "|"
        lines.append("".join(buf))
    while all(ln.startswith(" ") for ln in lines if ln.strip()):
        lines = [ln[1:] for ln in lines]
    return "\n".join(ln.rstrip() for ln in lines)


# --- extraction ------------------------------------------------------------


def _is_marker(rows: tuple[TrapezoidRow, ...], r: int, p: int) -> bool:
    bit = rows[r - 1].marker_at(p)
    if bit is None:
        raise InsufficientWindowError(f"row {r} marker bit at {p} is outside the known window")
    return bit


def _next_marker(rows: tuple[TrapezoidRow, ...], r: int, p: int, step: int) -> int:
    """The nearest row-``r`` marker past ``p`` in direction ``step`` (+1 or -1)."""
    p += step
    while not _is_marker(rows, r, p):
        p += step
    return p


def _extract(rows: tuple[TrapezoidRow, ...], start: int, end: int, level: int,
             schedule: WidenSchedule) -> Trapezoid:
    """Extract the level-``level`` trapezoid whose core is the block
    ``[start, end]``, normalized to core-left = 0.  ``rows[r-1]`` is what
    is known of row r; reading outside it raises :class:`InsufficientWindowError`."""
    if end - start < 1:
        raise ValueError(f"empty core block ({start}, {end})")
    if len(rows) < level:
        raise ValueError(f"{len(rows)} known rows, need {level}")
    if not _is_marker(rows, level, start) or not _is_marker(rows, level, end):
        raise ValueError(f"block ends ({start}, {end}) are not row-{level} markers")
    if _next_marker(rows, level, start, 1) != end:
        raise ValueError(f"block ({start}, {end}) contains an interior row-{level} marker")
    # ends[r - 1] holds the markers at the two ends of row r's extent
    ends = [[start, end] for _ in range(level)]
    for w in sorted(schedule.widths_below(level), reverse=True):
        for side, step in ((0, -1), (1, 1)):
            edge = ends[w - 1][side]
            if not _is_marker(rows, w, edge):
                raise ValueError(f"widening boundary {edge} is not a row-{w} marker")
            p = _next_marker(rows, w, edge, step)
            for r in range(w):
                ends[r][side] = p
    out = []
    for r, ((a, b), row) in enumerate(zip(ends, rows), start=1):
        # the marker extent is the symbol extent plus one boundary, so both
        # ends being known makes every cell and marker in between known
        _is_marker(rows, r, a)
        _is_marker(rows, r, b)
        marks = frozenset(p - start for p in row.markers if a <= p <= b)
        out.append(TrapezoidRow(a - start, row.symbols[a - row.offset:b - row.offset], marks))
    return Trapezoid(level, end - start, tuple(out))


def k_blocks(mw: GenericMarkerRows, k: int) -> list[tuple[int, int]]:
    """Consecutive row-k marker pairs inside the determined range."""
    positions = sorted(mw.row(k).positions)
    if len(positions) < 2:
        raise InsufficientWindowError(
            f"fewer than two determined row-{k} markers (got {len(positions)})")
    return list(zip(positions, positions[1:]))


def trapezoid_at(mw: MarkedWord, block: tuple[int, int], k: int,
                 schedule: WidenSchedule = WidenSchedule()) -> Trapezoid:
    """The level-k trapezoid over one k-block of a marked word."""
    # each marker row is known over its determined range
    rows = tuple(TrapezoidRow(r.lo, mw.word[r.lo:r.hi], r.positions) for r in mw.rows[:k])
    return _extract(rows, block[0], block[1], k, schedule)


def dependence_bound(k: int, schedule: WidenSchedule = WidenSchedule()) -> tuple[int, int, int]:
    """``(pad_left, pad_right, min_word_length)`` of the reference scan's
    level-k windows.

    ``_kernels.enumerate_block_window_keys`` marks every binary window of
    ``pad_left`` cells, a core and ``pad_right`` cells, and keeps those whose
    core is a block.  The window contains every cell a level-k span reads
    and more (:func:`longest_read_window` is the exact count), so it is the
    reference scan's own outer window: enumeration and the CLI's
    ``--word-length`` check do not use it.
    """
    margin = sum(schedule.widths_below(k))
    pad_left = margin + k - 1
    pad_right = margin + 2 * k - 1
    return pad_left, pad_right, k + pad_left + pad_right + 1


@functools.cache
def _marker_table(r: int) -> np.ndarray:
    """Row r's marker bit at cell ``r - 1`` (bit ``2r - 2`` of the int; cell 0
    is the top bit), the one position a word of ``3r - 2`` cells decides, for
    every such int word; shared by all levels and core widths."""
    table = _kernels.marker_rows(np.arange(1 << 3 * r - 2), 3 * r - 2, r)[0]
    table.flags.writeable = False
    return table


def _read_table(k: int, core_width: int, schedule: WidenSchedule
                ) -> tuple[list[range], list[int], int, int]:
    """``(reads, starts, first, last)``: the cells and marker bits a level-k
    span with core ``[0, core_width]`` reads, which is all :func:`_extract`
    reads of the rows around that core.

    ``reads[r]`` is row r's range of marker bits, ``[-m_r, core_width +
    m_r]`` with ``m_r`` the sum of the widths w >= r below k, and
    ``reads[0]`` the cells under row 1's.  Widening by w moves only rows
    1..w, each end to the next row-w marker, at most w cells away, so row r
    moves at most ``m_r`` cells and row k's range is the core.  ``starts[r]``
    is range r's first column in a span's bit vector.  Row r's bit at p is
    decided by cells ``p - r + 1 .. p + 2r - 2``, so the span is a function
    of the cells from ``first``, read by the first bit of some row, to
    ``last``, which decides the last bit.
    """
    reads = [range(-m, core_width + m + 1) for m in (
        sum(w for w in schedule.widths_below(k) if w >= r) for r in range(1, k + 1))]
    reads.insert(0, reads[0][:-1])
    starts = np.cumsum([0, *map(len, reads)]).tolist()  # each range's first bit column
    first = min(rng.start - max(r - 1, 0) for r, rng in enumerate(reads))  # the first cell read
    last = max(rng[-1] + max(2 * r - 2, 0) for r, rng in enumerate(reads))  # decides the last bit
    return reads, starts, first, last


def longest_read_window(k: int, schedule: WidenSchedule) -> int:
    """The most cells a level-k span reads: ``last - first + 1`` of
    :func:`_read_table`, the longest over core widths 1..k.  The CLI
    refuses a ``--word-length`` below it.

    Each of the table's ranges starts at the same cell for every core width
    and ends ``core_width`` cells right of a fixed one, so ``first`` and
    ``last - core_width`` do not depend on the core width: the widest core,
    ``k``, reads the longest window."""
    _, _, first, last = _read_table(k, k, schedule)
    return last - first + 1


def _grow_spans(k: int, core_width: int, schedule: WidenSchedule
                ) -> tuple[Iterator[tuple[TrapezoidRow, ...]], int]:
    """The distinct spans of the level-k blocks with core ``[0, core_width]``,
    as the rows :func:`_extract` reads, and the most states held at once.

    A span is the bits of :func:`_read_table`'s ``reads`` and a function of
    its cells ``first`` to ``last``, so growth runs over those cells alone.
    A state is a partial window, kept as its span bits and last ``3k - 3``
    cells.  Adding cell ``t`` both ways decides cell t and each row r's bit
    at ``t - 2r + 2`` from the last ``3r - 2`` cells; a bit in its row's
    range joins the span, and a state whose row-k bits are not 1 at both
    core ends and 0 inside is dropped.  A bit decided by a later cell
    ``t'`` reads cells from ``t' - 3r + 3 > t - 3k + 3`` on, so states with
    equal span bits and last ``3k - 3`` cells have the same completions
    (one follower set of the sliding block code that marks the rows) and
    are merged.  Once the last bit is decided, the spans left are exactly
    those of the core-width blocks of all words.
    """
    reads, starts, first, last = _read_table(k, core_width, schedule)
    spans = np.zeros((1, -(-starts[-1] // 8)), dtype=np.uint8)  # span bits, packed
    cells = np.zeros(1, dtype=np.int64)
    peak = 1
    for t in range(first, last + 1):
        spans = np.concatenate([spans, spans])
        cells = np.concatenate([cells << 1, cells << 1 | 1])
        peak = max(peak, len(cells))
        for r, rng in enumerate(reads):
            p = t - max(2 * r - 2, 0)  # row r's bit that cell t decides (row 0: the cell)
            if p in rng:
                bit = _marker_table(r)[cells & (1 << 3 * r - 2) - 1] if r else cells & 1
                col = starts[r] + p - rng.start
                spans[:, col >> 3] |= bit.astype(np.uint8) << np.uint8(7 - (col & 7))
                if r == k:  # the last row read, so every bit of cell t is set
                    keep = bit if p in (rng[0], rng[-1]) else ~bit
                    spans, cells = spans[keep], cells[keep]
        # each state still holds all its t - first + 1 cells, so none merge
        if t - first < 3 * k - 3:
            continue
        # after the last cell only the span bits tell states apart
        cells &= (1 << 3 * k - 3) - 1 if t < last else 0
        key = np.hstack([spans, cells.view(np.uint8).reshape(-1, 8)])
        distinct = np.unique(key.view(np.dtype((np.void, key.shape[1]))).ravel(),
                             return_index=True)[1]
        spans, cells = spans[distinct], cells[distinct]
    spans = np.unpackbits(spans, axis=1, count=starts[-1])
    return (_span_rows(span, reads, starts) for span in spans), peak


def _span_rows(span: np.ndarray, reads: list[range], starts: list[int]) -> tuple[TrapezoidRow, ...]:
    """The rows of a span: row r at ``reads[r].start``, with the cells under
    its range and the bits from column ``starts[r]`` as its markers."""
    span, a = span.tolist(), reads[0].start
    cells = "".join(map(str, span[:len(reads[0])]))
    return tuple(TrapezoidRow(rng.start, cells[rng.start - a:rng.stop - 1 - a], frozenset(
        compress(rng, span[starts[r]:starts[r + 1]]))) for r, rng in enumerate(reads) if r)


def enumerate_level(k: int, schedule: WidenSchedule = WidenSchedule()) -> tuple[Trapezoid, ...]:
    """All level-k trapezoids occurring in the binary full shift, a set
    fixed by k and the schedule alone.

    Any trapezoid is a function of its span, the rows extraction reads
    around its core, so extracting one trapezoid per span of a k-block is
    complete.  Core widths stop at k because determined row-k markers are
    at most k apart: the argmax of any k-window of block starts is a
    marker.  Each distinct :func:`_grow_spans` span is extracted at the
    core ``[0, cw]``, from its rows alone, so a read outside them raises.
    Result is sorted by canonical serialization, which fixes vertex index
    assignment.
    """
    if k < 1:
        raise ValueError(f"level must be >= 1, got {k}")
    found = {_extract(rows, 0, cw, k, schedule)
             for cw in range(1, k + 1) for rows in _grow_spans(k, cw, schedule)[0]}
    return tuple(sorted(found, key=canonical_text))


def _core_blocks(trap: Trapezoid) -> list[tuple[int, int]]:
    """The row-(level-1) blocks of the core, left to right: block i is the occurrence
    that edge order i stands for.  Marker nesting puts both core ends among the cuts."""
    cuts = sorted(p for p in trap.row(trap.level - 1).markers if 0 <= p <= trap.core_width)
    return list(zip(cuts, cuts[1:]))


def decompose(trap: Trapezoid, level_set, schedule: WidenSchedule = WidenSchedule()
              ) -> tuple[list[Trapezoid], tuple[Trapezoid | None, Trapezoid | None]]:
    """Split a level-(k+1) trapezoid into its internal level-k trapezoids,
    listed left to right, plus the two external ones where the content
    window determines them (``None`` where it does not).

    Every internal trapezoid must belong to ``level_set`` (any container;
    pass a set or dict for O(1) lookups); a miss means the enumeration was
    incomplete.
    """
    if trap.level < 2:
        raise ValueError("level-1 trapezoids have no decomposition")
    k = trap.level - 1
    internal = [_extract(trap.rows, a, b, k, schedule) for a, b in _core_blocks(trap)]
    for t in internal:
        if t not in level_set:
            raise ValueError(
                f"internal trapezoid not found in the level-{k} set:\n{canonical_text(t)}")
    external: list[Trapezoid | None] = []
    for end, step in ((0, -1), (trap.core_width, 1)):
        try:
            p = _next_marker(trap.rows, k, end, step)
            external.append(_extract(trap.rows, min(p, end), max(p, end), k, schedule))
        except InsufficientWindowError:
            external.append(None)
    return internal, (external[0], external[1])


def build_diagram(levels: int, schedule: WidenSchedule = WidenSchedule()) -> OrderedBratteliDiagram:
    """The ordered diagram whose level-k vertices, for k = 1..levels, are
    all k-trapezoids of the binary full shift (:func:`enumerate_level`) and
    whose edges are internal occurrences (order 0 = leftmost).

    Vertex labels carry the canonical trapezoid text, so the diagram
    round-trips through BVD serialization with full geometric content.
    """
    if levels < 1:
        raise ValueError(f"need at least one level, got {levels}")
    level_traps = [enumerate_level(k, schedule) for k in range(1, levels + 1)]
    sizes = [1] + [len(ts) for ts in level_traps]
    labels = {}
    for k, ts in enumerate(level_traps, start=1):
        for i, t in enumerate(ts):
            labels[(k, i)] = canonical_text(t)
    edges = [Edge(1, i, 0, 0) for i in range(len(level_traps[0]))]
    for k in range(2, levels + 1):
        index = {t: i for i, t in enumerate(level_traps[k - 2])}
        for si, big in enumerate(level_traps[k - 1]):
            internal, _ = decompose(big, index, schedule)
            for occ, small in enumerate(internal):
                edges.append(Edge(k, si, occ, index[small]))
    return OrderedBratteliDiagram(sizes, edges, labels)


# --- path-to-window correspondence -----------------------------------------


@dataclass(frozen=True)
class ArrayWindow:
    """The portion of an array a path prefix determines.

    Rows are in coordinates where the distinguished origin cell is 0;
    ``core_offsets[k-1]`` is the core-left coordinate of the level-k
    trapezoid along the path.
    """

    rows: tuple[TrapezoidRow, ...]
    core_offsets: tuple[int, ...]

    @property
    def depth(self) -> int:
        return len(self.rows)

    def symbol_at(self, r: int, p: int) -> str | None:
        return self.rows[r - 1].symbol_at(p)

    def marker_at(self, r: int, p: int) -> bool | None:
        return self.rows[r - 1].marker_at(p)


def path_to_window(diagram: OrderedBratteliDiagram, prefix: PathPrefix,
                   schedule: WidenSchedule = WidenSchedule()) -> ArrayWindow:
    """Resolve a prefix of a trapezoid-labeled diagram into the array window
    it determines, with the origin cell at coordinate 0.

    The chain of internal-occurrence indices pins each level's trapezoid
    inside the next; the level-1 core cell is the origin.  Raises if the
    labels are inconsistent with the edge structure.
    """
    depth = prefix.depth
    if depth < 1:
        raise ValueError("empty prefix determines no window")
    traps = []
    for e in prefix.edges:
        text = diagram.label(e.level, e.source)
        if text is None:
            raise ValueError(f"vertex {e.source} of V_{e.level} carries no trapezoid label")
        t = trapezoid_from_text(text)
        if t.level != e.level:
            raise ValueError(f"vertex {e.source} of V_{e.level} carries a level-{t.level} label")
        traps.append(t)
    positions = {depth: 0}
    for k in range(depth, 1, -1):
        big = traps[k - 1]
        occ = prefix.edges[k - 1].order
        blocks = _core_blocks(big)
        if occ >= len(blocks):
            raise ValueError(f"edge order {occ} exceeds the {len(blocks)} internal "
                             f"occurrences of the level-{k} trapezoid")
        if _extract(big.rows, *blocks[occ], k - 1, schedule) != traps[k - 2]:
            raise ValueError(f"label inconsistency at level {k - 1}: occurrence {occ} of the "
                             "parent trapezoid does not match the vertex label")
        positions[k - 1] = positions[k] + blocks[occ][0]
    origin = positions[1]
    deep = traps[depth - 1]
    core_left = positions[depth] - origin
    assert core_left <= 0 <= core_left + deep.core_width - 1, "origin escaped the deepest core"
    rows = tuple(TrapezoidRow(row.offset - origin, row.symbols,
                              frozenset(m - origin for m in row.markers))
                 for row in deep.rows)
    return ArrayWindow(rows, tuple(positions[k] - origin for k in range(1, depth + 1)))


def window_shift_mismatches(before: ArrayWindow, after: ArrayWindow,
                            shift: int = 1) -> list[str]:
    """Cells/markers where ``after`` disagrees with ``before`` moved left by
    ``shift`` (i.e. ``after[r, p]`` vs ``before[r, p + shift]``), over the
    overlap of the two windows.  Empty list = perfect agreement."""
    problems = []
    for r, (brow, arow) in enumerate(zip(before.rows, after.rows), start=1):
        for p, a in enumerate(arow.symbols, arow.offset):
            b = brow.symbol_at(p + shift)
            if b is not None and a != b:
                problems.append(f"row {r} cell {p}: {a} != {b}")
        for p in range(arow.offset, arow.offset + len(arow.symbols) + 1):
            a = p in arow.markers
            b = brow.marker_at(p + shift)
            if b is not None and a != b:
                problems.append(f"row {r} marker {p}: {a} != {b}")
    return problems
