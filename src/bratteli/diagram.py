"""Finite ordered Bratteli diagrams: structure, validation and text formats.

A diagram is a level-structured multigraph.  Level 0 is a single root
vertex; an edge of ``E_k`` runs from a *source* in ``V_k`` to a *target* in
``V_{k-1}``, and the edges sharing a source are linearly ordered by their
``order`` values.  Everything here is a finite truncation: the diagram has
``depth`` levels below the root and paths are finite prefixes.
"""

from __future__ import annotations

import gc
import re
from bisect import bisect_left
from itertools import chain, groupby, repeat, takewhile
from operator import ge, itemgetter
from typing import Callable, Iterable, Mapping, NamedTuple


class BVDParseError(ValueError):
    """Malformed BVD text; carries the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class DiagramValidationError(ValueError):
    """A parsed diagram violates the structural axioms."""

    def __init__(self, violations: Iterable["Violation"]):
        self.violations = tuple(violations)
        super().__init__("; ".join(v.message for v in self.violations))


class Violation(NamedTuple):
    code: str
    message: str
    level: int | None = None
    vertex: int | None = None


class Edge(NamedTuple):
    """Edge of E_level: source in V_level, target in V_{level-1}.

    A named tuple, so an edge also compares equal to the plain tuple
    ``(level, source, order, target)``.
    """

    level: int
    source: int
    order: int
    target: int


_SOURCE = itemgetter(1)
_ORDER = itemgetter(2)
_TARGET = itemgetter(3)


def _runs(edges: tuple[Edge, ...], key: Callable[[Edge], int], n: int) -> list[tuple[Edge, ...]]:
    """Cut ``edges``, sorted by ``key``, into the run of each key value 0..n-1."""
    runs: list[tuple[Edge, ...]] = [()] * n
    for v, run in groupby(edges, key=key):
        runs[v] = tuple(run)
    return runs


class OrderedBratteliDiagram:
    """Immutable finite ordered Bratteli diagram.

    ``level_sizes`` gives ``|V_0|, ..., |V_K|``; ``edges`` is any iterable of
    :class:`Edge`; ``labels`` optionally attaches an opaque string payload to
    ``(level, vertex)`` pairs.  The constructor sorts each level's edges by
    ``(source, order)`` and raises ``ValueError`` for what its fan tables
    cannot hold: a negative level size, an edge level outside 1..K, an edge
    end outside its level, or a label off the diagram or not a ``str``.  The
    Bratteli axioms are left to :meth:`validate`.
    """

    def __init__(
        self,
        level_sizes: Iterable[int],
        edges: Iterable[Edge] = (),
        labels: Mapping[tuple[int, int], str] | None = None,
    ):
        self._sizes = tuple(int(n) for n in level_sizes)
        if not self._sizes:
            raise ValueError("a diagram needs at least the root level")
        for k, n in enumerate(self._sizes):
            if n < 0:
                raise ValueError(f"level {k} has negative size {n}")
        per_level: dict[int, list[Edge]] = {k: [] for k in range(1, len(self._sizes))}
        for e in edges:
            if e.level not in per_level:
                raise ValueError(f"edge level {e.level} outside 1..{self.depth}")
            per_level[e.level].append(e)
        # sorted by (source, order) as two stable sorts on int keys
        self._edges = tuple(tuple(sorted(sorted(per_level[k], key=_ORDER), key=_SOURCE))
                            for k in range(1, len(self._sizes)))
        self._labels = dict(labels or {})
        for (k, v), text in self._labels.items():
            if not (0 <= k < len(self._sizes) and 0 <= v < self._sizes[k]):
                raise ValueError(f"label on nonexistent vertex {v} of V_{k}")
            if not isinstance(text, str):
                raise ValueError(f"label of vertex {v} of V_{k} is not a str: {text!r}")
        # fan tables: _out[k - 1][v] holds the E_k edges sourced at v in V_k,
        # _in[k - 1][u] those targeting u in V_{k-1}
        self._out: list[list[tuple[Edge, ...]]] = []
        self._in: list[list[tuple[Edge, ...]]] = []
        for k, level_edges in enumerate(self._edges, start=1):
            # stable, so each in-fan keeps the (source, order) order
            by_target = tuple(sorted(level_edges, key=_TARGET))
            for ends, key, j, verb in ((level_edges, _SOURCE, k, "sources"),
                                       (by_target, _TARGET, k - 1, "targets")):
                # sorted by key, so the ends hold the least and greatest vertex
                for e in ends[:1] + ends[-1:]:
                    if not 0 <= key(e) < self._sizes[j]:
                        raise ValueError(
                            f"E_{k} edge {e} {verb} nonexistent vertex {key(e)} of V_{j}")
            self._out.append(_runs(level_edges, _SOURCE, self._sizes[k]))
            self._in.append(_runs(by_target, _TARGET, self._sizes[k - 1]))
        # Vershik move caches, filled by vershik._step: _moves[0] for the
        # successor, _moves[-1] for the predecessor
        self._moves: tuple[dict, dict] = ({}, {})

    @property
    def depth(self) -> int:
        return len(self._sizes) - 1

    @property
    def level_sizes(self) -> tuple[int, ...]:
        return self._sizes

    def level_size(self, level: int) -> int:
        if not 0 <= level <= self.depth:
            raise IndexError(f"level {level} outside 0..{self.depth}")
        return self._sizes[level]

    def edges_at(self, level: int) -> tuple[Edge, ...]:
        """All edges of E_level, sorted by ``(source, order)``."""
        if not 1 <= level <= self.depth:
            raise IndexError(f"edge level {level} outside 1..{self.depth}")
        return self._edges[level - 1]

    def edges_from(self, level: int, vertex: int) -> tuple[Edge, ...]:
        """Edges sourced at ``vertex`` in V_level, ascending by order."""
        if not 1 <= level < len(self._sizes):
            raise IndexError(f"edge level {level} outside 1..{self.depth}")
        if not 0 <= vertex < self._sizes[level]:
            raise IndexError(f"vertex {vertex} outside V_{level}")
        return self._out[level - 1][vertex]

    def edges_to(self, level: int, vertex: int) -> tuple[Edge, ...]:
        """Edges of E_level whose target is ``vertex`` in V_{level-1}."""
        if not 1 <= level < len(self._sizes):
            raise IndexError(f"edge level {level} outside 1..{self.depth}")
        if not 0 <= vertex < self._sizes[level - 1]:
            raise IndexError(f"vertex {vertex} outside V_{level - 1}")
        return self._in[level - 1][vertex]

    def edge_index(self, e: Edge) -> int:
        """Position of ``e`` within the serialized E_level list: bisect that
        list, sorted by ``(source, order)``, to the run of ``e``'s pair and
        find ``e`` from there.  Of two identical edges, which only an invalid
        diagram has, this is the first."""
        level_edges = self._edges[e[0] - 1] if 1 <= e[0] <= self.depth else ()
        # the list's edges share e's level, so it is sorted by their first three
        # fields, and the triple e[:3] sorts just before every edge starting with it
        try:
            return level_edges.index(e, bisect_left(level_edges, e[:3]))
        except ValueError:
            raise ValueError(f"edge {e} does not belong to this diagram") from None

    def label(self, level: int, vertex: int) -> str | None:
        return self._labels.get((level, vertex))

    @property
    def labels(self) -> dict[tuple[int, int], str]:
        return dict(self._labels)

    def validate(self) -> list[Violation]:
        """Check the Bratteli axioms, which the constructor leaves open: one
        entry per ``root-not-singleton``, ``uncovered-target``,
        ``uncovered-source`` or ``order-not-permutation`` violation."""
        out: list[Violation] = []
        if self._sizes[0] != 1:
            out.append(Violation("root-not-singleton",
                                 f"level 0 has {self._sizes[0]} vertices, expected 1", level=0))
        for k in range(1, self.depth + 1):
            fans = self._out[k - 1]
            for u, fan in enumerate(self._in[k - 1]):
                if not fan:
                    out.append(Violation("uncovered-target",
                                         f"vertex {u} of V_{k - 1} is the target of no E_{k} edge",
                                         level=k - 1, vertex=u))
            # a fan is sorted by order, so its orders are a permutation iff they
            # read 0, 1, ...; compared for the whole level at once first
            ranked = (list(map(_ORDER, chain.from_iterable(fans)))
                      == list(chain.from_iterable(map(range, map(len, fans)))))
            for v, fan in enumerate(fans):
                if not fan:
                    out.append(Violation("uncovered-source",
                                         f"vertex {v} of V_{k} sources no edge",
                                         level=k, vertex=v))
                elif not ranked:
                    orders = list(map(_ORDER, fan))
                    if orders != list(range(len(fan))):
                        out.append(Violation("order-not-permutation",
                                             f"edge orders at V_{k} vertex {v} are {orders}, "
                                             f"expected 0..{len(orders) - 1}",
                                             level=k, vertex=v))
        return out

    def structurally_equal(self, other: "OrderedBratteliDiagram") -> bool:
        return (self._sizes == other._sizes
                and self._edges == other._edges
                and self._labels == other._labels)

    def __repr__(self) -> str:
        return (f"OrderedBratteliDiagram(depth={self.depth}, "
                f"level_sizes={list(self._sizes)})")


class PathPrefix:
    """Finite path from the root: edges ``e_1..e_N`` with ``e_k`` in E_k.

    Adjacency runs upward: the target of ``e_1`` is the root and the target
    of ``e_{k+1}`` is the source of ``e_k``.

    An immutable value compared and hashed by ``(diagram, edges)``.  A
    slotted class, not a tuple, so it is no sequence and never equals one;
    not a dataclass, so importing the package does not load ``dataclasses``.
    """

    __slots__ = ("diagram", "edges")
    diagram: OrderedBratteliDiagram
    edges: tuple[Edge, ...]

    def __init__(self, diagram: OrderedBratteliDiagram, edges: tuple[Edge, ...] = ()):
        object.__setattr__(self, "diagram", diagram)
        object.__setattr__(self, "edges", edges)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.diagram, self.edges) == (other.diagram, other.edges)

    def __hash__(self) -> int:
        return hash((self.diagram, self.edges))

    def __repr__(self) -> str:
        return f"PathPrefix(edges={self.edges!r})"

    def __reduce__(self):
        return (PathPrefix, (self.diagram, self.edges))

    @property
    def depth(self) -> int:
        return len(self.edges)

    @property
    def source(self) -> tuple[int, int]:
        """``(level, vertex)`` at the deep end; the root for an empty prefix."""
        if not self.edges:
            return (0, 0)
        e = self.edges[-1]
        return (e.level, e.source)

    def extend(self, e: Edge) -> "PathPrefix":
        """Append ``e`` as the next deeper edge."""
        n = self.depth
        if n >= self.diagram.depth:
            raise ValueError(f"prefix of depth {n} exceeds truncation depth {self.diagram.depth}")
        if e.level != n + 1:
            raise ValueError(f"expected an E_{n + 1} edge, got level {e.level}")
        self.diagram.edge_index(e)  # membership check
        want = self.edges[-1].source if self.edges else 0
        if e.target != want:
            raise ValueError(f"adjacency violation: edge targets {e.target}, prefix source is {want}")
        return PathPrefix(self.diagram, self.edges + (e,))

    def indices(self) -> tuple[int, ...]:
        """Edge positions within the serialized per-level edge lists."""
        return tuple(self.diagram.edge_index(e) for e in self.edges)

    def __str__(self) -> str:
        return "/".join(str(i) for i in self.indices())


def empty_prefix(diagram: OrderedBratteliDiagram) -> PathPrefix:
    return PathPrefix(diagram, ())


def prefix_from_indices(diagram: OrderedBratteliDiagram, indices: Iterable[int]) -> PathPrefix:
    """Build a prefix from per-level edge-list positions, checking adjacency."""
    p = empty_prefix(diagram)
    for k, i in enumerate(indices, start=1):
        if k > diagram.depth:
            raise ValueError(f"path longer than diagram depth {diagram.depth}")
        level_edges = diagram.edges_at(k)
        if not 0 <= i < len(level_edges):
            raise ValueError(f"edge index {i} outside E_{k} (size {len(level_edges)})")
        p = p.extend(level_edges[i])
    return p


def parse_path_spec(diagram: OrderedBratteliDiagram, spec: str) -> PathPrefix:
    """Parse the ``i1/i2/.../iN`` path syntax."""
    parts = spec.strip().split("/")
    if parts == [""]:
        raise ValueError("empty path spec")
    try:
        indices = [int(x) for x in parts]
    except ValueError:
        raise ValueError(f"malformed path spec {spec!r}") from None
    if any(i < 0 for i in indices):
        raise ValueError(f"negative edge index in path spec {spec!r}")
    return prefix_from_indices(diagram, indices)


# --- BVD text format ------------------------------------------------------
#
# UTF-8 lines, each ending at '\n' alone (a '\r' before it is stripped), so a
# label may hold any other character; lines starting with '#' are comments:
#
#   BVD 1
#   DEPTH <K>
#   LEVEL <k> <num_vertices>          for every k = 0..K
#   LABEL <k> <vertex> "<string>"     optional, backslash escapes \" \\ \n
#   EDGE <k> <source> <order> <target>


def _escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


_UNESCAPES = {"n": "\n", '"': '"', "\\": "\\"}


def _unescape(s: str, line: int) -> str:
    def one(m: re.Match) -> str:
        if m[1] in _UNESCAPES:
            return _UNESCAPES[m[1]]
        raise BVDParseError(line, f"unknown escape \\{m[1]}" if m[1]
                            else "dangling backslash in label")

    return re.sub(r"\\(.?)", one, s, flags=re.S)


def serialize(diagram: OrderedBratteliDiagram) -> str:
    lines = ["BVD 1", f"DEPTH {diagram.depth}"]
    for k, n in enumerate(diagram.level_sizes):
        lines.append(f"LEVEL {k} {n}")
    for (k, v), text in sorted(diagram.labels.items()):
        lines.append(f'LABEL {k} {v} "{_escape(text)}"')
    for k in range(1, diagram.depth + 1):
        for e in diagram.edges_at(k):
            lines.append(f"EDGE {k} {e.source} {e.order} {e.target}")
    return "\n".join(lines) + "\n"


def _int_fields(parts: list[str], n: int, lineno: int, what: str) -> list[int]:
    if len(parts) != n:
        raise BVDParseError(lineno, f"{what}: expected {n} fields, got {len(parts)}")
    try:
        return [int(x) for x in parts]
    except ValueError:
        raise BVDParseError(lineno, f"{what}: non-integer field") from None


# EDGE lines parsed in one bulk step: bounds the fields held at once
_EDGE_SLICE = 4096
# how a line that extends a run of EDGE lines starts, after leading
# whitespace; an EDGE line with other whitespace after its tag starts a run
_EDGE_TAGS = ("EDGE ", "EDGE\t")


def _small_ints(col: list[str]) -> list[int]:
    """``int`` of each string in ``col``, converting each distinct one once."""
    values = {s: int(s) for s in set(col)}
    return list(map(values.__getitem__, col))


def _parse_edges(fields: list[str], lineno: int, n: int, depth: int,
                 sizes: dict[int, int]) -> list[Edge]:
    """The edges of ``n`` EDGE lines from line ``lineno`` on, given the
    whitespace-split ``fields`` of all of them; each line starts with its
    ``EDGE`` tag.

    Each check covers all lines at once, in the order one line is checked
    in.  A failure raises at ``lineno`` with the first value that check
    rejects, which is the first bad line only for ``n == 1``.  The count
    check alone lets a short line pair with a long one; with the integer
    check it cannot, since every line starts with a tag and no tag can then
    sit between the multiples of 5.
    """
    if len(fields) != 5 * n or fields[0::5].count("EDGE") != n:
        raise BVDParseError(lineno, f"EDGE: expected 4 fields, got {len(fields) - 1}")
    try:
        # levels and orders take few distinct values
        levels, orders = (_small_ints(fields[j::5]) for j in (1, 3))
        sources, targets = (list(map(int, fields[j::5])) for j in (2, 4))
    except ValueError:
        raise BVDParseError(lineno, "EDGE: non-integer field") from None
    if min(levels) < 1 or max(levels) > depth:
        k = next(k for k in levels if not 1 <= k <= depth)
        raise BVDParseError(lineno, f"edge level {k} outside 1..{depth}")
    for k in sorted(set(levels)):
        if k not in sizes or (k - 1) not in sizes:
            raise BVDParseError(lineno, f"EDGE before LEVEL declarations for {k} and {k - 1}")
    for vertices, what, shift in ((sources, "source", 0), (targets, "target", 1)):
        bound = {k: sizes[k - shift] for k in set(levels)}
        bounds = list(map(bound.__getitem__, levels))
        if min(vertices) < 0 or any(map(ge, vertices, bounds)):
            k, v = next((k, v) for k, v, b in zip(levels, vertices, bounds) if not 0 <= v < b)
            raise BVDParseError(
                lineno, f"EDGE references nonexistent {what} vertex {v} of V_{k - shift}")
    if min(orders) < 0:
        raise BVDParseError(lineno, f"negative edge order {next(o for o in orders if o < 0)}")
    # Edge._make without its per-call Python frame and length check
    return list(map(tuple.__new__, repeat(Edge), zip(levels, sources, orders, targets)))


def deserialize(text: str) -> OrderedBratteliDiagram:
    """Parse BVD text; raises :class:`BVDParseError` or, for a structurally
    invalid diagram, :class:`DiagramValidationError`.

    Runs of EDGE lines are parsed in bulk; a fault is still reported at the
    first bad line.  The cyclic garbage collector is paused meanwhile: the
    parse and the diagram build only acyclic tuples, which the collector
    keeps tracking (an :class:`Edge` is a tuple subclass) and would scan
    again and again to free nothing.  Its state is restored on return.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _read_bvd(text)
    finally:
        if enabled:
            gc.enable()


def _read_bvd(text: str) -> OrderedBratteliDiagram:
    depth: int | None = None
    sizes: dict[int, int] = {}
    labels: dict[tuple[int, int], str] = {}
    edges: list[Edge] = []
    header_seen = False
    lines = text.split("\n")
    if not lines[-1]:
        del lines[-1]  # after the last '\n' there is no line
    lineno = 0  # of the current line, and the index of the next one
    while lineno < len(lines):
        line = lines[lineno].strip()
        lineno += 1
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            if line != "BVD 1":
                raise BVDParseError(lineno, f"expected 'BVD 1' header, got {line!r}")
            header_seen = True
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind == "DEPTH":
            if depth is not None:
                raise BVDParseError(lineno, "duplicate DEPTH")
            (depth,) = _int_fields(tokens[1:], 1, lineno, "DEPTH")
            if depth < 0:
                raise BVDParseError(lineno, f"negative depth {depth}")
        elif kind == "LEVEL":
            if depth is None:
                raise BVDParseError(lineno, "LEVEL before DEPTH")
            k, n = _int_fields(tokens[1:], 2, lineno, "LEVEL")
            if not 0 <= k <= depth:
                raise BVDParseError(lineno, f"level {k} outside 0..{depth}")
            if k in sizes:
                raise BVDParseError(lineno, f"duplicate LEVEL {k}")
            if n < 0:
                raise BVDParseError(lineno, f"negative vertex count {n}")
            sizes[k] = n
        elif kind == "LABEL":
            if depth is None:
                raise BVDParseError(lineno, "LABEL before DEPTH")
            head = line.split(None, 3)
            if len(head) != 4:
                raise BVDParseError(lineno, "LABEL: expected level, vertex and quoted string")
            k, v = _int_fields(head[1:3], 2, lineno, "LABEL")
            if k not in sizes:
                raise BVDParseError(lineno, f"LABEL references undeclared level {k}")
            if not 0 <= v < sizes[k]:
                raise BVDParseError(lineno, f"LABEL references nonexistent vertex {v} of V_{k}")
            quoted = head[3].strip()
            if len(quoted) < 2 or not quoted.startswith('"') or not quoted.endswith('"'):
                raise BVDParseError(lineno, "LABEL string must be double-quoted")
            labels[(k, v)] = _unescape(quoted[1:-1], lineno)
        elif kind == "EDGE":
            if depth is None:
                raise BVDParseError(lineno, "EDGE before DEPTH")
            # this line and the EDGE lines right after it, parsed in one step;
            # a longer run goes on as the next record
            run = lines[lineno - 1:lineno - 1 + _EDGE_SLICE]
            n = 1 + len(list(takewhile(bool, map(str.startswith, map(str.lstrip, run[1:]),
                                                 repeat(_EDGE_TAGS)))))
            try:
                edges += _parse_edges(" ".join(run[:n]).split(), lineno, n, depth, sizes)
            except BVDParseError:
                # parse the lines again one at a time to find the first bad one
                for j in range(n):
                    edges += _parse_edges(run[j].split(), lineno + j, 1, depth, sizes)
            lineno += n - 1
        else:
            raise BVDParseError(lineno, f"unknown record {kind!r}")
    if not header_seen:
        raise BVDParseError(max(lineno, 1), "missing 'BVD 1' header")
    if depth is None:
        raise BVDParseError(max(lineno, 1), "missing DEPTH")
    for k in range(depth + 1):
        if k not in sizes:
            raise BVDParseError(max(lineno, 1), f"missing LEVEL {k}")
    diagram = OrderedBratteliDiagram([sizes[k] for k in range(depth + 1)], edges, labels)
    violations = diagram.validate()
    if violations:
        raise DiagramValidationError(violations)
    return diagram


def read_bvd(path: str) -> OrderedBratteliDiagram:
    """:func:`deserialize` the BVD file at ``path``; a non-UTF-8 byte fails at its line."""
    try:
        with open(path, "rb") as fh:
            # the bytes are freed before the parse, as with a text-mode read
            text = fh.read().decode("utf-8")
    except UnicodeDecodeError as exc:
        data, at = exc.object, exc.start
        raise BVDParseError(data.count(b"\n", 0, at) + 1,
                            f"byte 0x{data[at]:02x} is not UTF-8") from None
    return deserialize(text)


def to_dot(diagram: OrderedBratteliDiagram) -> str:
    """DOT rendering: one rank per level, root on top, edges labeled by order."""
    lines = ["digraph bratteli {", "  rankdir=BT;", "  node [shape=circle];"]
    for k in range(diagram.depth + 1):
        names = " ".join(f"n{k}_{i};" for i in range(diagram.level_size(k)))
        lines.append(f"  {{ rank=same; {names} }}")
    for k in range(diagram.depth + 1):
        for i in range(diagram.level_size(k)):
            text = diagram.label(k, i)
            if text is None:
                text = f"{k}:{i}"
            lines.append(f'  n{k}_{i} [label="{_escape(text)}"];')
    for k in range(1, diagram.depth + 1):
        for e in diagram.edges_at(k):
            lines.append(f'  n{k}_{e.source} -> n{k - 1}_{e.target} [label="{e.order}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
