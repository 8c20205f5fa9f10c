"""Inverse-lexicographic successor dynamics on path prefixes, and
finite-depth diagnostics for the extremal-path structure.

Everything operates on prefixes (depth-N cylinders), the finitely checkable
stand-ins for points of the path space: extremal prefix sets approximate
the sets of maximal/minimal paths from outside, and a successor that is
undetermined at depth N (every edge already maximal) is reported as such
rather than guessed.
"""

from __future__ import annotations

from typing import Literal, NamedTuple

from .diagram import Edge, OrderedBratteliDiagram, PathPrefix

Side = Literal["max", "min"]


def _require_nonempty(p: PathPrefix) -> None:
    if p.depth == 0:
        raise ValueError("empty prefix")


def is_maximal_prefix(p: PathPrefix) -> bool:
    """True iff every edge is the highest-order edge at its source."""
    _require_nonempty(p)
    d = p.diagram
    return all(e.order == len(d.edges_from(e.level, e.source)) - 1 for e in p.edges)


def is_minimal_prefix(p: PathPrefix) -> bool:
    """True iff every edge is the lowest-order edge at its source."""
    _require_nonempty(p)
    return all(e.order == 0 for e in p.edges)


def _chain(diagram: OrderedBratteliDiagram, level: int, v: int, pick: int) -> tuple[Edge, ...]:
    """The path from the root down to vertex ``v`` of V_level that takes the
    fan entry at ``pick`` (0 = minimal, -1 = maximal) at each level."""
    fans = diagram._out  # validated diagrams only: no range checks per level
    edges: list = [None] * level
    for j in range(level - 1, -1, -1):
        e = edges[j] = fans[j][v][pick]
        v = e.target
    return tuple(edges)


def _move(d: OrderedBratteliDiagram, e: Edge, delta: int, pick: int) -> tuple[Edge, ...] | None:
    """The head that replaces the first ``e.level`` edges of a prefix whose
    least moving edge is ``e``: the edge ``delta`` places along ``e``'s fan,
    under the ``pick``-extremal chain from its target up to the root;
    ``None`` when ``e`` cannot move that far."""
    fan = d._out[e.level - 1][e.source]
    if not 0 <= e.order + delta < len(fan):
        return None
    moved = fan[e.order + delta]
    return _chain(d, e.level - 1, moved.target, pick) + (moved,)


def _step(p: PathPrefix, delta: int, pick: int) -> PathPrefix | None:
    """Move the least edge that can move by ``delta`` within its fan and
    rebuild everything above it as the ``pick``-extremal chain; ``None`` when
    no edge can move.

    The new head depends on the moving edge alone, so each diagram keeps one
    cache per direction, ``_moves[pick]``, from an edge to its :func:`_move`
    result, filled on first use; a step is then one dict lookup per edge up
    to the first that moves."""
    d, edges = p.diagram, p.edges
    if not edges:
        raise ValueError("empty prefix")
    moves = d._moves[pick]
    for i, e in enumerate(edges):
        try:
            head = moves[e]
        except KeyError:
            head = moves[e] = _move(d, e, delta, pick)
        if head is not None:
            return PathPrefix(d, head + edges[i + 1:])
    return None


def successor(p: PathPrefix) -> PathPrefix | None:
    """The next prefix in inverse-lexicographic order, or ``None`` when all
    edges are maximal and the prefix does not determine its successor.

    Finds the least index whose edge is non-maximal, bumps it to the
    next-order edge at the same source, and rebuilds everything above as the
    chain of minimal-order edges.  The deep source vertex is preserved.
    """
    return _step(p, 1, 0)


def predecessor(p: PathPrefix) -> PathPrefix | None:
    """Mirror of :func:`successor`: ``None`` when all edges are minimal."""
    return _step(p, -1, -1)


def _extremal_prefixes(diagram: OrderedBratteliDiagram, depth: int, pick: int) -> list[PathPrefix]:
    """One ``pick``-extremal prefix per vertex of V_depth, in vertex order;
    distinct, since their deep vertices differ."""
    if not 1 <= depth <= diagram.depth:
        raise ValueError(f"depth {depth} outside 1..{diagram.depth}")
    return [PathPrefix(diagram, _chain(diagram, depth, v, pick))
            for v in range(diagram.level_size(depth))]


def maximal_prefixes(diagram: OrderedBratteliDiagram, depth: int) -> set[PathPrefix]:
    """The depth-N prefixes all of whose edges are maximal; one per deep
    vertex, since the extremal edge at each source is unique."""
    return set(_extremal_prefixes(diagram, depth, -1))


def minimal_prefixes(diagram: OrderedBratteliDiagram, depth: int) -> set[PathPrefix]:
    return set(_extremal_prefixes(diagram, depth, 0))


def interior_witness(diagram: OrderedBratteliDiagram, side: Side, depth: int,
                     probe_depth: int) -> list[PathPrefix]:
    """Depth-N extremal prefixes whose every extension down to
    ``min(depth + probe_depth, diagram.depth)`` is still extremal.

    An empty list certifies, to the probe depth, that no depth-N cylinder
    lies inside the extremal set.  A non-empty list is candidate evidence
    only: deeper levels could still break it.  The probe is one pass per
    level, from the limit up to depth N, so it works at any depth.
    """
    if side not in ("max", "min"):
        raise ValueError(f"side must be 'max' or 'min', got {side!r}")
    if not depth + 1 <= diagram.depth:
        raise ValueError(f"need depth + 1 <= {diagram.depth} to probe anything")
    if probe_depth < 1:
        raise ValueError(f"probe depth must be >= 1, got {probe_depth}")
    limit = min(depth + probe_depth, diagram.depth)
    pick = -1 if side == "max" else 0
    # one pass up from V_limit: a vertex of V_{k-1} is kept when each edge of
    # its in-fan is the pick-extremal edge at a kept source in V_k
    kept = range(diagram.level_size(limit))
    for k in range(limit, depth, -1):
        fans = diagram._out[k - 1]
        kept = {u for u, fan in enumerate(diagram._in[k - 1])
                if all(e.source in kept and fans[e.source][pick] == e for e in fan)}
    hits = [p for p in _extremal_prefixes(diagram, depth, pick) if p.source[1] in kept]
    return sorted(hits, key=lambda p: p.indices())


def orbit(p: PathPrefix, steps: int) -> list[PathPrefix]:
    """Iterated successor starting at ``p``; truncated where the successor
    stops being determined.  Length is at most ``steps + 1``."""
    out = [p]
    for _ in range(steps):
        nxt = successor(out[-1])
        if nxt is None:
            break
        out.append(nxt)
    return out


def prefix_set_diameter(prefixes) -> float:
    """Diameter under d(x, y) = 2^-(shared initial edges); 0 for at most one
    element.  Reads ``prefixes`` once, so any iterable will do.

    Every edge tuple lies between the lexicographically least and greatest,
    so all of them share the initial edges those two share, and no more."""
    paths = [p.edges for p in prefixes]
    if len(paths) <= 1:
        return 0.0
    lo, hi = min(paths), max(paths)
    shared = next((i for i, (a, b) in enumerate(zip(lo, hi)) if a != b), len(lo))
    return 2.0 ** (-shared)


class ProfilePoint(NamedTuple):
    diameter: float
    undetermined: int


def image_diameter_profile(diagram: OrderedBratteliDiagram, n_max: int,
                           depth: int) -> list[ProfilePoint]:
    """For n = 0..n_max, the diameter of the n-th successor image of the
    depth-D minimal prefix set.

    Prefixes whose n-th successor is not determined at this depth are
    excluded from the diameter and counted separately; once undetermined,
    always undetermined.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    current: list[PathPrefix | None] = _extremal_prefixes(diagram, depth, 0)
    size = len(current)
    profile = []
    for n in range(n_max + 1):
        profile.append(ProfilePoint(prefix_set_diameter(current), size - len(current)))
        if n < n_max:
            # in place, so each prefix is freed as soon as its image exists
            for i, p in enumerate(current):
                current[i] = successor(p)
            current = [p for p in current if p is not None]
    return profile


def all_prefixes(diagram: OrderedBratteliDiagram, depth: int) -> list[PathPrefix]:
    """Every depth-N prefix, sorted by :meth:`PathPrefix.indices`."""
    if not 0 <= depth <= diagram.depth:
        raise ValueError(f"depth {depth} outside 0..{diagram.depth}")
    out = [PathPrefix(diagram, ())]
    for k in range(1, depth + 1):
        # an in-fan lists its edges in E_k order, so extending the prefixes
        # in order keeps them sorted; its edges need none of extend's checks
        out = [PathPrefix(diagram, p.edges + (e,))
               for p in out for e in diagram.edges_to(k, p.source[1])]
    return out


def extension_count(diagram: OrderedBratteliDiagram, p: PathPrefix,
                    to_depth: int | None = None) -> int:
    """Number of depth-``to_depth`` prefixes extending ``p`` (cylinder size
    at that depth)."""
    if to_depth is None:
        to_depth = diagram.depth
    if not p.depth <= to_depth <= diagram.depth:
        raise ValueError(f"target depth {to_depth} outside {p.depth}..{diagram.depth}")
    counts = {p.source[1]: 1}
    for k in range(p.depth + 1, to_depth + 1):
        nxt: dict[int, int] = {}
        for v, c in counts.items():
            for e in diagram.edges_to(k, v):
                nxt[e.source] = nxt.get(e.source, 0) + c
        counts = nxt
    return sum(counts.values())


def is_isolated(diagram: OrderedBratteliDiagram, p: PathPrefix) -> bool:
    """Whether exactly one full-depth prefix extends ``p``.  In a valid
    diagram every vertex below the top is the target of an edge, so that
    holds exactly when every in-fan on the way down is one edge."""
    v = p.source[1]
    for k in range(p.depth + 1, diagram.depth + 1):
        fan = diagram.edges_to(k, v)
        if len(fan) != 1:
            return False
        v = fan[0].source
    return True
