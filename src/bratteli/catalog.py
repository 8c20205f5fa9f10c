"""Constructors for the reference diagrams used as fixtures and CLI subjects.

All constructors emit finite truncations to a requested depth and fix the
order of drawn parallel edges as 0 = left.  Returned diagrams pass
validation for every depth.
"""

from __future__ import annotations

from .diagram import Edge, OrderedBratteliDiagram


def binary_tree(depth: int) -> OrderedBratteliDiagram:
    """Full binary tree: 2^k vertices per level, one edge to each parent.

    Every path is simultaneously maximal and minimal, so the successor map
    is nowhere determined.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    sizes = [2 ** k for k in range(depth + 1)]
    edges = [Edge(k, i, 0, i // 2)
             for k in range(1, depth + 1) for i in range(2 ** k)]
    return OrderedBratteliDiagram(sizes, edges)


def odometer(depth: int) -> OrderedBratteliDiagram:
    """Dyadic odometer: one vertex per level, two parallel edges ordered
    0 < 1; the successor is binary increment with carry."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    sizes = [1] * (depth + 1)
    edges = []
    for k in range(1, depth + 1):
        edges.append(Edge(k, 0, 0, 0))
        edges.append(Edge(k, 0, 1, 0))
    return OrderedBratteliDiagram(sizes, edges)


def example_7_1(depth: int) -> OrderedBratteliDiagram:
    """Binary tree of odometer attachments: each vertex has two children,
    one hung by a single edge and one by a double edge.

    Models a system with uncountably many minimal subsystems, each a
    periodic orbit or a dyadic odometer.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    sizes = [2 ** k for k in range(depth + 1)]
    edges = []
    for k in range(1, depth + 1):
        for i in range(2 ** k):
            parent = i // 2
            edges.append(Edge(k, i, 0, parent))
            if i % 2 == 1:
                edges.append(Edge(k, i, 1, parent))
    return OrderedBratteliDiagram(sizes, edges)


def _two_families(depth: int, centers: int) -> OrderedBratteliDiagram:
    """A doubling left family (through u) and its mirror, the right family
    (through w), around ``centers`` dyadic odometer columns (through v, or
    v1, v2, ...).

    At level k >= 2 the left family is V_k vertices 0..2^(k-1)-1, the
    centers follow, then the right family.  Left vertex i has edges
    (0 -> left parent i // 2, 1 -> center), right vertex i has edges
    (0 -> center, 1 -> right parent i // 2), and each family splits between
    the centers in equal consecutive runs.
    """
    if depth < 2:
        raise ValueError(f"depth must be >= 2, got {depth}")
    sizes = [1] + [2 ** k + centers for k in range(1, depth + 1)]
    names = ["v"] if centers == 1 else [f"v{c}" for c in range(1, centers + 1)]
    labels = {(1, i): name for i, name in enumerate(["u", *names, "w"])}
    edges = [Edge(1, i, 0, 0) for i in range(centers + 2)]
    for k in range(2, depth + 1):
        nl, up = 2 ** (k - 1), 2 ** (k - 2)  # left-family sizes at V_k and V_{k-1}
        for i in range(nl):
            center = up + i * centers // nl
            right = nl + centers + i
            edges.append(Edge(k, i, 0, i // 2))
            edges.append(Edge(k, i, 1, center))
            edges.append(Edge(k, right, 0, center))
            edges.append(Edge(k, right, 1, up + centers + i // 2))
        for c in range(centers):
            edges.append(Edge(k, nl + c, 0, up + c))
            edges.append(Edge(k, nl + c, 1, up + c))
    return OrderedBratteliDiagram(sizes, edges, labels)


def example_7_2(depth: int) -> OrderedBratteliDiagram:
    """The u/v/w diagram: a doubling left family feeding a central dyadic
    odometer, mirrored by a right family.

    Left-family edges are (0 -> left parent, 1 -> center); right-family
    edges are (0 -> center, 1 -> right parent).  Paths through u are
    minimal, paths through w are maximal, and the center column carries one
    extremal prefix of each kind per depth.
    """
    return _two_families(depth, 1)


def example_7_3(depth: int) -> OrderedBratteliDiagram:
    """Variant of :func:`example_7_2` with the central odometer doubled.

    The left family splits between the two center columns by halves (the
    first half of each level attaches to the first column), and likewise
    the right family; the drawn level-3 pattern fixes this inference.
    """
    return _two_families(depth, 2)


CONSTRUCTORS = {
    "binary-tree": binary_tree,
    "odometer": odometer,
    "example-7-1": example_7_1,
    "example-7-2": example_7_2,
    "example-7-3": example_7_3,
}
