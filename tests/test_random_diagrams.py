"""Successor laws, fan tables and serialization on randomly generated diagrams."""

import random
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bratteli.catalog import CONSTRUCTORS
from bratteli.diagram import (Edge, OrderedBratteliDiagram, PathPrefix,
                              deserialize, serialize)
from bratteli.vershik import (extension_count, image_diameter_profile,
                              is_isolated, is_minimal_prefix, maximal_prefixes,
                              minimal_prefixes, orbit, predecessor,
                              prefix_set_diameter, successor)
from conftest import (enumerate_prefixes, inverse_lex_key,
                      oracle_prefix_set_diameter, oracle_successor)


def random_diagram(rng: random.Random, depth: int, max_width: int = 4) -> OrderedBratteliDiagram:
    """A uniform-ish valid diagram: random level sizes, every upper vertex
    covered, every lower vertex sourcing 1-3 edges, orders contiguous."""
    sizes = [1] + [rng.randint(1, max_width) for _ in range(depth)]
    edges = []
    for k in range(1, depth + 1):
        uncovered = set(range(sizes[k - 1]))
        for v in range(sizes[k]):
            fan = rng.randint(1, 3)
            for order in range(fan):
                if uncovered:
                    target = uncovered.pop()
                else:
                    target = rng.randrange(sizes[k - 1])
                edges.append(Edge(k, v, order, target))
        # any upper vertex still uncovered gets an extra edge from vertex 0
        base = len([e for e in edges if e.level == k and e.source == 0])
        for extra, target in enumerate(sorted(uncovered)):
            edges.append(Edge(k, 0, base + extra, target))
    return OrderedBratteliDiagram(sizes, edges)


@pytest.mark.parametrize("seed", range(25))
def test_random_diagram_successor_laws(seed):
    rng = random.Random(seed)
    d = random_diagram(rng, depth=rng.randint(2, 4))
    assert d.validate() == []
    assert deserialize(serialize(d)).structurally_equal(d)
    for depth in range(1, d.depth + 1):
        assert len(maximal_prefixes(d, depth)) == d.level_size(depth)
        assert len(minimal_prefixes(d, depth)) == d.level_size(depth)
        classes = {}
        for p in enumerate_prefixes(d, depth):
            classes.setdefault(p.edges[-1].source, []).append(p)
        for group in classes.values():
            group.sort(key=inverse_lex_key)
            # successor equals the brute-force minimum strictly above
            for p, expected in zip(group, group[1:] + [None]):
                assert successor(p) == expected, str(p)
                if expected is not None:
                    assert predecessor(expected) == p
            # the orbit of the class minimum enumerates the class in order
            assert is_minimal_prefix(group[0])
            assert orbit(group[0], len(group) + 5) == group
    # again on the same diagram, now that both directions have cached moves
    for depth in range(1, d.depth + 1):
        for p in enumerate_prefixes(d, depth):
            expected = oracle_successor(p)
            assert successor(p) == expected, str(p)
            if expected is not None:
                assert predecessor(expected) == p


@pytest.mark.parametrize("small_first", [True, False])
def test_moves_are_not_shared_between_diagrams_with_equal_edges(small_first):
    # both hold Edge(2, 0, 1, 1): in `small` it ends its fan, in `large` it
    # does not, and there V_1 vertex 0 sources two edges, not one
    small = OrderedBratteliDiagram(
        [1, 2, 1], [Edge(1, 0, 0, 0), Edge(1, 1, 0, 0), Edge(2, 0, 0, 0), Edge(2, 0, 1, 1)])
    large = OrderedBratteliDiagram(
        [1, 2, 1], [Edge(1, 0, 0, 0), Edge(1, 0, 1, 0), Edge(1, 1, 0, 0),
                    Edge(2, 0, 0, 0), Edge(2, 0, 1, 1), Edge(2, 0, 2, 0)])
    assert small.validate() == large.validate() == []
    # (diagram, successor, predecessor) of the path (Edge(1, 1, 0, 0), Edge(2, 0, 1, 1))
    cases = [(small, None, (Edge(1, 0, 0, 0), Edge(2, 0, 0, 0))),
             (large, (Edge(1, 0, 0, 0), Edge(2, 0, 2, 0)), (Edge(1, 0, 1, 0), Edge(2, 0, 0, 0)))]
    if not small_first:
        cases.reverse()
    for _ in range(2):  # the second round steps through filled move caches
        for d, after, before in cases:
            p = PathPrefix(d, (Edge(1, 1, 0, 0), Edge(2, 0, 1, 1)))
            assert successor(p) == oracle_successor(p)
            assert successor(p) == (after and PathPrefix(d, after))
            assert predecessor(p) == PathPrefix(d, before)


@pytest.mark.parametrize("seed", range(25))
def test_random_prefix_set_diameter_matches_oracle(seed):
    rng = random.Random(seed)
    d = random_diagram(rng, depth=rng.randint(2, 4))
    pool = [p for n in range(d.depth + 1) for p in enumerate_prefixes(d, n)]
    for _ in range(40):
        # sets drawn from one cylinder share at least its depth
        q = rng.choice(pool)
        j = rng.randint(0, q.depth)
        cylinder = [p for p in pool if p.edges[:j] == q.edges[:j]]
        ps = rng.sample(cylinder, rng.randint(0, len(cylinder)))
        if rng.random() < 0.5:  # one depth only, as image_diameter_profile passes
            ps = [p for p in ps if p.depth == q.depth]
        assert prefix_set_diameter(ps) == oracle_prefix_set_diameter(ps)


def oracle_profile(d, n_max: int, depth: int) -> list[tuple[float, int]]:
    """Step every minimal depth-D prefix with the brute-force successor."""
    current = [p for p in enumerate_prefixes(d, depth) if all(e.order == 0 for e in p.edges)]
    size = len(current)
    out = []
    for _ in range(n_max + 1):
        out.append((oracle_prefix_set_diameter(current), size - len(current)))
        current = [q for q in map(oracle_successor, current) if q is not None]
    return out


def test_random_image_diameter_profile_matches_oracle():
    undetermined = []
    for seed in range(25):
        rng = random.Random(seed)
        d = random_diagram(rng, depth=rng.randint(2, 4))
        for depth in range(1, d.depth + 1):
            profile = image_diameter_profile(d, 6, depth)
            assert [tuple(point) for point in profile] == oracle_profile(d, 6, depth), seed
            undetermined.append(profile[-1].undetermined)
    # both exhausted and still-moving images occur among these diagrams
    assert any(undetermined) and not all(undetermined)


def test_random_is_isolated_matches_extension_count():
    isolated = []
    for seed in range(25):
        rng = random.Random(seed)
        d = random_diagram(rng, depth=rng.randint(2, 4))
        for p in (p for n in range(d.depth) for p in enumerate_prefixes(d, n)):
            isolated.append(is_isolated(d, p))
            assert isolated[-1] == (extension_count(d, p) == 1), (seed, str(p))
    # both single-path and branching cylinders occur above full depth
    assert any(isolated) and not all(isolated)


def assert_fans_partition(d: OrderedBratteliDiagram) -> None:
    """``edges_from`` and ``edges_to`` each cut every E_k into one fan per
    vertex, of the edges with that source (target), each edge exactly once."""
    for k in range(1, d.depth + 1):
        out = [d.edges_from(k, v) for v in range(d.level_size(k))]
        into = [d.edges_to(k, u) for u in range(d.level_size(k - 1))]
        assert all(e.source == v for v, fan in enumerate(out) for e in fan)
        assert all(e.target == u for u, fan in enumerate(into) for e in fan)
        for fans in (out, into):
            assert sorted(chain.from_iterable(fans)) == sorted(d.edges_at(k))


@pytest.mark.parametrize("seed", range(25))
def test_random_diagram_fans_partition_each_level(seed):
    rng = random.Random(seed)
    d = random_diagram(rng, depth=rng.randint(2, 4))
    assert_fans_partition(d)
    # extra edges with both ends in range, which may repeat an edge or an
    # order, break the axioms but not the fan tables
    extra = []
    for _ in range(rng.randint(1, 4)):
        k = rng.randint(1, d.depth)
        extra.append(Edge(k, rng.randrange(d.level_size(k)), rng.randrange(4),
                          rng.randrange(d.level_size(k - 1))))
    edges = [e for k in range(1, d.depth + 1) for e in d.edges_at(k)]
    assert_fans_partition(OrderedBratteliDiagram(d.level_sizes, edges + extra))


@pytest.mark.parametrize("name,make", sorted(CONSTRUCTORS.items()))
def test_catalog_fans_partition_each_level(name, make):
    assert_fans_partition(make(6))


def test_built_fans_partition_each_level(fullshift3):
    assert_fans_partition(fullshift3)


@settings(max_examples=200)
@given(st.randoms(use_true_random=False),
       st.lists(st.tuples(st.integers(-1, 5), st.integers(-1, 5),
                          st.text(max_size=3) | st.none()), max_size=4))
def test_labelled_random_diagrams_round_trip_or_are_refused(rng, triples):
    # labels on random (level, vertex) pairs, some off the diagram, and
    # None as a payload that is not a str
    d = random_diagram(rng, depth=rng.randint(1, 3))
    labels = {(k, v): text for k, v, text in triples}
    edges = [e for k in range(1, d.depth + 1) for e in d.edges_at(k)]
    refused = any(not (0 <= k <= d.depth and 0 <= v < d.level_size(k)) or text is None
                  for (k, v), text in labels.items())
    try:
        labelled = OrderedBratteliDiagram(d.level_sizes, edges, labels)
    except ValueError:
        assert refused
        return
    assert not refused
    assert deserialize(serialize(labelled)).structurally_equal(labelled)
