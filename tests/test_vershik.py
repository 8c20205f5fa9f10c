import random

import pytest

from bratteli import vershik
from bratteli.catalog import (binary_tree, example_7_1, example_7_2,
                              example_7_3, odometer)
from bratteli.diagram import (Edge, OrderedBratteliDiagram, PathPrefix,
                              prefix_from_indices)
from bratteli.vershik import (all_prefixes, extension_count,
                              image_diameter_profile, interior_witness,
                              is_maximal_prefix, is_minimal_prefix,
                              maximal_prefixes, minimal_prefixes, orbit,
                              predecessor, prefix_set_diameter, successor)
from conftest import (enumerate_prefixes, inverse_lex_key,
                      oracle_prefix_set_diameter, oracle_successor)
from test_random_diagrams import random_diagram


def test_odometer_successor_is_binary_increment():
    d = odometer(3)
    p = prefix_from_indices(d, [1, 0, 0])
    assert successor(p).indices() == (0, 1, 0)
    assert predecessor(prefix_from_indices(d, [0, 1, 0])).indices() == (1, 0, 0)
    assert successor(prefix_from_indices(d, [1, 1, 1])) is None
    assert predecessor(prefix_from_indices(d, [0, 0, 0])) is None


def test_odometer_orbit_is_a_binary_counter():
    d = odometer(5)
    start = prefix_from_indices(d, [0] * 5)
    seq = orbit(start, 2 ** 5 - 1)
    assert len(seq) == 32
    for value, p in enumerate(seq):
        assert p.indices() == tuple((value >> bit) & 1 for bit in range(5))
    assert successor(seq[-1]) is None


def test_extremal_predicates_on_odometer():
    d = odometer(4)
    assert is_maximal_prefix(prefix_from_indices(d, [1, 1, 1, 1]))
    assert is_minimal_prefix(prefix_from_indices(d, [0, 0, 0, 0]))
    assert not is_maximal_prefix(prefix_from_indices(d, [1, 0, 1, 1]))
    with pytest.raises(ValueError):
        is_maximal_prefix(PathPrefix(d, ()))


def test_binary_tree_everything_is_extremal():
    d = binary_tree(4)
    for p in all_prefixes(d, 4):
        assert is_maximal_prefix(p) and is_minimal_prefix(p)
        assert successor(p) is None
        assert orbit(p, 5) == [p]


def test_example_7_2_u_minimal_w_maximal():
    d = example_7_2(5)
    for p in all_prefixes(d, 5):
        if p.edges[0].source == 0:  # through u
            assert is_minimal_prefix(p)
        if p.edges[0].source == 2:  # through w
            assert is_maximal_prefix(p)


def test_successor_inverts_predecessor_on_catalog():
    for d in (odometer(4), example_7_1(4), example_7_2(4), example_7_3(4)):
        for p in all_prefixes(d, 4):
            q = successor(p)
            if q is not None:
                assert predecessor(q) == p
            r = predecessor(p)
            if r is not None:
                assert successor(r) == p


def test_successor_preserves_source_and_is_strictly_greater():
    d = example_7_2(4)
    for p in all_prefixes(d, 4):
        q = successor(p)
        if q is None:
            continue
        assert q.source == p.source
        assert q.depth == p.depth
        assert inverse_lex_key(q) > inverse_lex_key(p)


@pytest.mark.parametrize("make,depth", [
    (binary_tree, 5), (odometer, 5), (example_7_1, 5),
    (example_7_2, 5), (example_7_3, 5),
])
def test_successor_matches_brute_force(make, depth):
    d = make(depth)
    for n in range(1, depth + 1):
        for p in enumerate_prefixes(d, n):
            assert successor(p) == oracle_successor(p), str(p)


def test_extremal_prefix_counts_equal_level_sizes():
    for d in (binary_tree(6), odometer(6), example_7_1(6), example_7_2(6), example_7_3(6)):
        for n in range(1, d.depth + 1):
            assert len(maximal_prefixes(d, n)) == d.level_size(n)
            assert len(minimal_prefixes(d, n)) == d.level_size(n)
            assert all(is_maximal_prefix(p) for p in maximal_prefixes(d, n))
            assert all(is_minimal_prefix(p) for p in minimal_prefixes(d, n))
    with pytest.raises(ValueError):
        maximal_prefixes(odometer(3), 4)


def test_interior_witness_binary_tree_everything():
    d = binary_tree(4)
    for side in ("max", "min"):
        hits = interior_witness(d, side, 1, 3)
        assert len(hits) == 2  # both depth-1 prefixes


def test_interior_witness_example_7_1_empty():
    d = example_7_1(4)
    # independent check: each depth-1 max prefix has a depth-2 extension
    # through a non-maximal edge of a double pair
    assert interior_witness(d, "max", 1, 2) == []
    assert interior_witness(d, "min", 1, 2) == []


def test_interior_witness_example_7_2_families():
    d = example_7_2(5)
    maxw = interior_witness(d, "max", 1, 3)
    minw = interior_witness(d, "min", 1, 3)
    assert [p.edges[0].source for p in maxw] == [2]  # w
    assert [p.edges[0].source for p in minw] == [0]  # u


def test_interior_witness_matches_brute_force():
    # oracle: extend every extremal depth-N prefix to the probe depth and
    # test extremality of every extension; probes run one past the bottom
    diagrams = [binary_tree(4), odometer(4), example_7_1(4), example_7_2(4), example_7_3(4)]
    for seed in range(40):
        rng = random.Random(seed)
        diagrams.append(random_diagram(rng, depth=rng.randint(2, 5), max_width=3))
    hits = 0
    for d in diagrams:
        for side, base, pred in (("max", maximal_prefixes, is_maximal_prefix),
                                 ("min", minimal_prefixes, is_minimal_prefix)):
            for depth in range(1, d.depth):
                for probe in range(1, d.depth - depth + 2):
                    deep = enumerate_prefixes(d, min(depth + probe, d.depth))
                    expect = []
                    for p in sorted(base(d, depth), key=lambda q: q.indices()):
                        exts = [q for q in deep if q.edges[:depth] == p.edges]
                        if exts and all(pred(q) for q in exts):
                            expect.append(p)
                    assert interior_witness(d, side, depth, probe) == expect
                    hits += len(expect)
    assert hits > 0


def test_interior_witness_at_depth_1500():
    # one pass per level: a 1,500-level diagram exceeds the recursion limit
    chain = OrderedBratteliDiagram([1] * 1501, [Edge(k, 0, 0, 0) for k in range(1, 1501)])
    odo = odometer(1500)
    for side in ("max", "min"):
        assert interior_witness(chain, side, 1, 1499) == [PathPrefix(chain, (Edge(1, 0, 0, 0),))]
        assert interior_witness(odo, side, 1, 1499) == []


def test_successor_carries_through_depth_1500():
    # the extremal chain above a moving edge is built in a loop, so a carry
    # across 1,499 levels stays within the recursion limit
    d = odometer(1500)
    p = prefix_from_indices(d, [1] * 1499 + [0])
    nxt = successor(p)
    assert nxt.indices() == (0,) * 1499 + (1,)
    assert predecessor(nxt) == p
    (top,) = maximal_prefixes(d, 1500)
    assert successor(top) is None


def test_interior_witness_argument_errors():
    with pytest.raises(ValueError):
        interior_witness(odometer(3), "sideways", 1, 1)
    with pytest.raises(ValueError):
        interior_witness(odometer(3), "max", 3, 1)


def test_prefix_set_diameter():
    d = odometer(4)
    assert prefix_set_diameter([]) == 0.0
    one = prefix_from_indices(d, [0, 0])
    assert prefix_set_diameter([one]) == 0.0
    other = prefix_from_indices(d, [0, 1])
    assert prefix_set_diameter([one, other]) == 0.5  # share exactly e_1
    far = prefix_from_indices(d, [1, 1])
    assert prefix_set_diameter([one, other, far]) == 1.0
    # mixed depths share at most the shorter prefix
    cases = [
        [one, prefix_from_indices(d, [0, 0, 1]), prefix_from_indices(d, [0, 0, 1, 1])],
        [prefix_from_indices(d, [0]), prefix_from_indices(d, [0, 1, 1])],
        [prefix_from_indices(d, [0, 1, 1]), prefix_from_indices(d, [0, 1, 0, 1]), one],
        [PathPrefix(d, ()), prefix_from_indices(d, [0, 1, 1])],
        [one, one],  # a list, not a set: two equal depth-2 prefixes
    ]
    for ps in cases:
        want = prefix_set_diameter(ps)
        assert want == oracle_prefix_set_diameter(ps)
        # one pass over the argument: a one-shot iterator reads the same
        assert prefix_set_diameter(iter(ps)) == want
    assert [prefix_set_diameter(ps) for ps in cases] == [0.25, 0.5, 0.5, 1.0, 0.25]
    # a set drops the duplicate of the last case, leaving one prefix
    assert [prefix_set_diameter(set(ps)) for ps in cases] == [0.25, 0.5, 0.5, 1.0, 0.0]


def test_profile_odometer_singleton():
    profile = image_diameter_profile(odometer(6), 10, 6)
    assert all(point.diameter == 0.0 for point in profile)
    assert all(point.undetermined == 0 for point in profile[:10])


def test_profile_binary_tree_everything_undetermined():
    d = binary_tree(4)
    profile = image_diameter_profile(d, 3, 4)
    assert profile[0].undetermined == 0
    assert profile[0].diameter == 1.0  # 16 prefixes, no common first edge
    for point in profile[1:]:
        assert point.undetermined == 16
        assert point.diameter == 0.0


def test_profile_example_7_2_shrinks():
    profile = image_diameter_profile(example_7_2(8), 4, 8)
    # after 4 steps every determined image sits in the center column through
    # the first 3 levels
    assert profile[4].diameter <= 2.0 ** -3


def test_profile_steps_each_live_prefix_through_successor(monkeypatch):
    # 8 steps of the 16,385 minimal depth-14 prefixes, none undetermined
    calls = 0

    def counted(p):
        nonlocal calls
        calls += 1
        return successor(p)

    monkeypatch.setattr(vershik, "successor", counted)
    image_diameter_profile(example_7_2(14), 8, 14)
    assert calls == 131_080


def test_example_7_2_center_column_extremal_prefixes():
    d = example_7_2(6)
    for n in range(2, 7):
        center = 2 ** (n - 1)
        center_max = [p for p in maximal_prefixes(d, n) if p.edges[-1].source == center]
        center_min = [p for p in minimal_prefixes(d, n) if p.edges[-1].source == center]
        assert len(center_max) == 1 and len(center_min) == 1
        assert successor(center_max[0]) is None
        # those chains stay inside the center column through v
        assert all(e.source == 2 ** (e.level - 1) if e.level > 1 else e.source == 1
                   for e in center_max[0].edges)


def test_example_7_3_two_center_columns():
    d = example_7_3(6)
    for n in range(2, 7):
        centers = {2 ** (n - 1), 2 ** (n - 1) + 1}
        center_max = [p for p in maximal_prefixes(d, n) if p.edges[-1].source in centers]
        center_min = [p for p in minimal_prefixes(d, n) if p.edges[-1].source in centers]
        assert len(center_max) == 2 and len(center_min) == 2
    maxw = interior_witness(d, "max", 1, 4)
    minw = interior_witness(d, "min", 1, 4)
    assert [p.edges[0].source for p in maxw] == [3]  # w
    assert [p.edges[0].source for p in minw] == [0]  # u


def test_extension_count():
    d = binary_tree(4)
    p = prefix_from_indices(d, [0])
    assert extension_count(d, p) == 8
    assert extension_count(d, p, 1) == 1
    o = odometer(3)
    assert extension_count(o, prefix_from_indices(o, [0])) == 4
