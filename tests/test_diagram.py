import copy
import gc
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bratteli.catalog import binary_tree, example_7_2, odometer
from bratteli.diagram import (BVDParseError, DiagramValidationError, Edge,
                              OrderedBratteliDiagram, PathPrefix, Violation, deserialize,
                              empty_prefix, parse_path_spec,
                              prefix_from_indices, serialize, to_dot)
from conftest import RESPELLINGS


def test_validate_accepts_catalog_diagrams():
    assert binary_tree(3).validate() == []
    assert odometer(4).validate() == []


def test_validate_root_not_singleton():
    d = OrderedBratteliDiagram([2, 2], [Edge(1, 0, 0, 0), Edge(1, 1, 0, 1)])
    codes = [v.code for v in d.validate()]
    assert "root-not-singleton" in codes


def test_validate_order_not_permutation():
    d = OrderedBratteliDiagram(
        [1, 1], [Edge(1, 0, 0, 0), Edge(1, 0, 0, 0), Edge(1, 0, 1, 0)])
    report = d.validate()
    assert [v.code for v in report] == ["order-not-permutation"]
    assert report[0].level == 1 and report[0].vertex == 0


def test_validate_coverage():
    # V_1 vertex 1 sources nothing; V_0 is fine
    d = OrderedBratteliDiagram([1, 2], [Edge(1, 0, 0, 0)])
    codes = sorted(v.code for v in d.validate())
    assert codes == ["uncovered-source"]
    # vertex 1 of V_1 is never a target of E_2
    d = OrderedBratteliDiagram(
        [1, 2, 1],
        [Edge(1, 0, 0, 0), Edge(1, 1, 0, 0), Edge(2, 0, 0, 0)])
    codes = sorted(v.code for v in d.validate())
    assert codes == ["uncovered-target"]


E = Edge


@pytest.mark.parametrize("sizes,edges,labels,message", [
    ([1, 1, -2], [E(1, 0, 0, 0)], None, "level 2 has negative size -2"),
    # source 5 of V_1 does not exist
    ([1, 1], [E(1, 0, 0, 0), E(1, 5, 0, 0)], None,
     "E_1 edge Edge(level=1, source=5, order=0, target=0) sources nonexistent vertex 5 of V_1"),
    # target 3 of V_0 does not exist
    ([1, 1], [E(1, 0, 0, 0), E(1, 0, 1, 3)], None,
     "E_1 edge Edge(level=1, source=0, order=1, target=3) targets nonexistent vertex 3 of V_0"),
    # negative vertices must not wrap around to the last vertex of a level
    ([1, 2], [E(1, -1, 0, 0), E(1, 0, 0, 0), E(1, 0, 1, -1)], None,
     "E_1 edge Edge(level=1, source=-1, order=0, target=0) sources nonexistent vertex -1 of V_1"),
    ([1, 2], [E(1, 0, 0, 0), E(1, 1, 0, 0), E(1, 0, 1, -1)], None,
     "E_1 edge Edge(level=1, source=0, order=1, target=-1) targets nonexistent vertex -1 of V_0"),
    ([1, 1], [E(1, 0, 0, 0)], {(1, 3): "y"}, "label on nonexistent vertex 3 of V_1"),
    ([1, 1], [E(1, 0, 0, 0)], {(1, -1): "y"}, "label on nonexistent vertex -1 of V_1"),
    ([1, 1], [E(1, 0, 0, 0)], {(2, 0): "y"}, "label on nonexistent vertex 0 of V_2"),
    ([1, 1], [E(1, 0, 0, 0)], {(1, 0): b"y"}, "label of vertex 0 of V_1 is not a str: b'y'"),
    # values whose BVD text would not read back as them: edge fields and
    # label vertices must be integers and no bool
    ([1, 1], [E(1, 0, 0, 0)], {(1, 0.5): "x"}, "a label vertex has a float field, not an integer"),
    ([1, 1], [E(1, 0, 0, 0)], {(True, 0): "x"}, "a label vertex has a bool field, not an integer"),
    ([1, 2], [E(1, 0, 0, 0), E(1, True, 0, 0)], None, "an edge has a bool field, not an integer"),
    ([1, 1], [E(1, 0, 0.0, 0)], None, "an edge has a float field, not an integer"),
    ([1, 1], [E(1, 0.5, 0, 0)], None, "an edge has a float field, not an integer"),
    ([1, 1], [E(1.0, 0, 0, 0)], None, "an edge has a float field, not an integer"),
    # types are checked before ranges, so a str level is refused as a type
    ([1, 1], [E("1", 0, 0, 0)], None, "an edge has a str field, not an integer"),
    ([1, 1], [E(1, 0, 0, 0), E(2, 0, 0, 0)], None, "edge level 2 outside 1..1"),
    ([1, 1], [E(1, 0, 0, 0), E(0, 0, 0, 0)], None, "edge level 0 outside 1..1"),
    ([1], [E(1, 0, 0, 0)], None, "edge level 1 outside 1..0"),
    # of several bad levels the least is named, wherever it stands
    ([1, 1], [E(7, 0, 0, 0), E(1, 0, 0, 0), E(3, 0, 0, 0)], None, "edge level 3 outside 1..1"),
    ([1, 1], [E(3, 0, 0, 0), E(1, 0, 0, 0), E(-2, 0, 0, 0)], None, "edge level -2 outside 1..1"),
    # a str order would otherwise fail the sort with a TypeError
    ([1, 1], [E(1, 0, 0, 0), E(1, 0, "1", 0)], None, "an edge has a str field, not an integer"),
])
def test_constructor_rejects_what_its_tables_cannot_hold(sizes, edges, labels, message):
    with pytest.raises(ValueError) as err:
        OrderedBratteliDiagram(sizes, edges, labels)
    assert str(err.value) == message


def test_level_sizes_go_through_operator_index():
    # no truncation of 1.9 to 1, and no parsing of "1"
    for size in (1.9, "1", None):
        with pytest.raises(TypeError):
            OrderedBratteliDiagram([1, size], [E(1, 0, 0, 0)])
    d = OrderedBratteliDiagram([1, True], [E(1, 0, 0, 0)])
    assert d.level_sizes == (1, 1) and type(d.level_sizes[1]) is int


def test_an_edge_that_is_no_edge_is_refused_wherever_it_stands():
    with pytest.raises(AttributeError, match="level"):
        OrderedBratteliDiagram([1, 3], [E(1, 0, 0, 0), (1, 1, 0, 0), E(1, 2, 0, 0)])


def test_other_integer_types_are_accepted_and_round_trip():
    np = pytest.importorskip("numpy")
    one, zero = np.int64(1), np.uint8(0)
    d = OrderedBratteliDiagram([1, one], [E(1, zero, zero, 0)], {(one, zero): "x"})
    assert d.level_sizes == (1, 1) and type(d.level_sizes[1]) is int
    assert deserialize(serialize(d)).structurally_equal(d)


@pytest.mark.parametrize("sizes,edges,codes,fans_from,fans_to", [
    # vertex 1 of V_1 sources nothing
    ([1, 2], [E(1, 0, 0, 0)],
     [("uncovered-source", 1, 1)],
     [[(E(1, 0, 0, 0),), ()]],
     [[(E(1, 0, 0, 0),)]]),
    # vertex 1 of V_1 is the target of no E_2 edge
    ([1, 2, 1], [E(1, 0, 0, 0), E(1, 1, 0, 0), E(2, 0, 0, 0)],
     [("uncovered-target", 1, 1)],
     [[(E(1, 0, 0, 0),), (E(1, 1, 0, 0),)], [(E(2, 0, 0, 0),)]],
     [[(E(1, 0, 0, 0), E(1, 1, 0, 0))], [(E(2, 0, 0, 0),), ()]]),
    # two E_2 edges share (source, order) but not their target; the
    # constructor lists them by target, whatever order they are given in
    ([1, 2, 1], [E(1, 0, 0, 0), E(1, 1, 0, 0), E(2, 0, 0, 1), E(2, 0, 0, 0)],
     [("order-not-permutation", 2, 0)],
     [[(E(1, 0, 0, 0),), (E(1, 1, 0, 0),)], [(E(2, 0, 0, 0), E(2, 0, 0, 1))]],
     [[(E(1, 0, 0, 0), E(1, 1, 0, 0))], [(E(2, 0, 0, 0),), (E(2, 0, 0, 1),)]]),
])
def test_fan_tables_on_invalid_diagrams(sizes, edges, codes, fans_from, fans_to):
    d = OrderedBratteliDiagram(sizes, edges)
    assert [(v.code, v.level, v.vertex) for v in d.validate()] == codes
    for k in range(1, d.depth + 1):
        assert [d.edges_from(k, v) for v in range(sizes[k])] == fans_from[k - 1]
        assert [d.edges_to(k, u) for u in range(sizes[k - 1])] == fans_to[k - 1]
        for bad in (-1, sizes[k]):
            with pytest.raises(IndexError):
                d.edges_from(k, bad)
        for bad in (-1, sizes[k - 1]):
            with pytest.raises(IndexError):
                d.edges_to(k, bad)
        level_edges = d.edges_at(k)
        assert [d.edge_index(e) for e in level_edges] == list(range(len(level_edges)))
        assert [d.edge_index(tuple(e)) for e in level_edges] == list(range(len(level_edges)))
        with pytest.raises(ValueError, match="does not belong to this diagram"):
            d.edge_index(E(k, 0, 99, 0))
    for level in (0, d.depth + 1):
        with pytest.raises(IndexError):
            d.edges_from(level, 0)
        with pytest.raises(IndexError):
            d.edges_to(level, 0)
        with pytest.raises(ValueError, match="does not belong to this diagram"):
            d.edge_index(E(level, 0, 0, 0))


def test_edges_from_sorted_and_range_checked():
    d = odometer(2)
    fan = d.edges_from(1, 0)
    assert [e.order for e in fan] == [0, 1]
    assert len(fan) == 2
    with pytest.raises(IndexError):
        d.edges_from(1, 1)
    with pytest.raises(IndexError):
        d.edges_from(3, 0)


def test_extend_and_errors():
    d = odometer(2)
    p = empty_prefix(d)
    e1 = d.edges_at(1)[0]
    p1 = p.extend(e1)
    assert p1.depth == 1 and p1.source == (1, 0)
    # adjacency violation: an E_1 edge again
    with pytest.raises(ValueError):
        p1.extend(e1)
    p2 = p1.extend(d.edges_at(2)[1])
    assert p2.depth == 2
    with pytest.raises(ValueError, match="exceeds truncation depth"):
        p2.extend(Edge(3, 0, 0, 0))
    # foreign edge object
    with pytest.raises(ValueError):
        p.extend(Edge(1, 0, 7, 0))


def test_path_spec_round_trip():
    d = example_7_2(4)
    p = parse_path_spec(d, "2/9/17/33")
    assert str(p) == "2/9/17/33"
    assert p.depth == 4
    with pytest.raises(ValueError):
        parse_path_spec(d, "2/x/1")
    with pytest.raises(ValueError):
        parse_path_spec(d, "")
    with pytest.raises(ValueError):
        parse_path_spec(d, "999")


def test_serialize_round_trip_odometer():
    d = odometer(4)
    assert deserialize(serialize(d)).structurally_equal(d)


def test_serialize_round_trip_labels_with_escapes():
    d = OrderedBratteliDiagram(
        [1, 1], [Edge(1, 0, 0, 0)],
        {(1, 0): 'line1\nline2 "quoted" back\\slash', (0, 0): "root"})
    d2 = deserialize(serialize(d))
    assert d2.structurally_equal(d)
    assert d2.label(1, 0) == 'line1\nline2 "quoted" back\\slash'


def test_deserialize_accepts_crlf_line_ends():
    # each record is stripped, so a \r before its \n is not part of it
    text = serialize(example_7_2(6))
    assert deserialize(text.replace("\n", "\r\n")).structurally_equal(deserialize(text))


@settings(max_examples=300)
@given(st.lists(st.none() | st.text(), min_size=1, max_size=3))
# a bare \r, then every other character that str.splitlines breaks at
@example(["a\rb"])
@example([None, "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029", "\r\n\n\r"])
def test_serialize_round_trips_any_label(texts):
    # a chain of one vertex per level; None leaves its vertex unlabelled
    d = OrderedBratteliDiagram([1] * len(texts), [Edge(k, 0, 0, 0) for k in range(1, len(texts))],
                               {(k, 0): t for k, t in enumerate(texts) if t is not None})
    assert deserialize(serialize(d)).structurally_equal(d)


def test_serialize_reads_labels_once(monkeypatch):
    # the labels property copies the whole dict, so a read per label is quadratic
    d = OrderedBratteliDiagram([1, 2], [Edge(1, 0, 0, 0), Edge(1, 1, 0, 0)],
                               {(1, 1): "b", (0, 0): "root", (1, 0): "a"})
    reads = []
    labels = OrderedBratteliDiagram.labels.fget
    monkeypatch.setattr(OrderedBratteliDiagram, "labels",
                        property(lambda self: reads.append(1) or labels(self)))
    text = serialize(d)
    assert len(reads) <= 1
    assert text.splitlines()[4:7] == ['LABEL 0 0 "root"', 'LABEL 1 0 "a"', 'LABEL 1 1 "b"']


def test_deserialize_reports_line_numbers():
    text = "BVD 1\nDEPTH 2\nLEVEL 0 1\nLEVEL 1 2\nLEVEL 2 2\nEDGE 2 5 0 1\n"
    with pytest.raises(BVDParseError) as err:
        deserialize(text)
    assert err.value.line == 6
    assert "nonexistent source vertex 5" in str(err.value)


@pytest.mark.parametrize("label, message", [
    ('"a\\"', "dangling backslash in label"),
    ('"\\\\\\"', "dangling backslash in label"),
    ('"a\\x"', "unknown escape \\x"),
    ('"\\n\\t"', "unknown escape \\t"),
    ('"\\q\\"', "unknown escape \\q"),
    # serialize writes every quote as \", so a bare one is refused
    ('"a" "b"', "unescaped quote in label"),
    ('""""', "unescaped quote in label"),
    ('"a\\\\"b"', "unescaped quote in label"),
    ('"a"b\\x"', "unescaped quote in label"),
    ('"\\xa"b"', "unknown escape \\x"),
])
def test_deserialize_reports_bad_label_escapes(label, message):
    text = f"BVD 1\nDEPTH 1\nLEVEL 0 1\nLEVEL 1 1\nEDGE 1 0 0 0\n\nLABEL 1 0 {label}\n"
    with pytest.raises(BVDParseError) as err:
        deserialize(text)
    assert str(err.value) == f"line 7: {message}"


@pytest.mark.parametrize("text", ["BVD 1\nDEPTH 1\nLEVEL 0 1", "BVD 1\nDEPTH 1\nLEVEL 0 1\n",
                                  "BVD 1\r\nDEPTH 1\r\nLEVEL 0 1\r\n"])
def test_deserialize_reports_a_missing_record_at_the_last_line(text):
    # the '\n' that ends the last line starts no line after it
    with pytest.raises(BVDParseError) as err:
        deserialize(text)
    assert str(err.value) == "line 3: missing LEVEL 1"


def test_deserialize_validates_structure():
    # parses fine, but V_1 vertex is not covered downward/upward
    text = "BVD 1\nDEPTH 1\nLEVEL 0 1\nLEVEL 1 2\nEDGE 1 0 0 0\n"
    with pytest.raises(DiagramValidationError):
        deserialize(text)


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("text, error", [
    (serialize(odometer(3)), None),
    ("BVD 1\nDEPTH 1\nLEVEL 0 1\nLEVEL 1 1\nEDGE 1 0 0 x\n", BVDParseError),
    ("BVD 1\nDEPTH 1\nLEVEL 0 1\nLEVEL 1 2\nEDGE 1 0 0 0\n", DiagramValidationError),
], ids=["valid", "parse-error", "invalid"])
def test_deserialize_restores_the_collector_state(monkeypatch, enabled, text, error):
    paused = []
    validate = OrderedBratteliDiagram.validate
    monkeypatch.setattr(OrderedBratteliDiagram, "validate",
                        lambda d: paused.append(not gc.isenabled()) or validate(d))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if error is None:
            assert deserialize(text).structurally_equal(odometer(3))
        else:
            with pytest.raises(error):
                deserialize(text)
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()
    # the collector is paused while the diagram is built and checked
    assert paused == ([] if error is BVDParseError else [True])


def test_deserialize_ignores_comments_and_blank_lines():
    d = odometer(2)
    text = serialize(d)
    text = "# a comment\n" + text.replace("DEPTH 2", "DEPTH 2\n\n# inner comment")
    assert deserialize(text).structurally_equal(d)


def test_to_dot_binary_tree_counts():
    dot = to_dot(binary_tree(2))
    assert dot.count("[label=") == 1 + 2 + 4 + 6  # nodes + edges
    assert dot.count("->") == 6


def test_to_dot_parallel_edges_and_order_labels():
    dot = to_dot(odometer(2))
    assert dot.count("n1_0 -> n0_0") == 2
    assert '[label="0"]' in dot and '[label="1"]' in dot


def test_to_dot_example_7_2_labels():
    dot = to_dot(example_7_2(3))
    assert 'n1_0 [label="u"]' in dot
    assert 'n1_1 [label="v"]' in dot
    assert 'n1_2 [label="w"]' in dot
    # drawn double edge of the center column carries orders 0 and 1
    assert 'n2_2 -> n1_1 [label="0"]' in dot
    assert 'n2_2 -> n1_1 [label="1"]' in dot
    # left-family vertices: order 0 to the left parent, 1 to the center
    assert 'n2_0 -> n1_0 [label="0"]' in dot
    assert 'n2_0 -> n1_1 [label="1"]' in dot


def test_every_deep_vertex_reaches_the_root():
    for d in (binary_tree(4), odometer(4), example_7_2(4)):
        assert not d.validate()
        seen = set()
        for e in d.edges_at(d.depth):
            chain = [e]
            while chain[-1].level > 1:
                up = d.edges_from(chain[-1].level - 1, chain[-1].target)
                chain.append(up[0])
            seen.add(e.source)
        assert seen == set(range(d.level_size(d.depth)))


def test_prefix_hash_and_equality():
    d = odometer(3)
    a = prefix_from_indices(d, [0, 1])
    b = prefix_from_indices(d, [0, 1])
    c = prefix_from_indices(d, [1, 1])
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert len({a, b, c}) == 2
    # the diagram is part of the value: equal edges on another diagram differ
    other = odometer(3)
    assert PathPrefix(other, a.edges) != a
    # another class is never equal, not even the tuple of the fields
    assert a.__eq__((d, a.edges)) is NotImplemented and a != (d, a.edges)


def test_prefix_is_an_immutable_value():
    d = odometer(3)
    assert PathPrefix(d) == PathPrefix(d, ()) == empty_prefix(d)
    p = prefix_from_indices(d, [0, 1])
    assert PathPrefix(d, p.edges) == p
    for name in ("diagram", "edges"):
        with pytest.raises(AttributeError):
            setattr(p, name, ())
        with pytest.raises(AttributeError):
            delattr(p, name)
    assert p.edges == (Edge(1, 0, 0, 0), Edge(2, 0, 1, 0))
    # not a sequence: no length, no iteration
    assert not isinstance(p, tuple)
    with pytest.raises(TypeError):
        len(p)
    with pytest.raises(TypeError):
        iter(p)
    # the diagram stays out of the repr
    assert repr(p) == ("PathPrefix(edges=(Edge(level=1, source=0, order=0, target=0), "
                       "Edge(level=2, source=0, order=1, target=0)))")
    assert repr(PathPrefix(d)) == "PathPrefix(edges=())"


def test_prefix_copies_and_pickles():
    d = odometer(3)
    p = prefix_from_indices(d, [1, 0, 1])
    q = copy.copy(p)
    assert q == p and q.diagram is d
    # pickled along with its diagram, the diagram stays shared
    d2, q = pickle.loads(pickle.dumps((d, p)))
    assert q.diagram is d2 and q == PathPrefix(d2, p.edges) and str(q) == "1/0/1"
    # pickled alone, it brings a structurally equal copy of its diagram
    q = pickle.loads(pickle.dumps(p))
    assert q.edges == p.edges and q.diagram.structurally_equal(d)


def test_violation_fields_and_defaults():
    assert Violation.__match_args__ == ("code", "message", "level", "vertex")
    v = Violation("c", "m")
    assert (v.code, v.message, v.level, v.vertex) == ("c", "m", None, None)
    assert v == Violation("c", "m", None, None) != Violation("c", "m", 1)
    assert repr(Violation("c", "m", level=2, vertex=3)) == (
        "Violation(code='c', message='m', level=2, vertex=3)")
    with pytest.raises(AttributeError):
        v.code = "d"


_DEPTH_1 = "BVD 1\nDEPTH 1\nLEVEL 0 1\nLEVEL 1 1\n"  # lines 1-4


@pytest.mark.parametrize("text,line,message", [
    # the header, then DEPTH, then LEVEL 0..K, each in turn
    ("", 1, "missing 'BVD 1' header"),
    ("# a comment\n\n", 2, "missing 'BVD 1' header"),
    ("DEPTH 1\n", 1, "expected 'BVD 1' header, got 'DEPTH 1'"),
    ("BVD 2\nDEPTH 0\nLEVEL 0 1\n", 1, "expected 'BVD 1' header, got 'BVD 2'"),
    ("BVD 1\n", 1, "missing DEPTH"),
    ("BVD 1\nDEPTH\n", 2, "DEPTH: expected 1 fields, got 0"),
    ("BVD 1\nDEPTH 1 2\n", 2, "DEPTH: expected 1 fields, got 2"),
    ("BVD 1\nDEPTH one\n", 2, "DEPTH: non-integer field"),
    ("BVD 1\nDEPTH -1\n", 2, "negative depth -1"),
    *[(f"BVD 1\nDEPTH {s}\n", 2, "DEPTH: non-integer field") for s in RESPELLINGS],
    ("BVD 1\nEDGE 1 0 0 0\n", 2, "expected DEPTH, got 'EDGE 1 0 0 0'"),
    ("BVD 1\nLEVEL 0 1\n", 2, "expected DEPTH, got 'LEVEL 0 1'"),
    ('BVD 1\n# note\nLABEL 0 0 "r"\n', 3, "expected DEPTH, got 'LABEL 0 0 \"r\"'"),
    ("BVD 1\nDEPTH 1\nDEPTH 1\n", 3, "expected LEVEL 0, got 'DEPTH 1'"),
    ("BVD 1\nDEPTH 2\nLEVEL 1 1\nEDGE 1 0 0 0\n", 3, "expected LEVEL 0, got 'LEVEL 1 1'"),
    ("BVD 1\nDEPTH 1\nLEVEL 0 1\nLEVEL 0 1\n", 4, "expected LEVEL 1, got 'LEVEL 0 1'"),
    ("BVD 1\nDEPTH 1\nLEVEL 0 1\nLEVEL 2 1\n", 4, "expected LEVEL 1, got 'LEVEL 2 1'"),
    ("BVD 1\nDEPTH 1\nLEVEL 0 1\nEDGE 1 0 0 0\nLEVEL 1 1\n", 4,
     "expected LEVEL 1, got 'EDGE 1 0 0 0'"),
    ("BVD 1\nDEPTH 1\nLEVEL 0\n", 3, "LEVEL: expected 2 fields, got 1"),
    ("BVD 1\nDEPTH 1\nLEVEL 0 1 1\n", 3, "LEVEL: expected 2 fields, got 3"),
    ("BVD 1\nDEPTH 1\nLEVEL 0 one\n", 3, "LEVEL: non-integer field"),
    *[(f"BVD 1\nDEPTH 1\nLEVEL 0 1\nLEVEL 1 {s}\n", 4, "LEVEL: non-integer field")
      for s in RESPELLINGS],
    ("BVD 1\nDEPTH 1\nLEVEL 0 1\nLEVEL 1 -2\n", 4, "negative vertex count -2"),
    ("BVD 1\nDEPTH 1\nLEVEL 0 1\n", 3, "missing LEVEL 1"),
    ("BVD 1\nDEPTH 1\nLEVEL 0 1\n# end\n", 4, "missing LEVEL 1"),
    # after LEVEL K: LABEL and EDGE records only
    (_DEPTH_1 + "EDGE 1 0 0 0\nDEPTH 1\n", 6, "DEPTH after the last level, LEVEL 1"),
    (_DEPTH_1 + "LEVEL 1 1\n", 5, "LEVEL after the last level, LEVEL 1"),
    (_DEPTH_1 + "LABEL 1 0\n", 5, "LABEL: expected level, vertex and quoted string"),
    (_DEPTH_1 + 'LABEL one 0 "x"\n', 5, "LABEL: non-integer field"),
    *[(_DEPTH_1 + f'LABEL 1 {s} "x"\n', 5, "LABEL: non-integer field") for s in RESPELLINGS],
    (_DEPTH_1 + 'LABEL 2 0 "x"\n', 5, "LABEL level 2 outside 0..1"),
    (_DEPTH_1 + 'LABEL -1 0 "x"\n', 5, "LABEL level -1 outside 0..1"),
    (_DEPTH_1 + 'LABEL 1 1 "x"\n', 5, "LABEL references nonexistent vertex 1 of V_1"),
    (_DEPTH_1 + 'LABEL 1 -1 "x"\n', 5, "LABEL references nonexistent vertex -1 of V_1"),
    (_DEPTH_1 + 'LABEL 1 0 "x"\nEDGE 1 0 0 0\nLABEL 1 0 "y"\n', 7,
     "duplicate LABEL for vertex 0 of V_1"),
    (_DEPTH_1 + 'LABEL 0 0 "x"\nLABEL 0 0 "x"\n', 6, "duplicate LABEL for vertex 0 of V_0"),
    (_DEPTH_1 + "LABEL 1 0 x\n", 5, "LABEL string must be double-quoted"),
    (_DEPTH_1 + 'LABEL 1 0 "\n', 5, "LABEL string must be double-quoted"),
    ("BVD 1\nDEPTH 0\nLEVEL 0 1\nBOGUS\n", 4, "unknown record 'BOGUS'"),
    (_DEPTH_1 + "EDGE 1 0 0 0\nBOGUS 1\n", 6, "unknown record 'BOGUS'"),
])
def test_deserialize_record_errors_pin_line_and_message(text, line, message):
    with pytest.raises(BVDParseError) as err:
        deserialize(text)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


_HEAD = "BVD 1\nDEPTH 2\nLEVEL 0 1\nLEVEL 1 2\nLEVEL 2 2\n"  # lines 1-5


@pytest.mark.parametrize("text,line,message", [
    (_HEAD + "EDGE 1 0 0\n", 6, "EDGE: expected 4 fields, got 3"),
    (_HEAD + "EDGE 1 0 0 0 0\n", 6, "EDGE: expected 4 fields, got 5"),
    (_HEAD + "EDGE 1 0 x 0\n", 6, "EDGE: non-integer field"),
    (_HEAD + "EDGE 1 0 0.0 0\n", 6, "EDGE: non-integer field"),
    # each spelling in a column of its own, and -0 in a second one
    (_HEAD + "EDGE +1 0 0 0\n", 6, "EDGE: non-integer field"),
    (_HEAD + "EDGE 1 1_0 0 0\n", 6, "EDGE: non-integer field"),
    (_HEAD + "EDGE 1 0 \u0662 0\n", 6, "EDGE: non-integer field"),
    (_HEAD + "EDGE 1 0 0 01\n", 6, "EDGE: non-integer field"),
    (_HEAD + "EDGE 1 -0 0 0\n", 6, "EDGE: non-integer field"),
    (_HEAD + "EDGE 2 1 0 -0\n", 6, "EDGE: non-integer field"),
    (_HEAD + "EDGE 3 0 0 0\n", 6, "edge level 3 outside 1..2"),
    (_HEAD + "EDGE 0 0 0 0\n", 6, "edge level 0 outside 1..2"),
    (_HEAD + "EDGE 2 2 0 0\n", 6, "EDGE references nonexistent source vertex 2 of V_2"),
    (_HEAD + "EDGE 2 -1 0 0\n", 6, "EDGE references nonexistent source vertex -1 of V_2"),
    (_HEAD + "EDGE 2 0 0 2\n", 6, "EDGE references nonexistent target vertex 2 of V_1"),
    (_HEAD + "EDGE 1 0 0 1\n", 6, "EDGE references nonexistent target vertex 1 of V_0"),
    (_HEAD + "EDGE 2 0 -1 0\n", 6, "negative edge order -1"),
    # several faults on one line: the checks run in the order above
    (_HEAD + "EDGE 3 -1 -1 -1\n", 6, "edge level 3 outside 1..2"),
    (_HEAD + "EDGE 2 5 -1 9\n", 6, "EDGE references nonexistent source vertex 5 of V_2"),
    (_HEAD + "EDGE 2 0 -1 9\n", 6, "EDGE references nonexistent target vertex 9 of V_1"),
    # faults on two lines: the earlier line is reported, whatever its check
    (_HEAD + "EDGE 1 0 0 0\nEDGE 2 0 -1 0\nEDGE 2 0 x 0\n", 7, "negative edge order -1"),
    (_HEAD + "EDGE 1 0 0 0\nEDGE 2 0 x 0\nEDGE 2 0 -1 0\n", 7, "EDGE: non-integer field"),
    (_HEAD + "EDGE 2 0 0 0\n# note\n\nEDGE 2 9 0 0\nEDGE 2 0 0\n", 9,
     "EDGE references nonexistent source vertex 9 of V_2"),
    (_HEAD + "EDGE 1 0 0 0\nBOGUS\nEDGE 2 9 0 0\n", 7, "unknown record 'BOGUS'"),
    (_HEAD + "EDGE 1 0 0 0\nEDGE 2 9 0 0\nBOGUS\n", 7,
     "EDGE references nonexistent source vertex 9 of V_2"),
])
def test_deserialize_edge_errors_pin_line_and_message(text, line, message):
    with pytest.raises(BVDParseError) as err:
        deserialize(text)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


def _example_lines():
    """BVD lines of example 7.2 at depth 10 and the 0-based index of the
    middle EDGE line, a level-9 edge."""
    lines = serialize(example_7_2(10)).splitlines()
    edge_rows = [i for i, s in enumerate(lines) if s.startswith("EDGE ")]
    middle = edge_rows[len(edge_rows) // 2]
    assert lines[middle].startswith("EDGE 9 ")
    return lines, middle


@pytest.mark.parametrize("bad,message", [
    ("EDGE 9 0 0", "EDGE: expected 4 fields, got 3"),
    ("EDGE 9 0 zero 0", "EDGE: non-integer field"),
    # in a run of 4,109 EDGE lines: the re-parse line by line names this one
    ("EDGE 9 510 1 0255", "EDGE: non-integer field"),
    ("EDGE 11 0 0 0", "edge level 11 outside 1..10"),
    ("EDGE 9 100000 0 0", "EDGE references nonexistent source vertex 100000 of V_9"),
    ("EDGE 9 0 0 100000", "EDGE references nonexistent target vertex 100000 of V_8"),
    ("EDGE 9 0 -2 0", "negative edge order -2"),
])
def test_deserialize_reports_bad_edge_deep_in_a_large_file(bad, message):
    lines, middle = _example_lines()
    lines[middle] = bad
    with pytest.raises(BVDParseError) as err:
        deserialize("\n".join(lines) + "\n")
    assert str(err.value) == f"line {middle + 1}: {message}"


def test_deserialize_reports_the_earlier_of_two_bad_edges():
    lines, middle = _example_lines()
    lines[middle] = "EDGE 9 0 -2 0"
    lines[middle + 700] = "EDGE 9 0 x 0"
    with pytest.raises(BVDParseError) as err:
        deserialize("\n".join(lines) + "\n")
    assert str(err.value) == f"line {middle + 1}: negative edge order -2"
    lines[middle], lines[middle - 700] = "EDGE 9 0 0 0", "EDGE 9 0 x 0"
    with pytest.raises(BVDParseError) as err:
        deserialize("\n".join(lines) + "\n")
    assert str(err.value) == f"line {middle - 699}: EDGE: non-integer field"


def test_deserialize_reports_edges_of_a_level_declared_late():
    # the prologue's records come in order, so the record after LEVEL 9 is
    # reported, not the first edge of level 10
    lines, _ = _example_lines()
    last = lines.index("LEVEL 10 1025")
    lines.append(lines.pop(last))
    assert last == 12 and lines[last] == 'LABEL 1 0 "u"'
    with pytest.raises(BVDParseError) as err:
        deserialize("\n".join(lines) + "\n")
    assert str(err.value) == "line 13: expected LEVEL 10, got 'LABEL 1 0 \"u\"'"


@pytest.mark.parametrize("offset", [4095, 4096, 4097])
def test_deserialize_reports_a_bad_edge_at_a_run_boundary(offset):
    # 10,000 EDGE lines from line 5004 on: runs of 4,096 lines are parsed in
    # one step, so these offsets sit on either side of a run's end
    lines = serialize(odometer(5000)).splitlines()
    first = next(i for i, s in enumerate(lines) if s.startswith("EDGE "))
    assert first + 1 == 5004 and len(lines) - first == 10000
    k = lines[first + offset].split()[1]
    lines[first + offset] = f"EDGE {k} 0 x 0"
    with pytest.raises(BVDParseError) as err:
        deserialize("\n".join(lines) + "\n")
    assert str(err.value) == f"line {5004 + offset}: EDGE: non-integer field"


def test_deserialize_reads_edge_tags_with_any_whitespace():
    d = example_7_2(4)
    lines = serialize(d).splitlines()
    first = next(i for i, s in enumerate(lines) if s.startswith("EDGE "))
    lines[first + 1] = lines[first + 1].replace("EDGE ", "EDGE\t")
    lines[first + 2] = "  " + lines[first + 2]
    # a no-break space after the tag: the line starts a run of its own
    lines[first + 4] = lines[first + 4].replace("EDGE ", "EDGE\u00a0")
    assert [s[:5] for s in lines[first:first + 5]] == [
        "EDGE ", "EDGE\t", "  EDG", "EDGE ", "EDGE\u00a0"]
    assert deserialize("\n".join(lines) + "\n").structurally_equal(d)
