import hashlib

import pytest

from bratteli import cli
from bratteli.catalog import (CONSTRUCTORS, binary_tree, example_7_1,
                              example_7_2, example_7_3, odometer)
from bratteli.diagram import deserialize, serialize
from bratteli.vershik import (interior_witness, maximal_prefixes,
                              minimal_prefixes, orbit, successor)


@pytest.mark.parametrize("name,make", sorted(CONSTRUCTORS.items()))
def test_all_catalog_diagrams_validate_up_to_depth_10(name, make):
    for depth in range(2, 11):
        d = make(depth)
        assert d.validate() == [], (name, depth)


@pytest.mark.parametrize("name,make", sorted(CONSTRUCTORS.items()))
def test_extremal_counts_match_level_sizes(name, make):
    d = make(6)
    for n in range(1, 7):
        assert len(maximal_prefixes(d, n)) == d.level_size(n)
        assert len(minimal_prefixes(d, n)) == d.level_size(n)


@pytest.mark.parametrize("name,make", sorted(CONSTRUCTORS.items()))
def test_serialize_round_trip(name, make):
    d = make(4)
    assert deserialize(serialize(d)).structurally_equal(d)


def test_depth_validation():
    with pytest.raises(ValueError):
        binary_tree(0)
    with pytest.raises(ValueError):
        example_7_2(1)
    with pytest.raises(ValueError):
        example_7_3(1)


def test_binary_tree_structure():
    d = binary_tree(4)
    assert d.level_sizes == (1, 2, 4, 8, 16)
    for k in range(1, 5):
        for v in range(2 ** k):
            fan = d.edges_from(k, v)
            assert len(fan) == 1 and fan[0].target == v // 2


def test_odometer_structure_and_orbit():
    d = odometer(4)
    assert d.level_sizes == (1, 1, 1, 1, 1)
    for k in range(1, 5):
        assert [e.order for e in d.edges_from(k, 0)] == [0, 1]
    start = next(iter(minimal_prefixes(d, 4)))
    assert len(orbit(start, 200)) == 16
    assert len(maximal_prefixes(d, 4)) == 1


def test_example_7_1_structure():
    d = example_7_1(5)
    assert d.level_sizes == (1, 2, 4, 8, 16, 32)
    for k in range(1, 6):
        for v in range(2 ** k):
            fan = d.edges_from(k, v)
            assert len(fan) == (2 if v % 2 else 1)
            assert all(e.target == v // 2 for e in fan)
    assert interior_witness(d, "max", 1, 2) == []
    assert interior_witness(d, "min", 1, 2) == []


def test_example_7_2_structure():
    d = example_7_2(5)
    assert d.level_sizes == (1, 3, 5, 9, 17, 33)
    assert [d.label(1, i) for i in range(3)] == ["u", "v", "w"]
    # left family: 0 -> left parent, 1 -> center
    assert [e.target for e in d.edges_from(2, 0)] == [0, 1]
    assert [e.target for e in d.edges_from(3, 1)] == [0, 2]
    # center column doubles on itself (center of level 3 is vertex 4)
    assert [e.target for e in d.edges_from(3, 4)] == [2, 2]
    # right family: 0 -> center, 1 -> right parent
    assert [e.target for e in d.edges_from(2, 3)] == [1, 2]
    assert [e.target for e in d.edges_from(3, 7)] == [2, 4]


def test_example_7_2_center_successor_exhausts():
    d = example_7_2(5)
    center = 2 ** 4
    center_max = [p for p in maximal_prefixes(d, 5) if p.edges[-1].source == center]
    assert len(center_max) == 1
    assert successor(center_max[0]) is None


def test_example_7_3_structure():
    d = example_7_3(4)
    assert d.level_sizes == (1, 4, 6, 10, 18)
    assert [d.label(1, i) for i in range(4)] == ["u", "v1", "v2", "w"]
    # the two center columns are vertex-disjoint odometers
    for k in range(2, 5):
        c1, c2 = 2 ** (k - 1), 2 ** (k - 1) + 1
        p1, p2 = (2 ** (k - 2), 2 ** (k - 2) + 1) if k > 2 else (1, 2)
        assert [e.target for e in d.edges_from(k, c1)] == [p1, p1]
        assert [e.target for e in d.edges_from(k, c2)] == [p2, p2]
    # left family splits between the centers by halves
    assert [e.target for e in d.edges_from(2, 0)] == [0, 1]
    assert [e.target for e in d.edges_from(2, 1)] == [0, 2]
    assert [e.target for e in d.edges_from(3, 0)] == [0, 2]
    assert [e.target for e in d.edges_from(3, 3)] == [1, 3]
    # right family mirrors
    assert [e.target for e in d.edges_from(2, 4)] == [1, 3]
    assert [e.target for e in d.edges_from(2, 5)] == [2, 3]
    assert [e.target for e in d.edges_from(3, 6)] == [2, 4]
    assert [e.target for e in d.edges_from(3, 9)] == [3, 5]


# sha256 of the serialized `catalog NAME --depth D` diagram, and of the
# `diagnose` (default options) and `successor --steps 64` stdout from the
# all-zero path, recorded when examples 7.2 and 7.3 still had a constructor
# each and successor, predecessor and the extremal sets each walked the fans
EXAMPLE_BVD_DIGESTS = {
    ("example-7-2", 2): "6dee609b78c22d62cae3ef3bb7e7311cc2cbe17c04f9b85b5b1b5246bd12fd90",
    ("example-7-2", 3): "5a6dd9be346c91b30a088b40c02aac74e08b4b7f2f16aa94354973e2d5f08a5b",
    ("example-7-2", 4): "7f7a4fe44a369c784983387e06f4e4b9a40d8b6ba673f39391b1fe4a88e9ea59",
    ("example-7-2", 5): "d4601d5309bd4383af1c1733fe563e3ffe658eee8d94cd7fcc4d299ccc7a462d",
    ("example-7-2", 6): "a77940fdfb7b521e1c3f6342a6dc4d3cab942ee5b327ad0e1e317e8232175339",
    ("example-7-2", 7): "0b9ef799311889b2814b6b154ae33c7fe6fcebb39f369b3b976bd61c0c7610c7",
    ("example-7-2", 8): "9d70ba4977604341712472bf7b1d44a572a09e4c65cd3c712f50846ea57ac1b4",
    ("example-7-3", 2): "73e5c7ae8f2da614e1855156881e4230c60981bc2f9ec7ce4895ce5a8ebe9666",
    ("example-7-3", 3): "877fc965c4b5fcd972f0394dfad1d4e6baa52051b71e16fb3c417853898a8072",
    ("example-7-3", 4): "4ae40e6e0708bb5acb06ea2ce72b9daff53c9fb019c002761a76986859054acc",
    ("example-7-3", 5): "1d020c1f5075685ad847e76f0ad1b6a7be7dd06179af76126a44b0cf988b52c0",
    ("example-7-3", 6): "ad0a9f9a1a85e95bfe103728b421b293e0439070b6b1599fd484971ad8d1129b",
    ("example-7-3", 7): "381659244c2a77413c95a289b5a2ed94f96951b7c4beaa401dd250537d8fc83b",
    ("example-7-3", 8): "d6df5a1d0ca81c68de6af4ae5e8e11555f348e2b96e0e84fe64377c7441bcf20",
}
DYNAMICS_STDOUT_DIGESTS = {
    ("example-7-2", 10, "diagnose"): "0953aef1bf193ccaeae6041030420bce425c0b6b9d135b4462f4bb887ffa1bd8",
    ("example-7-2", 10, "successor"): "5af6a500d9623010db7357520eaf5800b7ca347c1458d097c074722e65c1df9a",
    ("example-7-3", 8, "diagnose"): "ed5e18ed3b18fda5672ddf883e591fa01c3fc3d7460cae7b001f9eb8bdee7264",
    ("example-7-3", 8, "successor"): "6c836304d79c1651eedeb8c06bf7bbb0a323c2122bfa2fefcb785d2e98ddd597",
}


@pytest.mark.parametrize("name,depth", sorted(EXAMPLE_BVD_DIGESTS))
def test_example_bvd_digest(name, depth):
    text = serialize(CONSTRUCTORS[name](depth))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == EXAMPLE_BVD_DIGESTS[name, depth]


@pytest.mark.parametrize("name,depth,command", sorted(DYNAMICS_STDOUT_DIGESTS))
def test_dynamics_stdout_digest(name, depth, command, tmp_path, capsys):
    path = tmp_path / "example.bvd"
    path.write_text(serialize(CONSTRUCTORS[name](depth)), encoding="utf-8")
    args = {"diagnose": ["diagnose", str(path)],
            "successor": ["successor", str(path), "/".join(["0"] * depth), "--steps", "64"]}
    assert cli.main(args[command]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DYNAMICS_STDOUT_DIGESTS[name, depth, command]
