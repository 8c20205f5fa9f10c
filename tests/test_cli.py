import hashlib
import os
import subprocess
import sys
import textwrap

import pytest

from bratteli.catalog import example_7_2, odometer
from bratteli.diagram import serialize
from conftest import CLI, CLI_ENV
from test_trapezoids import BVD_DIGESTS


def run(*args, **kw):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, env=CLI_ENV, **kw)


@pytest.fixture
def odometer_file(tmp_path):
    path = tmp_path / "odometer3.bvd"
    path.write_text(serialize(odometer(3)), encoding="utf-8")
    return str(path)


def test_build_fullshift_prints_level_sizes(tmp_path):
    out_path = tmp_path / "fs.bvd"
    res = run("build-fullshift", "--levels", "2", "--word-length", "12",
              "-o", str(out_path))
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["V_1 = 2", "V_2 = 11"]
    assert out_path.read_text(encoding="utf-8").startswith("BVD 1\n")


def test_build_fullshift_single_level():
    res = run("build-fullshift", "--levels", "1", "--word-length", "8", "-o", os.devnull)
    assert res.returncode == 0
    assert res.stdout.splitlines() == ["V_1 = 2"]


def test_build_fullshift_needs_no_word_length(tmp_path):
    out_path = tmp_path / "fs5.bvd"
    res = run("build-fullshift", "-k", "5", "-o", str(out_path))
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["V_1 = 2", "V_2 = 11", "V_3 = 15", "V_4 = 25", "V_5 = 39"]
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == BVD_DIGESTS[5]


def test_build_fullshift_window_too_small():
    res = run("build-fullshift", "--levels", "3", "--word-length", "5")
    assert res.returncode != 0
    assert "word-length" in res.stderr or "word length" in res.stderr


def test_markers_positions_mode():
    res = run("markers", "--word", "0101010101", "--rows", "2")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[0] == "ROW 1 determined=0..9 markers=0,1,2,3,4,5,6,7,8,9"
    assert lines[1] == "ROW 2 determined=1..7 markers=1,3,5,7"


def test_markers_render_mode():
    res = run("markers", "--word", "1111111111", "--rows", "3", "--render")
    assert res.returncode == 0
    top = res.stdout.splitlines()[0]
    assert top == "|1" * 10
    via_format = run("markers", "--word", "1111111111", "--rows", "3",
                     "--format", "text")
    assert via_format.stdout == res.stdout


def test_markers_usage_errors():
    assert run("markers", "--word", "0101", "--rows", "0").returncode == 2
    res = run("markers", "--word", "01", "--rows", "3")
    assert res.returncode == 1
    assert "too short" in res.stderr


def test_successor_orbit(odometer_file):
    res = run("successor", odometer_file, "0/0/0", "--steps", "7")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert len(lines) == 8
    assert lines[0] == "0/0/0" and lines[-1] == "1/1/1"
    assert "MAXIMAL-EXHAUSTED" not in res.stdout


def test_successor_truncates_at_exhaustion(odometer_file):
    res = run("successor", odometer_file, "0/1/1", "--steps", "5")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines == ["0/1/1", "1/1/1", "MAXIMAL-EXHAUSTED"]


def test_successor_malformed_path(odometer_file):
    assert run("successor", odometer_file, "0/x/1").returncode == 1
    assert run("successor", odometer_file, "9/9/9").returncode == 1


def test_successor_missing_file(tmp_path):
    assert run("successor", str(tmp_path / "nope.bvd"), "0").returncode == 1


def test_successor_negative_steps_is_usage_error(odometer_file):
    res = run("successor", odometer_file, "0/0/0", "--steps", "-1")
    assert res.returncode == 2
    assert res.stdout == ""
    assert "--steps must be >= 0" in res.stderr


@pytest.mark.parametrize("option,value,message", [
    ("--steps", "-1", "--steps must be >= 0"),
    ("--probe-depth", "0", "--probe-depth must be >= 1"),
])
def test_diagnose_bad_options_are_usage_errors(odometer_file, option, value, message):
    res = run("diagnose", odometer_file, option, value)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("usage:") and message in res.stderr


BAD_INPUTS = {
    "garbage-bvd": ("diagnose", "{garbage}"),
    "depth-0-bvd": ("diagnose", "{depth0}"),
    "huge-level-bvd": ("diagnose", "{huge}"),
    "path-letter": ("successor", "{odometer}", "0/x/1"),
    "path-empty": ("successor", "{odometer}", ""),
    "word-not-binary": ("markers", "--word", "012", "--rows", "1"),
    "levels-0": ("build-fullshift", "--levels", "0"),
    "word-length-too-short": ("build-fullshift", "-k", "2", "-L", "3"),
    "word-length-below-top-level": ("build-fullshift", "-k", "7", "-L", "18"),
    "widths-0": ("build-fullshift", "--widths", "0"),
    "widths-not-ints": ("build-fullshift", "--widths", "a,b"),
    "build-out-dir-missing": ("build-fullshift", "-k", "2", "-o", "{missing}"),
    "catalog-depth-1": ("catalog", "example-7-2", "--depth", "1"),
    "out-dir-missing": ("catalog", "odometer", "-o", "{missing}"),
}


# the whole stderr, where it is pinned
BAD_INPUT_MESSAGES = {
    "depth-0-bvd": "error: the diagram has no levels to diagnose\n",
    "huge-level-bvd": "error: out of memory\n",
    "word-length-too-short":
        "error: word length 3 below the dependence bound 9 for level 2; increase --word-length\n",
    # checked against the top level before any level is enumerated
    "word-length-below-top-level":
        "error: word length 18 below the dependence bound 29 for level 7; increase --word-length\n",
}


@pytest.mark.parametrize("name", BAD_INPUTS)
def test_bad_input_reports_without_traceback(name, tmp_path, odometer_file):
    files = {"garbage": tmp_path / "garbage.bvd", "depth0": tmp_path / "depth0.bvd",
             "huge": tmp_path / "huge.bvd",
             "odometer": odometer_file, "missing": tmp_path / "missing" / "out.bvd"}
    files["garbage"].write_text("hello world\n", encoding="utf-8")
    files["depth0"].write_text("BVD 1\nDEPTH 0\nLEVEL 0 1\n", encoding="utf-8")
    # 10^15 vertices: the per-vertex table is refused at once, not filled
    files["huge"].write_text("BVD 1\nDEPTH 1\nLEVEL 0 1\nLEVEL 1 1000000000000000\n",
                             encoding="utf-8")
    res = run(*(a.format(**files) for a in BAD_INPUTS[name]))
    assert res.returncode in (1, 2), res.stderr
    assert res.stderr.startswith("error: " if res.returncode == 1 else "usage:"), res.stderr
    assert "Traceback" not in res.stderr
    assert res.stdout == ""
    if name in BAD_INPUT_MESSAGES:
        assert res.stderr == BAD_INPUT_MESSAGES[name]


def test_dynamics_commands_leave_numpy_unloaded(tmp_path):
    # a fresh interpreter, since this one has numpy loaded already
    script = textwrap.dedent(f"""
        import contextlib, io, sys
        from bratteli import cli
        bvd = {str(tmp_path / "e72.bvd")!r}
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(["catalog", "example-7-2", "--depth", "4", "-o", bvd]),
                     cli.main(["diagnose", bvd]),
                     cli.main(["successor", bvd, "0/0/0/0", "--steps", "3"])]
        print(codes, "numpy" in sys.modules)
        # the package still exports the numpy layers, loaded on first use
        from bratteli import Edge, WidenSchedule, build_diagram, mark_all_rows
        print(build_diagram.__module__, mark_all_rows.__module__, WidenSchedule.__module__)
        # an Edge is a named tuple, equal to the plain tuple of its fields
        print(Edge(1, 0, 0, 0) == (1, 0, 0, 0))
    """)
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=CLI_ENV)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == [
        "[0, 0, 0] False",
        "bratteli.trapezoids bratteli.markers bratteli.trapezoids",
        "True",
    ]


def test_build_fullshift_leaves_markers_unloaded():
    # a fresh interpreter, since this one has the markers module loaded already
    script = textwrap.dedent(f"""
        import contextlib, io, sys
        from bratteli import cli
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["build-fullshift", "-k", "2", "-o", {os.devnull!r}])
        print(code, "bratteli.trapezoids" in sys.modules, "bratteli.markers" in sys.modules)
    """)
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=CLI_ENV)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["0 True False"]


def test_catalog_bvd_round_trips(tmp_path):
    res = run("catalog", "example-7-2", "--depth", "3", "--format", "bvd")
    assert res.returncode == 0
    from bratteli.diagram import deserialize
    d = deserialize(res.stdout)
    assert d.structurally_equal(example_7_2(3))


def test_catalog_dot_output():
    res = run("catalog", "odometer", "--depth", "4", "--format", "dot")
    assert res.returncode == 0
    assert res.stdout.count("->") == 8  # 4 double-edge levels
    assert res.stdout.startswith("digraph")


def test_catalog_unknown_name_lists_choices():
    res = run("catalog", "mystery")
    assert res.returncode == 2
    assert "binary-tree" in res.stderr and "example-7-3" in res.stderr


def test_diagnose_binary_tree(tmp_path):
    path = tmp_path / "bt.bvd"
    from bratteli.catalog import binary_tree
    path.write_text(serialize(binary_tree(4)), encoding="utf-8")
    res = run("diagnose", str(path), "--probe-depth", "3", "--steps", "2")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert "PREFIXES depth=1 maximal=2 minimal=2" in lines
    assert "WITNESS side=max depth=1 probe=4 count=2 status=candidate" in lines
    assert "WITNESS side=min depth=1 probe=4 count=2 status=candidate" in lines
    assert "ISOLATED side=max depth=1 count=0" in lines
    assert "PROFILE n=1 diameter=0 undetermined=16" in lines


def test_diagnose_example_7_2(tmp_path):
    path = tmp_path / "e72.bvd"
    path.write_text(serialize(example_7_2(6)), encoding="utf-8")
    res = run("diagnose", str(path), "--probe-depth", "3", "--steps", "4")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert "WITNESS side=max depth=1 probe=4 count=1 status=candidate" in lines
    assert "WITNESS-PATH side=max 2" in lines
    assert "WITNESS-PATH side=min 0" in lines


def test_diagnose_isolated_column(tmp_path):
    # odometer with an adjoined single-path column: that column's depth-1
    # prefix is an isolated extremal cylinder on both sides
    from bratteli.diagram import Edge, OrderedBratteliDiagram
    edges = [Edge(1, 0, 0, 0), Edge(1, 0, 1, 0), Edge(1, 1, 0, 0)]
    for k in (2, 3):
        edges += [Edge(k, 0, 0, 0), Edge(k, 0, 1, 0), Edge(k, 1, 0, 1)]
    d = OrderedBratteliDiagram([1, 2, 2, 2], edges)
    assert d.validate() == []
    path = tmp_path / "iso.bvd"
    path.write_text(serialize(d), encoding="utf-8")
    res = run("diagnose", str(path))
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert "ISOLATED side=max depth=1 count=1" in lines
    assert "ISOLATED side=min depth=1 count=1" in lines


def test_diagnose_probes_1500_levels(tmp_path):
    # deeper than the recursion limit: a chain, one vertex and one edge per
    # level, and the odometer
    from bratteli.diagram import Edge, OrderedBratteliDiagram
    chain = OrderedBratteliDiagram([1] * 1501, [Edge(k, 0, 0, 0) for k in range(1, 1501)])
    for d, line in ((chain, "WITNESS side=max depth=1 probe=1500 count=1 status=candidate"),
                    (odometer(1500), "WITNESS side=max depth=1 probe=1500 count=0 "
                                     "status=certified-absent-to-probe")):
        path = tmp_path / "deep.bvd"
        path.write_text(serialize(d), encoding="utf-8")
        res = run("diagnose", str(path), "--probe-depth", "1500")
        assert res.returncode == 0, res.stderr
        assert line in res.stdout.splitlines()


def test_outputs_are_deterministic(tmp_path):
    args = ("catalog", "example-7-3", "--depth", "4", "--format", "dot")
    assert run(*args).stdout == run(*args).stdout
    a = run("build-fullshift", "--levels", "2", "--word-length", "12")
    b = run("build-fullshift", "--levels", "2", "--word-length", "12")
    assert a.stdout == b.stdout
