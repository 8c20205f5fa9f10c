"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v``.
"""

import itertools
import math
import random
import subprocess
import time
from contextlib import contextmanager

import pytest

from bratteli.catalog import (binary_tree, example_7_1, example_7_2,
                              example_7_3, odometer)
from bratteli.diagram import prefix_from_indices
from bratteli.markers import dominates, mark_all_rows, row_markers
from bratteli.trapezoids import (WidenSchedule, enumerate_level, path_to_window,
                                 render_trapezoid, window_shift_mismatches)
from bratteli.vershik import (all_prefixes, image_diameter_profile,
                              interior_witness, is_maximal_prefix,
                              minimal_prefixes, orbit, successor)
from conftest import CLI, CLI_ENV, enumerate_prefixes, inverse_lex_key

W1 = WidenSchedule((1,))
WORD_LENGTH = 18


@pytest.fixture
def report(capsys):
    @contextmanager
    def reporter(name):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"ACCEPTANCE {name}: FAIL")
            raise
        with capsys.disabled():
            print(f"ACCEPTANCE {name}: PASS")
    return reporter


def test_01_level_counts_via_cli(report, tmp_path):
    with report("01 level-counts"):
        started = time.monotonic()
        res = subprocess.run(
            CLI + ["build-fullshift", "--levels", "3", "--word-length", str(WORD_LENGTH),
                   "--widths", "1", "-o", str(tmp_path / "fullshift.bvd")],
            capture_output=True, text=True, env=CLI_ENV)
        elapsed = time.monotonic() - started
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines() == ["V_1 = 2", "V_2 = 11", "V_3 = 15"]
        assert elapsed < 60.0, f"build took {elapsed:.1f}s"


def test_02_level2_contents(report):
    with report("02 level-2 contents"):
        pictures = {render_trapezoid(t) for t in enumerate_level(2, W1)}
        expected = {
            "0|0|0\n |0|", "0|0|1\n |0|", "1|0|0\n |0|",
            "0|1|0|1\n |1 0|", "0|1|0|0\n |1 0|",
            "1|1|0|0\n |1 0|", "1|1|0|1\n |1 0|",
            "0|1|0\n |1|", "0|1|1\n |1|", "1|1|0\n |1|", "1|1|1\n |1|",
        }
        assert "0|0|0\n |0|" in pictures
        assert "0|1|0|1\n |1 0|" in pictures
        assert pictures == expected


def test_03_marker_invariants_exhaustive(report):
    with report("03 marker invariants (2^12 words)"):
        started = time.monotonic()
        violations = 0
        for bits in itertools.product("01", repeat=12):
            mw = mark_all_rows("".join(bits), 3)
            row1 = mw.row(1)
            if row1.positions != frozenset(range(row1.lo, row1.hi + 1)):
                violations += 1
            for k in (1, 2):
                upper, lower = mw.row(k), mw.row(k + 1)
                lo, hi = max(upper.lo, lower.lo), min(upper.hi, lower.hi)
                if {p for p in lower.positions if lo <= p <= hi} - upper.positions:
                    violations += 1
            for k in (1, 2, 3):
                pos = sorted(mw.row(k).positions)
                if any(b - a > k for a, b in zip(pos, pos[1:])):
                    violations += 1
        elapsed = time.monotonic() - started
        assert violations == 0
        assert elapsed < 10.0, f"sweep took {elapsed:.1f}s"


def test_04_shift_equivariance(report):
    with report("04 shift equivariance (1000 random words)"):
        rng = random.Random(20240)
        violations = 0
        for _ in range(1000):
            word = "".join(rng.choice("01") for _ in range(24))
            full = {k: row_markers(word, k) for k in (1, 2, 3)}
            for s in range(1, 7):
                for k in (1, 2, 3):
                    cut = row_markers(word[s:], k)
                    lo = max(full[k].lo - s, cut.lo)
                    hi = min(full[k].hi - s, cut.hi)
                    translated = {p - s for p in full[k].positions if lo <= p - s <= hi}
                    restricted = {p for p in cut.positions if lo <= p <= hi}
                    if translated != restricted:
                        violations += 1
        assert violations == 0


def test_05_domination_prefix_property(report):
    with report("05 domination prefix property"):
        violations = 0
        for length in range(2, 9):
            words = ["".join(w) for w in itertools.product("01", repeat=length)]
            for a in words:
                for b in words:
                    if dominates(a, b) and not dominates(a[:-1], b[:-1]):
                        violations += 1
        assert violations == 0


def test_06_successor_is_left_shift(report, fullshift3):
    with report("06 successor = left shift on windows"):
        checked = 0
        for p in all_prefixes(fullshift3, 3):
            if is_maximal_prefix(p):
                continue
            q = successor(p)
            mismatches = window_shift_mismatches(path_to_window(fullshift3, p),
                                                 path_to_window(fullshift3, q))
            assert mismatches == [], (str(p), mismatches)
            checked += 1
        assert checked > 0


def test_07_odometer_counter_oracle(report):
    with report("07 odometer counter oracle"):
        d = odometer(10)
        seq = orbit(prefix_from_indices(d, [0] * 10), 2 ** 10 - 1)
        assert len(seq) == 1024
        for value, p in enumerate(seq):
            expected = tuple((value >> bit) & 1 for bit in range(10))
            assert p.indices() == expected
        assert successor(seq[-1]) is None


def test_08_brute_force_successor_equivalence(report):
    with report("08 brute-force successor equivalence"):
        for make in (binary_tree, odometer, example_7_1, example_7_2, example_7_3):
            d = make(5)
            for depth in range(1, 6):
                classes = {}
                for p in enumerate_prefixes(d, depth):
                    classes.setdefault(p.edges[-1].source, []).append(p)
                for group in classes.values():
                    group.sort(key=inverse_lex_key)
                    for p, expected in zip(group, group[1:] + [None]):
                        assert successor(p) == expected, str(p)


def test_09_shrinkage_example_7_2(report):
    with report("09 image shrinkage on the u/v/w diagram"):
        d = example_7_2(8)
        mins = sorted(minimal_prefixes(d, 8), key=lambda p: p.indices())
        central = next(p for p in mins if p.edges[-1].source == 2 ** 7)
        u_family = [p for p in mins if p.edges[0].source == 0]
        assert len(u_family) == 2 ** 7

        def advance(p, steps):
            for _ in range(steps):
                p = successor(p)
                assert p is not None
            return p

        def shared_edges(a, b):
            n = 0
            for x, y in zip(a.edges, b.edges):
                if x != y:
                    break
                n += 1
            return n

        profile = image_diameter_profile(d, 32, 8)
        previous = None
        for n in (1, 2, 4, 8, 16, 32):
            bound = math.floor(math.log2(n)) + 1
            central_image = advance(central, n)
            for p in u_family:
                assert shared_edges(advance(p, n), central_image) >= bound
            assert profile[n].diameter <= 2.0 ** (-bound)
            if previous is not None:
                assert profile[n].diameter <= previous
            previous = profile[n].diameter


def test_10_diagnostics_fixtures(report, fullshift3):
    with report("10 diagnostics fixtures"):
        bt = binary_tree(4)
        assert len(interior_witness(bt, "max", 1, 3)) == 2
        assert len(interior_witness(bt, "min", 1, 3)) == 2
        assert interior_witness(fullshift3, "max", 1, 2) == []
        assert interior_witness(fullshift3, "min", 1, 2) == []
        e72 = example_7_2(6)
        assert [p.edges[0].source for p in interior_witness(e72, "max", 1, 4)] == [2]
        assert [p.edges[0].source for p in interior_witness(e72, "min", 1, 4)] == [0]


def test_11_stabilization(report, tmp_path):
    with report("11 stabilization L vs L+2"):
        runs = []
        for length in (WORD_LENGTH, WORD_LENGTH + 2):
            out = tmp_path / f"fullshift-{length}.bvd"
            res = subprocess.run(
                CLI + ["build-fullshift", "-k", "3", "-L", str(length), "-o", str(out)],
                capture_output=True, text=True, env=CLI_ENV)
            assert res.returncode == 0, res.stderr
            runs.append((res.stdout, out.read_bytes()))
        assert runs[0] == runs[1]
        assert runs[0][0].splitlines() == ["V_1 = 2", "V_2 = 11", "V_3 = 15"]
