"""Timing of the level-k trapezoid enumeration.

For every level it times the whole ``enumerate_level`` call (growing each
core width's windows cell by cell, merging equal states, then one
extraction per distinct span), best of ``--repeats``, and prints a table
with the most states held at once (``peak states``, the largest over core
widths), the distinct spans (``spans``, the number of extractions; a span
holds each row's marker bits over the range extraction reads) and the
trapezoids.  Spans and peak states are counted in the timed calls, through
a wrapper around ``trapezoids._grow_spans``, so no level grows twice in a
repeat.  The JSON records keep the key ``fingerprints`` for the spans,
so older records still compare.  The marker tables the growth reads are
built on a level's first repeat and shared by the later repeats and levels.
``--widths`` sets the widening schedule.  With ``--json FILE`` the
table is also stored in FILE under the git revision of the imported
``bratteli`` source (``-dirty`` when that source differs from ``HEAD``), with
`` widths=...`` appended for a schedule other than ``1``, replacing an
earlier record under the same name.

With ``--build K`` it also runs ``bratteli build-fullshift -k K`` once in a
child process and records its wall time, its peak RSS (``ru_maxrss`` from
``os.wait4`` in a small launcher process), its level sizes and the sha256
of the BVD it writes.  At widths ``1`` and a K that ``tests/test_trapezoids.py``
pins a digest for in ``BVD_DIGESTS``, or at K = 4 and a schedule it pins in
``WIDE_BVD_DIGESTS``, that sha256 must equal the digest, or the benchmark
exits 1.

    python benchmarks/bench_enumeration.py --levels 3
    python benchmarks/bench_enumeration.py --levels 6 --build 7 --json BENCH_enumeration.json
    python benchmarks/bench_enumeration.py --widths 1,3 --levels 4 --build 4 \\
        --json BENCH_enumeration.json
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

import bratteli
from bratteli import trapezoids
from bratteli.trapezoids import WidenSchedule, enumerate_level

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from test_trapezoids import BVD_DIGESTS, WIDE_BVD_DIGESTS  # noqa: E402

# the pinned sha256 of build-fullshift's BVD, by (K, widths)
PINNED = {**{(k, (1,)): digest for k, digest in BVD_DIGESTS.items()},
          **{(4, widths): digest for widths, (_, digest) in WIDE_BVD_DIGESTS.items()}}


def best_of(repeats, fn):
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


@contextmanager
def counted_growth(grown):
    """Append the span count and peak states of every ``_grow_spans`` call
    that ``enumerate_level`` makes while the block runs to ``grown``."""
    grow = trapezoids._grow_spans

    def counted(*args):
        spans, peak = grow(*args)
        spans = list(spans)
        grown.append((len(spans), peak))
        return spans, peak

    trapezoids._grow_spans = counted
    try:
        yield
    finally:
        trapezoids._grow_spans = grow


def measure(level, schedule, repeats):
    grown = []
    with counted_growth(grown):
        level_s, traps = best_of(repeats, lambda: enumerate_level(level, schedule))
    last_run = grown[-level:]  # one call per core width
    return {"level": level, "enumerate_level_s": round(level_s, 4),
            "peak_states": max(peak for _, peak in last_run),
            "fingerprints": sum(spans for spans, _ in last_run),
            "trapezoids": len(traps)}


def child_env():
    """The environment of a child interpreter that imports the same
    ``bratteli`` source as this one."""
    src = Path(bratteli.__file__).resolve().parent.parent
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}


# Runs the command given as its arguments with this process's stdout, then
# prints one more line, the command's ru_maxrss (KiB) and wall time, and exits
# with its exit code.  A forked child's ru_maxrss starts at its parent's RSS,
# so commands are forked from this small interpreter, not from the benchmark.
LAUNCHER = ("import os, subprocess, sys, time\n"
            "t0 = time.perf_counter()\n"
            "proc = subprocess.Popen(sys.argv[1:])\n"
            "_, status, usage = os.wait4(proc.pid, 0)\n"
            "print(usage.ru_maxrss, time.perf_counter() - t0)\n"
            "sys.exit(os.waitstatus_to_exitcode(status))\n")


def run_cli(args):
    """Stdout, wall time and peak RSS (MB) of ``python -m bratteli ARGS``
    run in a child process."""
    cmd = [sys.executable, "-m", "bratteli", *args]
    proc = subprocess.run([sys.executable, "-c", LAUNCHER, *cmd], env=child_env(),
                          stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} exited with {proc.returncode}")
    stdout, _, last = proc.stdout[:-1].rpartition("\n")
    rss_kib, wall_s = last.split()
    return stdout, float(wall_s), int(rss_kib) / 1024


def build_once(levels, schedule):
    """Wall time, peak RSS, level sizes and BVD sha256 of one
    ``build-fullshift`` run in a child process."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "fullshift.bvd"
        stdout, wall_s, rss_mb = run_cli(
            ["build-fullshift", "-k", str(levels),
             "--widths", ",".join(map(str, schedule.widths)), "-o", str(out)])
        bvd_sha256 = hashlib.sha256(out.read_bytes()).hexdigest()
    sizes = [int(line.split("=")[1]) for line in stdout.splitlines() if line.startswith("V_")]
    return {"levels": levels, "wall_s": round(wall_s, 3),
            "peak_rss_mb": round(rss_mb, 1), "level_sizes": sizes,
            "bvd_sha256": bvd_sha256}


def source_identity():
    """Git revision and sha256 of the imported package's source files; the
    revision ends ``-dirty`` when that source differs from ``HEAD``, whatever
    else in the worktree does (a just-written ``BENCH_*.json`` included)."""
    src = Path(bratteli.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())

    def git(*args):
        return subprocess.run(["git", *args], cwd=src, capture_output=True, text=True,
                              check=True).stdout.strip()

    try:
        rev = git("describe", "--always", "--abbrev=7")
        if git("status", "--porcelain", "--", "."):
            rev += "-dirty"
    except (OSError, subprocess.CalledProcessError):
        rev = "unknown"
    return rev, digest.hexdigest()


def store(path, rows, schedule=None, **fields):
    """Store ``rows`` and ``fields`` in the JSON file ``path`` under the git
    revision of the imported source, replacing an earlier record under that
    name.  A ``schedule`` adds its widths to the record, and to the name when
    they are not the default ``1``; the dynamics records have none."""
    rev, src_sha256 = source_identity()
    name = rev
    if schedule is not None:
        fields = {"widths": list(schedule.widths), **fields}
        if schedule.widths != (1,):
            name = f"{rev} widths={','.join(map(str, schedule.widths))}"
    records = json.loads(path.read_text()) if path.exists() else {}
    records[name] = {
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "src_sha256": src_sha256,
        "python": platform.python_version(), "numpy": np.__version__,
        "machine": platform.machine(), "cpus": os.cpu_count(),
        **fields,
        "rows": rows,
    }
    path.write_text(json.dumps(records, indent=2) + "\n")
    print(f"stored under {name!r} in {path}")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--widths", default="1", help="comma list of widening widths")
    parser.add_argument("--levels", type=int, default=3, help="levels 1..N")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--build", type=int, default=None, metavar="K",
                        help="also time one build-fullshift -k K in a child process")
    parser.add_argument("--json", type=Path, default=None, metavar="FILE",
                        help="store the table in FILE under the source's git revision")
    args = parser.parse_args()
    schedule = WidenSchedule.parse(args.widths)

    print(f"{'level':>5} {'level [s]':>10} {'peak states':>11} {'spans':>8} {'vertices':>8}")
    rows = []
    for level in range(1, args.levels + 1):
        row = measure(level, schedule, args.repeats)
        rows.append(row)
        print(f"{level:>5} {row['enumerate_level_s']:>10.3f} {row['peak_states']:>11} "
              f"{row['fingerprints']:>8} {row['trapezoids']:>8}")
    build = {}
    if args.build is not None:
        build = {"build": build_once(args.build, schedule)}
        print(json.dumps(build["build"]))
        pinned = PINNED.get((args.build, schedule.widths))
        if pinned is not None and build["build"]["bvd_sha256"] != pinned:
            raise SystemExit(f"error: level-{args.build} BVD sha256 at widths {args.widths} "
                             f"is not the pinned {pinned}")
    if args.json is not None:
        store(args.json, rows, schedule, repeats=args.repeats, **build)


if __name__ == "__main__":
    main()
