#!/usr/bin/env python3
"""Record the outputs and exact counts that ``run.py`` checks every run
against, into ``perfbench/golden.json``.

Run it from the repository root, on the commit whose outputs are the
reference:

    python3 perfbench/record_golden.py

Outputs come from real CLI processes.  Counts come from direct library
calls, independent of the traced replicas they check.  The level-3 digest
is taken from a ``--word-length 18`` build and must equal the
``--word-length 20`` one (the completeness cross-check).  The seeded
successor prefixes form a fixed pool of random depth-14 paths of
``example-7-2``; ``run.py`` picks entry ``seed % len(pool)``.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys
import tempfile
from pathlib import Path

import run

POOL_SIZE = 256


def cli(args: list[str], workdir: Path) -> bytes:
    proc = run.run_cli(["-m", "bratteli", *args], workdir)
    if proc.returncode != 0:
        raise SystemExit(f"error: bratteli {' '.join(args)} failed:\n"
                         + proc.stderr.decode(errors="replace"))
    return proc.stdout


def record_build(levels: int, length: int, workdir: Path) -> dict:
    from bratteli import _kernels
    from bratteli.diagram import deserialize
    from bratteli.trapezoids import WidenSchedule, dependence_bound

    bvd = workdir / "out.bvd"
    stdout = cli(["build-fullshift", "--levels", str(levels), "--word-length", str(length),
                  "-o", str(bvd)], workdir)
    data = bvd.read_bytes()
    diagram = deserialize(data.decode("utf-8"))
    counts = {"kernels.words": levels << length, "diagram.bvd_bytes": len(data)}
    for k in range(1, levels + 1):
        pad_left, pad_right, _ = dependence_bound(k, WidenSchedule())
        keys = len(_kernels.enumerate_block_window_keys(length, k, pad_left, pad_right))
        counts[f"kernels.window_keys.k{k}"] = keys
        counts[f"trapezoids.trapezoid_at_calls.k{k}"] = keys
        counts[f"trapezoids.distinct.k{k}"] = diagram.level_size(k)
        counts[f"trapezoids.edges.k{k}"] = len(diagram.edges_at(k))
    for name in ("kernels.window_keys", "trapezoids.trapezoid_at_calls",
                 "trapezoids.distinct", "trapezoids.edges"):
        counts[name] = sum(counts[f"{name}.k{k}"] for k in range(1, levels + 1))
    counts["markers.mark_all_rows_calls"] = counts["kernels.window_keys"]
    return {"stdout": stdout.decode("utf-8"), "bvd_sha256": run.sha256(data),
            "counts": counts}


def successor_pool(diagram, depth: int) -> list[str]:
    """Random depth-``depth`` prefixes: a uniform deep vertex, then a
    uniform edge out of each vertex on the way to the root."""
    from bratteli.diagram import PathPrefix

    paths = []
    for i in range(POOL_SIZE):
        rng = random.Random(i)
        v = rng.randrange(diagram.level_size(depth))
        chain = []
        for k in range(depth, 0, -1):
            e = rng.choice(diagram.edges_from(k, v))
            chain.append(e)
            v = e.target
        paths.append(str(PathPrefix(diagram, tuple(reversed(chain)))))
    return paths


def successor_stdout(diagram, path: str, steps: int) -> tuple[str, int]:
    """``successor`` stdout as ``cmd_successor`` prints it, and the number
    of successor calls the orbit makes."""
    from bratteli.diagram import parse_path_spec
    from bratteli.vershik import orbit

    seq = orbit(parse_path_spec(diagram, path), steps)
    out = "".join(f"{p}\n" for p in seq)
    exhausted = len(seq) < steps + 1
    if exhausted:
        out += "MAXIMAL-EXHAUSTED\n"
    return out, len(seq) - 1 + exhausted


def record_dynamics(workdir: Path) -> dict:
    from bratteli.diagram import deserialize

    depth, steps = run.DYNAMICS_DEPTH, run.SUCCESSOR_STEPS
    bvd = workdir / "out.bvd"
    cli(["catalog", "example-7-2", "--depth", str(depth), "-o", str(bvd)], workdir)
    data = bvd.read_bytes()
    diag_out = cli(["diagnose", str(bvd)], workdir)
    diagram = deserialize(data.decode("utf-8"))
    # image_diameter_profile calls successor once per still-determined prefix
    # per step, for every step but the last.
    minimal = diagram.level_size(depth)
    undetermined = [int(line.rsplit("=", 1)[1]) for line in diag_out.decode().splitlines()
                    if line.startswith("PROFILE ")]
    profile_calls = sum(minimal - u for u in undetermined[:-1])
    pool = []
    for i, path in enumerate(successor_pool(diagram, depth)):
        out, orbit_calls = successor_stdout(diagram, path, steps)
        if i < 4:  # the library formatting must match the real CLI
            got = cli(["successor", str(bvd), path, "--steps", str(steps)], workdir)
            if got.decode("utf-8") != out:
                raise SystemExit(f"error: successor stdout mismatch for {path}")
        pool.append({"path": path, "stdout_sha256": run.sha256(out.encode("utf-8")),
                     "successor_calls": profile_calls + orbit_calls})
    return {"bvd_sha256": run.sha256(data), "diagnose_sha256": run.sha256(diag_out),
            "counts": {"diagram.bvd_bytes": len(data)}, "successor": pool}


def main() -> int:
    for var in run.THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(run.SRC))
    run.WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="golden-", dir=run.WORK_DIR))
    try:
        golden = {"recorded_with": run.environment(workdir)}
        for workload, (levels, length) in run.BUILDS.items():
            golden[workload] = record_build(levels, length, workdir)
        k3_l18 = record_build(3, 18, workdir)
        if k3_l18["bvd_sha256"] != golden["fullshift-k3-L20"]["bvd_sha256"]:
            raise SystemExit("error: the --word-length 20 BVD differs from the "
                             "--word-length 18 BVD")
        golden[run.DYNAMICS] = record_dynamics(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = run.BENCH_DIR / "golden.json"
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
