"""Timing of the dynamics commands on example 7.2 at depth 14.

For each step that ``bratteli catalog example-7-2 --depth 14``, ``bratteli
diagnose`` and ``bratteli successor`` take on that diagram it times the
public call the command makes, in-process, best of ``--repeats``, and
prints a table:

- ``cli_import``   a fresh interpreter that only imports ``bratteli.cli``,
                   which every command pays before its first step;
- ``catalog``      build the diagram and serialize it to BVD text;
- ``deserialize``  parse and validate the BVD text;
- ``witness``      ``interior_witness`` on both sides at depth 1;
- ``isolated``     ``is_isolated`` on the depth-1 extremal prefixes;
- ``profile``      ``image_diameter_profile`` over 8 successor steps;
- ``orbit``        256 successor steps from the all-zero path;
- ``diagnose``     the whole ``bratteli diagnose`` command with its default
                   options, BVD file read included, stdout discarded.

It then runs ``catalog``, ``diagnose`` and ``successor`` (256 steps from the
all-zero path) as ``python -m bratteli`` child processes and prints the peak
RSS of each (``ru_maxrss`` from ``os.wait4`` in a small launcher process),
least of ``--repeats``.

With ``--json FILE`` the table is also stored in FILE under the git revision
of the imported ``bratteli`` source (``-dirty`` when that source differs
from ``HEAD``), replacing an earlier record for the same revision.

    python benchmarks/bench_dynamics.py --repeats 5 --json BENCH_dynamics.json
"""

import argparse
import io
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from bench_enumeration import best_of, child_env, run_cli, store

from bratteli import cli
from bratteli.catalog import example_7_2
from bratteli.diagram import deserialize, parse_path_spec, serialize
from bratteli.vershik import (image_diameter_profile, interior_witness,
                              is_isolated, maximal_prefixes, minimal_prefixes,
                              orbit)

DEPTH = 14
# defaults of `bratteli diagnose`
PROBE_DEPTH = 2
PROFILE_STEPS = 8
ORBIT_STEPS = 256


def isolated(diagram):
    return [p for base in (maximal_prefixes, minimal_prefixes)
            for p in sorted(base(diagram, 1), key=lambda q: q.edges)
            if is_isolated(diagram, p)]


def import_cli():
    """``import bratteli.cli`` in a fresh interpreter, on the same source."""
    subprocess.run([sys.executable, "-c", "import bratteli.cli"], env=child_env(), check=True)


def commands(bvd_path):
    zeros = "/".join(["0"] * DEPTH)
    return {
        "catalog": ["catalog", "example-7-2", "--depth", str(DEPTH), "-o", str(bvd_path)],
        "diagnose": ["diagnose", str(bvd_path)],
        "successor": ["successor", str(bvd_path), zeros, "--steps", str(ORBIT_STEPS)],
    }


def steps(text, bvd_path):
    diagram = deserialize(text)
    start = parse_path_spec(diagram, "/".join(["0"] * DEPTH))
    return {
        "cli_import": import_cli,
        "catalog": lambda: serialize(example_7_2(DEPTH)),
        "deserialize": lambda: deserialize(text),
        "witness": lambda: [interior_witness(diagram, side, 1, PROBE_DEPTH)
                            for side in ("max", "min")],
        "isolated": lambda: isolated(diagram),
        "profile": lambda: image_diameter_profile(diagram, PROFILE_STEPS, DEPTH),
        "orbit": lambda: orbit(start, ORBIT_STEPS),
        "diagnose": lambda: cli.main(["diagnose", str(bvd_path)]),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--json", type=Path, default=None, metavar="FILE",
                        help="store the table in FILE under the source's git revision")
    args = parser.parse_args()

    text = serialize(example_7_2(DEPTH))
    rows = []
    print(f"{'step':>12} {'best [s]':>9}")
    with tempfile.TemporaryDirectory() as tmp:
        bvd_path = Path(tmp) / "example-7-2.bvd"
        bvd_path.write_text(text, encoding="utf-8")
        for name, fn in steps(text, bvd_path).items():
            with redirect_stdout(io.StringIO()):
                seconds, _ = best_of(args.repeats, fn)
            rows.append({"step": name, "best_s": round(seconds, 4)})
            print(f"{name:>12} {seconds:>9.3f}")
        rss = []
        print(f"{'command':>12} {'peak RSS [MB]':>14}")
        for name, cmd in commands(Path(tmp) / "child.bvd").items():
            mb = min(run_cli(cmd)[2] for _ in range(args.repeats))
            rss.append({"command": name, "peak_rss_mb": round(mb, 2)})
            print(f"{name:>12} {mb:>14.2f}")
    if args.json is not None:
        store(args.json, rows, example="example-7-2", depth=DEPTH, repeats=args.repeats,
              peak_rss=rss)


if __name__ == "__main__":
    main()
