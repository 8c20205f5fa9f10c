"""Timing of the Vershik diagnostics on example 7.2 at depth 14.

For each step that ``bratteli diagnose`` and ``bratteli successor`` take on
the BVD of ``catalog example-7-2 --depth 14`` it times the public call
in-process, best of ``--repeats``, and prints a table:

- ``deserialize``  parse and validate the BVD text;
- ``extremal``     ``maximal_prefixes`` and ``minimal_prefixes`` at every depth
                   (``diagnose`` itself prints ``|V_n|`` for both counts);
- ``witness``      ``interior_witness`` on both sides at depth 1;
- ``isolated``     depth-1 extremal prefixes with one extension to full depth;
- ``profile``      ``image_diameter_profile`` over 8 successor steps;
- ``orbit``        256 successor steps from the all-zero path;
- ``diagnose``     the whole ``bratteli diagnose`` command with its default
                   options, BVD file read included, stdout discarded.

With ``--json FILE`` the table is also stored in FILE under the git revision
of the imported ``bratteli`` source (``-dirty`` when its working tree has
changes), replacing an earlier record for the same revision.

    python benchmarks/bench_dynamics.py --repeats 5 --json BENCH_dynamics.json
"""

import argparse
import io
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from bench_enumeration import best_of, store

from bratteli import cli
from bratteli.catalog import example_7_2
from bratteli.diagram import deserialize, parse_path_spec, serialize
from bratteli.vershik import (extension_count, image_diameter_profile,
                              interior_witness, maximal_prefixes,
                              minimal_prefixes, orbit)

DEPTH = 14
# defaults of `bratteli diagnose`
PROBE_DEPTH = 2
PROFILE_STEPS = 8
ORBIT_STEPS = 256


def isolated(diagram):
    return [p for base in (maximal_prefixes, minimal_prefixes)
            for p in sorted(base(diagram, 1), key=lambda q: q.indices())
            if extension_count(diagram, p) == 1]


def steps(text, bvd_path):
    diagram = deserialize(text)
    start = parse_path_spec(diagram, "/".join(["0"] * DEPTH))
    return {
        "deserialize": lambda: deserialize(text),
        "extremal": lambda: [(len(maximal_prefixes(diagram, n)), len(minimal_prefixes(diagram, n)))
                             for n in range(1, DEPTH + 1)],
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
    if args.json is not None:
        store(args.json, rows, example="example-7-2", depth=DEPTH, repeats=args.repeats)


if __name__ == "__main__":
    main()
