"""Command-line interface: build the full-shift diagram, inspect marker
rows, iterate successors, and run decisiveness diagnostics.

Data goes to standard output (or ``--out``); diagnostics and errors go to
standard error.  Exit code 0 means success, 1 a domain error, 2 a usage
error.
"""

from __future__ import annotations

import argparse
import sys

from . import catalog
from .diagram import _ints, parse_path_spec, read_bvd, serialize, to_dot
from .vershik import (image_diameter_profile, interior_witness, is_isolated,
                      maximal_prefixes, minimal_prefixes, orbit)


def integer(text: str) -> int:
    """An integer option, read by the rule of every text the package reads;
    named so that argparse reports ``invalid integer value``."""
    return _ints([text])[0]


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _format_diagram(diagram, fmt: str) -> str:
    return to_dot(diagram) if fmt == "dot" else serialize(diagram)


def cmd_build_fullshift(args) -> int:
    # the full-shift and marker commands import numpy; the others never do
    from .trapezoids import WidenSchedule, build_diagram, longest_read_window

    schedule = WidenSchedule.parse(args.widths)
    if args.word_length is not None and args.levels >= 1:
        bound = longest_read_window(args.levels, schedule)
        if args.word_length < bound:
            raise ValueError(f"word length {args.word_length} below the longest read window "
                             f"{bound} for level {args.levels}; increase --word-length")
    diagram = build_diagram(args.levels, schedule)
    text = _format_diagram(diagram, args.format)
    if args.out is not None and args.out != "-":
        # before any output, so an unwritable --out prints nothing
        _emit(text, args.out)
        text = ""
    for k in range(1, diagram.depth + 1):
        print(f"V_{k} = {diagram.level_size(k)}")
    sys.stdout.write(text)
    return 0


def cmd_markers(args) -> int:
    from .markers import mark_all_rows, render_marked_word

    mw = mark_all_rows(args.word, args.rows)
    if args.format == "text":
        print(render_marked_word(mw))
    else:
        for k in range(1, mw.depth + 1):
            row = mw.row(k)
            positions = ",".join(str(p) for p in sorted(row.positions))
            print(f"ROW {k} determined={row.lo}..{row.hi} markers={positions}")
    return 0


def cmd_successor(args) -> int:
    diagram = read_bvd(args.diagram)
    prefix = parse_path_spec(diagram, args.path)
    seq = orbit(prefix, args.steps)
    for p in seq:
        print(p)
    if len(seq) < args.steps + 1:
        print("MAXIMAL-EXHAUSTED")
    return 0


def cmd_diagnose(args) -> int:
    diagram = read_bvd(args.diagram)
    k_max = diagram.depth
    if k_max == 0:
        raise ValueError("the diagram has no levels to diagnose")
    for n in range(1, k_max + 1):
        # the diagram is validated, so every vertex of V_n has a fan and the
        # extremal walk from each one gives one distinct prefix per side
        print(f"PREFIXES depth={n} maximal={diagram.level_size(n)} "
              f"minimal={diagram.level_size(n)}")
    if k_max >= 2:
        for side in ("max", "min"):
            witnesses = interior_witness(diagram, side, 1, args.probe_depth)
            probe = min(1 + args.probe_depth, k_max)
            status = "candidate" if witnesses else "certified-absent-to-probe"
            print(f"WITNESS side={side} depth=1 probe={probe} "
                  f"count={len(witnesses)} status={status}")
            for p in witnesses:
                print(f"WITNESS-PATH side={side} {p}")
    for side, base in (("max", maximal_prefixes), ("min", minimal_prefixes)):
        isolated = [p for p in sorted(base(diagram, 1), key=lambda q: q.indices())
                    if is_isolated(diagram, p)]
        print(f"ISOLATED side={side} depth=1 count={len(isolated)}")
        for p in isolated:
            print(f"ISOLATED-PATH side={side} {p}")
    profile = image_diameter_profile(diagram, args.steps, k_max)
    for n, point in enumerate(profile):
        print(f"PROFILE n={n} diameter={point.diameter:g} undetermined={point.undetermined}")
    return 0


def cmd_catalog(args) -> int:
    diagram = catalog.CONSTRUCTORS[args.name](args.depth)
    _emit(_format_diagram(diagram, args.format), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bratteli",
        description="Ordered Bratteli diagrams: construction, successor dynamics, diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-fullshift",
                       help="build the marker-rule diagram of the binary full shift")
    p.add_argument("--levels", "-k", type=integer, default=3, help="levels below the root")
    p.add_argument("--word-length", "-L", type=integer, default=None, dest="word_length",
                   help="optional: fail unless the top level's read window fits in this many "
                        "cells; changes neither the work nor the output")
    p.add_argument("--widths", default="1", help="comma list of widening rectangle widths")
    p.add_argument("--format", choices=["bvd", "dot"], default="bvd")
    p.add_argument("--out", "-o", default=None, help="output file (default: stdout)")
    p.set_defaults(func=cmd_build_fullshift)

    p = sub.add_parser("markers", help="marker rows of a binary word")
    p.add_argument("--word", required=True)
    p.add_argument("--rows", type=integer, required=True)
    p.add_argument("--format", choices=["positions", "text"], default="positions",
                   help="position lists or the pictorial text rendering")
    p.set_defaults(func=cmd_markers)

    p = sub.add_parser("successor", help="iterate the successor map along a path prefix")
    p.add_argument("diagram", help="BVD file")
    p.add_argument("path", help="path spec i1/i2/.../iN (edge indices per level)")
    p.add_argument("--steps", type=integer, default=0)
    p.set_defaults(func=cmd_successor)

    p = sub.add_parser("diagnose", help="extremal-prefix counts, interior witnesses, "
                                        "image-diameter profile")
    p.add_argument("diagram", help="BVD file")
    p.add_argument("--probe-depth", type=integer, default=2, dest="probe_depth")
    p.add_argument("--steps", type=integer, default=8, help="successor steps in the profile")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("catalog", help="emit a reference diagram")
    p.add_argument("name", choices=sorted(catalog.CONSTRUCTORS))
    p.add_argument("--depth", type=integer, default=4)
    p.add_argument("--format", choices=["bvd", "dot"], default="bvd")
    p.add_argument("--out", "-o", default=None)
    p.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "markers" and args.rows < 1:
        parser.error("--rows must be >= 1")
    if args.command in ("successor", "diagnose") and args.steps < 0:
        parser.error("--steps must be >= 0")
    if args.command == "diagnose" and args.probe_depth < 1:
        parser.error("--probe-depth must be >= 1")
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # the package's domain errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:  # e.g. a BVD level size no memory can hold
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
