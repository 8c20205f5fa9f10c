"""Traced in-process replicas of the benchmark operations.

Each replica rebuilds one CLI operation from the public calls of each
layer, in the order ``trapezoids.build_diagram`` and ``cli.cmd_diagnose``
make them, and times those calls from here.  Nothing inside the package is
changed; two calls made deep inside it are wrapped for the duration of a
replica: the ``OrderedBratteliDiagram`` constructor (``diagram.construct_s``,
which is therefore also inside ``catalog.construct_s`` and
``diagram.deserialize_s``) and ``vershik.successor`` (counted only).

Metric names use ``kernels.`` for the ``bratteli._kernels`` module; a
``.kN`` suffix is the level-N share of the metric it extends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

from bratteli import _kernels, catalog, vershik
from bratteli.diagram import (Edge, OrderedBratteliDiagram, deserialize,
                              parse_path_spec, serialize)
from bratteli.markers import mark_all_rows
from bratteli.trapezoids import (WidenSchedule, canonical_text, decompose,
                                 dependence_bound, trapezoid_at)
from bratteli.vershik import (extension_count, image_diameter_profile,
                              interior_witness, maximal_prefixes,
                              minimal_prefixes, orbit)

# Levels reported with a .kN suffix: up to the deepest build of any workload,
# so that every workload prints the same metric names.
LEVELS = (1, 2, 3, 4)

# Diagnose defaults of the CLI.
PROBE_DEPTH = 2
PROFILE_STEPS = 8


class Trace:
    """Seconds and counts accumulated per metric name."""

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def add_seconds(self, name: str, value: float, level: int | None = None) -> None:
        self.seconds[name] += value
        if level is not None:
            self.seconds[f"{name}.k{level}"] += value

    def add_count(self, name: str, value: int, level: int | None = None) -> None:
        self.counts[name] += value
        if level is not None:
            self.counts[f"{name}.k{level}"] += value

    @contextmanager
    def span(self, name: str, level: int | None = None):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add_seconds(name, time.perf_counter() - t0, level)


@contextmanager
def wrapped_calls(tr: Trace):
    """Time diagram construction and count successor calls wherever the
    package makes them."""
    init = OrderedBratteliDiagram.__init__
    successor = vershik.successor

    def timed_init(self, *args, **kwargs):
        with tr.span("diagram.construct_s"):
            init(self, *args, **kwargs)

    def counted_successor(p):
        tr.counts["vershik.successor_calls"] += 1
        return successor(p)

    OrderedBratteliDiagram.__init__ = timed_init
    vershik.successor = counted_successor
    try:
        yield
    finally:
        OrderedBratteliDiagram.__init__ = init
        vershik.successor = successor


def build(levels: int, word_length: int, tr: Trace) -> dict[str, bytes]:
    """``build-fullshift --levels <levels> --word-length <word_length>``:
    the level-size lines and the BVD bytes."""
    schedule = WidenSchedule()
    clock = time.perf_counter
    with wrapped_calls(tr):
        level_traps = []
        for k in range(1, levels + 1):
            with tr.span("trapezoids.enumerate_level_s", k):
                pad_left, pad_right, _ = dependence_bound(k, schedule)
                with tr.span("kernels.window_keys_s", k):
                    keys = _kernels.enumerate_block_window_keys(word_length, k,
                                                                pad_left, pad_right)
                decode_s = mark_s = extract_s = 0.0
                found = set()
                for key in keys.tolist():
                    t0 = clock()
                    cw, window = _kernels.decode_key(key, pad_left, pad_right)
                    t1 = clock()
                    mw = mark_all_rows(window, k)
                    t2 = clock()
                    found.add(trapezoid_at(mw, (pad_left, pad_left + cw), k, schedule))
                    t3 = clock()
                    decode_s += t1 - t0
                    mark_s += t2 - t1
                    extract_s += t3 - t2
                traps = tuple(sorted(found, key=canonical_text))
            tr.add_seconds("kernels.decode_s", decode_s)
            tr.add_seconds("markers.mark_all_rows_s", mark_s)
            tr.add_seconds("trapezoids.trapezoid_at_s", extract_s)
            tr.add_count("kernels.words", 1 << word_length)
            tr.add_count("kernels.window_keys", len(keys), k)
            tr.add_count("markers.mark_all_rows_calls", len(keys))
            tr.add_count("trapezoids.trapezoid_at_calls", len(keys), k)
            tr.add_count("trapezoids.distinct", len(traps), k)
            level_traps.append(traps)

        sizes = [1] + [len(ts) for ts in level_traps]
        labels = {(k, i): canonical_text(t)
                  for k, ts in enumerate(level_traps, start=1) for i, t in enumerate(ts)}
        edges = [Edge(1, i, 0, 0) for i in range(len(level_traps[0]))]
        tr.add_count("trapezoids.edges", len(edges), 1)
        for k in range(2, levels + 1):
            index = {t: i for i, t in enumerate(level_traps[k - 2])}
            before = len(edges)
            with tr.span("trapezoids.decompose_s", k):
                for si, big in enumerate(level_traps[k - 1]):
                    internal, _ = decompose(big, level_traps[k - 2], schedule)
                    for occ, small in enumerate(internal):
                        edges.append(Edge(k, si, occ, index[small]))
            tr.add_count("trapezoids.edges", len(edges) - before, k)
        diagram = OrderedBratteliDiagram(sizes, edges, labels)
        with tr.span("diagram.serialize_s"):
            bvd = serialize(diagram).encode("utf-8")
    tr.add_count("diagram.bvd_bytes", len(bvd))
    stdout = "".join(f"V_{k} = {diagram.level_size(k)}\n" for k in range(1, diagram.depth + 1))
    return {"build": stdout.encode("utf-8"), "bvd": bvd}


def diagnose(diagram, tr: Trace) -> str:
    """The stdout of ``diagnose`` with default options, as ``cmd_diagnose``
    computes it."""
    lines = []
    k_max = diagram.depth
    for n in range(1, k_max + 1):
        with tr.span("vershik.extremal_s"):
            n_max = len(maximal_prefixes(diagram, n))
            n_min = len(minimal_prefixes(diagram, n))
        lines.append(f"PREFIXES depth={n} maximal={n_max} minimal={n_min}")
    if k_max >= 2:
        for side in ("max", "min"):
            with tr.span("vershik.witness_s"):
                witnesses = interior_witness(diagram, side, 1, PROBE_DEPTH)
            probe = min(1 + PROBE_DEPTH, k_max)
            status = "candidate" if witnesses else "certified-absent-to-probe"
            lines.append(f"WITNESS side={side} depth=1 probe={probe} "
                         f"count={len(witnesses)} status={status}")
            lines.extend(f"WITNESS-PATH side={side} {p}" for p in witnesses)
    for side, base in (("max", maximal_prefixes), ("min", minimal_prefixes)):
        with tr.span("vershik.extremal_s"):
            candidates = sorted(base(diagram, 1), key=lambda q: q.indices())
        with tr.span("vershik.isolated_s"):
            isolated = [p for p in candidates if extension_count(diagram, p) == 1]
        lines.append(f"ISOLATED side={side} depth=1 count={len(isolated)}")
        lines.extend(f"ISOLATED-PATH side={side} {p}" for p in isolated)
    with tr.span("vershik.profile_s"):
        profile = image_diameter_profile(diagram, PROFILE_STEPS, k_max)
    for n, point in enumerate(profile):
        lines.append(f"PROFILE n={n} diameter={point.diameter:g} "
                     f"undetermined={point.undetermined}")
    return "".join(line + "\n" for line in lines)


def dynamics(depth: int, path: str, steps: int, tr: Trace) -> dict[str, bytes]:
    """``catalog example-7-2``, ``diagnose`` and ``successor`` on its BVD:
    the BVD bytes and the two stdouts."""
    with wrapped_calls(tr):
        with tr.span("catalog.construct_s"):
            diagram = catalog.CONSTRUCTORS["example-7-2"](depth)
        with tr.span("diagram.serialize_s"):
            text = serialize(diagram)
        with tr.span("diagram.deserialize_s"):
            diagram = deserialize(text)
        diagnose_out = diagnose(diagram, tr)
        with tr.span("diagram.deserialize_s"):
            diagram = deserialize(text)
        prefix = parse_path_spec(diagram, path)
        with tr.span("vershik.orbit_s"):
            seq = orbit(prefix, steps)
    successor_out = "".join(f"{p}\n" for p in seq)
    if len(seq) < steps + 1:
        successor_out += "MAXIMAL-EXHAUSTED\n"
    bvd = text.encode("utf-8")
    tr.add_count("diagram.bvd_bytes", len(bvd))
    return {"bvd": bvd, "diagnose": diagnose_out.encode("utf-8"),
            "successor": successor_out.encode("utf-8")}


SECONDS = ("kernels.window_keys_s", "kernels.decode_s", "markers.mark_all_rows_s",
           "trapezoids.trapezoid_at_s", "trapezoids.enumerate_level_s",
           "trapezoids.decompose_s", "diagram.construct_s", "diagram.serialize_s",
           "diagram.deserialize_s", "catalog.construct_s", "vershik.extremal_s",
           "vershik.witness_s", "vershik.isolated_s", "vershik.profile_s", "vershik.orbit_s")
PER_LEVEL_SECONDS = ("kernels.window_keys_s", "trapezoids.enumerate_level_s",
                     "trapezoids.decompose_s")
COUNTS = ("kernels.words", "kernels.window_keys", "markers.mark_all_rows_calls",
          "trapezoids.trapezoid_at_calls", "trapezoids.distinct", "trapezoids.edges",
          "diagram.bvd_bytes", "vershik.successor_calls")
PER_LEVEL_COUNTS = ("kernels.window_keys", "trapezoids.distinct", "trapezoids.edges")


def layer_metrics(tr: Trace) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``; layers a
    workload does not use read 0."""
    out: dict[str, tuple[float, str]] = {}
    for name in SECONDS:
        out[name] = (tr.seconds[name], "s")
        if name in PER_LEVEL_SECONDS:
            for k in LEVELS:
                out[f"{name}.k{k}"] = (tr.seconds[f"{name}.k{k}"], "s")
    for name in COUNTS:
        out[name] = (tr.counts[name], "count")
        if name in PER_LEVEL_COUNTS:
            for k in LEVELS:
                out[f"{name}.k{k}"] = (tr.counts[f"{name}.k{k}"], "count")
    keys_s = tr.seconds["kernels.window_keys_s"]
    out["kernels.words_per_s"] = (tr.counts["kernels.words"] / keys_s if keys_s else 0.0, "1/s")
    for suffix in ("", *(f".k{k}" for k in LEVELS)):
        calls = tr.counts["trapezoids.trapezoid_at_calls" + suffix]
        distinct = tr.counts["trapezoids.distinct" + suffix]
        out["trapezoids.useful_ratio" + suffix] = (distinct / calls if calls else 0.0, "ratio")
    return out
