#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ``bratteli`` command line.

Workloads (see ``BENCHMARK.json`` for why each was chosen):

- ``fullshift-k4``      ``build-fullshift --levels 4 --word-length 17``
- ``fullshift-k3-L20``  ``build-fullshift --levels 3 --word-length 20``
- ``dynamics-7-2``      ``catalog example-7-2 --depth 14``, then ``diagnose``
                        and ``successor <seeded prefix> --steps 256`` on it

With ``--trace 0`` one closed-loop client runs the workload's CLI processes
(``python -m bratteli ...``) one at a time until ``--seconds`` is used up
and reports the end-to-end metrics: ``wall_s`` (spawn-to-exit, interpreter
start included), ``peak_rss_mb`` (largest ``ru_maxrss`` of the operation's
processes, per child from ``os.wait4``) and ``setup_s`` (a fresh
interpreter that only imports ``bratteli.cli``), each the median over the
run.  With ``--trace 1`` one untraced operation gives the reference
outputs, then ``traced.py`` rebuilds the operation in-process from public
layer calls, checks that it reproduces those outputs byte for byte and
reports the per-layer split.

Every output is checked against ``golden.json`` (recorded by
``record_golden.py``); an operation fails on a nonzero exit or any
mismatch.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

    python3 perfbench/run.py --workload fullshift-k4 --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py          # every workload, untraced then traced
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_build"

# Thread pools are pinned to one thread in every process the benchmark runs.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMBA_NUM_THREADS")

BUILDS = {"fullshift-k4": (4, 17), "fullshift-k3-L20": (3, 20)}
DYNAMICS = "dynamics-7-2"
WORKLOADS = (*BUILDS, DYNAMICS)
DYNAMICS_DEPTH = 14
SUCCESSOR_STEPS = 256

SETUP_SAMPLES = 3  # per operation
CHILD_TIMEOUT_S = 150.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Proc:
    """One finished CLI process."""

    wall_s: float
    peak_rss_mb: float
    returncode: int
    stdout: bytes
    stderr: bytes


def run_cli(args: list[str], workdir: Path) -> Proc:
    """Run ``python <args>`` to completion; time it from spawn to exit and
    take its own peak RSS from ``os.wait4``."""
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux.
    return Proc(wall, usage.ru_maxrss / 1024.0, proc.returncode,
                out_path.read_bytes(), err_path.read_bytes())


@dataclass
class Op:
    """One operation: the workload's CLI processes, run back to back."""

    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    problems: list[str] = field(default_factory=list)
    outputs: dict[str, bytes] = field(default_factory=dict)

    def add(self, name: str, proc: Proc) -> bool:
        self.wall_s += proc.wall_s
        self.peak_rss_mb = max(self.peak_rss_mb, proc.peak_rss_mb)
        self.outputs[name] = proc.stdout
        if proc.returncode != 0:
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
            self.problems.append(f"{name}: exit {proc.returncode} {' '.join(tail)}")
        return proc.returncode == 0

    def expect(self, what: str, got: str, want: str) -> None:
        if got != want:
            self.problems.append(f"{what}: got {got[:16]}..., want {want[:16]}...")


def successor_entry(golden: dict, seed: int) -> dict:
    """The seeded depth-14 prefix (with its recorded outputs) for ``seed``."""
    pool = golden[DYNAMICS]["successor"]
    return pool[seed % len(pool)]


def read_if_exists(path: Path) -> bytes:
    """File content; a missing file reads empty and so fails its digest check."""
    return path.read_bytes() if path.exists() else b""


def run_op(workload: str, seed: int, golden: dict, workdir: Path) -> Op:
    op = Op()
    want = golden[workload]
    bvd = workdir / "out.bvd"
    bvd.unlink(missing_ok=True)
    if workload in BUILDS:
        levels, length = BUILDS[workload]
        proc = run_cli(["-m", "bratteli", "build-fullshift", "--levels", str(levels),
                        "--word-length", str(length), "-o", str(bvd)], workdir)
        if op.add("build", proc):
            op.expect("level sizes", proc.stdout.decode(), want["stdout"])
            op.outputs["bvd"] = read_if_exists(bvd)
            op.expect("bvd sha256", sha256(op.outputs["bvd"]), want["bvd_sha256"])
        return op
    entry = successor_entry(golden, seed)
    proc = run_cli(["-m", "bratteli", "catalog", "example-7-2", "--depth",
                    str(DYNAMICS_DEPTH), "-o", str(bvd)], workdir)
    if not op.add("catalog", proc):
        return op
    op.outputs["bvd"] = read_if_exists(bvd)
    op.expect("bvd sha256", sha256(op.outputs["bvd"]), want["bvd_sha256"])
    proc = run_cli(["-m", "bratteli", "diagnose", str(bvd)], workdir)
    if not op.add("diagnose", proc):
        return op
    op.expect("diagnose sha256", sha256(proc.stdout), want["diagnose_sha256"])
    proc = run_cli(["-m", "bratteli", "successor", str(bvd), entry["path"],
                    "--steps", str(SUCCESSOR_STEPS)], workdir)
    if op.add("successor", proc):
        op.expect("successor sha256", sha256(proc.stdout), entry["stdout_sha256"])
    return op


def measure_setup(workdir: Path) -> list[float]:
    """Wall times of ``SETUP_SAMPLES`` fresh interpreters that only import
    ``bratteli.cli``."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = run_cli(["-c", "import bratteli.cli"], workdir)
        if proc.returncode != 0:
            raise SystemExit("error: `import bratteli.cli` failed:\n"
                             + proc.stderr.decode(errors="replace"))
        samples.append(proc.wall_s)
    return samples


# Also the warm-up: the first import writes the bytecode caches.
PROBE = """\
import json, numpy
import bratteli, bratteli.cli
from bratteli import _kernels
try:
    import numba
    numba_imports = True
except ImportError:
    numba_imports = False
backend = getattr(_kernels, "active_backend", None)
print(json.dumps({"bratteli_file": bratteli.__file__, "numpy": numpy.__version__,
                  "numba_imports": numba_imports, "backend": backend and backend()}))
"""


def environment(workdir: Path) -> dict:
    """Environment record that stamps every result."""
    proc = run_cli(["-c", PROBE], workdir)
    if proc.returncode != 0:
        raise SystemExit("error: environment probe failed:\n"
                         + proc.stderr.decode(errors="replace"))
    probe = json.loads(proc.stdout)
    if not Path(probe.pop("bratteli_file")).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: bratteli was not imported from {SRC}")
    rev = None
    if (ROOT / ".git").exists():  # an exported checkout has no git metadata
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    env = child_env()
    return {"git_rev": rev, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": probe["numpy"],
            "numba_imports": probe["numba_imports"],
            "backend": probe["backend"], "nproc": os.cpu_count(),
            "threads": {var: env[var] for var in THREAD_VARS},
            "BRATTELI_PURE_NUMPY": env.get("BRATTELI_PURE_NUMPY")}


def closed_loop(seconds: float, op_fn) -> list:
    """Run operations back to back; start another only if it is expected to
    end within ``seconds`` (the first always runs)."""
    start = time.perf_counter()
    results, durations = [], []
    while True:
        t0 = time.perf_counter()
        results.append(op_fn())
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return results


def describe(name: str, values: list[float], unit: str) -> str:
    shown = " ".join(f"{v:.4g}" for v in values)
    return f"{name} = {statistics.median(values):.6g} {unit} (median of n={len(values)}: {shown})"


def end_to_end(workload: str, seed: int, seconds: float, golden: dict, workdir: Path) -> dict:
    """Closed loop of operations, each preceded by a few set-up samples so
    that both are spread over the whole run."""
    setup: list[float] = []

    def op_fn():
        setup.extend(measure_setup(workdir))
        return run_op(workload, seed, golden, workdir)

    ops = closed_loop(seconds, op_fn)
    for i, op in enumerate(ops):
        if op.problems:
            print(f"FAILED op {i}: {'; '.join(op.problems)}", file=sys.stderr)
    failed = [op for op in ops if op.problems]
    walls = [op.wall_s for op in ops]
    rss = [op.peak_rss_mb for op in ops]
    print(describe("wall_s", walls, "s"))
    print(describe("peak_rss_mb", rss, "MB"))
    print(describe("setup_s", setup, "s"))
    print(f"failed_frac = {len(failed) / len(ops):.6g} ({len(failed)}/{len(ops)})")
    metrics = {"wall_s": (statistics.median(walls), "s"),
               "setup_s": (statistics.median(setup), "s"),
               "peak_rss_mb": (statistics.median(rss), "MB")}
    return result(len(ops), len(failed), metrics)


def per_layer(workload: str, seed: int, seconds: float, golden: dict, workdir: Path) -> dict:
    """One untraced reference operation, then traced in-process rebuilds
    until ``seconds`` is used up; per-layer metrics are medians over them."""
    import traced  # imports bratteli, so only after the environment is pinned

    start = time.perf_counter()
    ref = run_op(workload, seed, golden, workdir)
    if ref.problems:
        raise SystemExit(f"error: reference operation failed: {'; '.join(ref.problems)}")
    if workload in BUILDS:
        rebuild = functools.partial(traced.build, *BUILDS[workload])
        want_counts = golden[workload]["counts"]
    else:
        entry = successor_entry(golden, seed)
        rebuild = functools.partial(traced.dynamics, DYNAMICS_DEPTH, entry["path"],
                                    SUCCESSOR_STEPS)
        want_counts = {**golden[workload]["counts"],
                       "vershik.successor_calls": entry["successor_calls"]}

    def traced_op():
        tr = traced.Trace()
        t0 = time.perf_counter()
        outputs = rebuild(tr)
        total = time.perf_counter() - t0
        for name, data in outputs.items():
            if data != ref.outputs[name]:
                raise SystemExit(f"error: traced {name} differs from the CLI output")
        for name, want in want_counts.items():
            if tr.counts[name] != want:
                raise SystemExit(f"error: {name} = {tr.counts[name]}, recorded {want}")
        return total, traced.layer_metrics(tr)

    remaining = seconds - (time.perf_counter() - start)
    reps = closed_loop(remaining, traced_op)
    metrics = {}
    for name, (first, unit) in reps[0][1].items():
        values = [m[name][0] for _, m in reps]
        if unit == "count" and values.count(first) != len(values):
            raise SystemExit(f"error: {name} differs between traced runs: {values}")
        metrics[name] = (first if unit == "count" else statistics.median(values), unit)
    total = statistics.median(t for t, _ in reps)
    metrics["trace.total_s"] = (total, "s")
    metrics["trace.overhead_s"] = (total - ref.wall_s, "s")
    for name, (value, unit) in metrics.items():
        shown = value if unit == "count" else f"{value:.6g}"
        print(f"{name} = {shown} {unit} (median of n={len(reps)})")
    return result(1 + len(reps), 0, metrics)


def result(attempted: int, failed: int, metrics: dict) -> dict:
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def check_declared(res: dict, trace: int) -> None:
    """The metrics printed must be exactly the ones ``BENCHMARK.json`` declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    if got != declared:
        raise SystemExit(f"error: metrics {sorted(set(got) ^ set(declared))} do not match "
                         "BENCHMARK.json")


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    golden = json.loads((BENCH_DIR / "golden.json").read_text())
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    try:
        env = environment(workdir)
        print("ENV " + json.dumps(env, sort_keys=True))
        print(f"WORKLOAD {workload} seed={seed} seconds={seconds} trace={trace}")
        if trace:
            res = per_layer(workload, seed, seconds, golden, workdir)
        else:
            res = end_to_end(workload, seed, seconds, golden, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_declared(res, trace)
    return res


def run_all(seed: int, seconds: float) -> dict:
    """Every workload, untraced then traced, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                   "--workload", workload, "--seed", str(seed),
                                   "--seconds", str(seconds), "--trace", str(trace)],
                                  stdout=subprocess.PIPE, text=True, cwd=ROOT)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                raise SystemExit(f"error: {workload} --trace {trace} exited {proc.returncode}")
            res = json.loads(lines[-1])
            combined["correct"] &= res["correct"]
            combined["attempted"] += res["attempted"]
            combined["failed"] += res["failed"]
            for name, metric in res["metrics"].items():
                combined["metrics"][f"{workload}/{name}"] = metric
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics of a traced run "
                             "(ignored with --workload all, which runs both)")
    args = parser.parse_args(argv)
    if not (SRC / "bratteli" / "__main__.py").is_file():
        print(f"error: no bratteli package under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        res = run_all(args.seed, args.seconds)
    else:
        res = run_one(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
