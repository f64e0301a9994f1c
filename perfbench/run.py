"""feedcap benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload mc_code --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from
./src, never from an installed copy. The last line of stdout is one JSON
object {correct, attempted, failed, metrics}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the same inputs run once untraced
and once with span recorders installed, and the metrics are the per-layer
ones plus trace.overhead_ratio. `--inventory` draws from the full
documented ranges, known breaks included, runs the known-break probes and
lists every failed operation (see README.md).
"""
import argparse
import ctypes
import glob
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tracing import Tracer, metric_names, unit_of
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench"
LAYERS = {"sc": "sum_capacity", "ric": "riccati", "mac": "mac_code",
          "p2p": "p2p_gaussian", "mx": "matrix_core", "cli": "cli"}
E2E_UNITS = {"ops_per_s": "1/s", "goodput_ops_per_s": "1/s",
             "op_p50_ms": "ms", "op_tail_ms": "ms", "setup_s": "s"}
SETUP_REPEATS = 3
PREDRAWN_BLOCKS = 8
TAIL_BEYOND = 10

IMPORT_PROBE = (
    "import importlib, sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import feedcap; "
    + "; ".join(f"importlib.import_module('feedcap.{m}')"
                for m in LAYERS.values())
    + "; print(time.perf_counter() - t)")


class Layers:
    """The layer modules, by short name. `importlib.import_module` is used
    because `feedcap.sum_capacity` as an attribute of the package is the
    re-exported function, not the module."""

    def __init__(self):
        for short, mod in LAYERS.items():
            setattr(self, short, importlib.import_module(f"feedcap.{mod}"))

    def modules(self):
        return {mod: getattr(self, short) for short, mod in LAYERS.items()}


def machine_info():
    """What the figures were measured on; read only, nothing is changed."""
    info = {"nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": "unknown",
            "python": platform.python_version(),
            "numpy": np.__version__}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}) \
        .get("blas", {})
    info["blas"] = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    info["blas_env"] = {k: os.environ.get(k) for k in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    info["blas_threads"] = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(path), sym)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            info["blas_threads"] = fn()
            break
    return info


def import_seconds():
    """Time `import feedcap` and its layers in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, timeout=120,
                         check=True, cwd=ROOT)
    return float(out.stdout.strip().splitlines()[-1])


class Runner:
    def __init__(self, L, workload, seed, full):
        self.L = L
        self.w = workload
        self.full = full
        self.seed = seed
        self.blocks = []
        self.latencies_ms = []
        self.failures = []
        self.attempted = 0
        self.trial_steps = 0
        self.tracer = None
        self._rng = None

    def draw(self, count):
        """(Re)draw the first `count` blocks from the workload seed."""
        salt = sorted(WORKLOADS).index(self.w.name)
        self._rng = np.random.default_rng([self.seed, salt])
        self.blocks = [self.w.draw_block(self._rng, self.full)
                       for _ in range(count)]

    def block(self, k):
        while k >= len(self.blocks):
            self.blocks.append(self.w.draw_block(self._rng, self.full))
        return self.blocks[k]

    def run_op(self, inp, ctx, record=True):
        """One timed operation and its check; returns True when it passed."""
        if self.tracer is not None:
            self.tracer.op_id = self.attempted
        t0 = time.perf_counter()
        try:
            out = self.w.run(self.L, inp, ctx)
            error = None
        except Exception as exc:        # a failed operation, not a crash
            out, error = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        bad = []
        if error is None:
            try:
                bad = self.w.check(self.L, inp, out, ctx).failures()
            except Exception as exc:    # a result the check cannot read
                error = f"check raised {type(exc).__name__}: {exc}"
            if bad and getattr(out, "stderr", ""):
                error = out.stderr.strip()
        if record:
            self.attempted += 1
            self.latencies_ms.append(dt * 1e3)
            self.trial_steps += self.w.trial_steps(inp)
        if error or bad:
            self.failures.append({"op": self.attempted - 1 if record
                                  else "warmup", "input": inp,
                                  "error": error, "checks": bad})
        return not (error or bad)

    def run_blocks(self, seconds=None, count=None):
        """Whole blocks from the first: `count` of them, or as many as end
        nearest to `seconds` (another block starts only while it is expected
        to end less than half a block past the deadline), so the block count
        does not flip from run to run with noise. Returns one (operations,
        passed, wall seconds, latencies in ms) tuple per block."""
        t0 = time.perf_counter()
        stats = []

        def more():
            if count is not None:
                return len(stats) < count
            if not stats:
                return True
            mean = sum(b[2] for b in stats) / len(stats)
            return time.perf_counter() - t0 + mean / 2 < seconds

        while more():
            ctx = {}
            lat0 = len(self.latencies_ms)
            tb = time.perf_counter()
            passed = sum(self.run_op(inp, ctx)
                         for inp in self.block(len(stats)))
            wall = time.perf_counter() - tb
            lat = self.latencies_ms[lat0:]
            stats.append((len(lat), passed, wall, lat))
        return stats


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(latencies):
    """Latency at the highest percentile with TAIL_BEYOND samples above it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, n
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def emit(correct, attempted, failed, metrics, units):
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inventory", action="store_true",
                    help="full ranges plus known-break probes; list failures")
    args = ap.parse_args(argv)
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")
    if not (SRC / "feedcap" / "__init__.py").is_file():
        print(f"error: no feedcap sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    w = WORKLOADS[args.workload]
    print(f"# feedcap benchmark: workload={w.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}"
          + (" inventory" if args.inventory else ""))
    print(f"# why: {w.why}")

    # ---- set-up: import, input generation, warm-up (repeated, median)
    L = Layers()
    if not Path(L.sc.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: feedcap imported from {L.sc.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    print("# machine " + json.dumps(machine_info(), sort_keys=True))
    runner = Runner(L, w, args.seed, full=args.inventory)
    imports, prepare = [], []
    for _ in range(SETUP_REPEATS):
        imports.append(import_seconds())
        t0 = time.perf_counter()
        runner.draw(PREDRAWN_BLOCKS)
        for inp in w.warmup_inputs():
            runner.run_op(inp, {}, record=False)
        prepare.append(time.perf_counter() - t0)
    setup_s = statistics.median(imports) + statistics.median(prepare)
    warm_failures = len(runner.failures)

    if args.inventory:
        for inp in w.known_breaks():
            runner.run_op(dict(inp, known_break=True), {})
    if args.trace:
        plain = runner.run_blocks(seconds=args.seconds / 2)
        wall_plain = sum(b[2] for b in plain)
        steps_plain = runner.trial_steps
        runner.tracer = Tracer(L.modules())
        runner.tracer.install()
        try:
            traced = runner.run_blocks(count=len(plain))
        finally:
            runner.tracer.uninstall()
        wall_traced = sum(b[2] for b in traced)
        layer = runner.tracer.layer_metrics()
        layer["mc_trial_steps_per_s"] = steps_plain / wall_plain
        layer["peak_rss_mb"] = peak_rss_mb()
        layer["trace.overhead_ratio"] = wall_traced / wall_plain
        metrics = {k: layer[k] for k in metric_names()}
        units = {k: unit_of(k) for k in metrics}
        SPANS_DIR.mkdir(exist_ok=True)
        spans = SPANS_DIR / f"spans-{w.name}-seed{args.seed}.jsonl"
        runner.tracer.write(spans)
        print(f"# {len(runner.tracer.spans)} spans written to "
              f"{spans.relative_to(ROOT)}; {len(plain)} blocks each way, "
              f"{wall_plain:.3f} s untraced, {wall_traced:.3f} s traced")
    else:
        # throughput and median latency are taken per block, then the
        # median over blocks: every block is the same stratified mix, and
        # the median keeps a burst of machine noise in one block out
        blocks = runner.run_blocks(seconds=args.seconds)
        wall = sum(b[2] for b in blocks)
        # the tail over a fixed number of blocks: with a fixed sample count
        # its percentile is the same on every run, and a faster program
        # (more blocks in the same time) is not judged at a higher one
        tail_ms, pct, n = tail([x for b in blocks[:w.tail_blocks]
                                for x in b[3]])
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": statistics.median(b[0] / b[2] for b in blocks),
            "goodput_ops_per_s": statistics.median(b[1] / b[2]
                                                   for b in blocks),
            "op_p50_ms": statistics.median(statistics.median(b[3])
                                           for b in blocks),
            "op_tail_ms": tail_ms,
        }
        units = dict(E2E_UNITS)
        if args.inventory:
            metrics["fail_ratio"] = 1.0 - sum(b[1] for b in blocks) / sum(
                b[0] for b in blocks)
            units["fail_ratio"] = "ratio"
        print(f"# peak_rss_mb = {peak_rss_mb():.6g} MB (per-layer metric)")
        print(f"# {len(blocks)} blocks, {runner.attempted} operations in "
              f"{wall:.3f} s; ops_per_s, goodput_ops_per_s and op_p50_ms "
              f"are medians over blocks; op_tail_ms is p{pct:.2f} of the "
              f"{n} samples of the first {min(len(blocks), w.tail_blocks)} "
              f"blocks ({min(n, TAIL_BEYOND)} beyond it)")
        print("# blocks (ops/s, median ms): " + ", ".join(
            f"({b[0] / b[2]:.4g}, {statistics.median(b[3]):.4g})"
            for b in blocks))
        print(f"# setup: import {statistics.median(imports):.4f} s + inputs "
              f"and warm-up {statistics.median(prepare):.4f} s "
              f"(medians of {SETUP_REPEATS})")

    failed_ops = len(runner.failures) - warm_failures
    print("# failures " + json.dumps(runner.failures, default=str))
    emit(correct=not runner.failures, attempted=runner.attempted,
         failed=failed_ops, metrics=metrics, units=units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
