"""Span recorders installed around the library's public functions.

`Tracer.install` rebinds each traced function in every `feedcap.*` module
namespace that holds it, so calls made inside the library (mac_code ->
dale_solve, cli -> simulate, g_value -> phi_star) are recorded as well as
the benchmark's own. Each span keeps its name, start, end, parent span and
the operation id; spans stay in memory until the run ends. Traced functions
are only ever called on the benchmark's thread (simulate's worker threads
call no traced function), so one span stack suffices.
"""
import functools
import inspect
import json
import sys
import time
from collections import defaultdict

TRACED = {
    "sum_capacity": ["solve_phi", "gamma_star", "phi_star", "g_value",
                     "g_derivative_check", "dependence_balance_gap",
                     "c2_concavity_probe", "validate_cov"],
    "riccati": ["dare_circulant", "dare_iterate", "dale_solve",
                "riclem_verify"],
    "mac_code": ["beta_for_power", "lqg_controller", "asymptotic_powers",
                 "exact_trajectory_stats", "exact_mse", "exact_step_table",
                 "simulate", "encode_step", "decode",
                 "mutual_info_identity_check"],
    "p2p_gaussian": ["feedback_transform", "periodic_integral",
                     "rate_integral", "power_integral", "bode_integral",
                     "random_stabilized_filter", "grid_capacity_search",
                     "sk_recursion_simulate"],
    "matrix_core": ["spectral_radius", "dft_matrix", "matrix_to_json"],
    "cli": ["main"],
}

# functions that can raise (or, for cli.main, exit non-zero) in a workload
FAILABLE = ["riccati.dale_solve", "riccati.dare_iterate",
            "p2p_gaussian.rate_integral", "p2p_gaussian.periodic_integral",
            "p2p_gaussian.random_stabilized_filter",
            "mac_code.lqg_controller", "cli.main"]

DERIVED = ["mac_code.simulate.ns_per_trial_step",
           "p2p_gaussian.sk_recursion_simulate.ns_per_trial_step",
           "riccati.dare_iterate.iterations",
           "mac_code.exact_trajectory_stats.steps",
           "p2p_gaussian.periodic_integral.points",
           "p2p_gaussian.grid_capacity_search.candidates",
           "p2p_gaussian.rate_integral.ok_ratio",
           "cli.stdout_bytes",
           "mc_trial_steps_per_s",
           "peak_rss_mb",
           "trace.overhead_ratio"]


def metric_names():
    """Every per-layer metric, in the order BENCHMARK.json lists them."""
    names = []
    for mod, fns in TRACED.items():
        for fn in fns:
            names += [f"{mod}.{fn}.calls", f"{mod}.{fn}.self_ms"]
    return names + [f + ".failed" for f in FAILABLE] + DERIVED


def unit_of(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("ns_per_trial_step"):
        return "ns"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("_mb"):
        return "MB"
    return "count"


class Tracer:
    def __init__(self, modules):
        self.modules = modules          # short name -> feedcap module
        self.spans = []                 # [name, t0, t1, parent, op, ok]
        self.stack = []
        self.op_id = -1
        self.counts = defaultdict(float)
        self._saved = []

    def install(self):
        """Rebind every traced function in each feedcap.* namespace."""
        owners = [m for name, m in sys.modules.items()
                  if m is not None and (name == "feedcap"
                                        or name.startswith("feedcap."))]
        for short, fns in TRACED.items():
            for fn in fns:
                orig = getattr(self.modules[short], fn)
                wrapped = self._wrap(f"{short}.{fn}", orig)
                for owner in owners:
                    for attr, val in list(vars(owner).items()):
                        if val is orig:
                            self._saved.append((owner, attr, orig))
                            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def _wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        hook = getattr(self, "_hook_" + name.replace(".", "_"), None)
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                args, kwargs = bound.args, bound.kwargs
                args, kwargs, after = hook(bound.arguments, args, kwargs)
            span = [name, 0, 0, self.stack[-1] if self.stack else -1,
                    self.op_id, False]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
                span[5] = True
                return out
            finally:
                span[2] = time.perf_counter_ns()
                self.stack.pop()
                if hook and after:
                    after(out if span[5] else None, span)
        return traced

    def _wrap_generator(self, name, fn):
        """A generator's span lasts as long as the time spent producing its
        items, not the consumer's time between them."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, time.perf_counter_ns(), 0,
                    self.stack[-1] if self.stack else -1, self.op_id, False]
            self.spans.append(span)
            busy = 0
            gen = fn(*args, **kwargs)
            try:
                while True:
                    self.stack.append(idx)
                    t = time.perf_counter_ns()
                    try:
                        item = next(gen)
                    except StopIteration:
                        break
                    finally:
                        busy += time.perf_counter_ns() - t
                        self.stack.pop()
                    yield item
                span[5] = True
            finally:
                span[2] = span[1] + busy
        return traced

    # hooks: (arguments, args, kwargs) -> (args, kwargs, after-callback)

    def _hook_mac_code_simulate(self, a, args, kwargs):
        self.counts["mac_code.simulate.trial_steps"] += \
            a["trials"] * a["n_steps"]
        return args, kwargs, None

    def _hook_p2p_gaussian_sk_recursion_simulate(self, a, args, kwargs):
        self.counts["p2p_gaussian.sk_recursion_simulate.trial_steps"] += \
            a["trials"] * a["n_steps"]
        return args, kwargs, None

    def _hook_mac_code_exact_trajectory_stats(self, a, args, kwargs):
        self.counts["mac_code.exact_trajectory_stats.steps"] += a["n_steps"]
        return args, kwargs, None

    def _hook_riccati_dare_iterate(self, a, args, kwargs):
        def after(out, span):
            if out is not None:
                self.counts["riccati.dare_iterate.iterations"] += \
                    out.iterations
        return args, kwargs, after

    def _hook_p2p_gaussian_periodic_integral(self, a, args, kwargs):
        func = a["func"]

        def counted(omega):
            self.counts["p2p_gaussian.periodic_integral.points"] += \
                len(omega)
            return func(omega)
        args = (counted,) + tuple(args[1:])
        return args, kwargs, None

    def _hook_cli_main(self, a, args, kwargs):
        start = sys.stdout.tell()

        def after(out, span):
            self.counts["cli.stdout_bytes"] += sys.stdout.tell() - start
            if out:                     # non-zero exit code
                span[5] = False
        return args, kwargs, after

    def layer_metrics(self):
        """calls, self_ms and failed per function, plus the counters."""
        n = len(self.spans)
        child = [0] * n
        for name, t0, t1, parent, _op, _ok in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        failed = defaultdict(int)
        for i, (name, t0, t1, parent, _op, ok) in enumerate(self.spans):
            calls[name] += 1
            self_ns[name] += t1 - t0 - child[i]
            failed[name] += not ok
        out = {}
        for mod, fns in TRACED.items():
            for fn in fns:
                q = f"{mod}.{fn}"
                out[q + ".calls"] = calls[q]
                out[q + ".self_ms"] = self_ns[q] / 1e6
        for q in FAILABLE:
            out[q + ".failed"] = failed[q]
        for q in ("mac_code.simulate", "p2p_gaussian.sk_recursion_simulate"):
            steps = self.counts[q + ".trial_steps"]
            out[q + ".ns_per_trial_step"] = self_ns[q] / steps if steps else 0
        for q in ("riccati.dare_iterate.iterations",
                  "mac_code.exact_trajectory_stats.steps",
                  "p2p_gaussian.periodic_integral.points",
                  "cli.stdout_bytes"):
            out[q] = self.counts[q]
        search = {i for i, s in enumerate(self.spans)
                  if s[0] == "p2p_gaussian.grid_capacity_search"}
        out["p2p_gaussian.grid_capacity_search.candidates"] = sum(
            1 for s in self.spans
            if s[0] == "p2p_gaussian.rate_integral" and s[3] in search)
        rate_calls = calls["p2p_gaussian.rate_integral"]
        out["p2p_gaussian.rate_integral.ok_ratio"] = (
            (rate_calls - failed["p2p_gaussian.rate_integral"]) / rate_calls
            if rate_calls else 0.0)
        return out

    def write(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for name, t0, t1, parent, op, ok in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": t0,
                                     "end_ns": t1, "parent": parent,
                                     "op": op, "ok": ok}) + "\n")
