"""The four benchmark workloads: input draws, the timed operation, and checks.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned and been checked. Inputs come in blocks
of a fixed mix of operation kinds, with the numeric inputs of a block on a
seed-jittered lattice (see `lattice`). A run always executes whole blocks,
so every seed runs the same mix and covers each range evenly; that is what
keeps the end-to-end figures steady across seeds while the inputs differ.

Each draw has two ranges. The *full* range is the documented parameter
range, known baseline breaks included. The *timed* range is the full
range minus the region where the program is known to break today (see
README.md, "Known breaks"); timed runs draw from it, so that no timed
operation fails on the baseline library. `run.py --inventory` draws from the full range
and runs the known-break probes, which is how those breaks are recorded.

Layer modules are reached as attributes of the namespace `L` at call time
(`L.mac.simulate`, never a name bound at import), so the span recorders that
tracing.py installs are seen by every call the benchmark makes.
"""
import contextlib
import functools
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

# --------------------------------------------------------------- helpers


def lattice(rng, k, d):
    """k points in [0, 1)^d, one per stratum of every axis, as d arrays.

    Point i sits in stratum i*m_j mod k of axis j, with fixed multipliers
    m_j coprime to k (a rank-1 lattice); the seed only jitters each point
    inside its cell and shuffles the order. Every block therefore pairs
    the strata of its axes the same way (small N with long horizons, large
    N with short ones, ...), so blocks cost about the same whatever the
    seed, while the inputs themselves differ.
    """
    mult = []
    m = 1
    while len(mult) < d:
        if math.gcd(m, k) == 1 and all((m - x) % k for x in mult):
            mult.append(m)
        m += 2
    i = np.arange(k)
    u = (np.stack([(i * m) % k for m in mult]) + rng.random((d, k))) / k
    return tuple(u[:, rng.permutation(k)])


def log_uniform(u, lo, hi):
    return float(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo))))


def log_int(u, lo, hi):
    """Integer in [lo, hi], log-uniform: small sizes are as common as large."""
    return min(hi, int(math.exp(math.log(lo) + u * (math.log(hi + 1)
                                                     - math.log(lo)))))


def seed64(rng):
    return int(rng.integers(0, 2 ** 63))


def phi_root(n, p):
    """Capacity root phi(P) in [1, N] by plain bisection on C2 - C1.

    The benchmark's own copy, used only to place draws inside the ranges
    below; the library under test never sees it.
    """
    def f(phi):
        return (n / (n - 1.0)) * math.log1p((n - phi) * p * phi) \
            - math.log1p(n * p * phi)
    lo, hi = 1.0, float(n)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if f(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def log2_beta(n, p):
    """log2 of the code gain beta = (1 + N P phi)^(1/(2N))."""
    return math.log2(1.0 + n * p * phi_root(n, p)) / (2.0 * n)


# Baseline envelope of the Lyapunov solve. dale_solve stops on an absolute
# step of 1e-10 while ||Kbar|| grows like N^2 beta^(2N); once float64
# round-off in that step exceeds 1e-10 it runs into its 100k-iteration cap
# (seconds to tens of seconds, then SolverError). Measured on the baseline library:
# N^2 beta^(2N) = 2.5e5 (N=48, P=0.5) converges, 3.5e5 (N=32, P=2) and
# 4.5e5 (N=64, P=0.375) hit the cap, and points near the edge converge
# slowly. Timed draws keep N^2 beta^(2N) below 1e5.
LYAPUNOV_ENVELOPE = 1e5

# Baseline envelope of the float64 decoder. The Monte Carlo error is the
# difference of two numbers near the message; once beta^(-n) falls under the
# message's float64 resolution the MSE stops falling. Measured on the baseline library:
# the MC/exact exponent ratio is within 1% up to n log2(beta) = 48 and off by
# 19-34% from 60-77. Timed draws keep n log2(beta) <= 40.
DECODER_ENVELOPE = 40.0

# Baseline envelope of exact propagation: the exact MSE beta^(-2n) K_jj
# underflows to 0 (exponent inf) once 2 n log2(beta) passes about 1074.
# Timed draws keep 2 n log2(beta) <= 1000, so the MSE stays a normal float.
UNDERFLOW_ENVELOPE = 1000.0


@functools.lru_cache(maxsize=None)
def power_cap(n, p_hi):
    """Largest P <= p_hi with N^2 beta^(2N) inside the Lyapunov envelope."""
    def inside(p):
        return n * n * (1.0 + n * p * phi_root(n, p)) <= LYAPUNOV_ENVELOPE
    if inside(p_hi):
        return p_hi
    lo, hi = 0.0, p_hi
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if inside(mid) else (lo, mid)
    return lo


# ---------------------------------------------------------------- checks


class Checks:
    """Named residuals against tolerances; a residual fails unless <= tol."""

    def __init__(self):
        self.items = []

    def le(self, name, residual, tol):
        self.items.append((name, float(residual), float(tol)))

    def failures(self):
        # `not r <= t` also fails NaN residuals
        return [{"check": n, "residual": r, "tol": t}
                for n, r, t in self.items if not r <= t]


def max_abs(x):
    return float(np.max(np.abs(np.asarray(x))))


def rel_gap(a, b):
    """max |a/b - 1| over the entries."""
    return max_abs(np.asarray(a, dtype=float) / np.asarray(b, dtype=float)
                   - 1.0)


@dataclass
class Workload:
    name: str
    why: str
    block: int          # operations per block
    tail_blocks: int = 3    # blocks op_tail_ms is taken over

    def draw_block(self, rng, full):
        raise NotImplementedError

    def warmup_inputs(self):
        raise NotImplementedError

    def run(self, L, inp, ctx):
        raise NotImplementedError

    def check(self, L, inp, out, ctx):
        raise NotImplementedError

    def known_breaks(self):
        return []

    def trial_steps(self, inp):
        """Monte Carlo trials x steps simulated by one operation."""
        return 0


# --------------------------------------------------------------- mc_code


class McCode(Workload):
    """beta_for_power -> lqg_controller -> exact_trajectory_stats -> simulate,
    with every fourth operation the scalar sk_recursion_simulate instead."""

    def draw_block(self, rng, full):
        n_mac = self.block * 3 // 4
        n_sk = self.block - n_mac
        out = []
        un, up, us, ut = lattice(rng, n_mac, 4)
        for i in range(n_mac):
            n = log_int(un[i], 2, 16)
            p = log_uniform(up[i], 0.5, 10.0)
            out.append({"kind": "mac", "n": n, "power": p,
                        "steps": self._steps(us[i], log2_beta(n, p), full),
                        "trials": 2048 + int(ut[i] * 2049),
                        "seed": seed64(rng)})
        up, us, ut = lattice(rng, n_sk, 3)
        for i in range(n_sk):
            p = log_uniform(up[i], 0.5, 10.0)
            out.append({"kind": "sk", "power": p,
                        "steps": self._steps(us[i], 0.5 * math.log2(1.0 + p),
                                             full),
                        "trials": 1500 + int(ut[i] * 1001),
                        "seed": seed64(rng)})
        # interleave: one scalar run after every three MAC runs
        mac, sk = iter(out[:n_mac]), iter(out[n_mac:])
        return [next(sk) if i % 4 == 3 else next(mac)
                for i in range(self.block)]

    @staticmethod
    def _steps(u, lb, full):
        hi = 150 if full else min(150, int(DECODER_ENVELOPE / lb))
        return 20 + int(u * (hi - 19))

    def warmup_inputs(self):
        return [{"kind": "mac", "n": 3, "power": 2.0, "steps": 20,
                 "trials": 1100, "seed": 1},
                {"kind": "sk", "power": 1.0, "steps": 20, "trials": 200,
                 "seed": 1}]

    def run(self, L, inp, ctx):
        if inp["kind"] == "sk":
            return L.p2p.sk_recursion_simulate(inp["power"], inp["steps"],
                                               inp["seed"],
                                               trials=inp["trials"])
        beta = L.mac.beta_for_power(inp["n"], inp["power"])
        sysm = L.mac.build_system(inp["n"], beta)
        ctrl = L.mac.lqg_controller(sysm)
        exact = L.mac.exact_trajectory_stats(sysm, ctrl, inp["steps"])
        rep = L.mac.simulate(sysm, ctrl, inp["steps"], inp["trials"],
                             inp["seed"])
        return exact, rep

    def check(self, L, inp, out, ctx):
        c = Checks()
        if inp["kind"] == "sk":
            # the tests hold the scalar exponent to log2(beta) and the power
            # to P; 5% as test_05 allows the MAC Monte Carlo
            lb = 0.5 * math.log2(1.0 + inp["power"])
            c.le("sk exponent / log2(beta) - 1", abs(out.exponent / lb - 1.0),
                 0.05)
            c.le("sk power / P - 1",
                 abs(out.empirical_power / inp["power"] - 1.0), 0.05)
            return c
        exact, rep = out
        c.le("MC / exact exponent - 1",
             rel_gap(rep.mse_exponents, exact.mse_exponents), 0.05)
        c.le("MC / exact power - 1",
             rel_gap(rep.empirical_powers, exact.mean_powers), 0.05)
        return c

    def known_breaks(self):
        # the float64 decoder floor: measured 0.85x at 100 steps, 0.55x at 150
        return [{"kind": "mac", "n": 3, "power": 2.0, "steps": s,
                 "trials": 2048, "seed": 7} for s in (100, 150)]

    def trial_steps(self, inp):
        return inp["trials"] * inp["steps"]


# ---------------------------------------------------------- design_sweep


class DesignSweep(Workload):
    """One full design point: capacity root, converse weight, Riccati closed
    form and iteration, controller, stationary powers, exact exponents."""

    def draw_block(self, rng, full):
        out = []
        un, up, uh = lattice(rng, self.block, 3)
        for i in range(self.block):
            n = log_int(un[i], 2, 64)
            p = log_uniform(up[i], 0.1, 20.0 if full else power_cap(n, 20.0))
            hi = 2000
            if not full:
                hi = min(hi, int(UNDERFLOW_ENVELOPE / (2.0 * log2_beta(n, p))))
            out.append({"n": n, "power": p,
                        "horizon": 200 + int(uh[i] * (hi - 199))})
        return out

    def warmup_inputs(self):
        return [{"n": 3, "power": 2.0, "horizon": 200}]

    def run(self, L, inp, ctx):
        n, p = inp["n"], inp["power"]
        params = L.sc.MacParams(n_senders=n, power=p)
        sol = L.sc.solve_phi(params)
        gs = L.sc.gamma_star(params, sol.phi)
        r = {"sol": sol, "phi_rt": L.sc.phi_star(n, gs, p),
             "g": L.sc.g_value(n, gs, p)}
        beta = r["beta"] = L.mac.beta_for_power(n, p)
        r["circ"] = L.ric.dare_circulant(n, beta)
        sysab = L.ric.symmetric_system(n, beta)
        r["riclem"] = L.ric.riclem_verify(r["circ"], sysab)
        r["iter"] = L.ric.dare_iterate(sysab, np.eye(n))
        sysm = L.mac.build_system(n, beta)
        ctrl = r["ctrl"] = L.mac.lqg_controller(sysm)
        r["radius"] = L.mac.closed_loop_radius(sysm, ctrl)
        r["powers"] = L.mac.asymptotic_powers(sysm, ctrl)
        r["exact"] = L.mac.exact_trajectory_stats(sysm, ctrl, inp["horizon"])
        return r

    def check(self, L, inp, r, ctx):
        # tolerances of test_01 - test_04, test_10 and `verify all`
        n, p, h = inp["n"], inp["power"], inp["horizon"]
        c = Checks()
        sol = r["sol"]
        c.le("phi outside [1, N]", max(0.0, 1.0 - sol.phi, sol.phi - n), 0.0)
        c.le("|c1 - c2| at phi", sol.residual, 1e-9)
        c.le("capacity polynomial identity (log form)",
             abs((n - 1) * math.log1p(n * p * sol.phi)
                 - n * math.log1p(p * sol.phi * (n - sol.phi))), 1e-8)
        c.le("|phi*(gamma*) - phi|", abs(r["phi_rt"] - sol.phi), 1e-8)
        c.le("|g(gamma*) - c1|", abs(r["g"] - sol.c1), 1e-8)
        c.le("|N log2(beta) - c1|", abs(n * math.log2(r["beta"]) - sol.c1),
             1e-9)
        G = r["circ"].G
        gdiag = G.diagonal().real
        c.le("Riccati sum identity (a)", r["riclem"].residual_a, 1e-8)
        c.le("Riccati sum identity (b)", r["riclem"].residual_b, 1e-8)
        c.le("max |G_jj - P|", max_abs(gdiag - p), 1e-6)
        c.le("|lambda_1 - P phi|",
             abs(float(np.max(np.linalg.eigvalsh(G))) - p * sol.phi), 1e-6)
        c.le("|G_iterate - G_circulant|",
             float(np.linalg.norm(r["iter"].G - G)), 1e-8)
        c.le("closed-loop spectral radius", r["radius"], 1.0 - 1e-12)
        c.le("max |asymptotic power - G_jj|", max_abs(r["powers"] - gdiag),
             1e-8)
        # exact exponent against the stationary route: with K_h -> Kbar,
        # exponent = log2(beta) - log2(Kbar_jj) / (2h), Kbar_jj = P_j/|c_j|^2
        kbar = r["powers"] / np.abs(r["ctrl"].gains) ** 2
        pred = math.log2(r["beta"]) - np.log2(kbar) / (2.0 * h)
        c.le("|exact exponent - stationary route|",
             max_abs(r["exact"].mse_exponents - pred), 1e-6)
        return c

    def known_breaks(self):
        # dale_solve's iteration cap (about 4 s and 6 s before raising) and
        # the exact-exponent underflow to inf by 1000 steps at N=3, P=2
        return [{"n": 24, "power": 10.0, "horizon": 300},
                {"n": 32, "power": 2.0, "horizon": 300},
                {"n": 3, "power": 2.0, "horizon": 1100}]


# ----------------------------------------------------------- p2p_filters


def jensen_rate(pole, gain):
    """Rate of B(z) = g/(z - p), |p| < 1, by Jensen's formula, in bits:
    1 + B has its single zero at p - g, so the rate is log2+|p - g|."""
    return max(0.0, math.log2(abs(pole - gain)))


class P2pFilters(Workload):
    """grid_capacity_search over an ARMA(1) spectrum, with every third
    operation a random_stabilized_filter draw checked by the Bode identity.

    A filter draw costs 20 ms to 2 s depending on how many random draws its
    gain scan rejects, so a few draws would set a run's throughput and tail.
    Every block therefore draws the same FILTER_SEEDS generator seeds, in an
    order taken from the workload seed: each run sees the same filter costs,
    and the searches carry the seed-to-seed variation."""

    FILTER_SEEDS = tuple(range(8))

    def draw_block(self, rng, full):
        n_filter = len(self.FILTER_SEEDS)
        n_search = self.block - n_filter
        per = n_search // n_filter
        ua, uc, up, ug = lattice(rng, n_search, 4)
        filters = iter(rng.permutation(self.FILTER_SEEDS))
        out = []
        for i in range(n_search):
            out.append({"kind": "search",
                        "alpha": -0.9 + 1.8 * float(ua[i]),
                        "pole_coef": -0.8 + 1.6 * float(uc[i]),
                        "power": log_uniform(up[i], 0.5, 10.0),
                        "poles": 16 + int(ug[i] * 33), "gains": 2})
            if i % per == per - 1:
                out.append({"kind": "filter", "seed": int(next(filters))})
        return out

    def warmup_inputs(self):
        return [{"kind": "search", "alpha": 0.5, "pole_coef": 0.2,
                 "power": 2.0, "poles": 10, "gains": 2},
                {"kind": "filter", "seed": 17}]

    def run(self, L, inp, ctx):
        if inp["kind"] == "filter":
            f = L.p2p.random_stabilized_filter(
                np.random.default_rng(inp["seed"]))
            return f, L.p2p.bode_integral(f), L.p2p.instability(f)
        s_z = L.p2p.Arma1Spectrum(alpha=inp["alpha"],
                                  pole_coef=inp["pole_coef"])
        return L.p2p.grid_capacity_search(
            s_z, inp["power"], pole_grid=np.linspace(0.0, 0.99, inp["poles"]),
            gains_per_pole=inp["gains"])

    def check(self, L, inp, out, ctx):
        c = Checks()
        if inp["kind"] == "filter":
            f, bode, inst = out
            own = sum(math.log2(abs(p)) for p in f.poles if abs(p) > 1.0)
            c.le("|Bode integral - instability|", abs(bode - inst), 2e-6)
            c.le("|instability - sum log2|p|, |p|>1|", abs(inst - own), 1e-12)
            return c
        pole, gain = out.filter.poles[0].real, out.filter.gain.real
        c.le("|rate - Jensen closed form|",
             abs(out.rate - jensen_rate(pole, gain)), 1e-6)
        c.le("|power used / P - 1|", abs(out.power / inp["power"] - 1.0),
             1e-6)
        return c


# ----------------------------------------------------------- cli_session


@dataclass
class CliOut:
    code: int
    stdout: str
    stderr: str


def run_cli(L, argv, threads):
    """feedcap.cli.main(argv) in process with stdout and stderr captured.

    threads is the FEEDCAP_THREADS value for the call, None for unset.
    """
    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.pop("FEEDCAP_THREADS", None)
    if threads is not None:
        os.environ["FEEDCAP_THREADS"] = threads
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = L.cli.main(list(argv))
            except SystemExit as exc:       # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 2
    finally:
        os.environ.pop("FEEDCAP_THREADS", None)
        if saved is not None:
            os.environ["FEEDCAP_THREADS"] = saved
    return CliOut(code, out.getvalue(), err.getvalue())


def fmt(x):
    return repr(float(x))


def stabilized_filter_args(rng):
    """A stabilized open loop built by the benchmark: 1-3 unstable poles,
    closed-loop roots drawn inside 0.85, and gain * numerator = d - q."""
    k = int(rng.integers(1, 4))
    poles = rng.uniform(1.05, 2.0, size=k)
    roots = rng.uniform(-0.85, 0.85, size=k)
    num = np.poly(poles) - np.poly(roots)       # degree k - 1
    num = num[1:]
    gain = float(num[0])
    zeros = np.roots(num) if k > 1 else []
    zs = ",".join(f"{float(z.real)!r}{float(z.imag):+.17g}j"
                  for z in np.asarray(zeros, complex))
    return [float(p) for p in poles], zs, gain


def envelope_of(text):
    env = json.loads(text)
    env.pop("wall_time_ms")
    return env


class CliSession(Workload):
    """The README command list as typed, run through feedcap.cli.main.

    One block is one session: every command kind once with drawn
    arguments, the size-dependent kinds at several stratified sizes, and
    then the first invocation of each kind repeated with identical
    arguments to check the reproducibility contract.
    """

    SIZED = 6       # dare/lqg invocations per session, stratified over N

    def draw_block(self, rng, full):
        inv = []

        def add(kind, argv, **extra):
            inv.append({"kind": kind, "argv": [str(a) for a in argv],
                        **extra})

        p = log_uniform(rng.random(), 0.1, 20.0)
        add("sumcap", ["sumcap", "--n", log_int(rng.random(), 2, 64),
                       "--power", fmt(p)])
        for un, ub in zip(*lattice(rng, self.SIZED, 2)):
            n = log_int(un, 2, 64)
            beta = self._beta(n, ub, full)
            add("dare", ["dare", "--n", n, "--beta", fmt(beta)])
            add("dare_iterate", ["dare", "--n", n, "--beta", fmt(beta),
                                 "--method", "iterate"])
        for un, ub in zip(*lattice(rng, self.SIZED, 2)):
            n = log_int(un, 2, 64)
            add("lqg", ["lqg", "--n", n, "--beta",
                        fmt(self._beta(n, ub, full))])
        n = log_int(rng.random(), 2, 8)
        p = log_uniform(rng.random(), 0.5, 10.0)
        hi = 150 if full else min(150, int(DECODER_ENVELOPE / log2_beta(n, p)))
        steps = 20 + int(rng.random() * (hi - 19))
        add("simulate", ["simulate", "--n", n, "--power", fmt(p), "--steps",
                         steps, "--trials", int(rng.integers(2048, 4097)),
                         "--seed", int(rng.integers(0, 2 ** 31)), "--exact"])
        n = log_int(rng.random(), 2, 8)
        add("simulate_csv", ["simulate", "--n", n, "--power",
                             fmt(log_uniform(rng.random(), 0.5, 10.0)),
                             "--steps", int(rng.integers(20, 101)), "--csv"])
        add("p2p_sk", ["p2p", "sk", "--power",
                       fmt(log_uniform(rng.random(), 0.1, 20.0))])
        poles, zeros, gain = stabilized_filter_args(rng)
        add("p2p_bode", ["p2p", "bode", "--poles", ",".join(map(fmt, poles)),
                         "--zeros", zeros, "--gain", fmt(gain)])
        add("p2p_search", ["p2p", "search",
                           "--alpha", fmt(rng.uniform(-0.9, 0.9)),
                           "--pole-coef", fmt(rng.uniform(-0.8, 0.8)),
                           "--power", fmt(log_uniform(rng.random(), 0.5,
                                                      10.0)),
                           "--grid", f"{int(rng.integers(60, 141))}x2"])
        n0 = int(rng.integers(2, 5))
        add("sweep", ["sweep", "--n-list",
                      f"{n0}:{n0 + 4}:5", "--powers",
                      f"{fmt(rng.uniform(0.1, 1.0))}:"
                      f"{fmt(rng.uniform(5.0, 20.0))}:"
                      f"{int(rng.integers(20, 61))}"])
        # three converse suites, so that the session tail (op_tail_ms)
        # lands inside a group of like-sized operations, not on its edge
        for un, up in zip(*lattice(rng, 3, 2)):
            add("verify_converse", ["verify", "converse",
                                    "--n", log_int(un, 2, 64),
                                    "--power",
                                    fmt(log_uniform(up, 0.1, 20.0))])
        n = log_int(rng.random(), 2, 64 if full else 12)
        p_hi = 20.0 if full else power_cap(n, 20.0)
        add("verify_all", ["verify", "all", "--n", n, "--power",
                           fmt(log_uniform(rng.random(), 0.1, p_hi))])
        # the reproducibility contract: the first invocation of each kind
        # again with identical arguments; simulate flips FEEDCAP_THREADS
        first = {}
        for i, x in enumerate(inv):
            first.setdefault(x["kind"], i)
        for kind, i in first.items():
            inv.append({"kind": "repeat", "argv": inv[i]["argv"],
                        "of": i, "threads": "2" if kind == "simulate"
                        else None})
        for i, x in enumerate(inv):
            x["slot"] = i
        return inv

    @staticmethod
    def _beta(n, u, full):
        """The gain beta = 2^log2_beta(N, P) of a power P drawn from the
        documented 0.1-20 (timed: inside the Lyapunov envelope)."""
        p = log_uniform(u, 0.1, 20.0 if full else power_cap(n, 20.0))
        return 2.0 ** log2_beta(n, p)

    def warmup_inputs(self):
        block = [
            ["sumcap", "--n", "3", "--power", "2"],
            ["dare", "--n", "3", "--beta", "1.1"],
            ["dare", "--n", "3", "--beta", "1.1", "--method", "iterate"],
            ["lqg", "--n", "3", "--beta", "1.1"],
            ["simulate", "--n", "2", "--power", "1", "--steps", "8",
             "--trials", "512", "--seed", "3", "--exact"],
            ["simulate", "--n", "2", "--power", "1", "--steps", "8", "--csv"],
            ["p2p", "sk", "--power", "1"],
            ["p2p", "bode", "--poles", "1.3,1.7", "--zeros", "0.5",
             "--gain", "-4.0857"],
            ["p2p", "search", "--power", "1", "--grid", "10x2"],
            ["sweep", "--n-list", "2:3:2", "--powers", "1:2:2"],
        ]
        return [{"kind": "warmup", "argv": a, "slot": i}
                for i, a in enumerate(block)]

    def run(self, L, inp, ctx):
        return run_cli(L, inp["argv"], inp.get("threads"))

    def check(self, L, inp, out, ctx):
        c = Checks()
        ctx[inp["slot"]] = out
        c.le("exit code", abs(out.code), 0)
        if out.code != 0:
            return c
        kind = inp["kind"]
        if kind == "repeat":
            ref = ctx.get(inp["of"])
            if ref is None:
                return c
            c.le("repeat differs from first run",
                 0.0 if self._same(ref.stdout, out.stdout) else 1.0, 0.0)
            return c
        if kind in ("simulate_csv", "sweep", "verify_converse",
                    "verify_all", "warmup"):
            text = out.stdout
            if kind == "simulate_csv":
                self._check_csv(L, inp["argv"], text, c)
            elif kind == "sweep":
                self._check_sweep(text, c)
            elif kind.startswith("verify"):
                lines = [ln for ln in text.splitlines()
                         if not ln.startswith("#")]
                c.le("verify FAIL lines",
                     sum(not ln.startswith("PASS") for ln in lines), 0)
            return c
        try:
            pay = envelope_of(out.stdout)["payload"]
        except (ValueError, KeyError):
            c.le("stdout is a JSON envelope", 1.0, 0.0)
            return c
        getattr(self, "_check_" + kind)(L, inp, pay, ctx, c)
        return c

    @staticmethod
    def _same(a, b):
        """JSON envelopes compare without wall_time_ms, text byte for byte;
        stdout that starts as JSON but does not parse never matches."""
        if not a.lstrip().startswith("{"):
            return a == b
        try:
            return envelope_of(a) == envelope_of(b)
        except (ValueError, KeyError):
            return False

    # per-kind checks, each from the test that pins the same quantity

    def _check_sumcap(self, L, inp, pay, ctx, c):
        n, p, phi = pay["n"], pay["power"], pay["phi"]
        c.le("|c1 - c2| at phi", pay["residual"], 1e-9)
        c.le("capacity polynomial identity (log form)",
             abs((n - 1) * math.log1p(n * p * phi)
                 - n * math.log1p(p * phi * (n - phi))), 1e-8)
        c.le("|phi*(gamma*) - phi|",
             abs(L.sc.phi_star(n, pay["gamma_star"], p) - phi), 1e-8)

    @staticmethod
    def _matrix(d):
        return (np.asarray(d["re"]) + 1j * np.asarray(d["im"])).reshape(
            d["rows"], d["cols"])

    def _check_dare(self, L, inp, pay, ctx, c):
        res = pay["identity_residuals"]
        c.le("Riccati sum identity (a)", res["a"], 1e-8)
        c.le("Riccati sum identity (b)", res["b"], 1e-8)
        ctx[("G", pay["n"], pay["beta"])] = self._matrix(pay["G"])

    def _check_dare_iterate(self, L, inp, pay, ctx, c):
        # the circulant run of the same arguments came first in the session
        g_circ = ctx[("G", pay["n"], pay["beta"])]
        c.le("|G_iterate - G_circulant|",
             float(np.linalg.norm(self._matrix(pay["G"]) - g_circ)), 1e-8)

    def _check_lqg(self, L, inp, pay, ctx, c):
        c.le("closed-loop spectral radius", pay["spectral_radius"],
             1.0 - 1e-12)
        gdiag = self._matrix(pay["G"]).diagonal().real
        c.le("max |asymptotic power - G_jj|",
             max_abs(np.asarray(pay["asymptotic_powers"]) - gdiag), 1e-8)

    def _check_simulate(self, L, inp, pay, ctx, c):
        ex = pay["exact"]
        c.le("MC / exact exponent - 1",
             rel_gap(pay["mse_exponents"], ex["mse_exponents"]), 0.05)
        c.le("MC / exact power - 1",
             rel_gap(pay["empirical_powers"], ex["mean_powers"]), 0.05)

    def _check_csv(self, L, argv, text, c):
        n = int(argv[argv.index("--n") + 1])
        p = float(argv[argv.index("--power") + 1])
        steps = int(argv[argv.index("--steps") + 1])
        rows = [ln.split(",") for ln in text.splitlines()
                if ln and not ln.startswith("#")][1:]
        c.le("CSV rows != steps", abs(len(rows) - steps), 0)
        if len(rows) != steps:
            return
        table = np.array(rows, dtype=float)
        sysm = L.mac.build_system(n, L.mac.beta_for_power(n, p))
        ex = L.mac.exact_trajectory_stats(
            sysm, L.mac.lqg_controller(sysm), steps)
        # the table is printed to 12 significant digits
        c.le("final-step D_j / exact MSE - 1",
             rel_gap(table[-1, 1:1 + n], ex.per_sender_mse), 1e-9)
        c.le("mean power_j / exact mean power - 1",
             rel_gap(table[:, 1 + n:].mean(axis=0), ex.mean_powers), 1e-9)

    def _check_p2p_sk(self, L, inp, pay, ctx, c):
        target = 0.5 * math.log2(1.0 + pay["power"])
        c.le("|instability - 1/2 log2(1+P)|", abs(pay["instability"] - target),
             1e-6)
        c.le("|rate integral - 1/2 log2(1+P)|",
             abs(pay["rate_integral"] - target), 1e-6)
        c.le("|power integral - P|", abs(pay["power_integral"] - pay["power"]),
             1e-6)

    def _check_p2p_bode(self, L, inp, pay, ctx, c):
        poles = [complex(p["re"], p["im"]) for p in pay["poles"]]
        own = sum(math.log2(abs(p)) for p in poles if abs(p) > 1.0)
        c.le("|Bode integral - instability|", pay["residual"], 2e-6)
        c.le("|instability - sum log2|p|, |p|>1|",
             abs(pay["instability"] - own), 1e-12)

    def _check_p2p_search(self, L, inp, pay, ctx, c):
        c.le("|rate - Jensen closed form|",
             abs(pay["rate"] - jensen_rate(pay["pole"]["re"],
                                           pay["gain"]["re"])), 1e-6)
        c.le("|power used / P - 1|",
             abs(pay["power_used"] / pay["power"] - 1.0), 1e-6)

    @staticmethod
    def _check_sweep(text, c):
        rows = [ln.split(",") for ln in text.splitlines()
                if ln and not ln.startswith("#")][1:]
        c.le("sweep rows", 0 if rows else 1, 0)
        worst = {"error column set": 0.0, "poly": 0.0, "rate": 0.0,
                 "gjj": 0.0}
        for n, p, phi, _rho, cap, beta, gjj, err in rows:
            if err:
                worst["error column set"] = 1.0
                continue
            n, p, phi = int(n), float(p), float(phi)
            cap, beta, gjj = float(cap), float(beta), float(gjj)
            worst["poly"] = max(worst["poly"], abs(
                (n - 1) * math.log1p(n * p * phi)
                - n * math.log1p(p * phi * (n - phi))))
            worst["rate"] = max(worst["rate"],
                                abs(n * math.log2(beta) - cap))
            worst["gjj"] = max(worst["gjj"], abs(gjj - p) / max(1.0, p))
        c.le("sweep rows with an error", worst["error column set"], 0.0)
        # values are printed to 12 significant digits
        c.le("sweep capacity polynomial identity", worst["poly"], 1e-8)
        c.le("sweep |N log2(beta) - capacity|", worst["rate"], 1e-9)
        c.le("sweep |G_jj - P| / max(1, P)", worst["gjj"], 1e-6)

    def known_breaks(self):
        # lqg at N=64, beta=1.1 exits 3 after about 21 s (dale_solve cap)
        return [{"kind": "lqg", "argv": ["lqg", "--n", "64", "--beta", "1.1"],
                 "slot": 0}]


WORKLOADS = {w.name: w for w in (
    McCode("mc_code", "Monte Carlo chain; small N exposes per-trial RNG "
           "keying, large N chunk stepping", 32),
    DesignSweep("design_sweep", "Riccati, Lyapunov and exact propagation "
                "over N 2-64, with no RNG and no quadrature", 64),
    P2pFilters("p2p_filters", "p2p quadrature and root scans only; no MAC "
               "layer runs", 24),
    CliSession("cli_session", "the README command list through cli.main: "
               "argparse, envelopes, converse probes, thread pool", 1),
)}
