"""Single-binary command line surface.

Subcommands expose every solver plus verification suites:

    feedcap sumcap   --n 3 --power 2          sum-capacity root and weights
    feedcap dare     --n 3 --beta 1.1         Riccati solution as JSON
    feedcap lqg      --n 3 --beta 1.1         gains, radius, powers
    feedcap simulate --n 3 --power 2 ...      Monte Carlo report
    feedcap p2p sk|bode|search ...            point-to-point machinery
    feedcap verify converse|all ...           pass/fail property suites
    feedcap sweep    ...                      CSV capacity tables

JSON results are wrapped in an envelope {tool_version, config, payload,
wall_time_ms}; the payload bytes are reproducible for identical config and
seed. CSV goes to stdout with the resolved config echoed in a leading
comment. Rates are in bits. verify prints one row per check,
"PASS|FAIL name: value=... tol=... margin=...", passing iff value <= tol.
Exit codes: 0 ok, 2 usage, 3 numeric failure or a failed check.
FEEDCAP_THREADS caps simulation worker threads.
"""
import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .errors import SolverError
from .matrix_core import matrix_to_json
from .riccati import dare_circulant, dare_iterate, riclem_verify
from .sum_capacity import (MacParams, c2_concavity_probe,
                           dependence_balance_gap, g_derivative_check,
                           gamma_star, g_value, phi_star, solve_phi,
                           symmetric_cov)
from .mac_code import (asymptotic_powers, beta_for_power, build_system,
                       closed_loop_radius, decode, encode_step,
                       exact_step_table, exact_trajectory_stats,
                       lqg_controller, mutual_info_identity_check, simulate)
from .p2p_gaussian import (WHITE, Arma1Spectrum, ZpkFilter, bode_integral,
                           feedback_transform, grid_capacity_search,
                           instability, power_integral,
                           random_stabilized_filter, rate_integral, sk_filter)


NUMERIC_ERRORS = (SolverError, ValueError, ArithmeticError,
                  np.linalg.LinAlgError)


def _complex_json(c):
    return {"re": float(np.real(c)), "im": float(np.imag(c))}


def _emit(args, payload, t0):
    envelope = {
        "tool_version": __version__,
        "config_echo": {k: v for k, v in sorted(vars(args).items())
                        if k != "func" and not k.startswith("_")},
        "payload": payload,
        "wall_time_ms": int((time.perf_counter() - t0) * 1000),
    }
    print(json.dumps(envelope, sort_keys=True))
    return 0


def _threads():
    """FEEDCAP_THREADS as a worker-thread count, 1 when unset or empty."""
    raw = os.environ.get("FEEDCAP_THREADS", "")
    try:
        threads = int(raw) if raw else 1
    except ValueError:
        threads = 0
    if threads < 1:
        raise ValueError("FEEDCAP_THREADS must be a positive integer, "
                         f"got {raw!r}")
    return threads


# ---------------------------------------------------------------- sumcap

def _cmd_sumcap(args, t0):
    params = MacParams(n_senders=args.n, power=args.power)
    sol = solve_phi(params)
    payload = {
        "n": args.n, "power": args.power,
        "phi": sol.phi, "rho": sol.rho, "c1": sol.c1, "c2": sol.c2,
        "residual": sol.residual, "sum_capacity": sol.c1,
        "gamma_star": gamma_star(params, sol.phi) if args.power > 0 else None,
    }
    return _emit(args, payload, t0)


# ------------------------------------------------------------------ dare

def _cmd_dare(args, t0):
    sysm = build_system(args.n, args.beta)
    if args.method == "circulant":
        sol = dare_circulant(args.n, args.beta)
    else:
        sol = dare_iterate(sysm, np.eye(args.n))
    check = riclem_verify(sol, sysm)
    payload = {
        "n": args.n, "beta": args.beta, "method": args.method,
        "G": matrix_to_json(sol.G),
        "iterations": sol.iterations,
        "residual": sol.residual,
        "identity_residuals": {"a": check.residual_a, "b": check.residual_b},
    }
    return _emit(args, payload, t0)


# ------------------------------------------------------------------- lqg

def _cmd_lqg(args, t0):
    sysm = build_system(args.n, args.beta)
    ctrl = lqg_controller(sysm)
    payload = {
        "n": args.n, "beta": args.beta,
        "gains": [_complex_json(c) for c in ctrl.gains],
        "spectral_radius": closed_loop_radius(sysm, ctrl),
        "asymptotic_powers": asymptotic_powers(sysm, ctrl).tolist(),
        "G": matrix_to_json(dare_circulant(args.n, args.beta).G),
    }
    return _emit(args, payload, t0)


# -------------------------------------------------------------- simulate

def _cmd_simulate(args, t0):
    try:
        threads = _threads()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sysm = build_system(args.n, beta_for_power(args.n, args.power))
    ctrl = lqg_controller(sysm)
    if args.csv:
        print(f"# config: n={args.n} power={args.power} steps={args.steps}")
        cols = ["step"] + [f"d_{j+1}" for j in range(args.n)] \
            + [f"power_{j+1}" for j in range(args.n)]
        print(",".join(cols))
        for step, d_row, p_row in exact_step_table(sysm, ctrl, args.steps):
            vals = [str(step)] + [f"{v:.12g}" for v in d_row] \
                + [f"{v:.12g}" for v in p_row]
            print(",".join(vals))
        return 0
    report = simulate(sysm, ctrl, args.steps, args.trials, args.seed,
                      threads=threads)
    payload = {
        "n": args.n, "power": args.power, "beta": sysm.beta,
        "n_steps": report.n_steps, "trials": report.trials,
        "seed": report.seed, "rng_algorithm": report.rng_algorithm,
        "per_sender_mse": report.per_sender_mse.tolist(),
        "mse_exponents": report.mse_exponents.tolist(),
        "empirical_powers": report.empirical_powers.tolist(),
    }
    if args.exact:
        stats = exact_trajectory_stats(sysm, ctrl, args.steps)
        payload["exact"] = {
            "per_sender_mse": stats.per_sender_mse.tolist(),
            "mse_exponents": stats.mse_exponents.tolist(),
            "mean_powers": stats.mean_powers.tolist(),
        }
    return _emit(args, payload, t0)


# ------------------------------------------------------------------- p2p

def _parse_complex_list(text):
    if not text:
        return ()
    return tuple(complex(tok) for tok in text.split(","))


def _sensitivity_csv(f, s_z, points=2048):
    omega = np.linspace(-np.pi, np.pi, points + 1)
    z = np.exp(1j * omega)
    s_mag = np.abs(1.0 / (1.0 - f.response(z)))
    dens = s_z.density(omega)
    print("omega,sensitivity_mag,noise_density,log2_sensitivity")
    for om, sm, sd in zip(omega, s_mag, dens):
        print(f"{om:.10g},{sm:.12g},{sd:.12g},{np.log2(sm):.12g}")


def _cmd_p2p_sk(args, t0):
    f = sk_filter(args.power)
    b = feedback_transform(f)
    if args.csv:
        print(f"# config: power={args.power}")
        _sensitivity_csv(f, WHITE)
        return 0
    try:    # the grid needs about 37/P points: 2^20 fails below 3.5e-5
        rate, power = rate_integral(b), power_integral(b)
    except SolverError as exc:
        raise SolverError(f"p2p sk at P={args.power}: {exc}") from None
    payload = {
        "power": args.power,
        "beta": float(np.sqrt(1.0 + args.power)),
        "poles": [_complex_json(p) for p in f.poles],
        "gain": _complex_json(f.gain),
        "instability": instability(f),
        "rate_integral": rate,
        "power_integral": power,
        "closed_loop_pole": [_complex_json(p) for p in b.poles],
    }
    return _emit(args, payload, t0)


def _cmd_p2p_bode(args, t0):
    f = ZpkFilter(zeros=_parse_complex_list(args.zeros),
                  poles=_parse_complex_list(args.poles),
                  gain=complex(args.gain))
    if args.csv:
        print(f"# config: poles={args.poles} zeros={args.zeros} gain={args.gain}")
        _sensitivity_csv(f, WHITE)
        return 0
    val = bode_integral(f)
    inst = instability(f)
    payload = {
        "poles": [_complex_json(p) for p in f.poles],
        "zeros": [_complex_json(z) for z in f.zeros],
        "gain": _complex_json(f.gain),
        "instability": inst,
        "bode_integral": val,
        "residual": abs(val - inst),
    }
    return _emit(args, payload, t0)


def _cmd_p2p_search(args, t0):
    s_z = Arma1Spectrum(alpha=args.alpha, pole_coef=args.pole_coef,
                        convention=args.convention)
    try:
        n_poles, n_gains = (int(v) for v in args.grid.split("x"))
        # the search always tries both boundary gains; a smaller grid would
        # be echoed but not searched
        if n_poles < 1 or n_gains < 2:
            raise ValueError
    except ValueError:
        print(f"error: --grid expects POLESxGAINS with POLES >= 1 and "
              f"GAINS >= 2, got {args.grid!r}", file=sys.stderr)
        return 2
    grid = np.linspace(0.0, 0.99, n_poles)
    best = grid_capacity_search(s_z, args.power, pole_grid=grid,
                                gains_per_pole=n_gains)
    payload = {
        "alpha": args.alpha, "pole_coef": args.pole_coef,
        "convention": args.convention, "power": args.power,
        "grid": args.grid,
        "pole": _complex_json(best.filter.poles[0]),
        "gain": _complex_json(best.filter.gain),
        "rate": best.rate,
        "power_used": best.power,
    }
    return _emit(args, payload, t0)


# ---------------------------------------------------------------- verify
#
# Each suite returns the values of its rows, in the order of its table of
# (name, tol); _cmd_verify alone judges them. A lower bound x >= -tol
# enters as the value -x.

CONVERSE_ROWS = (
    ("dependence balance zero at optimum", 1e-8),
    ("dependence balance nonnegative on diagonals", 1e-10),
    ("conditional-information concavity", 1e-10),
    ("phi* bounds and monotonicity", 0.0),
    ("weighted-capacity derivative identity", 1e-5))


def _converse_checks(n, power, seed):
    params = MacParams(n_senders=n, power=power)
    sol = solve_phi(params)
    gap = dependence_balance_gap(symmetric_cov(n, power, sol.rho))
    # drawn one probe at a time, evaluated as one stack per dimension
    rng = np.random.default_rng(seed)
    diags, pairs = {2: [], 3: [], 4: []}, {2: [], 3: [], 4: []}
    for _ in range(200):
        dim = int(rng.integers(2, 5))
        diags[dim].append(np.diag(rng.uniform(0.01, 10.0, size=dim)))
    for _ in range(200):
        dim = int(rng.integers(2, 5))
        m = rng.normal(size=(2, dim, dim))
        pairs[dim].append(m @ m.swapaxes(1, 2) + 1e-3 * np.eye(dim))
    gaps = [dependence_balance_gap(np.array(k)) for k in diags.values()]
    # K1 and K2 of shape (pairs, 1, dim, dim) against three t: (pairs, 3)
    margins = [c2_concavity_probe(*np.array(k)[:, :, None].swapaxes(0, 1),
                                  (0.25, 0.5, 0.75)) for k in pairs.values()]
    bad_points = 0
    deriv = []
    for gamma in np.linspace(1.01, 5.0, 8):
        prev = None
        for x in np.linspace(0.0, 10.0, 9):
            ph = phi_star(n, gamma, x)
            lo = (n + gamma - 1.0) / (2.0 * gamma)
            bad_points += not (lo - 1e-12 <= ph < n / 2.0
                               and (prev is None or ph > prev))
            prev = ph
            if x > 0:
                deriv.append(g_derivative_check(n, gamma, x))
    # np.min/np.max, unlike the builtins, carry a NaN through to the row
    return [abs(gap), -np.min(np.concatenate(gaps)),
            -np.min(np.concatenate(margins, axis=None)), float(bad_points),
            np.max(deriv)]


SOLVER_ROWS = (
    ("capacity functions cross at phi", 1e-9),
    ("Riccati closed form matches iteration", 1e-11),
    ("Riccati sum identities", 1e-13),
    ("Riccati diagonal equals the power budget", 1e-9),
    ("closed loop stable", 0.5),
    ("asymptotic powers equal the budget", 1e-9),
    ("sum rate n log2(beta) equals capacity", 1e-9),
    ("mutual information identity", 1e-9),
    ("trajectory error identity", 1e-12),
    ("exponent approaches log2(beta)", 0.01),
    ("weight round trip", 1e-8),
    ("weighted value equals capacity", 1e-8))


def _solver_checks(n, power, seed):
    params = MacParams(n_senders=n, power=power)
    sol = solve_phi(params)
    beta = beta_for_power(n, power)
    sysm = build_system(n, beta)
    closed = dare_circulant(n, beta)
    iterated = dare_iterate(sysm, np.eye(n))
    rc = riclem_verify(closed, sysm)
    ctrl = lqg_controller(sysm)
    pw = asymptotic_powers(sysm, ctrl)
    # beta^{2 steps} near 2^20 keeps the posterior subtraction above
    # round-off; at most 256 steps at low power, one at high power. The
    # row is relative to the target information, steps * log2(beta)
    mi_steps = min(256, max(1, int(10.0 / math.log2(beta))))
    rng = np.random.default_rng(seed)
    traj = []
    for _ in range(100):
        msg = rng.random(n) + 1j * rng.random(n) - (0.5 + 0.5j)
        state = msg.copy()
        y_hist = []
        y_prev = 0.0 + 0.0j
        for _step in range(25):
            state, _symbols, chan = encode_step(sysm, ctrl, state, y_prev)
            y_prev = chan + complex(*rng.normal(scale=np.sqrt(0.5), size=2))
            y_hist.append(y_prev)
        lhs = msg - decode(sysm, y_hist)
        rhs = sysm.a_diag ** (-25.0) * state
        traj.append(np.max(np.abs(lhs - rhs)))
    # the exponent gap is log2(K_h,jj)/(2h), and K_h settles on the
    # stationary Kbar_jj = P_j/|c_j|^2; this horizon holds it near 0.005
    log2_kbar = np.log2(pw / np.abs(ctrl.gains) ** 2)
    horizon = max(200, math.ceil(np.max(np.abs(log2_kbar)) / 0.01))
    expo = exact_trajectory_stats(sysm, ctrl, horizon).mse_exponents
    gs = gamma_star(params, sol.phi)
    return [
        sol.residual,
        # relative: |G| grows with the power
        np.linalg.norm(closed.G - iterated.G) / np.linalg.norm(closed.G),
        # relative: to prod beta^2 = beta^(2n), and to the budget P
        np.max([rc.residual_a, rc.residual_b]) / beta ** (2 * n),
        np.max(np.abs(closed.G.diagonal().real - power)) / power,
        # (radius - 1/beta) / (1 - 1/beta) <= 0.5 still implies radius < 1
        (closed_loop_radius(sysm, ctrl) - 1.0 / beta)
        / -math.expm1(-math.log1p(beta - 1.0)),
        np.max(np.abs(pw - power)) / power,
        abs(n * np.log2(beta) - sol.c1),
        mutual_info_identity_check(sysm, mi_steps)
        / (mi_steps * math.log2(beta)),
        np.max(traj),
        np.max(np.abs(expo - math.log2(beta))),
        abs(phi_star(n, gs, power) - sol.phi),
        abs(g_value(n, gs, power) - sol.c1),
    ]


P2P_ROWS = (("one-pole capacity chain", 1e-6),
            ("sensitivity integral equals instability", 2e-6))


def _p2p_checks(_n, _power, seed):
    chain = []
    for p in (0.5, 1.0, 3.0, 10.0):
        f = sk_filter(p)
        b = feedback_transform(f)
        target = 0.5 * np.log2(1.0 + p)
        chain += [abs(instability(f) - target), abs(rate_integral(b) - target),
                  abs(power_integral(b, WHITE) - p)]
    rng = np.random.default_rng(seed)
    bode = []
    for _ in range(5):
        f = random_stabilized_filter(rng)
        bode.append(abs(bode_integral(f) - instability(f)))
    return [np.max(chain), np.max(bode)]


def _cmd_verify(args, t0):
    suites = [(CONVERSE_ROWS, _converse_checks)]
    if args.suite == "all":
        suites += [(SOLVER_ROWS, _solver_checks), (P2P_ROWS, _p2p_checks)]
    rows, errors = [], []
    for table, suite in suites:
        # a suite that raises still prints its rows, as NaN, which fail
        try:
            values = suite(args.n, args.power, args.seed)
        except NUMERIC_ERRORS as exc:
            values = [math.nan] * len(table)
            errors.append(exc)
        rows += [(name, v, tol) for (name, tol), v in zip(table, values)]
    print(f"# verify {args.suite}: n={args.n} power={args.power} "
          f"seed={args.seed}")
    failed = 0
    for name, value, tol in rows:
        ok = value <= tol          # the one pass rule; NaN fails
        failed += not ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: value={value:.3e} "
              f"tol={tol!r} margin={tol - value:.3e}")
    print(f"# {len(rows) - failed}/{len(rows)} checks passed")
    for exc in errors:
        print(f"error: {exc}", file=sys.stderr)
    return 0 if failed == 0 else 3


# ----------------------------------------------------------------- sweep

def _parse_range(text):
    # "start:stop:count" inclusive linspace, or a comma list; "" is empty
    if not text:
        return []
    if ":" in text:
        start, stop, count = text.split(":")
        return [float(v) for v in
                np.linspace(float(start), float(stop), int(count))]
    return [float(tok) for tok in text.split(",")]


def _n_list(text):
    # a non-integral N is a usage error (exit 2), never a truncated N
    values = _parse_range(text)
    if not all(v.is_integer() for v in values):
        raise argparse.ArgumentTypeError(f"expects integers, got {text!r}")
    return [int(v) for v in values]


def _cmd_sweep(args, t0):
    # an explicitly empty range gives a header-only table
    p_values = sorted(args.powers)
    print(f"# config: n={args.n_list} powers={p_values}")
    print("n,power,phi,rho,sum_capacity,beta,g_jj,error")
    for n in sorted(args.n_list):
        for p in p_values:
            try:
                sol = solve_phi(MacParams(n_senders=n, power=p))
                if p > 0:
                    beta = beta_for_power(n, p)
                    gjj = float(np.max(dare_circulant(n, beta)
                                       .G.diagonal().real))
                else:
                    beta, gjj = 1.0, 0.0
                print(f"{n},{p:.12g},{sol.phi:.12g},{sol.rho:.12g},"
                      f"{sol.c1:.12g},{beta:.12g},{gjj:.12g},")
            except (SolverError, ValueError) as exc:
                print(f"{n},{p:.12g},,,,,,{exc}")
    return 0


# ---------------------------------------------------------------- parser

def build_parser():
    parser = argparse.ArgumentParser(
        prog="feedcap",
        description="Feedback sum capacity of the N-sender AWGN multiple "
                    "access channel: solvers, codes, and verification.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sc = sub.add_parser("sumcap", help="solve the sum-capacity root phi(P)")
    sc.add_argument("--n", type=int, required=True)
    sc.add_argument("--power", type=float, required=True)
    sc.set_defaults(func=_cmd_sumcap)

    da = sub.add_parser("dare", help="solve the Riccati equation")
    da.add_argument("--n", type=int, required=True)
    da.add_argument("--beta", type=float, required=True)
    da.add_argument("--method", choices=("iterate", "circulant"),
                    default="circulant")
    da.set_defaults(func=_cmd_dare)

    lq = sub.add_parser("lqg", help="synthesize the feedback gains")
    lq.add_argument("--n", type=int, required=True)
    lq.add_argument("--beta", type=float, required=True)
    lq.set_defaults(func=_cmd_lqg)

    si = sub.add_parser("simulate", help="Monte Carlo run of the code")
    si.add_argument("--n", type=int, required=True)
    si.add_argument("--power", type=float, required=True)
    si.add_argument("--steps", type=int, default=20)
    si.add_argument("--trials", type=int, default=10000)
    si.add_argument("--seed", type=int, default=0)
    si.add_argument("--exact", action="store_true",
                    help="attach covariance-propagated exact values")
    si.add_argument("--csv", action="store_true",
                    help="emit per-step exact (D_j, power_j) CSV instead")
    si.set_defaults(func=_cmd_simulate)

    p2p = sub.add_parser("p2p", help="point-to-point Gaussian machinery")
    p2p_sub = p2p.add_subparsers(dest="p2p_command", required=True)

    sk = p2p_sub.add_parser("sk", help="one-pole capacity-achieving filter")
    sk.add_argument("--power", type=float, required=True)
    sk.add_argument("--csv", action="store_true",
                    help="dump (omega, |S|, S_Z, log2|S|) samples")
    sk.set_defaults(func=_cmd_p2p_sk)

    bo = p2p_sub.add_parser("bode", help="sensitivity integral of a filter")
    bo.add_argument("--poles", type=str, required=True,
                    help="comma-separated complex poles, e.g. 1.3,1.7")
    bo.add_argument("--zeros", type=str, default="")
    bo.add_argument("--gain", type=str, default="1")
    bo.add_argument("--csv", action="store_true")
    bo.set_defaults(func=_cmd_p2p_bode)

    se = p2p_sub.add_parser("search", help="grid search one-pole filters")
    se.add_argument("--alpha", type=float, default=0.0)
    se.add_argument("--pole-coef", dest="pole_coef", type=float, default=0.0)
    se.add_argument("--power", type=float, required=True)
    se.add_argument("--grid", type=str, default="200x2",
                    help="POLESxGAINS candidate counts")
    se.add_argument("--convention", choices=("squared", "as-written"),
                    default="squared")
    se.set_defaults(func=_cmd_p2p_search)

    ve = sub.add_parser("verify", help="run property suites")
    ve.add_argument("suite", choices=("converse", "all"))
    ve.add_argument("--n", type=int, default=3)
    ve.add_argument("--power", type=float, default=2.0)
    ve.add_argument("--seed", type=int, default=1)
    ve.set_defaults(func=_cmd_verify)

    sw = sub.add_parser("sweep", help="CSV capacity table over P or N")
    sw.add_argument("--n-list", dest="n_list", type=_n_list, default="2",
                    help="comma list or start:stop:count of N values")
    sw.add_argument("--powers", type=_parse_range, default="1",
                    help="comma list or start:stop:count of P values")
    sw.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        return args.func(args, t0)
    except NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
