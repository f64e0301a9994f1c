import importlib
import inspect
import json
import math
import pkgutil
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import feedcap
from conftest import PHI, SUMCAP_BITS
from feedcap.cli import build_parser, main
from feedcap.mac_code import beta_for_power


def run_main(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def envelope(capsys, *argv):
    code, out = run_main(capsys, *argv)
    assert code == 0
    env = json.loads(out)
    assert set(env) == {"tool_version", "config_echo", "payload",
                        "wall_time_ms"}
    return env


def test_sumcap_payload(capsys):
    env = envelope(capsys, "sumcap", "--n", "2", "--power", "1")
    pay = env["payload"]
    assert pay["phi"] == pytest.approx(PHI[(2, 1.0)], abs=1e-9)
    assert pay["sum_capacity"] == pytest.approx(SUMCAP_BITS[(2, 1.0)],
                                                abs=1e-9)
    assert pay["c1"] == pytest.approx(pay["c2"], abs=1e-9)
    assert "base" not in env["config_echo"]


def test_sumcap_low_power(capsys):
    pay = envelope(capsys, "sumcap", "--n", "8", "--power", "1e-9")["payload"]
    assert pay["c1"] == pytest.approx(pay["c2"], rel=1e-12)


def test_dare_methods_agree(capsys):
    a = envelope(capsys, "dare", "--n", "3", "--beta", "1.2")["payload"]
    b = envelope(capsys, "dare", "--n", "3", "--beta", "1.2",
                 "--method", "iterate")["payload"]
    for x, y in zip(a["G"]["re"], b["G"]["re"]):
        assert x == pytest.approx(y, abs=1e-7)
    assert a["identity_residuals"]["a"] <= 1e-8
    assert b["iterations"] > 0


@pytest.mark.parametrize("method", ["circulant", "iterate"])
@pytest.mark.parametrize("beta", ["nan", "inf", "1e200"])
def test_dare_rejects_bad_beta_before_solving(capsys, monkeypatch, method,
                                              beta):
    def no_iteration(*args):
        raise AssertionError("Riccati map applied to an invalid beta")
    monkeypatch.setattr("feedcap.riccati._riccati_map", no_iteration)
    code = main(["dare", "--n", "3", "--beta", beta, "--method", method])
    assert code == 3
    assert "beta" in capsys.readouterr().err


@pytest.mark.parametrize("beta", ["1e76", "1e154"])
def test_dare_closed_form_overflow_names_n_and_beta(capsys, beta):
    # beta^(2n) is finite, so the constructor accepts these; G (at 1e154)
    # or its Riccati residual (at 1e76) then overflows float64
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["dare", "--n", "1", "--beta", beta])
    assert code == 3
    err = capsys.readouterr().err
    assert "Riccati closed form" in err
    assert f"n=1, beta={float(beta)}" in err


@pytest.mark.parametrize("beta", ["1e76", "1e154"])
def test_dare_iteration_overflow_names_n_and_beta(capsys, beta):
    # G = 1/M is finite at 1e76 but its Riccati residual is not; at 1e154
    # G itself is at the float64 edge
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["dare", "--n", "1", "--beta", beta, "--method",
                     "iterate"])
    assert code == 3
    err = capsys.readouterr().err
    assert "Riccati iteration overflows" in err
    assert f"n=1, beta={float(beta)}" in err


def _matrix(d):
    return (np.asarray(d["re"]) + 1j * np.asarray(d["im"])).reshape(
        d["rows"], d["cols"])


def test_dare_iterate_at_n64_matches_circulant_after_json(capsys):
    beta = repr(beta_for_power(64, 20.0))
    circ = envelope(capsys, "dare", "--n", "64", "--beta", beta)
    it = envelope(capsys, "dare", "--n", "64", "--beta", beta, "--method",
                  "iterate")
    gap = np.linalg.norm(_matrix(it["payload"]["G"])
                         - _matrix(circ["payload"]["G"]))
    assert gap <= 1e-8
    assert it["payload"]["identity_residuals"]["a"] <= 1e-8
    assert it["payload"]["identity_residuals"]["b"] <= 1e-8
    assert "tol" not in it["config_echo"]


@pytest.mark.parametrize("argv", [
    ["dare", "--n", "3", "--beta", "1.2", "--method", "iterate",
     "--tol", "1e-10"],
    ["sumcap", "--n", "3", "--power", "2", "--tol", "1e-10"],
    ["sumcap", "--n", "3", "--power", "2", "--base", "nats"],
    ["p2p", "sk", "--power", "1", "--base", "nats"],
    ["p2p", "bode", "--poles", "1.3", "--base", "nats"],
    ["p2p", "search", "--power", "1", "--base", "nats"],
], ids=["dare-tol", "sumcap-tol", "sumcap-base", "p2p-sk-base",
        "p2p-bode-base", "p2p-search-base"])
def test_removed_options_exit_2(capsys, argv):
    # rates are always bits and every tolerance is a module constant
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert argv[-2] in capsys.readouterr().err


def _library_functions():
    for info in pkgutil.iter_modules(feedcap.__path__, "feedcap."):
        mod = importlib.import_module(info.name)
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                yield f"{mod.__name__}.{name}", obj


def test_no_function_takes_base_or_tol():
    # bits, tolerances, unit channel noise and the doubling cap are fixed
    removed = {"base", "tol", "noise_var", "max_iter"}
    functions = dict(_library_functions())
    assert {"feedcap.cli.main", "feedcap.montecarlo.chunk_draws",
            "feedcap.riccati.dale_solve"} <= set(functions)
    offenders = [name for name, fn in functions.items()
                 if removed & set(inspect.signature(fn).parameters)]
    assert offenders == []


def test_lqg_payload(capsys):
    pay = envelope(capsys, "lqg", "--n", "3", "--beta", "1.1")["payload"]
    assert pay["spectral_radius"] < 1.0
    assert len(pay["gains"]) == 3
    assert len(pay["asymptotic_powers"]) == 3


def test_simulate_payload_reproducible(capsys):
    args = ("simulate", "--n", "2", "--power", "1", "--steps", "8",
            "--trials", "512", "--seed", "3", "--exact")
    one = envelope(capsys, *args)["payload"]
    two = envelope(capsys, *args)["payload"]
    assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)
    assert one["exact"]["per_sender_mse"][0] > 0.0


def test_simulate_threads_env_invariant(capsys, monkeypatch):
    args = ("simulate", "--n", "2", "--power", "1", "--steps", "8",
            "--trials", "512", "--seed", "3")
    base = envelope(capsys, *args)["payload"]
    monkeypatch.setenv("FEEDCAP_THREADS", "4")
    threaded = envelope(capsys, *args)["payload"]
    assert base["per_sender_mse"] == threaded["per_sender_mse"]
    assert base["rng_algorithm"] == \
        "philox4x64 keyed by (seed, 1024-trial chunk)"


@pytest.mark.parametrize("raw", ["abc", "0", "-3", "2.5"])
def test_simulate_rejects_malformed_threads_env(capsys, monkeypatch, raw):
    monkeypatch.setenv("FEEDCAP_THREADS", raw)
    code = main(["simulate", "--n", "2", "--power", "1", "--steps", "8",
                 "--trials", "64"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "FEEDCAP_THREADS" in captured.err and repr(raw) in captured.err


@pytest.mark.parametrize("steps", ["200", "3000"])
def test_simulate_payload_tracks_exact_at_long_horizons(capsys, steps):
    # n log2(beta) is 120 bits at 200 steps and 1797 at 3000; the MSE
    # itself underflows at 3000, the exponents stay finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["simulate", "--n", "3", "--power", "2", "--steps",
                     steps, "--trials", "256", "--seed", "7", "--exact"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    pay = json.loads(captured.out)["payload"]
    assert set(pay) == {"n", "power", "beta", "n_steps", "trials", "seed",
                        "rng_algorithm", "per_sender_mse", "mse_exponents",
                        "empirical_powers", "exact"}
    assert all(math.isfinite(e) for e in pay["mse_exponents"])
    for got, want in zip(pay["mse_exponents"], pay["exact"]["mse_exponents"]):
        assert got == pytest.approx(want, rel=0.01)


def test_simulate_csv(capsys):
    code, out = run_main(capsys, "simulate", "--n", "2", "--power", "1",
                         "--steps", "5", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1].split(",")[0] == "step"
    assert len(lines) == 2 + 5


def test_lqg_large_n_powers_match_riccati_diagonal(capsys):
    # N=64 at beta=1.1 ran the step-by-step Lyapunov loop into its cap
    pay = envelope(capsys, "lqg", "--n", "64", "--beta", "1.1")["payload"]
    gdiag = pay["G"]["re"][::pay["G"]["cols"] + 1]
    assert max(abs(p - g) for p, g in
               zip(pay["asymptotic_powers"], gdiag)) <= 1e-8


def test_verify_all_large_n_passes(capsys):
    code, out = run_main(capsys, "verify", "all", "--n", "40", "--power", "1")
    assert code == 0
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert len(lines) == 19
    assert all(ln.startswith("PASS") for ln in lines)


def test_p2p_sk(capsys):
    pay = envelope(capsys, "p2p", "sk", "--power", "1")["payload"]
    assert pay["instability"] == pytest.approx(0.5, abs=1e-9)
    assert pay["rate_integral"] == pytest.approx(0.5, abs=1e-6)
    assert pay["power_integral"] == pytest.approx(1.0, abs=1e-6)


def test_p2p_sk_csv(capsys):
    code, out = run_main(capsys, "p2p", "sk", "--power", "1", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "omega,sensitivity_mag,noise_density,log2_sensitivity"
    assert len(lines) > 100


def test_p2p_bode(capsys):
    pay = envelope(capsys, "p2p", "bode", "--poles", "1.3,1.7",
                   "--zeros", "0.5", "--gain", "-4.0857")["payload"]
    assert pay["bode_integral"] == pytest.approx(math.log2(1.3 * 1.7),
                                                 abs=2e-6)
    assert pay["residual"] <= 2e-6


def test_p2p_search(capsys):
    pay = envelope(capsys, "p2p", "search", "--power", "2",
                   "--grid", "80x2")["payload"]
    assert pay["rate"] > 0.7
    assert pay["power_used"] == pytest.approx(2.0, rel=1e-6)


def test_p2p_search_as_written_kink(capsys):
    # as written, alpha = -1 puts a kink at omega = 0, and at low power the
    # best pole is the grid's last, 0.99, right next to it
    pay = envelope(capsys, "p2p", "search", "--alpha", "-1", "--convention",
                   "as-written", "--power", "0.01")["payload"]
    assert pay["pole"]["re"] == pytest.approx(0.99)
    assert pay["power_used"] == pytest.approx(0.01, rel=1e-6)


def test_p2p_search_bad_grid(capsys):
    # the search always tries both boundary gains: a grid below 1 pole or
    # 2 gains would be echoed but not searched
    for grid in ("oops", "3x0", "3x1", "0x2"):
        code, _ = run_main(capsys, "p2p", "search", "--power", "2",
                           "--grid", grid)
        assert code == 2


VERIFY_ROW = re.compile(r"(PASS|FAIL) (.+): value=(\S+) tol=(\S+) "
                        r"margin=(\S+)")


def verify_rows(out):
    rows = [VERIFY_ROW.fullmatch(ln) for ln in out.splitlines()
            if not ln.startswith("#")]
    assert all(rows)
    return [(m[1], m[2], float(m[3]), float(m[4]), float(m[5]))
            for m in rows]


def test_verify_lines_follow_the_one_rule(capsys):
    code, out = run_main(capsys, "verify", "all", "--n", "3", "--power", "2")
    assert code == 0
    rows = verify_rows(out)
    assert len(rows) == 19
    for status, _name, value, tol, margin in rows:
        assert (status == "PASS") == (value <= tol)
        assert margin == pytest.approx(tol - value, rel=1e-3, abs=1e-15)


def test_verify_nan_value_fails_its_row(capsys, monkeypatch):
    # one NaN among finite residuals: the builtin max would drop it
    calls = []

    def one_nan(n, gamma, x):
        calls.append(x)
        return float("nan") if len(calls) == 5 else 0.0
    monkeypatch.setattr("feedcap.cli.g_derivative_check", one_nan)
    code, out = run_main(capsys, "verify", "all", "--n", "3", "--power", "2")
    assert code == 3
    rows = verify_rows(out)
    assert [name for status, name, *_ in rows if status == "FAIL"] == \
        ["weighted-capacity derivative identity"]
    assert sum(status == "PASS" for status, *_ in rows) == 18
    assert out.splitlines()[-1] == "# 18/19 checks passed"


@pytest.mark.parametrize("power", ["500", "1000", "1e6", "1e8"])
def test_verify_all_at_high_power_passes_without_warnings(capsys, power):
    # beta^(-400) K underflowed to 0 in the old 200-step exponent probe; at
    # 1e8 phi's fixed 1e-12 bracket and the absolute bounds on the sum
    # identities and both power budgets failed four rows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["verify", "all", "--n", "2", "--power", power])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert [row[0] for row in verify_rows(captured.out)] == ["PASS"] * 19


@pytest.mark.parametrize("n, power", [("2", "1e-9"), ("2", "1e-6"),
                                      ("2", "1e10"), ("2", "1e12"),
                                      ("8", "1e-9")])
def test_verify_mutual_information_row_at_the_power_edges(capsys, n, power):
    # at most 256 steps at low power (it ran about 1/P steps, minutes at
    # 1e-6), one at high power (two cancelled against beta^4), and the
    # residual is judged relative to the target information
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        main(["verify", "all", "--n", n, "--power", power])
    rows = verify_rows(capsys.readouterr().out)
    mi = [row for row in rows if row[1] == "mutual information identity"]
    assert [row[0] for row in mi] == ["PASS"]
    assert mi[0][3] == 1e-9


def test_verify_converse_passes(capsys):
    code, out = run_main(capsys, "verify", "converse", "--n", "2",
                         "--power", "1")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") == 5


def test_sweep_golden_row(capsys):
    code, out = run_main(capsys, "sweep", "--n-list", "2,3,4,5,6",
                         "--powers", "1")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[2:]]
    assert len(rows) == 5
    for row in rows:
        n = int(row[0])
        assert float(row[2]) == pytest.approx(PHI[(n, 1.0)], abs=1e-9)
        assert float(row[4]) == pytest.approx(SUMCAP_BITS[(n, 1.0)],
                                              abs=1e-9)
        assert row[7] == ""   # no error marker


def test_sweep_error_marker(capsys):
    code, out = run_main(capsys, "sweep", "--n-list", "2",
                         "--powers=-1,1")
    assert code == 0
    rows = out.strip().splitlines()[2:]
    assert len(rows) == 2
    assert rows[0].split(",")[-1] != ""    # P = -1 row carries the error
    assert rows[1].endswith(",")           # P = 1 row is clean


def test_sweep_capacity_increases_with_power(capsys):
    code, out = run_main(capsys, "sweep", "--n-list", "2",
                         "--powers", "0.1:10:12")
    assert code == 0
    caps = [float(r.split(",")[4]) for r in out.strip().splitlines()[2:]]
    assert len(caps) == 12
    assert all(a < b for a, b in zip(caps, caps[1:]))


@pytest.mark.parametrize("old, new", [
    ([], ["--n-list", "2", "--powers", "1"]),
    (["--n", "3", "--power", "2"], ["--n-list", "3", "--powers", "2"]),
], ids=["defaults", "n-and-power"])
def test_sweep_old_spellings_print_the_same_bytes(capsys, old, new):
    # --n and --power are gone; argparse takes them as prefixes of --n-list
    # and --powers, so the old single-value spellings still work
    args = build_parser().parse_args(["sweep"] + old)
    assert set(vars(args)) == {"subcommand", "func", "n_list", "powers"}
    code_old, out_old = run_main(capsys, "sweep", *old)
    code_new, out_new = run_main(capsys, "sweep", *new)
    assert code_old == code_new == 0
    assert out_old == out_new
    assert out_old.splitlines()[2].startswith(new[1] + ",")


@pytest.mark.parametrize("argv", [["--n-list", "2.5"], ["--n-list", "2:6:4"],
                                  ["--n", "2.5"], ["--n-list", "nan"],
                                  ["--powers", "abc"], ["--powers", "1:2"]])
def test_sweep_range_usage_errors_exit_2(capsys, argv):
    # 2:6:4 is N = 2, 3.33, 4.67, 6; no N is truncated to an integer, and
    # a range that does not parse is a usage error on either axis
    with pytest.raises(SystemExit) as exc:
        main(["sweep"] + argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert repr(argv[1]) in captured.err


def test_sweep_empty_range_header_only(capsys):
    code, out = run_main(capsys, "sweep", "--n-list", "2", "--powers", "")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1].startswith("n,power,")
    assert len(lines) == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["sumcap", "--n", "2"])        # missing --power
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2


def test_numeric_error_exit_code(capsys):
    assert main(["sumcap", "--n", "1", "--power", "1"]) == 3
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "feedcap.cli", "sumcap", "--n", "2",
         "--power", "1"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    env = json.loads(proc.stdout)
    assert env["payload"]["phi"] == pytest.approx(PHI[(2, 1.0)], abs=1e-9)


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
