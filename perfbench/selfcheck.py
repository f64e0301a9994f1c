"""Self-checks for the benchmark itself.

    python3 perfbench/selfcheck.py

Run from the root of a source checkout. Checks that input draws are a
function of the workload seed, that timed draws stay inside the baseline
envelopes, and that every check a workload applies passes the library's
true result and rejects a deliberately perturbed one. Prints one PASS/FAIL
line per check and exits 0 only if all pass.
"""
import copy
import dataclasses
import json
import sys

import run
import tracing
from workloads import (DECODER_ENVELOPE, LYAPUNOV_ENVELOPE, UNDERFLOW_ENVELOPE,
                       WORKLOADS, CliOut, log2_beta, phi_root)

RESULTS = []


def expect(name, ok, detail=""):
    RESULTS.append(ok)
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail
                                                   else ""))


def draws(L, name, seed, blocks=4, full=False):
    r = run.Runner(L, WORKLOADS[name], seed, full)
    r.draw(blocks)
    return json.dumps(r.blocks, sort_keys=True)


def check_draws(L):
    for name in WORKLOADS:
        expect(f"{name}: same seed gives the same inputs",
               draws(L, name, 11) == draws(L, name, 11))
        expect(f"{name}: another seed gives other inputs",
               draws(L, name, 11) != draws(L, name, 12))
    worst = {"mc": 0.0, "design_lyap": 0.0, "design_under": 0.0}
    for seed in range(5):
        r = run.Runner(L, WORKLOADS["mc_code"], seed, False)
        r.draw(8)
        for inp in (x for b in r.blocks for x in b if x["kind"] == "mac"):
            worst["mc"] = max(worst["mc"], inp["steps"] * log2_beta(
                inp["n"], inp["power"]))
        r = run.Runner(L, WORKLOADS["design_sweep"], seed, False)
        r.draw(8)
        for inp in (x for b in r.blocks for x in b):
            n, p = inp["n"], inp["power"]
            worst["design_lyap"] = max(worst["design_lyap"], n * n * (
                1.0 + n * p * phi_root(n, p)))
            worst["design_under"] = max(worst["design_under"], 2.0 * inp[
                "horizon"] * log2_beta(n, p))
    expect("mc_code timed draws keep n log2(beta) inside the decoder envelope",
           worst["mc"] <= DECODER_ENVELOPE, f"max {worst['mc']:.2f}")
    expect("design_sweep timed draws keep N^2 beta^2N inside the Lyapunov "
           "envelope", worst["design_lyap"] <= LYAPUNOV_ENVELOPE * (1 + 1e-9),
           f"max {worst['design_lyap']:.4g}")
    expect("design_sweep timed draws keep 2 h log2(beta) inside the "
           "underflow envelope", worst["design_under"] <= UNDERFLOW_ENVELOPE,
           f"max {worst['design_under']:.1f}")


def rejects(L, w, inp, out, perturb, label, ctx=None):
    """The check passes `out` and fails `perturb(out)`."""
    ctx = {} if ctx is None else ctx
    good = w.check(L, inp, out, dict(ctx)).failures()
    bad = w.check(L, inp, perturb(copy.deepcopy(out)), dict(ctx)).failures()
    expect(f"{w.name}: check passes the true result, rejects {label}",
           not good and bool(bad),
           f"true result failed {good}" if good else "")


def scaled(obj, field, factor):
    return dataclasses.replace(obj, **{field: getattr(obj, field) * factor})


def check_mc(L):
    w = WORKLOADS["mc_code"]
    mac = {"kind": "mac", "n": 3, "power": 2.0, "steps": 30, "trials": 2048,
           "seed": 5}
    out = w.run(L, mac, {})
    rejects(L, w, mac, out, lambda o: (o[0], scaled(o[1], "mse_exponents",
                                                    1.1)),
            "an MC exponent 10% high")
    rejects(L, w, mac, out, lambda o: (o[0], scaled(o[1], "empirical_powers",
                                                    0.9)),
            "an MC power 10% low")
    sk = {"kind": "sk", "power": 2.0, "steps": 25, "trials": 1500, "seed": 5}
    out = w.run(L, sk, {})
    rejects(L, w, sk, out, lambda o: scaled(o, "exponent", 0.9),
            "a scalar exponent 10% low")


def check_design(L):
    w = WORKLOADS["design_sweep"]
    inp = {"n": 5, "power": 3.0, "horizon": 300}
    out = w.run(L, inp, {})

    def exponent(o):
        o["exact"] = scaled(o["exact"], "mse_exponents", 1.1)
        return o

    def iterate(o):
        o["iter"] = dataclasses.replace(o["iter"], G=o["iter"].G * (1 + 1e-6))
        return o

    def powers(o):
        o["powers"] = o["powers"] + 1e-6
        return o
    rejects(L, w, inp, out, exponent, "an exact exponent 10% high")
    rejects(L, w, inp, out, iterate, "an iterated G off by 1e-6 relative")
    rejects(L, w, inp, out, powers, "stationary powers off by 1e-6")


def check_p2p(L):
    w = WORKLOADS["p2p_filters"]
    inp = {"kind": "filter", "seed": 17}
    out = w.run(L, inp, {})
    rejects(L, w, inp, out, lambda o: (o[0], o[1] + 1e-3, o[2]),
            "a Bode gap of 1e-3")
    inp = {"kind": "search", "alpha": 0.5, "pole_coef": 0.2, "power": 2.0,
           "poles": 30, "gains": 2}
    out = w.run(L, inp, {})
    rejects(L, w, inp, out, lambda o: scaled(o, "rate", 1.1),
            "a search rate 10% high")
    rejects(L, w, inp, out, lambda o: scaled(o, "power", 1.01),
            "a search power 1% over budget")


def edit_json(out, fn):
    env = json.loads(out.stdout)
    fn(env["payload"])
    return CliOut(out.code, json.dumps(env, sort_keys=True), out.stderr)


def check_cli(L):
    w = WORKLOADS["cli_session"]

    def cli_case(kind, argv, label, perturb, ctx=None, **extra):
        inp = {"kind": kind, "argv": argv, "slot": 0, **extra}
        out = w.run(L, inp, {})
        rejects(L, w, inp, out, perturb, label, ctx)
        return out

    cli_case("sumcap", ["sumcap", "--n", "3", "--power", "2"],
             "phi off by 1e-6",
             lambda o: edit_json(o, lambda p: p.update(phi=p["phi"] + 1e-6)))
    sim = ["simulate", "--n", "3", "--power", "2", "--steps", "30",
           "--trials", "2048", "--seed", "7", "--exact"]
    sim_out = cli_case("simulate", sim, "an MC exponent 10% high",
                       lambda o: edit_json(o, lambda p: p.update(
                           mse_exponents=[1.1 * x for x in
                                          p["mse_exponents"]])))
    cli_case("repeat", sim, "a repeat whose payload differs",
             lambda o: edit_json(o, lambda p: p.update(seed=p["seed"] + 1)),
             ctx={0: sim_out}, of=0, threads="2", slot=1)
    cli_case("p2p_bode", ["p2p", "bode", "--poles", "1.3,1.7", "--zeros",
                          "0.5", "--gain", "-4.0857"],
             "a Bode residual of 1e-3",
             lambda o: edit_json(o, lambda p: p.update(residual=1e-3)))
    cli_case("p2p_sk", ["p2p", "sk", "--power", "1"], "stdout that is not JSON",
             lambda o: CliOut(0, o.stdout[:-5], ""))
    cli_case("verify_converse", ["verify", "converse", "--n", "3", "--power",
                                 "2"], "a FAIL line",
             lambda o: CliOut(0, o.stdout.replace("PASS", "FAIL", 1), ""))
    cli_case("lqg", ["lqg", "--n", "3", "--beta", "1.1"], "exit code 3",
             lambda o: CliOut(3, "", "error: injected"))
    cli_case("simulate_csv", ["simulate", "--n", "2", "--power", "1",
                              "--steps", "30", "--csv"],
             "a CSV with a row missing",
             lambda o: CliOut(0, o.stdout.rsplit("\n", 2)[0] + "\n", ""))


def check_manifest():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    expect("BENCHMARK.json lists the end-to-end metrics run.py prints",
           {m["name"]: m["unit"] for m in bench["end_to_end"]}
           == run.E2E_UNITS)
    expect("BENCHMARK.json lists the per-layer metrics a traced run prints",
           [m["name"] for m in bench["per_layer"]]
           == tracing.metric_names())
    expect("BENCHMARK.json lists the workloads",
           [w["name"] for w in bench["workloads"]] == list(WORKLOADS))


def check_tail():
    val, pct, n = run.tail(list(range(1, 101)))
    expect("op_tail_ms takes the highest percentile with 10 samples beyond",
           (val, pct, n) == (90, 90.0, 100), f"{val}, p{pct}, n={n}")


def main():
    if not (run.SRC / "feedcap" / "__init__.py").is_file():
        print(f"error: no feedcap sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    L = run.Layers()
    check_draws(L)
    check_mc(L)
    check_design(L)
    check_p2p(L)
    check_cli(L)
    check_manifest()
    check_tail()
    print(f"# {sum(RESULTS)}/{len(RESULTS)} self-checks passed")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
