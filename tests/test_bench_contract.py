"""The names and parameters the benchmark harness binds in the library.

perfbench/tracing.py rebinds every function in TRACED and reads hooked
arguments by name; perfbench/workloads.py calls library names through the
layer map in perfbench/run.py. A rename there breaks only a traced or timed
benchmark run, so these checks keep the contract in the tier-1 suite. The
files are parsed, not imported, so reading them runs no benchmark code.
"""
import ast
import dataclasses
import importlib
import inspect
import json
from pathlib import Path

from feedcap.cli import main
from feedcap.mac_code import ExactStats, SimReport
from feedcap.p2p_gaussian import SkSimReport
from feedcap.riccati import DareSolution, RiclemCheck

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tree(name):
    return ast.parse((PERFBENCH / name).read_text())


def _assigned(tree, name):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found")


def _function(module, fn):
    return getattr(importlib.import_module(f"feedcap.{module}"), fn)


def test_traced_functions_exist():
    for module, fns in _assigned(_tree("tracing.py"), "TRACED").items():
        for fn in fns:
            assert callable(_function(module, fn)), f"{module}.{fn}"


def test_hooked_parameters_exist():
    # a hook `_hook_<module>_<fn>` reads the bound arguments as a["name"]
    traced = _assigned(_tree("tracing.py"), "TRACED")
    by_hook = {f"_hook_{m}_{f}": (m, f) for m, fns in traced.items()
               for f in fns}
    hooked = set()
    for node in ast.walk(_tree("tracing.py")):
        if isinstance(node, ast.FunctionDef) and node.name in by_hook:
            module, fn = by_hook[node.name]
            params = inspect.signature(_function(module, fn)).parameters
            for sub in ast.walk(node):
                if (isinstance(sub, ast.Subscript)
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == "a"):
                    arg = ast.literal_eval(sub.slice)
                    assert arg in params, f"{module}.{fn}({arg})"
                    hooked.add(f"{fn}.{arg}")
    assert {"exact_trajectory_stats.n_steps", "simulate.trials",
            "simulate.n_steps", "sk_recursion_simulate.trials",
            "sk_recursion_simulate.n_steps",
            "periodic_integral.func"} <= hooked


def test_workload_calls_exist():
    layers = _assigned(_tree("run.py"), "LAYERS")
    used = set()
    for node in ast.walk(_tree("workloads.py")):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Attribute)
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id == "L"):
            used.add((layers[node.value.attr], node.attr))
    assert ("riccati", "symmetric_system") in used
    assert ("mac_code", "build_system") in used
    for module, name in used:
        assert hasattr(importlib.import_module(f"feedcap.{module}"), name), \
            f"{module}.{name}"


def test_workload_call_arguments_bind():
    # every L.<layer>.<name>(...) call binds to the library signature, so a
    # dropped or renamed keyword fails here, not only in a benchmark run
    layers = _assigned(_tree("run.py"), "LAYERS")
    keywords = set()
    for node in ast.walk(_tree("workloads.py")):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Attribute)
                and isinstance(node.func.value.value, ast.Name)
                and node.func.value.value.id == "L"):
            continue
        module, name = layers[node.func.value.attr], node.func.attr
        sig = inspect.signature(_function(module, name))
        try:
            sig.bind_partial(*node.args,
                             **{k.arg: k.value for k in node.keywords})
        except TypeError as err:
            raise AssertionError(f"{module}.{name}: {err}") from None
        keywords |= {f"{name}.{k.arg}" for k in node.keywords}
    assert {"grid_capacity_search.pole_grid",
            "grid_capacity_search.gains_per_pole"} <= keywords


def test_one_system_constructor():
    assert _function("mac_code", "build_system") \
        is _function("riccati", "symmetric_system")


def _method(tree, cls, name):
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == cls:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == name:
                    return item
    raise AssertionError(f"{cls}.{name} not found")


def test_mc_check_reads_report_fields():
    # McCode.check reads the scalar report as `out` and the MAC pair as
    # (exact, rep); every field it reads must exist on the report type
    fields = {name: {f.name for f in dataclasses.fields(cls)}
              for name, cls in (("rep", SimReport), ("exact", ExactStats),
                                ("out", SkSimReport))}
    read = set()
    for node in ast.walk(_method(_tree("workloads.py"), "McCode", "check")):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in fields):
            assert node.attr in fields[node.value.id], \
                f"{node.value.id}.{node.attr}"
            read.add(f"{node.value.id}.{node.attr}")
    assert {"rep.mse_exponents", "exact.mean_powers", "out.exponent"} <= read


def _fields(cls):
    return {f.name for f in dataclasses.fields(cls)}


def test_trace_hooks_read_return_fields():
    # an `after(out, span)` callback of hook `_hook_<module>_<fn>` reads the
    # traced function's return value as `out`; every field it reads must
    # exist on the return type
    returns = {"_hook_riccati_dare_iterate": DareSolution}
    read = set()
    for node in ast.walk(_tree("tracing.py")):
        if not (isinstance(node, ast.FunctionDef)
                and node.name.startswith("_hook_")):
            continue
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Attribute)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "out"):
                assert node.name in returns, \
                    f"{node.name} reads out.{sub.attr}; list its return type"
                assert sub.attr in _fields(returns[node.name]), \
                    f"{node.name}: out.{sub.attr}"
                read.add(f"{node.name}: out.{sub.attr}")
    assert "_hook_riccati_dare_iterate: out.iterations" in read


def test_design_sweep_check_reads_solver_fields():
    # DesignSweep.check reads the solver results off the run record `r`;
    # every field it reads off the Riccati results must exist on their type
    types = {"iter": DareSolution, "circ": DareSolution,
             "riclem": RiclemCheck}
    read = set()
    for node in ast.walk(_method(_tree("workloads.py"), "DesignSweep",
                                 "check")):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Subscript)
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id == "r"):
            key = ast.literal_eval(node.value.slice)
            if key in types:
                assert node.attr in _fields(types[key]), \
                    f"r[{key!r}].{node.attr}"
                read.add(f"{key}.{node.attr}")
    assert {"iter.G", "circ.G", "riclem.residual_a",
            "riclem.residual_b"} <= read


def test_cli_simulate_check_reads_payload_keys(capsys):
    # CliSession._check_simulate reads the payload as `pay` and its exact
    # block as `ex`; every key it reads must be in a real payload
    assert main(["simulate", "--n", "2", "--power", "1", "--steps", "4",
                 "--trials", "16", "--exact"]) == 0
    pay = json.loads(capsys.readouterr().out)["payload"]
    keys = {"pay": set(pay), "ex": set(pay["exact"])}
    read = set()
    tree = _method(_tree("workloads.py"), "CliSession", "_check_simulate")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Name)
                and node.value.id in keys):
            key = ast.literal_eval(node.slice)
            assert key in keys[node.value.id], f"{node.value.id}[{key!r}]"
            read.add(key)
    assert {"exact", "mse_exponents", "mean_powers"} <= read
