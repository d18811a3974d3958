"""The benchmark's span tracer (perfbench/tracer.py) still fits the
package: it wraps every layer it names, changes no result, and puts
every binding back."""

import importlib.util
from pathlib import Path

import yaml

import minmax_hj
from minmax_hj import (cli, config, effective, family, harness, media, pairs,
                       profiles, solver)
from minmax_hj.config import ExperimentConfig

ROOT = Path(__file__).resolve().parent.parent
MODULES = (cli, config, media, profiles, family, pairs, solver, effective,
           harness)
RESULTS = ("numeric.csv", "formula.csv", "compare.csv")


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every module-level and class-level binding of the package."""
    out = {}
    for mod in MODULES:
        for name, value in vars(mod).items():
            out[(mod.__name__, name)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    out[(mod.__name__, name, attr)] = member
    return out


def _base_case(out_dir):
    data = yaml.safe_load((ROOT / "configs" / "base_case.yaml").read_text())
    data["output"] = str(out_dir)
    return ExperimentConfig(data, source="base_case.yaml")


def _traced_run(command, tmp_path):
    """Run the harness command untraced into plain/ and traced into
    traced/, check that every binding is put back, and return the
    one-pass summary."""
    before = _bindings()
    getattr(harness, command)(_base_case(tmp_path / "plain"))

    tracer = _load_tracer().Tracer()
    tracer.install(minmax_hj)
    try:
        getattr(harness, command)(_base_case(tmp_path / "traced"))
    finally:
        tracer.restore()

    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
    return tracer.summary(1)


def _same_results(tmp_path, names):
    for name in names:
        assert (tmp_path / "traced" / name).read_bytes() \
            == (tmp_path / "plain" / name).read_bytes()


def test_traced_effective_matches_untraced(tmp_path):
    summary = _traced_run("run_effective", tmp_path)
    _same_results(tmp_path, RESULTS)
    for metric in ("solver.lf_update.calls", "solver.newton_steps",
                   "family.h_eval.nodes"):
        assert summary[metric]["value"] > 0, metric


def test_traced_sweep_matches_untraced(tmp_path):
    # the march's level binding is seen through the same hook
    summary = _traced_run("run_sweep_eps", tmp_path)
    _same_results(tmp_path, ("err_vs_eps.csv",))
    for metric in ("solver.march_steps", "family.bind_base.calls",
                   "family.h_eval.nodes"):
        assert summary[metric]["value"] > 0, metric
