"""Smoke test of the benchmark itself: every workload at a tiny length.

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs untraced and traced. The result carries exactly the
metrics ``BENCHMARK.json`` declares, with their units; the report names every
end-to-end metric once; and after the traced run every attribute of every
``hcl`` module is the original object again.
"""

import json
import os
import sys

import pytest

import run
import workloads

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

# every end-to-end metric the report prints, with its unit
REPORTED = {"setup_s": "s", "norm_wall_s": "s", "norm_steps_per_s": "1/s",
            "norm_cpu_s": "s", "peak_rss_mb": "MiB", "wall_s": "s",
            "steps_per_s": "1/s", "cpu_s": "s", "reference_s": "s", "f1": "1",
            "bound_gap_nats": "nats", "failed_share": "1"}


def _declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _units(result):
    return {k: v["unit"] for k, v in result["metrics"].items()}


def _hcl_attributes():
    return {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if name == "hcl" or name.startswith("hcl.")}


def test_declared_workloads_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_tiny(name):
    result, lines = run.measure(name, seed=0, seconds=0, trace=False, tiny=True)
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] >= run.MIN_UNITS
    assert _units(result) == _declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    rows = [line.split() for line in lines if line.startswith("  ")]
    for metric, unit in REPORTED.items():
        found = [r for r in rows if r[0] == metric]
        assert len(found) == 1 and found[0][2] == unit, (metric, found)

    before = _hcl_attributes()
    result, lines = run.measure(name, seed=0, seconds=0, trace=True, tiny=True)
    after = _hcl_attributes()
    assert result["correct"], lines
    assert _units(result) == _declared("per_layer")
    assert before.keys() == after.keys()
    for mod, attrs in before.items():
        assert after[mod].keys() == attrs.keys()
        assert all(after[mod][k] is v for k, v in attrs.items()), mod
    # the traced calls covered the workload's optimizer steps exactly
    from hcl.config import resolve_config

    cfg = resolve_config(workloads.config(name, 0, tiny=True))
    steps = workloads.steps_per_unit(name, cfg)
    assert result["metrics"]["optimizer.lars_step.calls"]["value"] == steps
