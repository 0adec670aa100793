"""The hcl benchmark: run one workload for a fixed time and report metrics.

    python3 perfbench/run.py --workload scene --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 15 --trace 0

Run from a source checkout: the benchmark imports ``hcl`` from ``src/`` next
to this directory and exits with code 2 if it is missing. A run writes the
workload's config from ``--seed``, measures set-up in fresh interpreters,
and then repeats one call of the workload's ``hcl`` command until
``--seconds`` have passed (at least three times). Every call is checked:
the loss traces and reports it writes are finite, the bound check holds,
and it writes the same metric CSV bytes as the first call. Traced calls
also check the loss trace of every training run, including the sweep's,
which the command does not write out.

With ``--trace 0`` the end-to-end metrics are medians over the calls, with
every time normalised to the host's speed (see ``reference.py``): the
reference kernel runs before and after each call and each set-up probe, and
a time counts as ``seconds * NOMINAL_S / reference`` with the mean of the
two reference times around it. The raw wall and CPU times are printed too.
With ``--trace 1`` traced and untraced calls alternate in T U U T order; the
per-layer metrics are medians over the traced ones, per call, and the spans
are written once, at the end, to ``.perfbench/trace-<workload>.json``.
Human-readable lines come first; the last line of standard output is the
JSON result.

``--workload all`` runs the four workloads one after another, each in its
own process, and prints every report.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import envinfo
import reference
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

MIN_UNITS = 3           # measured calls per kind (untraced, traced)
MAX_MEASURE_S = 120.0   # stop starting calls after this, whatever --seconds says
SETUP_PROBES = 5


class BenchError(Exception):
    """The benchmark cannot run here."""


def import_hcl():
    """Import ``hcl.cli`` from this checkout's ``src/``, never another copy."""
    if not os.path.isfile(os.path.join(SRC, "hcl", "__init__.py")):
        raise BenchError(f"no hcl sources under {SRC}")
    sys.path.insert(0, SRC)
    import hcl.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(hcl.__file__))) != SRC:
        raise BenchError(f"imported hcl from {hcl.__file__}, not from {SRC}")
    return hcl.cli


@dataclass
class Unit:
    wall: float
    cpu: float
    traced: bool
    outcome: workloads.Outcome
    ref: float = float("nan")  # mean reference seconds around the call


def _scale(ref: float) -> float:
    """Factor that turns measured seconds into normalised seconds."""
    return reference.NOMINAL_S / ref


def _cpu_seconds() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def run_unit(cli, name, cfg, cfg_path, out, traced=False) -> Unit:
    """One call of the workload's command, timed and checked."""
    argv = [workloads.command(name), "--config", cfg_path, "--out", out]
    sink = io.StringIO()
    error = None
    c0 = _cpu_seconds()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            rc = cli.main(argv)
    except Exception:  # a crash is a failed call, not a failed benchmark
        rc, error = None, traceback.format_exc(limit=4)
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - c0
    if rc == 0:
        outcome = workloads.check(name, out, cfg)
    else:
        outcome = workloads.Outcome(cells=workloads.expected_cells(name, cfg))
        outcome.fail_all(error or f"exit code {rc}: {sink.getvalue()[-400:]}")
    shutil.rmtree(out, ignore_errors=True)
    return Unit(wall=wall, cpu=cpu, traced=traced, outcome=outcome)


def setup_samples(name: str, seed: int,
                  probes: int) -> tuple[list[float], list[float]]:
    """Set-up seconds of ``probes`` fresh interpreters, one after another,
    and the mean reference seconds around each."""
    out, refs = [], []
    before = reference.reference_seconds()
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), name,
             str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=False)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr[-400:]}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
        after = reference.reference_seconds()
        refs.append((before + after) / 2)
        before = after
    return out, refs


def _median(values):
    return statistics.median(values) if values else float("nan")


def _fmt(values):
    return ", ".join(f"{v:.4f}" for v in values)


def measure(name: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> tuple[dict, list[str]]:
    """Run one workload; return the JSON result and the report lines."""
    cli = import_hcl()
    from hcl.config import resolve_config

    pairs = workloads.config(name, seed, tiny)
    cfg = resolve_config(pairs)
    run_dir = os.path.join(WORK, f"run-{name}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    cfg_path = os.path.join(run_dir, "workload.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{k} = {v}\n" for k, v in pairs.items()))
    tracer = spans.Tracer() if trace else None
    try:
        setup = ([], [])
        if not trace:
            reference.warm_up()
            setup = setup_samples(name, seed, 1 if tiny else SETUP_PROBES)
            before = reference.reference_seconds()
        units: list[Unit] = []
        start = time.perf_counter()
        while True:
            # T U U T order, so a steady drift in machine speed cancels out
            # of the traced-minus-untraced overhead
            traced = trace and len(units) % 4 in (0, 3)
            out = os.path.join(run_dir, f"unit{len(units)}")
            if traced:
                tracer.run_id = len(units)
                tracer.install()
            try:
                unit = run_unit(cli, name, cfg, cfg_path, out, traced)
            finally:
                if traced:
                    tracer.uninstall()
            if not trace:
                after = reference.reference_seconds()
                unit.ref = (before + after) / 2
                before = after
            if traced:
                bad = tracer.run_stats(tracer.run_id)["nonfinite_runs"]
                if bad:
                    unit.outcome.failed = min(unit.outcome.cells,
                                              unit.outcome.failed + bad)
                    unit.outcome.problems.append(
                        f"{bad} training runs with a non-finite loss trace")
            if units and unit.outcome.failed < unit.outcome.cells and \
                    unit.outcome.csv_bytes != units[0].outcome.csv_bytes:
                unit.outcome.fail_all("metric CSV differs from the first "
                                      "call's on the same seed")
            units.append(unit)
            elapsed = time.perf_counter() - start
            kinds = [u.traced for u in units]
            enough = min(kinds.count(True), kinds.count(False)) >= MIN_UNITS \
                if trace else len(units) >= MIN_UNITS
            if (elapsed >= seconds and enough) or elapsed >= MAX_MEASURE_S:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(u.outcome.cells for u in units)
    failed = sum(u.outcome.failed for u in units)
    problems = [p for u in units for p in u.outcome.problems]
    steps = workloads.steps_per_unit(name, cfg)
    lines = [f"perfbench workload={name} seed={seed} trace={int(trace)} "
             f"calls={len(units)} steps/call={steps}",
             "fingerprint " + json.dumps(envinfo.fingerprint(), sort_keys=True)]
    if trace:
        metrics, extra = _per_layer(units, tracer, steps, problems)
        lines += extra
        _write_trace(name, seed, units, tracer)
    else:
        metrics = _end_to_end(name, setup, units, steps, lines)
    lines.append(f"  {'failed_share':<18}{failed / attempted:<14.4g}1"
                 f"      {failed} of {attempted} runs/cells")
    for p in problems[:10]:
        lines.append(f"  problem: {p.strip()}")
    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, lines


def _end_to_end(name, setup, units, steps, lines) -> dict:
    setup_raw, setup_refs = setup
    setup_norm = [s * _scale(r) for s, r in zip(setup_raw, setup_refs)]
    walls = [u.wall for u in units]
    cpus = [u.cpu for u in units]
    norm_walls = [u.wall * _scale(u.ref) for u in units]
    norm_cpus = [u.cpu * _scale(u.ref) for u in units]
    norm_wall = _median(norm_walls)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": {"value": _median(setup_norm), "unit": "s"},
        "norm_wall_s": {"value": norm_wall, "unit": "s"},
        "norm_steps_per_s": {"value": steps / norm_wall, "unit": "1/s"},
        "norm_cpu_s": {"value": _median(norm_cpus), "unit": "s"},
        "peak_rss_mb": {"value": peak, "unit": "MiB"},
    }
    refs = [u.ref for u in units]
    raw = {
        "wall_s": {"value": _median(walls), "unit": "s"},
        "steps_per_s": {"value": steps / _median(walls), "unit": "1/s"},
        "cpu_s": {"value": _median(cpus), "unit": "s"},
        "reference_s": {"value": _median(refs), "unit": "s"},
    }
    notes = {
        "setup_s": f"normalised, median of {len(setup_raw)} fresh interpreters "
                   f"[{_fmt(setup_norm)}]; raw [{_fmt(setup_raw)}]",
        "norm_wall_s": f"normalised, median of {len(units)} calls "
                       f"[{_fmt(norm_walls)}]",
        "norm_steps_per_s": f"{steps} optimizer steps per call over norm_wall_s",
        "norm_cpu_s": f"normalised user+sys, median of {len(units)} calls",
        "peak_rss_mb": "peak resident set of the whole run",
        "wall_s": f"raw, median of {len(walls)} calls [{_fmt(walls)}]",
        "steps_per_s": f"raw, {steps} optimizer steps per call over wall_s",
        "cpu_s": f"raw user+sys, median of {len(cpus)} calls [{_fmt(cpus)}]",
        "reference_s": f"reference kernel around each call, median "
                       f"[{_fmt(refs)}]",
    }
    for key, m in {**metrics, **raw}.items():
        lines.append(f"  {key:<18}{m['value']:<14.6g}{m['unit']:<7}"
                     f"{notes[key]}")
    quality = units[0].outcome.quality
    f1 = "n/a" if name == "unsup-bound" else f"{quality:.6g}"
    gap = f"{quality:.6g}" if name == "unsup-bound" else "n/a"
    lines.append(f"  {'f1':<18}{f1:<14}{'1':<7}micro-F1 on unlabeled rows"
                 + (", mean over cells" if name == "noise-sweep" else ""))
    lines.append(f"  {'bound_gap_nats':<18}{gap:<14}{'nats':<7}"
                 "reference MI minus the empirical bound (unsup-bound only)")
    return metrics


def _per_layer(units, tracer, steps, problems):
    traced = [(i, u) for i, u in enumerate(units) if u.traced]
    plain = [u.wall for u in units if not u.traced]
    stats = {i: tracer.run_stats(i) for i, _ in traced}
    first = stats[traced[0][0]]
    for i, u in traced:
        s = stats[i]
        if s["min_self_s"] < -1e-6 or s["root_s"] > u.wall + 1e-6:
            problems.append(f"call {i}: spans do not nest")
        if any(s["spans"][n]["calls"] != first["spans"][n]["calls"]
               for n in spans.SPANS) or s["work"] != first["work"]:
            problems.append(f"call {i}: call or work counts differ between "
                            "traced calls on the same seed")
    lars = first["spans"]["optimizer.lars_step"]["calls"]
    if "optimizer.lars_step" not in tracer.missing and lars != steps:
        problems.append(f"traced call made {lars} optimizer steps, "
                        f"expected {steps}")

    metrics = {}
    for span in spans.SPANS:
        metrics[f"{span}.calls"] = {
            "value": first["spans"][span]["calls"], "unit": "count"}
        metrics[f"{span}.self_s"] = {
            "value": _median([stats[i]["spans"][span]["self_s"]
                              for i, _ in traced]), "unit": "s"}
        metrics[f"{span}.minflt"] = {
            "value": _median([stats[i]["spans"][span]["minflt"]
                              for i, _ in traced]), "unit": "count"}
    for key, unit in spans.WORK_COUNTS.items():
        metrics[key] = {"value": first["work"][key], "unit": unit}
    traced_wall = _median([u.wall for _, u in traced])
    unwrapped = _median([u.wall - stats[i]["root_s"] for i, u in traced])
    self_sum = _median([sum(v["self_s"] for v in stats[i]["spans"].values())
                        for i, _ in traced])
    metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_wall - _median(plain),
                                   "unit": "s"}
    metrics["trace.unwrapped_s"] = {"value": unwrapped, "unit": "s"}

    lines = [f"  not found, reported as zero: {', '.join(tracer.missing)}"
             ] if tracer.missing else []
    lines += [f"  traced wall_s {traced_wall:.4f} s (median of {len(traced)}), "
             f"untraced wall_s {_median(plain):.4f} s (median of {len(plain)}), "
             f"overhead {traced_wall - _median(plain):+.4f} s "
             f"({(traced_wall / _median(plain) - 1) * 100:+.1f}%)",
             f"  span self times {self_sum:.4f} s + unwrapped {unwrapped:.4f} s "
             f"= {self_sum + unwrapped:.4f} s of traced wall_s",
             f"  {'span':<30}{'calls':>8}{'self_s':>10}{'share':>8}{'minflt':>10}"]
    ranked = sorted(spans.SPANS, key=lambda s: -metrics[f"{s}.self_s"]["value"])
    for span in ranked:
        lines.append(
            f"  {span:<30}{metrics[span + '.calls']['value']:>8}"
            f"{metrics[span + '.self_s']['value']:>10.4f}"
            f"{metrics[span + '.self_s']['value'] / traced_wall * 100:>7.1f}%"
            f"{metrics[span + '.minflt']['value']:>10.0f}")
    for key in spans.WORK_COUNTS:
        lines.append(f"  {key:<44}{metrics[key]['value']:.6g}")
    return metrics, lines


def _write_trace(name, seed, units, tracer) -> None:
    doc = {"workload": name, "seed": seed,
           "fingerprint": envinfo.fingerprint(),
           "calls": [{"run": i, "traced": u.traced, "wall_s": u.wall,
                      "cpu_s": u.cpu} for i, u in enumerate(units)]}
    doc.update(tracer.dump())
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, f"trace-{name}.json")
    with open(path + ".tmp", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
    os.replace(path + ".tmp", path)


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, one after another."""
    results, status = {}, 0
    for name in workloads.NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
        out = proc.stdout.strip().splitlines()
        print("\n".join(out[:-1]), flush=True)
        if proc.returncode != 0 or not out:
            print(proc.stderr, file=sys.stderr)
            status = 1
            continue
        results[name] = json.loads(out[-1])
        status |= 0 if results[name]["correct"] else 1
    print(json.dumps(results, sort_keys=True))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    try:
        result, lines = measure(args.workload, args.seed, args.seconds,
                                bool(args.trace))
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
