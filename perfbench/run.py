#!/usr/bin/env python3
"""sgfsim benchmark: end-to-end and per-layer metrics on three workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mc-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` times the workload untraced and reports the ``end_to_end``
metrics of BENCHMARK.json. The CPU speed of a small shared host drifts by
tens of percent over minutes, so pass times are reported in units of a fixed
calibration kernel, chosen for the workload's kind of work and timed between
the passes of the same run (``wall_norm``,
``ops_per_calib``); the raw seconds are printed beside them. ``setup_s``,
a fresh interpreter's ``import sgfsim``, is scaled to a host of fixed speed
the same way. ``--trace 1``
alternates untraced and traced passes and reports the ``per_layer``
metrics: spans around calls into the public
functions of ``cli``, ``montecarlo``, ``analytic`` and ``zones``, the dedicated
probes of ``probes.py`` and the tracing overhead. Human-readable lines come
first; the last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is nonzero when a
correctness gate fails. The benchmark imports sgfsim from the checkout's
``src/`` and writes only under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np

import probes
import workloads
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3
# mixed calibration samples taken after each fresh import
SETUP_CALIBRATION_SAMPLES = 10
# setup_s is given in seconds of a host on which one mixed calibration sample
# takes this long. The raw import time swings with the host's speed as the
# interpreter-bound workloads do: on a 2-vCPU shared VM two 10-run sets had
# medians 0.57 s and 0.74 s, while the import time over the calibration
# agreed within 5%.
REFERENCE_CALIBRATION_S = 0.015
MIN_PASSES = 3
# a traced run needs this many untraced and as many traced passes
MIN_TRACED_PASSES = 2
# after each pass, calibrate for this share of the pass's wall time
CALIBRATION_SHARE = 0.1
MIN_CALIBRATION_SAMPLES = 3
# (span name, module that looks the function up, attribute, work count of a result)
SPANS = (
    ("cli.main", "cli", "main", None),
    ("montecarlo.sweep", "cli", "sweep", None),
    ("montecarlo.estimate_outage", "montecarlo", "estimate_outage", lambda est: est.trials),
    ("analytic.outage_probability", "analytic", "outage_probability", None),
    ("analytic.outage_probability_highsnr", "analytic", "outage_probability_highsnr", None),
    ("analytic.outage_diversity_asymptote", "analytic", "outage_diversity_asymptote", None),
    ("zones.classify_grid", "cli", "classify_grid", len),
)


def load_sgfsim() -> SimpleNamespace:
    """Import sgfsim from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "sgfsim", "__init__.py")):
        raise SystemExit(f"perfbench: no sgfsim sources under {SRC}")
    sys.path.insert(0, SRC)
    import sgfsim
    from sgfsim import analytic, baselines, cli, model, montecarlo, protocol, zones

    if not os.path.abspath(sgfsim.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported sgfsim from {sgfsim.__file__}, not {SRC}")
    return SimpleNamespace(
        SystemConfig=model.SystemConfig, analytic=analytic, baselines=baselines, cli=cli,
        model=model, montecarlo=montecarlo, protocol=protocol, zones=zones,
    )


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def git_revision() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": git_revision(),
        "seed": seed,
        "workers": os.environ.get("SGFSIM_WORKERS") or "1 (SGFSIM_WORKERS unset)",
    }


def interpreter_kernel() -> None:
    total = 0.0
    for i in range(60000):
        total += (i * 0.5) ** 0.5


def numpy_kernel() -> None:
    block = np.random.Generator(np.random.Philox(1)).random((65536, 6))
    np.log1p(-np.sort(block, axis=1)).sum()


# Calibration kernels by the kind of work a workload does; none uses sgfsim.
# Interpreted code slows more than numpy block work when the host is busy, so
# the mixed kernel overcorrects the numpy-bound mc-sweep: over 8 runs of it on
# a 2-vCPU shared VM, the spread of wall time was 0.067 raw, 0.084 over the
# numpy kernel and 0.115 over the mixed one, while the mixed kernel brings the
# interpreter-bound workloads from 0.15-0.22 raw down to 0.05-0.06.
CALIBRATION_KERNELS = {
    "mixed": (interpreter_kernel, numpy_kernel),
    "numpy": (numpy_kernel,),
}


def calibration_sample(kind: str) -> float:
    """Wall time of the ``kind`` calibration kernels."""
    start = time.perf_counter()
    for kernel in CALIBRATION_KERNELS[kind]:
        kernel()
    return time.perf_counter() - start


def calibrate(samples: list[float], budget_s: float, kind: str) -> None:
    """Append calibration samples until they add up to ``budget_s`` seconds."""
    spent = 0.0
    while spent < budget_s or len(samples) < MIN_CALIBRATION_SAMPLES:
        samples.append(calibration_sample(kind))
        spent += samples[-1]


def measure_setup() -> dict[str, list[float]]:
    """Fresh-interpreter ``import sgfsim`` times, each followed by calibration samples."""
    setup = {"import": [], "calibration": []}
    for _ in range(SETUP_REPEATS):
        setup["import"] += probes.fresh_import_seconds("sgfsim", SRC, 1)
        setup["calibration"] += [
            calibration_sample("mixed") for _ in range(SETUP_CALIBRATION_SAMPLES)
        ]
    return setup


def run_passes(workload, seconds: float, tracer) -> dict:
    """Closed loop of passes for ``seconds``, calibrating the host's speed after
    each; with a tracer, every other pass is traced."""
    untraced, work, traced, spans, calibration = [], [], [], [], []
    started = time.perf_counter()
    while True:
        trace_this = tracer is not None and len(untraced) > len(traced)
        if trace_this:
            for name, module, attr, count in SPANS:
                tracer.install(getattr(workload.sgf, module), attr, name, count)
        try:
            wall, work_s = workload.run_pass()
        finally:
            if trace_this:
                tracer.restore()
        if trace_this:
            traced.append(wall)
            spans.append(tracer.drain())
        else:
            untraced.append(wall)
            work.append(work_s)
        calibrate(calibration, CALIBRATION_SHARE * wall, workload.calibration)
        need = MIN_TRACED_PASSES if tracer else MIN_PASSES
        if time.perf_counter() - started >= seconds and len(untraced) >= need and (
            tracer is None or len(traced) >= need
        ):
            return {"untraced": untraced, "work": work, "traced": traced, "spans": spans,
                    "calibration": calibration}


def span_metrics(workload, runs: dict) -> dict[str, float]:
    """Per traced pass medians of each span's calls, total and self time."""
    passes = runs["spans"]
    absent = {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0.0}

    def median_of(name: str, key: str) -> float:
        return float(statistics.median(p.get(name, absent)[key] for p in passes))

    metrics = {
        f"{name}.{key}": median_of(name, key)
        for name, *_ in SPANS
        for key in ("calls", "s", "self_s")
    }
    estimates = [p.get("montecarlo.estimate_outage", absent) for p in passes]
    seconds = sum(e["s"] for e in estimates)
    metrics["montecarlo.trials_per_s"] = sum(e["count"] for e in estimates) / seconds if seconds else 0.0
    metrics["zones.points"] = median_of("zones.classify_grid", "count")
    metrics["cli.bytes_written"] = float(workload.bytes_written)
    metrics["trace.overhead_frac"] = (
        statistics.median(runs["traced"]) / statistics.median(runs["untraced"]) - 1.0
    )
    return metrics


def describe(samples: list[float]) -> str:
    return f"median of n={len(samples)}, max {max(samples):.6g}"


def run_workload(args) -> int:
    sgf = load_sgfsim()
    spec = load_spec()
    out_dir = os.path.join(ROOT, ".perfbench_out", f"{args.workload}-{os.getpid()}")
    os.makedirs(out_dir)
    try:
        env = environment(args.seed)
        print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
        print("env " + json.dumps(env, sort_keys=True), flush=True)
        setup = None if args.trace else measure_setup()

        workload = workloads.WORKLOADS[args.workload](sgf, args.seed, out_dir, ROOT)
        workload.prepare()
        tracer = Tracer() if args.trace else None
        runs = run_passes(workload, args.seconds, tracer)
        report = workload.check()
        passes = len(runs["untraced"]) + len(runs["traced"])

        notes = {}
        if args.trace:
            workload.traced_checks()
            metrics = span_metrics(workload, runs)
            metrics.update(probes.block_stage_probe(sgf, args.seed, workload.failures))
            metrics.update(probes.workers2_speedup(sgf, args.seed, workload.failures))
            metrics.update(probes.analytic_probe(sgf, args.seed))
            metrics.update(probes.scalar_call_probe(sgf, args.seed))
            metrics["setup.scipy_integrate_import_s"] = statistics.median(
                probes.fresh_import_seconds("scipy.integrate", SRC, 3)
            )
            declared = spec["per_layer"]
        else:
            calibration = statistics.median(runs["calibration"])
            wall = statistics.median(runs["untraced"])
            ops = workload.work_units / statistics.median(runs["work"])
            metrics = {
                "setup_s": statistics.median(setup["import"])
                / statistics.median(setup["calibration"]) * REFERENCE_CALIBRATION_S,
                "wall_norm": wall / calibration,
                "ops_per_calib": ops * calibration,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            notes = {
                "setup_s": f"import_s scaled to a {REFERENCE_CALIBRATION_S:g} s mixed calibration kernel",
                "wall_norm": "wall_s / calibration_s",
                "ops_per_calib": f"{workload.ops_metric} * calibration_s",
            }
            report["import_s"] = (
                statistics.median(setup["import"]), "s",
                f"fresh-interpreter import sgfsim, {describe(setup['import'])}",
            )
            report["setup_calibration_s"] = (
                statistics.median(setup["calibration"]), "s",
                f"mixed calibration kernel, {describe(setup['calibration'])}",
            )
            report["wall_s"] = (wall, "s", f"one pass, {describe(runs['untraced'])}")
            report[workload.ops_metric] = (ops, "1/s", f"{workload.work_units} per pass")
            report["calibration_s"] = (
                calibration, "s",
                f"{workload.calibration} calibration kernel, {describe(runs['calibration'])}",
            )
            declared = spec["end_to_end"]

        attempted = workload.ops_attempted * passes
        failed = workload.ops_failed * passes
        report["failed_frac"] = (failed / attempted if attempted else 0.0, "frac", "failed / attempted")
        units = {m["name"]: m["unit"] for m in declared}
        if set(metrics) != set(units):
            raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
        for name, value in metrics.items():
            print(f"{name:<44} {value:<14.6g} {units[name]:<14} {notes.get(name, '')}")
        for name, (value, unit, note) in report.items():
            print(f"{name:<44} {value:<14.6g} {unit:<14} {note} (not in the JSON line)")
        for failure in workload.failures:
            print(f"GATE FAILED: {failure}")
        correct = not workload.failures
        print(f"gates {'passed' if correct else 'FAILED'} over {passes} passes")
        print(json.dumps({
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        }), flush=True)
        return 0 if correct else 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(out_dir))
        except OSError:
            pass


def run_all(args, names) -> int:
    """Every workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in names:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined), flush=True)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
