#!/usr/bin/env python3
"""costcap benchmark: end-to-end step metrics and a traced per-layer split.

Run from the root of a costcap checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py            # every workload, each in its own process

With ``--trace 0`` a run prints the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it prints the per-layer metrics of a traced run, whose
spans go to ``.perfbench_out/<workload>.spans.csv``. The last line of
standard output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``. The package is imported from this checkout's ``src/`` only;
without it the run exits 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

import probe

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"

WORKLOAD_NAMES = (
    "online-expected-chain",
    "online-violation-powerset",
    "gen-value-chain",
    "sweep-expected",
)
DEFAULT_SEED = 101  # acceptance criterion 1's stream seed
DEFAULT_SECONDS = 20
SETUP_REPEATS = 7
# p99 is reported from at least this many step latencies, so that ten or
# more lie beyond it; online passes repeat until the run has them.
MIN_LATENCY_SAMPLES = 1000
SUBPROCESS_TIMEOUT_S = 900

# Instrumented split of an expected-mode step (tpc value, fp cost, ratio
# chain, target 20, stream seed 101) as listed in ROADMAP.md, in us/step.
ROADMAP_SPLIT = {
    "quantile_tree.observe": 35.0,
    "universe.build": 31.0,
    "controller.record": 27.0,
    "set_functions.proxy_values": 6.0,
    "set_functions.evaluate": 3.5,
    "controller.select": 3.0,
    "quantile_tree.threshold": 3.0,
}
ROADMAP_STEP_US = 128.0


def load_costcap() -> None:
    """Put this checkout's ``src/`` first on the path and import costcap
    from it; exit 1 if it is missing or another copy would be used."""
    init = ROOT / "src" / "costcap" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: {init} not found; run from the root of a costcap checkout")
    sys.path.insert(0, str(init.parent.parent))
    import costcap

    if Path(costcap.__file__).resolve() != init.resolve():
        sys.exit(f"perfbench: imported costcap from {costcap.__file__}, expected {init}")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="stream seed")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny: a few steps per workload, for the self-check",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# ----------------------------------------------------------------------
# environment

def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def environment(args) -> dict:
    from costcap import cli

    threads = None
    if hasattr(cli, "thread_count"):  # ROADMAP item 2 may remove the thread pool
        try:
            threads = cli.thread_count()
        except cli.UsageError as exc:
            threads = f"invalid: {exc}"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_count": threads,
        "COSTCAP_THREADS": os.environ.get("COSTCAP_THREADS"),
        "git_commit": git_commit(),
        "stream_seed": args.seed,
        "workload": args.workload,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ----------------------------------------------------------------------
# one workload

class Tally:
    """Operations attempted and failed: steps, plus every correctness check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
        print(f"check {'ok' if ok else 'FAILED'}: {what}")


def run_passes(wk, wl, cfg, stream, seconds, need, scratch, tracer=None):
    """Whole passes until ``seconds`` have gone and the run holds ``need``
    latency samples. Only the first untraced pass compares thresholds with
    the direct search."""
    passes = []
    samples = 0
    start = perf_counter()
    while True:
        if wl.sweep and tracer is not None:
            with wk.traced_cli(tracer) as (built, single_s):
                p = wk.sweep_pass(cfg, stream, scratch)
            p.nodes = max((len(c.tree) for c in built), default=0)
            p.height = max((c.tree.height() for c in built), default=0)
            p.controllers_built = len(built)
            p.run_single_s = sum(single_s)
        elif wl.sweep:
            p = wk.sweep_pass(cfg, stream, scratch)
        else:
            first_untraced = not passes and tracer is None
            p = wk.online_pass(cfg, stream, wl.checkpoints if first_untraced else (), tracer)
        passes.append(p)
        samples += sum(p.predicted)
        gc.collect()  # free this pass's controller before the next one starts
        if p.errors == p.steps or not any(p.predicted):
            break
        if perf_counter() - start >= seconds and samples >= need:
            break
    return passes


def throughput(passes, scaled: bool) -> float:
    """Steps completed per second of summed step time, raw or at reference
    machine speed."""
    busy = sum(p.seconds(scaled) for p in passes)
    done = sum(p.steps - p.errors for p in passes)
    return done / busy if busy > 0 else 0.0


def latencies_us(passes, scaled: bool) -> np.ndarray:
    """Post-burn-in step latencies of all passes, in microseconds."""
    parts = []
    for p in passes:
        post = np.frombuffer(p.predicted, dtype=np.int8) == 1
        lat = np.frombuffer(p.step_s)[post]
        if scaled:
            lat = lat * np.frombuffer(p.scale)[post]
        parts.append(lat)
    lat = np.concatenate(parts) * 1e6
    return lat[~np.isnan(lat)]


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def load_reference(workload: str, seed: int) -> str | None:
    try:
        table = json.loads(REFERENCE.read_text())["digests"]
    except (OSError, ValueError, KeyError):
        return None
    return table.get(workload, {}).get(str(seed))


def pin_to_one_cpu() -> int:
    """Pin this process, and the threads it starts, to one allowed CPU.

    Without it the sweep's pool threads and the speed probe run on
    different CPUs, whose speeds drift apart on a shared host, and its
    figures spread three times as wide. Threads under the interpreter lock
    execute one at a time, so one CPU serves them; work spread over
    processes, which would use more CPUs, is outside what this benchmark
    measures."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_workload(args) -> dict:
    import workloads as wk
    from spans import ProxyCallCounter, Tracer

    wl = wk.WORKLOADS[args.size][args.workload]
    env = environment(args)
    env["pinned_cpu"] = pin_to_one_cpu()
    print("env " + json.dumps(env, sort_keys=True))

    setup_s = []  # at reference machine speed
    generate_s = []
    stream = None
    probe_before = probe.seconds()
    for _ in range(SETUP_REPEATS):
        stream = None
        cfg, stream, total, gen = wk.set_up(wl, args.seed)
        probe_after = probe.seconds()
        setup_s.append(total * probe.scale(probe_before, probe_after))
        generate_s.append(gen)
        probe_before = probe_after
    gc.collect()

    tally = Tally()
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        scratch = Path(tmp)
        budget = args.seconds / 2 if args.trace else args.seconds
        need = MIN_LATENCY_SAMPLES if args.size == "full" and not wl.sweep else 0
        with wk.GcMonitor() as gc_mon:
            untraced = run_passes(wk, wl, cfg, stream, budget, need, scratch)
        traced = []
        if args.trace:
            tracer = Tracer()
            with ProxyCallCounter() as proxy_calls:
                traced = run_passes(wk, wl, cfg, stream, budget, 0, scratch, tracer)

    first = untraced[0]
    for p in untraced + traced:
        tally.attempted += p.steps
        tally.failed += p.errors
    if first.errors:
        print(f"check FAILED: {first.errors} of {first.steps} steps raised")
    tally.attempted += first.checks
    tally.failed += first.mismatches
    if first.checks:
        print(f"check {'ok' if not first.mismatches else 'FAILED'}: "
              f"{first.checks - first.mismatches}/{first.checks} checkpoint thresholds "
              f"match the direct search")
    for i, p in enumerate(untraced[1:] + traced, start=1):
        label = "traced" if i >= len(untraced) else "untraced"
        tally.check(p.digest == first.digest, f"{label} pass {i} repeats pass 0's digest")
    ok, detail = wk.guarantee_check(cfg, first)
    tally.check(ok, f"guarantee: {detail}")
    reference = load_reference(args.workload, args.seed) if args.size == "full" else None
    if reference is None:
        print(f"note: no reference digest stored for seed {args.seed} at size {args.size}")
    else:
        tally.check(first.digest == reference, "digest equals the stored reference")
    print(f"digest {first.digest}")

    if args.trace:
        metrics = layer_metrics(wl, untraced, traced, tracer, proxy_calls, gc_mon, generate_s)
        report_split(args.workload, metrics)
        spans_path = OUT_DIR / f"{args.workload}.spans.csv"  # the latest run's
        tracer.write_csv(spans_path, [json.dumps(env, sort_keys=True)])
        print(f"spans of {tracer.steps} traced steps written to {spans_path}")
    else:
        latencies = latencies_us(untraced, scaled=True)
        raw = latencies_us(untraced, scaled=False)
        what = "passes (wall time per controller step)" if wl.sweep else "post-burn-in steps"
        print(f"latency samples: {len(latencies)} {what}, {len(untraced)} passes")
        scales = [f for p in untraced for f in p.scale]
        print(f"machine-speed scale: median {statistics.median(scales):.3f}, "
              f"range {min(scales):.3f}..{max(scales):.3f}")
        print(f"raw (unscaled): steps_per_s {throughput(untraced, scaled=False):.1f}  "
              f"step_us_p50 {percentile(raw, 50):.1f}  step_us_p99 {percentile(raw, 99):.1f}")
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "steps_per_s": (throughput(untraced, scaled=True), "1/s"),
            "step_us_p50": (percentile(latencies, 50), "us"),
            "step_us_p99": (percentile(latencies, 99), "us"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "mean_value": (statistics.fmean(first.values) if first.values else 0.0, "score"),
        }
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.4f} {unit}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def traced_step_scale(traced, steps: int) -> np.ndarray:
    """Machine-speed factor of each traced step, in the tracer's order."""
    parts = []
    for p in traced:
        scale = np.frombuffer(p.scale)
        if p.per_entry == 1:
            parts.append(scale[~np.isnan(np.frombuffer(p.step_s))])
        else:
            parts.append(np.full(p.steps - p.errors, scale[0]))
    step_scale = np.concatenate(parts) if parts else np.zeros(0)
    if len(step_scale) != steps:
        print("note: traced steps and pass lengths differ; per-layer times are raw")
        return np.ones(steps)
    return step_scale


def layer_metrics(wl, untraced, traced, tracer, proxy_calls, gc_mon, generate_s) -> dict:
    from spans import LAYER_SPANS

    steps = max(tracer.steps, 1)
    step_scale = traced_step_scale(traced, tracer.steps)
    own = tracer.self_times(step_scale)

    def per_step_us(name):
        return own[name] / steps * 1e6

    def mean(values):
        return statistics.fmean(values) if len(values) else 0.0

    untraced_sps = throughput(untraced, scaled=True)
    traced_sps = throughput(traced, scaled=True)
    untraced_step_us = 1e6 / untraced_sps if untraced_sps else 0.0
    layers_us = sum(per_step_us(name) for name in LAYER_SPANS)
    step_s = tracer.step_seconds(step_scale)
    shared = sum(own[n] for n in ("universe.build", "controller.record", "set_functions.proxy_values"))
    observe_deciles, observe_slope = tracer.scaling(tracer.observe_s, step_scale)
    threshold_deciles, threshold_slope = tracer.scaling(tracer.threshold_s, step_scale)
    n_untraced = len(untraced)
    run_experiment_s = mean([p.seconds(scaled=True) for p in traced]) if wl.sweep else 0.0
    run_single_s = mean([p.run_single_s * p.scale[0] for p in traced]) if wl.sweep else 0.0

    m = {
        "universe.build_us": (per_step_us("universe.build"), "us"),
        "universe.sets_per_step": (mean(tracer.sets), "count"),
        "controller.record_us": (per_step_us("controller.record"), "us"),
        "quantile_tree.observe_us": (per_step_us("quantile_tree.observe"), "us"),
        "quantile_tree.inserts_per_step": (mean(tracer.inserts), "count"),
        "quantile_tree.deletes_per_step": (mean(tracer.deletes), "count"),
        "quantile_tree.threshold_us": (per_step_us("quantile_tree.threshold"), "us"),
        "quantile_tree.nodes_end": (float(traced[-1].nodes), "count"),
        "quantile_tree.height_end": (float(traced[-1].height), "count"),
        "quantile_tree.observe_slope": (observe_slope, "ratio"),
        "quantile_tree.threshold_slope": (threshold_slope, "ratio"),
    }
    for k, value in enumerate(observe_deciles, start=1):
        m[f"quantile_tree.observe_us.d{k}"] = (value * 1e6, "us")
    for k, value in enumerate(threshold_deciles, start=1):
        m[f"quantile_tree.threshold_us.d{k}"] = (value * 1e6, "us")
    m.update({
        "set_functions.proxy_values_us": (per_step_us("set_functions.proxy_values"), "us"),
        "set_functions.proxy_calls_per_step": (proxy_calls.calls / steps, "count"),
        "set_functions.evaluate_us": (per_step_us("set_functions.evaluate"), "us"),
        "controller.select_us": (per_step_us("controller.select"), "us"),
        "controller.admissible_share": (
            sum(tracer.admissible) / max(sum(tracer.scanned), 1), "ratio"),
        "controller.sentinel_share": (tracer.sentinels / max(tracer.thresholds, 1), "ratio"),
        "python.gc_pause_ms": (sum(gc_mon.pauses_s) / n_untraced * 1e3, "ms"),
        "python.gc_max_pause_ms": (max(gc_mon.pauses_s, default=0.0) * 1e3, "ms"),
        "python.gc_gen2_count": (gc_mon.gen2 / n_untraced, "count"),
        "cli.run_experiment_s": (run_experiment_s, "s"),
        "cli.run_single_s_sum": (run_single_s, "s"),
        "cli.pool_overlap": (run_single_s / run_experiment_s if run_experiment_s else 0.0, "ratio"),
        "cli.controllers_built": (
            mean([p.controllers_built for p in traced]) if wl.sweep else 1.0, "count"),
        "cli.target_shared_share": (shared / step_s if step_s else 0.0, "ratio"),
        "synth.generate_s": (statistics.median(generate_s), "s"),
        "trace.step_us": (step_s / steps * 1e6, "us"),
        "trace.glue_us": (per_step_us("step"), "us"),
        "trace.layers_us": (layers_us, "us"),
        "trace.untraced_step_us": (untraced_step_us, "us"),
        "trace.coverage": (layers_us / untraced_step_us if untraced_step_us else 0.0, "ratio"),
        "trace.steps_per_s": (traced_sps, "1/s"),
        "trace.untraced_steps_per_s": (untraced_sps, "1/s"),
        "trace.overhead_share": (1.0 - traced_sps / untraced_sps if untraced_sps else 0.0, "ratio"),
    })
    return m


def report_split(workload: str, m: dict) -> None:
    """Per-layer self time per step next to the untraced step time; for the
    expected chain also next to the split listed in ROADMAP.md."""
    untraced = m["trace.untraced_step_us"][0]
    print(f"split of {untraced:.1f} us/step untraced "
          f"(traced {m['trace.step_us'][0]:.1f}, overhead {100 * m['trace.overhead_share'][0]:.1f}%):")
    for span, roadmap in ROADMAP_SPLIT.items():
        ours = m[f"{span}_us"][0]
        line = f"  {span:30s} {ours:10.1f} us  {100 * ours / untraced if untraced else 0:5.1f}%"
        if workload == "online-expected-chain":
            line += f"   ROADMAP {roadmap:5.1f} us of {ROADMAP_STEP_US:.0f}"
        print(line)
    print(f"  {'(tracer glue)':30s} {m['trace.glue_us'][0]:10.1f} us")
    print(f"  layers account for {100 * m['trace.coverage'][0]:.1f}% of the untraced step time")


# ----------------------------------------------------------------------
# every workload, each in its own process

def run_all(args) -> int:
    results = {}
    failed = False
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--size", args.size,
        ]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            failed = True
            continue
        results[name] = json.loads(lines[-1])
    print("\nworkload                    correct  failed/attempted")
    for name, res in results.items():
        print(f"{name:28s} {str(res['correct']):7s}  {res['failed']}/{res['attempted']}")
    print(json.dumps({
        "correct": not failed and all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}/{metric}": entry
            for name, res in results.items()
            for metric, entry in res["metrics"].items()
        },
    }))
    return 1 if failed else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    load_costcap()
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
