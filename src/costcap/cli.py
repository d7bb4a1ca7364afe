"""Experiment harness: generate streams, run controllers across cost targets
and seeds, cross-check tree thresholds against the direct search, and
benchmark per-update latency.

Subcommands: generate, run, oracle-check, bench. Exit codes: 0 success,
1 usage/config error, 2 data error, 3 assertion failure (``run --assert``).
A sweep runs its (seed, target) pairs one after another, in (seed, target)
order.

Stream CSV format: header ``p_0..p_{K-1}, y_0..y_{K-1}``; probabilities as
decimal text with 9 digits, labels as 0/1.
"""

from __future__ import annotations

import argparse
import csv
import json
import statistics
import sys
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .controller import (
    CostController,
    SampleRecord,
    oracle_threshold_expected,
    threshold_comparison,
)
from .quantile_tree import QuantileTree
from .set_functions import MAX_CLASSES, Sample, SetFunctionSpec, load_weights_csv
from .synth import GeneratorConfig, generate, mnist_weights
from .universe import FULL_UNIVERSE_MAX_CLASSES

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_ASSERT = 3

DEFAULT_TARGETS = list(range(5, 51, 5))


class UsageError(Exception):
    """Bad flags or config values."""


class DataError(Exception):
    """Malformed or insufficient input data."""


# ----------------------------------------------------------------------
# stream file format

def write_stream_csv(path, samples: list[Sample]) -> None:
    k = samples[0].n_classes if samples else 0
    with open(path, "w", newline="") as fh:
        header = [f"p_{i}" for i in range(k)] + [f"y_{i}" for i in range(k)]
        fh.write(",".join(header) + "\n")
        for s in samples:
            probs = ",".join(f"{p:.9f}" for p in s.probs)
            labels = ",".join(str((s.labels >> i) & 1) for i in range(k))
            fh.write(probs + "," + labels + "\n")


def read_stream_csv(path) -> list[Sample]:
    samples = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty stream file") from None
        k = sum(1 for name in header if name.startswith("p_"))
        if k == 0 or len(header) != 2 * k:
            raise DataError(f"{path}: header must be p_0..p_{{K-1}},y_0..y_{{K-1}}")
        for line_no, row in enumerate(reader, start=2):
            if len(row) != 2 * k:
                raise DataError(f"{path}:{line_no}: expected {2 * k} fields, got {len(row)}")
            try:
                probs = np.array([float(x) for x in row[:k]])
            except ValueError:
                raise DataError(f"{path}:{line_no}: bad probability") from None
            # written so that NaN fails too
            if not np.all((probs >= 0.0) & (probs <= 1.0)):
                raise DataError(f"{path}:{line_no}: probability not in [0, 1]")
            mask = 0
            for i, x in enumerate(row[k:]):
                if x == "1":
                    mask |= 1 << i
                elif x != "0":
                    raise DataError(f"{path}:{line_no}: label must be 0 or 1")
            samples.append(Sample(probs, mask))
    return samples


# ----------------------------------------------------------------------
# run configuration

@dataclass
class RunConfig:
    """One sweep: controllers for every (seed, target) pair on one stream."""

    mode: str = "expected"
    cost_targets: list[float] = field(default_factory=lambda: list(DEFAULT_TARGETS))
    delta: float = 0.1
    universe: str = "ratio"
    value_kind: str = "tpc"
    cost_kind: str = "fp"
    seeds: list[int] = field(default_factory=lambda: list(range(10)))
    n_test: int = 3000
    burn_in: int = 1000
    window: int | None = None
    n_classes: int = 10
    weights: str = "mnist"
    mc_samples: int = 100

    def validate(self) -> None:
        if self.mode not in ("expected", "violation"):
            raise UsageError(f"mode must be expected|violation, got {self.mode!r}")
        if not self.cost_targets or any(not 0.0 < c <= 100.0 for c in self.cost_targets):
            raise UsageError("cost targets must lie in (0, 100]")
        if not 0.0 < self.delta < 1.0:
            raise UsageError("delta must be in (0, 1)")
        if self.universe not in ("ratio", "prob", "value", "full"):
            raise UsageError(f"unknown universe kind {self.universe!r}")
        if not 1 <= self.n_classes <= MAX_CLASSES:
            raise UsageError(f"n_classes must be in [1, {MAX_CLASSES}], got {self.n_classes}")
        if self.universe == "full" and self.n_classes > FULL_UNIVERSE_MAX_CLASSES:
            raise UsageError(f"full universe needs n_classes <= {FULL_UNIVERSE_MAX_CLASSES}")
        if self.value_kind not in ("tp", "tpc", "gen"):
            raise UsageError(f"unknown value kind {self.value_kind!r}")
        if self.cost_kind not in ("fp", "fpc"):
            raise UsageError(f"unknown cost kind {self.cost_kind!r}")
        if not self.seeds:
            raise UsageError("at least one seed is required")
        if self.n_test <= 0 or self.burn_in < 0 or self.burn_in >= self.n_test:
            raise UsageError("need 0 <= burn_in < n_test")
        if self.window is not None and self.window < 1:
            raise UsageError("window must be >= 1")
        if self.mc_samples < 1:
            raise UsageError(f"mc_samples must be >= 1, got {self.mc_samples}")


def load_run_config(path=None, overrides: dict | None = None) -> RunConfig:
    cfg = RunConfig()
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read run config {path}: {exc}") from None
        known = {f.name for f in fields(RunConfig)}
        unknown = set(raw) - known
        if unknown:
            raise UsageError(f"unknown run-config keys: {sorted(unknown)}")
        cfg = replace(cfg, **raw)
    if overrides:
        cfg = replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    cfg.validate()
    return cfg


def class_weights(cfg: RunConfig) -> np.ndarray | None:
    """The run's class weights, or None when no kind is weighted; reads a weights CSV."""
    if cfg.value_kind != "tpc" and cfg.cost_kind != "fpc":
        return None
    if cfg.weights == "mnist":
        return mnist_weights(cfg.n_classes)
    try:
        return load_weights_csv(cfg.weights, cfg.n_classes)
    except ValueError as exc:
        raise DataError(f"{cfg.weights}: {exc}") from None


def build_specs(
    cfg: RunConfig, mc_seed: int = 0, weights: np.ndarray | None = None
) -> tuple[SetFunctionSpec, SetFunctionSpec]:
    """The run's value and cost specs; ``weights`` defaults to :func:`class_weights`."""
    if weights is None:
        weights = class_weights(cfg)
    value_w = weights if cfg.value_kind == "tpc" else None
    cost_w = weights if cfg.cost_kind == "fpc" else None
    value_spec = SetFunctionSpec(
        cfg.value_kind, cfg.n_classes, value_w, mc_samples=cfg.mc_samples, mc_seed=mc_seed
    )
    cost_spec = SetFunctionSpec(cfg.cost_kind, cfg.n_classes, cost_w)
    return value_spec, cost_spec


# ----------------------------------------------------------------------
# metrics

@dataclass
class MetricsRow:
    """Per-(seed, target) outcome over the post-burn-in predictions."""

    seed: int
    target_cost: float
    n_predictions: int
    mean_value: float
    excess_cost: float
    violation_frequency: float
    mean_update_seconds: float

    def __post_init__(self):
        if not 0.0 <= self.violation_frequency <= 1.0:
            raise ValueError("violation frequency must be in [0, 1]")


@dataclass
class PredictionLogRow:
    seed: int
    target_cost: float
    index: int
    prediction: int
    value: float
    cost: float


def run_single(
    cfg: RunConfig, samples: list[Sample], seed: int, target: float, weights: np.ndarray | None
) -> tuple[MetricsRow, list[PredictionLogRow]]:
    """Stream one slice through one controller; aggregate its predictions."""
    value_spec, cost_spec = build_specs(cfg, mc_seed=seed, weights=weights)
    ctrl = CostController(
        cfg.mode,
        target,
        value_spec,
        cost_spec,
        universe_kind=cfg.universe,
        delta=cfg.delta,
        burn_in=cfg.burn_in,
        window=cfg.window,
    )
    values = []
    costs = []
    violations = 0
    elapsed = 0.0
    log = []
    for idx, sample in enumerate(samples):
        out = ctrl.step(sample)
        elapsed += out.elapsed_s
        if out.prediction is None:
            continue
        values.append(out.realized_value)
        costs.append(out.realized_cost)
        violations += out.realized_cost > target
        log.append(
            PredictionLogRow(seed, target, idx, out.prediction, out.realized_value, out.realized_cost)
        )
    n_pred = len(values)
    return (
        MetricsRow(
            seed,
            target,
            n_pred,
            float(np.mean(values)) if n_pred else 0.0,
            float(np.mean(costs) - target) if n_pred else 0.0,
            violations / n_pred if n_pred else 0.0,
            elapsed / len(samples) if samples else 0.0,
        ),
        log,
    )


def slice_stream(cfg: RunConfig, samples: list[Sample]) -> list[list[Sample]]:
    """Disjoint contiguous n_test-sized chunks, one per configured seed."""
    need = cfg.n_test * len(cfg.seeds)
    if len(samples) < need:
        raise DataError(
            f"stream has {len(samples)} rows, need {need} "
            f"({len(cfg.seeds)} seeds x {cfg.n_test})"
        )
    return [
        samples[i * cfg.n_test : (i + 1) * cfg.n_test] for i in range(len(cfg.seeds))
    ]


def run_experiment(
    cfg: RunConfig, samples: list[Sample], weights: np.ndarray | None = None
) -> tuple[list[MetricsRow], list[PredictionLogRow]]:
    """Run every (seed, target) pair in turn, in (seed, target) order, on
    weights resolved once."""
    if weights is None:
        weights = class_weights(cfg)
    slices = slice_stream(cfg, samples)
    jobs = [
        (seed, target, chunk)
        for seed, chunk in zip(cfg.seeds, slices)
        for target in cfg.cost_targets
    ]
    jobs.sort(key=lambda job: job[:2])
    rows = []
    log = []
    for seed, target, chunk in jobs:
        row, entries = run_single(cfg, chunk, seed, target, weights)
        rows.append(row)
        log.extend(entries)
    return rows, log


@dataclass
class AggregateRow:
    target_cost: float | str
    mean_value: float
    value_std: float
    excess_cost: float
    excess_std: float
    violation_frequency: float
    violation_std: float


def _mean_std(xs: list[float]) -> tuple[float, float]:
    mean = statistics.fmean(xs)
    std = statistics.stdev(xs) if len(xs) > 1 else 0.0
    return mean, std


def aggregate_rows(rows: list[MetricsRow]) -> list[AggregateRow]:
    """Across-seed mean and std per target, plus an overall row."""
    out = []
    targets = sorted({r.target_cost for r in rows})
    for target in targets:
        group = [r for r in rows if r.target_cost == target]
        v = _mean_std([r.mean_value for r in group])
        e = _mean_std([r.excess_cost for r in group])
        f = _mean_std([r.violation_frequency for r in group])
        out.append(AggregateRow(target, v[0], v[1], e[0], e[1], f[0], f[1]))
    v = _mean_std([r.mean_value for r in rows])
    e = _mean_std([r.excess_cost for r in rows])
    f = _mean_std([r.violation_frequency for r in rows])
    out.append(AggregateRow("all", v[0], v[1], e[0], e[1], f[0], f[1]))
    return out


def write_metrics_csv(path, rows: list[MetricsRow]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("seed,target_cost,n_predictions,mean_value,excess_cost,violation_frequency\n")
        for r in rows:
            fh.write(
                f"{r.seed},{r.target_cost!r},{r.n_predictions},"
                f"{r.mean_value!r},{r.excess_cost!r},{r.violation_frequency!r}\n"
            )


def write_timing_csv(path, rows: list[MetricsRow]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("seed,target_cost,mean_update_seconds\n")
        for r in rows:
            fh.write(f"{r.seed},{r.target_cost!r},{r.mean_update_seconds!r}\n")


def write_aggregate_csv(path, aggs: list[AggregateRow]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(
            "target_cost,mean_value,value_std,excess_cost,excess_std,"
            "violation_frequency,violation_std\n"
        )
        for a in aggs:
            fh.write(
                f"{a.target_cost},{a.mean_value!r},{a.value_std!r},"
                f"{a.excess_cost!r},{a.excess_std!r},"
                f"{a.violation_frequency!r},{a.violation_std!r}\n"
            )


def write_log_csv(path, log: list[PredictionLogRow]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("seed,target_cost,index,prediction,value,cost\n")
        for r in log:
            fh.write(
                f"{r.seed},{r.target_cost!r},{r.index},{r.prediction},"
                f"{r.value!r},{r.cost!r}\n"
            )


def check_assertions(cfg: RunConfig, aggs: list[AggregateRow]) -> list[str]:
    """CI bands: per-target excess cost within [-0.6, +0.3] (expected mode);
    overall violation frequency within delta +/- 1.5 points (violation)."""
    failures = []
    if cfg.mode == "expected":
        for a in aggs:
            if a.target_cost == "all":
                continue
            if not -0.6 <= a.excess_cost <= 0.3:
                failures.append(
                    f"excess cost {a.excess_cost:+.3f} at target {a.target_cost} "
                    f"outside [-0.6, +0.3]"
                )
    else:
        overall = next(a for a in aggs if a.target_cost == "all")
        lo, hi = cfg.delta - 0.015, cfg.delta + 0.015
        if not lo <= overall.violation_frequency <= hi:
            failures.append(
                f"violation frequency {overall.violation_frequency:.4f} outside "
                f"[{lo:.4f}, {hi:.4f}]"
            )
    return failures


# ----------------------------------------------------------------------
# oracle check

@dataclass
class OracleCheckReport:
    checked: int = 0
    matches: int = 0
    boundary_skips: int = 0
    mismatches: int = 0
    examples: list[str] = field(default_factory=list)


def oracle_check_run(
    cfg: RunConfig,
    samples: list[Sample],
    checkpoints: int = 10,
    weights: np.ndarray | None = None,
) -> OracleCheckReport:
    """Run the tree and the direct search side by side on one stream slice."""
    value_spec, cost_spec = build_specs(cfg, mc_seed=cfg.seeds[0], weights=weights)
    target = cfg.cost_targets[0]
    ctrl = CostController(
        cfg.mode,
        target,
        value_spec,
        cost_spec,
        universe_kind=cfg.universe,
        delta=cfg.delta,
        burn_in=0,
        window=cfg.window,
    )
    chunk = samples[: cfg.n_test]
    every = max(1, len(chunk) // max(1, checkpoints))
    report = OracleCheckReport()
    for i, sample in enumerate(chunk):
        ctrl.observe(sample)
        if (i + 1) % every == 0:
            tree_t, oracle_t, status = threshold_comparison(ctrl)
            report.checked += 1
            if status == "match":
                report.matches += 1
            elif status == "boundary":
                report.boundary_skips += 1
            else:
                report.mismatches += 1
                if len(report.examples) < 5:
                    report.examples.append(
                        f"n={ctrl.n_seen}: tree={tree_t!r} oracle={oracle_t!r}"
                    )
    return report


# ----------------------------------------------------------------------
# benchmark

@dataclass
class BenchPoint:
    method: str
    n: int
    per_update_seconds: float | None  # None marks did-not-finish

    @property
    def status(self) -> str:
        return "ok" if self.per_update_seconds is not None else "dnf"


def bench_tree(n_grid, inserts_per_update=1, reps=50, seed=0) -> list[BenchPoint]:
    """Per-update latency of the tree route at each stream length: a fixed
    number of inserts plus one quantile query."""
    rng = np.random.default_rng(seed)
    tree = QuantileTree()
    points = []
    current = 0

    def update():
        for _ in range(inserts_per_update):
            tree.insert(float(rng.uniform(0.0, 100.0)), float(rng.uniform(0.1, 1.0)))
        tree.query_quantile(float(rng.uniform(0.5, 1.0)))

    for n in sorted(n_grid):
        while current < n - reps:
            update()
            current += 1
        t0 = time.perf_counter()
        for _ in range(reps):
            update()
        points.append(BenchPoint("tree", n, (time.perf_counter() - t0) / reps))
        current = n
    return points


def bench_oracle(
    n_grid, inserts_per_update=1, reps=3, seed=0, budget_s=2.0
) -> list[BenchPoint]:
    """Per-update latency of the direct-search route: each update appends a
    record and re-runs the sup-search over all stored mass. Updates beyond
    the wall-clock budget are marked did-not-finish."""
    rng = np.random.default_rng(seed)
    records: list[SampleRecord] = []
    points = []
    blown = False

    def new_record():
        m = inserts_per_update + 1
        proxies = np.concatenate(([0.0], np.sort(rng.uniform(0.1, 99.0, size=m - 1))))
        costs = np.concatenate(([0.0], rng.uniform(0.0, 100.0, size=m - 1)))
        return SampleRecord(proxies, np.maximum.accumulate(costs))

    for n in sorted(n_grid):
        if blown:
            points.append(BenchPoint("oracle", n, None))
            continue
        while len(records) < n - reps:
            records.append(new_record())
        t0 = time.perf_counter()
        for _ in range(reps):
            records.append(new_record())
            oracle_threshold_expected(records, 30.0, 100.0)
        per_update = (time.perf_counter() - t0) / reps
        if per_update > budget_s:
            points.append(BenchPoint("oracle", n, None))
            blown = True
        else:
            points.append(BenchPoint("oracle", n, per_update))
    return points


def write_bench_csv(path, points: list[BenchPoint]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("method,n,per_update_seconds,status\n")
        for p in points:
            t = "" if p.per_update_seconds is None else repr(p.per_update_seconds)
            fh.write(f"{p.method},{p.n},{t},{p.status}\n")


def fit_loglog_exponent(points: list[BenchPoint]) -> float | None:
    xs = [p.n for p in points if p.per_update_seconds]
    ys = [p.per_update_seconds for p in points if p.per_update_seconds]
    if len(xs) < 2:
        return None
    slope, _ = np.polyfit(np.log(xs), np.log(ys), 1)
    return float(slope)


# ----------------------------------------------------------------------
# argument parsing and entry point

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="costcap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic stream CSV")
    gen.add_argument("--config", help="GeneratorConfig JSON file")
    gen.add_argument("--n", type=int)
    gen.add_argument("--classes", type=int, dest="n_classes")
    gen.add_argument("--base-rate", type=float, dest="base_rate")
    gen.add_argument("--heterogeneity", type=float)
    gen.add_argument("--miscalibration", type=float)
    gen.add_argument("--seed", type=int)
    gen.add_argument("--out", required=True)

    def add_run_flags(p):
        p.add_argument("--config", help="RunConfig JSON file")
        p.add_argument("--mode", choices=["expected", "violation"])
        p.add_argument("--targets", help="comma-separated cost targets")
        p.add_argument("--delta", type=float)
        p.add_argument("--universe", choices=["ratio", "prob", "value", "full"])
        p.add_argument("--value-kind", choices=["tp", "tpc", "gen"], dest="value_kind")
        p.add_argument("--cost-kind", choices=["fp", "fpc"], dest="cost_kind")
        p.add_argument("--seeds", help="comma-separated seed list")
        p.add_argument("--n-test", type=int, dest="n_test")
        p.add_argument("--burn-in", type=int, dest="burn_in")
        p.add_argument("--window", type=int)
        p.add_argument("--classes", type=int, dest="n_classes")
        p.add_argument("--weights", help="'mnist' or a class-weight CSV path")
        p.add_argument("--mc-samples", type=int, dest="mc_samples")

    run = sub.add_parser("run", help="stream controllers over (seed, target) pairs")
    add_run_flags(run)
    run.add_argument("--stream", required=True, help="stream CSV path")
    run.add_argument("--out", required=True, help="metrics CSV path")
    run.add_argument("--log", help="optional per-prediction log CSV")
    run.add_argument(
        "--assert",
        dest="do_assert",
        action="store_true",
        help="exit 3 unless control bands hold",
    )

    check = sub.add_parser("oracle-check", help="tree vs direct-search thresholds")
    add_run_flags(check)
    check.add_argument("--stream", required=True)
    check.add_argument("--checkpoints", type=int, default=10)
    check.add_argument("--out", help="optional report CSV")

    bench = sub.add_parser("bench", help="per-update latency scaling")
    bench.add_argument("--n-grid", default="1000,10000,100000,1000000")
    bench.add_argument("--inserts-per-update", type=int, default=1)
    bench.add_argument("--reps", type=int, default=50)
    bench.add_argument("--oracle-reps", type=int, default=3)
    bench.add_argument("--budget-s", type=float, default=2.0)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--out", required=True)
    return parser


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise UsageError(f"bad {what} list: {text!r}") from None


def _parse_float_list(text: str, what: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise UsageError(f"bad {what} list: {text!r}") from None


def _run_config_from_args(args) -> RunConfig:
    overrides = {
        "mode": args.mode,
        "delta": args.delta,
        "universe": args.universe,
        "value_kind": args.value_kind,
        "cost_kind": args.cost_kind,
        "n_test": args.n_test,
        "burn_in": args.burn_in,
        "window": args.window,
        "n_classes": args.n_classes,
        "weights": args.weights,
        "mc_samples": args.mc_samples,
    }
    if args.targets is not None:
        overrides["cost_targets"] = _parse_float_list(args.targets, "target")
    if args.seeds is not None:
        overrides["seeds"] = _parse_int_list(args.seeds, "seed")
    return load_run_config(args.config, overrides)


def _cmd_generate(args) -> int:
    settings = {}
    if args.config:
        try:
            settings = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read generator config: {exc}") from None
    for key in ("n", "n_classes", "base_rate", "heterogeneity", "miscalibration", "seed"):
        val = getattr(args, key, None)
        if val is not None:
            settings[key] = val
    if "n" not in settings:
        raise UsageError("generate needs --n or a config with n")
    try:
        config = GeneratorConfig(**settings)
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from None
    write_stream_csv(args.out, generate(config))
    print(f"wrote {settings['n']} samples to {args.out}")
    return EXIT_OK


def _read_run_stream(cfg: RunConfig, path) -> list[Sample]:
    """The stream CSV at ``path``; a class count other than the config's is a
    data error."""
    samples = read_stream_csv(path)
    if samples and samples[0].n_classes != cfg.n_classes:
        raise DataError(
            f"stream has {samples[0].n_classes} classes, config says {cfg.n_classes}"
        )
    return samples


def _cmd_run(args) -> int:
    cfg = _run_config_from_args(args)
    weights = class_weights(cfg)
    samples = _read_run_stream(cfg, args.stream)
    rows, log = run_experiment(cfg, samples, weights)
    aggs = aggregate_rows(rows)
    out = Path(args.out)
    write_metrics_csv(out, rows)
    write_timing_csv(out.with_name(out.stem + "_timing.csv"), rows)
    write_aggregate_csv(out.with_name(out.stem + "_aggregate.csv"), aggs)
    if args.log:
        write_log_csv(args.log, log)
    for a in aggs:
        label = f"c={a.target_cost}" if a.target_cost != "all" else "overall"
        print(
            f"{label}: value {a.mean_value:.2f}±{a.value_std:.2f}  "
            f"excess {a.excess_cost:+.3f}±{a.excess_std:.3f}  "
            f"violation {100 * a.violation_frequency:.2f}±{100 * a.violation_std:.2f}%"
        )
    if args.do_assert:
        failures = check_assertions(cfg, aggs)
        if failures:
            for f in failures:
                print(f"ASSERT FAIL: {f}", file=sys.stderr)
            return EXIT_ASSERT
        print("asserts passed")
    return EXIT_OK


def _cmd_oracle_check(args) -> int:
    cfg = _run_config_from_args(args)
    weights = class_weights(cfg)
    samples = _read_run_stream(cfg, args.stream)
    report = oracle_check_run(cfg, samples, checkpoints=args.checkpoints, weights=weights)
    print(
        f"checked {report.checked} checkpoints: {report.matches} matches, "
        f"{report.boundary_skips} boundary skips, {report.mismatches} mismatches"
    )
    for ex in report.examples:
        print(f"  mismatch {ex}")
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write("checked,matches,boundary_skips,mismatches\n")
            fh.write(
                f"{report.checked},{report.matches},"
                f"{report.boundary_skips},{report.mismatches}\n"
            )
    return EXIT_OK


def _cmd_bench(args) -> int:
    grid = _parse_int_list(args.n_grid, "n-grid")
    if not grid:
        raise UsageError("empty n-grid")
    tree_points = bench_tree(
        grid, inserts_per_update=args.inserts_per_update, reps=args.reps, seed=args.seed
    )
    oracle_points = bench_oracle(
        grid,
        inserts_per_update=args.inserts_per_update,
        reps=args.oracle_reps,
        seed=args.seed,
        budget_s=args.budget_s,
    )
    points = tree_points + oracle_points
    write_bench_csv(args.out, points)
    for p in points:
        shown = "DNF" if p.per_update_seconds is None else f"{p.per_update_seconds * 1e6:.1f}us"
        print(f"{p.method} n={p.n}: {shown}")
    tree_slope = fit_loglog_exponent(tree_points)
    oracle_slope = fit_loglog_exponent(oracle_points)
    if tree_slope is not None:
        print(f"tree log-log slope: {tree_slope:.3f}")
    if oracle_slope is not None:
        print(f"oracle log-log slope: {oracle_slope:.3f}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "oracle-check":
            return _cmd_oracle_check(args)
        return _cmd_bench(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
