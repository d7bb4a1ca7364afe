"""Experiment harness: generate streams, run controllers across cost targets
and seeds, cross-check tree thresholds against the direct search, and
benchmark per-update latency.

Subcommands: generate, run, oracle-check, bench. Exit codes: 0 success,
1 usage/config error, 2 data error, 3 assertion failure (``run --assert``,
or an ``oracle-check`` that finds a mismatch).
A sweep streams each seed's slice once, in seed order, through one
controller that serves every cost target; metrics rows and the prediction
log come out in (seed, target) order, one per configured target.

Stream CSV format: header ``p_0..p_{K-1}, y_0..y_{K-1}``, exactly those
names in that order; probabilities as decimal text with 9 digits, labels
as 0/1.
"""

from __future__ import annotations

import argparse
import csv
import json
import statistics
import sys
import time
from dataclasses import dataclass, field, fields
from operator import attrgetter, itemgetter
from pathlib import Path

import numpy as np

from .controller import (
    MODES,
    CostController,
    RecordStore,
    oracle_threshold_expected,
    threshold_comparison,
)
from .quantile_tree import QuantileTree
from .set_functions import (
    COST_KINDS,
    MAX_CLASSES,
    NORMALIZED_BOUND,
    VALUE_KINDS,
    Sample,
    SetFunctionSpec,
    load_weights_csv,
)
from .synth import GeneratorConfig, generate, mnist_weights
from .universe import FULL_UNIVERSE_MAX_CLASSES, UNIVERSE_KINDS

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
# CSV files

def write_csv(path, header, rows) -> None:
    """A header line and one line per row, fields joined by commas: a string
    as it is, a float by ``repr``, ``None`` as an empty field."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _stream_header(k: int) -> list[str]:
    """The column names of a K-class stream: ``p_0..p_{K-1},y_0..y_{K-1}``."""
    return [f"p_{i}" for i in range(k)] + [f"y_{i}" for i in range(k)]


def write_stream_csv(path, samples: list[Sample]) -> None:
    k = samples[0].n_classes if samples else 0
    write_csv(path, _stream_header(k), (
        [f"{p:.9f}" for p in s.probs] + [(s.labels >> i) & 1 for i in range(k)]
        for s in samples
    ))


def read_stream_csv(path) -> list[Sample]:
    samples = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty stream file") from None
        k = len(header) // 2
        if k == 0 or header != _stream_header(k):
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

def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass
class RunConfig:
    """One sweep on one stream: a slice per seed, every target on each slice."""

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

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        for name in ("n_test", "burn_in", "n_classes", "mc_samples", "window"):
            value = getattr(self, name)
            if not (_is_int(value) or (name == "window" and value is None)):
                raise UsageError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.seeds, list) or not all(_is_int(s) for s in self.seeds):
            raise UsageError(f"seeds must be a list of integers, got {self.seeds!r}")
        if not isinstance(self.cost_targets, list) or not all(
            _is_real(c) for c in self.cost_targets
        ):
            raise UsageError(f"cost targets must be a list of numbers, got {self.cost_targets!r}")
        if not _is_real(self.delta):
            raise UsageError(f"delta must be a number, got {self.delta!r}")
        if self.mode not in MODES:
            raise UsageError(f"mode must be {'|'.join(MODES)}, got {self.mode!r}")
        if not self.cost_targets or any(
            not 0.0 < c <= NORMALIZED_BOUND for c in self.cost_targets
        ):
            raise UsageError(f"cost targets must lie in (0, {NORMALIZED_BOUND:g}]")
        if not 0.0 < self.delta < 1.0:
            raise UsageError("delta must be in (0, 1)")
        if self.universe not in UNIVERSE_KINDS:
            raise UsageError(f"unknown universe kind {self.universe!r}")
        if not 1 <= self.n_classes <= MAX_CLASSES:
            raise UsageError(f"n_classes must be in [1, {MAX_CLASSES}], got {self.n_classes}")
        if self.universe == "full" and self.n_classes > FULL_UNIVERSE_MAX_CLASSES:
            raise UsageError(f"full universe needs n_classes <= {FULL_UNIVERSE_MAX_CLASSES}")
        if self.value_kind not in VALUE_KINDS:
            raise UsageError(f"unknown value kind {self.value_kind!r}")
        if self.cost_kind not in COST_KINDS:
            raise UsageError(f"unknown cost kind {self.cost_kind!r}")
        if not self.seeds:
            raise UsageError("at least one seed is required")
        if len(set(self.seeds)) != len(self.seeds):
            raise UsageError(f"seeds must be distinct, got {self.seeds}")
        if self.n_test <= 0 or self.burn_in < 0 or self.burn_in >= self.n_test:
            raise UsageError("need 0 <= burn_in < n_test")
        if self.window is not None and self.window < 1:
            raise UsageError("window must be >= 1")
        if self.mc_samples < 1:
            raise UsageError(f"mc_samples must be >= 1, got {self.mc_samples}")
        if not isinstance(self.weights, str):
            raise UsageError(f"weights must be 'mnist' or a CSV path, got {self.weights!r}")


def load_config(cls, path, flags: dict):
    """A ``cls`` dataclass from the JSON object at ``path`` (none when
    ``path`` is None) with the non-None ``flags`` laid over it; a file that
    cannot be read, an unknown key or a config ``cls`` rejects is a usage
    error."""
    settings = {}
    if path is not None:
        try:
            settings = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {path}: {exc}") from None
        if not isinstance(settings, dict):
            raise UsageError(f"config {path} must be a JSON object, got {settings!r}")
        unknown = set(settings) - {f.name for f in fields(cls)}
        if unknown:
            raise UsageError(f"unknown config keys in {path}: {sorted(unknown)}")
    settings.update((name, value) for name, value in flags.items() if value is not None)
    try:
        return cls(**settings)
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from None


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


def build_controller(
    cfg: RunConfig,
    targets: list[float],
    seed: int,
    weights: np.ndarray | None,
    burn_in: int,
) -> CostController:
    """The run's controller for ``targets``, its Monte-Carlo draws seeded by
    ``seed``."""
    value_spec, cost_spec = build_specs(cfg, mc_seed=seed, weights=weights)
    return CostController(
        cfg.mode,
        targets,
        value_spec,
        cost_spec,
        universe_kind=cfg.universe,
        delta=cfg.delta,
        burn_in=burn_in,
        window=cfg.window,
    )


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


class PredictionLog:
    """A sweep's per-prediction log as arrays: one block per (seed, target)
    row, in row order. Iterating yields :class:`PredictionLogRow` in
    (seed, target, index) order."""

    def __init__(self) -> None:
        # (seed, target, index, prediction, value, cost); the int64 index
        # array is shared by a slice's blocks
        self.blocks: list[tuple[int, float, np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []

    def __len__(self) -> int:
        return sum(len(block[2]) for block in self.blocks)

    def __iter__(self):
        for seed, target, index, prediction, value, cost in self.blocks:
            for row in zip(index.tolist(), prediction.tolist(), value.tolist(), cost.tolist()):
                yield PredictionLogRow(seed, target, *row)


def run_single(
    cfg: RunConfig,
    samples: list[Sample],
    seed: int,
    targets: list[float],
    weights: np.ndarray | None,
) -> tuple[list[MetricsRow], PredictionLog]:
    """Stream one slice through one controller for every target; one metrics
    row and one log block per target, in the given target order. Each row's
    update time is the slice's step time divided by the number of targets."""
    ctrl = build_controller(cfg, targets, seed, weights, cfg.burn_in)
    # every target predicts at the same steps, the first n of the columns. A
    # controller predicts once more than burn_in records are live, from step
    # burn_in + 1 on (a window holds more than burn_in), so the columns are
    # sized for those steps: the log's views keep no burn-in columns alive
    shape = (len(targets), max(len(samples) - cfg.burn_in - 1, 0))
    predictions = np.zeros(shape, dtype=np.uint64)
    values = np.zeros(shape)
    costs = np.zeros(shape)
    index = np.zeros(shape[1], dtype=np.int64)
    n = 0
    elapsed = 0.0
    for idx, sample in enumerate(samples):
        outs = ctrl.step_all(sample)
        elapsed += outs[0].elapsed_s
        if outs[0].prediction is None:
            continue
        index[n] = idx
        for j, out in enumerate(outs):
            predictions[j, n] = out.prediction
            values[j, n] = out.realized_value
            costs[j, n] = out.realized_cost
        n += 1
    rows = []
    log = PredictionLog()
    for j, target in enumerate(targets):
        row_values, row_costs = values[j, :n], costs[j, :n]
        rows.append(
            MetricsRow(
                seed,
                target,
                n,
                float(np.mean(row_values)) if n else 0.0,
                float(np.mean(row_costs) - target) if n else 0.0,
                int(np.count_nonzero(row_costs > target)) / n if n else 0.0,
                elapsed / len(samples) if samples else 0.0,
            )
        )
        log.blocks.append((seed, target, index[:n], predictions[j, :n], row_values, row_costs))
    # free the trees now rather than at the next cyclic collection, while
    # the next slice builds its own
    for tree in ctrl.trees:
        tree.clear()
    return rows, log


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
) -> tuple[list[MetricsRow], PredictionLog]:
    """Stream each seed's slice through one controller for all targets, on
    weights resolved once; rows and log blocks come in (seed, target) order,
    one per configured target (duplicates included)."""
    if weights is None:
        weights = class_weights(cfg)
    targets = sorted(cfg.cost_targets)
    rows = []
    log = PredictionLog()
    for seed, chunk in sorted(zip(cfg.seeds, slice_stream(cfg, samples)), key=lambda job: job[0]):
        slice_rows, slice_log = run_single(cfg, chunk, seed, targets, weights)
        rows.extend(slice_rows)
        log.blocks.extend(slice_log.blocks)
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
    """Across-seed mean and std per target, plus an overall row, over the
    distinct (seed, target) rows: a target listed twice counts once."""
    distinct = list({(r.seed, r.target_cost): r for r in rows}.values())
    groups: dict[float, list[MetricsRow]] = {}
    for r in distinct:
        groups.setdefault(r.target_cost, []).append(r)
    out = []
    for target, group in [*sorted(groups.items(), key=itemgetter(0)), ("all", distinct)]:
        stats = []
        for name in ("mean_value", "excess_cost", "violation_frequency"):
            stats.extend(_mean_std([getattr(r, name) for r in group]))
        out.append(AggregateRow(target, *stats))
    return out


def write_metrics_csv(path, rows: list[MetricsRow]) -> None:
    names = ("seed", "target_cost", "n_predictions", "mean_value", "excess_cost",
             "violation_frequency")
    write_csv(path, names, map(attrgetter(*names), rows))


def write_timing_csv(path, rows: list[MetricsRow]) -> None:
    names = ("seed", "target_cost", "mean_update_seconds")
    write_csv(path, names, map(attrgetter(*names), rows))


def write_aggregate_csv(path, aggs: list[AggregateRow]) -> None:
    names = [f.name for f in fields(AggregateRow)]
    write_csv(path, names, map(attrgetter(*names), aggs))


def write_log_csv(path, log: PredictionLog) -> None:
    names = [f.name for f in fields(PredictionLogRow)]
    write_csv(path, names, map(attrgetter(*names), log))


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
    """Run the tree and the direct search side by side on one stream slice:
    one controller for every target, each target checked at each checkpoint,
    so ``checked`` counts (checkpoint, target) pairs. A stream shorter than
    the one ``n_test`` slice it reads is a data error."""
    if len(samples) < cfg.n_test:
        raise DataError(f"stream has {len(samples)} rows, need n_test = {cfg.n_test}")
    ctrl = build_controller(cfg, cfg.cost_targets, cfg.seeds[0], weights, 0)
    chunk = samples[: cfg.n_test]
    every = max(1, len(chunk) // max(1, checkpoints))
    report = OracleCheckReport()
    for i, sample in enumerate(chunk):
        ctrl.observe(sample)
        if (i + 1) % every:
            continue
        for index, target in enumerate(ctrl.targets):
            tree_t, oracle_t, status = threshold_comparison(ctrl, index)
            report.checked += 1
            if status == "match":
                report.matches += 1
            elif status == "boundary":
                report.boundary_skips += 1
            else:
                report.mismatches += 1
                if len(report.examples) < 5:
                    report.examples.append(
                        f"n={ctrl.n_seen} c={target!r}: tree={tree_t!r} oracle={oracle_t!r}"
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


def bench_tree(n_grid, reps=50, seed=0) -> list[BenchPoint]:
    """Per-update latency of the tree route at each stream length: one
    insert plus one quantile query."""
    rng = np.random.default_rng(seed)
    tree = QuantileTree()
    points = []
    current = 0

    def update():
        tree.insert(float(rng.uniform(0.0, NORMALIZED_BOUND)), float(rng.uniform(0.1, 1.0)))
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


def bench_oracle(n_grid, reps=3, seed=0, budget_s=2.0) -> list[BenchPoint]:
    """Per-update latency of the direct-search route: each update appends a
    record of one mass point and re-runs the sup-search over all stored
    mass. Updates beyond the wall-clock budget are marked did-not-finish."""
    rng = np.random.default_rng(seed)
    records = RecordStore(2)
    points = []
    blown = False

    def add_record():
        records.append([0.0, rng.uniform(0.1, 99.0)], [0.0, rng.uniform(0.0, NORMALIZED_BOUND)])

    for n in sorted(n_grid):
        if blown:
            points.append(BenchPoint("oracle", n, None))
            continue
        while len(records) < n - reps:
            add_record()
        t0 = time.perf_counter()
        for _ in range(reps):
            add_record()
            oracle_threshold_expected(records, 30.0, NORMALIZED_BOUND)
        per_update = (time.perf_counter() - t0) / reps
        if per_update > budget_s:
            points.append(BenchPoint("oracle", n, None))
            blown = True
        else:
            points.append(BenchPoint("oracle", n, per_update))
    return points


def write_bench_csv(path, points: list[BenchPoint]) -> None:
    names = ("method", "n", "per_update_seconds", "status")
    write_csv(path, names, map(attrgetter(*names), points))


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


def _comma_list(item):
    """An argparse ``type`` for a comma-separated list of ``item`` values;
    empty entries are skipped."""

    def parse(text: str) -> list:
        return [item(x) for x in text.split(",") if x.strip()]

    parse.__name__ = f"{item.__name__} list"  # argparse names it in errors
    return parse


def _build_parser() -> _Parser:
    parser = _Parser(prog="costcap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # each config flag's dest is the GeneratorConfig or RunConfig field it sets
    gen = sub.add_parser("generate", help="write a synthetic stream CSV")
    gen.add_argument("--config", help="GeneratorConfig JSON file")
    gen.add_argument("--n", type=int)
    gen.add_argument("--classes", type=int, dest="n_classes")
    gen.add_argument("--base-rate", type=float)
    gen.add_argument("--heterogeneity", type=float)
    gen.add_argument("--miscalibration", type=float)
    gen.add_argument("--seed", type=int)
    gen.add_argument("--out", required=True)

    def add_run_flags(p):
        p.add_argument("--config", help="RunConfig JSON file")
        p.add_argument("--mode", choices=MODES)
        p.add_argument("--targets", type=_comma_list(float), dest="cost_targets",
                       metavar="TARGETS", help="comma-separated cost targets")
        p.add_argument("--delta", type=float)
        p.add_argument("--universe", choices=UNIVERSE_KINDS)
        p.add_argument("--value-kind", choices=VALUE_KINDS)
        p.add_argument("--cost-kind", choices=COST_KINDS)
        p.add_argument("--seeds", type=_comma_list(int), help="comma-separated seed list")
        p.add_argument("--n-test", type=int)
        p.add_argument("--burn-in", type=int)
        p.add_argument("--window", type=int)
        p.add_argument("--classes", type=int, dest="n_classes")
        p.add_argument("--weights", help="'mnist' or a class-weight CSV path")
        p.add_argument("--mc-samples", type=int)

    run = sub.add_parser("run", help="stream each seed's slice over every cost target")
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
    bench.add_argument("--n-grid", type=_comma_list(int), default="1000,10000,100000,1000000")
    bench.add_argument("--reps", type=int, default=50)
    bench.add_argument("--oracle-reps", type=int, default=3)
    bench.add_argument("--budget-s", type=float, default=2.0)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--out", required=True)
    return parser


def _config_from_args(cls, args):
    """A ``cls`` from ``--config`` and the flags named by its fields."""
    return load_config(cls, args.config, {f.name: getattr(args, f.name) for f in fields(cls)})


def _cmd_generate(args) -> int:
    config = _config_from_args(GeneratorConfig, args)
    write_stream_csv(args.out, generate(config))
    print(f"wrote {config.n} samples to {args.out}")
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
    cfg = _config_from_args(RunConfig, args)
    if cfg.window is not None and cfg.window <= cfg.burn_in:
        # oracle-check calibrates from burn_in 0, so only run needs this
        raise UsageError(f"window ({cfg.window}) must exceed burn_in ({cfg.burn_in}) to ever predict")
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
    if args.checkpoints < 1:
        raise UsageError(f"--checkpoints must be >= 1, got {args.checkpoints}")
    args.burn_in = 0  # oracle_check_run calibrates from burn-in 0: validate that
    cfg = _config_from_args(RunConfig, args)
    weights = class_weights(cfg)
    samples = _read_run_stream(cfg, args.stream)
    report = oracle_check_run(cfg, samples, checkpoints=args.checkpoints, weights=weights)
    print(
        f"checked {report.checked} (checkpoint, target) pairs: {report.matches} matches, "
        f"{report.boundary_skips} boundary skips, {report.mismatches} mismatches"
    )
    for ex in report.examples:
        print(f"  mismatch {ex}")
    if args.out:
        names = ("checked", "matches", "boundary_skips", "mismatches")
        write_csv(args.out, names, [attrgetter(*names)(report)])
    return EXIT_ASSERT if report.mismatches else EXIT_OK


def _cmd_bench(args) -> int:
    if not args.n_grid:
        raise UsageError("empty n-grid")
    if min(args.n_grid) < 1:
        raise UsageError(f"--n-grid entries must be >= 1, got {args.n_grid}")
    if len(set(args.n_grid)) < len(args.n_grid):
        raise UsageError(f"--n-grid entries must be distinct, got {args.n_grid}")
    for flag, reps in (("--reps", args.reps), ("--oracle-reps", args.oracle_reps)):
        if reps < 1:
            raise UsageError(f"{flag} must be >= 1, got {reps}")
    tree_points = bench_tree(args.n_grid, reps=args.reps, seed=args.seed)
    oracle_points = bench_oracle(
        args.n_grid, reps=args.oracle_reps, seed=args.seed, budget_s=args.budget_s
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
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
