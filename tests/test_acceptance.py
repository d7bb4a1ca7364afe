"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Budgets and tolerance bands are fixed here, not tuned at runtime.
"""

import math
import time

import numpy as np
import pytest

from costcap.cli import (
    RunConfig,
    aggregate_rows,
    bench_oracle,
    bench_tree,
    fit_loglog_exponent,
    run_experiment,
)
from costcap.controller import (
    CostController,
    SampleRecord,
    classwise_predict,
    classwise_thresholds,
    threshold_comparison,
)
from costcap.quantile_tree import QuantileTree
from costcap.set_functions import SetFunctionSpec
from costcap.synth import GeneratorConfig, generate

TARGET_GRID = [float(c) for c in range(5, 51, 5)]


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, detail


def stream(seed: int, n: int = 30000):
    return generate(
        GeneratorConfig(n=n, n_classes=10, base_rate=0.4, heterogeneity=1.0, seed=seed)
    )


def random_chain_record(rng) -> SampleRecord:
    """A random record of a K = 4 chain: 5 proxy costs and running maxima."""
    m = 5
    proxies = np.concatenate(([0.0], np.sort(rng.uniform(0.05, 99.0, size=m - 1))))
    costs = np.concatenate(([0.0], rng.uniform(0.0, 100.0, size=m - 1)))
    return SampleRecord(proxies, np.maximum.accumulate(costs))


def test_criterion_1_expected_cost_guarantee():
    t0 = time.perf_counter()
    samples = stream(seed=101)
    worst = 0.0
    out_of_band = []
    for cost_kind, value_kind in (("fp", "tpc"), ("fpc", "tp")):
        cfg = RunConfig(
            mode="expected",
            cost_targets=list(TARGET_GRID),
            seeds=list(range(10)),
            n_test=3000,
            burn_in=1000,
            value_kind=value_kind,
            cost_kind=cost_kind,
        )
        rows, _ = run_experiment(cfg, samples)
        for agg in aggregate_rows(rows):
            if agg.target_cost == "all":
                continue
            if not -0.6 <= agg.excess_cost <= 0.3:
                out_of_band.append(
                    f"{cost_kind} c={agg.target_cost}: {agg.excess_cost:+.3f}"
                )
            worst = max(worst, abs(agg.excess_cost))
    elapsed = time.perf_counter() - t0
    report(
        1,
        not out_of_band and elapsed < 120.0,
        f"expected-cost control: per-target excess within [-0.6, +0.3] "
        f"(worst |excess| {worst:.3f}, out of band: {out_of_band or 'none'}) "
        f"for FP and FPC in {elapsed:.0f}s",
    )


def test_criterion_2_violation_guarantee():
    t0 = time.perf_counter()
    samples = stream(seed=102)
    freqs = []
    for cost_kind, value_kind in (("fp", "tpc"), ("fpc", "tp")):
        cfg = RunConfig(
            mode="violation",
            cost_targets=list(TARGET_GRID),
            delta=0.1,
            seeds=list(range(10)),
            n_test=3000,
            burn_in=1000,
            value_kind=value_kind,
            cost_kind=cost_kind,
        )
        rows, _ = run_experiment(cfg, samples)
        overall = aggregate_rows(rows)[-1]
        freqs.append(overall.violation_frequency)
    elapsed = time.perf_counter() - t0
    in_band = all(0.085 <= f <= 0.115 for f in freqs)
    report(
        2,
        in_band and elapsed < 120.0,
        f"violation control at delta=0.1: aggregate frequencies "
        f"{', '.join(f'{100 * f:.2f}%' for f in freqs)} within [8.5%, 11.5%] "
        f"in {elapsed:.0f}s",
    )


def test_criterion_3_tree_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3033)
    mismatches = 0
    boundaries = 0
    checked = 0
    for stream_idx in range(1000):
        mode = "expected" if stream_idx % 2 == 0 else "violation"
        target = float(rng.uniform(5.0, 80.0))
        delta = float(rng.uniform(0.05, 0.5))
        ctrl = CostController(
            mode,
            target,
            SetFunctionSpec("tp", 4),
            SetFunctionSpec("fp", 4),
            delta=delta,
            burn_in=0,
        )
        for i in range(60):
            ctrl.observe_record(random_chain_record(rng))
            if i % 6 == 5:
                _, _, status = threshold_comparison(ctrl)
                checked += 1
                if status == "mismatch":
                    mismatches += 1
                elif status == "boundary":
                    boundaries += 1
    elapsed = time.perf_counter() - t0
    report(
        3,
        mismatches == 0 and boundaries <= 2 and elapsed < 60.0,
        f"tree vs direct-search threshold: {checked} checkpoints over 1000 "
        f"streams, {mismatches} mismatches, {boundaries} boundary skips "
        f"in {elapsed:.0f}s",
    )


class ArrayCdfOracle:
    """Sorted-array weighted CDF; the independent reference for criterion 4."""

    def __init__(self):
        self.values = np.empty(0)
        self.weights = np.empty(0)

    def insert(self, v, w):
        i = np.searchsorted(self.values, v)
        if i < len(self.values) and self.values[i] == v:
            self.weights[i] += w
        else:
            self.values = np.insert(self.values, i, v)
            self.weights = np.insert(self.weights, i, w)

    def delete(self, v, w):
        i = np.searchsorted(self.values, v)
        assert self.values[i] == v
        if self.weights[i] - w <= 1e-12:
            self.values = np.delete(self.values, i)
            self.weights = np.delete(self.weights, i)
        else:
            self.weights[i] -= w

    def quantile(self, q):
        cum = np.cumsum(self.weights)
        target = q * cum[-1]
        return self.values[min(np.searchsorted(cum, target), len(cum) - 1)]

    def total(self):
        return float(self.weights.sum())


def test_criterion_4_tree_randomized_against_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    pool = np.unique(rng.uniform(0.0, 1000.0, size=4000))
    tree = QuantileTree()
    oracle = ArrayCdfOracle()
    live: dict[float, float] = {}
    n_ops = 100_000
    n_queries = 0
    for op in range(n_ops):
        r = rng.random()
        if r < 0.45 or not live:
            v = float(rng.choice(pool))
            w = float(rng.integers(1, 50))
            tree.insert(v, w)
            oracle.insert(v, w)
            live[v] = live.get(v, 0.0) + w
        elif r < 0.70:
            v = list(live)[int(rng.integers(len(live)))]
            if rng.random() < 0.5:
                w = live[v]  # full removal
            else:
                w = float(np.floor(live[v] / 2))  # integer partial decrement
                if w == 0.0:
                    w = live[v]
            tree.delete(v, w)
            oracle.delete(v, w)
            live[v] -= w
            if live[v] <= 0:
                del live[v]
        else:
            if live:
                q = float(rng.uniform(1e-9, 1.0))
                assert tree.query_quantile(q) == oracle.quantile(q), f"op {op}"
                n_queries += 1
        if op % 100 == 99:
            tree.validate()
        if op % 5000 == 0:
            assert tree.total_weight() == oracle.total()
    tree.validate()
    elapsed = time.perf_counter() - t0
    report(
        4,
        elapsed < 60.0,
        f"{n_ops} randomized tree ops, {n_queries} quantile queries all exact "
        f"vs sorted-array oracle, invariants checked every 100 ops "
        f"in {elapsed:.0f}s",
    )


def test_criterion_5_complexity_shape():
    grid = [1_000, 10_000, 100_000, 1_000_000]
    tree_points = bench_tree(grid, reps=200, seed=5)
    oracle_points = bench_oracle(grid, reps=3, seed=5, budget_s=2.0)
    tree_slope = fit_loglog_exponent(tree_points)
    oracle_slope = fit_loglog_exponent(oracle_points)
    oracle_dnf = any(p.per_update_seconds is None for p in oracle_points)
    ok = tree_slope is not None and tree_slope < 0.3 and (
        oracle_dnf or (oracle_slope is not None and oracle_slope > 0.8)
    )
    report(
        5,
        ok,
        f"per-update scaling over N=1e3..1e6: tree log-log slope "
        f"{tree_slope:.3f} (< 0.3), oracle slope "
        f"{'n/a' if oracle_slope is None else f'{oracle_slope:.3f}'} "
        f"(> 0.8){' with DNF' if oracle_dnf else ''}",
    )


def test_criterion_6_ratio_universe_dominates():
    samples = stream(seed=106, n=15000)
    per_seed = {}
    for universe in ("ratio", "prob", "value"):
        cfg = RunConfig(
            mode="expected",
            cost_targets=[10.0, 20.0, 30.0, 40.0],
            seeds=list(range(10)),
            n_test=1500,
            burn_in=500,
            value_kind="tp",
            cost_kind="fpc",
            universe=universe,
        )
        rows, _ = run_experiment(cfg, samples)
        seeds = sorted({r.seed for r in rows})
        per_seed[universe] = np.array(
            [np.mean([r.mean_value for r in rows if r.seed == s]) for s in seeds]
        )
    d_prob = float(np.mean(per_seed["ratio"] - per_seed["prob"]))
    d_value = float(np.mean(per_seed["ratio"] - per_seed["value"]))
    ok = d_prob >= -1e-9 and d_value >= -1e-9
    report(
        6,
        ok,
        f"ratio universe mean value >= prob/value universes "
        f"(paired diffs {d_prob:+.3f}, {d_value:+.3f} over 10 seeds, "
        f"V_TP with weighted-FP cost)",
    )


def test_criterion_7_classwise_conservative():
    spec = SetFunctionSpec("fp", 10)
    per_seed = []
    for seed in range(10):
        samples = stream(seed=700 + seed, n=3000)
        cal, test = samples[:1000], samples[1000:]
        excesses = []
        for c in TARGET_GRID:
            thresholds = classwise_thresholds(cal, c, spec)
            costs = [
                spec.evaluate(classwise_predict(s.probs, thresholds), s.labels)
                for s in test
            ]
            excesses.append(float(np.mean(costs)) - c)
        per_seed.append(float(np.mean(excesses)))
    arr = np.array(per_seed)
    se = arr.std(ddof=1) / math.sqrt(len(arr))
    ok = arr.mean() < -3.0 * se
    report(
        7,
        ok,
        f"ClassWise baseline conservative: mean excess {arr.mean():+.2f} "
        f"< -3 SE ({-3 * se:+.3f})",
    )


@pytest.mark.parametrize("mode", ["expected", "violation"])
def test_criterion_8_rolling_window_consistency(mode):
    samples = stream(seed=108, n=2000)
    window = 400
    value_spec = SetFunctionSpec("tp", 10)
    cost_spec = SetFunctionSpec("fp", 10)

    def make(burn=0):
        return CostController(
            mode, 30.0, value_spec, cost_spec, burn_in=0, window=window, delta=0.1
        )

    windowed = make()
    checkpoints = list(range(99, 2000, 100))
    checked = 0
    for i, sample in enumerate(samples):
        windowed.observe(sample)
        if i in checkpoints:
            fresh = make()
            for s in samples[max(0, i - window + 1) : i + 1]:
                fresh.observe(s)
            assert windowed.n_seen == fresh.n_seen
            assert windowed.threshold() == fresh.threshold(), f"checkpoint {i}"
            checked += 1
    report(
        8,
        checked == 20,
        f"rolling-window state ({mode}): thresholds identical to "
        f"rebuild-from-scratch at {checked} checkpoints",
    )


def test_criterion_9_value_cost_curve_monotone():
    samples = stream(seed=109)
    cfg = RunConfig(
        mode="expected",
        cost_targets=list(TARGET_GRID),
        seeds=list(range(10)),
        n_test=3000,
        burn_in=1000,
        value_kind="tpc",
        cost_kind="fpc",
    )
    rows, log = run_experiment(cfg, samples)
    # per-(seed, target) standard error of the mean value from the raw log
    se = {}
    values: dict[tuple[int, float], list[float]] = {}
    for entry in log:
        values.setdefault((entry.seed, entry.target_cost), []).append(entry.value)
    for key, vals in values.items():
        se[key] = np.std(vals) / math.sqrt(len(vals))
    violations = 0
    for seed in cfg.seeds:
        seq = sorted((r for r in rows if r.seed == seed), key=lambda r: r.target_cost)
        for a, b in zip(seq, seq[1:]):
            noise = math.hypot(se[(seed, a.target_cost)], se[(seed, b.target_cost)])
            if b.mean_value < a.mean_value - noise:
                violations += 1
    report(
        9,
        violations == 0,
        f"realized value non-decreasing in target cost per seed "
        f"({violations} violations beyond 1 SE across "
        f"{len(cfg.seeds) * (len(TARGET_GRID) - 1)} consecutive pairs)",
    )
