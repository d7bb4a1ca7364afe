"""costcap benchmark workloads: set-up, closed-loop passes and checks.

Each workload is a ``RunConfig`` plus a stream drawn with ``synth.generate``
from the benchmark seed before any timing starts. The load is a closed loop
with one client in one process: the protocol needs a sample's label before
the next sample, so the next ``step()`` starts only after the previous one
returns. A *pass* streams the whole pre-generated stream through a fresh
controller (online workloads) or through one ``cli.run_experiment`` call
(the sweep). Every pass of a run does the same work, so its prediction
digest must repeat exactly.
"""

from __future__ import annotations

import gc
import hashlib
import math
import statistics
import sys
import traceback
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

from costcap import cli
from costcap.cli import RunConfig, build_specs, run_experiment, write_metrics_csv
from costcap.controller import CostController, threshold_comparison
from costcap.synth import GeneratorConfig, generate

import probe
from spans import Tracer, traced_step

N_CLASSES = 10
BASE_RATE = 0.4
HETEROGENEITY = 1.0
TARGET = 20.0
# One-sided z for the guarantee checks: a controller's mean excess cost (or
# its violation frequency above delta) may exceed 0 by at most this many
# standard errors of its own predictions. Fixed beforehand, not tuned to any
# seed; large because the sweep checks 20 controllers per run and the
# guarantees are tight (a correct controller sits near the bound).
GUARANTEE_Z = 4.0


@dataclass(frozen=True)
class Workload:
    """RunConfig keyword arguments (``cfg``) for one workload.
    ``checkpoints`` are step indices of a run's first pass after which the
    tree threshold is compared with the direct search."""

    sweep: bool
    cfg: dict
    checkpoints: tuple[int, ...] = ()

    @property
    def stream_len(self) -> int:
        return self.cfg["n_test"] * len(self.cfg["seeds"])


def _online(checkpoints, **cfg) -> Workload:
    return Workload(False, dict(cost_targets=[TARGET], seeds=[0], **cfg), checkpoints)


EXPECTED_CHAIN = dict(mode="expected", universe="ratio", value_kind="tpc", cost_kind="fp")
VIOLATION_POWERSET = dict(
    mode="violation", delta=0.1, universe="full", value_kind="tp", cost_kind="fpc"
)
GEN_CHAIN = dict(mode="expected", universe="ratio", value_kind="gen", cost_kind="fp")

# Why each workload exists is in README.md and BENCHMARK.json. Sizes: a pass
# takes about a third of the default 20 s run on a 2-core x86-64 VM, and the
# direct-search checks stay affordable (the violation oracle is quadratic in
# the window, hence a 300-sample window).
WORKLOADS = {
    "full": {
        "online-expected-chain": _online(
            (11249, 22499, 33749, 44999), n_test=45000, burn_in=1000, **EXPECTED_CHAIN
        ),
        "online-violation-powerset": _online(
            (150, 899), n_test=900, burn_in=150, window=300, **VIOLATION_POWERSET
        ),
        "gen-value-chain": _online((199, 399), n_test=400, burn_in=50, **GEN_CHAIN),
        "sweep-expected": Workload(
            True, dict(seeds=[0, 1], n_test=3000, burn_in=1000, **EXPECTED_CHAIN)
        ),
    },
    # for the self-check: every code path, in seconds
    "tiny": {
        "online-expected-chain": _online(
            (299, 599), n_test=600, burn_in=100, **EXPECTED_CHAIN
        ),
        "online-violation-powerset": _online(
            (10, 59), n_test=60, burn_in=10, window=30, **VIOLATION_POWERSET
        ),
        "gen-value-chain": _online((39,), n_test=40, burn_in=10, **GEN_CHAIN),
        "sweep-expected": Workload(
            True, dict(seeds=[0, 1], n_test=150, burn_in=50, **EXPECTED_CHAIN)
        ),
    },
}


# ----------------------------------------------------------------------
# set-up

def set_up(wl: Workload, seed: int):
    """Stream generation plus RunConfig (and controller) construction.
    Returns (cfg, stream, setup seconds, generation seconds)."""
    t0 = perf_counter()
    stream = generate(
        GeneratorConfig(
            n=wl.stream_len,
            n_classes=N_CLASSES,
            base_rate=BASE_RATE,
            heterogeneity=HETEROGENEITY,
            seed=seed,
        )
    )
    t1 = perf_counter()
    cfg = RunConfig(**wl.cfg)
    cfg.validate()
    if not wl.sweep:
        new_controller(cfg)
    t2 = perf_counter()
    return cfg, stream, t2 - t0, t1 - t0


def new_controller(cfg: RunConfig) -> CostController:
    """The controller ``cli.run_single`` builds for the config's first seed
    and target."""
    value_spec, cost_spec = build_specs(cfg, mc_seed=cfg.seeds[0])
    return CostController(
        cfg.mode,
        cfg.cost_targets[0],
        value_spec,
        cost_spec,
        universe_kind=cfg.universe,
        delta=cfg.delta,
        burn_in=cfg.burn_in,
        window=cfg.window,
    )


# ----------------------------------------------------------------------
# passes

@dataclass
class Pass:
    """One pass over the stream.

    ``step_s`` holds each step's duration, timed from outside step() (NaN
    where it raised), ``scale`` the machine-speed factor of the stretch it
    ran in (see probe.py) and ``predicted`` whether it was past burn-in.
    The sweep's steps are not visible outside ``run_experiment``: its pass
    holds one entry, the call's wall time per controller step, standing for
    ``per_entry`` steps. ``excess`` maps each controller to the realized
    cost minus target of its predictions."""

    steps: int
    digest: str = ""
    errors: int = 0
    per_entry: int = 1
    step_s: array = field(default_factory=lambda: array("d"))
    scale: array = field(default_factory=lambda: array("d"))
    predicted: array = field(default_factory=lambda: array("b"))
    values: array = field(default_factory=lambda: array("d"))
    excess: dict = field(default_factory=dict)
    checks: int = 0
    mismatches: int = 0
    nodes: int = 0
    height: int = 0
    controllers_built: int = 0
    run_single_s: float = 0.0

    def seconds(self, scaled: bool) -> float:
        """Summed step time, raw or at reference machine speed."""
        total = 0.0
        for t, f in zip(self.step_s, self.scale):
            if t == t:  # skip NaN
                total += t * (f if scaled else 1.0)
        return total * self.per_entry


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _report_error(what: str) -> None:
    print(f"perfbench: {what}:\n{traceback.format_exc()}", file=sys.stderr)


def online_pass(cfg: RunConfig, stream, checkpoints=(), tracer: Tracer | None = None) -> Pass:
    """Closed loop over the stream with one fresh controller, probing the
    machine's speed between steps every ``probe.INTERVAL_S``. With a tracer,
    each step runs through :func:`spans.traced_step` instead of step()."""
    ctrl = new_controller(cfg)
    step = ctrl.step if tracer is None else (lambda s: traced_step(ctrl, s, tracer))
    checkpoints = frozenset(checkpoints)
    target = cfg.cost_targets[0]
    out = Pass(len(stream))
    excess = out.excess[0] = array("d")
    preds = []
    stretch_start = 0
    probe_before = probe.seconds()
    last_probe = perf_counter()
    for i, sample in enumerate(stream):
        t0 = perf_counter()
        try:
            res = step(sample)
        except Exception:
            if not out.errors:
                _report_error(f"step {i} raised")
            out.errors += 1
            preds.append("error")
            out.step_s.append(math.nan)
            out.predicted.append(0)
            continue
        t1 = perf_counter()
        out.step_s.append(t1 - t0)
        if res.prediction is None:
            out.predicted.append(0)
            preds.append("-1")
        else:
            out.predicted.append(1)
            preds.append(str(res.prediction))
            out.values.append(res.realized_value)
            excess.append(res.realized_cost - target)
        if i in checkpoints:
            out.checks += 1
            try:
                status = threshold_comparison(ctrl)[2]
            except Exception:
                _report_error(f"threshold comparison after step {i} raised")
                status = "error"
            if status not in ("match", "boundary"):
                print(f"perfbench: threshold {status} after step {i}", file=sys.stderr)
                out.mismatches += 1
        if t1 - last_probe >= probe.INTERVAL_S:
            probe_after = probe.seconds()
            out.scale.extend([probe.scale(probe_before, probe_after)] * (i + 1 - stretch_start))
            probe_before, stretch_start = probe_after, i + 1
            last_probe = perf_counter()
    probe_after = probe.seconds()
    out.scale.extend([probe.scale(probe_before, probe_after)] * (len(stream) - stretch_start))
    out.digest = _digest(preds)
    out.nodes = len(ctrl.tree)
    if tracer is not None:
        out.height = ctrl.tree.height()
    return out


def sweep_pass(cfg: RunConfig, stream, scratch_dir) -> Pass:
    """One ``cli.run_experiment`` call, probed for machine speed from a
    background thread; the digest covers the bytes ``write_metrics_csv``
    writes for its rows."""
    steps = len(cfg.seeds) * len(cfg.cost_targets) * cfg.n_test
    with probe.Sampler() as sampler:
        start = perf_counter()
        try:
            rows, log = run_experiment(cfg, stream)
        except Exception:
            _report_error("run_experiment raised")
            rows = None
        wall = perf_counter() - start
    out = Pass(steps, per_entry=steps)
    out.scale.append(sampler.scale())
    if rows is None:
        out.digest, out.errors = "error", steps
        out.step_s.append(math.nan)
        out.predicted.append(0)
        return out
    out.step_s.append(wall / steps)
    out.predicted.append(1)
    path = scratch_dir / "metrics.csv"
    write_metrics_csv(path, rows)
    out.digest = hashlib.sha256(path.read_bytes()).hexdigest()
    path.unlink()
    for entry in log:
        out.values.append(entry.value)
        key = (entry.seed, entry.target_cost)
        out.excess.setdefault(key, array("d")).append(entry.cost - entry.target_cost)
    return out


@contextmanager
def traced_cli(tracer: Tracer):
    """Route the controllers ``cli.run_experiment`` builds through
    :func:`spans.traced_step`, and time each ``cli.run_single`` call.
    Yields (controllers built, run_single durations). Traced process only."""
    built = []
    single_s = []
    # ROADMAP item 2 may fold the per-target controllers and run_single into
    # one core; the traced sweep then reports what is left instead of failing
    saved = {n: getattr(cli, n) for n in ("CostController", "run_single") if hasattr(cli, n)}
    if "CostController" in saved:
        class TracedController(saved["CostController"]):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

            def step(self, sample):
                return traced_step(self, sample, tracer)

        cli.CostController = TracedController
    if "run_single" in saved:
        run_single = saved["run_single"]

        def timed_run_single(*args, **kwargs):
            t0 = perf_counter()
            try:
                return run_single(*args, **kwargs)
            finally:
                single_s.append(perf_counter() - t0)

        cli.run_single = timed_run_single
    try:
        yield built, single_s
    finally:
        for name, value in saved.items():
            setattr(cli, name, value)


# ----------------------------------------------------------------------
# checks

def guarantee_check(cfg: RunConfig, p: Pass) -> tuple[bool, str]:
    """One-sided check of the mode's guarantee for every controller of a
    pass: mean excess cost <= z standard errors (expected mode), or
    violation frequency <= delta + z standard errors (violation mode).
    Reports the controller closest to failing."""
    worst = None
    for key, excess in p.excess.items():
        n = len(excess)
        if n < 2:
            return False, f"controller {key}: {n} predictions, too few to check"
        if cfg.mode == "expected":
            stat = statistics.fmean(excess)
            bound = GUARANTEE_Z * statistics.stdev(excess) / math.sqrt(n)
            what = "mean excess cost"
        else:
            stat = sum(x > 0.0 for x in excess) / n
            bound = cfg.delta + GUARANTEE_Z * math.sqrt(cfg.delta * (1.0 - cfg.delta) / n)
            what = "violation frequency"
        if worst is None or stat - bound > worst[0] - worst[1]:
            worst = (stat, bound, key, n, what)
    if worst is None:
        return False, "no predictions"
    stat, bound, key, n, what = worst
    where = f" (controller {key}, n={n}, {len(p.excess)} controllers)"
    return stat <= bound, f"{what} {stat:+.4f} <= {bound:.4f}{where}"


class GcMonitor:
    """Collector pauses and gen-2 passes, from ``gc.callbacks``."""

    def __init__(self) -> None:
        self.pauses_s = []
        self.gen2 = 0
        self._t0 = 0.0

    def _callback(self, phase, info) -> None:
        if phase == "start":
            self._t0 = perf_counter()
        else:
            self.pauses_s.append(perf_counter() - self._t0)
            self.gen2 += info["generation"] == 2

    def __enter__(self):
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)
