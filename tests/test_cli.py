"""CLI: stream format, run metrics, exit codes, oracle-check, bench."""

import csv
import hashlib
import json
import math

import numpy as np
import pytest

from costcap import cli
from costcap.cli import (
    DataError,
    EXIT_ASSERT,
    EXIT_DATA,
    EXIT_OK,
    EXIT_USAGE,
    AggregateRow,
    BenchPoint,
    RunConfig,
    UsageError,
    aggregate_rows,
    bench_oracle,
    bench_tree,
    check_assertions,
    fit_loglog_exponent,
    load_run_config,
    main,
    oracle_check_run,
    read_stream_csv,
    run_experiment,
    slice_stream,
    write_stream_csv,
)
from costcap.set_functions import Sample, full_set
from costcap.synth import GeneratorConfig, generate


def write_stream(tmp_path, n=200, k=4, seed=0, heterogeneity=1.0, name="stream.csv"):
    path = tmp_path / name
    write_stream_csv(path, generate(GeneratorConfig(n=n, n_classes=k, seed=seed, heterogeneity=heterogeneity)))
    return path


# ----------------------------------------------------------------------
# stream format


def test_generate_row_count_and_header(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["generate", "--n", "10", "--classes", "3", "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 11
    assert lines[0] == "p_0,p_1,p_2,y_0,y_1,y_2"


def test_generate_same_seed_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        main(["generate", "--n", "50", "--classes", "4", "--seed", "9",
              "--heterogeneity", "0.8", "--out", str(out)])
    assert a.read_bytes() == b.read_bytes()


def test_stream_round_trip_and_calibration(tmp_path):
    path = tmp_path / "big.csv"
    main(["generate", "--n", "10000", "--classes", "6", "--seed", "2",
          "--heterogeneity", "1.0", "--out", str(path)])
    samples = read_stream_csv(path)
    assert len(samples) == 10000
    probs = np.stack([s.probs for s in samples]).ravel()
    hits = np.concatenate([s.label_vector() for s in samples])
    # binomial check per probability decile
    edges = np.quantile(probs, np.linspace(0, 1, 11))
    for lo, hi in zip(edges, edges[1:]):
        sel = (probs >= lo) & (probs <= hi)
        n = int(sel.sum())
        if n < 200:
            continue
        expect = probs[sel].mean()
        se = math.sqrt(expect * (1 - expect) / n)
        assert abs(hits[sel].mean() - expect) <= 3 * se + 2e-3


def test_read_stream_bad_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("p_0,y_0\n0.5,1\nnope,0\n")
    with pytest.raises(DataError, match="3"):
        read_stream_csv(path)
    path.write_text("p_0,y_0\n1.5,1\n")
    with pytest.raises(DataError, match="2"):
        read_stream_csv(path)
    path.write_text("p_0,y_0\n0.5,2\n")
    with pytest.raises(DataError):
        read_stream_csv(path)
    path.write_text("p_0,p_1,y_0,y_1\n0.5,0.5,1,0\n0.2,nan,0,1\n")
    with pytest.raises(DataError, match="3"):
        read_stream_csv(path)


# ----------------------------------------------------------------------
# run config


def test_run_config_json_and_overrides(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"mode": "violation", "n_test": 500, "burn_in": 100}))
    cfg = load_run_config(cfg_path, {"delta": 0.2, "window": None})
    assert cfg.mode == "violation" and cfg.n_test == 500 and cfg.delta == 0.2
    cfg_path.write_text(json.dumps({"bogus": 1}))
    with pytest.raises(UsageError):
        load_run_config(cfg_path)


def test_run_config_validation():
    with pytest.raises(UsageError):
        RunConfig(cost_targets=[0.0]).validate()
    with pytest.raises(UsageError):
        RunConfig(burn_in=10, n_test=10).validate()
    with pytest.raises(UsageError):
        RunConfig(seeds=[]).validate()
    with pytest.raises(UsageError):
        RunConfig(universe="nope").validate()
    with pytest.raises(UsageError):
        RunConfig(universe="full", n_classes=21).validate()
    for k in (0, 65):
        with pytest.raises(UsageError):
            RunConfig(n_classes=k).validate()
    with pytest.raises(UsageError):
        RunConfig(value_kind="gen", mc_samples=0).validate()


def test_slice_stream_disjoint_and_insufficient():
    samples = [Sample(np.array([0.5]), 0) for _ in range(10)]
    cfg = RunConfig(seeds=[0, 1], n_test=5, burn_in=1, n_classes=1)
    slices = slice_stream(cfg, samples)
    assert len(slices) == 2 and slices[0] == samples[:5] and slices[1] == samples[5:]
    cfg = RunConfig(seeds=[0, 1, 2], n_test=5, burn_in=1, n_classes=1)
    with pytest.raises(DataError):
        slice_stream(cfg, samples)


# ----------------------------------------------------------------------
# run command


def run_args(stream, out, **kw):
    args = ["run", "--stream", str(stream), "--out", str(out)]
    defaults = dict(
        mode="expected", targets="20,40", seeds="0,1", n_test="100",
        burn_in="30", value_kind="tp", cost_kind="fp", classes="4",
    )
    defaults.update(kw)
    flag_names = {
        "mode": "--mode", "targets": "--targets", "seeds": "--seeds",
        "n_test": "--n-test", "burn_in": "--burn-in", "value_kind": "--value-kind",
        "cost_kind": "--cost-kind", "classes": "--classes", "universe": "--universe",
        "delta": "--delta", "window": "--window", "log": "--log",
    }
    for key, val in defaults.items():
        args += [flag_names[key], str(val)]
    return args


def test_run_writes_metrics_and_aggregates(tmp_path):
    stream = write_stream(tmp_path)
    out = tmp_path / "metrics.csv"
    assert main(run_args(stream, out)) == EXIT_OK
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 4  # 2 seeds x 2 targets
    assert {r["seed"] for r in rows} == {"0", "1"}
    agg = list(csv.DictReader((tmp_path / "metrics_aggregate.csv").open()))
    assert agg[-1]["target_cost"] == "all"
    timing = list(csv.DictReader((tmp_path / "metrics_timing.csv").open()))
    assert len(timing) == 4
    assert all(float(t["mean_update_seconds"]) > 0 for t in timing)


def test_run_deterministic_metrics_bytes(tmp_path):
    stream = write_stream(tmp_path)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(run_args(stream, a))
    main(run_args(stream, b))
    assert a.read_bytes() == b.read_bytes()


def test_run_degenerate_all_empty_labels(tmp_path):
    # no true positives exist: value 0; FP control keeps excess <= 0
    samples = [Sample(np.full(4, 0.5), 0) for _ in range(200)]
    stream = tmp_path / "empty.csv"
    write_stream_csv(stream, samples)
    out = tmp_path / "m.csv"
    assert main(run_args(stream, out)) == EXIT_OK
    for row in csv.DictReader(out.open()):
        assert float(row["mean_value"]) == 0.0
        assert float(row["excess_cost"]) <= 0.0


def test_run_log_self_consistency(tmp_path):
    stream = write_stream(tmp_path)
    out = tmp_path / "m.csv"
    log = tmp_path / "log.csv"
    assert main(run_args(stream, out, log=log)) == EXIT_OK
    metrics = {
        (r["seed"], r["target_cost"]): r for r in csv.DictReader(out.open())
    }
    by_key: dict[tuple[str, str], list[dict]] = {}
    for row in csv.DictReader(log.open()):
        by_key.setdefault((row["seed"], row["target_cost"]), []).append(row)
    assert set(by_key) == set(metrics)
    for key, entries in by_key.items():
        m = metrics[key]
        values = [float(e["value"]) for e in entries]
        costs = [float(e["cost"]) for e in entries]
        target = float(key[1])
        assert len(entries) == int(m["n_predictions"])
        assert float(m["mean_value"]) == pytest.approx(np.mean(values), rel=1e-12)
        assert float(m["excess_cost"]) == pytest.approx(np.mean(costs) - target, abs=1e-12)
        assert float(m["violation_frequency"]) == pytest.approx(
            np.mean([c > target for c in costs]), abs=1e-12
        )


def test_run_insufficient_stream_exits_2(tmp_path):
    stream = write_stream(tmp_path, n=50)
    assert main(run_args(stream, tmp_path / "m.csv")) == EXIT_DATA


def test_run_wrong_class_count_exits_2(tmp_path):
    stream = write_stream(tmp_path, k=3)
    assert main(run_args(stream, tmp_path / "m.csv")) == EXIT_DATA


def test_gen_ratio_sweep_metrics_golden(tmp_path):
    # the batched Monte-Carlo proxies must reproduce the per-set loop's
    # predictions: sha256 of the metrics CSV the per-set loop wrote
    stream, out = tmp_path / "s.csv", tmp_path / "m.csv"
    main(["generate", "--n", "120", "--classes", "6", "--seed", "7", "--out", str(stream)])
    code = main([
        "run", "--stream", str(stream), "--out", str(out), "--value-kind", "gen",
        "--universe", "ratio", "--classes", "6", "--seeds", "0,1", "--targets", "10,30",
        "--n-test", "60", "--burn-in", "20",
    ])
    assert code == EXIT_OK
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "3faa66b5dbff42aa1dfcf460a3975f60590f45c8a4fc677848e8e762f962b657"


def test_missing_stream_file_exits_2(tmp_path):
    assert main(run_args(tmp_path / "nope.csv", tmp_path / "m.csv")) == EXIT_DATA


def test_bad_flag_exits_1(tmp_path):
    stream = write_stream(tmp_path)
    args = run_args(stream, tmp_path / "m.csv", universe="bogus")
    assert main(args) == EXIT_USAGE
    assert main(["frobnicate"]) == EXIT_USAGE


def test_window_flag_runs(tmp_path):
    stream = write_stream(tmp_path)
    out = tmp_path / "m.csv"
    assert main(run_args(stream, out, window="60")) == EXIT_OK


def test_weights_csv_flag(tmp_path):
    stream = write_stream(tmp_path)
    wpath = tmp_path / "weights.csv"
    wpath.write_text("class_index,weight\n0,4.0\n1,1.0\n2,2.0\n3,3.0\n")
    out = tmp_path / "m.csv"
    args = run_args(stream, out, cost_kind="fpc")
    args += ["--weights", str(wpath)]
    assert main(args) == EXIT_OK
    missing = run_args(stream, out, cost_kind="fpc")
    missing += ["--weights", str(tmp_path / "nope.csv")]
    assert main(missing) == EXIT_DATA
    wpath.write_text("class_index,weight\n0,4.0\n1,1.0\n3,3.0\n")
    assert main(args) == EXIT_DATA


def test_weights_csv_read_once_per_run(tmp_path, monkeypatch, capsys):
    reads = []
    load = cli.load_weights_csv

    def counted(*args, **kwargs):
        reads.append(args)
        return load(*args, **kwargs)

    monkeypatch.setattr(cli, "load_weights_csv", counted)
    stream = write_stream(tmp_path)
    wpath = tmp_path / "weights.csv"
    wpath.write_text("class_index,weight\n0,4.0\n1,1.0\n2,2.0\n3,3.0\n")
    args = run_args(stream, tmp_path / "m.csv", value_kind="tpc", cost_kind="fpc")
    args += ["--weights", str(wpath)]
    assert main(args) == EXIT_OK
    assert len(reads) == 1  # 2 seeds x 2 targets, one read
    # a bad weights file is reported before the malformed stream is parsed
    wpath.write_text("class_index,weight\n0,4.0\n")
    bad_stream = tmp_path / "bad.csv"
    bad_stream.write_text("p_0,p_1,p_2,p_3,y_0,y_1,y_2,y_3\n0.5,0.5,0.5,0.5,1,0,0,nope\n")
    capsys.readouterr()
    args[args.index("--stream") + 1] = str(bad_stream)
    assert main(args) == EXIT_DATA
    assert "weights missing for classes" in capsys.readouterr().err


def test_malformed_stream_row_exits_2(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("p_0,p_1,p_2,p_3,y_0,y_1,y_2,y_3\n" + "0.5,0.5,0.5,0.5,1,0,0,nope\n")
    assert main(run_args(path, tmp_path / "m.csv")) == EXIT_DATA


def test_check_assertions_bands():
    cfg = RunConfig(mode="expected")
    good = [AggregateRow(5.0, 10.0, 1.0, -0.1, 0.1, 0.4, 0.0), AggregateRow("all", 10.0, 1.0, -0.1, 0.1, 0.4, 0.0)]
    assert check_assertions(cfg, good) == []
    bad = [AggregateRow(5.0, 10.0, 1.0, -1.2, 0.1, 0.4, 0.0), AggregateRow("all", 10.0, 1.0, -1.2, 0.1, 0.4, 0.0)]
    assert check_assertions(cfg, bad)
    vcfg = RunConfig(mode="violation", delta=0.1)
    vg = [AggregateRow("all", 10.0, 1.0, -0.1, 0.1, 0.101, 0.0)]
    assert check_assertions(vcfg, vg) == []
    vb = [AggregateRow("all", 10.0, 1.0, -0.1, 0.1, 0.2, 0.0)]
    assert check_assertions(vcfg, vb)


def test_run_assert_exit_code(tmp_path):
    # all-empty labels with c=5: any nonempty set costs >= 25, so control
    # forces empty predictions and the excess sits at exactly -5 (trips band)
    samples = [Sample(np.full(4, 0.5), 0) for _ in range(200)]
    stream = tmp_path / "empty.csv"
    write_stream_csv(stream, samples)
    args = run_args(stream, tmp_path / "m.csv", targets="5")
    args.append("--assert")
    assert main(args) == EXIT_ASSERT


# ----------------------------------------------------------------------
# oracle check command


def test_oracle_check_continuous_costs_no_mismatch(tmp_path):
    stream = write_stream(tmp_path, n=300, k=5, seed=3)
    report = oracle_check_run(
        RunConfig(
            mode="expected", cost_targets=[23.7], seeds=[0], n_test=300,
            burn_in=0, value_kind="tp", cost_kind="fpc", n_classes=5,
        ),
        read_stream_csv(stream),
        checkpoints=15,
    )
    assert report.checked == 15
    assert report.mismatches == 0


def test_oracle_check_lattice_costs_count_boundaries(tmp_path):
    # unweighted FP costs live on a 100/K lattice: exact CDF hits are
    # expected and must be counted as boundary skips, never as failures
    stream = write_stream(tmp_path, n=400, k=5, seed=3)
    report = oracle_check_run(
        RunConfig(
            mode="expected", cost_targets=[20.0], seeds=[0], n_test=400,
            burn_in=0, value_kind="tp", cost_kind="fp", n_classes=5,
        ),
        read_stream_csv(stream),
        checkpoints=20,
    )
    assert report.mismatches == 0
    assert report.checked == 20


def test_oracle_check_cli(tmp_path):
    stream = write_stream(tmp_path, n=200, k=4, seed=1)
    out = tmp_path / "report.csv"
    code = main([
        "oracle-check", "--stream", str(stream), "--mode", "violation",
        "--targets", "30", "--delta", "0.2", "--seeds", "0", "--n-test", "200",
        "--burn-in", "0", "--value-kind", "tp", "--cost-kind", "fp",
        "--classes", "4", "--checkpoints", "8", "--out", str(out),
    ])
    assert code == EXIT_OK
    row = next(csv.DictReader(out.open()))
    assert int(row["checked"]) == 8
    assert int(row["mismatches"]) == 0


def test_oracle_check_wrong_class_count_exits_2(tmp_path, capsys):
    stream = write_stream(tmp_path, n=60, k=4)
    code = main([
        "oracle-check", "--stream", str(stream), "--classes", "6", "--seeds", "0",
        "--n-test", "60", "--burn-in", "0", "--value-kind", "tp", "--cost-kind", "fp",
    ])
    assert code == EXIT_DATA
    assert "stream has 4 classes, config says 6" in capsys.readouterr().err


# ----------------------------------------------------------------------
# bench command


def test_bench_points_and_csv(tmp_path):
    out = tmp_path / "bench.csv"
    code = main([
        "bench", "--n-grid", "500,2000", "--reps", "10",
        "--oracle-reps", "2", "--out", str(out),
    ])
    assert code == EXIT_OK
    rows = list(csv.DictReader(out.open()))
    assert [(r["method"], r["n"]) for r in rows] == [
        ("tree", "500"), ("tree", "2000"), ("oracle", "500"), ("oracle", "2000"),
    ]
    assert all(r["status"] in ("ok", "dnf") for r in rows)


def test_bench_oracle_budget_marks_dnf():
    points = bench_oracle([200, 400, 800], reps=1, budget_s=0.0)
    assert points[0].per_update_seconds is None or points[0].status == "dnf"
    assert all(p.status == "dnf" for p in points[1:])


def test_fit_loglog_exponent():
    points = [BenchPoint("x", n, 1e-6 * n) for n in (10, 100, 1000)]
    assert fit_loglog_exponent(points) == pytest.approx(1.0, abs=1e-6)
    assert fit_loglog_exponent([BenchPoint("x", 10, 1.0)]) is None
