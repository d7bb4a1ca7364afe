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
from costcap.set_functions import Sample, full_set, label_bits
from costcap.synth import GeneratorConfig, generate


def write_stream(tmp_path, n=200, k=4, seed=0, heterogeneity=1.0, name="stream.csv"):
    path = tmp_path / name
    write_stream_csv(path, generate(GeneratorConfig(n=n, n_classes=k, seed=seed, heterogeneity=heterogeneity)))
    return path


def csv_rows(path) -> list[dict[str, str]]:
    """The rows of a CSV file with a header row, read through a closed handle."""
    with path.open() as fh:
        return list(csv.DictReader(fh))


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
    hits = np.concatenate([label_bits(s.labels, s.n_classes) for s in samples])
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
    bad_types = [
        dict(mc_samples=2.5), dict(n_test=120.0), dict(cost_targets="20"),
        dict(burn_in=True), dict(window=3.0), dict(n_classes="10"), dict(seeds=[0, 1.0]),
        dict(seeds=(0, 1)), dict(cost_targets=[20, "40"]), dict(cost_targets=[True]),
        dict(delta="0.1"), dict(delta=None),
    ]
    for kwargs in bad_types:
        with pytest.raises(UsageError):
            RunConfig(**kwargs).validate()
    with pytest.raises(UsageError, match="distinct"):
        RunConfig(seeds=[0, 1, 0]).validate()
    RunConfig(cost_targets=[20, 20.0, 40], window=5, seeds=[3, 1]).validate()


@pytest.mark.parametrize(
    "raw",
    [{"mc_samples": 2.5}, {"n_test": 120.0, "burn_in": 40}, {"cost_targets": "20"}, {"seeds": [0, 0]}],
)
def test_run_config_json_of_the_wrong_type_exits_1(tmp_path, raw, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    # the stream is never read: a missing file would exit 2
    args = ["run", "--stream", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "m.csv"),
            "--config", str(cfg_path)]
    assert main(args) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


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
    rows = csv_rows(out)
    assert len(rows) == 4  # 2 seeds x 2 targets
    assert {r["seed"] for r in rows} == {"0", "1"}
    agg = csv_rows(tmp_path / "metrics_aggregate.csv")
    assert agg[-1]["target_cost"] == "all"
    timing = csv_rows(tmp_path / "metrics_timing.csv")
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
    for row in csv_rows(out):
        assert float(row["mean_value"]) == 0.0
        assert float(row["excess_cost"]) <= 0.0


@pytest.mark.parametrize("value_kind,cost_kind", [("tp", "fp"), ("tpc", "fpc")])
def test_run_log_self_consistency(tmp_path, value_kind, cost_kind):
    stream = write_stream(tmp_path)
    out = tmp_path / "m.csv"
    log = tmp_path / "log.csv"
    args = run_args(stream, out, log=log, value_kind=value_kind, cost_kind=cost_kind)
    assert main(args) == EXIT_OK
    # every field is plain text that float() and int() parse
    for path in (out, log):
        assert "np." not in path.read_text()
    metrics = {
        (r["seed"], r["target_cost"]): r for r in csv_rows(out)
    }
    by_key: dict[tuple[str, str], list[dict]] = {}
    for row in csv_rows(log):
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


def test_duplicate_seeds_exit_1_and_duplicate_targets_keep_a_row_each(tmp_path):
    stream = write_stream(tmp_path)
    assert main(run_args(stream, tmp_path / "m.csv", seeds="0,0")) == EXIT_USAGE
    out, log = tmp_path / "dup.csv", tmp_path / "dup_log.csv"
    assert main(run_args(stream, out, log=log, targets="40,20,40")) == EXIT_OK
    rows = out.read_text().splitlines()[1:]
    assert [r.split(",")[:2] for r in rows] == [
        [seed, target] for seed in "01" for target in ("20.0", "40.0", "40.0")
    ]
    assert rows[1] == rows[2] and rows[4] == rows[5]
    entries = csv_rows(log)
    per_target = {}
    for e in entries:
        per_target.setdefault((e["seed"], e["target_cost"]), []).append(e)
    for seed in "01":
        n = len(per_target[(seed, "20.0")])
        assert len(per_target[(seed, "40.0")]) == 2 * n  # both 40 rows logged


# sha256 of the metrics CSV and of the --log CSV, computed with the
# per-(seed, target) controllers of the earlier sweep; its weighted-cost
# fields were written as np.float64(x) and are hashed as x
SHARED_CORE_GOLDENS = {
    "expected-ratio": (
        [],
        "aa6007b98480268ec69b78d62e8a43734a57ece4f6d07f4af4bc1687f691075d",
        "2efd766891edaa03c2f4d980290866b1363b1c47e413bcba3261b574bc9735aa",
    ),
    "expected-ratio-window": (
        ["--window", "50"],
        "add5dae8db31b560d4d0b3e6ce86e4615fe521028d96ed8785ac2bee791c7024",
        "c6e63de7745c32a72ba92dab6be4dfbe2e8d327740a91e3613b032304e51ce7b",
    ),
    "expected-full": (
        ["--universe", "full"],
        "de6f45fbfe31041223e37530731e513cd1bf85e4a217e3d00863d2d07e2f2161",
        "d4ab58a5385198b6d6b7fb9aaf500622e999ba904159aac349791b7c75ef5ded",
    ),
    "expected-full-window": (
        ["--universe", "full", "--window", "50"],
        "ad4eb9de0242dd83cbbf7f6e4a4d93fedc10c22e4c279abe4d14a9820a1cdbec",
        "3a677c9773f225e7639f4f0d66d4597bea277fc8544f03184e768dd13b4e25b7",
    ),
    "violation-ratio": (
        ["--mode", "violation"],
        "b8373a9611fdcfe35af70307ebcfb6be49fa9b899b072116a3239d8b35b265cc",
        "561e3f438c3e4dc53d26f9c648ba94d21866f45883608d299b9f809af881f616",
    ),
    "violation-ratio-window": (
        ["--mode", "violation", "--window", "50"],
        "de7c5018cafa8077a5e1651673337331d6d9288d819cb731194758b2a2692e2b",
        "e08b1d2a46887b1b56296fe39db9ac9964663decc55f997248dde807da8696d6",
    ),
    "violation-full": (
        ["--mode", "violation", "--universe", "full"],
        "8410540755104f9cef4d479ef20e66f35b42d994e7427859a765729beeb8a6cb",
        "666bfbf179f37e80b43e577134f3a0aa7b2938a0bf3ac2f11cd3ef88b9dfa48b",
    ),
    "violation-full-window": (
        ["--mode", "violation", "--universe", "full", "--window", "50"],
        "c51ab33d099c7d5cb18271924321146ad66f8539a2312285dccb34579e9c663d",
        "e37ac08492f1d635cd159d27836956c133923d3ea9a5bf8804645fea46d4287a",
    ),
    "gen": (
        ["--value-kind", "gen", "--cost-kind", "fp"],
        "be048f2685d31ec095b7572dfd3b74429125f6784d3c7cb5466b51dd333b24e1",
        "af6b78d29a1404b72cc16411d37a341cfe69e35c9dc505b4e2a64d4d616665e9",
    ),
}


@pytest.mark.parametrize("case", sorted(SHARED_CORE_GOLDENS))
def test_shared_core_sweep_goldens(tmp_path, case):
    # unsorted and duplicate targets, 2 seeds, tpc/fpc unless overridden
    flags, metrics_digest, log_digest = SHARED_CORE_GOLDENS[case]
    stream, out, log = tmp_path / "s.csv", tmp_path / "m.csv", tmp_path / "log.csv"
    main(["generate", "--n", "300", "--classes", "6", "--seed", "3",
          "--heterogeneity", "1.0", "--out", str(stream)])
    code = main([
        "run", "--stream", str(stream), "--out", str(out), "--log", str(log),
        "--classes", "6", "--seeds", "0,1", "--targets", "30,5,20,20,45",
        "--n-test", "150", "--burn-in", "40", "--value-kind", "tpc", "--cost-kind", "fpc",
        *flags,
    ])
    assert code == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == metrics_digest
    assert hashlib.sha256(log.read_bytes()).hexdigest() == log_digest


def test_windowed_expected_powerset_on_a_duplicate_heavy_stream(tmp_path):
    # equal subset sums leave 1e-15 record weights that the tree drops
    # together with their node; evicting them must not raise
    stream = write_stream(tmp_path, n=300, k=6, seed=3, heterogeneity=0.0)
    out = tmp_path / "m.csv"
    args = run_args(stream, out, classes="6", n_test="150", burn_in="40", universe="full",
                    window="50", value_kind="tpc", cost_kind="fpc", targets="30,5,20,20,45")
    assert main(args) == EXIT_OK


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
    # finite weights whose sum overflows would make every cost NaN
    wpath.write_text("class_index,weight\n0,1e308\n1,1e308\n2,1\n3,1\n")
    assert main(args) == EXIT_DATA
    assert main(run_args(stream, out, value_kind="tpc") + ["--weights", str(wpath)]) == EXIT_DATA


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
    row = csv_rows(out)[0]
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
    rows = csv_rows(out)
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
