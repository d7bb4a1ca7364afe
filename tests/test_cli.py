"""CLI: stream format, run metrics, exit codes, oracle-check, bench."""

import csv
import gc
import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
    load_config,
    main,
    oracle_check_run,
    read_stream_csv,
    run_experiment,
    slice_stream,
    write_stream_csv,
)
from costcap.set_functions import Sample, full_set
from costcap.synth import GeneratorConfig, generate

from .oracles import label_bits


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


def test_module_entry_point_runs_the_cli():
    # ``python -m costcap`` is the console script's main
    package_root = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])
    )}
    out = subprocess.run(
        [sys.executable, "-m", "costcap", "--help"], capture_output=True, text=True, env=env,
        check=False,
    )
    assert out.returncode == EXIT_OK
    assert out.stdout.startswith("usage: costcap ")


@pytest.mark.parametrize(
    "config,flags",
    [
        ([{"n": 3}], ["--n", "5"]),  # not an object: merging the flags into it fails
        ("x", []),
        ({"n": 2.5}, []),
        ({"n": True}, []),
        ({"n": 5, "n_classes": 3.0}, []),
        ({"n": 5, "seed": "1"}, []),
        ({"n": 5, "base_rate": "0.4"}, []),
        ({"n": 5, "heterogeneity": None}, []),
        ({"n": 5, "miscalibration": [1.2]}, []),
    ],
)
def test_generate_bad_config_exits_1(tmp_path, capsys, config, flags):
    cfg_path = tmp_path / "gen.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "s.csv"
    assert main(["generate", "--config", str(cfg_path), "--out", str(out), *flags]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(k=st.integers(1, 64), data=st.data())
def test_stream_round_trip_and_reordered_header(tmp_path, k, data):
    # a stream reads back as written, to 9 digits; with two header names
    # swapped it is rejected for its header, whatever the rows hold
    rows = data.draw(st.lists(
        st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k), min_size=1, max_size=4
    ))
    n = len(rows)
    masks = data.draw(st.lists(st.integers(0, full_set(k)), min_size=n, max_size=n))
    path = tmp_path / "s.csv"
    write_stream_csv(path, [Sample(np.array(p), m) for p, m in zip(rows, masks)])
    back = read_stream_csv(path)
    assert [s.labels for s in back] == masks
    assert [s.probs.tolist() for s in back] == [[float(f"{x:.9f}") for x in p] for p in rows]
    i, j = data.draw(st.lists(st.integers(0, 2 * k - 1), min_size=2, max_size=2, unique=True))
    header, body = path.read_text().split("\n", 1)
    names = header.split(",")
    names[i], names[j] = names[j], names[i]
    path.write_text(",".join(names) + "\n" + body)
    with pytest.raises(DataError, match="header"):
        read_stream_csv(path)


@pytest.mark.parametrize(
    "header", ["p_1,p_0,p_2,p_3,y_0,y_1,y_2,y_3", "p_0,y_0,p_1,y_1,p_2,y_2,p_3,y_3"]
)
def test_a_reordered_stream_header_exits_2(tmp_path, capsys, header):
    stream = write_stream(tmp_path)
    body = stream.read_text().split("\n", 1)[1]
    stream.write_text(header + "\n" + body)
    assert main(run_args(stream, tmp_path / "m.csv")) == EXIT_DATA
    assert "header" in capsys.readouterr().err


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
    cfg = load_config(RunConfig, cfg_path, {"delta": 0.2, "window": None})
    assert cfg.mode == "violation" and cfg.n_test == 500 and cfg.delta == 0.2
    cfg_path.write_text(json.dumps({"bogus": 1}))
    with pytest.raises(UsageError):
        load_config(RunConfig, cfg_path, {})


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
        dict(weights=None, cost_kind="fpc"), dict(weights=["a"], cost_kind="fpc"),
        dict(weights=3, cost_kind="fpc"),
    ]
    for kwargs in bad_types:
        with pytest.raises(UsageError):
            RunConfig(**kwargs).validate()
    with pytest.raises(UsageError, match="distinct"):
        RunConfig(seeds=[0, 1, 0]).validate()
    RunConfig(cost_targets=[20, 20.0, 40], window=5, seeds=[3, 1]).validate()


@pytest.mark.parametrize(
    "raw",
    [
        {"mc_samples": 2.5}, {"n_test": 120.0, "burn_in": 40}, {"cost_targets": "20"},
        {"seeds": [0, 0]}, {"weights": None, "cost_kind": "fpc"},
        # a window no larger than burn_in keeps n_seen <= burn_in: never a prediction
        {"n_test": 50, "burn_in": 10, "seeds": [0], "cost_targets": [20], "universe": "full",
         "mode": "violation", "window": 5},
        {"n_test": 50, "burn_in": 10, "window": 10},
    ],
)
def test_run_config_json_of_the_wrong_type_exits_1(tmp_path, raw, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    # the stream is never read: a missing file would exit 2
    args = ["run", "--stream", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "m.csv"),
            "--config", str(cfg_path)]
    assert main(args) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("raw", [["mode"], [1], "x", 3, None])
def test_run_config_json_that_is_not_an_object_exits_1(tmp_path, raw, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    args = ["run", "--stream", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "m.csv"),
            "--config", str(cfg_path)]
    assert main(args) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "JSON object" in err and err.count("\n") == 1


def test_slice_stream_disjoint_and_insufficient():
    samples = [Sample(np.array([0.5]), 0) for _ in range(10)]
    cfg = RunConfig(seeds=[0, 1], n_test=5, burn_in=1, n_classes=1)
    slices = slice_stream(cfg, samples)
    assert len(slices) == 2 and slices[0] == samples[:5] and slices[1] == samples[5:]
    cfg = RunConfig(seeds=[0, 1, 2], n_test=5, burn_in=1, n_classes=1)
    with pytest.raises(DataError):
        slice_stream(cfg, samples)


@pytest.mark.parametrize("mode", ["expected", "violation"])
def test_run_single_frees_its_trees(mode, monkeypatch):
    # a tree's nodes link to their parents, so a finished slice's tree is
    # cyclic garbage until it is unlinked; run_single unlinks every tree
    cfg = RunConfig(mode=mode, cost_targets=[20.0, 40.0], seeds=[0], n_test=600, burn_in=50)
    samples = generate(GeneratorConfig(n=600, n_classes=10, seed=4, heterogeneity=1.0))
    sizes = []
    clear = cli.QuantileTree.clear

    def counted(tree):
        sizes.append(len(tree))
        clear(tree)

    monkeypatch.setattr(cli.QuantileTree, "clear", counted)
    gc.collect()
    gc.disable()
    try:
        cli.run_single(cfg, samples, 0, cfg.cost_targets, None)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert len(sizes) == (1 if mode == "expected" else 2)
    nodes = sum(sizes)
    assert nodes > 500
    assert unreachable < nodes / 20, (unreachable, nodes)


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
    # predictions: sha256 of the metrics CSV the per-set loop wrote, re-pinned
    # for exact tree masses (every threshold equal to an exact-rational search)
    stream, out = tmp_path / "s.csv", tmp_path / "m.csv"
    main(["generate", "--n", "120", "--classes", "6", "--seed", "7", "--out", str(stream)])
    code = main([
        "run", "--stream", str(stream), "--out", str(out), "--value-kind", "gen",
        "--universe", "ratio", "--classes", "6", "--seeds", "0,1", "--targets", "10,30",
        "--n-test", "60", "--burn-in", "20",
    ])
    assert code == EXIT_OK
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "ab1dda634a0ccd11fb9099bd2682ec4dc63012676d5f3859c930ee924465570e"


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


def test_aggregate_counts_a_twice_listed_target_once(tmp_path):
    stream = write_stream(tmp_path)
    assert main(run_args(stream, tmp_path / "dup.csv", targets="40,20,40")) == EXIT_OK
    assert main(run_args(stream, tmp_path / "once.csv", targets="20,40")) == EXIT_OK
    dup, once = tmp_path / "dup_aggregate.csv", tmp_path / "once_aggregate.csv"
    assert dup.read_bytes() == once.read_bytes()


# sha256 of the metrics CSV and of the --log CSV, computed with the
# per-(seed, target) controllers of the earlier sweep; its weighted-cost
# fields were written as np.float64(x) and are hashed as x. The gen-fpc,
# gen-prob and gen-full digests were computed with the Monte-Carlo proxy
# that folded every candidate over all K classes and scored the chain's
# sets a second time for selection. The stream's digest was computed while
# each CSV writer still formatted its own lines. The third digest, of the
# <out stem>_aggregate.csv file, counts the twice-listed target 20 once: it
# is the digest the same sweep gave with targets 30,5,20,45 before the
# aggregate dropped duplicate (seed, target) rows. The expected-ratio,
# expected-full and gen-full digests were re-pinned for exact tree masses,
# with every step's threshold equal to the smallest stored value whose
# exact-rational cumulative mass reaches the float q * mass
SHARED_CORE_STREAM_DIGEST = "145a537d8705b8cd2252a68d5c8daaff0814c9e06bdbffcd8e2d3af943335726"
SHARED_CORE_GOLDENS = {
    "expected-ratio": (
        [],
        "535bdef4620ce265c2bf7c89bf989a760eed60183b646ed41787457f76a1ab10",
        "ca709df0ecbd2f3fb85984ad21fc65a13423107af945529ca726c174ed6a3fcc",
        "46201b1cc2851f01c7479af1c4594f598bbe101e5c017ca896e3c8a3a1868ede",
    ),
    "expected-ratio-window": (
        ["--window", "50"],
        "add5dae8db31b560d4d0b3e6ce86e4615fe521028d96ed8785ac2bee791c7024",
        "c6e63de7745c32a72ba92dab6be4dfbe2e8d327740a91e3613b032304e51ce7b",
        "5edcd8a9b355200644ec81e6755fd171835f9f7017b8fce321b5e61d8c09611c",
    ),
    "expected-full": (
        ["--universe", "full"],
        "71c21f0f566572a63ee7421ba9ed1848fd8c8407de82b317d62c7c79e77b302c",
        "4ddc5abb22d25865c261c935d53a5fe452de7a63e4579e6a611c7e9e2bb10bd6",
        "029c30546bf46886f0534e3e8118e54744851d6557c5e5420e92fbef5316a185",
    ),
    "expected-full-window": (
        ["--universe", "full", "--window", "50"],
        "ad4eb9de0242dd83cbbf7f6e4a4d93fedc10c22e4c279abe4d14a9820a1cdbec",
        "3a677c9773f225e7639f4f0d66d4597bea277fc8544f03184e768dd13b4e25b7",
        "74f7612cda2e7cac8d89110047909572a0c094a7d0429bfe734828aff53620c0",
    ),
    "violation-ratio": (
        ["--mode", "violation"],
        "b8373a9611fdcfe35af70307ebcfb6be49fa9b899b072116a3239d8b35b265cc",
        "561e3f438c3e4dc53d26f9c648ba94d21866f45883608d299b9f809af881f616",
        "730f7b7671f20163f31ff4488fe79b1f06a1bbb6f3916f1bddd00a906c046c09",
    ),
    "violation-ratio-window": (
        ["--mode", "violation", "--window", "50"],
        "de7c5018cafa8077a5e1651673337331d6d9288d819cb731194758b2a2692e2b",
        "e08b1d2a46887b1b56296fe39db9ac9964663decc55f997248dde807da8696d6",
        "2413fff2ed47de93fa8359b214873249787c96ad803be1e7131a2d4a0bbd3f16",
    ),
    "violation-full": (
        ["--mode", "violation", "--universe", "full"],
        "8410540755104f9cef4d479ef20e66f35b42d994e7427859a765729beeb8a6cb",
        "666bfbf179f37e80b43e577134f3a0aa7b2938a0bf3ac2f11cd3ef88b9dfa48b",
        "5b26b2e4f0bce46fb8c2d65d4d8ed46992893758da25475cc54b8adc54ff6279",
    ),
    "violation-full-window": (
        ["--mode", "violation", "--universe", "full", "--window", "50"],
        "c51ab33d099c7d5cb18271924321146ad66f8539a2312285dccb34579e9c663d",
        "e37ac08492f1d635cd159d27836956c133923d3ea9a5bf8804645fea46d4287a",
        "582867844ec820970daa0ff0f523bbf28d266f942201033ec5e2b0b9142530db",
    ),
    "gen": (
        ["--value-kind", "gen", "--cost-kind", "fp"],
        "be048f2685d31ec095b7572dfd3b74429125f6784d3c7cb5466b51dd333b24e1",
        "af6b78d29a1404b72cc16411d37a341cfe69e35c9dc505b4e2a64d4d616665e9",
        "29f8dc009788bc758b6fb5f3494517102956df9314b17b0df04f5e9a1505dfa8",
    ),
    "gen-fpc": (
        ["--value-kind", "gen"],
        "ae9d490a7a944ff511662b9504ce2571a2935ba2caf10531bd86b42a811561be",
        "948f9110f89c5d0d55641bff8ff5e2c09ec81dafc5f7c01ae8d1e78f6ff379e4",
        "f3819386029b7416c1688caa299b69523e4e38f495d192226b0d75c0e4b7f6ba",
    ),
    "gen-prob": (
        ["--value-kind", "gen", "--cost-kind", "fp", "--universe", "prob"],
        "5cd34a110ff86d3d12145d1711321fbadfd160e7af691397a53197c632c8875a",
        "414e50d1766cc362d11cac167b39247511e32cc6c05f299e6cdddc9b3c821573",
        "b0b6ef4acbf8673c95e3c69c361d93d889e2474d83fb0aa10e0b75b508d0c658",
    ),
    "gen-full": (
        ["--value-kind", "gen", "--cost-kind", "fp", "--universe", "full"],
        "907f73f00697b160baff77d900810ffa608c221c01459d44344770694f4b7b35",
        "459977cc45d31d96045c85f00affad52ea0ee7a15b22f8a5fa25bc0338386b25",
        "fb3e9e84d7ba3686df04d381d81654aeb6c3f3cfa54a05221fb3bb17fa49cc9d",
    ),
}


@pytest.mark.parametrize("case", sorted(SHARED_CORE_GOLDENS))
def test_shared_core_sweep_goldens(tmp_path, case):
    # unsorted and duplicate targets, 2 seeds, tpc/fpc unless overridden
    flags, metrics_digest, log_digest, aggregate_digest = SHARED_CORE_GOLDENS[case]
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
    assert hashlib.sha256(stream.read_bytes()).hexdigest() == SHARED_CORE_STREAM_DIGEST
    assert hashlib.sha256(out.read_bytes()).hexdigest() == metrics_digest
    assert hashlib.sha256(log.read_bytes()).hexdigest() == log_digest
    aggregate = tmp_path / "m_aggregate.csv"
    assert hashlib.sha256(aggregate.read_bytes()).hexdigest() == aggregate_digest


def test_windowed_expected_powerset_on_a_duplicate_heavy_stream(tmp_path):
    # equal subset sums leave 1e-15 record weights; evicting them must
    # remove them exactly, not raise
    stream = write_stream(tmp_path, n=300, k=6, seed=3, heterogeneity=0.0)
    out = tmp_path / "m.csv"
    args = run_args(stream, out, classes="6", n_test="150", burn_in="40", universe="full",
                    window="50", value_kind="tpc", cost_kind="fpc", targets="30,5,20,20,45")
    assert main(args) == EXIT_OK


def test_missing_stream_file_exits_2(tmp_path):
    assert main(run_args(tmp_path / "nope.csv", tmp_path / "m.csv")) == EXIT_DATA


def test_bad_flag_exits_1(tmp_path, capsys):
    stream = write_stream(tmp_path)
    args = run_args(stream, tmp_path / "m.csv", universe="bogus")
    assert main(args) == EXIT_USAGE
    assert main(["frobnicate"]) == EXIT_USAGE
    # a malformed list is reported by the argument parser, and nothing is written
    malformed = [
        run_args(stream, tmp_path / "m.csv", targets="20,x"),
        run_args(stream, tmp_path / "m.csv", seeds="0,1.5"),
        ["oracle-check", "--stream", str(stream), "--targets", "20;40"],
        ["bench", "--n-grid", "1000,1e4", "--out", str(tmp_path / "b.csv")],
    ]
    for args in malformed:
        capsys.readouterr()
        assert main(args) == EXIT_USAGE, args
        assert capsys.readouterr().err.startswith("error: "), args
    assert not (tmp_path / "m.csv").exists() and not (tmp_path / "b.csv").exists()


@pytest.mark.parametrize(
    "args",
    [
        ["bench", "--n-grid", "100,200", "--reps", "0"],
        ["bench", "--n-grid", "100,200", "--oracle-reps", "0"],
        ["bench", "--n-grid", "0,100"],
        ["bench", "--n-grid", "100,-5"],
        ["oracle-check", "--checkpoints", "-3"],
        ["oracle-check", "--checkpoints", "0"],
        ["bench", "--n-grid", "100,100"],
    ],
)
def test_bad_bench_and_oracle_check_counts_exit_1(tmp_path, capsys, args):
    # a count below 1 is a usage error, reported before any work is done
    out = tmp_path / "out.csv"
    where = ["--stream", str(write_stream(tmp_path))] if args[0] == "oracle-check" else []
    assert main([*args, *where, "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "command,config",
    [(["run", "--stream", "s", "--out", "o"], RunConfig),
     (["oracle-check", "--stream", "s"], RunConfig),
     (["generate", "--out", "o"], GeneratorConfig)],
    ids=["run", "oracle-check", "generate"],
)
def test_every_config_field_is_a_flag_dest(command, config):
    # the commands read their overrides by field name
    args = vars(cli._build_parser().parse_args(command))
    assert {f.name for f in fields(config)} <= set(args)


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


def test_weights_csv_with_a_repeated_class_exits_2(tmp_path, capsys):
    stream = write_stream(tmp_path)
    wpath = tmp_path / "weights.csv"
    wpath.write_text("class_index,weight\n0,1.0\n0,2.0\n1,3.0\n2,1.0\n3,1.0\n")
    args = run_args(stream, tmp_path / "m.csv", cost_kind="fpc") + ["--weights", str(wpath)]
    capsys.readouterr()
    assert main(args) == EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error:"), err
    assert "class index 0 given twice" in err[0]


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
    assert out.read_bytes() == b"checked,matches,boundary_skips,mismatches\n8,8,0,0\n"


def test_oracle_check_runs_without_burn_in_flag(tmp_path):
    # oracle-check calibrates from burn-in 0, so the default burn-in of 1 000
    # is not held against a shorter --n-test
    stream = write_stream(tmp_path, n=2500, k=10)
    assert main(["oracle-check", "--stream", str(stream), "--n-test", "600"]) == EXIT_OK


def test_oracle_check_mismatch_exits_3(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "threshold_comparison", lambda ctrl, index: (1.0, 2.0, "mismatch"))
    stream = write_stream(tmp_path, n=200, k=4, seed=1)
    out = tmp_path / "report.csv"
    code = main([
        "oracle-check", "--stream", str(stream), "--targets", "30", "--seeds", "0",
        "--n-test", "200", "--value-kind", "tp", "--cost-kind", "fp", "--classes", "4",
        "--checkpoints", "8", "--out", str(out),
    ])
    assert code == EXIT_ASSERT
    assert out.read_bytes() == b"checked,matches,boundary_skips,mismatches\n8,0,0,8\n"


def test_oracle_check_checks_every_target_of_a_violation_run(tmp_path):
    # violation mode keeps one tree per target: each is checked at each checkpoint
    stream = write_stream(tmp_path, n=200, k=4, seed=1)
    report = oracle_check_run(
        RunConfig(
            mode="violation", cost_targets=[30.0, 10.0], delta=0.2, seeds=[0], n_test=200,
            burn_in=0, window=60, value_kind="tp", cost_kind="fp", n_classes=4,
        ),
        read_stream_csv(stream),
        checkpoints=8,
    )
    assert report.checked == 16
    assert report.mismatches == 0


def test_oracle_check_of_a_stream_shorter_than_n_test_exits_2(tmp_path, capsys):
    # it reads one n_test slice; a header-only stream would check nothing
    header_only = tmp_path / "header.csv"
    header_only.write_text("p_0,p_1,p_2,p_3,y_0,y_1,y_2,y_3\n")
    for stream in (header_only, write_stream(tmp_path, n=150)):
        code = main([
            "oracle-check", "--stream", str(stream), "--classes", "4", "--seeds", "0",
            "--n-test", "200", "--value-kind", "tp", "--cost-kind", "fp",
        ])
        assert code == EXIT_DATA
        assert "need n_test = 200" in capsys.readouterr().err


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


def test_bench_single_size_prints_no_slope(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    args = ["bench", "--n-grid", "100", "--reps", "1", "--oracle-reps", "1", "--out", str(out)]
    assert main(args) == EXIT_OK
    assert [(r["method"], r["n"]) for r in csv_rows(out)] == [("tree", "100"), ("oracle", "100")]
    assert "slope" not in capsys.readouterr().out


def test_bench_oracle_budget_marks_dnf():
    points = bench_oracle([200, 400, 800], reps=1, budget_s=0.0)
    assert points[0].per_update_seconds is None or points[0].status == "dnf"
    assert all(p.status == "dnf" for p in points[1:])


def test_fit_loglog_exponent():
    points = [BenchPoint("x", n, 1e-6 * n) for n in (10, 100, 1000)]
    assert fit_loglog_exponent(points) == pytest.approx(1.0, abs=1e-6)
    assert fit_loglog_exponent([BenchPoint("x", 10, 1.0)]) is None
