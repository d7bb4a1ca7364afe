"""Streams: the two-array ``Stream``, ``generate``'s output, and the stream
CSV reader and writer against their one-row-at-a-time references."""

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from costcap import Sample, Stream, cli
from costcap.cli import (
    DataError,
    RunConfig,
    read_stream_csv,
    run_experiment,
    slice_stream,
    write_stream_csv,
)
from costcap.set_functions import full_set
from costcap.synth import GeneratorConfig, generate

from .oracles import reference_read_stream_csv, reference_write_stream_csv


def small_stream(n=7, k=3, seed=0) -> Stream:
    return generate(GeneratorConfig(n=n, n_classes=k, heterogeneity=1.0, seed=seed))


# ----------------------------------------------------------------------
# the Stream sequence


def test_indexing_makes_samples_that_view_the_rows():
    stream = small_stream()
    assert len(stream) == 7 and stream.n_classes == 3
    for i, sample in enumerate(stream):
        assert type(sample) is Sample
        assert np.shares_memory(sample.probs, stream.probs)
        assert sample.probs.tobytes() == stream.probs[i].tobytes()
        assert sample.labels == stream.labels[i] and type(sample.labels) is int
        assert stream[i].probs.tobytes() == sample.probs.tobytes()
        assert stream[i].labels == sample.labels
    assert stream[-1].probs.tobytes() == stream[6].probs.tobytes()
    assert stream[-7].labels == stream[0].labels
    assert stream[np.int64(2)].labels == stream[2].labels


@pytest.mark.parametrize("index", [7, -8, 10**6])
def test_an_index_past_either_end_raises_index_error(index):
    with pytest.raises(IndexError):
        small_stream()[index]


@pytest.mark.parametrize("index", [1.0, "1", None, (0, 1)])
def test_an_index_that_is_not_an_int_raises_type_error(index):
    with pytest.raises(TypeError):
        small_stream()[index]


def test_slices_are_stream_views():
    stream = small_stream()
    part = stream[2:5]
    assert type(part) is Stream and len(part) == 3 and part.n_classes == 3
    assert np.shares_memory(part.probs, stream.probs)
    assert part.labels == stream.labels[2:5]
    assert part[0].probs.tobytes() == stream[2].probs.tobytes()
    every_other = stream[::-2]
    assert [s.labels for s in every_other] == stream.labels[::-2]
    empty = stream[5:2]
    assert len(empty) == 0 and empty.n_classes == 3 and list(empty) == []


def test_probs_are_read_only():
    stream = small_stream()
    with pytest.raises(ValueError):
        stream.probs[0, 0] = 0.5
    with pytest.raises(ValueError):
        stream[0].probs[0] = 0.5
    with pytest.raises(ValueError):
        stream[1:3].probs[0, 0] = 0.5


def test_an_empty_stream_keeps_its_class_count():
    stream = Stream(np.empty((0, 5)), [])
    assert len(stream) == 0 and stream.n_classes == 5 and not stream
    assert generate(GeneratorConfig(n=0, n_classes=4)).n_classes == 4


@pytest.mark.parametrize(
    "probs,labels",
    [(np.zeros(3), [0, 0, 0]), (np.zeros((2, 3, 1)), [0, 0]), (np.zeros((3, 2)), [0, 1])],
)
def test_a_stream_needs_an_n_by_k_array_and_n_masks(probs, labels):
    with pytest.raises(ValueError):
        Stream(probs, labels)


def test_sample_is_slotted_and_no_longer_frozen():
    sample = Sample(np.array([0.25, 0.5]), 2)
    assert not hasattr(sample, "__dict__")
    sample.labels = 3
    assert sample.labels == 3 and sample.n_classes == 2


# generate's stream, hashed as (probs bytes, 8-byte little-endian mask) per
# sample: the same digests as the list of frozen Samples it replaced
GENERATE_DIGESTS = [
    (dict(n=257, n_classes=7, heterogeneity=1.0, seed=3), "505976e844106a36af26acf38fe464d7"),
    (
        dict(n=257, n_classes=7, heterogeneity=1.0, seed=3, miscalibration=1.3),
        "847bb1a1bd5d035837a222ac796c8196",
    ),
    (dict(n=257, n_classes=7, heterogeneity=0.0, seed=3), "56d7d1261184257c5e03d320eedea2f7"),
    (dict(n=100, n_classes=64, heterogeneity=2.0, seed=8), "75cd264fdf1cfbd61c4c79b83ec5f1c6"),
    (
        dict(n=100, n_classes=1, heterogeneity=0.5, seed=9, miscalibration=0.7),
        "02565977d9e7c893732583f97e2d7f09",
    ),
]


@pytest.mark.parametrize("config,digest", GENERATE_DIGESTS)
def test_generate_is_bit_identical_to_the_sample_list(config, digest):
    stream = generate(GeneratorConfig(**config))
    assert type(stream) is Stream and stream.probs.flags.c_contiguous
    h = hashlib.sha256()
    for sample in stream:
        h.update(sample.probs.tobytes())
        h.update(sample.labels.to_bytes(8, "little"))
    assert h.hexdigest()[:32] == digest


def test_slice_stream_and_run_experiment_take_a_stream():
    stream = generate(GeneratorConfig(n=300, n_classes=4, heterogeneity=1.0, seed=2))
    cfg = RunConfig(seeds=[0, 1], n_test=150, burn_in=40, n_classes=4, cost_targets=[10.0, 30.0])
    slices = slice_stream(cfg, stream)
    assert all(type(part) is Stream and len(part) == 150 for part in slices)
    assert all(np.shares_memory(part.probs, stream.probs) for part in slices)
    rows, log = run_experiment(cfg, stream)
    list_rows, list_log = run_experiment(cfg, list(stream))

    def untimed(row):
        return (row.target_cost, row.n_predictions, row.mean_value, row.excess_cost,
                row.violation_frequency)

    assert [untimed(r) for r in rows] == [untimed(r) for r in list_rows]
    assert list(log) == list(list_log)


# ----------------------------------------------------------------------
# the stream CSV against the per-row references

FUNCTION_SCOPED = dict(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])

# spellings ``float`` accepts, which the reader must keep accepting
GOOD_PROBS = st.one_of(
    st.floats(0.0, 1.0).map(lambda x: f"{x:.9f}"),
    st.floats(0.0, 1.0).map(repr),
    st.sampled_from(
        [" 0.5 ", "1_0e-1", "5E-1", "+0.25", ".5", "0.", "1", "0", "-0.0", "\t1e-3", "0_0.1_5"]
    ),
)
BAD_PARSE = st.sampled_from(["nope", "", "0.5.5", "1__0", "_1", "0x1", "1e", "--1", "½"])
OUT_OF_RANGE = st.sampled_from(
    ["1.5", "-0.1", "nan", "NaN", " inf", "-inf", "1e400", "1.0000001", "-1e-300"]
)
BAD_LABEL = st.sampled_from(["2", " 1", "1 ", "", "1.0", "true", "01", "-0", "x"])
DEFECTS = ("fields", "parse", "range", "label")


@st.composite
def stream_texts(draw):
    """(K, CSV text): a valid K-class stream, optionally with up to three
    flaws, each a wrong field count, an unparsable or out-of-range
    probability, or a bad label, at a drawn row and column."""
    k = draw(st.integers(1, 64))
    n = draw(st.integers(0, 7))
    rows = [
        [draw(GOOD_PROBS) for _ in range(k)] + [draw(st.sampled_from("01")) for _ in range(k)]
        for _ in range(n)
    ]
    if n:
        flaws = draw(st.lists(st.sampled_from(DEFECTS), max_size=3))
        # the cells first, so that a row's field count changes only after
        for defect in sorted(flaws, key=lambda defect: defect == "fields"):
            row = rows[draw(st.integers(0, n - 1))]
            if defect == "fields":
                if draw(st.booleans()):
                    row.append("0")
                else:
                    row.pop()
            elif defect == "label":
                row[k + draw(st.integers(0, k - 1))] = draw(BAD_LABEL)
            else:
                cells = BAD_PARSE if defect == "parse" else OUT_OF_RANGE
                row[draw(st.integers(0, k - 1))] = draw(cells)
    header = [f"p_{i}" for i in range(k)] + [f"y_{i}" for i in range(k)]
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return k, "".join(",".join(row) + end for row in [header, *rows])


def read_outcome(read, path):
    """The error message a reader raises, or its samples as (probs bytes,
    mask) pairs."""
    try:
        samples = read(path)
    except DataError as exc:
        return str(exc)
    return [(s.probs.tobytes(), s.labels) for s in samples]


@settings(max_examples=300, **FUNCTION_SCOPED)
@given(text=stream_texts(), block=st.sampled_from([1, 2, 3, cli._READ_BLOCK]))
def test_reader_matches_the_per_row_reference(tmp_path, text, block):
    # same probability bits, masks and error lines, whatever the block size
    k, body = text
    path = tmp_path / "s.csv"
    path.write_bytes(body.encode())
    with mock.patch.object(cli, "_READ_BLOCK", block):
        got = read_outcome(read_stream_csv, path)
        if not isinstance(got, str):
            assert read_stream_csv(path).n_classes == k
    assert got == read_outcome(reference_read_stream_csv, path)


@settings(max_examples=100, **FUNCTION_SCOPED)
@given(k=st.integers(1, 64), data=st.data())
def test_writer_bytes_equal_the_per_row_reference(tmp_path, k, data):
    n = data.draw(st.integers(1, 5))
    probs = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n * k, max_size=n * k))
    masks = data.draw(st.lists(st.integers(0, full_set(k)), min_size=n, max_size=n))
    stream = Stream(np.array(probs).reshape(n, k), masks)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_stream_csv(got, stream)
    reference_write_stream_csv(want, list(stream))
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("k", [1, 4, 64])
def test_an_empty_stream_round_trips_with_its_header(tmp_path, k):
    path = tmp_path / "e.csv"
    write_stream_csv(path, Stream(np.empty((0, k)), []))
    header = ",".join([f"p_{i}" for i in range(k)] + [f"y_{i}" for i in range(k)])
    assert path.read_text() == header + "\n"
    back = read_stream_csv(path)
    assert type(back) is Stream and len(back) == 0 and back.n_classes == k
    assert back.probs.shape == (0, k)
    assert cli.main(["generate", "--n", "0", "--classes", str(k), "--out", str(path)]) == 0
    assert path.read_text() == header + "\n"


def test_a_stream_file_that_is_not_csv_is_a_data_error(tmp_path):
    path = tmp_path / "s.csv"
    path.write_bytes(b"p_0,y_0\n0.5,1\n\xff\xfe,0\n")
    with pytest.raises(DataError, match="s.csv"):
        read_stream_csv(path)
    path.write_text("p_0,y_0\n0." + "1" * 200_000 + ",1\n")
    with pytest.raises(DataError, match=r"s\.csv:2: field larger than field limit"):
        read_stream_csv(path)
