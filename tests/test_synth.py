"""Synthetic generator: determinism, calibration, label statistics."""

import math

import numpy as np
import pytest

from costcap.synth import GeneratorConfig, generate, mnist_weights


def test_homogeneous_stream_probs_and_label_mean():
    cfg = GeneratorConfig(n=10_000, n_classes=10, base_rate=0.4, seed=1)
    samples = generate(cfg)
    assert all(np.all(s.probs == 0.4) for s in samples[:20])
    sizes = [s.labels.bit_count() for s in samples]
    mean = np.mean(sizes)
    se = np.std(sizes) / math.sqrt(len(sizes))
    assert abs(mean - 4.0) <= 3 * se


def test_same_seed_bit_identical():
    cfg = GeneratorConfig(n=200, n_classes=8, heterogeneity=1.0, seed=7)
    a = generate(cfg)
    b = generate(cfg)
    assert all(np.array_equal(x.probs, y.probs) for x, y in zip(a, b))
    assert [x.labels for x in a] == [y.labels for y in b]


def test_different_seed_differs():
    a = generate(GeneratorConfig(n=50, heterogeneity=1.0, seed=1))
    b = generate(GeneratorConfig(n=50, heterogeneity=1.0, seed=2))
    assert any(not np.array_equal(x.probs, y.probs) for x, y in zip(a, b))


def test_probs_clamped():
    cfg = GeneratorConfig(n=2000, n_classes=5, heterogeneity=6.0, seed=3)
    for s in generate(cfg):
        assert np.all(s.probs >= 0.001) and np.all(s.probs <= 0.999)


def test_calibration_by_decile():
    cfg = GeneratorConfig(n=20_000, n_classes=10, heterogeneity=1.2, seed=11)
    samples = generate(cfg)
    probs = np.stack([s.probs for s in samples]).ravel()
    hits = np.concatenate(
        [[(s.labels >> k) & 1 for k in range(10)] for s in samples]
    ).astype(float)
    edges = np.quantile(probs, np.linspace(0, 1, 11))
    for lo, hi in zip(edges, edges[1:]):
        in_bucket = (probs >= lo) & (probs <= hi)
        n = int(in_bucket.sum())
        if n < 100:
            continue
        freq = hits[in_bucket].mean()
        expect = probs[in_bucket].mean()
        se = math.sqrt(max(expect * (1 - expect), 1e-6) / n)
        assert abs(freq - expect) <= 3 * se + 1e-3


def test_miscalibration_shifts_emitted_probs_only():
    base = GeneratorConfig(n=500, n_classes=6, heterogeneity=0.5, seed=5)
    skew = GeneratorConfig(
        n=500, n_classes=6, heterogeneity=0.5, seed=5, miscalibration=1.3
    )
    a = generate(base)
    b = generate(skew)
    assert [x.labels for x in a] == [y.labels for y in b]  # same label draws
    ratio = np.stack([y.probs for y in b]) / np.stack([x.probs for x in a])
    unclipped = np.stack([y.probs for y in b]) < 0.999
    assert np.allclose(ratio[unclipped], 1.3)


def test_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(n=-1)
    with pytest.raises(ValueError):
        GeneratorConfig(n=1, base_rate=0.0)
    with pytest.raises(ValueError):
        GeneratorConfig(n=1, heterogeneity=-0.1)
    with pytest.raises(ValueError):
        GeneratorConfig(n=1, miscalibration=0.0)
    with pytest.raises(ValueError):
        GeneratorConfig(n=1, n_classes=65)


def test_mnist_weights_rule():
    w = mnist_weights(10)
    assert w[0] == 10.0
    assert w[5] == 5.0
    assert list(w[1:]) == [float(k) for k in range(1, 10)]
    assert w.sum() == 55.0
