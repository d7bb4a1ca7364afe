#!/usr/bin/env python3
"""End-to-end synthetic study: stream generation, both control modes across
the default cost grid, a universe ablation, the tree-vs-direct-search check,
and the latency benchmark. Results land in ./results as CSV. Exits with the
first failing command's code: an --assert band (full size only) or an
oracle-check mismatch gives 3.

Usage: python scripts/reproduce_synthetic.py [--quick]
"""

import argparse
import sys
from pathlib import Path

from costcap.cli import main as cli_main

RESULTS = Path("results")


def run(args: list[str]) -> None:
    print(f"\n$ costcap {' '.join(args)}")
    code = cli_main(args)
    if code != 0:
        sys.exit(code)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small sizes for a fast pass")
    opts = parser.parse_args()

    RESULTS.mkdir(exist_ok=True)
    stream = RESULTS / "stream.csv"
    n_test, burn_in, seeds = (3000, 1000, "0,1,2,3,4,5,6,7,8,9")
    if opts.quick:
        n_test, burn_in, seeds = (600, 200, "0,1,2")
    n_rows = n_test * len(seeds.split(","))

    run(["generate", "--n", str(n_rows), "--classes", "10", "--base-rate", "0.4",
         "--heterogeneity", "1.0", "--seed", "20240401", "--out", str(stream)])

    sizes = ["--seeds", seeds, "--n-test", str(n_test), "--burn-in", str(burn_in),
             "--classes", "10"]
    common = ["--stream", str(stream), *sizes]
    # the CI bands are calibrated for the full-size protocol
    gate = [] if opts.quick else ["--assert"]

    # expected-cost control, plain and severity-weighted false positives
    run(["run", *common, "--mode", "expected", "--value-kind", "tpc",
         "--cost-kind", "fp", "--out", str(RESULTS / "expected_fp.csv"), *gate])
    run(["run", *common, "--mode", "expected", "--value-kind", "tp",
         "--cost-kind", "fpc", "--out", str(RESULTS / "expected_fpc.csv"), *gate])

    # violation control at the usual 10% level
    run(["run", *common, "--mode", "violation", "--delta", "0.1", "--value-kind", "tpc",
         "--cost-kind", "fp", "--out", str(RESULTS / "violation_fp.csv"), *gate])

    # universe ablation: candidate-family choice at fixed value/cost functions.
    # tpc/fp keeps the three orderings apart: with tp value every class has
    # unit value, so "value" orders like "prob", and with tpc/fpc under the
    # same weights "ratio" orders by p/(1-p), like "prob" again
    for universe in ("ratio", "prob", "value"):
        run(["run", *common, "--mode", "expected", "--universe", universe,
             "--value-kind", "tpc", "--cost-kind", "fp",
             "--out", str(RESULTS / f"ablation_{universe}.csv")])

    # the general ratio chain: a non-additive gen value, each candidate
    # priced at its cost class margin. No --assert: the bands are calibrated
    # for the runs above
    run(["run", *common, "--mode", "expected", "--universe", "ratio",
         "--value-kind", "gen", "--cost-kind", "fp",
         "--out", str(RESULTS / "expected_gen.csv")])

    # threshold equivalence against the direct search; oracle-check exits 3 on
    # a mismatch. Weighted costs rarely land on a stored cumulative mass, while
    # unweighted FP costs at target 20 land on one at every checkpoint
    run(["oracle-check", *common, "--mode", "expected", "--targets", "23.7",
         "--value-kind", "tp", "--cost-kind", "fpc", "--checkpoints", "20",
         "--out", str(RESULTS / "oracle_check.csv")])
    run(["oracle-check", *common, "--mode", "expected", "--targets", "20",
         "--value-kind", "tp", "--cost-kind", "fp", "--checkpoints", "20",
         "--out", str(RESULTS / "oracle_check_fp.csv")])
    run(["oracle-check", *common, "--mode", "violation", "--delta", "0.1",
         "--value-kind", "tpc", "--cost-kind", "fp", "--checkpoints", "20",
         "--out", str(RESULTS / "oracle_check_violation.csv")])
    # a rolling window over the power set: every step past the window evicts
    # a 1024-row record, folding it back out of each target's tree
    run(["oracle-check", *common, "--mode", "violation", "--delta", "0.1",
         "--universe", "full", "--value-kind", "tp", "--cost-kind", "fpc",
         "--window", "150", "--checkpoints", "20",
         "--out", str(RESULTS / "oracle_check_violation_window.csv")])

    # a rolling window over a chain on duplicate-heavy data: with no
    # heterogeneity every sample has the same probability vector, so every
    # record has the same proxy costs and tree points tie across records
    # while the window evicts
    flat = RESULTS / "stream_flat.csv"
    run(["generate", "--n", str(n_rows), "--classes", "10", "--base-rate", "0.4",
         "--heterogeneity", "0.0", "--seed", "20240402", "--out", str(flat)])
    run(["oracle-check", "--stream", str(flat), *sizes, "--mode", "violation",
         "--delta", "0.1", "--universe", "ratio", "--value-kind", "tpc", "--cost-kind", "fp",
         "--window", "150", "--checkpoints", "20",
         "--out", str(RESULTS / "oracle_check_violation_window_flat.csv")])
    run(["oracle-check", "--stream", str(flat), *sizes, "--mode", "expected",
         "--universe", "ratio", "--value-kind", "tp", "--cost-kind", "fpc",
         "--window", "150", "--checkpoints", "20",
         "--out", str(RESULTS / "oracle_check_expected_window_flat.csv")])

    # per-update latency scaling
    grid = "1000,10000,100000" if opts.quick else "1000,10000,100000,1000000"
    run(["bench", "--n-grid", grid, "--out", str(RESULTS / "bench.csv")])

    print(f"\nall results written under {RESULTS}/")


if __name__ == "__main__":
    main()
