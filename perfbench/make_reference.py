#!/usr/bin/env python3
"""Regenerate perfbench/reference.json.

For each workload and stream seed, runs one untimed full-size pass and
stores its prediction digest (for the sweep, of the ``write_metrics_csv``
bytes). A benchmark run whose digest differs counts a failed operation, so
only regenerate the file when a change is meant to alter predictions. Run
from the root of a costcap checkout:

    python3 perfbench/make_reference.py --seeds 0-63,101
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import run


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default=str(run.DEFAULT_SEED), help="e.g. 0-31,101")
    parser.add_argument("--workload", choices=run.WORKLOAD_NAMES, action="append")
    args = parser.parse_args(argv)
    run.load_costcap()
    import workloads as wk

    try:
        table = json.loads(run.REFERENCE.read_text())
    except FileNotFoundError:
        table = {"digests": {}}
    run.OUT_DIR.mkdir(exist_ok=True)
    for name in args.workload or run.WORKLOAD_NAMES:
        wl = wk.WORKLOADS["full"][name]
        digests = table["digests"].setdefault(name, {})
        for seed in parse_seeds(args.seeds):
            cfg, stream, _, _ = wk.set_up(wl, seed)
            if wl.sweep:
                with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
                    p = wk.sweep_pass(cfg, stream, Path(tmp))
            else:
                p = wk.online_pass(cfg, stream)
            if p.errors:
                print(f"{name} seed {seed}: not stored, {p.errors} steps raised")
                continue
            digests[str(seed)] = p.digest
            ok, detail = wk.guarantee_check(cfg, p)
            print(f"{name} seed {seed}: {p.digest}  guarantee {'ok' if ok else 'FAILED'}: "
                  f"{detail}", flush=True)
        table["digests"][name] = dict(sorted(digests.items(), key=lambda kv: int(kv[0])))
        run.REFERENCE.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
