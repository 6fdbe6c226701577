"""Run-to-run spread of the end-to-end metrics over several seeds.

Run from the repository root::

    python3 coolbench/spread.py --workload suite_cold --seeds 1 2 3 4 5

Runs the ``BENCHMARK.json`` command once per seed (untraced) and prints,
per metric, the median, the inter-quartile distance as a share of the
median, and the metric's bound.  A spread above a third of its bound is
flagged: the benchmark is not steady enough to resolve that bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from cool_stats import quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            spec["command"] + ["--workload", args.workload, "--seed",
                               str(seed), "--seconds",
                               str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        line = proc.stdout.strip().splitlines()[-1]
        result = json.loads(line)
        if proc.returncode != 0 or not result["correct"]:
            print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
            return 1
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
        print(f"seed {seed}: wall_s "
              f"{result['metrics']['wall_s']['value']:.4f}", flush=True)
    status = 0
    for metric in spec["end_to_end"]:
        series = values[metric["name"]]
        spread = quartile_spread(series) if len(series) > 1 else 0.0
        steady = spread <= metric["bound"] / 3
        if not steady and metric["name"] != "setup_s":
            status = 1
        print(f"{metric['name']:<16} median {statistics.median(series):<12.6g}"
              f" spread {spread:7.4f}  bound {metric['bound']:.2f}"
              f"{'' if steady else '  WIDE'}")
    return status


if __name__ == "__main__":
    sys.exit(main())
