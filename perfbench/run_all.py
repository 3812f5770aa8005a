"""Run every workload in BENCHMARK.json once and print one table.

Usage (from the repository root)::

    python3 perfbench/run_all.py --seed 1 [--trace 0]

Each workload runs in its own ``run.py`` process, one after another.  The
table gives each end-to-end metric (or, with ``--trace 1``, each per-layer
metric) by name and unit, plus ``correct``, ``attempted`` and ``failed``.
Exits 1 if any workload's outputs were not correct.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    results = {}
    for workload in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run(
            spec["command"] + ["--workload", workload, "--seed", str(args.seed),
                               "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        results[workload] = json.loads(lines[-1])

    names = list(results)
    print(f"{'metric':36s} {'unit':9s} " + " ".join(f"{n:>13s}" for n in names))
    for key in ("correct", "attempted", "failed"):
        print(f"{key:36s} {'':9s} " + " ".join(f"{str(results[n][key]):>13s}" for n in names))
    for metric in (m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]):
        unit = results[names[0]]["metrics"][metric]["unit"]
        values = " ".join(f"{results[n]['metrics'][metric]['value']:13.6g}" for n in names)
        print(f"{metric:36s} {unit:9s} {values}")
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
