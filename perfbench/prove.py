"""Steadiness check: run the benchmark on several seeds and report each spread.

    python3 perfbench/prove.py [--workloads jobs,sweep,wide] [--seeds 10] [--trace 0|1]
                               [--write FILE]

For every workload and end-to-end metric it prints the median of the runs,
their quartiles and the distance between the quartiles as a share of the
median, next to the metric's bound from BENCHMARK.json.  The seeds are 1
to --seeds, and each run measures for BENCHMARK.json's run_seconds.  The
benchmark is steady when every spread stays below a third of its bound.
--write stores the medians and quartiles as a baseline (JSON), in the
section "end_to_end" or "per_layer" of the file.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import hostref

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: outputs are not correct\n{proc.stdout}")
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", default=None, help="write the medians and quartiles here")
    args = parser.parse_args(argv)

    kind = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[kind]}
    summary, steady = {}, True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in range(1, args.seeds + 1):
            result = run_once(workload, seed, spec["run_seconds"], args.trace)
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
            print(f"{workload} seed {seed}: {result['attempted']} ops  " + "  ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
                if bounds[k] is not None), flush=True)
        summary[workload] = {}
        for name, vals in values.items():
            s = hostref.spread(vals)
            summary[workload][name] = {k: s[k] for k in ("median", "q1", "q3", "iqr_share")}
            bound = bounds[name]
            flag = ""
            if bound is not None and s["iqr_share"] > bound / 3:
                flag, steady = "  <-- above a third of the bound", False
            if bound is not None or args.trace:
                print(f"  {workload:<6} {name:<40} median {s['median']:<12.6g} "
                      f"spread {s['iqr_share']:.4f}  bound {bound}{flag}")
    if args.write:  # one section per kind of metric, so both kinds fit in one file
        path = Path(args.write)
        doc = json.loads(path.read_text()) if path.exists() else {}
        doc[kind] = summary
        path.write_text(json.dumps(doc, indent=2) + "\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
