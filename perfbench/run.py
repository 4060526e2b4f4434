"""The cusp-atlas benchmark: one workload, end to end or traced by layer.

    python3 perfbench/run.py --workload jobs|sweep|wide --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its src/.
With --trace 0 the last line of output is a JSON object with the end-to-end
metrics of BENCHMARK.json; with --trace 1 it carries the per-layer metrics.
The lines before it are diagnostics for people: the failures, the output
digest, the host.* raw timings and the spread of the reference timings.

Every process is fresh: setup_s is the median over SETUP_RUNS new
interpreters that import cusp_atlas and warm up, the workload is measured in
one more, and cli.cold_ms times whole `cusp-atlas validate` processes.  The
processes are calibrated against the reference process of `hostref`, run
between them; the timings inside the worker against its reference kernel.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostref

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
REFERENCE = [sys.executable, str(HERE / "hostref.py")]
WORKLOADS = ("jobs", "sweep", "wide")
SETUP_RUNS = 21
COLD_RUNS = 5
PROCESS_TIMEOUT_S = 60.0
CONSOLE_SCRIPT = "import sys; from cusp_atlas.cli import main; sys.exit(main())"
COLD_JOB = b'{"command": "validate", "group": {"family": "Sp", "N": 6}, "partition": [4, 2]}'

class BenchError(Exception):
    pass


def child_env(**extra) -> dict:
    """The caller's environment without Python or program settings, hash seed fixed."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and not k.startswith("CUSP_ATLAS")}
    env["PYTHONHASHSEED"] = "0"
    env.update(extra)
    return env


def spawn(cmd: list[str], stdin: bytes = b"", until_line: bool = False,
          env: dict | None = None) -> tuple[float, bytes]:
    """Seconds from start to exit (or to the first output line), and stdout."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT,
                            env=env or child_env())
    try:
        if until_line:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            out, err = proc.communicate(timeout=PROCESS_TIMEOUT_S)
            out = line + out
        else:
            out, err = proc.communicate(stdin or None, timeout=PROCESS_TIMEOUT_S)
            elapsed = time.perf_counter() - t0
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{' '.join(cmd)} timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited with {proc.returncode}: "
                         f"{err.decode(errors='replace')[-2000:]}")
    return elapsed, out


def process_samples(cmd: list[str], runs: int, **spawn_args) -> dict:
    """Calibrated and raw seconds of `runs` processes, their outputs and the reference times.

    A reference process (see `hostref`) runs before the first process and
    after each one; each sample is calibrated by those around it.
    """
    refs = [spawn(REFERENCE, until_line=True)[0]]
    raw, outs = [], []
    for _ in range(runs):
        seconds, out = spawn(cmd, **spawn_args)
        refs.append(spawn(REFERENCE, until_line=True)[0])
        raw.append(seconds)
        outs.append(out)
    medians = hostref.window_medians(refs, hostref.PROCESS_WINDOW)
    calibrated = [s * hostref.PROCESS_NOMINAL_S / r for s, r in zip(raw, medians)]
    return {"calibrated": calibrated, "raw": raw, "outs": outs, "refs": refs}


def worker_cmd(args, *extra) -> list[str]:
    return [sys.executable, str(WORKER), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]


def measure_setup(args) -> dict:
    """Set-up times of fresh workers, up to their "ready" line."""
    cmd = worker_cmd(args, "--setup-only")
    for untimed in (cmd, REFERENCE):  # the first runs compile the byte code
        spawn(untimed, until_line=True)
    return process_samples(cmd, SETUP_RUNS, until_line=True)


def measure_cold_cli() -> list[float]:
    """Calibrated ms of whole `cusp-atlas validate` processes, as the console script runs."""
    cmd = [sys.executable, "-c", CONSOLE_SCRIPT, "validate", "--input", "-"]
    env = child_env(PYTHONPATH=str(ROOT / "src"))
    samples = process_samples(cmd, COLD_RUNS, stdin=COLD_JOB, env=env)
    for out in samples["outs"]:
        if json.loads(out).get("valid") is not True:
            raise BenchError(f"cold validate printed {out!r}")
    return [s * 1000.0 for s in samples["calibrated"]]


def run_worker(args) -> dict:
    extra = ["--trace", str(args.trace)]
    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        extra += ["--spans", str(out_dir / f"spans-{args.workload}.jsonl")]
    _, out = spawn(worker_cmd(args, *extra))
    return json.loads(out.decode().strip().splitlines()[-1])


def report(args, result: dict, metrics: dict, problems: list[str]) -> None:
    host = result["host"]
    ref = host["ref"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"ops {result['attempted']}  failed {result['failed']}  "
          f"error_rate {result['failed'] / result['attempted']:.6f}")
    for line in problems:
        print(f"FAILED {line}")
    print(f"digest sha256 {result['digest']} over the first {result['digest_ops']} ops")
    e2e = result.get("end_to_end")
    if e2e:
        print(f"op_tail_ms is p{e2e['tail_pct']} of {e2e['samples']} ops, "
              f"{e2e['tail_beyond']} samples beyond it")
    print(f"host.raw_ops_per_s {host['raw_ops_per_s']:.4f} (wall clock)  "
          f"host.raw_p50_ms {host['raw_p50_ms']:.5f} (CPU time)  "
          f"host.wall_over_cpu {host['wall_over_cpu']:.4f}")
    if "setup" in result:
        setup, refs = result["setup"], hostref.spread(result["setup"]["refs"])
        print(f"host.setup_raw_s {statistics.median(setup['raw']):.5f}  "
              f"spread of the calibrated samples {hostref.spread(setup['calibrated'])['iqr_share']:.3f}")
        print(f"host.ref_process_s median {refs['median']:.5f}  spread {refs['iqr_share']:.3f}  "
              f"samples {refs['n']}  (set-up is scaled to {hostref.PROCESS_NOMINAL_S} s)")
    print(f"host.ref_ms median {ref['median']:.4f}  quartiles {ref['q1']:.4f}..{ref['q3']:.4f}  "
          f"spread {ref['iqr_share']:.3f}  range {ref['min']:.4f}..{ref['max']:.4f}  "
          f"samples {ref['n']}  (timings are scaled to {hostref.NOMINAL_MS} ms)")
    if args.trace:
        print(f"spans written: {result['spans']}; no layer waits: one thread, no queues; "
              f"harness and json.loads share {result['layers']['harness.share']:.2f} %")
    width = max(len(k) for k in metrics)
    for name, m in metrics.items():
        print(f"  {name:<{width}}  {m['value']:.6g} {m['unit']}")


def metrics_of(kind: str, values: dict) -> dict:
    """The metrics BENCHMARK.json lists under kind, in its order and units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cusp_atlas" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'cusp_atlas'} is missing", file=sys.stderr)
        return 2
    try:
        if args.trace:
            cold_ms = measure_cold_cli()
            result = run_worker(args)
            values = dict(result["layers"])
            values["cli.cold_ms"] = statistics.median(cold_ms)
            values["host.ref_ms"] = result["host"]["ref"]["median"]
            values["host.raw_ops_per_s"] = result["host"]["raw_ops_per_s"]
            metrics = metrics_of("per_layer", values)
        else:
            setup = measure_setup(args)
            result = run_worker(args)
            e2e = result["end_to_end"]
            values = {"ops_per_s": e2e["ops_per_s"], "op_p50_ms": e2e["op_p50_ms"],
                      "op_tail_ms": e2e["op_tail_ms"],
                      "setup_s": statistics.median(setup["calibrated"]),
                      "peak_rss_mb": e2e["peak_rss_mb"]}
            result["setup"] = setup
            metrics = metrics_of("end_to_end", values)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    problems = result["failures"] + result.get("verification_failures", [])
    report(args, result, metrics, problems)
    print(json.dumps({"correct": result["failed"] == 0 and not problems,
                      "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
