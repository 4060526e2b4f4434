"""One workload in a fresh interpreter: import, warm up, measure, print JSON.

    python3 perfbench/worker.py --workload W --seed N --seconds S --setup-only
        import the program, warm up, print "ready" and exit;
    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
        then measure for S seconds and print the measurements as one JSON line.

Operations run in chunks of about CHUNK_S seconds, one client in a closed
loop.  The reference kernel of `hostref` runs after every chunk; each
chunk's timings are calibrated by the kernel samples around it.  Outputs are
checked, and hashed, after the chunk, outside the timed region.  With
--trace 1 every chunk runs twice, untraced and traced, in alternating order:
the traced pass gives the per-layer sums, the pair gives the tracing
overhead on identical work.

An op's latency is the CPU time of the thread while it runs
(`time.thread_time`).  The ops do no I/O and never wait, so on an idle host
this equals their wall time (within 1 % on sweep).  On a shared host it
leaves out the time the scheduler gives to other processes: with two busy
loops beside it on two cores, the wall-clock p95 of sweep doubled, while its
calibrated CPU-time p95 rose by 6 to 8 %.  The wall time of the untraced
passes is kept as the `host.*` diagnostics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

import hostref
import tracer as tracer_mod

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CHUNK_S = 0.05
# Latency slots (float32) are allocated up front, so that the harness's own
# memory, and with it peak_rss_mb, does not grow with the number of ops.
MAX_OPS = 1_000_000
MAX_FAILURES_SHOWN = 5
VERIFICATION_REPEATS = 3
# The warm-up inputs are the same for every seed, so that setup_s measures
# the same work whatever the seed.
WARMUP_SEED = 0


def import_program():
    """Import the package from the checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import cusp_atlas

    location = Path(cusp_atlas.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise SystemExit(f"cusp_atlas imported from {location}, not from {SRC}")


def run_pass(execute, ops, tracer=None, first_op=0):
    """Execute ops back to back; return their latencies (CPU s) and outcomes."""
    latencies, outcomes = [], []
    clock = time.thread_time
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = first_op + i
        t0 = clock()
        try:
            out = execute(op)
        except Exception as exc:  # an unexpected exception fails the op
            out = exc
        latencies.append(clock() - t0)
        outcomes.append(out)
    return latencies, outcomes


def percentile(sorted_values, pct):
    """Linear interpolation between closest ranks."""
    pos = pct / 100.0 * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


class Measurement:
    def __init__(self, workload, traced: bool):
        self.wl = workload
        self.refs = [hostref.sample_ms()]
        self.chunk_ops: list[int] = []          # ops per chunk
        self.raw = array("f", bytes(4 * MAX_OPS))  # untraced latency per op (s)
        self.traced_raw = array("f", bytes(4 * MAX_OPS)) if traced else None
        self.traced_stats: list[tuple] = []     # tracer sums per chunk
        self.out_bytes = 0
        self.wall_s = 0.0                       # wall time of the untraced passes
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.bodies: list[bytes] = []

    def check(self, ops, outcomes_by_pass):
        for i, op in enumerate(ops):
            messages = []
            for outcomes in outcomes_by_pass:
                out = outcomes[i]
                if isinstance(out, Exception):
                    messages.append(f"{op.slot}: unexpected {type(out).__name__}: {out}")
                else:
                    msg = self.wl.check(op, out)
                    if msg:
                        messages.append(msg)
            self.attempted += 1
            if messages:
                self.failed += 1
                if len(self.failures) < MAX_FAILURES_SHOWN:
                    self.failures.append(messages[0][:500])
            first = outcomes_by_pass[0][i]
            if len(self.bodies) < self.wl.digest_ops and not isinstance(first, Exception):
                self.bodies.append(self.wl.body(op, first))

    def run(self, seconds: float, tracer=None):
        wl = self.wl
        per_chunk = 1
        deadline = time.perf_counter() + seconds
        chunk = 0
        while ((time.perf_counter() < deadline or self.attempted < wl.digest_ops)
               and self.attempted < MAX_OPS):
            ops = [wl.next_op() for _ in range(min(per_chunk, MAX_OPS - self.attempted))]
            start, end = self.attempted, self.attempted + len(ops)
            if tracer is None:
                wall0 = time.perf_counter()
                lat, plain = run_pass(wl.execute, ops)
                self.wall_s += time.perf_counter() - wall0
                passes = [plain]
            else:
                traced_first = chunk % 2 == 1
                if traced_first:
                    traced = self._traced_pass(ops, tracer, start, end)
                wall0 = time.perf_counter()
                lat, plain = run_pass(wl.execute, ops)
                self.wall_s += time.perf_counter() - wall0
                if not traced_first:
                    traced = self._traced_pass(ops, tracer, start, end)
                passes = [plain, traced]
                self.out_bytes += sum(len(o.body) for o in traced
                                      if not isinstance(o, Exception) and o.body)
            self.raw[start:end] = array("f", lat)
            self.refs.append(hostref.sample_ms())
            self.chunk_ops.append(len(ops))
            self.check(ops, passes)
            per_chunk = max(1, min(1000, round(CHUNK_S * len(ops) / max(sum(lat), 1e-9))))
            chunk += 1

    def _traced_pass(self, ops, tracer, start, end):
        tracer.install()
        try:
            lat, outcomes = run_pass(self.wl.execute, ops, tracer, start)
        finally:
            tracer.uninstall()
        self.traced_raw[start:end] = array("f", lat)
        self.traced_stats.append(tracer.drain())
        return outcomes

    def calibrated(self, raw):
        """Latencies in ms, each scaled by the factor of its chunk."""
        out, i = [], 0
        for f, n in zip(hostref.factors(self.refs), self.chunk_ops):
            out.extend(x * f * 1000.0 for x in raw[i:i + n])
            i += n
        return out

    def end_to_end(self) -> dict:
        lat = self.calibrated(self.raw)  # ms; the chunks cover exactly the ops run
        total_s = sum(lat) / 1000.0
        ordered = sorted(lat)
        tail = percentile(ordered, self.wl.tail_pct)
        return {
            "ops_per_s": len(lat) / total_s,
            "op_p50_ms": percentile(ordered, 50.0),
            "op_tail_ms": tail,
            "tail_pct": self.wl.tail_pct,
            "tail_beyond": sum(1 for x in ordered if x > tail),
            "samples": len(lat),
        }

    def host(self) -> dict:
        raw = self.raw[:self.attempted]
        return {
            "raw_ops_per_s": len(raw) / self.wall_s,
            "raw_p50_ms": statistics.median(raw) * 1000.0,
            "wall_over_cpu": self.wall_s / sum(raw),
            "ref": hostref.spread(self.refs),
        }

    def layers(self) -> dict:
        """Per-op layer sums of the traced passes, calibrated chunk by chunk."""
        calls, self_ms, errors = {}, {}, {}
        incl, outer = {}, {}
        counts: dict[str, float] = {}
        for f, (stats, extra) in zip(hostref.factors(self.refs), self.traced_stats):
            for key, (n, self_s, incl_s, err, n_outer) in stats.items():
                layer = key.split(".", 1)[0]
                calls[layer] = calls.get(layer, 0) + n
                self_ms[layer] = self_ms.get(layer, 0.0) + self_s * f * 1000.0
                errors[layer] = errors.get(layer, 0) + err
                incl[key] = incl.get(key, 0.0) + incl_s * f * 1000.0
                outer[key] = outer.get(key, 0) + n_outer
                counts[key] = counts.get(key, 0) + n
            for name, value in extra.items():
                counts[name] = counts.get(name, 0) + value
        n = self.attempted
        traced_ms = sum(self.calibrated(self.traced_raw))
        plain_ms = sum(self.calibrated(self.raw))
        out = {}
        for layer in tracer_mod.LAYERS:
            out[f"{layer}.calls"] = calls.get(layer, 0) / n
            out[f"{layer}.self_ms"] = self_ms.get(layer, 0.0) / n
            out[f"{layer}.share"] = 100.0 * self_ms.get(layer, 0.0) / traced_ms
            out[f"{layer}.errors"] = errors.get(layer, 0) / n
        group = tracer_mod.MULTISET_GROUP + "."
        out.update({
            "cli.parse_ms": incl.get("cli.parse_input", 0.0) / n,
            "cli.run_ms": incl.get("cli.run", 0.0) / n,
            "cli.emit_ms": incl.get("cli.emit", 0.0) / n,
            "cli.out_bytes": self.out_bytes / n,
            "cuspsupport.support_calls": counts.get("cuspsupport.support", 0) / n,
            "cuspsupport.psi_calls": counts.get("cuspsupport.support_via_psi", 0) / n,
            "cuspsupport.order_search_ms": incl.get("cuspsupport.all_order_slice_supports", 0.0) / n,
            "lparams.exponent_entries": counts.get("lparams.exponent_entries", 0) / n,
            "lparams.multiset_ops": sum(v for k, v in outer.items() if k.startswith(group)) / n,
            "lparams.multiset_ms": sum(v for k, v in incl.items() if k.startswith(group)) / n,
            "springer.datum_calls": counts.get("springer.springer_datum", 0) / n,
            "springer.eliminate_calls": counts.get("springer.eliminate", 0) / n,
            "symbols.symbol_calls": counts.get("symbols.symbol_from_character", 0) / n,
            "census.enumerate_ms": incl.get("census.unipotent_census", 0.0) / n,
            "trace.overhead": traced_ms / plain_ms - 1.0,
            "harness.share": 100.0 * (1.0 - sum(self_ms.values()) / traced_ms),
        })
        return out


def time_verifications() -> tuple[dict, list[str]]:
    """Seconds of each selfcheck check at the default Limits(), calibrated; failures."""
    from cusp_atlas import verifications

    limits = verifications.Limits()
    checks = {
        "count_identity": lambda: verifications.check_count_identity(limits.census),
        "defect_coherence": lambda: verifications.check_defect_coherence(limits.defect),
        "order_independence": lambda: verifications.check_order_independence(limits.orders),
        "cuspidal_fixed_points": lambda: verifications.check_cuspidal_fixed_points(limits.cuspidal),
        "support_invariants": lambda: verifications.check_support_invariants(limits.support),
    }
    out, failures = {}, []
    for name, check in checks.items():
        samples = []
        for _ in range(VERIFICATION_REPEATS):
            before = hostref.sample_ms()
            t0 = time.thread_time()
            ok, detail = check()
            elapsed = time.thread_time() - t0
            after = hostref.sample_ms()
            samples.append(elapsed * hostref.scale(statistics.median((before, after))))
            if not ok:
                failures.append(f"verifications.{name}: {detail}")
        out[f"verifications.{name}_s"] = statistics.median(samples)
    return out, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None, help="file for the traced spans (JSON lines)")
    args = parser.parse_args(argv)

    import_program()
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    warm = cls(WARMUP_SEED, stream="warmup")
    for op in warm.warmup_ops():
        warm.execute(op)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    m = Measurement(cls(args.seed), traced=bool(args.trace))
    result = {}
    if args.trace:
        tracer = tracer_mod.Tracer()
        m.run(args.seconds, tracer)
        result["layers"] = m.layers()
        result["spans"] = tracer.write_spans(args.spans) if args.spans else 0
        timings, result["verification_failures"] = time_verifications()
        result["layers"].update(timings)
    else:
        m.run(args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["end_to_end"] = m.end_to_end()
        result["end_to_end"]["peak_rss_mb"] = peak_rss_mb
    result.update({
        "attempted": m.attempted,
        "failed": m.failed,
        "failures": m.failures,
        "digest": workloads.digest(m.bodies),
        "digest_ops": len(m.bodies),
        "host": m.host(),
    })
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
