"""One workload in one fresh interpreter (started by run.py).

    python3 perfbench/worker.py --workload W --seed N --seconds S --mode M

M = setup: import, warm up, print "ready" and exit; the parent times
        spawn to "ready".
M = run:   closed loop, one caller: blocks of ops are generated untimed,
        timed op by op, then checked untimed, until --seconds of timed
        wall time have passed.  The reference job (speed.py) runs between
        blocks, and each block's latencies are scaled to the reference speed
        by the runs just before and after it; the raw metrics and the plain
        ops / timed seconds are kept in the record.
M = trace: the first fixed_blocks(S) blocks, each run untraced and traced
        with every wrapped triloc function recording spans.

The last stdout line is a JSON result for run.py.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import time
from collections import Counter

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = os.path.join(HERE, "runs")
# ops_per_s is the median over WINDOWS runs of consecutive blocks of ops /
# time, so a slow spell of the host or one multi-second search (Nelder-Mead
# running to maxiter) moves one window, not the run.  op_tail_ms is the
# median over blocks of the slowest op in the block: every block holds the
# workload's whole op mix, so it reads the slowest kind of op (the search on
# transfer_mix).  A p99 of single ops read how often the host stalled: it
# spread by up to 21% over ten runs, where this spread by 3-7%.
WINDOWS = 10


def timed_pass(ops):
    answers, lat = [], []
    clock = time.perf_counter
    start = clock()
    for op in ops:
        t0 = clock()
        try:
            ans = op.fn(*op.args)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            ans = exc
        lat.append(clock() - t0)
        answers.append(ans)
    return answers, lat, clock() - start


def versions():
    out = {"python": platform.python_version()}
    for pkg in ("numpy", "scipy", "click"):
        try:
            out[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            out[pkg] = None
    return out


def warm_up(wl, rng):
    ops = [op for j in range(wl.warmup_blocks) for op in wl.block(rng, j)]
    timed_pass(ops)


class Mix:
    """Counts of the mix keys over the first `limit` blocks."""

    def __init__(self, wl, limit):
        self.wl, self.limit, self.counts, self.ops = wl, limit, Counter(), 0

    def add(self, block_ids, ops, answers):
        for j, op, ans in zip(block_ids, ops, answers):
            if j < self.limit:
                self.ops += 1
                self.counts.update(self.wl.labels(op, ans))

    def record(self):
        return {"blocks": self.limit, "ops": self.ops, "counts": dict(sorted(self.counts.items()))}


def failures(ops, answers, ok, keep=5):
    return [{"op": i, "meta": repr(op.meta), "answer": repr(ans)[:300]}
            for i, (op, ans, good) in enumerate(zip(ops, answers, ok)) if not good][:keep]


def windows(blocks, count):
    """count runs of consecutive blocks (latency lists), flattened."""
    count = max(1, min(count, len(blocks)))
    return [[t for b in blocks[w * len(blocks) // count:(w + 1) * len(blocks) // count]
             for t in b] for w in range(count)]


def timings(blocks):
    """End-to-end timings of a run from the latencies of its blocks."""
    return {"ops_per_s": statistics.median(len(w) / sum(w) for w in windows(blocks, WINDOWS)),
            "op_p50_ms": statistics.median(t for b in blocks for t in b) * 1e3,
            "op_tail_ms": statistics.median(max(b) for b in blocks) * 1e3}


def run_mode(wl, rng, seconds):
    mix = Mix(wl, wl.fixed_blocks(seconds))
    timed, j, attempted, failed, raised, bad = 0.0, 0, 0, 0, 0, []
    blocks, scaled, ref = [], [], []  # per block: raw latencies, scaled ones
    after = speed.sample()
    while timed < seconds:
        ids, ops, answers = [], [], []
        for _ in range(wl.chunk_blocks):
            block = wl.block(rng, j)
            got, lat, wall = timed_pass(block)
            # the reference job runs just before and after every block
            before, after = after, speed.sample()
            timed += wall
            blocks.append(lat)
            scaled.append([t * speed.scale(before + after) for t in lat])
            ref += before
            ids += [j] * len(block)
            ops += block
            answers += got
            j += 1
        ok = wl.check(ops, answers)
        attempted += len(ops)
        failed += ok.count(False)
        raised += sum(isinstance(a, Exception) for a in answers)
        bad += failures(ops, answers, ok, keep=5 - len(bad))
        mix.add(ids, ops, answers)
    if wl.name == "cli_cold":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "attempted": attempted, "failed": failed,
        "metrics": {**timings(scaled), "peak_rss_mb": rss_kb / 1024.0},
        "detail": {"raw": timings(blocks), "reference_s": statistics.median(ref + after),
                   "timed_s": timed, "blocks": j, "raised": raised,
                   "ops_per_timed_s": (attempted - raised) / timed,
                   "fail_frac": failed / attempted,
                   "op_tail": {"blocks": len(blocks), "ops_per_block": wl.block_ops},
                   "mix": mix.record(), "failures": bad},
    }


def trace_mode(wl, rng, seconds, spans_path):
    """Each block runs untraced and traced back to back, in alternating
    order, so host speed drift cancels out of the overhead ratio."""
    import tracer
    fixed = wl.fixed_blocks(seconds)
    rec = tracer.Recorder()
    patch = tracer.Patch(rec)
    mix = Mix(wl, fixed)
    ops, answers, traced_answers, lat = [], [], [], []
    plain = traced = 0.0

    def traced_pass(block, first):
        out = []
        patch.apply()
        start = time.perf_counter()
        try:
            for i, op in enumerate(block, first):
                try:
                    out.append(wl.traced_call(rec, i, op))
                except Exception as exc:  # recorded like the untraced pass
                    out.append(exc)
        finally:
            elapsed = time.perf_counter() - start
            patch.undo()
        return out, elapsed

    for j in range(fixed):
        block = wl.block(rng, j)
        first = len(ops)
        if j % 2:
            got_traced, t_wall = traced_pass(block, first)
            got, block_lat, wall = timed_pass(block)
        else:
            got, block_lat, wall = timed_pass(block)
            got_traced, t_wall = traced_pass(block, first)
        ops += block
        answers += got
        traced_answers += got_traced
        lat += block_lat
        plain += wall
        traced += t_wall
        mix.add([j] * len(block), block, got)
    # tracing must not change an answer
    ok = [good and repr(a) == repr(b)
          for good, a, b in zip(wl.check(ops, answers), answers, traced_answers)]

    summary = tracer.summarize(rec.spans)
    metrics = {}
    for mod, fn in tracer.WRAPPED:
        calls, total, own = summary.get(f"{mod}.{fn}", (0, 0.0, 0.0))
        metrics.update({f"{mod}.{fn}.calls": calls, f"{mod}.{fn}.self_s": own,
                        f"{mod}.{fn}.total_s": total})
    decomp = metrics["state_core.schmidt_decompose.calls"]
    metrics["state_core.schmidt_decompose.per_op"] = decomp / len(ops)
    distinct = len(rec.distinct) + rec.distinct_other
    metrics["state_core.schmidt_decompose.distinct_frac"] = distinct / decomp if decomp else 0.0
    for key in ("locc.case.A", "locc.case.B", "locc.case.C", "locc.case.D", "locc.feasible",
                "locc.violated.cond1_no_solution", "locc.violated.zeta_out_of_range",
                "locc.violated.charge_mismatch", "locc.violated.zeta_not_tilde",
                "locc.violated.charge_magnitude"):
        metrics[key] = rec.counts.get(key, 0)
    searches = metrics["transfer.search_deterministic_measurement.calls"]
    metrics["transfer.search.found_frac"] = (
        rec.counts["transfer.search.found"] / searches if searches else 0.0)
    metrics["trace.overhead_frac"] = traced / plain - 1.0
    metrics["trace.spans"] = len(rec.spans)
    metrics["trace.ops"] = len(ops)
    metrics.update(wl.layer_extra(ops, lat))
    per_op = Counter(op for name, _, _, _, op in rec.spans
                     if name == "state_core.schmidt_decompose")
    decomp_hist = Counter(per_op.get(i, 0) for i in range(len(ops)))
    tracer.dump(rec, spans_path, {"workload": wl.name, "rebound": patch.names()})
    return {
        "attempted": len(ops), "failed": ok.count(False), "metrics": metrics,
        "detail": {"untraced_s": plain, "traced_s": traced, "blocks": fixed,
                   "fail_frac": ok.count(False) / len(ops), "mix": mix.record(),
                   "decompositions_per_op": {str(k): v for k, v in sorted(decomp_hist.items())},
                   "rebound": patch.names(), "spans_file": os.path.relpath(spans_path, HERE),
                   "failures": failures(ops, answers, ok)},
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = ap.parse_args()

    if args.mode == "setup" and args.workload == "cli_cold":
        import triloc.cli  # noqa: F401  (what every cold CLI call pays)
        print("ready", flush=True)
        return
    import numpy as np
    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed, RUNS)
    try:
        warm_up(wl, np.random.default_rng([args.seed, 0]))
        if args.mode == "setup":
            print("ready", flush=True)
            return
        rng = np.random.default_rng([args.seed, 1])
        if args.mode == "run":
            result = run_mode(wl, rng, args.seconds)
        else:
            spans = os.path.join(RUNS, f"{args.workload}-seed{args.seed}.spans.json")
            result = trace_mode(wl, rng, args.seconds, spans)
    finally:
        wl.cleanup()
    result["versions"] = versions()
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
