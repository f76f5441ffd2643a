"""triloc benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ./src.  With
--trace 0 it prints the end-to-end metrics of BENCHMARK.json, with --trace 1
the per-layer ones.  The last stdout line is the JSON result; the full run
record (versions, mix, raw timings, failures) goes to
perfbench/runs/<workload>-seed<N>-trace<T>.json.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = os.path.join(HERE, "runs")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("cli_cold", "profile_stream", "locc_pairs", "transfer_mix")

SETUPS = 7          # fresh set-ups per run; setup_s is their median
IMPORT_REPEATS = 3  # -X importtime samples per traced run
START_REPEATS = 5   # bare interpreter starts per traced run
STEP_TIMEOUT = 60   # seconds for one set-up or import probe
RUN_GRACE = 120     # seconds a worker may take beyond --seconds


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def spawn(cmd, env):
    """Start cmd in a process group of its own, so stop() also ends the CLI
    processes a cli_cold worker starts."""
    return subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)


def stop(proc):
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()


def time_to_ready(cmd, env):
    """Seconds from spawning cmd until it prints its first line."""
    start = time.perf_counter()
    proc = spawn(cmd, env)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], STEP_TIMEOUT)
        line = proc.stdout.readline() if ready else ""
        elapsed = time.perf_counter() - start
        if line.strip() != "ready":
            fail(f"set-up did not report ready: {cmd}")
        proc.stdout.read()
        if proc.wait(timeout=STEP_TIMEOUT) != 0:
            fail(f"set-up exited with {proc.returncode}: {cmd}")
        return elapsed
    finally:
        stop(proc)


def run_worker(cmd, env, timeout):
    proc = spawn(cmd, env)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"worker exceeded {timeout:.0f} s")
    finally:
        stop(proc)
    if proc.returncode != 0 or not out.strip():
        fail(f"worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def import_breakdown(env):
    """Seconds `import triloc.cli` spends in each package, from -X importtime.

    numpy, scipy and click are charged the cumulative time of each import of
    them made outside all three, so numpy loaded by scipy counts as scipy;
    import.triloc_s is the whole import.
    """
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import triloc.cli"],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=STEP_TIMEOUT)
    if proc.returncode != 0:
        fail("import triloc.cli failed")
    rows = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        _, cumulative, name = line.split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append((depth, name.strip(), int(cumulative)))
    parts = {"numpy", "scipy", "click"}
    out = {"numpy": 0, "scipy": 0, "click": 0, "triloc": 0}
    stack = []  # importtime prints children before parents: walk it reversed
    for depth, name, cumulative in reversed(rows):
        del stack[depth:]
        top = name.split(".")[0]
        inside = {n.split(".")[0] for n in stack}
        if (top in parts and not inside & parts) or (top == "triloc" and not stack):
            out[top] += cumulative
        stack.append(name)
    return {f"import.{k}_s": v / 1e6 for k, v in out.items()}


def python_start_ms(env):
    times = []
    for _ in range(START_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT, check=True,
                       timeout=STEP_TIMEOUT)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def provenance():
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=STEP_TIMEOUT).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for base, _, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {"git_sha": sha, "src_sha256": digest.hexdigest(), "nproc": os.cpu_count()}


def main():
    # a terminated run still stops its worker: SystemExit runs the finally blocks
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "triloc", "__init__.py")):
        fail("no triloc sources under ./src")
    if not os.path.isfile(spec_path):
        fail("no BENCHMARK.json")
    with open(spec_path) as fh:
        spec = json.load(fh)
    os.makedirs(RUNS, exist_ok=True)
    env = child_env()
    base = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **provenance()}

    if args.trace == 0:
        # raw seconds: set-up is interpreter start and imports, which follow
        # the host's drift far less than the reference job does (speed.py)
        setups = [time_to_ready(base + ["--mode", "setup"], env) for _ in range(SETUPS)]
        result = run_worker(base + ["--mode", "run"], env, args.seconds + RUN_GRACE)
        values = {"setup_s": statistics.median(setups), **result["metrics"]}
        record["setup_samples_s"] = setups
        wanted = spec["end_to_end"]
    else:
        imports = [import_breakdown(env) for _ in range(IMPORT_REPEATS)]
        values = {k: statistics.median(d[k] for d in imports) for k in imports[0]}
        values["cli.python_start_ms"] = python_start_ms(env)
        result = run_worker(base + ["--mode", "trace"], env, 2 * args.seconds + RUN_GRACE)
        values.update(result["metrics"])
        wanted = spec["per_layer"]

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    out = {"correct": result["failed"] == 0, "attempted": result["attempted"],
           "failed": result["failed"], "metrics": metrics}
    record.update(versions=result["versions"], result=out, detail=result["detail"])
    path = os.path.join(RUNS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    detail = result["detail"]
    print(f"# {args.workload} seed={args.seed} fail_frac={detail['fail_frac']:.4g} "
          f"record={os.path.relpath(path, ROOT)}")
    if "op_tail" in detail:
        tail = detail["op_tail"]
        print(f"# op_tail_ms: median over {tail['blocks']} blocks of the slowest of "
              f"{tail['ops_per_block']} ops")
    print(json.dumps(out))


if __name__ == "__main__":
    main()
