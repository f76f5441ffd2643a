"""Bit-for-bit parity of this checkout's triloc against another checkout's.

    python3 tests/parity.py --parent DIR

DIR is a checkout of the commit to compare against, for example one made
with `git archive REV | tar -x -C DIR`.  Each side runs every set in a
subprocess of its own that imports triloc from that side's src; both sides
draw their inputs from this checkout's perfbench/gen.py and tests/samplers.py,
so only the library differs.  For each set the script prints the share of
identical lines and the first index that differs, and it exits 1 on any
difference.  A line is the repr of one result, so "identical" means equal
to the last bit.  The sets:

  random   decomposition and profile of 2,000 random_state draws per kind
  stream   decomposition and profile of 40,000 gen.stream_state states
           (default_rng(9801))
  locc     dlocc_feasible verdicts and min_measurements of the 9,000
           gen.locc_block pairs (default_rng(2), blocks 0-1499)
  search   the measurements of 870 searches: 150 samplers.one_step_pair per
           kind, then 60 samplers.free_phase_pair per zero slot, all from one
           default_rng(74)
  lemmas   `triloc verify-lemmas --samples 2000`, byte for byte

pytest does not collect this file (its name does not start with test_).
"""

import argparse
import itertools
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = ("random", "stream", "locc", "search", "lemmas")


def _outcome(fn, *args):
    """repr of fn(*args), or the type and text of the error it raises."""
    try:
        return repr(fn(*args))
    except Exception as exc:  # a refusal is a result to compare, too
        return f"{type(exc).__name__}: {exc}"


def _decomposed(state):
    from triloc import invariants, state_core
    dec = state_core.schmidt_decompose(state)
    return dec, invariants.coeffs_profile(dec[0])


def emit_random():
    from triloc import sampling, state_core
    for kind in state_core.RANDOM_KINDS:
        for seed in range(2000):
            yield _outcome(_decomposed, sampling.random_state(kind, seed))


def emit_stream():
    import numpy as np
    import gen
    rng = np.random.default_rng(9801)
    for i in range(40000):
        yield _outcome(_decomposed, gen.stream_state(rng, i)[1])


def emit_locc():
    import numpy as np
    import gen
    from triloc import locc

    def verdict(src, dst):
        v = locc.dlocc_feasible(src, dst)
        return v, locc.min_measurements(src, dst) if v.feasible else None

    rng = np.random.default_rng(2)
    for j in range(1500):
        for _, _, src, dst, _, _ in gen.locc_block(rng, j):
            yield _outcome(verdict, src, dst)


def emit_search():
    import numpy as np
    import samplers
    from triloc import transfer

    def ops(src, dst):
        meas = transfer.search_deterministic_measurement(src, dst)
        return None if meas is None else meas.ops

    rng = np.random.default_rng(74)
    for kind in samplers.ONE_STEP_KINDS:
        for _ in range(150):
            yield _outcome(ops, *samplers.one_step_pair(rng, kind)[:2])
    for zero_slot in (1, 2):
        for _ in range(60):
            yield _outcome(ops, *samplers.free_phase_pair(rng, zero_slot))


def emit_lemmas():
    res = subprocess.run([sys.executable, "-m", "triloc.cli", "verify-lemmas",
                          "--samples", "2000"], capture_output=True, text=True)
    yield f"exit {res.returncode}"
    yield from res.stdout.splitlines()
    yield from res.stderr.splitlines()


def emit(name):
    for line in globals()["emit_" + name]():
        print(line.replace("\n", "\\n"))


def run_side(src, name, out):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.path.join(ROOT, "perfbench"), env.get("PYTHONPATH")) if p)
    return subprocess.Popen([sys.executable, os.path.abspath(__file__), "--emit", name],
                            env=env, cwd=ROOT, stdout=out)


def compare(name, parent_path, child_path):
    """Print the share of identical lines and the first that differs; True
    when the two files agree line for line."""
    same = total = 0
    first = None
    with open(parent_path) as fp, open(child_path) as fc:
        for i, (a, b) in enumerate(itertools.zip_longest(fp, fc)):
            total += 1
            if a == b:
                same += 1
            elif first is None:
                first = (i, a, b)
    share = same / total if total else 1.0
    where = "none" if first is None else str(first[0])
    print(f"{name:7s} {same}/{total} identical ({share:.2%}), first difference: {where}")
    if first is not None:
        for side, line in (("parent", first[1]), ("this  ", first[2])):
            text = "<missing>" if line is None else line.rstrip("\n")
            print(f"        {side}: {text[:300]}")
    return first is None and total > 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", help="root of the checkout to compare against")
    ap.add_argument("--emit", choices=SETS, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.emit:
        emit(args.emit)
        return 0
    if not args.parent:
        ap.error("--parent is required")
    parent_src = os.path.join(os.path.abspath(args.parent), "src")
    if not os.path.isdir(os.path.join(parent_src, "triloc")):
        ap.error(f"no src/triloc under {args.parent}")
    ok = True
    with tempfile.TemporaryDirectory(prefix="triloc-parity-") as tmp:
        for name in SETS:
            paths = [os.path.join(tmp, f"{name}-{side}.txt") for side in ("parent", "this")]
            procs = []
            for src, path in zip((parent_src, os.path.join(ROOT, "src")), paths):
                with open(path, "w") as out:
                    procs.append(run_side(src, name, out))
            codes = [p.wait() for p in procs]
            if any(codes):
                print(f"{name:7s} a side exited with {codes}")
                ok = False
                continue
            ok = compare(name, *paths) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
