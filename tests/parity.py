"""Bit-for-bit parity of this checkout's triloc against another checkout's.

    python3 tests/parity.py --parent DIR

DIR is a checkout of the commit to compare against, for example one made
with `git archive REV | tar -x -C DIR`.  Each side runs every set in a
subprocess of its own that imports triloc from that side's src.  The locc
and search pairs are drawn once, in a subprocess on DIR's src, and written
to a file as the repr of each amplitude (a Python complex round-trips
exactly), which both sides read: the samplers that draw them call the
library, so drawing them on each side would let a last-bit library change
show up as changed inputs.  The random and stream states are drawn on each
side, through that side's random_state, and lemmas runs the CLI end to
end.  Inputs come from this checkout's perfbench/gen.py and
tests/samplers.py.  For each set the script prints the share of identical
lines and the first index that differs, and it exits 1 on any difference.
A line is the repr of one result, so "identical" means equal to the last
bit.  The sets:

  random   decomposition and profile of 2,000 random_state draws per kind
  stream   decomposition and profile of 40,000 gen.stream_state states
           (default_rng(9801))
  locc     dlocc_feasible verdicts and min_measurements of the 9,000
           gen.locc_block pairs (default_rng(2), blocks 0-1499)
  search   the measurements of 870 searches: 150 samplers.one_step_pair per
           kind, then 60 samplers.free_phase_pair per zero slot, all from one
           default_rng(74)
  lemmas   `triloc verify-lemmas --samples 2000`, byte for byte
  inversion  coeffs_from_invariants of each random state's profile, then
           of each stream state's (14,000 lines, then 40,000)

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
SETS = ("random", "stream", "locc", "search", "lemmas", "inversion")
DRAWN = ("locc", "search")  # sets whose inputs are drawn once, on DIR's src


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


def _random_states():
    from triloc import sampling, state_core
    for kind in state_core.RANDOM_KINDS:
        for seed in range(2000):
            yield sampling.random_state(kind, seed)


def _stream_states():
    import numpy as np
    import gen
    rng = np.random.default_rng(9801)
    for i in range(40000):
        yield gen.stream_state(rng, i)[1]


def emit_random():
    for state in _random_states():
        yield _outcome(_decomposed, state)


def emit_stream():
    for state in _stream_states():
        yield _outcome(_decomposed, state)


def emit_inversion():
    from triloc import invariants

    def inverted(state):
        p = invariants.profile(state)
        return invariants.coeffs_from_invariants(p.c, p.q_e)

    for state in itertools.chain(_random_states(), _stream_states()):
        yield _outcome(inverted, state)


def draw_locc():
    import numpy as np
    import gen
    rng = np.random.default_rng(2)
    for j in range(1500):
        for _, _, src, dst, _, _ in gen.locc_block(rng, j):
            yield src, dst


def draw_search():
    import numpy as np
    import samplers
    rng = np.random.default_rng(74)
    for kind in samplers.ONE_STEP_KINDS:
        for _ in range(150):
            yield samplers.one_step_pair(rng, kind)[:2]
    for zero_slot in (1, 2):
        for _ in range(60):
            yield samplers.free_phase_pair(rng, zero_slot)


def _pairs(path):
    """The (src, dst) pairs of a drawn file: sixteen amplitude reprs a line."""
    from triloc import state_core
    with open(path) as f:
        for line in f:
            amps = [complex(a) for a in line.split()]
            yield state_core.PureState3(amps[:8]), state_core.PureState3(amps[8:])


def emit_locc(path):
    from triloc import locc

    def verdict(src, dst):
        v = locc.dlocc_feasible(src, dst)
        return v, locc.min_measurements(src, dst) if v.feasible else None

    for src, dst in _pairs(path):
        yield _outcome(verdict, src, dst)


def emit_search(path):
    from triloc import transfer

    def ops(src, dst):
        meas = transfer.search_deterministic_measurement(src, dst)
        return None if meas is None else meas.ops

    for src, dst in _pairs(path):
        yield _outcome(ops, src, dst)


def emit_lemmas():
    res = subprocess.run([sys.executable, "-m", "triloc.cli", "verify-lemmas",
                          "--samples", "2000"], capture_output=True, text=True)
    yield f"exit {res.returncode}"
    yield from res.stdout.splitlines()
    yield from res.stderr.splitlines()


def emit(name, inputs):
    fn = globals()["emit_" + name]
    for line in fn(inputs) if name in DRAWN else fn():
        print(line.replace("\n", "\\n"))


def draw(name):
    for src, dst in globals()["draw_" + name]():
        print(" ".join(repr(a) for a in src.amps + dst.amps))


def run_side(src, args, out):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.path.join(ROOT, "perfbench"), env.get("PYTHONPATH")) if p)
    return subprocess.Popen([sys.executable, os.path.abspath(__file__), *args],
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
    print(f"{name:9s} {same}/{total} identical ({share:.2%}), first difference: {where}")
    if first is not None:
        for side, line in (("parent", first[1]), ("this  ", first[2])):
            text = "<missing>" if line is None else line.rstrip("\n")
            print(f"          {side}: {text[:300]}")
    return first is None and total > 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", help="root of the checkout to compare against")
    ap.add_argument("--emit", choices=SETS, help=argparse.SUPPRESS)
    ap.add_argument("--inputs", help=argparse.SUPPRESS)
    ap.add_argument("--draw", choices=DRAWN, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.emit:
        emit(args.emit, args.inputs)
        return 0
    if args.draw:
        draw(args.draw)
        return 0
    if not args.parent:
        ap.error("--parent is required")
    parent_src = os.path.join(os.path.abspath(args.parent), "src")
    if not os.path.isdir(os.path.join(parent_src, "triloc")):
        ap.error(f"no src/triloc under {args.parent}")
    ok = True
    with tempfile.TemporaryDirectory(prefix="triloc-parity-") as tmp:
        for name in SETS:
            args = ["--emit", name]
            if name in DRAWN:
                inputs = os.path.join(tmp, f"{name}-inputs.txt")
                with open(inputs, "w") as out:
                    code = run_side(parent_src, ["--draw", name], out).wait()
                if code:
                    print(f"{name:9s} drawing the inputs exited with {code}")
                    ok = False
                    continue
                args += ["--inputs", inputs]
            paths = [os.path.join(tmp, f"{name}-{side}.txt") for side in ("parent", "this")]
            procs = []
            for src, path in zip((parent_src, os.path.join(ROOT, "src")), paths):
                with open(path, "w") as out:
                    procs.append(run_side(src, args, out))
            codes = [p.wait() for p in procs]
            if any(codes):
                print(f"{name:9s} a side exited with {codes}")
                ok = False
                continue
            ok = compare(name, *paths) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
