"""Reproduce the library defects kept out of the timed transfer_mix mix.

    python3 perfbench/defects.py --seed 1 --count 100

Run from the root of a checkout.  For --count GHZ-type sources it asks:

  split_off    search_deterministic_measurement for the source's split-off
               pair, which the splitting measurement reaches (expected: found)
  unreachable  the same search for a random GHZ-type target (expected: None)
  synth_verify verify_update on the source's own splitting measurement,
               whose outcomes the oracle confirms (expected: pass)

and prints, per question, how many answers were as expected, missed
(None or pass = False) or raised.  Exits 1 when any answer was not as
expected, so a commit that fixes them all exits 0 and the cases can join
the timed mix.
"""

import argparse
import os
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import triloc  # noqa: E402
import gen  # noqa: E402


def ask(counts, name, fn, expected):
    try:
        got = fn()
    except Exception as exc:  # a raise is one of the defects counted here
        counts[name, f"raised {type(exc).__name__}"] += 1
        return
    counts[name, "as expected" if got == expected else "missed"] += 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--count", type=int, default=100)
    args = ap.parse_args()
    rng = np.random.default_rng([args.seed, 3])
    transfer = triloc.transfer
    counts = Counter()
    for _ in range(args.count):
        src = triloc.random_state("ghz_type", gen.sub_seed(rng))
        split = gen.split_off_target(src, rng)
        ask(counts, "split_off", lambda: transfer.search_deterministic_measurement(
            src, split) is not None, True)
        far = gen.unreachable_target(rng)
        ask(counts, "unreachable", lambda: transfer.search_deterministic_measurement(
            src, far) is None, True)
        ask(counts, "synth_verify", lambda: transfer.verify_update(
            src, transfer.synth_bisep_measurement(src))["pass"], True)
    for (name, outcome), n in sorted(counts.items()):
        print(f"{name:13s} {outcome:28s} {n}")
    sys.exit(0 if all(o == "as expected" for _, o in counts) else 1)


if __name__ == "__main__":
    main()
