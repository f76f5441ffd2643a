"""Map the deterministic reachability of scaled destinations.

Takes one tangled source, scales its pair residues by per-qubit factors,
and sweeps the collective factor along the admissible interval.  For a
source with a well-defined distinguished factor only a single point on the
sweep is reachable; the verdicts on both sides show why.
"""

import numpy as np

from triloc import locc, state_core
from triloc.invariants import profile


def main():
    rng = np.random.default_rng(5)
    while True:
        src = state_core.random_state("ghz_type", int(rng.integers(1, 2**31)))
        p = profile(src)
        if (p.state_class.ep_definite and p.state_class.zeta_tilde_definite
                and min(p.c.c_ab, p.c.c_ac, p.c.c_bc) > 0.15):
            break
    print(f"source: tau={p.c.tau:.4f} q={p.q_e:+d} "
          f"k=({p.k.k_ab:.4f}, {p.k.k_ac:.4f}, {p.k.k_bc:.4f})")

    za, zb, zc = 0.85, 0.9, 0.8
    verdict_self = locc.dlocc_feasible(src, src)
    ztil = verdict_self.witness.zeta_tilde  # equals 1 for the identity map
    print(f"identity map: feasible={verdict_self.feasible}, "
          f"zeta={verdict_self.witness.zeta:.6f}, zeta_tilde={ztil:.6f}\n")

    pinned = locc.zeta_tilde(p, za, zb, zc)
    print(f"per-qubit factors ({za}, {zb}, {zc}) pin the collective factor "
          f"to {pinned:.6f}")

    print(f"{'z':>10} {'feasible':>9}  verdict")
    for z in (0.80, 0.90, pinned, 0.98, 1.00):
        dst = locc.scaled_destination(p, za, zb, zc, z, p.q_e)
        if dst is None:
            print(f"{z:10.6f} {'-':>9}  no state carries these invariants")
            continue
        v = locc.dlocc_feasible(src, dst)
        tag = "reachable" if v.feasible else v.violated
        print(f"{z:10.6f} {str(v.feasible):>9}  {tag}")

    dst = locc.scaled_destination(p, za, zb, zc, pinned, p.q_e)
    n = locc.min_measurements(src, dst)
    print(f"\nreaching the pinned destination needs {n} local measurements")

    conj = state_core.complex_conjugate(dst)
    v = locc.dlocc_feasible(src, conj)
    print(f"same invariants, opposite charge: feasible={v.feasible} "
          f"({v.violated})")


if __name__ == "__main__":
    main()
