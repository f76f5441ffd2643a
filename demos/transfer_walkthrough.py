"""Walk one state through a deterministic entanglement transfer.

Starts from a charged tangled state, synthesizes the measurement that
deterministically splits off the BC pair, simulates it, and compares the
simulated outcomes against the closed-form update.
"""

import math

import numpy as np

from triloc import sampling, state_core, transfer
from triloc.invariants import profile
from triloc.state_core import SchmidtCoeffs


def show(label, p):
    c = p.c
    print(f"{label:>10}: c_ab={c.c_ab:.6f} c_ac={c.c_ac:.6f} c_bc={c.c_bc:.6f} "
          f"tau={c.tau:.6f} j5={c.j5:.6f} q={p.q_e:+d} class={p.state_class.kind}")


def main():
    coeffs = SchmidtCoeffs(0.6, 0.2, 0.4, 0.4, math.sqrt(0.28), math.pi / 2)
    state = state_core.state_from_schmidt(coeffs)
    src = profile(state)
    show("source", src)
    print(f"{'':>10}  shifted pair residue k_bc = {src.k.k_bc:.6f} "
          f"(its square root bounds every deterministic split)\n")

    meas = transfer.synth_bisep_measurement(state)
    g = state_core.gram_params(meas.m0)
    print(f"splitting measurement on A: a={g.a:.6f} b={g.b:.6f} "
          f"k={g.k:.6f} theta={g.theta:.6f}")

    for idx, (out, prob) in enumerate(state_core.measure(state, meas)):
        po = profile(out)
        show(f"outcome {idx}", po)
        print(f"{'':>10}  p={prob:.6f}, c_bc^2={po.c.c_bc**2:.6f} "
              f"(matches source k_bc)")
    print()

    # closed-form prediction for a generic (non-splitting) measurement
    rnd = sampling.random_measurement(11, qubit="A")
    report = transfer.verify_update(state, rnd)
    print("generic measurement on A, prediction vs simulation:")
    print(f"  worst invariant deviation {report['max_deviation']:.3e}, "
          f"probability sum off by {report['p_sum_deviation']:.3e}, "
          f"charges consistent: {report['charge_consistent']}")

    lhs, mid, rhs = transfer.lemma2_bounds(state, rnd)
    print(f"  average spectator concurrence {mid:.6f} inside "
          f"[{lhs:.6f}, {rhs:.6f}]")
    print(f"  average attenuation {transfer.alpha_average(state, rnd):.6f} "
          f"(never above 1)")


if __name__ == "__main__":
    main()
