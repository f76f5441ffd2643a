"""Acceptance suite: ten numbered criteria, one verdict line each.

Each test computes its own pass/fail verdict, records it for the terminal
summary, and then asserts.  Tolerances are pinned here on purpose; loosening
them is an interface change, not a test fix.
"""

import math
import time

import numpy as np

from triloc import locc, sampling, state_core, transfer
from triloc.invariants import coeffs_from_invariants, lu_equivalent, profile
from triloc.locc import dlocc_feasible, ghz_oracle, min_measurements
from triloc.state_core import RANDOM_KINDS, SchmidtCoeffs

import samplers
from conftest import record_criterion

R2 = 1.0 / math.sqrt(2.0)
GHZ = state_core.state_from_schmidt(SchmidtCoeffs(R2, 0, 0, 0, R2, 0.0))
BELL_BC = state_core.state_from_schmidt(SchmidtCoeffs(0, R2, 0, 0, R2, 0.0))
SEP = state_core.state_from_schmidt(SchmidtCoeffs(1, 0, 0, 0, 0, 0.0))


def test_criterion_01_lu_invariance():
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst = 0.0
    charge_breaks = 0
    for i in range(1000):
        st = sampling.random_state(RANDOM_KINDS[i % 7], 50_000 + i)
        p = profile(st)
        base = np.array(p.c.as_tuple())
        for _ in range(3):
            rot = state_core.apply_local_unitaries(
                st, sampling.haar_unitary(rng), sampling.haar_unitary(rng),
                sampling.haar_unitary(rng))
            pr = profile(rot)
            worst = max(worst, float(np.max(np.abs(np.array(pr.c.as_tuple())
                                                   - base))))
            charge_breaks += pr.q_e != p.q_e
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and charge_breaks == 0 and elapsed < 10.0
    record_criterion(1, "local-unitary invariance",
                     ok, f"1000 states x 3 rotations, worst drift {worst:.2e}, "
                         f"charge breaks {charge_breaks}, {elapsed:.1f}s")
    assert ok


def test_criterion_02_inversion_round_trip():
    t0 = time.time()
    worst = 0.0
    charge_breaks = 0
    twin_checked = 0
    twin_bad = 0
    for i in range(1000):
        st = sampling.random_state(RANDOM_KINDS[i % 7], 60_000 + i)
        p = profile(st)
        sets = coeffs_from_invariants(p.c, p.q_e)
        rebuilt = state_core.state_from_schmidt(sets[0])
        rp = profile(rebuilt)
        worst = max(worst, max(abs(x - y) for x, y
                               in zip(rp.c.as_tuple(), p.c.as_tuple())))
        charge_breaks += rp.q_e != p.q_e
        if p.q_e == 0 and len(sets) == 2:
            twin_checked += 1
            twin_bad += not lu_equivalent(
                state_core.state_from_schmidt(sets[0]),
                state_core.state_from_schmidt(sets[1]))
    elapsed = time.time() - t0
    ok = (worst <= 1e-8 and charge_breaks == 0 and twin_bad == 0
          and twin_checked > 0 and elapsed < 10.0)
    record_criterion(2, "invariant inversion round trip",
                     ok, f"1000 states, worst residual {worst:.2e}, "
                         f"{twin_checked} chargeless twin pairs all equivalent, "
                         f"{elapsed:.1f}s")
    assert ok


def test_criterion_03_update_exactness():
    worst_inv = 0.0
    worst_psum = 0.0
    for i in range(10_000):
        st = sampling.random_state("haar", 70_000 + i)
        meas = sampling.random_measurement(80_000 + i, qubit="A")
        report = transfer.verify_update(st, meas)
        worst_inv = max(worst_inv, report["max_deviation"])
        worst_psum = max(worst_psum, report["p_sum_deviation"])
    ok = worst_inv <= 1e-9 and worst_psum <= 1e-12
    record_criterion(3, "closed-form update exactness",
                     ok, f"10^4 state/measurement pairs, worst invariant "
                         f"deviation {worst_inv:.2e}, worst probability sum "
                         f"deviation {worst_psum:.2e}")
    assert ok


def test_criterion_04_transfer_inequalities():
    v_lemma2 = v_range = v_residue = 0
    for i in range(10_000):
        st = sampling.random_state(RANDOM_KINDS[i % 7], 90_000 + i)
        meas = sampling.random_measurement(100_000 + i, qubit="A")
        src = profile(st)
        cb_avg = res_avg = asum = 0.0
        for m, (out, p) in zip((meas.m0, meas.m1), state_core.measure(st, meas)):
            if out is None:
                continue
            g = m.conj().T @ m
            det = max((g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]).real, 0.0)
            asum += math.sqrt(det)  # p * alpha with alpha = sqrt(det) / p
            po = profile(out)
            cb_avg += p * po.c.c_bc
            res_avg += p * math.sqrt(po.k.k_bc)
        ceiling = math.sqrt(src.c.c_bc**2 + max(1.0 - asum**2, 0.0) * src.c.tau)
        if src.c.c_bc > cb_avg + 1e-9 or cb_avg > ceiling + 1e-9:
            v_lemma2 += 1
        if not -1e-9 <= asum <= 1.0 + 1e-9:
            v_range += 1
        if res_avg > math.sqrt(src.k.k_bc) + 1e-9:
            v_residue += 1
    ok = v_lemma2 == 0 and v_range == 0 and v_residue == 0
    record_criterion(4, "transfer inequality fuzz",
                     ok, f"10^4 samples each: pair-average bounds {v_lemma2} "
                         f"violations, attenuation range {v_range}, residue "
                         f"average {v_residue}")
    assert ok


def test_criterion_05_splitting_measurement():
    checked = 0
    bad = 0
    worst = 0.0
    i = 0
    kinds = ("ghz_type", "haar", "w_type")
    while checked < 500:
        st = sampling.random_state(kinds[i % 3], 110_000 + i)
        i += 1
        p = profile(st)
        if not p.state_class.ep_definite:
            continue
        meas = transfer.synth_bisep_measurement(st)
        outs = [o for o, pr in state_core.measure(st, meas) if o is not None]
        if len(outs) != 2:
            bad += 1
            checked += 1
            continue
        devs = [abs(profile(o).c.c_bc**2 - p.k.k_bc) for o in outs]
        worst = max(worst, *devs)
        if max(devs) > 1e-8 or not lu_equivalent(outs[0], outs[1]):
            bad += 1
        checked += 1
    ghz_meas = transfer.synth_bisep_measurement(GHZ)
    ghz_dev = max(abs(profile(o).c.c_bc - 1.0)
                  for o, _ in state_core.measure(GHZ, ghz_meas))
    ok = bad == 0 and ghz_dev <= 1e-10
    record_criterion(5, "deterministic splitting measurement",
                     ok, f"500 concurrence-definite states, {bad} failures, "
                         f"worst residue error {worst:.2e}; "
                         f"full Bell from the balanced state within {ghz_dev:.2e}")
    assert ok


def test_criterion_06_decision_vs_oracle():
    rng = np.random.default_rng(606)
    pairs = []
    while len(pairs) < 500:
        pair = samplers.feasible_pair(rng)
        if pair is not None:
            pairs.append(pair)
    while len(pairs) < 800:
        src, _ = samplers.ep_definite_ghz(rng)
        dst, _ = samplers.ep_definite_ghz(rng)
        pairs.append((src, dst))
    while len(pairs) < 1000:
        trio = samplers.offset_pair(rng, margin=1e-3)
        if trio is not None:
            pairs.append((trio[0], trio[2]))
    disagreements = 0
    n_feasible = 0
    for src, dst in pairs:
        decided = dlocc_feasible(src, dst).feasible
        if decided != ghz_oracle(src, dst):
            disagreements += 1
        n_feasible += decided
    ok = disagreements == 0 and n_feasible >= 400
    record_criterion(6, "decision vs independent oracle",
                     ok, f"1000 pairs (500 on-surface, 300 random, 200 offset), "
                         f"{disagreements} disagreements, {n_feasible} feasible")
    assert ok


def test_criterion_07_charge_laws():
    rng = np.random.default_rng(707)
    conserved_bad = 0
    checked = 0
    while checked < 100:
        pair = samplers.feasible_pair(rng)
        if pair is None:
            continue
        src, dst = pair
        ps = profile(src)
        if not ps.state_class.zeta_tilde_definite:
            continue
        conserved_bad += profile(dst).q_e != ps.q_e
        checked += 1
    flip_bad = 0
    perm_bad = 0
    for i in range(1000):
        st = sampling.random_state(RANDOM_KINDS[i % 7], 120_000 + i)
        q = profile(st).q_e
        flip_bad += profile(state_core.complex_conjugate(st)).q_e != -q
        for order in ("ACB", "BAC", "BCA", "CAB", "CBA"):
            perm_bad += profile(state_core.permute_qubits(st, order)).q_e != q
    ok = conserved_bad == 0 and flip_bad == 0 and perm_bad == 0
    record_criterion(7, "charge laws",
                     ok, f"conservation breaks {conserved_bad}/100, conjugation "
                         f"flip breaks {flip_bad}/1000, permutation breaks "
                         f"{perm_bad}/6000")
    assert ok


def test_criterion_08_measurement_count_table():
    bell_weaker = state_core.state_from_schmidt(
        SchmidtCoeffs(0, 0.6, 0, 0, 0.8, 0.0))
    got = (min_measurements(GHZ, GHZ),
           min_measurements(GHZ, BELL_BC),
           min_measurements(BELL_BC, bell_weaker),
           min_measurements(SEP, SEP))
    ok = got == (3, 2, 1, 0)
    record_criterion(8, "measurement count table",
                     ok, f"canonical rows gave {got}, expected (3, 2, 1, 0)")
    assert ok


def test_criterion_09_partial_order():
    refl_bad = 0
    for i in range(1000):
        st = sampling.random_state(RANDOM_KINDS[i % 7], 130_000 + i)
        refl_bad += not dlocc_feasible(st, st).feasible
    rng = np.random.default_rng(909)
    mono_bad = 0
    trans_bad = 0
    chains = 0
    while chains < 1000:
        src, ps = samplers.ep_definite_ghz(rng)
        mid = samplers.feasible_from(ps, rng)
        if mid is None:
            continue
        pm = profile(mid)
        dst = samplers.feasible_from(pm, rng)
        if dst is None:
            continue
        chains += 1
        pd = profile(dst)
        for a, b in ((ps, pm), (pm, pd)):
            if (b.k.k_ab > a.k.k_ab + 1e-9 or b.k.k_ac > a.k.k_ac + 1e-9
                    or b.k.k_bc > a.k.k_bc + 1e-9 or b.c.tau > a.c.tau + 1e-9):
                mono_bad += 1
        if not (dlocc_feasible(src, mid).feasible
                and dlocc_feasible(mid, dst).feasible
                and dlocc_feasible(src, dst).feasible):
            trans_bad += 1
    ok = refl_bad == 0 and mono_bad == 0 and trans_bad == 0
    record_criterion(9, "partial-order sanity",
                     ok, f"reflexivity breaks {refl_bad}/1000, monotonicity "
                         f"breaks {mono_bad}, transitivity breaks "
                         f"{trans_bad}/1000 chains")
    assert ok


def test_criterion_10_forbidden_pattern_fuzz():
    rng = np.random.default_rng(1010)
    n = 100_000
    lam = rng.uniform(0.05, 1.0, size=(n, 5))
    # exact sparsity: random coefficients switched off, plus dedicated
    # tangle-free blocks (l4 = 0, l0 = 0) and an exact-cancellation block
    lam[rng.uniform(size=(n, 5)) < 0.35] = 0.0
    lam[:40_000, 4] = 0.0
    lam[40_000:60_000, 0] = 0.0
    lam[60_000:70_000, 2] = lam[60_000:70_000, 1]
    lam[60_000:70_000, 3] = lam[60_000:70_000, 4]
    dead = np.linalg.norm(lam, axis=1) < 1e-12
    lam[dead, 0] = 1.0
    lam /= np.linalg.norm(lam, axis=1, keepdims=True)
    phi = np.where(np.all(lam > 0.0, axis=1), rng.uniform(0, math.pi, n), 0.0)

    c_ab = 2.0 * lam[:, 0] * lam[:, 3]
    c_ac = 2.0 * lam[:, 0] * lam[:, 2]
    w = lam[:, 1] * lam[:, 4] * np.exp(1j * phi) - lam[:, 2] * lam[:, 3]
    c_bc = 2.0 * np.abs(w)
    tau = 4.0 * lam[:, 0] ** 2 * lam[:, 4] ** 2

    nonzero = (c_ab > 0.0).astype(int) + (c_ac > 0.0) + (c_bc > 0.0)
    violations = int(np.sum((tau == 0.0) & (nonzero == 2)))
    # the fuzz must actually visit the neighboring patterns
    seen_two_with_tangle = int(np.sum((tau > 0.0) & (nonzero == 2)))
    seen_one_without = int(np.sum((tau == 0.0) & (nonzero == 1)))
    seen_three_without = int(np.sum((tau == 0.0) & (nonzero == 3)))
    ok = (violations == 0 and seen_two_with_tangle > 0
          and seen_one_without > 0 and seen_three_without > 0)
    record_criterion(10, "forbidden two-pair pattern",
                     ok, f"10^5 coefficient sets, {violations} tangle-free "
                         f"double-pair patterns (neighbors visited: "
                         f"{seen_two_with_tangle}, {seen_one_without}, "
                         f"{seen_three_without})")
    assert ok
