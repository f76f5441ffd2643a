import cmath
import json
import math

import numpy as np
import pytest

from triloc import locc, sampling, state_core, transfer
from triloc.invariants import (CParams, Inconsistent, coeffs_from_invariants, ep_phase,
                               lu_equivalent, profile)
from triloc.locc import (
    GhzCanonical,
    NotFeasible,
    NotGhzType,
    NotWType,
    ZetaWitness,
    dlocc_feasible,
    ghz_canonical,
    ghz_oracle,
    min_measurements,
    ns_params,
    w_coords,
)
from triloc.cli import main
from triloc.state_core import SchmidtCoeffs

import samplers
from cli_runner import invoke

R2 = 1.0 / math.sqrt(2.0)
R3 = 1.0 / math.sqrt(3.0)


def S(*args):
    return state_core.state_from_schmidt(SchmidtCoeffs(*args))


GHZ = S(R2, 0, 0, 0, R2, 0.0)
W = S(R3, 0, R3, R3, 0, 0.0)
BELL_BC = S(0, R2, 0, 0, R2, 0.0)
BELL_AB = S(R2, 0, 0, R2, 0, 0.0)
SEP = S(1, 0, 0, 0, 0, 0.0)
PINNED = S(0.6, 0.2, 0.4, 0.4, math.sqrt(0.28), math.pi / 2)


# ---------------------------------------------------------------------------
# fixed decisions


def test_ghz_reaches_product():
    v = dlocc_feasible(GHZ, SEP)
    assert v.feasible and v.case == "C"
    assert (v.witness.zeta_a, v.witness.zeta_b, v.witness.zeta_c) == (0, 0, 0)


def test_product_cannot_reach_ghz():
    v = dlocc_feasible(SEP, GHZ)
    assert not v.feasible and v.case == "D"
    assert v.violated == "cond1_no_solution"


def test_ghz_cannot_reach_w():
    v = dlocc_feasible(GHZ, W)
    assert not v.feasible and v.violated == "cond1_no_solution"


def test_ghz_reaches_bell():
    v = dlocc_feasible(GHZ, BELL_BC)
    assert v.feasible and v.case == "C"
    w = v.witness
    assert abs(w.zeta - 1.0) < 1e-12
    assert w.zeta_a < 1e-12
    assert abs(w.zeta_b - 1.0) < 1e-12 and abs(w.zeta_c - 1.0) < 1e-12


def test_reflexive_case_a():
    v = dlocc_feasible(PINNED, PINNED)
    assert v.feasible and v.case == "A"
    w = v.witness
    assert abs(w.zeta - 1.0) < 1e-9
    assert w.zeta_tilde is not None and abs(w.zeta_tilde - 1.0) < 1e-9


def test_conjugate_target_flips_charge():
    v = dlocc_feasible(PINNED, state_core.complex_conjugate(PINNED))
    assert not v.feasible
    assert v.violated == "charge_mismatch"


def test_bell_orders():
    small = S(0, 0.6, 0, 0, 0.8, 0.0)   # weaker BC pair
    assert dlocc_feasible(BELL_BC, small).feasible
    assert not dlocc_feasible(small, BELL_BC).feasible
    v = dlocc_feasible(BELL_AB, BELL_BC)
    assert not v.feasible and v.violated == "cond1_no_solution"
    assert dlocc_feasible(BELL_AB, SEP).feasible
    assert not dlocc_feasible(BELL_AB, W).feasible


def test_w_orders():
    # per-qubit coordinates are (l0, l3, l2) with l1 absorbing the slack;
    # shrinking all three is reachable, growing any one is not
    src = S(0.8, 0.2, 0.4, 0.4, 0, 0.0)
    assert dlocc_feasible(src, W).feasible is False
    smaller = S(0.7, math.sqrt(1 - 0.49 - 0.1225 - 0.09), 0.3, 0.35, 0, 0.0)
    assert dlocc_feasible(src, smaller).feasible
    grown = S(0.88317609, 0.2, 0.3, 0.3, 0, 0.0)
    assert not dlocc_feasible(src, state_core.validate_state(
        grown.amplitudes / np.linalg.norm(grown.amplitudes))).feasible
    assert dlocc_feasible(src, SEP).feasible
    # pair target below the source AB concurrence of 0.64
    assert dlocc_feasible(src, S(0.95, 0, 0, math.sqrt(0.0975), 0, 0.0)).feasible
    assert not dlocc_feasible(src, BELL_AB).feasible


def test_tangled_source_cannot_grow_a_pair():
    # PINNED's BC residue k_bc = 0.55 is below the full Bell pair's 1
    v = dlocc_feasible(PINNED, BELL_BC)
    assert not v.feasible and v.case == "B"
    assert v.violated == "cond1_no_solution"


@pytest.mark.parametrize("target", [BELL_AB, W], ids=["pair", "w"])
def test_product_source_reaches_no_entangled_target(target):
    v = dlocc_feasible(SEP, target)
    assert not v.feasible and v.case == "D"
    assert v.violated == "cond1_no_solution"


# one state per random kind (seed 7) against each: the case letter, then the
# measurement count of a feasible pair or "-" for cond1_no_solution
KIND_TABLE = {
    #                  haar ghz w  ab ac bc sep
    "haar":           "A3 A- A- B- B- B- B2",
    "ghz_type":       "A- A3 A- B- B- B- B2",
    "w_type":         "D- D- D3 D- D- D- D2",
    "biseparable_ab": "D- D- D- D1 D- D- D1",
    "biseparable_ac": "D- D- D- D- D1 D- D1",
    "biseparable_bc": "D- D- D- D- D- D1 D1",
    "full_separable": "D- D- D- D- D- D- D0",
}


def test_class_pair_verdict_table():
    states = {k: sampling.random_state(k, 7) for k in state_core.RANDOM_KINDS}
    for kind_s, row in KIND_TABLE.items():
        for kind_d, cell in zip(state_core.RANDOM_KINDS, row.split()):
            v = dlocc_feasible(states[kind_s], states[kind_d])
            count = None if cell[1] == "-" else int(cell[1])
            violated = "cond1_no_solution" if count is None else None
            assert (v.feasible, v.case, v.violated, v.min_measurements) == (
                count is not None, cell[0], violated, count), (kind_s, kind_d)


def _chargeless(c):
    return state_core.state_from_schmidt(coeffs_from_invariants(c, 0)[0])


def test_weaker_targets_without_tangle():
    # one reachable weaker target for each feasible branch of the rule for
    # targets without tangle: W -> W, a pair -> the same pair, W -> a pair,
    # tangled -> a pair (whose residue k_bc = c_bc^2 + tau sets the factors)
    ghz = sampling.random_state("ghz_type", 7)
    pg = profile(ghz)
    ghz_bc = _chargeless(CParams(0.0, 0.0, 0.6 * math.sqrt(pg.k.k_bc), 0.0, 0.0))
    w = sampling.random_state("w_type", 7)
    x1, x2, x3 = w_coords(profile(w).c)
    x2 *= math.sqrt(0.5)  # zeta_b = 0.5
    weaker_w = _chargeless(CParams(2 * x1 * x2, 2 * x1 * x3, 2 * x2 * x3, 0.0,
                                   8 * (x1 * x2 * x3) ** 2))
    ab = sampling.random_state("biseparable_ab", 7)
    weaker_ab = _chargeless(CParams(0.6 * profile(ab).c.c_ab, 0.0, 0.0, 0.0, 0.0))
    w_ab = _chargeless(CParams(0.6 * profile(w).c.c_ab, 0.0, 0.0, 0.0, 0.0))
    for src, dst, count, factors, zl in (
            (w, weaker_w, 3, (1.0, 0.5, 1.0), 1.0),
            (ab, weaker_ab, 1, (0.6, 0.6, 0.0), 0.0),
            (w, w_ab, 2, (0.6, 0.6, 0.0), 1.0)):
        v = dlocc_feasible(src, dst)
        assert (v.feasible, v.case, v.violated, v.min_measurements) == (True, "D", None, count)
        assert v.witness[1:4] == pytest.approx(factors, abs=1e-12)
        assert (v.witness.zeta, v.witness.zeta_lower, v.witness.zeta_tilde) == (1.0, zl, None)
        assert not dlocc_feasible(dst, src).feasible
    v = dlocc_feasible(ghz, ghz_bc)
    assert (v.feasible, v.case, v.min_measurements) == (True, "B", 2)
    assert v.witness[:4] == pytest.approx((1.0, 0.0, 0.6, 0.6), abs=1e-12)
    zs = v.witness[1:4]
    assert v.witness[4:] == (locc.zeta_lower(pg, *zs), locc.zeta_tilde(pg, *zs))


def test_faint_pair_is_out_of_reach_of_other_pairs_and_products():
    # c_ab = 5e-9 lies between TOL_ZERO and TOL_EQ, so the target is an AB
    # pair that no comparison of c_ab against the source's could rule out
    faint = S(math.sqrt(1.0 - 6.25e-18), 0, 0, 2.5e-9, 0, 0.0)
    assert profile(faint).state_class.pair == "AB"
    for src in (SEP, S(R2, 0, R2, 0, 0, 0.0), BELL_BC):
        v = dlocc_feasible(src, faint)
        assert not v.feasible and v.violated == "cond1_no_solution"
    assert dlocc_feasible(BELL_AB, faint).feasible


def test_product_targets_witnesses():
    # zeta_lower marks the source: 0 for a product or a pair, 1 for W
    sep = sampling.random_state("full_separable", 7)
    for kind, factor, zl in (("full_separable", 1.0, 0.0), ("w_type", 0.0, 1.0),
                             ("biseparable_ab", 0.0, 0.0), ("biseparable_bc", 0.0, 0.0)):
        v = dlocc_feasible(sampling.random_state(kind, 7), sep)
        assert v.witness == ZetaWitness(1.0, factor, factor, factor, zl, None), kind


def test_w_coords_needs_a_w_state():
    with pytest.raises(NotWType, match="tangle"):
        w_coords(profile(PINNED).c)
    with pytest.raises(NotWType, match="pair concurrence"):
        w_coords(profile(BELL_BC).c)


def test_charge_magnitude_at_a_wide_tolerance(tmp_path):
    # the target sits 5e-4 inside the row of an indefinite source and carries
    # unit charge: interior at the default TOL_EQ, on the boundary (which
    # needs zero charge) once TOL_EQ exceeds its distance
    src, p = samplers.real_weight_ghz(np.random.default_rng(25), sign=1)
    zl = locc.zeta_lower(p, 0.9, 0.95, 0.85)
    dst = locc.scaled_destination(p, 0.9, 0.95, 0.85, zl + 5e-4, 1)
    paths = []
    for name, st in (("src.json", src), ("dst.json", dst)):
        path = tmp_path / name
        path.write_text(json.dumps(state_core.state_to_dict(st)))
        paths.append(str(path))
    assert invoke(main, ["locc-check", *paths]).exit_code == 0
    res = invoke(main, ["--tol-eq", "1e-3", "locc-check", *paths])
    assert res.exit_code == 1
    assert json.loads(res.output)["violated"] == "charge_magnitude"


def test_zeta_lower_of_small_concurrences():
    # concurrences ~0.03 make j_ap = (c_ab c_ac c_bc)^2 ~ 7e-10, below
    # TOL_ZERO: a degree-6 product must not be read against a threshold for
    # single concurrences, so zeta_lower stays j_ap / ktil = 1 here
    src = samplers.two_term_state((0.03, 0.033, 0.027), 1.0)
    p = profile(src)
    assert p.state_class.ep_definite and p.derived.j_ap < state_core.TOL_ZERO
    verdict = dlocc_feasible(src, src)
    assert verdict.feasible
    assert verdict.witness.zeta_lower == pytest.approx(1.0, abs=1e-12)


def test_zeta_lower_where_a_concurrence_drops_out_of_k():
    # c_ac = 5e-9 is above TOL_ZERO, but c_ac^2 is lost in k_ac = c_ac^2 + tau:
    # j_ap and the contracted residues are formed from the concurrences, so
    # the ratio at unit factors still reads 1
    s = S(0.5, 0.5, 5e-9, 0.5, 0.5, 0.0)
    p = profile(s)
    assert p.state_class.ep_definite
    assert p.derived.j_ap == (p.c.c_ab * p.c.c_ac * p.c.c_bc) ** 2 > 0.0
    verdict = dlocc_feasible(s, s)
    assert verdict.feasible
    assert verdict.witness.zeta_lower == pytest.approx(1.0, abs=1e-12)


def test_zeta_tilde_of_a_source_with_a_vanishing_concurrence():
    # with c_ab = 0 the ratio's terms all vanish with c_ab^2, so in float it
    # is a ratio of decomposition noise; it is 0, or 0/0 where the vanishing
    # pair keeps zeta_c = 1
    rng = np.random.default_rng(31)
    co = SchmidtCoeffs(0.5, 0.4, 0.5, 0.0, math.sqrt(0.34), 0.0)
    for _ in range(20):
        p = profile(samplers.scrambled(state_core.state_from_schmidt(co), rng))
        assert p.state_class.zeta_tilde_definite and not p.state_class.ep_definite
        assert locc.zeta_tilde(p, 0.8, 0.9, 1.0) is None
        assert locc.zeta_tilde(p, 0.8, 0.9, 0.99) == 0.0
        assert locc.zeta_tilde(p, 1.0, 1.0, 0.99) == 0.0
    assert locc.zeta_tilde(profile(GHZ), 0.5, 1.0, 0.5) is None


@pytest.mark.parametrize("coeffs", [
    (0.3, 0.4, 5e-9, 0.6, math.sqrt(0.39), 1.0),
    (0.3, 0.4, 0.6, 5e-9, math.sqrt(0.39), 1.0),
])
def test_state_with_a_tiny_concurrence_reaches_itself(coeffs):
    # a concurrence of ~3e-9 next to tau ~ 0.14 used to cancel out of j_ap,
    # so zeta_tilde read 0/0 and the state could not reach itself
    s = S(*coeffs)
    v = dlocc_feasible(s, s)
    assert v.feasible and v.case == "A"
    assert v.witness.zeta_lower == pytest.approx(1.0, abs=1e-12)
    assert v.witness.zeta_tilde == pytest.approx(1.0, abs=1e-12)
    assert min_measurements(s, s) == 3
    assert transfer.search_deterministic_measurement(s, s) is not None


@pytest.mark.parametrize("slot", [
    pytest.param(0, marks=pytest.mark.xfail(
        strict=True, raises=Inconsistent,
        reason="_classify refuses states with l0 ~ 1e-9 (ROADMAP item 3)")),
    1, 2, 3, 4])
def test_decision_is_reflexive_near_a_vanishing_coefficient(slot):
    rng = np.random.default_rng(11)
    for _ in range(500):
        lams = rng.uniform(0.1, 1.0, 5)
        lams[slot] *= 10.0 ** rng.uniform(-12.0, -6.0)
        lams /= np.linalg.norm(lams)
        phi = rng.uniform(0.0, math.pi)
        if min(lams) < state_core.TOL_ZERO:
            phi = 0.0  # the phase is removable once a coefficient vanishes
        s = S(*lams, phi)
        assert dlocc_feasible(s, s).feasible, (lams, phi)


# ---------------------------------------------------------------------------
# canonical two-term coordinates


def test_ghz_canonical_plain_ghz():
    g = ghz_canonical(GHZ)
    assert (g.c_a, g.c_b, g.c_c) == (0.0, 0.0, 0.0)
    assert abs(g.abs_z - 1.0) < 1e-12
    assert g.z is None
    n, s = ns_params(g)
    assert n is None and s is None


def test_ghz_canonical_requires_tangle():
    with pytest.raises(NotGhzType):
        ghz_canonical(W)


def test_ghz_canonical_lu_invariant():
    rng = np.random.default_rng(12)
    for seed in range(15):
        st = sampling.random_state("ghz_type", 3000 + seed)
        g = ghz_canonical(st)
        rotated = state_core.apply_local_unitaries(
            st, sampling.haar_unitary(rng), sampling.haar_unitary(rng),
            sampling.haar_unitary(rng))
        h = ghz_canonical(rotated)
        assert abs(g.c_a - h.c_a) < 1e-7
        assert abs(g.c_b - h.c_b) < 1e-7
        assert abs(g.c_c - h.c_c) < 1e-7
        assert abs(g.abs_z - h.abs_z) < 1e-6
        if g.z is not None and h.z is not None:
            assert abs(g.z - h.z) < 1e-6


def test_ns_params_closed_forms():
    g = GhzCanonical(0.3, 0.3, 0.3, 2.0, 2.0 + 0j, True)
    n, s = ns_params(g)
    assert abs(n - 0.8) < 1e-12 and abs(s) < 1e-12
    g = GhzCanonical(0.3, 0.3, 0.3, 1.0, 1j, True)
    n, s = ns_params(g)
    assert abs(n) < 1e-12 and s == math.inf
    g = GhzCanonical(0.3, 0.3, 0.3, 1.0, 1.0 + 0j, False)
    n, s = ns_params(g)
    assert abs(n - 1.0) < 1e-12 and s is None


def test_shape_params_from_invariants():
    # n and s have closed forms in the six invariants; check them on
    # generic states against the canonical coordinates
    for seed in range(25):
        st = sampling.random_state("haar", 6200 + seed)
        p = profile(st)
        if not p.state_class.ep_definite or p.q_e == 0:
            continue
        g = ghz_canonical(st)
        n, s = ns_params(g)
        phi5 = ep_phase(p.c)
        k_ap = p.k.k_ab * p.k.k_ac * p.k.k_bc
        n_ref = -math.sqrt(k_ap) * math.cos(phi5) / p.derived.k5
        s_ref = -math.sqrt(k_ap) * math.sin(phi5) / (p.q_e * math.sqrt(p.derived.delta_j))
        assert abs(n - n_ref) < 1e-7
        assert abs(s - s_ref) < 1e-6 * max(1.0, abs(s_ref))


def test_real_weight_states_sit_on_real_axis():
    rng = np.random.default_rng(3)
    for sign in (1, -1):
        st, p = samplers.real_weight_ghz(rng, sign=sign)
        assert p.state_class.ep_definite
        assert not p.state_class.zeta_tilde_definite
        assert p.q_e == 0
        g = ghz_canonical(st)
        n, s = ns_params(g)
        assert s is None
        assert abs(n - sign) < 1e-6


# ---------------------------------------------------------------------------
# decision against the independent oracle


def test_scaled_rows_are_feasible():
    rng = np.random.default_rng(21)
    found = 0
    while found < 25:
        pair = samplers.feasible_pair(rng)
        if pair is None:
            continue
        src, dst = pair
        v = dlocc_feasible(src, dst)
        assert v.feasible, v
        assert ghz_oracle(src, dst)
        found += 1


def test_offset_rows_are_infeasible():
    rng = np.random.default_rng(22)
    found = 0
    while found < 12:
        trio = samplers.offset_pair(rng)
        if trio is None:
            continue
        src, dst_on, dst_off = trio
        assert dlocc_feasible(src, dst_on).feasible
        v = dlocc_feasible(src, dst_off)
        assert not v.feasible
        assert v.violated == "zeta_not_tilde"
        assert not ghz_oracle(src, dst_off)
        found += 1


def test_random_pairs_match_oracle():
    rng = np.random.default_rng(23)
    for _ in range(40):
        src, _ = samplers.ep_definite_ghz(rng)
        dst, _ = samplers.ep_definite_ghz(rng)
        assert dlocc_feasible(src, dst).feasible == ghz_oracle(src, dst)


def _threshold_targets(rng, prof, zb=None):
    """(on, conjugate, off) for the source profile prof: on sits on the
    feasibility surface (zeta = 1, zeta_lower, or an interior value with
    unit charge), off scales A's residue by zeta_a = 1.001.  None on a bad
    draw."""
    za, zc = rng.uniform(0.6, 0.95, 2)
    zb = rng.uniform(0.6, 0.95) if zb is None else zb
    zl = max(locc.zeta_lower(prof, za, zb, zc), 0.0)
    pick = int(rng.integers(3))
    z = (1.0, zl, zl + rng.uniform(0.2, 0.8) * (1.0 - zl))[pick]
    q = int(rng.choice([-1, 1])) if pick == 2 and prof.state_class.ep_definite else 0
    on = locc.scaled_destination(prof, za, zb, zc, z, q)
    off = locc.scaled_destination(prof, 1.001, zb, zc, z, q)
    if on is None or off is None or z <= 0.0:
        return None
    on = samplers.scrambled(on, rng)
    return on, state_core.complex_conjugate(on), samplers.scrambled(off, rng)


def test_threshold_sources_match_oracle():
    # real-weight sources (z = +-1, case A) leave the oracle's s-law
    # undefined; c-indefinite sources (B overlap 0, so c_ac = 0, case C)
    # and their targets, scaled with zeta_b = 1 so that c_ac stays 0, have
    # no canonical phase at all
    rng = np.random.default_rng(27)
    pairs = []
    while len(pairs) < 150:
        src, prof = samplers.real_weight_ghz(rng, sign=int(rng.choice([-1, 1])))
        trio = _threshold_targets(rng, prof)
        if trio is not None:
            pairs += [(samplers.scrambled(src, rng), dst, i < 2, "A")
                      for i, dst in enumerate(trio)]
    while len(pairs) < 300:
        ca, cc = rng.uniform(0.2, 0.8, 2)
        z = cmath.rect(rng.uniform(0.3, 3.0), rng.uniform(0.0, 2.0 * math.pi))
        src = samplers.two_term_state([ca, 0.0, cc], z)
        trio = _threshold_targets(rng, profile(src), zb=1.0)
        if trio is not None:
            pairs += [(samplers.scrambled(src, rng), dst, i < 2, "C")
                      for i, dst in enumerate(trio)]
    for src, dst, reachable, case in pairs:
        v = dlocc_feasible(src, dst)
        assert (v.case, v.feasible) == (case, reachable)
        assert ghz_oracle(src, dst) == reachable


def _unimodular_source(rng):
    """Tangled state with a unimodular, non-real two-term weight (|z| = 1,
    where ns_params puts s at infinity)."""
    theta = rng.uniform(0.2, math.pi - 0.2)
    z = cmath.exp(1j * theta * rng.choice([-1.0, 1.0]))
    return samplers.scrambled(samplers.two_term_state(rng.uniform(0.2, 0.8, 3), z), rng)


def _indefinite_source(rng):
    """Tangled state whose B or C overlap is 0 (c_ac or c_ab = 0)."""
    overlaps = list(rng.uniform(0.2, 0.8, 3))
    overlaps[int(rng.integers(1, 3))] = 0.0
    z = cmath.rect(rng.uniform(0.3, 3.0), rng.uniform(0.0, 2.0 * math.pi))
    return samplers.scrambled(samplers.two_term_state(overlaps, z), rng)


def test_unimodular_and_indefinite_sources_match_oracle():
    # sources on the |z| = 1 circle or without a canonical phase, against
    # random GHZ-type targets and real-weight (z = +-1) targets
    rng = np.random.default_rng(1806)
    reached = 0
    for make in (_unimodular_source, _indefinite_source):
        for _ in range(100):
            src = make(rng)
            targets = [sampling.random_state("ghz_type", int(rng.integers(0, 2**62)))
                       for _ in range(2)]
            targets.append(samplers.real_weight_ghz(rng, sign=int(rng.choice([-1, 1])))[0])
            g1 = ghz_canonical(src)
            for dst in targets:
                assert dlocc_feasible(src, dst).feasible == ghz_oracle(src, dst)
                # past its overlap test, the oracle takes a source without
                # canonical phase to a target with one on its own branch
                g2 = ghz_canonical(dst)
                reached += g1.z is None and all(d >= s for s, d in zip(g1[:3], g2[:3]))
    assert reached >= 50


@pytest.mark.xfail(strict=True, reason=(
    "ns_params tests |z| = 1 against TOL_ZERO, but a target rebuilt from its "
    "invariants sits 1e-8 to 1e-6 off the unit circle, so the oracle's s-law "
    "refuses targets that dlocc_feasible accepts"))
def test_unimodular_sources_on_surface_targets_match_oracle():
    rng = np.random.default_rng(1806)
    for _ in range(200):
        src = _unimodular_source(rng)
        dst = None
        while dst is None:
            dst = samplers.feasible_from(profile(src), rng)
        assert dlocc_feasible(src, dst).feasible == ghz_oracle(src, dst)


def test_oracle_s_law_without_a_target_shape():
    # a zeta-tilde-definite source just off z = -1 (delta_J = 3.6e-9 above
    # TOL_ZERO) and the real-weight target z = -1, whose s is undefined: the
    # n-law passes, so the oracle reaches its s2 None branch, and it agrees
    # with the decision that the target is out of reach
    src = samplers.two_term_state([0.5, 0.6, 0.7], -(1 + 1.2e-4))
    dst = samplers.two_term_state([0.5, 0.6, 0.7], -1.0)
    g1, g2 = ghz_canonical(src), ghz_canonical(dst)
    (n1, s1), (n2, s2) = ns_params(g1), ns_params(g2)
    r = (g1.c_a * g1.c_b * g1.c_c) / (g2.c_a * g2.c_b * g2.c_c)
    assert s1 is not None and s2 is None
    assert abs(n2 - n1 * r) <= state_core.TOL_EQ
    assert not ghz_oracle(src, dst)
    v = dlocc_feasible(src, dst)
    assert not v.feasible and v.violated == "zeta_out_of_range"


@pytest.mark.xfail(strict=True, reason=(
    "ep_definite reads c_ac against TOL_ZERO, so of two LU-equivalent states "
    "on either side of it the decision reaches only one from the other, and "
    "the oracle neither (ROADMAP item 3)"))
def test_lu_equivalent_states_across_the_ep_definite_boundary_reach_each_other():
    z = 1.3 * cmath.exp(0.7j)
    s = samplers.two_term_state([0.5, 0.6, 2e-9], z)
    twin = samplers.two_term_state([0.5, 0.6, 0.0], z)
    assert lu_equivalent(s, twin)
    assert profile(s).state_class.ep_definite and not profile(twin).state_class.ep_definite
    for a, b in ((s, twin), (twin, s)):
        assert dlocc_feasible(a, b).feasible
        assert ghz_oracle(a, b)


def test_expanding_row_is_out_of_range():
    # a target whose invariants grow by a collective factor keeps the
    # per-qubit factors at 1 but needs zeta above 1
    rng = np.random.default_rng(24)
    while True:
        src, p = samplers.ep_definite_ghz(rng)
        bigger = None
        for q in (p.q_e, 0, -p.q_e):
            bigger = locc.scaled_destination(p, 1.0, 1.0, 1.0, 0.82, q)
            if bigger is not None:
                break
        if bigger is None:
            continue
        v = dlocc_feasible(bigger, src)
        assert not v.feasible
        assert v.violated == "zeta_out_of_range"
        break


def test_indefinite_source_boundary_and_interior():
    # sources with free contraction ratio: targets on the row boundary must
    # carry zero charge, interior targets unit charge
    rng = np.random.default_rng(25)
    st, p = samplers.real_weight_ghz(rng, sign=1)
    boundary = locc.scaled_destination(p, 0.9, 0.95, 0.85, 1.0, 0)
    assert boundary is not None
    vb = dlocc_feasible(st, boundary)
    assert vb.feasible and vb.case == "A"

    zl = locc.zeta_lower(p, 0.9, 0.95, 0.85)
    zmid = zl + 0.5 * (1.0 - zl)
    interior = None
    for q in (1, -1):
        interior = locc.scaled_destination(p, 0.9, 0.95, 0.85, zmid, q)
        if interior is not None:
            break
    assert interior is not None
    vi = dlocc_feasible(st, interior)
    assert vi.feasible, vi


# ---------------------------------------------------------------------------
# measurement counts


def test_min_measurements_table():
    assert min_measurements(GHZ, BELL_BC) == 2
    assert min_measurements(GHZ, SEP) == 2
    assert min_measurements(GHZ, GHZ) == 3
    assert min_measurements(W, SEP) == 2
    weak_bc = S(0, 0.95, 0, 0, math.sqrt(0.0975), 0.0)
    assert min_measurements(W, weak_bc) == 2
    assert min_measurements(BELL_AB, BELL_AB) == 1
    assert min_measurements(BELL_AB, SEP) == 1
    assert min_measurements(SEP, SEP) == 0


def test_min_measurements_tri_to_tri():
    rng = np.random.default_rng(26)
    pair = None
    while pair is None:
        pair = samplers.feasible_pair(rng)
    src, dst = pair
    assert min_measurements(src, dst) == 3


def test_min_measurements_raises_when_infeasible():
    assert dlocc_feasible(SEP, GHZ).min_measurements is None
    with pytest.raises(NotFeasible):
        min_measurements(SEP, GHZ)
    with pytest.raises(NotFeasible):
        min_measurements(GHZ, W)
