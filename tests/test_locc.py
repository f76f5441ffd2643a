import cmath
import json
import math

import numpy as np
import pytest

from triloc import locc, state_core
from triloc.invariants import ep_phase, profile
from triloc.locc import (
    GhzCanonical,
    NotFeasible,
    NotGhzType,
    NotWType,
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
    # c_ac = 5e-9 is above TOL_ZERO, but c_ac^2 is lost in k_ac = c_ac^2 + tau,
    # so j_ap and the contracted product both read 0: no division by zero
    s = S(0.5, 0.5, 5e-9, 0.5, 0.5, 0.0)
    p = profile(s)
    assert p.state_class.ep_definite and p.derived.j_ap == 0.0
    verdict = dlocc_feasible(s, s)
    assert verdict.feasible and verdict.witness.zeta_lower == 0.0


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
        st = state_core.random_state("ghz_type", 3000 + seed)
        g = ghz_canonical(st)
        rotated = state_core.apply_local_unitaries(
            st, state_core.haar_unitary(rng), state_core.haar_unitary(rng),
            state_core.haar_unitary(rng))
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
        st = state_core.random_state("haar", 6200 + seed)
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
