import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from triloc import invariants, locc, sampling, state_core, transfer
from triloc.invariants import (
    CParams,
    Inconsistent,
    coeffs_from_invariants,
    derived,
    ep_phase,
    invariant_kernel,
    k_params,
    lu_equivalent,
    profile,
)
from triloc.state_core import RANDOM_KINDS, DecompositionFailed, SchmidtCoeffs

import oracles
import samplers

R3 = 1.0 / math.sqrt(3.0)
ORDERS = ("ABC", "ACB", "BAC", "BCA", "CAB", "CBA")


def test_w_state_exact_values():
    st = state_core.state_from_schmidt(SchmidtCoeffs(R3, 0, R3, R3, 0, 0.0))
    p = profile(st)
    np.testing.assert_allclose(p.c.as_tuple(),
                               (2 / 3, 2 / 3, 2 / 3, 0.0, 8 / 27), atol=1e-12)
    np.testing.assert_allclose((p.k.k_ab, p.k.k_ac, p.k.k_bc),
                               (4 / 9, 4 / 9, 4 / 9), atol=1e-12)
    assert abs(p.derived.delta_j) < 1e-12
    assert p.q_e == 0
    assert p.state_class.kind == "w_type"
    assert p.state_class.ep_definite
    # delta_j and the phase gap both vanish, so the contraction ratio is free
    assert not p.state_class.zeta_tilde_definite


def test_ghz_state_exact_values():
    r2 = 1.0 / math.sqrt(2.0)
    p = profile(state_core.state_from_schmidt(SchmidtCoeffs(r2, 0, 0, 0, r2, 0.0)))
    np.testing.assert_allclose(p.c.as_tuple(), (0, 0, 0, 1.0, 0.0), atol=1e-12)
    assert p.q_e == 0
    assert p.state_class.kind == "ghz_type"
    assert not p.state_class.ep_definite
    assert ep_phase(p.c) is None


# hand-checked profile: k_bc = 0.5504, k5 = 0.476928, so the charge bracket
# l0^2 - k5 / (2 k_bc) = -0.0733 is negative while sin(phi) = 1
PINNED = SchmidtCoeffs(0.6, 0.2, 0.4, 0.4, math.sqrt(0.28), math.pi / 2)


def test_pinned_charge_example():
    st = state_core.state_from_schmidt(PINNED)
    p = profile(st)
    assert p.q_e == -1
    assert p.state_class.zeta_tilde_definite
    np.testing.assert_allclose(
        p.c.as_tuple(), (0.48, 0.48, 2 * math.sqrt(0.0368), 0.4032, 0.073728),
        atol=1e-12)
    assert profile(state_core.complex_conjugate(st)).q_e == +1


def test_charge_flips_under_conjugation():
    for seed in range(60):
        st = sampling.random_state("haar", 7000 + seed)
        q = profile(st).q_e
        assert profile(state_core.complex_conjugate(st)).q_e == -q


def _surface_state(rng, i):
    """(surface, LU-scrambled state) on a surface where the charge test
    decides: a real phase, one coefficient zero or scaled by 1e-12..1e-6, or
    a discriminant delta_J of 1e-16..1e-6 (a near double root)."""
    lams = rng.uniform(0.15, 1.0, 5)
    surface = ("real_phase", "zero_coeff", "tiny_coeff", "near_double_root")[i % 4]
    slot = i // 4 % 5
    if surface == "real_phase":
        co = SchmidtCoeffs(*(lams / np.linalg.norm(lams)), math.pi * (slot % 2))
    elif surface == "near_double_root":
        co = None
        while co is None:
            c = invariants.c_params(SchmidtCoeffs(*(lams / np.linalg.norm(lams)),
                                                  rng.uniform(0.0, math.pi)))
            k = k_params(c)
            # k5 = sqrt(k_ap) + eps puts delta_J at about 2 eps sqrt(k_ap)
            k5 = math.sqrt(k.k_ab * k.k_ac * k.k_bc) + 10.0 ** rng.uniform(-16.0, -6.0)
            for q in (int(rng.choice([-1, 1])), 0):
                try:
                    co = coeffs_from_invariants(c._replace(j5=k5 - c.tau), q)[0]
                    break
                except Inconsistent:
                    pass
            lams = rng.uniform(0.15, 1.0, 5)
    else:
        lams[slot] *= 0.0 if surface == "zero_coeff" else 10.0 ** rng.uniform(-12.0, -6.0)
        lams /= np.linalg.norm(lams)
        phi = rng.uniform(0.0, math.pi) if min(lams) >= state_core.TOL.zero else 0.0
        co = SchmidtCoeffs(*lams, phi)
        if surface == "tiny_coeff" and slot == 0:
            surface = "tiny_l0"
    return surface, samplers.scrambled(state_core.state_from_schmidt(co), rng)


def test_charge_flips_under_conjugation_on_threshold_surfaces():
    rng = np.random.default_rng(19)
    for i in range(2000):
        surface, st = _surface_state(rng, i)
        try:
            q = profile(st).q_e
            q_conj = profile(state_core.complex_conjugate(st)).q_e
        except (Inconsistent, DecompositionFailed):
            # states with l0 ~ 1e-9..1e-6 are refused (ROADMAP item 3)
            assert surface == "tiny_l0"
            continue
        assert q_conj == -q, (surface, i)


def _scrambled_tiny_l0(l0):
    co = SchmidtCoeffs(l0, 0.3, 0.4, 0.6, math.sqrt(0.39 - 1e-14), 1.0)
    return co, samplers.scrambled(state_core.state_from_schmidt(co),
                                  np.random.default_rng(0))


def test_scrambled_state_with_a_tiny_l0_decomposes():
    co, st = _scrambled_tiny_l0(1e-7)
    assert profile(st).c.max_deviation(invariants.c_params(co)) < 1e-9


@pytest.mark.xfail(strict=True, raises=DecompositionFailed,
                   reason="no candidate is admitted at l0 ~ 1e-8 under local "
                          "unitaries (ROADMAP item 3)")
def test_scrambled_state_with_a_smaller_l0_decomposes():
    profile(_scrambled_tiny_l0(1e-8)[1])


def test_near_w_states_keep_their_invariants():
    # tangled states with tau ~ 1e-14..1e-12 under local unitaries: a pencil
    # discriminant of that size is no double root, and the two distinct
    # roots give invariants within 1e-12
    rng = np.random.default_rng(0)
    for i in range(1500):
        lams = rng.uniform(0.25, 1.0, 4)
        lams /= np.linalg.norm(lams)
        l4 = math.sqrt(10.0 ** rng.uniform(-14.0, -12.0)) / (2.0 * lams[0])
        v = np.append(lams, l4)
        co = SchmidtCoeffs(*(v / np.linalg.norm(v)), rng.uniform(0.0, math.pi))
        st = samplers.scrambled(state_core.state_from_schmidt(co), rng)
        assert profile(st).c.max_deviation(invariants.c_params(co)) <= 1e-12, i


def test_charge_bracket_is_the_discriminant_root(monkeypatch):
    # a charged kernel output has l0^2 - k5 / (2 k_bc) = +-sqrt(delta_J) / (2 k_bc)
    # with delta_J > TOL.zero, so the bracket's sign needs no zero test
    calls = []

    def recording(l0, *rest):
        out = invariant_kernel(l0, *rest)
        calls.append((l0, out))
        return out

    monkeypatch.setattr(invariants, "invariant_kernel", recording)
    monkeypatch.setattr(transfer, "invariant_kernel", recording)
    rng = np.random.default_rng(23)
    for i in range(600):
        try:
            profile(_surface_state(rng, i)[1])
        except (Inconsistent, DecompositionFailed):
            pass
        st = sampling.random_state(RANDOM_KINDS[i % len(RANDOM_KINDS)], 5200 + i)
        transfer.verify_update(st, sampling.random_measurement(6200 + i,
                                                               qubit="ABC"[i % 3]))
    charged = [(l0, k, der) for l0, (_, k, der, q) in calls if q != 0]
    assert len(charged) > 500
    for l0, k, der in charged:
        bracket = l0**2 - der.k5 / (2.0 * k.k_bc)
        assert 2.0 * k.k_bc * abs(bracket) == pytest.approx(math.sqrt(der.delta_j),
                                                           rel=1e-6)


def test_charge_permutation_invariant():
    st = state_core.state_from_schmidt(PINNED)
    for order in ORDERS:
        assert profile(state_core.permute_qubits(st, order)).q_e == -1


def test_concurrences_follow_permutation():
    st = sampling.random_state("haar", 91)
    c = profile(st).c
    # swapping B and C exchanges the AB and AC pairs and fixes BC
    cs = profile(state_core.permute_qubits(st, "ACB")).c
    np.testing.assert_allclose(
        (cs.c_ab, cs.c_ac, cs.c_bc, cs.tau, cs.j5),
        (c.c_ac, c.c_ab, c.c_bc, c.tau, c.j5), atol=1e-8)
    # cycling A<-B<-C
    cc = profile(state_core.permute_qubits(st, "BCA")).c
    np.testing.assert_allclose(
        (cc.c_ab, cc.c_ac, cc.c_bc, cc.tau, cc.j5),
        (c.c_bc, c.c_ab, c.c_ac, c.tau, c.j5), atol=1e-8)


def test_invariants_match_independent_oracles():
    # concurrences via Wootters' rank-2 singular-value recipe, tangle via
    # the quartic hyperdeterminant; both agree to rounding (~1e-15)
    for kind in RANDOM_KINDS:
        for seed in (2, 47, 311):
            st = sampling.random_state(kind, seed)
            c = profile(st).c
            v = st.amplitudes
            assert abs(c.c_ab - oracles.pair_concurrence(v, "AB")) < 1e-12
            assert abs(c.c_ac - oracles.pair_concurrence(v, "AC")) < 1e-12
            assert abs(c.c_bc - oracles.pair_concurrence(v, "BC")) < 1e-12
            assert abs(c.tau - oracles.hyperdeterminant_tangle(v)) < 1e-12


def _oracle_j5_samples():
    """(label, state): 300 random_state draws per kind, seeds from 700,000,
    then 50 states of each threshold family from default_rng(11)."""
    for kind in RANDOM_KINDS:
        for seed in range(700_000, 700_300):
            yield kind, sampling.random_state(kind, seed)
    rng = np.random.default_rng(11)
    for family in samplers.THRESHOLD_FAMILIES:
        for i in range(50):
            yield family, samplers.threshold_state(rng, family, i)


def test_fifth_invariant_and_discriminant_match_the_kempe_oracle():
    # j5 from Kempe's invariant, the purities and the hyperdeterminant, and
    # delta_J from it and the Wootters concurrences: no normal form involved
    for label, st in _oracle_j5_samples():
        p, v = profile(st), st.amplitudes
        j5 = oracles.fifth_invariant(v)
        tau = oracles.hyperdeterminant_tangle(v)
        k_ap = math.prod(oracles.pair_concurrence(v, pair) ** 2 + tau
                         for pair in ("AB", "AC", "BC"))
        assert abs(p.c.j5 - j5) <= 1e-13, label
        assert abs(p.derived.delta_j - max((tau + j5) ** 2 - k_ap, 0.0)) <= 1e-13, label


def test_monogamy_identity():
    # one-tangle of A splits exactly into the two concurrences plus the tangle
    for seed in range(40):
        st = sampling.random_state("haar", 500 + seed)
        c = profile(st).c
        lhs = oracles.one_tangle(st.amplitudes, "A")
        assert abs(lhs - (c.c_ab**2 + c.c_ac**2 + c.tau)) < 1e-12


def test_ep_phase_limits():
    assert abs(ep_phase(CParams(0.5, 0.5, 0.5, 0.1, 0.125))) < 1e-12
    assert abs(ep_phase(CParams(0.5, 0.5, 0.5, 0.1, 0.0)) - math.pi / 2) < 1e-12
    assert ep_phase(CParams(0.5, 0.0, 0.5, 0.1, 0.0)) is None


def test_negative_discriminant_rejected():
    # derived only computes (delta_j clamped at 0); the inversion refuses
    c = CParams(0.9, 0.9, 0.9, 0.01, 0.0)
    assert derived(c).delta_j == 0.0
    with pytest.raises(Inconsistent, match=r"k5\^2 - k_ap = .* < 0"):
        coeffs_from_invariants(c, 0)


def test_lu_equivalent_under_local_unitaries():
    rng = np.random.default_rng(4)
    for seed in range(20):
        st = sampling.random_state("haar", 900 + seed)
        ua = sampling.haar_unitary(rng)
        ub = sampling.haar_unitary(rng)
        uc = sampling.haar_unitary(rng)
        rotated = state_core.apply_local_unitaries(st, ua, ub, uc)
        assert lu_equivalent(st, rotated)


def test_lu_equivalent_distinguishes_classes():
    r2 = 1.0 / math.sqrt(2.0)
    ghz = state_core.state_from_schmidt(SchmidtCoeffs(r2, 0, 0, 0, r2, 0.0))
    w = state_core.state_from_schmidt(SchmidtCoeffs(R3, 0, R3, R3, 0, 0.0))
    assert not lu_equivalent(ghz, w)


def test_inversion_round_trip_all_kinds():
    for kind in RANDOM_KINDS:
        for seed in (1, 29, 83):
            st = sampling.random_state(kind, seed)
            p = profile(st)
            sets = coeffs_from_invariants(p.c, p.q_e)
            assert sets
            rebuilt = state_core.state_from_schmidt(sets[0])
            rp = profile(rebuilt)
            diff = np.abs(np.array(rp.c.as_tuple()) - np.array(p.c.as_tuple()))
            assert np.max(diff) < 1e-7, (kind, seed)
            assert rp.q_e == p.q_e


def test_chargeless_roots_are_lu_equivalent():
    # with a real phase both quadratic roots give physical states and they
    # must agree on every invariant
    co = SchmidtCoeffs(0.7, 0.1, 0.3, 0.25, math.sqrt(0.3475), 0.0)
    p = profile(state_core.state_from_schmidt(co))
    assert p.q_e == 0
    sets = coeffs_from_invariants(p.c, 0)
    assert len(sets) == 2
    assert sets[0].l0 >= sets[1].l0
    sa = state_core.state_from_schmidt(sets[0])
    sb = state_core.state_from_schmidt(sets[1])
    assert lu_equivalent(sa, sb)


def test_inversion_reads_a_rounding_negative_concurrence_as_zero():
    # c_ac a rounding step below zero once came back as the coefficient
    # l2 = -9.4e-13
    c = CParams(0.47766360732057733, -1.2395060640202174e-12, 0.4120695877724264,
                0.26533376676316345, -4.863047290273833e-17)
    sets = coeffs_from_invariants(c, 0)
    for co in sets:
        assert min(co[:5]) >= 0.0
        assert invariants.c_params(co).max_deviation(c) <= state_core.TOL.eq


def test_inversion_returns_distinct_sets_that_reproduce_the_invariants():
    # a maximal pair has one admissible split, a weaker pair two
    assert len(coeffs_from_invariants(CParams(1.0, 0.0, 0.0, 0.0, 0.0), 0)) == 1
    assert len(coeffs_from_invariants(CParams(0.0, 0.6, 0.0, 0.0, 0.0), 0)) == 2
    # invariants moved off the state manifold either fail cleanly or come
    # back as sets that reproduce them
    rng = np.random.default_rng(77)
    for i in range(300):
        p = profile(sampling.random_state(RANDOM_KINDS[i % len(RANDOM_KINDS)], 3100 + i))
        vals = list(p.c)
        vals[int(rng.integers(5))] += rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12, -4)
        c = CParams(*vals)
        try:
            sets = coeffs_from_invariants(c, p.q_e)
        except Inconsistent:
            continue
        for j, co in enumerate(sets):
            assert min(co[:5]) >= 0.0
            back = profile(state_core.state_from_schmidt(co))
            assert back.q_e == p.q_e
            assert invariants.c_params(co).max_deviation(c) <= state_core.TOL.eq
            for other in sets[:j]:
                assert max(abs(x - y) for x, y in zip(co, other)) > state_core.TOL.zero


@pytest.mark.parametrize("x", [
    5e-3,
    pytest.param(4e-3, marks=pytest.mark.xfail(strict=True, reason=(
        "phi is set only when 2 l1 l2 l3 l4 exceeds _NEGLIGIBLE, a degree-4 "
        "product read on the scale of one coefficient (5.1e-10 at x = 4e-3), "
        "so the state's own set is lost (ROADMAP item 3)"))),
])
def test_inversion_returns_the_state_s_own_chargeless_set(x):
    co = SchmidtCoeffs(math.sqrt(1.0 - 4.0 * x * x), x, x, x, x, 1.0)
    p = invariants.coeffs_profile(co)
    assert p.q_e == 0
    sets = coeffs_from_invariants(p.c, 0)
    assert any(max(abs(a - b) for a, b in zip(co, s)) <= 1e-9 for s in sets), sets


@pytest.mark.parametrize("x", [0.03, 0.05, 0.08, 0.1])
def test_inversion_returns_the_state_s_own_set_under_a_loose_zero_tolerance(monkeypatch, x):
    # the phase product 2 l1 l2 l3 l4 is made of coefficients: read against
    # TOL.zero = 1e-3 it set phi = 0, and only the other set came back
    monkeypatch.setattr(state_core, "TOL", state_core.Tolerances(zero=1e-3))
    co = SchmidtCoeffs(math.sqrt(1.0 - 4.0 * x * x), x, x, x, x, 1.0)
    p = invariants.coeffs_profile(co)
    sets = coeffs_from_invariants(p.c, p.q_e)
    assert any(max(abs(a - b) for a, b in zip(co, s)) <= 1e-9 for s in sets), sets


def test_inversion_under_a_tight_zero_tolerance(monkeypatch):
    # a coefficient of 1e-11..1e-9 is rounding noise to the decomposition,
    # whatever TOL.zero says, so its phase is 0 and the inversion's must be
    monkeypatch.setattr(state_core, "TOL", state_core.Tolerances(zero=1e-12))
    rng = np.random.default_rng(1)
    for i in range(60):
        lams = rng.uniform(0.2, 1.0, 5)
        lams[1 + i % 4] = 10.0 ** rng.uniform(-11.0, -9.0)
        co = SchmidtCoeffs(*lams / np.linalg.norm(lams), 0.0)
        p = profile(samplers.scrambled(state_core.state_from_schmidt(co), rng))
        assert coeffs_from_invariants(p.c, p.q_e), i


def _small_l0_forms(count):
    """Normal forms with l0 = 10^U(-5, -4.5), the other coefficients
    U(0.15, 1) scaled to norm 1 and phi U(0, pi), from default_rng(7)."""
    rng = np.random.default_rng(7)
    for _ in range(count):
        l0 = 10.0 ** rng.uniform(-5.0, -4.5)
        rest = rng.uniform(0.15, 1.0, 4)
        rest *= math.sqrt(1.0 - l0 * l0) / np.linalg.norm(rest)
        yield SchmidtCoeffs(l0, *rest.tolist(), rng.uniform(0.0, math.pi))


def test_inversion_of_a_tangled_state_with_a_small_l0():
    # tau = 1.2e-9 and q = 0.  The roots have l0^2 below TOL.zero, and a
    # guard that skipped them on l0^2 <= TOL.zero refused the state's own
    # invariants
    co = SchmidtCoeffs(2.8984782005288228e-05, 0.5734427212909086, 0.3905007000452899,
                       0.39518096003961184, 0.6020835960601059, 2.7149349301203394)
    p = invariants.coeffs_profile(co)
    assert p.state_class.kind == "ghz_type" and p.q_e == 0
    assert coeffs_from_invariants(p.c, p.q_e)
    rebuilt = locc.scaled_destination(p, 1.0, 1.0, 1.0, 1.0, p.q_e)
    assert rebuilt is not None and invariants.lu_equivalent_profiles(profile(rebuilt), p)


def test_inversion_of_tangled_states_with_small_l0s():
    # 18 of these 249 raised Inconsistent on their own invariants
    tangled = 0
    for co in _small_l0_forms(3000):
        p = invariants.coeffs_profile(co)
        if p.state_class.kind != "ghz_type":
            continue
        tangled += 1
        assert coeffs_from_invariants(p.c, p.q_e), co
        assert locc.scaled_destination(p, 1.0, 1.0, 1.0, 1.0, p.q_e) is not None, co
    assert tangled == 249


def test_inversion_skips_roots_with_a_vanishing_l0():
    # with the concurrences at 0, the TOL.eq slack on j5^2 admits |j5| up to
    # 1e-4, so k5 = tau + j5 < 0 and both roots put l0 at 0.  Each is skipped
    # before c_ac / (2 l0) divides by it, and no set is left
    with pytest.raises(Inconsistent, match="no coefficient set reproduces"):
        coeffs_from_invariants(CParams(0.0, 0.0, 0.0, 2e-9, -9e-5), 0)


def test_inversion_rejects_charged_tangle_free():
    with pytest.raises(Inconsistent, match="tangle"):
        coeffs_from_invariants(CParams(0.5, 0.0, 0.0, 0.0, 0.0), 1)


def test_inversion_rejects_two_bare_pairs():
    with pytest.raises(Inconsistent, match="cannot coexist"):
        coeffs_from_invariants(CParams(0.5, 0.5, 0.0, 0.0, 0.0), 0)


def test_inversion_rejects_out_of_range():
    # the range's slack above 1 is TOL.zero, as below 0
    for c_ab in (1.5, 1.0 + 1e-7):
        with pytest.raises(Inconsistent, match=r"outside \[0, 1\]"):
            coeffs_from_invariants(CParams(c_ab, 0.0, 0.0, 0.0, 0.0), 0)


def test_inversion_accepts_within_tol_eq(monkeypatch):
    # the round trip compares two invariant vectors, as LU-equivalence does
    p = profile(sampling.random_state("ghz_type", 3))
    assert len(coeffs_from_invariants(p.c, p.q_e)) == 1
    monkeypatch.setattr(state_core, "TOL", state_core.Tolerances(eq=1e-30))
    with pytest.raises(Inconsistent, match="no coefficient set reproduces"):
        coeffs_from_invariants(p.c, p.q_e)


def test_inversion_rejects_bad_charge():
    with pytest.raises(ValueError):
        coeffs_from_invariants(CParams(0.5, 0.0, 0.0, 0.0, 0.0), 2)


@pytest.mark.parametrize("make_error", [
    lambda: coeffs_from_invariants(CParams(*np.float64([0.1, 0.1, 0.1, 0.0, 0.0])), 0),
    lambda: coeffs_from_invariants(CParams(*np.float64([1.5, 0.0, 0.0, 0.0, 0.0])), 0),
    lambda: coeffs_from_invariants(CParams(*np.float64([0.5, 0.5, 0.0, 0.0, 0.0])), 0),
])
def test_error_messages_print_plain_floats(make_error):
    with pytest.raises(ValueError) as info:
        make_error()
    assert "np.float64" not in str(info.value)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(0.1, 1.0), min_size=5, max_size=5),
       st.integers(0, 4), st.floats(-12.0, -6.0),
       st.one_of(st.just(0.0), st.just(math.pi), st.floats(0.01, math.pi - 0.01)))
def test_class_agrees_with_its_values_near_a_vanishing_coefficient(lams, slot, exp, phi):
    # one coefficient in 1e-12..1e-6 puts a concurrence or the tangle in the
    # band around TOL.zero, where the class is decided once, on the profile
    lams[slot] *= 10.0**exp
    norm = math.sqrt(sum(x * x for x in lams))
    lams = [x / norm for x in lams]
    if min(lams) < state_core.TOL.zero:
        phi = 0.0  # the phase is removable once a coefficient vanishes
    s = state_core.state_from_schmidt(SchmidtCoeffs(*lams, phi))
    try:
        p = profile(s)
    except Inconsistent:
        return
    kind = p.state_class.kind
    assert (kind == "ghz_type") == (p.c.tau > state_core.TOL.zero)
    if kind == "w_type":
        assert p.state_class.ep_definite
    assert (locc.dlocc_feasible(s, s).case == "D") == (kind != "ghz_type")
