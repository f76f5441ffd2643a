import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from triloc import invariants, locc, state_core
from triloc.invariants import (
    CParams,
    Inconsistent,
    NegativeDiscriminant,
    coeffs_from_invariants,
    derived,
    ep_phase,
    k_params,
    lu_equivalent,
    profile,
)
from triloc.state_core import RANDOM_KINDS, SchmidtCoeffs

import oracles

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
        st = state_core.random_state("haar", 7000 + seed)
        q = profile(st).q_e
        assert profile(state_core.complex_conjugate(st)).q_e == -q


def test_charge_permutation_invariant():
    st = state_core.state_from_schmidt(PINNED)
    for order in ORDERS:
        assert profile(state_core.permute_qubits(st, order)).q_e == -1


def test_concurrences_follow_permutation():
    st = state_core.random_state("haar", 91)
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
    # concurrences via the spin-flip recipe, tangle via the quartic
    # hyperdeterminant; the oracle eigen-solves carry ~1e-9 noise
    for kind in RANDOM_KINDS:
        for seed in (2, 47, 311):
            st = state_core.random_state(kind, seed)
            c = profile(st).c
            v = st.amplitudes
            assert abs(c.c_ab - oracles.pair_concurrence(v, "AB")) < 1e-7
            assert abs(c.c_ac - oracles.pair_concurrence(v, "AC")) < 1e-7
            assert abs(c.c_bc - oracles.pair_concurrence(v, "BC")) < 1e-7
            assert abs(c.tau - oracles.hyperdeterminant_tangle(v)) < 1e-7


def test_monogamy_identity():
    # one-tangle of A splits exactly into the two concurrences plus the tangle
    for seed in range(40):
        st = state_core.random_state("haar", 500 + seed)
        c = profile(st).c
        lhs = oracles.one_tangle(st.amplitudes, "A")
        assert abs(lhs - (c.c_ab**2 + c.c_ac**2 + c.tau)) < 1e-6


def test_ep_phase_limits():
    assert abs(ep_phase(CParams(0.5, 0.5, 0.5, 0.1, 0.125))) < 1e-12
    assert abs(ep_phase(CParams(0.5, 0.5, 0.5, 0.1, 0.0)) - math.pi / 2) < 1e-12
    assert ep_phase(CParams(0.5, 0.0, 0.5, 0.1, 0.0)) is None


def test_negative_discriminant_rejected():
    with pytest.raises(NegativeDiscriminant):
        derived(k_params(CParams(0.9, 0.9, 0.9, 0.01, 0.0)))


def test_lu_equivalent_under_local_unitaries():
    rng = np.random.default_rng(4)
    for seed in range(20):
        st = state_core.random_state("haar", 900 + seed)
        ua = state_core.haar_unitary(rng)
        ub = state_core.haar_unitary(rng)
        uc = state_core.haar_unitary(rng)
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
            st = state_core.random_state(kind, seed)
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


def test_inversion_rejects_charged_tangle_free():
    with pytest.raises(Inconsistent, match="tangle"):
        coeffs_from_invariants(CParams(0.5, 0.0, 0.0, 0.0, 0.0), 1)


def test_inversion_rejects_two_bare_pairs():
    with pytest.raises(Inconsistent, match="cannot coexist"):
        coeffs_from_invariants(CParams(0.5, 0.5, 0.0, 0.0, 0.0), 0)


def test_inversion_rejects_out_of_range():
    with pytest.raises(Inconsistent):
        coeffs_from_invariants(CParams(1.5, 0.0, 0.0, 0.0, 0.0), 0)


def test_inversion_rejects_bad_charge():
    with pytest.raises(ValueError):
        coeffs_from_invariants(CParams(0.5, 0.0, 0.0, 0.0, 0.0), 2)


@pytest.mark.parametrize("make_error", [
    lambda: derived(invariants.KParams(*np.float64([0.1, 0.1, 0.1, 0.0, 0.0]))),
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
    # band around TOL_ZERO, where the class is decided once, on the profile
    lams[slot] *= 10.0**exp
    norm = math.sqrt(sum(x * x for x in lams))
    lams = [x / norm for x in lams]
    if min(lams) < state_core.TOL_ZERO:
        phi = 0.0  # the phase is removable once a coefficient vanishes
    s = state_core.state_from_schmidt(SchmidtCoeffs(*lams, phi))
    try:
        p = profile(s)
    except Inconsistent:
        return
    kind = p.state_class.kind
    assert (kind == "ghz_type") == (p.c.tau > state_core.TOL_ZERO)
    if kind == "w_type":
        assert p.state_class.ep_definite
    assert (locc.dlocc_feasible(s, s).case == "D") == (kind != "ghz_type")
