import math

import numpy as np
import pytest

from triloc import locc, sampling, state_core, transfer
from triloc.invariants import CParams, lu_equivalent, lu_equivalent_profiles, profile
from triloc.state_core import GramParams, SchmidtCoeffs
from triloc.transfer import (
    DegenerateInput,
    TransferParams,
    alpha_average,
    lemma2_bounds,
    lemma4_check,
    predict_update,
    search_deterministic_measurement,
    synth_bisep_measurement,
    transfer_rule,
    verify_update,
)

import samplers

R2 = 1.0 / math.sqrt(2.0)
GHZ_CO = SchmidtCoeffs(R2, 0, 0, 0, R2, 0.0)
PINNED = SchmidtCoeffs(0.6, 0.2, 0.4, 0.4, math.sqrt(0.28), math.pi / 2)


def test_transfer_params_range():
    TransferParams(0.5, 1.0)
    with pytest.raises(ValueError):
        TransferParams(1.2, 0.5)
    with pytest.raises(ValueError):
        TransferParams(0.5, -0.1)


def test_transfer_rule_algebra():
    c = CParams(0.3, 0.2, 0.1, 0.4, 0.05)
    out = transfer_rule(c, TransferParams(0.5, 0.8))
    assert abs(out.c_ab - 0.15) < 1e-15
    assert abs(out.c_ac - 0.10) < 1e-15
    assert abs(out.tau - 0.1) < 1e-15
    assert abs(out.j5 - 0.0125) < 1e-15
    # released tangle (1 - 0.25) * 0.4, transferred share 0.8 of it
    assert abs(out.c_bc - math.sqrt(0.01 + 0.8 * 0.75 * 0.4)) < 1e-15


def test_identity_gram_leaves_state_alone():
    pred0, pred1 = predict_update(PINNED, GramParams(1.0, 1.0, 0.0, 0.0))
    assert abs(pred0.probability - 1.0) < 1e-12
    assert abs(pred0.alpha - 1.0) < 1e-12
    src = np.array(profile(state_core.state_from_schmidt(PINNED)).c.as_tuple())
    np.testing.assert_allclose(np.array(pred0.c.as_tuple()), src, atol=1e-9)
    assert pred1.alpha is None and pred1.probability < 1e-12


def test_projective_on_ghz():
    pred0, pred1 = predict_update(GHZ_CO, GramParams(1.0, 0.0, 0.0, 0.0))
    for pred in (pred0, pred1):
        assert abs(pred.probability - 0.5) < 1e-12
        assert abs(pred.alpha) < 1e-12
        assert max(pred.c.as_tuple()) < 1e-12


def test_predict_matches_direct_simulation():
    g = GramParams(0.3, 0.6, 0.25, 1.1)
    st = state_core.state_from_schmidt(PINNED)
    meas = state_core.measurement_from_grams(g)
    preds = predict_update(PINNED, g)
    sims = state_core.measure(st, meas)
    for pred, (sim_state, p) in zip(preds, sims):
        assert abs(pred.probability - p) < 1e-12
        got = np.array(profile(sim_state).c.as_tuple())
        np.testing.assert_allclose(np.array(pred.c.as_tuple()), got, atol=1e-9)
        assert pred.q_e == profile(sim_state).q_e


def test_verify_update_fuzz():
    kinds = state_core.RANDOM_KINDS
    for i in range(60):
        st = sampling.random_state(kinds[i % len(kinds)], 4000 + i)
        meas = sampling.random_measurement(8000 + i,
                                             qubit=state_core.QUBITS[i % 3])
        report = transfer.verify_update(st, meas)
        assert report["pass"], report
        assert report["max_deviation"] < 1e-8
        assert report["p_sum_deviation"] < 1e-12
        assert report["charge_consistent"]


def test_verify_update_report_shape():
    report = verify_update(sampling.random_state("haar", 1),
                           sampling.random_measurement(2, qubit="B"))
    assert report["qubit"] == "B"
    assert len(report["outcomes"]) == 2
    for out in report["outcomes"]:
        assert set(out) >= {"probability_predicted", "probability_simulated",
                            "alpha", "invariant_deviation",
                            "charge_predicted", "charge_simulated"}


def test_synth_bisep_on_ghz():
    st = state_core.state_from_schmidt(GHZ_CO)
    meas = synth_bisep_measurement(st)
    _, (ua, _, _) = state_core.schmidt_decompose(st)
    g = state_core.gram_params(meas.m0 @ np.array(ua).conj().T)
    assert abs(g.a - 0.5) < 1e-12 and abs(g.b - 0.5) < 1e-12
    assert abs(g.k - 0.5) < 1e-12
    assert abs(g.theta - math.pi / 2) < 1e-12
    for out, p in state_core.measure(st, meas):
        assert abs(p - 0.5) < 1e-12
        oc = profile(out).c
        assert abs(oc.c_bc - 1.0) < 1e-10  # a full Bell pair on BC
        assert oc.tau < 1e-10


def test_synth_bisep_random_states():
    for seed in range(30):
        st = sampling.random_state("ghz_type", 600 + seed)
        p = profile(st)
        meas = synth_bisep_measurement(st)
        state_core.validate_measurement(meas)
        outs = [o for o, pr in state_core.measure(st, meas) if o is not None]
        assert len(outs) == 2
        for out in outs:
            oc = profile(out).c
            # the whole shifted residue lands on the spectator pair
            assert abs(oc.c_bc**2 - p.k.k_bc) < 1e-8
            assert oc.tau < 1e-9 and oc.c_ab < 1e-6 and oc.c_ac < 1e-6
        assert lu_equivalent(outs[0], outs[1])


def test_verify_update_on_splitting_measurement():
    # the splitting grams are rank-1, so ab - k^2 is pure cancellation noise;
    # unsnapped it inflates to alpha ~ 1e-8 and fails the prediction gate.
    # On seeds 123598, 123769 and 123918 the complement of outcome 0's Gram
    # missed rank 1 by ~5e-16, beyond the snap: each outcome must be
    # predicted from its own operator.
    for seed in [*range(640, 660), 123598, 123769, 123918]:
        st = sampling.random_state("ghz_type", seed)
        rep = verify_update(st, synth_bisep_measurement(st))
        assert rep["pass"], rep["max_deviation"]
        assert rep["max_deviation"] < 1e-10
        for oc in rep["outcomes"]:
            assert oc["alpha"] == 0.0


def test_predict_update_rank1_complement():
    # a splitting Gram and its complement are both rank-1.  The complement's
    # determinant (1 - a)(1 - b) - k^2 carries the rounding of 1 - a and
    # 1 - b; snapped against (1 - a)(1 - b) + k^2 alone it left ~5e-16, and
    # outcome 1 got alpha ~ 1e-6 on seeds 123598, 123769 and 123918
    for seed in [*range(640, 660), 123598, 123769, 123918]:
        st = sampling.random_state("ghz_type", seed)
        coeffs, (ua, _, _) = state_core.schmidt_decompose(st)
        meas = synth_bisep_measurement(st)
        g0 = state_core.gram_params(meas.m0 @ np.array(ua).conj().T)
        pred0, pred1 = predict_update(coeffs, g0)
        assert (pred0.alpha, pred1.alpha) == (0.0, 0.0), seed
        sim1 = profile(state_core.measure(st, meas)[1][0])
        assert pred1.q_e == sim1.q_e
        assert pred1.c.max_deviation(sim1.c) < 1e-10


def test_rank1_gram_outcomes_profile_and_match_prediction():
    # k at its largest makes the Gram (a + b <= 1) or its complement
    # (a + b >= 1) rank-1.  A matrix square root that only clamps the
    # determinant turned its ~1e-17 residue into a ~3e-9 second singular
    # value of the operator: the outcome then straddled TOL_ZERO, so profile
    # raised on some outcomes and missed the prediction by ~3e-8 on others
    rng = np.random.default_rng(5)
    kinds = state_core.RANDOM_KINDS
    for i in range(160):
        st = sampling.random_state(kinds[i % len(kinds)], 30_000 + i)
        coeffs, (ua, _, _) = state_core.schmidt_decompose(st)
        small = 10.0 ** rng.uniform(-5.0, -1.0, 2)
        a, b = (rng.uniform(0.05, 0.95, 2), small, 1.0 - small)[i % 3]
        k = math.sqrt(min(a * b, (1.0 - a) * (1.0 - b)))
        g = GramParams(a, b, k, rng.uniform(0.0, 2.0 * math.pi))
        base = state_core.measurement_from_grams(g)
        ua = np.array(ua)
        meas = state_core.Measurement2("A", base.m0 @ ua, base.m1 @ ua)
        sims = state_core.measure(st, meas)
        for pred, (out, p) in zip(predict_update(coeffs, g), sims):
            assert abs(pred.probability - p) < 1e-10
            if out is None:
                continue
            sim = profile(out)
            assert sim.q_e == pred.q_e, (i, a, b)
            assert sim.c.max_deviation(pred.c) < 1e-10, (i, a, b)


def test_scalar_frame_products_match_numpy():
    # verify_update's normal-frame operator m ua^dag and _lab_measurement's
    # lab-frame operator base ua, on the rows of schmidt_decompose's ua
    rng = np.random.default_rng(1516)
    kinds = state_core.RANDOM_KINDS
    for i in range(210):
        st = sampling.random_state(kinds[i % len(kinds)], 40_000 + i)
        _, (ua, _, _) = state_core.schmidt_decompose(st)
        ua_arr = np.array(ua, dtype=complex)
        meas = sampling.random_measurement(40_000 + i, qubit="A")
        for rows, arr in zip(meas.ops, (meas.m0, meas.m1)):
            got = transfer._product(rows, transfer._dagger(ua))
            want = arr @ ua_arr.conj().T
            assert np.max(np.abs(np.array(got) - want)) <= 1e-15
            g, g_ref = state_core.gram_params(got), state_core.gram_params(want)
            assert max(abs(g.a - g_ref.a), abs(g.b - g_ref.b), abs(g.k - g_ref.k)) <= 1e-15
        a, b = rng.uniform(0.05, 0.95, 2)
        g = GramParams(a, b, rng.uniform(0.0, 1.0) * state_core._max_k(a, b),
                       rng.uniform(0.0, 2.0 * math.pi))
        base = state_core.measurement_from_grams(g)
        lab = transfer._lab_measurement(g, ua)
        for arr, want in zip((lab.m0, lab.m1), (base.m0 @ ua_arr, base.m1 @ ua_arr)):
            assert np.max(np.abs(arr - want)) <= 1e-15


@pytest.mark.parametrize("eps", [1e-3, 1e-4, 1e-6, 1e-8])
def test_predict_update_small_full_rank_complement(eps):
    # outcome 1 is eps * I: unlikely, but it leaves the state unchanged, so
    # its determinant eps^2 must survive the snap however small it is
    co = state_core.schmidt_decompose(sampling.random_state("ghz_type", 7))[0]
    src = profile(state_core.state_from_schmidt(co))
    _, pred1 = predict_update(co, GramParams(1.0 - eps, 1.0 - eps, 0.0, 0.0))
    assert abs(pred1.probability - eps) < 1e-15
    assert abs(pred1.alpha - 1.0) < 1e-6
    assert pred1.q_e == src.q_e
    assert pred1.c.max_deviation(src.c) < 1e-9


def test_synth_bisep_degenerate():
    # A times a Bell pair on BC: no weight on the measured side
    bell_bc = state_core.state_from_schmidt(SchmidtCoeffs(0.0, R2, 0.0, 0.0, R2, 0.0))
    with pytest.raises(DegenerateInput):
        synth_bisep_measurement(bell_bc)


def test_transfer_inequalities_fuzz():
    kinds = state_core.RANDOM_KINDS
    for i in range(120):
        st = sampling.random_state(kinds[i % len(kinds)], 9000 + i)
        meas = sampling.random_measurement(12000 + i,
                                             qubit=state_core.QUBITS[i % 3])
        lhs, mid, rhs = lemma2_bounds(st, meas)
        assert lhs <= mid + 1e-9
        assert mid <= rhs + 1e-9
        asum = alpha_average(st, meas)
        assert -1e-12 <= asum <= 1.0 + 1e-9
        avg, bound = lemma4_check(st, meas)
        assert avg <= bound + 1e-9


def test_average_residue_components():
    # the averaged spectator concurrence and averaged sqrt(tangle) fit in
    # one circle of radius sqrt(k_bc); simulated directly, no helpers
    for i in range(60):
        st = sampling.random_state("haar", 15000 + i)
        meas = sampling.random_measurement(17000 + i, qubit="A")
        src = profile(st)
        cb_avg = 0.0
        rt_avg = 0.0
        for out, p in state_core.measure(st, meas):
            if out is None:
                continue
            oc = profile(out).c
            cb_avg += p * oc.c_bc
            rt_avg += p * math.sqrt(oc.tau)
        assert cb_avg**2 + rt_avg**2 <= src.k.k_bc + 1e-9


def test_search_self_target():
    st = sampling.random_state("ghz_type", 40)
    meas = search_deterministic_measurement(st, st)
    assert meas is not None
    coeffs, (ua, _, _) = state_core.schmidt_decompose(st)
    g = state_core.gram_params(meas.m0 @ np.array(ua).conj().T)
    # any uniform attenuation works; the search must land on one
    assert abs(g.a - g.b) < 1e-4
    assert g.k < 1e-4
    for out, _ in state_core.measure(st, meas):
        assert lu_equivalent(out, st)


def test_search_ghz_to_bell():
    ghz = state_core.state_from_schmidt(GHZ_CO)
    bell = state_core.state_from_schmidt(SchmidtCoeffs(0, R2, 0, 0, R2, 0.0))
    meas = search_deterministic_measurement(ghz, bell)
    assert meas is not None
    coeffs, (ua, _, _) = state_core.schmidt_decompose(ghz)
    g = state_core.gram_params(meas.m0 @ np.array(ua).conj().T)
    # the splitting measurement is unique up to the free angle
    assert abs(g.a - 0.5) < 1e-4
    assert abs(g.b - 0.5) < 1e-4
    assert abs(g.k - 0.5) < 1e-4
    for out, _ in state_core.measure(ghz, meas):
        assert lu_equivalent(out, bell)


def test_search_rejects_unreachable():
    ghz = state_core.state_from_schmidt(GHZ_CO)
    stronger = sampling.random_state("ghz_type", 41)
    # a generic tangled target is not reachable from GHZ in one step on A
    # when its invariants do not lie on the GHZ contraction row
    assert search_deterministic_measurement(stronger, ghz) is None


# ---------------------------------------------------------------------------
# one-step synthesis

ONE_STEP_DRAWS = {"zt_definite": 200, "real_weight": 100, "w_type": 100, "pair": 100,
                  "chargeless": 200}


@pytest.mark.parametrize("kind", samplers.ONE_STEP_KINDS)
def test_search_one_step_pairs(kind):
    rng = np.random.default_rng([70, samplers.ONE_STEP_KINDS.index(kind)])
    for i in range(ONE_STEP_DRAWS[kind]):
        src, dst, step = samplers.one_step_pair(rng, kind)
        meas = search_deterministic_measurement(src, dst)
        assert meas is not None, (kind, i)
        pd = profile(dst)
        rule = transfer_rule(profile(src).c, step)
        # both outcomes, simulated and in closed form, obey the step's
        # transfer rule
        for out, _ in state_core.measure(src, meas):
            sim = profile(out)
            assert lu_equivalent_profiles(sim, pd), (kind, i)
            assert sim.c.max_deviation(rule) < 1e-9, (kind, i)
        assert verify_update(src, meas)["pass"], (kind, i)
        coeffs, (ua, _, _) = state_core.schmidt_decompose(src)
        preds = predict_update(coeffs, state_core.gram_params(meas.m0 @ np.array(ua).conj().T))
        for pred in preds:
            assert pred.c.max_deviation(rule) < 1e-9, (kind, i)


@pytest.mark.parametrize("seed, draw", [((906, 4), 180), ((907, 4), 157), ((90, 4), 185)],
                         ids=["906-4-180", "907-4-157", "90-4-185"])
def test_search_chargeless_unimodular_targets(seed, draw):
    # z = -1 sources with zeta = 1 chargeless targets: the target's weight z'
    # is unimodular, and both outcomes of the found step follow transfer_rule
    rng = np.random.default_rng(seed)
    for _ in range(draw + 1):
        src, dst, step = samplers.one_step_pair(rng, "chargeless")
    meas = search_deterministic_measurement(src, dst)
    assert meas is not None
    pd = profile(dst)
    rule = transfer_rule(profile(src).c, step)
    for out, _ in state_core.measure(src, meas):
        sim = profile(out)
        assert lu_equivalent_profiles(sim, pd)
        assert sim.c.max_deviation(rule) < 1e-9


@pytest.mark.parametrize("eta", [3e-8, -1e-7, 1e-6])
def test_two_term_gram_skips_inadmissible_pairings(eta):
    # a z = -1 source and a target with the same weight z' = -1 whose A
    # overlap is off by the factor 1 + eta: z' and 1/z' agree to rounding, so
    # the mixed pairings give near-singular rows whose least-squares x0
    # (1e5 to 1e9) fits with a smaller residual than the admissible x0 = 1/2;
    # it must not be chosen
    ps = profile(samplers.two_term_state((0.5, 0.6, 0.4), -1.0))
    pd = profile(samplers.two_term_state((0.5 * (1.0 + eta), 0.6, 0.4), -1.0))
    g = transfer._two_term_gram(ps, pd)
    assert 0.0 <= g.a <= 1.0 and 0.0 <= g.b <= 1.0
    assert g.k <= state_core._max_k(g.a, g.b) + 1e-12


@pytest.mark.parametrize("zero_slot", [1, 2])
def test_search_one_step_with_a_vanishing_overlap(zero_slot):
    # c_ac = 0 or c_ab = 0: a B or C overlap vanishes, so the weights'
    # phases are free and only the moduli of the two-term equation must fit
    rng = np.random.default_rng([76, zero_slot])
    for i in range(50):
        src, dst = samplers.free_phase_pair(rng, zero_slot)
        meas = search_deterministic_measurement(src, dst)
        assert meas is not None, i
        pd = profile(dst)
        for out, _ in state_core.measure(src, meas):
            assert lu_equivalent_profiles(profile(out), pd), i


def test_search_two_step_targets_return_none_unsimulated(monkeypatch):
    rng = np.random.default_rng(71)
    ghz, prof = samplers.ep_definite_ghz(rng)
    w = sampling.random_state("w_type", 72)
    c_bc = profile(w).c.c_bc
    bc_pair = samplers.chargeless_state(CParams(0.0, 0.0, 0.5 * c_bc, 0.0, 0.0), rng)
    weaker = None
    while weaker is None:
        weaker = samplers.feasible_from(prof, rng, lo=0.6, hi=0.9)
    pairs = [(ghz, sampling.random_state("full_separable", 73)), (w, bc_pair),
             (ghz, weaker)]
    for src, dst in pairs:
        assert locc.dlocc_feasible(src, dst).feasible
    assert locc.dlocc_feasible(ghz, weaker).witness.zeta_b < 0.9

    def simulate(*_):
        raise AssertionError("a target that needs two steps was simulated")

    monkeypatch.setattr(state_core, "measure", simulate)
    for src, dst in pairs:
        assert search_deterministic_measurement(src, dst) is None


def _ghz(theta):
    """cos(theta)|000> + sin(theta)|111>."""
    return state_core.state_from_schmidt(
        SchmidtCoeffs(math.cos(theta), 0, 0, 0, math.sin(theta), 0.0))


@pytest.mark.parametrize("theta, theta_t, found", [
    (math.pi / 4, 0.5, True), (math.pi / 4, 0.2, True), (0.6, 0.3, True),
    (0.5, 0.6, False)])
def test_search_between_ghz_family_states(theta, theta_t, found):
    # all overlaps vanish, so the two-term step meets the circles about 0
    src, dst = _ghz(theta), _ghz(theta_t)
    assert locc.dlocc_feasible(src, dst).feasible == found
    meas = search_deterministic_measurement(src, dst)
    assert (meas is not None) == found
    if found:
        for out, _ in state_core.measure(src, meas):
            assert lu_equivalent(out, dst)


def test_lemmas_skip_an_outcome_of_zero_probability():
    prod = state_core.state_from_schmidt(SchmidtCoeffs(1, 0, 0, 0, 0, 0.0))
    meas = state_core.Measurement2("A", [[1, 0], [0, 0]], [[0, 0], [0, 1]])
    assert state_core.measure(prod, meas)[1] == (None, 0.0)
    assert lemma2_bounds(prod, meas) == (0.0, 0.0, 0.0)
    assert lemma4_check(prod, meas) == (0.0, 0.0)
    assert alpha_average(prod, meas) == 0.0


def test_search_returns_none_for_feasible_targets_off_a_single_step():
    # a BC pair cannot be weakened by measuring A, and a W-type source
    # reaches a weaker BC pair or a product only in more than one step
    rng = np.random.default_rng(74)
    bc = sampling.random_state("biseparable_bc", 75)
    w = sampling.random_state("w_type", 76)
    pairs = [
        (bc, samplers.chargeless_state(CParams(0.0, 0.0, 0.5 * profile(bc).c.c_bc, 0.0, 0.0), rng)),
        (w, samplers.chargeless_state(CParams(0.0, 0.0, 0.5 * profile(w).c.c_bc, 0.0, 0.0), rng)),
        (w, sampling.random_state("full_separable", 77)),
    ]
    for src, dst in pairs:
        assert locc.dlocc_feasible(src, dst).feasible
        assert search_deterministic_measurement(src, dst) is None


def test_search_w_source_to_its_bc_pair():
    # zeta_a = 0 and zeta_b = zeta_c = 1: the A-step at za = 0 splits the
    # W-type source's own BC pair off in one step
    rng = np.random.default_rng(78)
    for i in range(40):
        w = sampling.random_state("w_type", int(rng.integers(0, 2**62)))
        dst = samplers.chargeless_state(CParams(0.0, 0.0, profile(w).c.c_bc, 0.0, 0.0), rng)
        meas = search_deterministic_measurement(w, dst)
        assert meas is not None, i
        pd = profile(dst)
        for out, _ in state_core.measure(w, meas):
            assert lu_equivalent_profiles(profile(out), pd), i
        assert verify_update(w, meas)["pass"], i


def test_search_answers_the_defect_questions():
    # the split-off pair is found, a random tangled target is not, and the
    # splitting measurement passes its own verification
    rng = np.random.default_rng([1, 3])
    for _ in range(50):
        src = sampling.random_state("ghz_type", int(rng.integers(0, 2**62)))
        split_meas = synth_bisep_measurement(src)
        split = samplers.scrambled(state_core.measure(src, split_meas)[0][0], rng)
        assert search_deterministic_measurement(src, split) is not None
        far = sampling.random_state("ghz_type", int(rng.integers(0, 2**62)))
        assert search_deterministic_measurement(src, far) is None
        assert verify_update(src, split_meas)["pass"]


def _c_step_leaves(src, dst):
    """(leaf, probability) of every branch the three-step chain src -> A ->
    B -> C -> dst starts its C step from, for a zeta-tilde-definite src: A
    and then B are measured to the source's residues scaled by the witness's
    zeta_a and then zeta_b, each branch searched from its own outcome."""
    w = locc.dlocc_feasible(src, dst).witness
    p = profile(src)
    q, leaves = p.q_e, [(src, 1.0)]
    for za, zb, order in ((w.zeta_a, 1.0, "ABC"), (1.0, w.zeta_b, "BAC")):
        target = locc.scaled_destination(p, za, zb, 1.0, locc.zeta_tilde(p, za, zb, 1.0), q)
        p = profile(target)
        front = state_core.permute_qubits(target, order)
        step = []
        for st, prob in leaves:
            st = state_core.permute_qubits(st, order)
            meas = search_deterministic_measurement(st, front)
            assert meas is not None
            step += [(state_core.permute_qubits(out, order), prob * p_out)
                     for out, p_out in state_core.measure(st, meas)]
        leaves = step
    return leaves


def test_search_from_drifted_unlikely_branches():
    # pairs 191, 231, 337, 367 and 371 of criterion 06's stream: one C-step
    # leaf of each, of probability 9e-6 to 3e-3, carries the decomposition
    # drift of two earlier steps.  An evenly split Gram residual, divided by
    # the small probability of one outcome, put it 2e-8 to 5e-7 off dst
    rng = np.random.default_rng(606)
    pairs = []
    while len(pairs) < 372:
        pair = samplers.feasible_pair(rng)
        if pair is not None:
            pairs.append(pair)
    for i in (191, 231, 337, 367, 371):
        src, dst = pairs[i]
        front = state_core.permute_qubits(dst, "CBA")
        for leaf, prob in _c_step_leaves(src, dst):
            meas = search_deterministic_measurement(
                state_core.permute_qubits(leaf, "CBA"), front)
            assert meas is not None, (i, prob)


def _drifted(state, rng):
    """state moved by eps = 10^U(-13, -10) along a random direction and
    renormalized."""
    eps = 10.0 ** rng.uniform(-13.0, -10.0)
    noise = rng.normal(size=8) + 1j * rng.normal(size=8)
    return state_core.validate_state(state.amplitudes + eps * noise / np.linalg.norm(noise))


@pytest.mark.parametrize("kind", [
    *(kind for kind in samplers.ONE_STEP_KINDS if kind != "w_type"),
    pytest.param("w_type", marks=pytest.mark.xfail(strict=True, reason=(
        "the A-step assumes phi = 0 and l4 = 0, but a drifted source still "
        "classed W has l4 ~ sqrt(tau), so both outcomes miss the target by "
        "~sqrt(tau) > TOL_EQ"))),
])
def test_search_from_drifted_source(kind):
    # a source up to 1e-10 off a one-step pair still has its step
    rng = np.random.default_rng(2024)
    missed = []
    for i in range(150):
        src, dst, _ = samplers.one_step_pair(rng, kind)
        if search_deterministic_measurement(_drifted(src, rng), dst) is None:
            missed.append(i)
    assert not missed, missed


def test_two_term_gram_ties_break_in_weights_order():
    # chargeless targets of real-weight sources: several pairings solve to
    # rounding, so the Gram must not depend on the last bits of the target's
    # profile (the first pairing in weights order wins)
    rng = np.random.default_rng(5)
    for i in range(60):
        src, dst, _ = samplers.one_step_pair(rng, "chargeless")
        ps = profile(src)
        g0, g1 = (transfer._two_term_gram(ps, profile(samplers.scrambled(dst, rng)))
                  for _ in range(2))
        if g0 is None or g1 is None:
            continue
        entries = [(g.a, g.b, g.k * complex(math.cos(g.theta), math.sin(g.theta)))
                   for g in (g0, g1)]
        assert max(abs(x - y) for x, y in zip(*entries)) < 1e-9, i
