"""Entanglement transfer under a single two-outcome local measurement.

A measurement on one qubit rescales that qubit's two concurrences and the
tangle by a common per-outcome factor alpha, while the spectator pair picks
up a share of the released tangle.  This module predicts the per-outcome
invariants in closed form from the Gram parameters of the measurement
operator (expressed in the normal-form basis), verifies the prediction
against direct simulation, and constructs the measurements on A that carry
out a deterministic transformation in one step.

search_deterministic_measurement decides once, on the two profiles: the
verdict of locc.dlocc_feasible_profiles and its witness pick the case, and
each case has one closed-form normal-frame Gram of the step's outcome 0,
built by state_core.measurement_from_grams:

- target LU-equivalent to the source: the uniform Gram I/2;
- tangled to tangled with zeta_b = zeta_c = 1: the Gram that moves the
  source's two-term form (locc.two_term) onto the target's on both outcomes;
- the one A-step (_a_step_gram), which gives up a share of A's
  entanglement on both outcomes: W-type to W-type with zeta_b = zeta_c = 1,
  a tangled or W-type source to its own BC pair (the splitting Gram of
  synth_bisep_measurement), and a lone AB or AC pair to a weaker pair or a
  product (Nielsen's step).

Every other target (infeasible, or needing a measurement on B or C, or two
or more steps) gives None without simulating, and a constructed measurement
is returned only after simulation confirms both outcomes.  transfer_rule is
the specification of such a step: the tests hold both simulated outcomes to
it.

The transfer-law checks (lemma2_bounds, lemma4_check, alpha_average)
simulate each outcome with state_core.measure and read the spectator pair
from the A-slice pencil (state_core.spectator_pair), so they decompose
nothing; of the checks, only verify_update decomposes, because it compares
j5 and the charge.

A state or measurement from outside is checked where it enters
(state_from_dict, measurement_from_dict, validate_state,
validate_measurement, or the PureState3 and Measurement2 constructors).
Those the library builds are trusted: the checks move a measurement to slot
A with its rows as they are, form each Gram from the rows they hold, and
measure builds its outcomes from the amplitude tuples it computes.  A Gram
entry that overflows still raises NonFinite.

Only the synthesis imports locc, when it first runs, so the prediction and
verification path (triloc measure) loads no decision code.
"""

import cmath
import math
from collections import namedtuple

from . import state_core
from .invariants import (CParams, _entangled_pairs, coeffs_profile, invariant_kernel,
                         lu_equivalent_profiles, profile)
from .state_core import (_NEGLIGIBLE, _SLACK, GramParams, Measurement2, _checked_make,
                         _complement_det, _gram_det, _gram_entries,
                         _gram_from_entries)


class ZeroProbability(RuntimeError):
    """Both outcomes of a measurement are degenerate (inconsistent Grams)."""


class DegenerateInput(ValueError):
    """The state has no weight on the measured side of the normal form."""


class TransferParams(namedtuple("TransferParams", "alpha beta")):
    """Attenuation alpha and transfer share beta of one measurement outcome.

    alpha scales the measured qubit's concurrences and sqrt(tangle); beta is
    the fraction of the released tangle deposited on the spectator pair (the
    rest dissipates).
    """

    __slots__ = ()

    def __new__(cls, alpha, beta):
        for name, v in (("alpha", alpha), ("beta", beta)):
            if not math.isfinite(v) or not -_SLACK <= v <= 1.0 + _SLACK:
                raise ValueError(f"{name} must lie in [0, 1]")
        return tuple.__new__(cls, (alpha, beta))

    _make = _checked_make


def transfer_rule(c, t):
    """Invariants after one deterministic step with transfer parameters t,
    measuring A.

    The dissipated tangle is (1 - beta) * (1 - alpha^2) * tau.  Only the
    outcomes of a deterministic step obey it: a generic outcome keeps the
    scaling of c_ab, c_ac and tau but not that of j5.
    """
    a2 = t.alpha**2
    return CParams(
        c_ab=t.alpha * c.c_ab,
        c_ac=t.alpha * c.c_ac,
        c_bc=math.sqrt(c.c_bc**2 + t.beta * (1.0 - a2) * c.tau),
        tau=a2 * c.tau,
        j5=a2 * c.j5,
    )


# ---------------------------------------------------------------------------
# closed-form outcome prediction


class OutcomePrediction(namedtuple("OutcomePrediction", "probability alpha c q_e")):
    """Predicted data of one measurement outcome: its probability, the
    attenuation alpha, the CParams and the charge.

    A degenerate outcome (probability at most TOL.zero) carries None in every
    other field.
    """

    __slots__ = ()


def _probability(co, a, b, k, theta):
    """Probability of the outcome with Gram parameters (a, b, k, theta) on
    the normal form co."""
    return (co.l0**2 * a + (1.0 - co.l0**2) * b
            + 2.0 * k * co.l0 * co.l1 * math.cos(theta - co.phi))


def _predict_one(co, g, det):
    """Prediction for the Gram g, whose snapped determinant ab - k^2 is det:
    the outcome's normal form is l0 sqrt(det / (p b)), the complex slot
    (l0 k e^{i theta} + l1 e^{i phi} b) / sqrt(p b), and sqrt(b / p) l2, l3, l4,
    exact for every b > 0 as k <= sqrt(ab); at b = 0 it is a product.
    """
    tz = state_core.TOL.zero
    p = _probability(co, *g)
    if p <= tz:
        return OutcomePrediction(p, None, None, None)
    if g.b <= 0.0:
        # the operator annihilates the normal form's |1>: a pure product remains
        return OutcomePrediction(p, 0.0, CParams(0.0, 0.0, 0.0, 0.0, 0.0), 0)
    root_pb = math.sqrt(p * g.b)
    l1c = (co.l0 * g.k * cmath.exp(1j * g.theta)
           + co.l1 * cmath.exp(1j * co.phi) * g.b) / root_pb
    scale = math.sqrt(g.b / p)
    c, _, _, q = invariant_kernel(
        co.l0 * math.sqrt(det) / root_pb, l1c, co.l2 * scale, co.l3 * scale,
        co.l4 * scale)
    c = CParams(min(c.c_ab, 1.0), min(c.c_ac, 1.0), min(c.c_bc, 1.0), min(c.tau, 1.0), c.j5)
    return OutcomePrediction(p, math.sqrt(det) / p, c, q)


def predict_update(coeffs, gram):
    """Predict both outcomes of a measurement on qubit A of the normal form.

    gram parametrizes the outcome-0 Gram matrix; outcome 1 takes the
    complement, so the pair is complete by construction.
    """
    a, b, k = gram.a, gram.b, gram.k
    return _nondegenerate_pair(
        _predict_one(coeffs, gram, _gram_det(a, b, k)),
        _predict_one(coeffs, gram.complement(), _complement_det(a, b, k)))


def _nondegenerate_pair(pred0, pred1):
    if pred0.alpha is None and pred1.alpha is None:
        raise ZeroProbability("both outcomes have vanishing probability")
    return pred0, pred1


# ---------------------------------------------------------------------------
# verification against direct simulation


def _product(x, y):
    """The product x y of two 2x2 operators given as pairs of rows."""
    (x00, x01), (x10, x11) = x
    (y00, y01), (y10, y11) = y
    return ((x00 * y00 + x01 * y10, x00 * y01 + x01 * y11),
            (x10 * y00 + x11 * y10, x10 * y01 + x11 * y11))


def _dagger(u):
    """The conjugate transpose of a 2x2 operator given as a pair of rows."""
    (u00, u01), (u10, u11) = u
    return ((u00.conjugate(), u10.conjugate()), (u01.conjugate(), u11.conjugate()))


_FRONT = {"A": None, "B": "BAC", "C": "CBA"}


def _measured_front(state, meas):
    """Permute so the measured qubit sits in slot A (the normal-form slot).

    The spectator pair then always reads as the BC pair of the permuted
    frame, whatever qubit the measurement targets.
    """
    order = _FRONT[meas.qubit]
    if order is None:
        return state, meas
    return (state_core.permute_qubits(state, order),
            state_core._trusted_measurement("A", meas.ops))


def verify_update(state, meas):
    """Compare predicted outcome invariants against direct simulation.

    Works for a measurement on any qubit.  Each outcome is predicted from
    its own operator's Gram parameters, so an incomplete measurement is
    checked against what its operators do, and the report gives its miss as
    p_sum_deviation.  The report passes when the worst probability or
    invariant deviation is at most TOL.eq and every (integer) charge matches.
    """
    qubit = meas.qubit
    front, meas = _measured_front(state, meas)
    coeffs, (ua, _, _) = state_core.schmidt_decompose(front)
    uah = _dagger(ua)
    grams = [_gram_from_entries(*_gram_entries(_product(m, uah))) for m in meas.ops]
    preds = _nondegenerate_pair(
        *(_predict_one(coeffs, g, _gram_det(g.a, g.b, g.k)) for g in grams))
    sims = state_core.measure(front, meas)
    max_dev = 0.0
    charge_ok = True
    outcomes = []
    for pred, (sim_state, sim_p) in zip(preds, sims):
        entry = {"probability_predicted": pred.probability,
                 "probability_simulated": sim_p,
                 "alpha": pred.alpha,
                 "invariant_deviation": None,
                 "charge_predicted": pred.q_e,
                 "charge_simulated": None}
        max_dev = max(max_dev, abs(pred.probability - sim_p))
        if sim_state is not None and pred.c is not None:
            prof = profile(sim_state)
            dev = prof.c.max_deviation(pred.c)
            entry["invariant_deviation"] = dev
            entry["charge_simulated"] = prof.q_e
            max_dev = max(max_dev, dev)
            charge_ok = charge_ok and prof.q_e == pred.q_e
        outcomes.append(entry)
    p_sum_dev = abs(sum(p for _, p in sims) - 1.0)
    return {"qubit": qubit,
            "max_deviation": max_dev,
            "p_sum_deviation": p_sum_dev,
            "charge_consistent": charge_ok,
            "pass": bool(max_dev <= state_core.TOL.eq and charge_ok),
            "outcomes": outcomes}


# ---------------------------------------------------------------------------
# deterministic splitting measurement


def synth_bisep_measurement(state):
    """Measurement on A that splits off the BC pair of state deterministically.

    Both outcomes annihilate the measured qubit's entanglement and push the
    full shifted pair residue onto the spectators: the outcome states carry
    C_BC'^2 equal to the source's C_BC^2 + tau, and are locally equivalent
    to each other.  The two operators are rank-1 projectors, built from the
    splitting Gram by measurement_from_grams and rotated into the lab frame
    of state.
    """
    coeffs, (ua, _, _) = state_core.schmidt_decompose(state)
    return _lab_measurement(_a_step_gram(coeffs, 0.0), ua)


def _a_step_gram(co, za):
    """Outcome-0 Gram of the step on A with a + b = 1 and ab - k^2 = za / 4.

    At za = 0 it and its complement are rank-1 projectors that split off
    the BC pair.  On a normal form with phi = 0 (a W-type state or a lone
    pair) both outcomes have probability 1/2 and scale l0, and with it A's
    concurrences, by sqrt(za), moving the rest of that weight into the l1
    slot and leaving l2, l3 and l4 as they are.
    """
    h = math.hypot(co.l1 * math.sin(co.phi), co.l0)
    if h <= _NEGLIGIBLE:
        raise DegenerateInput("no weight on the measured side of the normal form")
    t = math.sqrt(1.0 - za)
    shift = t * co.l1 * math.sin(co.phi) / (2.0 * h)
    return GramParams(0.5 - shift, 0.5 + shift, t * (co.l0 / (2.0 * h)), math.pi / 2.0)


def _lab_measurement(g, ua):
    """The measurement on A with outcome-0 Gram g in the normal frame of a
    state decomposed with A's local unitary ua (as rows), in that state's
    lab frame."""
    base = state_core.measurement_from_grams(g)
    return Measurement2("A", *(_product(m, ua) for m in base.ops))


# ---------------------------------------------------------------------------
# transfer-law checks on simulated outcomes


def _outcome_terms(state, meas):
    """Per-outcome (p, alpha, state) of a measurement, simulated honestly,
    and the measured-front source state.

    Degenerate outcomes are skipped; alpha comes from the Gram determinant,
    which the frame rotation into the normal form leaves untouched.  The
    Gram is formed from the operator's rows, whose entries Measurement2
    found finite; its entries can still overflow, which raises NonFinite.
    """
    front, meas = _measured_front(state, meas)
    terms = []
    for m, (sim_state, p) in zip(meas.ops, state_core.measure(front, meas)):
        if sim_state is None:
            continue
        a, b, off = _gram_entries(m)
        k = abs(off)
        if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(k)):
            raise state_core.NonFinite("non-finite gram entry")
        terms.append((p, math.sqrt(_gram_det(a, b, k)) / p, sim_state))
    return front, terms


def alpha_average(state, meas):
    """Probability-weighted attenuation sum(p_i alpha_i), which never
    exceeds 1 for a complete measurement."""
    _, terms = _outcome_terms(state, meas)
    return sum(p * alpha for p, alpha, _ in terms)


def lemma2_bounds(state, meas):
    """Bounds on the average spectator-pair concurrence after measuring.

    Returns (lhs, mid, rhs): the source concurrence of the unmeasured pair,
    its probability-averaged outcome value, and the transfer ceiling.  The
    law is lhs <= mid <= rhs for a complete measurement.  Every c_bc and
    tau comes from state_core.spectator_pair: nothing is decomposed.
    """
    front, terms = _outcome_terms(state, meas)
    c_bc, tau, _ = state_core.spectator_pair(front)
    mid = sum(p * state_core.spectator_pair(out)[0] for p, _, out in terms)
    asum = sum(p * alpha for p, alpha, _ in terms)
    rhs = math.sqrt(c_bc**2 + max(1.0 - asum**2, 0.0) * tau)
    return c_bc, mid, rhs


def lemma4_check(state, meas):
    """Average shifted pair residue of the unmeasured pair never grows.

    Returns (avg, bound) with the law avg <= bound for a complete
    measurement.  Each sqrt(k_bc) is read from the A-slice pencil
    (state_core.spectator_pair), so nothing is decomposed.
    """
    front, terms = _outcome_terms(state, meas)
    avg = sum(p * state_core.spectator_pair(out)[2] for p, _, out in terms)
    return avg, state_core.spectator_pair(front)[2]


# ---------------------------------------------------------------------------
# one-step measurement synthesis


def _circle_point(c, r0, r1):
    """A point h with |h| = r0 and |c - h| = r1, and by how much the two
    circles miss each other (0 when they meet)."""
    d = abs(c)
    miss = max(abs(r0 - r1) - d, d - r0 - r1, 0.0)
    if d == 0.0:
        return complex(r0), miss
    p = (r0**2 - r1**2 + d**2) / (2.0 * d)
    return c / d * complex(p, math.sqrt(max(r0**2 - p**2, 0.0))), miss


def _two_term_gram(ps, pd):
    """Gram of the step between two tangled states with the same B and C
    overlaps, or None.

    In the source's two-term form (locc.two_term), with E = [e0, |1>], a Gram
    G acts through H = E^dag G E: the outcome keeps the B and C terms and
    has A-overlap |H10| / sqrt(H00 H11) and weight
    |z| sqrt(H11 / H00) e^{i arg H10}.  Outcome i takes a weight z_i that
    the target admits (z' or 1/z'), so with r_i = |z_i / z|^2 outcome 0 has
    H11 = r_0 H00 and H10 = x0 v0, v_i = c_a' z_i / |z|, where x0 = H00.
    H(G0) + H(G1) = H(I) then reads x0 r0 + (1 - x0) r1 = 1 on the diagonal
    and x0 v0 + (1 - x0) v1 = e0[1] off it; of the pairings whose H00 and
    H11 lie in [0, 1], the one that solves both best is taken, the first in
    weights order among residuals equal within _SLACK.  The residual goes
    whole to the more probable outcome, and the other is solved exactly: an
    outcome divides its share by its probability.  When c_ab or c_ac
    vanishes, a B or C overlap is zero and the weights' phases are free:
    only the moduli of the off-diagonal terms must fit.
    """
    from . import locc
    (e00, e10), z = locc.two_term(ps.coeffs)
    (_, t10), zt = locc.two_term(pd.coeffs)
    ca_t, mod = abs(t10), abs(z)
    free = not all(_entangled_pairs(ps.c)[:2])
    f, g = 1.0 / e00, -e10 / e00

    def entries(x0, y0, h0):
        """(a, b, off) of G0 = F^dag H0 F with F = E^-1 = [[f, 0], [g, 1]]."""
        return (f * f * x0 + 2.0 * f * (h0 * g.conjugate()).real + abs(g)**2 * y0,
                y0, h0 * f + y0 * g)

    weights = (zt, 1.0 / zt)
    best = None
    for z0 in weights:
        for z1 in weights:
            r0, r1 = (abs(x / z)**2 for x in (z0, z1))
            v0, v1 = ca_t * z0 / mod, ca_t * z1 / mod
            if free:
                x0 = (1.0 - r1) / (r0 - r1) if abs(r0 - r1) > state_core.TOL.eq else 0.5
                h0, res = _circle_point(e10, abs(v0) * x0, abs(v1) * (1.0 - x0))
                res += abs(x0 * r0 + (1.0 - x0) * r1 - 1.0)
                h1 = h0
            else:
                # x0 solves the rows p_i x0 = q_i in least squares: near |z| = 1
                # the diagonal row alone is a ratio of two small numbers.  The
                # sums add from 0.0 in order, as sum() did before 3.12 compensated
                dv, de = v0 - v1, e10 - v1
                p0, p1, p2, q0, q1, q2 = r0 - r1, dv.real, dv.imag, 1.0 - r1, de.real, de.imag
                norm = 0.0 + p0 * p0 + p1 * p1 + p2 * p2
                x0 = (0.0 + p0 * q0 + p1 * q1 + p2 * q2) / norm if norm > 0.0 else 0.5
                res = math.hypot(p0 * x0 - q0, p1 * x0 - q1, p2 * x0 - q2)
                h0, h1 = x0 * v0, e10 - (1.0 - x0) * v1
            # (H11, H10) of outcome 0 when outcome 0, or outcome 1, is exact
            exact0, exact1 = (r0 * x0, h0), (1.0 - r1 * (1.0 - x0), h1)
            a, b, off = entries(x0, *exact0)
            p0 = _probability(ps.coeffs, a, b, abs(off), cmath.phase(off))
            y0, h0 = exact1 if p0 >= 0.5 else exact0
            # a near-singular pairing can fit with a smaller residual than an
            # admissible one, so only admissible pairings compete
            if not (0.0 <= x0 <= 1.0 and 0.0 <= y0 <= 1.0):
                continue
            if best is None or res < best[0] - _SLACK:
                best = (res, x0, y0, h0)
    if best is None or best[0] > math.sqrt(state_core.TOL.eq):
        return None
    return _gram_from_entries(*entries(*best[1:]))


def _step_gram(ps, pd, w):
    """Normal-frame outcome-0 Gram of one deterministic step on A from ps to
    pd under the witness w of a feasible verdict, or None when no single
    step on A does it.  The verdict fixes the class pair: a lone AB or AC
    pair reaches that pair or a product, whose concurrence the witness
    scales by zeta_a; with zeta_b = zeta_c = 1 a tangled source reaches a
    tangled target or its own BC pair, and a W-type source a W-type target
    or its own BC pair, where the A-step scales A's squared concurrences by
    zeta_a (0 for the pair)."""
    if lu_equivalent_profiles(ps, pd):
        return GramParams(0.5, 0.5, 0.0, 0.0)
    if ps.state_class.kind == "biseparable":
        if ps.state_class.pair == "BC":
            return None
        return _a_step_gram(ps.coeffs, w.zeta_a ** 2)
    if min(w.zeta_b, w.zeta_c) < 1.0 - state_core.TOL.eq:
        return None
    if pd.state_class.kind == "ghz_type":
        return _two_term_gram(ps, pd)
    return _a_step_gram(ps.coeffs, w.zeta_a)


def search_deterministic_measurement(state, target):
    """A measurement on A sending state to target on both outcomes, or None.

    Decides once, on the two profiles: the verdict and its witness pick the
    closed-form normal-frame Gram of the single step on A (_step_gram; see
    the module docstring).  Returns None without simulating exactly where
    the verdict is infeasible or _step_gram gives None, as for a target that
    needs a measurement on another qubit or more than one step.  Otherwise
    the measurement is rotated into the lab frame of state and returned only
    when both simulated outcomes are LU-equivalent to target.
    """
    from . import locc
    coeffs, (ua, _, _) = state_core.schmidt_decompose(state)
    ps, pd = coeffs_profile(coeffs), profile(target)
    verdict = locc.dlocc_feasible_profiles(ps, pd)
    g = _step_gram(ps, pd, verdict.witness) if verdict.feasible else None
    if g is None:
        return None
    meas = _lab_measurement(g, ua)
    for sim_state, _ in state_core.measure(state, meas):
        if sim_state is None or not lu_equivalent_profiles(profile(sim_state), pd):
            return None
    return meas
