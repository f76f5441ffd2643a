"""Entanglement transfer under a single two-outcome local measurement.

A measurement on one qubit rescales that qubit's two concurrences and the
tangle by a common per-outcome factor alpha, while the spectator pair picks
up a share of the released tangle.  This module predicts the per-outcome
invariants in closed form from the Gram parameters of the measurement
operator (expressed in the normal-form basis), verifies the prediction
against direct simulation, synthesizes the measurement that splits off the
spectator pair deterministically, and searches for measurements realizing a
requested deterministic transformation.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import state_core
from .invariants import CParams, invariant_kernel, lu_equivalent_profiles, profile
from .state_core import (GramParams, Measurement2, _complement_det, _gram_det,
                         _max_k)


class ZeroProbability(RuntimeError):
    """Both outcomes of a measurement are degenerate (inconsistent Grams)."""


class DegenerateInput(ValueError):
    """The state has no weight on the measured side of the normal form."""


@dataclass(frozen=True)
class TransferParams:
    """Attenuation alpha and transfer share beta of one measurement outcome.

    alpha scales the measured qubit's concurrences and sqrt(tangle); beta is
    the fraction of the released tangle deposited on the spectator pair (the
    rest dissipates).
    """

    alpha: float
    beta: float

    def __post_init__(self):
        for name in ("alpha", "beta"):
            v = getattr(self, name)
            if not math.isfinite(v) or not -1e-12 <= v <= 1.0 + 1e-12:
                raise ValueError(f"{name} must lie in [0, 1]")


def transfer_rule(c, t):
    """Invariants after an outcome with transfer parameters t, measuring A.

    The dissipated tangle is (1 - beta) * (1 - alpha^2) * tau.
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


def _raw_update(co, a, b, k, theta, det):
    """Unnormalized-phase update of the normal-form coefficients.

    det is the snapped Gram determinant ab - k^2.  Broadcasts over
    array-valued Gram parameters.  Returns
    (p, l0, l1c, l2, l3, l4) where l1c is the complex slot whose magnitude
    and phase are the updated l1 and phi; the other coefficients stay real
    nonnegative.  Meaningless where p or b vanish; callers must branch.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    k = np.asarray(k, dtype=float)
    theta = np.asarray(theta, dtype=float)
    p = (co.l0**2 * a + (1.0 - co.l0**2) * b
         + 2.0 * k * co.l0 * co.l1 * np.cos(theta - co.phi))
    # clamp so an all-zero gram divides cleanly; callers discard those slots
    root_pb = np.maximum(np.sqrt(np.maximum(p, 1e-300) * np.maximum(b, 1e-300)),
                         1e-300)
    l0 = co.l0 * np.sqrt(det) / root_pb
    l1c = (co.l0 * k * np.exp(1j * theta) + co.l1 * cmath.exp(1j * co.phi) * b) / root_pb
    scale = np.sqrt(np.maximum(b, 0.0) / np.maximum(p, 1e-300))
    return p, l0, l1c, co.l2 * scale, co.l3 * scale, co.l4 * scale


@dataclass(frozen=True)
class OutcomePrediction:
    """Predicted data of one measurement outcome.

    A degenerate outcome (probability below TOL_ZERO) carries None in every
    other field.
    """

    probability: float
    alpha: float | None
    c: CParams | None
    q_e: int | None


def _predict_one(co, g, det):
    """Prediction for the Gram g, whose snapped determinant is det."""
    tz = state_core.TOL_ZERO
    p, l0, l1c, l2, l3, l4 = _raw_update(co, g.a, g.b, g.k, g.theta, det)
    p = float(p)
    if p <= tz:
        return OutcomePrediction(p, None, None, None)
    if g.b <= tz:
        # the measured side loses its |1> range: a pure product remains
        return OutcomePrediction(p, 0.0, CParams(0.0, 0.0, 0.0, 0.0, 0.0), 0)
    cab, cac, cbc, tau, j5, q = (x.item() for x in invariant_kernel(l0, l1c, l2, l3, l4))
    c = CParams(min(cab, 1.0), min(cac, 1.0), min(cbc, 1.0), min(tau, 1.0), j5)
    return OutcomePrediction(p, math.sqrt(float(det)) / p, c, int(q))


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

_FRONT = {"A": None, "B": "BAC", "C": "CBA"}

# worst probability/invariant deviation a verified prediction may show
VERIFY_TOL = 1e-8


def _measured_front(state, meas):
    """Permute so the measured qubit sits in slot A (the normal-form slot).

    The spectator pair then always reads as the BC pair of the permuted
    frame, whatever qubit the measurement targets.
    """
    order = _FRONT[meas.qubit]
    if order is None:
        return state, meas
    return (state_core.permute_qubits(state, order),
            Measurement2("A", meas.m0, meas.m1))


def verify_update(state, meas):
    """Compare predicted outcome invariants against direct simulation.

    Works for a measurement on any qubit.  Each outcome is predicted from
    its own operator's Gram parameters, so a measurement that is complete
    only within TOL_NORM is checked against what its operators do.  Returns
    a report dict with the worst probability/invariant deviation; charges
    are compared separately (they are integers, so they either match or
    they do not).  The report passes when that deviation is at most
    VERIFY_TOL and every charge matches.
    """
    qubit = meas.qubit
    front, meas = _measured_front(state, meas)
    coeffs, (ua, _, _) = state_core.schmidt_decompose(front)
    grams = [state_core.gram_params(m @ ua.conj().T) for m in meas.operators()]
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
            "pass": bool(max_dev <= VERIFY_TOL and charge_ok),
            "outcomes": outcomes}


# ---------------------------------------------------------------------------
# deterministic splitting measurement


def synth_bisep_measurement(target):
    """Measurement on A that splits off the BC pair deterministically.

    Both outcomes annihilate the measured qubit's entanglement and push the
    full shifted pair residue onto the spectators: the outcome states carry
    C_BC'^2 equal to the source's C_BC^2 + tau, and are locally equivalent
    to each other.  The two operators are rank-1 projectors built from the
    normal-form coefficients.

    Accepts SchmidtCoeffs (operators in the normal-form basis) or a
    PureState3 (operators rotated into the lab frame of that state).
    """
    if isinstance(target, state_core.PureState3):
        coeffs, (ua, _, _) = state_core.schmidt_decompose(target)
        base = synth_bisep_measurement(coeffs)
        return Measurement2("A", base.m0 @ ua, base.m1 @ ua)
    co = target
    h = math.hypot(co.l1 * math.sin(co.phi), co.l0)
    if h <= state_core.TOL_ZERO:
        raise DegenerateInput("no weight on the measured side of the normal form")
    shift = co.l1 * math.sin(co.phi) / (2.0 * h)
    g0 = GramParams(0.5 - shift, 0.5 + shift, co.l0 / (2.0 * h), math.pi / 2.0)
    # a + b = 1 and ab = k^2 make both Grams rank-1 projectors, so the Grams
    # themselves are valid (and complete) measurement operators
    return Measurement2("A", g0.matrix(), g0.complement().matrix())


# ---------------------------------------------------------------------------
# transfer-law checks on simulated outcomes


def _outcome_terms(state, meas):
    """Per-outcome (p, alpha, state) of a measurement, simulated honestly,
    and the measured-front source state.

    Degenerate outcomes are skipped; alpha comes from the Gram determinant,
    which the frame rotation into the normal form leaves untouched.
    """
    front, meas = _measured_front(state, meas)
    terms = []
    for m, (sim_state, p) in zip(meas.operators(), state_core.measure(front, meas)):
        if sim_state is None:
            continue
        g = state_core.gram_params(m)
        det = float(_gram_det(g.a, g.b, g.k))
        terms.append((p, math.sqrt(det) / p, sim_state))
    return front, terms


def alpha_average(state, meas):
    """Probability-weighted attenuation sum(p_i alpha_i), which never
    exceeds 1."""
    _, terms = _outcome_terms(state, meas)
    return sum(p * alpha for p, alpha, _ in terms)


def lemma2_bounds(state, meas):
    """Bounds on the average spectator-pair concurrence after measuring.

    Returns (lhs, mid, rhs): the source concurrence of the unmeasured pair,
    its probability-averaged outcome value, and the transfer ceiling.  The
    law is lhs <= mid <= rhs.
    """
    front, terms = _outcome_terms(state, meas)
    src = profile(front)
    mid = sum(p * profile(out).c.c_bc for p, _, out in terms)
    asum = sum(p * alpha for p, alpha, _ in terms)
    rhs = math.sqrt(src.c.c_bc**2 + max(1.0 - asum**2, 0.0) * src.c.tau)
    return src.c.c_bc, mid, rhs


def lemma4_check(state, meas):
    """Average shifted pair residue of the unmeasured pair never grows.

    Returns (avg, bound) with the law avg <= bound.
    """
    front, terms = _outcome_terms(state, meas)
    avg = sum(p * math.sqrt(profile(out).k.k_bc) for p, _, out in terms)
    return avg, math.sqrt(profile(front).k.k_bc)


# ---------------------------------------------------------------------------
# measurement search


def _objective_arrays(co, a, b, k, theta, tvec, tq):
    """Worst-outcome invariant distance to the target, broadcast over grids."""
    dev = None
    for aa, bb, th, det in ((a, b, theta, _gram_det),
                            (1.0 - a, 1.0 - b, theta + math.pi, _complement_det)):
        p, *lams = _raw_update(co, aa, bb, k, th, det(a, b, k))
        inv = invariant_kernel(*lams)
        d = np.zeros_like(p)
        for got, want in zip(inv[:5], tvec):
            d = np.maximum(d, np.abs(got - want))
        d = d + np.where(inv[5] == tq, 0.0, 1.0)
        d = np.where((p > 1e-9) & (np.asarray(bb) > 1e-9), d, np.inf)
        dev = d if dev is None else np.maximum(dev, d)
    return dev


def _nelder_mead(f, x0, xatol, fatol, maxiter):
    """Minimize f from x0 by the non-adaptive Nelder-Mead simplex method.

    The initial simplex scales each coordinate of x0 in turn by 1.05 (or sets
    it to 0.00025 where it is zero).  Reflection 1, expansion 2, contraction
    and shrink 1/2; the vertices are re-sorted by value after every
    iteration.  Stops once the simplex spans at most xatol and its values at
    most fatol, or after maxiter - 1 iterations.  Returns (x, fx).
    """
    rho, chi, psi, sigma = 1.0, 2.0, 0.5, 0.5
    n = len(x0)
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for j in range(n):
        y = np.array(x0, dtype=float)
        y[j] = 1.05 * y[j] if y[j] != 0 else 0.00025
        sim[j + 1] = y
    fsim = np.array([f(v) for v in sim])
    order = np.argsort(fsim)
    sim, fsim = sim[order], fsim[order]
    iterations = 1
    while iterations < maxiter:
        if (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = (1 + rho) * xbar - rho * sim[-1]
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                fxc = f(xc)
                accept = fxc <= fxr
            else:
                xc = (1 - psi) * xbar + psi * sim[-1]
                fxc = f(xc)
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                    fsim[j] = f(sim[j])
        iterations += 1
        order = np.argsort(fsim)
        sim, fsim = sim[order], fsim[order]
    return sim[0], np.min(fsim)


def _grid_axes():
    a = np.linspace(0.03, 0.97, 21)
    kf = np.linspace(0.0, 1.0, 13)
    th = np.linspace(0.0, 2.0 * math.pi, 25, endpoint=False)
    return a, kf, th


def search_deterministic_measurement(state, target):
    """Search for a single measurement on A sending state to target on both
    outcomes.

    Coarse grid over Gram parameters, then a deterministic simplex refine;
    the winner is kept only if simulation confirms both outcomes are locally
    equivalent to the target.  Returns the lab-frame measurement, or None.
    """
    coeffs, (ua, _, _) = state_core.schmidt_decompose(state)
    tprof = profile(target)
    tvec = np.array(tprof.c.as_tuple())
    tq = tprof.q_e

    av, kfv, thv = _grid_axes()
    ag, bg, kfg, thg = np.meshgrid(av, av, kfv, thv, indexing="ij")
    ag, bg, kfg, thg = (x.ravel() for x in (ag, bg, kfg, thg))
    devs = _objective_arrays(coeffs, ag, bg, kfg * _max_k(ag, bg), thg, tvec, tq)
    best = int(np.argmin(devs))

    def unpack(x):
        a = min(max(x[0], 1e-3), 1.0 - 1e-3)
        b = min(max(x[1], 1e-3), 1.0 - 1e-3)
        kf = min(max(x[2], 0.0), 1.0)
        return a, b, kf * _max_k(a, b), x[3] % (2.0 * math.pi)

    def f(x):
        a, b, k, th = unpack(x)
        return float(_objective_arrays(coeffs, a, b, k, th, tvec, tq))

    x0 = np.array([ag[best], bg[best], kfg[best], thg[best]])
    x, fx = _nelder_mead(f, x0, xatol=1e-10, fatol=1e-12, maxiter=2000)
    x = x if fx <= f(x0) else x0
    a, b, k, th = unpack(x)
    base = state_core.measurement_from_grams(GramParams(a, b, k, th))
    meas = Measurement2("A", base.m0 @ ua, base.m1 @ ua)
    for sim_state, _ in state_core.measure(state, meas):
        if sim_state is None or not lu_equivalent_profiles(profile(sim_state), tprof):
            return None
    return meas
