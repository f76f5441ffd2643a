"""Constructive samplers for transformation test pairs.

The feasibility surface is thin, so random destination states are almost
never reachable; these helpers build destinations that sit exactly on the
surface (scaling the pair residues by admissible contraction factors), or
at a controlled offset from it.
"""

import math

import numpy as np

from triloc import invariants, locc, sampling, state_core
from triloc.transfer import TransferParams


def ep_definite_ghz(rng, min_c=0.05, max_tries=400):
    """Random tangled state whose three concurrences all exceed min_c."""
    for _ in range(max_tries):
        st = sampling.random_state("ghz_type", int(rng.integers(1, 2**31)))
        prof = invariants.profile(st)
        if (prof.state_class.kind == "ghz_type"
                and prof.state_class.ep_definite
                and min(prof.c.c_ab, prof.c.c_ac, prof.c.c_bc) > min_c):
            return st, prof
    raise RuntimeError("sampler failed to find a suitable source state")


def feasible_from(prof, rng, lo=0.6, hi=1.0):
    """Destination reachable from a state with the given profile, or None."""
    za, zb, zc = rng.uniform(lo, hi, 3)
    if prof.state_class.zeta_tilde_definite:
        z = locc.zeta_tilde(prof, za, zb, zc)
        q = prof.q_e
    else:
        zl = max(locc.zeta_lower(prof, za, zb, zc), 0.0)
        z = rng.uniform(zl + 0.1 * (1.0 - zl), 1.0)
        q = int(rng.choice([-1, 1]))
    if z is None or not (0.0 <= z <= 1.0):
        return None
    dst = locc.scaled_destination(prof, za, zb, zc, z, q)
    if dst is None and not prof.state_class.zeta_tilde_definite:
        dst = locc.scaled_destination(prof, za, zb, zc, z, 0)
    return dst


def feasible_pair(rng, lo=0.6, hi=1.0, min_c=0.05):
    """(src, dst) with dst reachable from src, or None on a bad draw."""
    src, prof = ep_definite_ghz(rng, min_c=min_c)
    dst = feasible_from(prof, rng, lo=lo, hi=hi)
    if dst is None:
        return None
    return src, dst


def offset_pair(rng, margin=1e-3, min_c=0.1):
    """(src, dst_on, dst_off): on-surface destination and one pushed off.

    The off-surface state scales the distinguished factor by (1 - margin),
    which breaks the second transformation condition while keeping the
    invariants realizable.  Returns None on a bad draw.
    """
    src, prof = ep_definite_ghz(rng, min_c=min_c)
    if not prof.state_class.zeta_tilde_definite:
        return None
    za, zb, zc = rng.uniform(0.7, 0.95, 3)
    z = locc.zeta_tilde(prof, za, zb, zc)
    if z is None or not (margin < z <= 1.0):
        return None
    dst_on = locc.scaled_destination(prof, za, zb, zc, z, prof.q_e)
    dst_off = locc.scaled_destination(prof, za, zb, zc, z * (1.0 - margin), prof.q_e)
    if dst_on is None or dst_off is None:
        return None
    return src, dst_on, dst_off


def real_weight_ghz(rng, sign=1):
    """Two-product-term state with a real relative weight.

    Such states have an ill-defined distinguished contraction factor, which
    exercises the interior-charge branch of the decision.
    """
    for _ in range(200):
        vecs = []
        for _i in range(3):
            u = rng.normal(size=2) + 1j * rng.normal(size=2)
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            u /= np.linalg.norm(u)
            v /= np.linalg.norm(v)
            ov = np.vdot(u, v)
            if not 0.1 < abs(ov) < 0.9:
                continue
            # gauge the basis so the overlap is real positive; only then does
            # the +/- weight below land on the real axis of the canonical form
            v = v * (ov.conjugate() / abs(ov))
            vecs.append((u, v))
        if len(vecs) != 3:
            continue
        t0 = np.kron(np.kron(vecs[0][0], vecs[1][0]), vecs[2][0])
        t1 = np.kron(np.kron(vecs[0][1], vecs[1][1]), vecs[2][1])
        amps = t0 + sign * t1
        amps /= np.linalg.norm(amps)
        st = state_core.PureState3(amps)
        prof = invariants.profile(st)
        if (prof.state_class.kind == "ghz_type"
                and prof.state_class.ep_definite
                and not prof.state_class.zeta_tilde_definite
                and min(prof.c.c_ab, prof.c.c_ac, prof.c.c_bc) > 0.05):
            return st, prof
    raise RuntimeError("sampler failed to build a real-weight state")


def scrambled(state, rng):
    """state under Haar-random local unitaries (same invariants)."""
    return state_core.apply_local_unitaries(
        state, *(sampling.haar_unitary(rng) for _ in range(3)))


def chargeless_state(c, rng):
    """LU-scrambled chargeless state with invariants c."""
    coeffs = invariants.coeffs_from_invariants(c, 0)[0]
    return scrambled(state_core.state_from_schmidt(coeffs), rng)


THRESHOLD_FAMILIES = ("real_phase", "vanishing_coeff", "double_root", "near_product")


def threshold_state(rng, family, i):
    """State i of a threshold family: a real phase (0 or pi by the parity of
    i), the coefficient l_(i % 5) exactly zero, a double root (delta_J = 0,
    charge 0), each LU-scrambled, or a product state plus a Haar-random
    admixture of weight 10^-(2 + i % 4)."""
    lams = rng.uniform(0.15, 1.0, 5)
    if family == "real_phase":
        coeffs = state_core.SchmidtCoeffs(*(lams / np.linalg.norm(lams)), math.pi * (i % 2))
    elif family == "vanishing_coeff":
        lams[i % 5] = 0.0
        coeffs = state_core.SchmidtCoeffs(*(lams / np.linalg.norm(lams)), 0.0)
    elif family == "double_root":
        while True:
            c = invariants.c_params(state_core.SchmidtCoeffs(
                *(lams / np.linalg.norm(lams)), rng.uniform(0.0, math.pi)))
            k = invariants.k_params(c)
            # the j5 that closes the discriminant: k5 = sqrt(k_ap)
            j5 = math.sqrt(k.k_ab * k.k_ac * k.k_bc) - c.tau
            if abs(j5) < c.c_ab * c.c_ac * c.c_bc:
                return chargeless_state(c._replace(j5=j5), rng)
            lams = rng.uniform(0.3, 1.0, 5)
    elif family == "near_product":
        seed = int(rng.integers(1, 2**31))
        amps = (sampling.random_state("full_separable", seed).amplitudes
                + 10.0 ** -(2 + i % 4) * sampling.random_state("haar", seed + 1).amplitudes)
        return state_core.PureState3(amps / np.linalg.norm(amps))
    else:
        raise ValueError(family)
    return scrambled(state_core.state_from_schmidt(coeffs), rng)


ONE_STEP_KINDS = ("zt_definite", "real_weight", "w_type", "pair", "chargeless")


def one_step_pair(rng, kind, lo=0.3, hi=0.95):
    """(src, dst, TransferParams) with dst one deterministic step on A from
    src, and the step's attenuation alpha and transfer share beta.

    Tangled kinds scale the residues like feasible_from with zeta_b =
    zeta_c = 1 ("zt_definite": zeta-tilde-definite source, "real_weight":
    real_weight_ghz source, "chargeless": the same source scaled to an end
    of its zeta range, zeta = 1 or zeta_lower, where the target has charge
    0 and its two-term weight z' is real or unimodular).
    "w_type" scales the excitation coordinate x1 of a W-type state, "pair"
    the concurrence of an AB or AC pair (to zero on one draw in ten, a
    product target).
    """
    while True:
        za = rng.uniform(lo, hi)
        if kind == "w_type":
            src = sampling.random_state("w_type", int(rng.integers(1, 2**31)))
            x1, x2, x3 = locc.w_coords(invariants.profile(src).c).as_tuple()
            x1 *= math.sqrt(za)
            c = invariants.CParams(2 * x1 * x2, 2 * x1 * x3, 2 * x2 * x3, 0.0,
                                   8 * (x1 * x2 * x3) ** 2)
            return src, chargeless_state(c, rng), TransferParams(math.sqrt(za), 0.0)
        if kind == "pair":
            pair = ("ab", "ac")[int(rng.integers(2))]
            src = sampling.random_state("biseparable_" + pair, int(rng.integers(1, 2**31)))
            prof = invariants.profile(src)
            r = 0.0 if rng.uniform() < 0.1 else za
            cp = r * (prof.c.c_ab if pair == "ab" else prof.c.c_ac)
            c = invariants.CParams(cp if pair == "ab" else 0.0,
                                   cp if pair == "ac" else 0.0, 0.0, 0.0, 0.0)
            return src, chargeless_state(c, rng), TransferParams(r, 0.0)
        if kind == "zt_definite":
            src, prof = ep_definite_ghz(rng)
            if not prof.state_class.zeta_tilde_definite:
                continue
            z, q = locc.zeta_tilde(prof, za, 1.0, 1.0), prof.q_e
        else:
            src, prof = real_weight_ghz(rng, sign=int(rng.choice([-1, 1])))
            src = scrambled(src, rng)
            zl = max(locc.zeta_lower(prof, za, 1.0, 1.0), 0.0)
            if kind == "chargeless":
                z, q = (1.0, zl)[int(rng.integers(2))], 0
            else:
                z, q = rng.uniform(zl + 0.1 * (1.0 - zl), 1.0), int(rng.choice([-1, 1]))
        if z is None or not 0.0 < z <= 1.0:
            continue
        dst = locc.scaled_destination(prof, za, 1.0, 1.0, z, q)
        if dst is None:
            continue
        a2 = z * za
        c_bc2 = z * prof.k.k_bc - a2 * prof.c.tau
        beta = (c_bc2 - prof.c.c_bc**2) / ((1.0 - a2) * prof.c.tau)
        return src, scrambled(dst, rng), TransferParams(math.sqrt(a2), beta)


def two_term_state(overlaps, z):
    """|a0 b0 c0> + z |a1 b1 c1>, normalized, where x0 = |0> and x1 has the
    real overlap <x0|x1> given for x = a, b, c."""
    t0, t1 = np.ones(1), np.ones(1)
    for c in overlaps:
        t0 = np.kron(t0, [1.0, 0.0])
        t1 = np.kron(t1, [c, math.sqrt(1.0 - c * c)])
    amps = t0 + z * t1
    return state_core.PureState3(amps / np.linalg.norm(amps))


def free_phase_pair(rng, zero_slot):
    """(src, dst): tangled states whose B (zero_slot 1) or C (zero_slot 2)
    overlap vanishes, dst one deterministic step on A from src.

    Outcome 0 takes dst's weight z' = z sqrt(r0) and outcome 1 its inverse,
    so H(G0) has diagonal x0 (1, r0) with x0 (r0 - r1) = 1 - r1, and the
    A-overlap c_a' of dst is drawn where the two off-diagonal terms, of
    moduli c_a' sqrt(r_i) x_i, can add up to the source's c_a.
    """
    while True:
        ca, c_other = rng.uniform(0.2, 0.8, 2)
        z, r0 = rng.uniform(0.5, 2.0), rng.uniform(0.3, 3.0)
        r1 = 1.0 / (r0 * z**4)
        x0 = (1.0 - r1) / (r0 - r1)
        if not 0.05 < x0 < 0.95:
            continue
        m0, m1 = math.sqrt(r0) * x0, math.sqrt(r1) * (1.0 - x0)
        lo, hi = ca / (m0 + m1), min(ca / max(abs(m0 - m1), 1e-12), 0.95)
        if lo < hi:
            break
    overlaps = [ca, c_other, c_other]
    overlaps[zero_slot] = 0.0
    src = two_term_state(overlaps, z)
    overlaps[0] = rng.uniform(lo, hi)
    return scrambled(src, rng), scrambled(two_term_state(overlaps, z * math.sqrt(r0)), rng)
