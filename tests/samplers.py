"""Constructive samplers for transformation test pairs.

The feasibility surface is thin, so random destination states are almost
never reachable; these helpers build destinations that sit exactly on the
surface (scaling the pair residues by admissible contraction factors), or
at a controlled offset from it.
"""

import numpy as np

from triloc import invariants, locc, state_core


def ep_definite_ghz(rng, min_c=0.05, max_tries=400):
    """Random tangled state whose three concurrences all exceed min_c."""
    for _ in range(max_tries):
        st = state_core.random_state("ghz_type", int(rng.integers(1, 2**31)))
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
