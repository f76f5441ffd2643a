"""Deterministic transformability of three-qubit pure states under local
operations and classical communication.

The decision procedure works entirely on the six invariants.  A tangled
target is reachable from a tangled source exactly when the shifted pair
quantities contract by a unique per-qubit witness (zeta_a, zeta_b, zeta_c)
together with a collective factor zeta confined to [zeta_lower, 1], plus a
charge condition when the target has all three concurrences nonzero.  A
target without tangle takes zeta = 1 and per-qubit factors under which
what it keeps can only shrink.  An independent oracle for tangled sources,
phrased in the canonical two-term ("stretched GHZ") coordinates, is
implemented alongside for verification.
"""

import cmath
import math
from collections import namedtuple

from . import state_core
from .invariants import (CParams, Inconsistent, _classify, _entangled_pairs, _w_coords,
                         coeffs_from_invariants, derived, profile)


class NotGhzType(ValueError):
    """The state carries no tangle, so the two-term canonical form fails."""


class NotWType(ValueError):
    """The state is not of the zero-tangle, fully pair-entangled kind."""


class NotFeasible(ValueError):
    """The requested deterministic transformation is impossible."""


class GhzCanonical(namedtuple("GhzCanonical",
                               "c_a c_b c_c abs_z z zeta_tilde_definite")):
    """Canonical two-term coordinates of a tangled state.

    c_a, c_b, c_c are the local basis overlaps; z is the complex stretching
    parameter normalized to |z| >= 1, or None when some concurrence vanishes
    (the phase of z is then decomposition-dependent and only abs_z is
    canonical).  zeta_tilde_definite is carried along to recognize the
    z = +-1 degeneracy without comparing floats against exact points.
    """

    __slots__ = ()


class WCoords(namedtuple("WCoords", "x1 x2 x3")):
    """Per-qubit coordinates of a zero-tangle, fully pair-entangled state."""

    __slots__ = ()

    def as_tuple(self):
        return tuple(self)


class ZetaWitness(namedtuple("ZetaWitness",
                             "zeta zeta_a zeta_b zeta_c zeta_lower zeta_tilde")):
    """Contraction factors certifying a feasible transformation; zeta_tilde
    is None where it is indefinite."""

    __slots__ = ()


class LoccVerdict(namedtuple("LoccVerdict",
                             "feasible case witness violated min_measurements",
                             defaults=(None,))):
    """Outcome of the feasibility decision.

    feasible holds exactly when witness is present and violated is absent.
    case labels which regime decided: "A" both sides fully concurrence-
    definite, "B" target indefinite, "C" source indefinite, "D" source
    without tangle.  violated is one of cond1_no_solution,
    zeta_out_of_range, charge_mismatch, zeta_not_tilde, charge_magnitude.
    min_measurements, present exactly when feasible, is the number of local
    measurements that suffices for the hardest target of the source and
    target class pair (tri-, pair- or un-entangled), not the minimum for
    this target: GHZ -> GHZ reads 3 although it needs none.
    """

    __slots__ = ()


# ---------------------------------------------------------------------------
# canonical two-term coordinates


def two_term(co):
    """Two-term form of a tangled normal form: (e0, z).

    The BC slices S0, S1 of the normal form span the pencil
    det(S0 + lam S1) = lam (l0 l4 + lam w), w = l1 l4 e^{i phi} - l2 l3, whose
    roots 0 and -l0 l4 / w split the state into two product terms,
    N0 |e0>|0>|0> + N1 |1>|b1>|c1> with b1 ~ (l2, l4) and c1 ~ (l3, l4).
    e0 = (l0 l4, w) / |(l0 l4, w)| is the unit A-vector of the first term in
    the normal-form basis (its overlap with |1> is e0[1]), and z is the
    weight N1 / N0 carrying the phase of w (none when w vanishes).  Needs
    l0 l4 > 0, which a tangled state has.
    """
    w = co.l1 * co.l4 * cmath.exp(1j * co.phi) - co.l2 * co.l3
    n0 = math.hypot(co.l0 * co.l4, abs(w))
    mag = math.sqrt((co.l2**2 + co.l4**2) * (co.l3**2 + co.l4**2)) / n0
    return (co.l0 * co.l4 / n0, w / n0), (mag * w / abs(w) if w else complex(mag))


def ghz_canonical(state):
    """Canonical two-term coordinates (raises NotGhzType when tangle is 0)."""
    p = profile(state)
    if p.state_class.kind != "ghz_type":
        raise NotGhzType("state has no tangle")
    ca = p.c.c_bc / math.sqrt(p.k.k_bc)
    cb = p.c.c_ac / math.sqrt(p.k.k_ac)
    cc = p.c.c_ab / math.sqrt(p.k.k_ab)
    z = two_term(p.coeffs)[1]
    if abs(z) < 1.0:
        z = 1.0 / z
    return GhzCanonical(ca, cb, cc, abs(z), z if p.state_class.ep_definite else None,
                        p.state_class.zeta_tilde_definite)


def ns_params(g):
    """Shape parameters (n, s) of the canonical form.

    s is math.inf on the |z| = 1 circle away from the real points, and None
    when z = +-1 (there the whole circle of forms is degenerate).  Both are
    None when the canonical phase itself is indefinite.
    """
    if g.z is None:
        return None, None
    z2 = g.abs_z**2
    n = 2.0 * g.z.real / (z2 + 1.0)
    if not g.zeta_tilde_definite:
        s = None
    elif abs(g.abs_z - 1.0) <= state_core.TOL.zero:
        s = math.inf
    else:
        s = 2.0 * g.z.imag / (z2 - 1.0)
    return n, s


def w_coords(c):
    """Per-qubit coordinates of a zero-tangle fully pair-entangled state;
    two pair entanglements without tangle raise Inconsistent."""
    kind = _classify(c, derived(c)).kind
    if kind == "ghz_type":
        raise NotWType("state carries tangle")
    if kind != "w_type":
        raise NotWType("some pair concurrence vanishes")
    return WCoords(*_w_coords(c))


# ---------------------------------------------------------------------------
# feasibility


def _contracted_residues(c, za, zb, zc):
    """The contracted pair residues (k_ab - zc tau, k_ac - zb tau,
    k_bc - za tau), each written c_xy^2 + (1 - zeta) tau so that no
    concurrence cancels out of it.  At unit factors their product is
    derived's j_ap, bit for bit."""
    return (c.c_ab**2 + (1.0 - zc) * c.tau, c.c_ac**2 + (1.0 - zb) * c.tau,
            c.c_bc**2 + (1.0 - za) * c.tau)


def _contracted_product(p, za, zb, zc):
    return math.prod(_contracted_residues(p.c, za, zb, zc))


def zeta_lower(p, za, zb, zc):
    """Lower end of the admissible collective factor for given per-qubit
    factors, in [0, 1] for factors in [0, 1] and exactly 1 at unit factors.
    Defined as 0 when some concurrence vanishes (the 0/0 boundary only
    matters for targets where the charge condition is skipped)."""
    if not p.state_class.ep_definite:
        return 0.0
    return p.derived.j_ap / _contracted_product(p, za, zb, zc)


def zeta_tilde(p, za, zb, zc):
    """The single admissible collective factor (None when indefinite or
    0/0), in [0, 1] for factors in [0, 1] and exactly 1 at unit factors."""
    if not p.state_class.zeta_tilde_definite:
        return None
    if not p.state_class.ep_definite:
        # j_ap and the gap vanish with a concurrence, so the ratio is 0, or
        # 0/0 where that pair's residue (1 - zeta) tau vanishes too
        dead = [z for e, z in zip(_entangled_pairs(p.c), (zc, zb, za)) if not e]
        return None if 1.0 in dead else 0.0
    der = p.derived
    gap = max(der.j_ap - p.c.j5**2, 0.0)
    num = der.k_ap * gap + der.delta_j * der.j_ap
    return num / (der.k_ap * gap + der.delta_j * _contracted_product(p, za, zb, zc))


def scaled_destination(p, za, zb, zc, z, q):
    """State whose residues are the source's scaled by (z, za, zb, zc).

    Returns None when no pure state carries the scaled invariants with
    charge q.
    """
    r_ab, r_ac, r_bc = _contracted_residues(p.c, za, zb, zc)
    f = z * za * zb * zc
    cp = CParams(math.sqrt(max(z * za * zb * r_ab, 0.0)),
                 math.sqrt(max(z * za * zc * r_ac, 0.0)),
                 math.sqrt(max(z * zb * zc * r_bc, 0.0)),
                 f * p.c.tau, f * p.c.j5)
    try:
        cands = coeffs_from_invariants(cp, q)
    except Inconsistent:
        return None
    return state_core.state_from_schmidt(cands[0])


def _pair_zetas(pair, r):
    """Per-qubit factors that contract one pair residue by r^2 and kill the
    rest."""
    if pair == "AB":
        return r, r, 0.0
    if pair == "AC":
        return r, 0.0, r
    return 0.0, r, r


def _case_label(ps, pd):
    if ps.state_class.kind != "ghz_type":
        return "D"
    if not ps.state_class.ep_definite:
        return "C"
    if not pd.state_class.ep_definite:
        return "B"
    return "A"


_MIN_MEASUREMENTS = {("tri", "tri"): 3, ("tri", "pair"): 2, ("tri", "none"): 2,
                     ("pair", "pair"): 1, ("pair", "none"): 1, ("none", "none"): 0}


def _depth(kind):
    if kind in ("ghz_type", "w_type"):
        return "tri"
    return "pair" if kind == "biseparable" else "none"


def dlocc_feasible(src, dst):
    """Decide deterministic transformability of src into dst.

    Returns a LoccVerdict; when feasible, the witness holds the unique
    contraction factors (per-qubit factors clamped to [0, 1]) and
    min_measurements the measurement count of the hardest target of the
    class pair (see LoccVerdict).
    """
    return dlocc_feasible_profiles(profile(src), profile(dst))


def dlocc_feasible_profiles(ps, pd):
    """dlocc_feasible on the profiles of source and destination.

    Two rules decide.  Tangled -> tangled: the unique per-qubit witness of
    the pair residues, then the collective factor and the charge.  Every
    target without tangle: zeta = 1, and per-qubit factors under which what
    the target keeps can only shrink (for a lone pair, Nielsen's rule).
    """
    te = state_core.TOL.eq
    case = _case_label(ps, pd)
    kind_s, kind_d = ps.state_class.kind, pd.state_class.kind

    def infeasible(tag):
        return LoccVerdict(False, case, None, tag)

    def feasible(zeta, za, zb, zc, zl, zt):
        w = ZetaWitness(min(zeta, 1.0), za, zb, zc, zl, zt)
        count = _MIN_MEASUREMENTS[(_depth(kind_s), _depth(kind_d))]
        return LoccVerdict(True, case, w, None, count)

    if kind_s == kind_d == "ghz_type":
        # tangled -> tangled: the witness is unique
        za = ps.k.k_bc * pd.c.tau / (pd.k.k_bc * ps.c.tau)
        zb = ps.k.k_ac * pd.c.tau / (pd.k.k_ac * ps.c.tau)
        zc = ps.k.k_ab * pd.c.tau / (pd.k.k_ab * ps.c.tau)
        if max(za, zb, zc) > 1.0 + te:
            return infeasible("cond1_no_solution")
        # fifth invariant must contract by the same collective product
        if abs(pd.c.j5 * ps.c.tau - ps.c.j5 * pd.c.tau) > te:
            return infeasible("cond1_no_solution")
        za, zb, zc = min(za, 1.0), min(zb, 1.0), min(zc, 1.0)
        zeta = pd.c.tau / (ps.c.tau * za * zb * zc)
        zl = zeta_lower(ps, za, zb, zc)
        zt = zeta_tilde(ps, za, zb, zc)
        if zeta > 1.0 + te or zeta < zl - te:
            return infeasible("zeta_out_of_range")
        if pd.state_class.ep_definite:
            if ps.state_class.zeta_tilde_definite:
                if ps.q_e != pd.q_e:
                    return infeasible("charge_mismatch")
                if zt is None or abs(zeta - zt) > te:
                    return infeasible("zeta_not_tilde")
            else:
                interior = (1.0 - zeta > te) and (zeta - zl > te)
                if abs(pd.q_e) != (1 if interior else 0):
                    return infeasible("charge_magnitude")
        return feasible(zeta, za, zb, zc, zl, zt)

    # every target without tangle: zeta = 1 and per-qubit factors
    tangled = kind_s == "ghz_type"
    pair = pd.state_class.pair
    if kind_d == "full_separable":
        zs = (1.0, 1.0, 1.0) if kind_s == "full_separable" else (0.0, 0.0, 0.0)
    elif kind_d == "biseparable" and (tangled or kind_s == "w_type"
                                      or pair == ps.state_class.pair):
        # the pair's residue (tangled source) or concurrence may not grow
        i = ("AB", "AC", "BC").index(pair)
        v_src, v_dst = ((p.k if tangled else p.c)[i] for p in (ps, pd))
        if v_dst > v_src + te:
            return infeasible("cond1_no_solution")
        r = min(v_dst / v_src, 1.0)
        zs = _pair_zetas(pair, math.sqrt(r) if tangled else r)
    elif kind_s == kind_d == "w_type":
        xs, xd = _w_coords(ps.c), _w_coords(pd.c)
        if any(d > s + te for s, d in zip(xs, xd)):
            return infeasible("cond1_no_solution")
        zs = tuple(min((d / s) ** 2, 1.0) for s, d in zip(xs, xd))
    else:
        # a tangled target needs a tangled source, a W target a W source (a
        # tangled one would need a vanishing factor, killing a concurrence),
        # and a pair target its own pair or a source entangling all three
        return infeasible("cond1_no_solution")
    # zeta_lower of a tangle-free source: j_ap over itself (1) for W, else 0
    zl = zeta_lower(ps, *zs) if tangled else (1.0 if kind_s == "w_type" else 0.0)
    return feasible(1.0, *zs, zl, zeta_tilde(ps, *zs) if tangled else None)


def ghz_oracle(src, dst):
    """Independent transformability oracle for tangled source and target,
    phrased in the canonical two-term coordinates."""
    g1, g2 = ghz_canonical(src), ghz_canonical(dst)
    te = state_core.TOL.eq
    pairs = ((g1.c_a, g2.c_a), (g1.c_b, g2.c_b), (g1.c_c, g2.c_c))
    if any(d < s - te for s, d in pairs):
        return False
    src_def, dst_def = g1.z is not None, g2.z is not None
    if src_def and dst_def:
        r = (g1.c_a * g1.c_b * g1.c_c) / (g2.c_a * g2.c_b * g2.c_c)
        n1, s1 = ns_params(g1)
        n2, s2 = ns_params(g2)
        if abs(n2 - n1 * r) > te:
            return False
        if s1 is None:
            # source sits at a real point z = +-1: the s-law drops out
            return True
        if s2 is None:
            return False
        if math.isinf(s1) or math.isinf(s2):
            return math.isinf(s1) and math.isinf(s2)
        return abs(s2 - s1 * r) <= te * max(1.0, abs(s1 * r), abs(s2))
    if not src_def and dst_def:
        # all stretching freedom must already be spent: unit circle to the
        # purely imaginary axis
        return abs(g1.abs_z - 1.0) <= te and abs(g2.z.real) <= te * (1.0 + g2.abs_z)
    if src_def and not dst_def:
        # also reached by LU-equivalent twins across the ep_definite boundary
        # (an overlap just above TOL.zero against one at 0), which it refuses
        return False
    return g2.abs_z >= g1.abs_z - te


def min_measurements(src, dst):
    """Number of local measurements that suffices for the hardest target of
    the class pair of src and dst (LoccVerdict.min_measurements), an upper
    bound on the count this transformation needs.

    Raises NotFeasible when dst is not reachable from src deterministically.
    """
    verdict = dlocc_feasible(src, dst)
    if not verdict.feasible:
        raise NotFeasible(f"transformation violates {verdict.violated}")
    return verdict.min_measurements
