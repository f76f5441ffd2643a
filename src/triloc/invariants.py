"""Entanglement invariants of three-qubit pure states.

Six numbers classify a state up to local unitaries: the three pairwise
concurrences c_ab, c_ac, c_bc, the three-way tangle tau, the fifth
polynomial invariant j5, and a discrete charge q_e in {-1, 0, +1} that
distinguishes a state from its complex conjugate.  The shifted quantities
k_xy = c_xy^2 + tau ("pair residues") drive the transformability laws, so
they get their own container.
"""

import cmath
import math
from collections import namedtuple

from . import state_core
from .state_core import _NEGLIGIBLE, SchmidtCoeffs, schmidt_decompose, state_from_schmidt


class Inconsistent(ValueError):
    """The requested invariant combination is realized by no pure state."""


class CParams(namedtuple("CParams", "c_ab c_ac c_bc tau j5")):
    """Concurrences, tangle and the fifth invariant."""

    __slots__ = ()

    def as_tuple(self):
        return tuple(self)

    def max_deviation(self, other):
        """Largest per-component difference from another CParams."""
        return max(abs(x - y) for x, y in zip(self, other))


class KParams(namedtuple("KParams", "k_ab k_ac k_bc tau j5")):
    """Shifted pair quantities k_xy = c_xy^2 + tau."""

    __slots__ = ()


Derived = namedtuple("Derived", ["j_ap", "k_ap", "k5", "delta_j"])


class StateClass(namedtuple("StateClass",
                             "kind pair ep_definite zeta_tilde_definite")):
    """Entanglement class of a state.

    kind: "full_separable", "biseparable", "w_type" or "ghz_type";
    pair names the entangled pair for biseparable states, else None.
    ep_definite: all three concurrences nonzero (the relative phase of the
    invariant triple is well defined).  zeta_tilde_definite: the contraction
    ratio singled out by the transformation laws is well defined.
    """

    __slots__ = ()


class StateProfile(namedtuple("StateProfile", "coeffs c k derived q_e state_class")):
    """All invariant data of one state, computed in a single decomposition:
    SchmidtCoeffs, CParams, KParams, Derived, the charge and the StateClass."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# invariants from normal-form coefficients


def invariant_kernel(l0, l1c, l2, l3, l4):
    """Invariants and charge of a normal-form coefficient set.

    l1c = l1 e^{i phi} carries the phase.  Also accepts the non-positive
    sets of the measurement update: the charge only needs the signs of
    Im(l1c) and of the weight bracket, both of which are representation
    independent.  Returns (CParams, KParams, Derived, q_e).
    """
    tz = state_core.TOL.zero
    w = l1c * l4 - l2 * l3
    c = CParams(2.0 * l0 * l3, 2.0 * l0 * l2, 2.0 * abs(w), 4.0 * l0**2 * l4**2,
                4.0 * l0**2 * (abs(w) ** 2 + (l2 * l3) ** 2 - (abs(l1c) * l4) ** 2))
    k = k_params(c)
    der = derived(c)
    # the physically meaningful phase weight is the imaginary amplitude
    # l1 sin(phi), which is what survives decomposition noise
    imw = l1c.imag
    # the charge vanishes on the tangle-free family (where the bracket's
    # float residue must not set the sign), on the double-root surface and
    # on the real-phase surface.  A vanishing coefficient lands on one of
    # these: l0 or l4 zeroes tau, l2 or l3 closes the gap, l1 zeroes imw
    if min(c.tau, der.delta_j, der.j_ap - c.j5**2, abs(imw)) <= tz:
        return c, k, der, 0
    # the bracket is +-sqrt(delta_j) / (2 k_bc), so its sign is decided here
    bracket = l0**2 - der.k5 / (2.0 * k.k_bc)
    # +1 where Im(l1c) and the bracket share their sign, -1 where they differ
    return c, k, der, 1 if (imw > 0) == (bracket > 0) else -1


def _coeff_invariants(coeffs):
    """invariant_kernel of a SchmidtCoeffs."""
    return invariant_kernel(coeffs.l0, coeffs.l1 * cmath.exp(1j * coeffs.phi),
                            coeffs.l2, coeffs.l3, coeffs.l4)


def c_params(coeffs):
    """Continuous invariants from normal-form coefficients."""
    return _coeff_invariants(coeffs)[0]


def k_params(c):
    """Shifted pair quantities from the continuous invariants."""
    return KParams(c.c_ab**2 + c.tau, c.c_ac**2 + c.tau, c.c_bc**2 + c.tau,
                   c.tau, c.j5)


def derived(c):
    """Products and the discriminant of the invariants c: (j_ap, k_ap, k5,
    delta_j), with j_ap = c_ab^2 c_ac^2 c_bc^2 (the contracted-residue product
    at unit factors, in its order), k_ap = k_ab k_ac k_bc and delta_j = k5^2 -
    k_ap clamped at 0; coeffs_from_invariants checks invariants from outside.
    """
    k_ap = (c.c_ab**2 + c.tau) * (c.c_ac**2 + c.tau) * (c.c_bc**2 + c.tau)
    k5 = c.tau + c.j5
    return Derived(c.c_ab**2 * c.c_ac**2 * c.c_bc**2, k_ap, k5, max(k5**2 - k_ap, 0.0))


def _entangled_pairs(c):
    """(c_ab, c_ac, c_bc) > TOL.zero: which pairs of c are entangled.  The
    one rule by which a pair concurrence vanishes."""
    tz = state_core.TOL.zero
    return c.c_ab > tz, c.c_ac > tz, c.c_bc > tz


def ep_phase(c):
    """Relative phase of the invariant triple, in [0, pi].

    None when any concurrence vanishes (the phase is then indefinite).
    """
    if not all(_entangled_pairs(c)):
        return None
    x = c.j5 / (c.c_ab * c.c_ac * c.c_bc)
    return math.acos(min(1.0, max(-1.0, x)))


def _classify(c, der):
    """StateClass of the invariants c with derived quantities der; raises
    Inconsistent for two pair entanglements without tangle."""
    tz = state_core.TOL.zero
    entangled = _entangled_pairs(c)
    ep_definite = all(entangled)
    j5sq_gap = der.j_ap - c.j5**2
    zeta_tilde_definite = not (der.delta_j <= tz and j5sq_gap <= tz)
    if c.tau > tz:
        kind, pair = "ghz_type", None
    else:
        alive = [p for p, e in zip(("AB", "AC", "BC"), entangled) if e]
        if len(alive) == 3:
            kind, pair = "w_type", None
        elif len(alive) == 1:
            kind, pair = "biseparable", alive[0]
        elif not alive:
            kind, pair = "full_separable", None
        else:
            # no pure state has exactly two pairwise entanglements and no tangle
            raise Inconsistent(
                f"two bare pair entanglements cannot coexist: c_ab = {c.c_ab}, "
                f"c_ac = {c.c_ac}, c_bc = {c.c_bc}, tau = {c.tau} "
                f"(--tol-zero = {tz})")
    return StateClass(kind, pair, ep_definite, zeta_tilde_definite)


def coeffs_profile(coeffs):
    """Every invariant of the state with normal form coeffs (what profile
    returns, for a caller that has decomposed the state already)."""
    c, k, der, q = _coeff_invariants(coeffs)
    return StateProfile(coeffs, c, k, der, q, _classify(c, der))


def profile(state):
    """Decompose once and compute every invariant of the state."""
    return coeffs_profile(schmidt_decompose(state)[0])


def classify(state):
    """Entanglement class of the state (see StateClass)."""
    return profile(state).state_class


def lu_equivalent_profiles(pa, pb):
    """True when two profiled states share all six invariants.

    Continuous invariants are compared within TOL.eq per component and the
    charge exactly.
    """
    return bool(pa.c.max_deviation(pb.c) <= state_core.TOL.eq and pa.q_e == pb.q_e)


def lu_equivalent(state_a, state_b):
    """True when the two states share all six invariants."""
    return lu_equivalent_profiles(profile(state_a), profile(state_b))


# ---------------------------------------------------------------------------
# inversion: invariants -> coefficients


def _split_pair(value):
    """Both (x, y) with 2xy = value and x^2 + y^2 = 1, larger x first."""
    root = math.sqrt(max(1.0 - value**2, 0.0))
    hi = math.sqrt((1.0 + root) / 2.0)
    lo = math.sqrt(max((1.0 - root) / 2.0, 0.0))
    return hi, lo


def _w_coords(c):
    """(l0, l3, l2) of a tangle-free state with all three concurrences
    nonzero: the normal form l0|000> + l1|100> + l2|101> + l3|110> has
    c_ab = 2 l0 l3, c_ac = 2 l0 l2 and c_bc = 2 l2 l3."""
    return (math.sqrt(c.c_ab * c.c_ac / (2.0 * c.c_bc)),
            math.sqrt(c.c_ab * c.c_bc / (2.0 * c.c_ac)),
            math.sqrt(c.c_ac * c.c_bc / (2.0 * c.c_ab)))


def _normalized(lams):
    n = math.hypot(*lams)
    return [x / n for x in lams]


def _verified(cands, c, q):
    """The candidates that reproduce c within TOL.eq with charge q, each
    kept only when it differs by more than _NEGLIGIBLE from those kept before."""
    good = []
    for cand in cands:
        back, _, _, q_back = _coeff_invariants(cand)
        if (back.max_deviation(c) <= state_core.TOL.eq and q_back == q and all(
                max(abs(x - y) for x, y in zip(cand, g)) > _NEGLIGIBLE for g in good)):
            good.append(cand)
    if not good:
        raise Inconsistent("no coefficient set reproduces the requested invariants")
    return good


def coeffs_from_invariants(c, q):
    """Coefficient sets realizing the given invariants.

    The candidates of the state's class are built with every square root
    and arccosine clamped to its domain, and a set is returned exactly when
    it reproduces c within TOL.eq, has charge q and differs by more than
    _NEGLIGIBLE from every set returned before it: a nonzero charge gives
    one set, q = 0 up to two (larger l0 first).  A tangled root whose l0 is
    below _NEGLIGIBLE is skipped, and one whose 2 l1 l2 l3 l4 is not above
    it takes phase 0.  Concurrences and tangle within TOL.zero below zero
    are read as 0.  The one check of invariants from outside, on the user's
    tolerances: raises Inconsistent when no pure state has these invariants.
    """
    tz = state_core.TOL.zero
    if q not in (-1, 0, 1):
        raise ValueError("charge must be -1, 0 or +1")
    for name, v in (("c_ab", c.c_ab), ("c_ac", c.c_ac), ("c_bc", c.c_bc),
                    ("tau", c.tau)):
        if not -tz <= v <= 1.0 + tz:
            raise Inconsistent(f"{name} = {v} outside [0, 1]")
    c = CParams(*(max(v, 0.0) for v in c[:4]), c.j5)
    k = k_params(c)
    der = derived(c)
    gap = der.k5**2 - der.k_ap
    if gap < -tz:
        raise Inconsistent(f"k5^2 - k_ap = {gap} < 0")
    # written so that a NaN j5 fails it too
    if not der.j_ap - c.j5**2 >= -state_core.TOL.eq:
        raise Inconsistent("j5^2 exceeds the concurrence product")

    cls = _classify(c, der)
    # the tangle-free sector is chargeless and the generic root formulas
    # degenerate on it, but the coordinates follow from the concurrences
    if cls.kind != "ghz_type" and q != 0:
        raise Inconsistent("charge requires tangle")
    if cls.kind == "full_separable":
        cands = [SchmidtCoeffs(1.0, 0.0, 0.0, 0.0, 0.0, 0.0)]
    elif cls.kind == "w_type":
        l0, l3, l2 = _w_coords(c)
        l1 = math.sqrt(max(1.0 - l0**2 - l2**2 - l3**2, 0.0))
        cands = [SchmidtCoeffs(*_normalized([l0, l1, l2, l3, 0.0]), 0.0)]
    elif cls.kind == "biseparable":
        slots = {"AB": (0, 3), "AC": (0, 2), "BC": (1, 4)}[cls.pair]
        hi, lo = _split_pair(getattr(c, "c_" + cls.pair.lower()))
        cands = []
        for x, y in ((hi, lo), (lo, hi)):
            lams = [0.0] * 5
            lams[slots[0]], lams[slots[1]] = x, y
            cands.append(SchmidtCoeffs(*lams, 0.0))
    else:
        sqrt_d = math.sqrt(der.delta_j)
        signs = (q,) if q != 0 else ((1,) if sqrt_d <= tz else (1, -1))
        cands = []
        for s in signs:
            l0sq = (der.k5 + s * sqrt_d) / (2.0 * k.k_bc)
            l0 = math.sqrt(max(l0sq, 0.0))
            if l0 < _NEGLIGIBLE:
                continue
            l2 = c.c_ac / (2.0 * l0)
            l3 = c.c_ab / (2.0 * l0)
            l4 = math.sqrt(c.tau) / (2.0 * l0)
            l1 = math.sqrt(max(1.0 - l0sq - l2**2 - l3**2 - l4**2, 0.0))
            denom = 2.0 * l1 * l2 * l3 * l4
            lams = _normalized([l0, l1, l2, l3, l4])
            phi = 0.0
            # a coefficient that is rounding noise leaves the phase removable
            if denom > _NEGLIGIBLE and min(lams) >= _NEGLIGIBLE:
                x = (l1**2 * l4**2 + l2**2 * l3**2 - c.c_bc**2 / 4.0) / denom
                phi = math.acos(min(1.0, max(-1.0, x)))
            cands.append(SchmidtCoeffs(*lams, phi))
    return _verified(cands, c, q)
