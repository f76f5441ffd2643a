"""Three-qubit pure states, local measurements, and the generalized Schmidt
decomposition.

Amplitude convention: a state is a length-8 complex vector indexed by
4a + 2b + c for the basis ket |a b c> of qubits (A, B, C).  Every such state
can be brought by single-qubit unitaries to the five-term normal form

    l0|000> + l1 e^{i phi}|100> + l2|101> + l3|110> + l4|111>

with l0..l4 >= 0, sum lk^2 = 1 and phi in [0, pi] (the "positive" choice of
the relative phase; phi is defined to be 0 whenever some lk vanishes).  The
normal form is unique up to a known two-fold ambiguity in l0 that collapses
onto a single set for states of nonzero charge.
"""

import cmath
import functools
import math
from collections import namedtuple

# numpy is imported inside the functions that build or read arrays, so the
# scalar path (validation, decomposition, permutation) runs without it.

# The user's tolerances, one per CLI flag.  Classification of nearly-zero
# invariants is discontinuous, so these are module globals that the CLI can
# override for one call; library code reads them at call time.
TOL_NORM = 1e-9   # state / measurement completeness
TOL_ZERO = 1e-9   # "this invariant is zero" decisions
TOL_EQ = 1e-8     # equality of invariants between two states

# Rounding rules of the numerics, which no flag moves (the fourth: _snap_det).
_SLACK = 1e-12         # range slack of the value types; residuals this close tie
_NEGLIGIBLE = 1e-9     # a normal-form coefficient this small is rounding noise
_RECON_BUDGET = 1e-8   # reconstruction error of an accepted decomposition

QUBITS = ("A", "B", "C")
_STRIDE = {"A": 4, "B": 2, "C": 1}  # amplitude-index weight of each qubit


class NotNormalized(ValueError):
    """State vector norm is not 1 within TOL_NORM."""


class NonFinite(ValueError):
    """Input contains NaN or infinity."""


class IncompleteMeasurement(ValueError):
    """Measurement operators do not resolve the identity within TOL_NORM."""


class DecompositionFailed(RuntimeError):
    """No normal form within the reconstruction budget (numerical failure)."""


# ---------------------------------------------------------------------------
# data types


def _amplitude_tuple(raw):
    """raw flattened to a tuple of Python complex numbers.  A flat list or
    tuple of numbers is read directly; ndarrays and nested sequences go
    through numpy."""
    if isinstance(raw, (list, tuple)):
        try:
            return tuple(map(complex, raw))
        except TypeError:
            pass
    import numpy as np
    return tuple(np.asarray(raw, dtype=complex).ravel().tolist())


def _frozen_array(values):
    """values as a read-only complex ndarray."""
    import numpy as np
    arr = np.array(values, dtype=complex)
    arr.flags.writeable = False
    return arr


def _immutable(self, name, *value):
    """__setattr__ and __delattr__ of a value whose fields are set once."""
    raise AttributeError(f"cannot change field {name!r} of {type(self).__name__}")


def _reduce_unchecked(self):
    """Copy and pickle rebuild the tuple as it is: __new__'s checks read the
    TOL_* values of the moment, and theta % 2pi maps a stored 2pi to 0."""
    return tuple.__new__, (type(self), tuple(self))


class PureState3:
    """Normalized three-qubit pure state, amplitudes indexed by 4a+2b+c.

    amps holds the eight amplitudes as Python complex numbers; amplitudes is
    the same vector as a read-only complex ndarray, built on first use.  A
    state is immutable and compares by identity.
    """

    def __init__(self, amps):
        amps = _amplitude_tuple(amps)
        if len(amps) != 8:
            raise ValueError("a three-qubit state needs exactly 8 amplitudes")
        object.__setattr__(self, "amps", amps)

    __setattr__ = __delattr__ = _immutable

    def __repr__(self):
        return f"PureState3(amps={self.amps!r})"

    def __reduce__(self):
        # copies rebuild the amplitudes array, so it stays read-only
        return PureState3, (self.amps,)

    @functools.cached_property
    def amplitudes(self):
        return _frozen_array(self.amps)


class SchmidtCoeffs(namedtuple("SchmidtCoeffs", "l0 l1 l2 l3 l4 phi")):
    """Coefficients of the five-term normal form (positive convention)."""

    __slots__ = ()

    def __new__(cls, l0, l1, l2, l3, l4, phi):
        lams = (l0, l1, l2, l3, l4)
        if not all(math.isfinite(l) for l in lams) or not math.isfinite(phi):
            raise NonFinite("non-finite Schmidt coefficient")
        if min(lams) < -_SLACK:
            raise ValueError("negative Schmidt coefficient")
        norm2 = sum(l * l for l in lams)
        if abs(norm2 - 1.0) > TOL_NORM * 10:
            raise NotNormalized(f"coefficient norm^2 = {norm2}")
        if not -_SLACK <= phi <= math.pi + _SLACK:
            raise ValueError("phase outside [0, pi]")
        if min(lams) < _NEGLIGIBLE and phi > _NEGLIGIBLE:
            # the phase is removable (hence defined as 0) once a coefficient vanishes
            raise ValueError("phi must be 0 when some coefficient vanishes")
        return tuple.__new__(cls, (l0, l1, l2, l3, l4, phi))

    __reduce__ = _reduce_unchecked


class GramParams(namedtuple("GramParams", "a b k theta")):
    """Parameters (a, b, k, theta) of a Gram matrix M^dag M =
    [[a, k e^{-i theta}], [k e^{i theta}, b]] in the normal-form basis;
    theta is stored mod 2pi."""

    __slots__ = ()

    def __new__(cls, a, b, k, theta):
        for name, v in (("a", a), ("b", b), ("k", k), ("theta", theta)):
            if not math.isfinite(v):
                raise NonFinite(f"non-finite gram parameter {name}")
        for name, v in (("a", a), ("b", b), ("k", k)):
            if v < -_SLACK:
                raise ValueError(f"gram parameter {name} must be >= 0")
        if a * b - k**2 < -TOL_ZERO:
            raise ValueError("gram matrix not positive semidefinite (ab < k^2)")
        return tuple.__new__(cls, (a, b, k, float(theta) % (2 * math.pi)))

    __reduce__ = _reduce_unchecked

    def matrix(self):
        import numpy as np
        off = self.k * cmath.exp(1j * self.theta)
        return np.array([[self.a, off.conjugate()], [off, self.b]], dtype=complex)

    def complement(self):
        """Gram parameters of the complementary outcome (I minus this Gram)."""
        return GramParams(1.0 - self.a, 1.0 - self.b, self.k, self.theta + math.pi)


def _snap_det(det, scale):
    """det clamped at zero, and snapped to zero below 1e-14 of scale, the
    size of the terms whose difference it is."""
    return 0.0 if det <= 1e-14 * scale else det


def _gram_det(a, b, k):
    """Determinant ab - k^2, with cancellation noise snapped to zero.

    A rank-1 gram has ab = k^2 exactly; the float difference is then a few
    ulps that a square root would inflate to ~1e-8, so anything below 1e-14
    of the term scale counts as zero.
    """
    return _snap_det(a * b - k**2, a * b + k**2)


def _complement_det(a, b, k):
    """Determinant of the complementary Gram I - G, snapped like _gram_det.

    1 - a and 1 - b carry the rounding of a and b, up to ~1e-16 whatever
    the complement's size, so the snap scale also counts (1 - a) + (1 - b):
    a rank-1 complement's residue goes to zero, while a small full-rank
    complement (1 - a = 1 - b = 1e-8, det 1e-16) keeps its determinant.
    """
    ca, cb = 1.0 - a, 1.0 - b
    return _snap_det(ca * cb - k**2, ca * cb + k**2 + ca + cb)


def _gram_from_entries(a, b, off):
    """GramParams of the Gram [[a, conj(off)], [off, b]]: the one conversion
    from Gram entries, for a measured operator and a constructed step alike."""
    return GramParams(a, b, abs(off), cmath.phase(off))


def _max_k(a, b):
    """Largest k for which both the Gram and its complement are positive
    semidefinite: sqrt(min(ab, (1 - a)(1 - b)))."""
    return math.sqrt(min(a * b, (1.0 - a) * (1.0 - b)))


def _operator_rows(raw):
    """raw as two rows of two Python complex numbers.  Nested lists and
    tuples are read directly; anything else goes through numpy."""
    if isinstance(raw, (list, tuple)):
        try:
            (m00, m01), (m10, m11) = raw
            return (complex(m00), complex(m01)), (complex(m10), complex(m11))
        except (TypeError, ValueError):
            pass
    import numpy as np
    return tuple(map(tuple, np.asarray(raw, dtype=complex).reshape(2, 2).tolist()))


class Measurement2:
    """Two-outcome generalized measurement {m0, m1} on one named qubit.

    ops holds the two operators as pairs of rows of Python complex numbers;
    m0 and m1 are the same operators as read-only (2, 2) complex ndarrays,
    built on first use.  A measurement is immutable and compares by
    identity.
    """

    def __init__(self, qubit, m0, m1):
        if qubit not in QUBITS:
            raise ValueError(f"qubit must be one of {QUBITS}")
        object.__setattr__(self, "qubit", qubit)
        ops = []
        for name, m in (("m0", m0), ("m1", m1)):
            rows = _operator_rows(m)
            if not all(map(cmath.isfinite, rows[0] + rows[1])):
                raise NonFinite(f"non-finite entry in {name}")
            ops.append(rows)
        object.__setattr__(self, "ops", tuple(ops))

    __setattr__ = __delattr__ = _immutable

    def __repr__(self):
        return f"Measurement2(qubit={self.qubit!r}, m0={self.ops[0]!r}, m1={self.ops[1]!r})"

    def __reduce__(self):
        return Measurement2, (self.qubit, *self.ops)

    @functools.cached_property
    def m0(self):
        return _frozen_array(self.ops[0])

    @functools.cached_property
    def m1(self):
        return _frozen_array(self.ops[1])


# ---------------------------------------------------------------------------
# construction / validation


def _norm(amps):
    """Euclidean norm of a sequence of complex numbers."""
    return math.hypot(*map(abs, amps))


def validate_state(raw):
    """Coerce raw amplitudes into a PureState3.

    Accepts any flat or (2, 2, 2) sequence or array of 8 numbers.  Raises
    ValueError for another size, NonFinite for NaN/inf entries and
    NotNormalized when the vector norm differs from 1 by more than TOL_NORM.
    The returned state is renormalized exactly.
    """
    amps = PureState3(raw).amps
    if not all(map(cmath.isfinite, amps)):
        raise NonFinite("state contains non-finite amplitudes")
    norm = _norm(amps)
    if abs(norm - 1.0) > TOL_NORM:
        raise NotNormalized(f"state norm {norm} differs from 1 beyond tolerance")
    return PureState3(tuple(z / norm for z in amps))


def _normal_form_amps(coeffs):
    """The eight amplitudes of the normal form, unnormalized:
    l0|000> + l1 e^{i phi}|100> + l2|101> + l3|110> + l4|111>."""
    return (coeffs.l0, 0.0, 0.0, 0.0, coeffs.l1 * cmath.exp(1j * coeffs.phi),
            coeffs.l2, coeffs.l3, coeffs.l4)


def state_from_schmidt(coeffs):
    """Build the normal-form state for the given coefficients."""
    amps = _normal_form_amps(coeffs)
    n = _norm(amps)
    return PureState3([z / n for z in amps])


def permute_qubits(state, order):
    """Relabel qubits: slot i of the result carries the qubit named order[i].

    order is a permutation string such as "BAC" (swap A and B).
    """
    if sorted(order) != ["A", "B", "C"]:
        raise ValueError("order must be a permutation of 'ABC'")
    s0, s1, s2 = (_STRIDE[q] for q in order)
    amps = state.amps
    return PureState3(tuple(amps[(i >> 2) * s0 + (i >> 1 & 1) * s1 + (i & 1) * s2]
                            for i in range(8)))


def complex_conjugate(state):
    """Entrywise complex conjugate (flips the charge, keeps all magnitudes)."""
    return PureState3(tuple(z.conjugate() for z in state.amps))


# ---------------------------------------------------------------------------
# local operators

# the amplitude indices with a zero bit at each stride
_LOW = {4: (0, 1, 2, 3), 2: (0, 1, 4, 5), 1: (0, 2, 4, 6)}


def _mode_product(amps, u, stride):
    """The eight amplitudes after the 2x2 operator u = ((u00, u01), (u10,
    u11)) acts on the qubit whose index weight is stride."""
    (u00, u01), (u10, u11) = u
    out = list(amps)
    for i in _LOW[stride]:
        x, y = amps[i], amps[i + stride]
        out[i] = u00 * x + u01 * y
        out[i + stride] = u10 * x + u11 * y
    return out


def _local_product(amps, ua, ub, uc):
    """The eight amplitudes of (ua ⊗ ub ⊗ uc)|amps>, one mode product per
    qubit.  Operators are 2x2 nested sequences of Python numbers."""
    for u, stride in ((ua, 4), (ub, 2), (uc, 1)):
        amps = _mode_product(amps, u, stride)
    return amps


def apply_local_unitaries(state, ua, ub, uc):
    """Apply (ua ⊗ ub ⊗ uc) to the state."""
    return PureState3(_local_product(state.amps, *map(_operator_rows, (ua, ub, uc))))


# ---------------------------------------------------------------------------
# measurements


def _gram_entries(rows):
    """Entries (a, b, off) of m^dag m = [[a, conj(off)], [off, b]] for the
    operator m given as two rows of Python complex numbers.

    Each entry is formed once from the entries of m, so the off-diagonal
    pair is exactly conjugate: off is the lower entry conj(m01) m00 +
    conj(m11) m10.
    """
    (m00, m01), (m10, m11) = rows
    return ((m00.conjugate() * m00 + m10.conjugate() * m10).real,
            (m01.conjugate() * m01 + m11.conjugate() * m11).real,
            m01.conjugate() * m00 + m11.conjugate() * m10)


def gram_params(matrix):
    """Gram parameters (a, b, k, theta) of a single 2x2 operator m, given as
    rows or as an array."""
    return _gram_from_entries(*_gram_entries(_operator_rows(matrix)))


def validate_measurement(meas):
    """Check completeness m0^dag m0 + m1^dag m1 = I within TOL_NORM."""
    (a0, b0, off0), (a1, b1, off1) = map(_gram_entries, meas.ops)
    dev = max(abs(a0 + a1 - 1.0), abs(b0 + b1 - 1.0), abs(off0 + off1))
    if dev > TOL_NORM:
        raise IncompleteMeasurement(f"operators miss completeness by {dev:.3e}")


def measure(state, meas):
    """Perform a two-outcome measurement.

    Returns [(state0, p0), (state1, p1)].  An outcome with probability below
    TOL_ZERO is degenerate: its state is None and it must be excluded from
    invariant checks downstream.
    """
    validate_measurement(meas)
    stride = _STRIDE[meas.qubit]
    results = []
    for rows in meas.ops:
        out = _mode_product(state.amps, rows, stride)
        n = _norm(out)
        p = n * n
        if p < TOL_ZERO:
            results.append((None, p))
        else:
            results.append((PureState3(tuple(z / n for z in out)), p))
    return results


def measurement_from_grams(g0):
    """Build the measurement on A whose outcome-0 Gram has parameters g0.

    Outcome 1 takes the complementary Gram (ValueError unless it is positive
    semidefinite); both operators are the principal square roots
    (G + sqrt(det) I) / sqrt(tr G + 2 sqrt(det)), entry by entry, which fixes
    the (physically irrelevant) unitary freedom.  det is the snapped
    determinant, so a rank-1 Gram gives the rank-1 operator G / sqrt(tr G).
    """
    ops = []
    for g, det in ((g0, _gram_det(g0.a, g0.b, g0.k)),
                   (g0.complement(), _complement_det(g0.a, g0.b, g0.k))):
        s = math.sqrt(det)
        t2 = g.a + g.b + 2.0 * s
        if t2 > 0.0:
            r = math.sqrt(t2)
            off = g.k * cmath.exp(1j * g.theta) / r
            ops.append((((g.a + s) / r, off.conjugate()), (off, (g.b + s) / r)))
        else:
            ops.append(((0.0, 0.0), (0.0, 0.0)))
    return Measurement2("A", *ops)


# ---------------------------------------------------------------------------
# generalized Schmidt decomposition


def _svd2(a, b, c, d):
    """Closed-form SVD of the 2x2 matrix M = [[a, b], [c, d]].

    Returns (s1, s2, u1, u2, v1, v2) with s1 >= s2 >= 0, orthonormal pairs
    (u1, u2) and (v1, v2) as 2-tuples, and M v_i = s_i u_i.  v1 is the top
    eigenvector of M^dag M, taken from the row of M^dag M - s1^2 I that
    suffers no cancellation, and u1 = M v1 / s1.  u2 is the orthogonal
    complement of u1, phase-aligned so that u2^dag M v2 = s2 is real: the
    quotient M v2 / s2 would be noise over noise when s2 vanishes.
    """
    p = abs(a) ** 2 + abs(c) ** 2
    q = abs(b) ** 2 + abs(d) ** 2
    r = a.conjugate() * b + c.conjugate() * d
    half = 0.5 * (p - q)
    h = math.hypot(half, abs(r))
    x, y = (half + h, r.conjugate()) if half >= 0.0 else (r, h - half)
    n = math.hypot(abs(x), abs(y))
    if n == 0.0:
        # M^dag M is a multiple of I: every vector is a right singular vector
        x, y, n = 1.0, 0.0, 1.0
    v1 = (x / n, y / n)
    v2 = (-v1[1].conjugate(), v1[0].conjugate())
    w0, w1 = a * v1[0] + b * v1[1], c * v1[0] + d * v1[1]
    s1 = math.hypot(abs(w0), abs(w1))
    u1 = (w0 / s1, w1 / s1) if s1 > 0.0 else (1.0, 0.0)
    u2 = (-u1[1].conjugate(), u1[0].conjugate())
    z = (u2[0].conjugate() * (a * v2[0] + b * v2[1])
         + u2[1].conjugate() * (c * v2[0] + d * v2[1]))
    s2 = abs(z)
    if s2 > 0.0:
        ph = z / s2
        u2 = (u2[0] * ph, u2[1] * ph)
    return s1, s2, u1, u2, v1, v2


def _phase_gauge(raw):
    """Diagonal phases (a1, b1, c1) zeroing the phases of the anchor slots.

    raw holds the complex amplitudes of slots 4..7, which pick up the phases
    a1, a1 + c1, a1 + b1 and a1 + b1 + c1.  Slots 5, 6, 7 must end up real
    nonnegative; slot 4 keeps the gauge-invariant leftover phase unless some
    other slot is negligible, in which case the leftover can be dumped there
    and slot 4 gets zero phase too.  A negligible slot 4 counts as phase 0.
    """
    r4, r5, r6, r7 = (-cmath.phase(z) for z in raw)
    on5, on6, on7 = (abs(z) >= _NEGLIGIBLE for z in raw[1:])
    if on5 and on6 and on7:
        return r5 + r6 - r7, r7 - r5, r7 - r6
    if abs(raw[0]) < _NEGLIGIBLE:
        r4 = 0.0
    # slot 4 fixes a1 and slots 5, 6 fix c1, b1; slot 7 fixes whichever of
    # them is still free, or splits evenly between both
    s5, s6, s7 = r5 - r4, r6 - r4, r7 - r4
    b1 = s6 if on6 else (s7 - (s5 if on5 else 0.5 * s7) if on7 else 0.0)
    c1 = s5 if on5 else (s7 - (s6 if on6 else 0.5 * s7) if on7 else 0.0)
    return r4, b1, c1


def _mixed_norm(num, den, t0, t1):
    """Norm of the mixed slice of the slice-mixing row (den, num).  At a root
    the slice has rank 1, so this is l0 times the state's norm."""
    return _norm([den * x + num * y for x, y in zip(t0, t1)]) / math.hypot(abs(num), abs(den))


def _candidate_decomposition(num, den, t0, t1):
    """Normal form induced by the slice-mixing row (den, num).

    t0, t1 are the A = 0 and A = 1 slices as flat (b, c) = 00, 01, 10, 11
    lists; the local unitaries come back as pairs of rows.
    """
    ell = math.hypot(abs(num), abs(den))
    u00, u01 = den / ell, num / ell
    u10, u11 = -u01.conjugate(), u00.conjugate()
    s0 = [u00 * x + u01 * y for x, y in zip(t0, t1)]
    s1 = [u10 * x + u11 * y for x, y in zip(t0, t1)]
    # s0 is rank-1 because (den, num) is a root of det(t0 + x t1)
    sig, _, w1, w2, v1, v2 = _svd2(*s0)
    if sig < _NEGLIGIBLE:
        # the mixed slice vanishes: qubit A factors out on the other side,
        # so diagonalize that slice instead (biseparable BC normal form)
        sa, sb, w1, w2, v1, v2 = _svd2(*s1)
        n = math.hypot(sa, sb)
        coeffs = SchmidtCoeffs(0.0, sa / n, 0.0, 0.0, sb / n, 0.0)
        ub = ((w1[0].conjugate(), w1[1].conjugate()),
              (w2[0].conjugate(), w2[1].conjugate()))
        return coeffs, (((u00, u01), (u10, u11)), ub, (v1, v2))
    # slot 4 + 2b + c of the rotated A = 1 slice is w_b^dag s1 v_c
    sv = [(s1[0] * v[0] + s1[1] * v[1], s1[2] * v[0] + s1[3] * v[1]) for v in (v1, v2)]
    raw = [w[0].conjugate() * x[0] + w[1].conjugate() * x[1]
           for w in (w1, w2) for x in sv]
    a1, b1, c1 = _phase_gauge(raw)
    mags = [abs(z) for z in raw]
    n = math.hypot(sig, *mags)
    lams = [sig / n] + [x / n for x in mags]
    if lams[1] < _NEGLIGIBLE or min(lams[2:]) < _NEGLIGIBLE:
        # any vanishing coefficient makes the phase removable; the gauge above
        # already dumped the leftover onto the negligible slot
        phi = 0.0
    else:
        phi = (cmath.phase(raw[0]) + a1) % (2 * math.pi)
        s = math.sin(phi)
        # the extracted phase carries noise of order eps / l1, so test the
        # imaginary amplitude l1 sin(phi) rather than the bare sine
        if lams[1] * abs(s) <= _NEGLIGIBLE:
            phi = 0.0 if math.cos(phi) > 0 else math.pi
        elif s < 0:
            return None  # negative decomposition; the other root is positive
    ea, eb, ec = cmath.exp(1j * a1), cmath.exp(1j * b1), cmath.exp(1j * c1)
    ua = ((u00, u01), (u10 * ea, u11 * ea))
    ub = ((w1[0].conjugate(), w1[1].conjugate()),
          (w2[0].conjugate() * eb, w2[1].conjugate() * eb))
    uc = (v1, (v2[0] * ec, v2[1] * ec))
    return SchmidtCoeffs(*lams, phi), (ua, ub, uc)


def schmidt_decompose(state):
    """Normal form of a three-qubit state.

    Returns (coeffs, (ua, ub, uc)) such that applying ua ⊗ ub ⊗ uc to the
    input reproduces the normal-form amplitudes of coeffs within _RECON_BUDGET;
    each unitary is a pair of rows of Python numbers (complex, or float
    where an entry is exact), which apply_local_unitaries, Measurement2 and
    np.array all accept.  The positive decomposition is returned; for
    chargeless states with two admissible coefficient sets the one with
    larger l0 is chosen.  All 2x2 algebra is closed form on Python complex
    numbers, so no numpy is loaded.
    """
    amps = state.amps
    t0, t1 = amps[:4], amps[4:]
    d0 = t0[0] * t0[3] - t0[1] * t0[2]
    d1 = t1[0] * t1[3] - t1[1] * t1[2]
    m = t0[0] * t1[3] + t1[0] * t0[3] - t0[1] * t1[2] - t1[1] * t0[2]
    # candidate directions are projective roots (num, den) of det(t0 + x t1)
    # in x = num/den
    disc2 = m * m - 4.0 * d0 * d1
    # at a double root disc2 is noise, snapped like a determinant on its terms
    # or, at x = 0 or infinity (an A slice of rank 1, as in a W-type state
    # whose A is in its normal-form basis), on the pencil's coefficients,
    # unless those are all noise (both slices of rank 1)
    scale = abs(m) ** 2 + 4.0 * abs(d0) * abs(d1)
    floor = abs(d0) + abs(m) + abs(d1)
    double_root = (_snap_det(abs(disc2), scale) == 0.0
                   or floor > 1e-14 and _snap_det(abs(disc2), floor) == 0.0)
    if double_root:
        # the midpoint direction is exact, where the square root of the noise
        # would shift the root by ~1e-8; a pencil singular everywhere has no
        # midpoint, and any direction works
        pairs = ([p for p in ((d0, -0.5 * m), (-0.5 * m, d1)) if p != (0, 0)]
                 or [(1.0, 0.0), (0.0, 1.0)])
    else:
        disc = cmath.sqrt(disc2)
        # q-trick: pick the sign that avoids cancellation
        q = -0.5 * (m + disc) if abs(m + disc) >= abs(m - disc) else -0.5 * (m - disc)
        # two admissible sets only arise at distinct roots, and the larger-l0
        # one is the convention, so the root whose mixed slice has the larger
        # norm is built first
        pairs = sorted([(q, d1), (d0, q)], key=lambda p: -_mixed_norm(*p, t0, t1))
    # built lazily; None is a negative decomposition, the other root is positive
    candidates = filter(None, (_candidate_decomposition(num, den, t0, t1)
                               for num, den in pairs))
    err = None
    for coeffs, us in candidates:
        out = _local_product(amps, *us)
        err = _norm([x - y for x, y in zip(out, _normal_form_amps(coeffs))])
        if err <= _RECON_BUDGET:
            return coeffs, us
    if err is None:
        raise DecompositionFailed("no positive decomposition found")
    raise DecompositionFailed(f"reconstruction error {err:.3e} exceeds budget")


# ---------------------------------------------------------------------------
# random sampling (the samplers live in triloc.sampling, which imports numpy)

RANDOM_KINDS = ("haar", "ghz_type", "w_type", "biseparable_ab",
                "biseparable_ac", "biseparable_bc", "full_separable")


# ---------------------------------------------------------------------------
# JSON helpers (shared by the CLI and tests)


def state_to_dict(state):
    return {"amplitudes": [[z.real, z.imag] for z in state.amps]}


def state_from_dict(data):
    try:
        pairs = data["amplitudes"]
        amps = [complex(re, im) for re, im in pairs]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed state object: {exc}") from exc
    return validate_state(amps)


def _matrix_to_rows(m):
    return [[[z.real, z.imag] for z in row] for row in m]


def _matrix_from_rows(rows):
    if len(rows) != 2 or any(len(row) != 2 for row in rows):
        raise ValueError("an operator must be 2 rows of 2 [re, im] pairs")
    return tuple(tuple(complex(re, im) for re, im in row) for row in rows)


def measurement_to_dict(meas):
    return {"qubit": meas.qubit, "operators": [_matrix_to_rows(m) for m in meas.ops]}


def measurement_from_dict(data):
    try:
        qubit = data["qubit"]
        ops = data["operators"]
        if len(ops) != 2:
            raise ValueError("a measurement must have 2 operators")
        m0, m1 = (_matrix_from_rows(rows) for rows in ops)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed measurement object: {exc}") from exc
    meas = Measurement2(qubit, m0, m1)
    validate_measurement(meas)
    return meas
