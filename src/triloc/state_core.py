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
import math
from dataclasses import dataclass

import numpy as np

# Zero/normalization thresholds.  Classification of nearly-zero invariants is
# discontinuous, so these are module globals that the CLI can override for a
# whole process; library code reads them at call time.
TOL_NORM = 1e-9   # state / measurement completeness
TOL_ZERO = 1e-9   # "this invariant is zero" decisions
TOL_RECON = 1e-8  # reconstruction / round-trip error budget
TOL_EQ = 1e-8     # equality of invariants between two states

QUBITS = ("A", "B", "C")
_AXIS = {"A": 0, "B": 1, "C": 2}


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


@dataclass(frozen=True, eq=False)
class PureState3:
    """Normalized three-qubit pure state, amplitudes indexed by 4a+2b+c."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(8).copy()
        object.__setattr__(self, "amplitudes", amps)

    def tensor(self):
        """Amplitudes as a (2, 2, 2) array t[a, b, c]."""
        return self.amplitudes.reshape(2, 2, 2)


@dataclass(frozen=True)
class SchmidtCoeffs:
    """Coefficients of the five-term normal form (positive convention)."""

    l0: float
    l1: float
    l2: float
    l3: float
    l4: float
    phi: float

    def __post_init__(self):
        lams = (self.l0, self.l1, self.l2, self.l3, self.l4)
        if not all(math.isfinite(l) for l in lams) or not math.isfinite(self.phi):
            raise NonFinite("non-finite Schmidt coefficient")
        if min(lams) < -1e-12:
            raise ValueError("negative Schmidt coefficient")
        norm2 = sum(l * l for l in lams)
        if abs(norm2 - 1.0) > TOL_NORM * 10:
            raise NotNormalized(f"coefficient norm^2 = {norm2}")
        if not -1e-12 <= self.phi <= math.pi + 1e-12:
            raise ValueError("phase outside [0, pi]")
        if min(lams) < TOL_ZERO and self.phi > TOL_ZERO:
            # the phase is removable (hence defined as 0) once a coefficient vanishes
            raise ValueError("phi must be 0 when some coefficient vanishes")

    def as_array(self):
        return np.array([self.l0, self.l1, self.l2, self.l3, self.l4])


@dataclass(frozen=True, eq=False)
class LocalOperator:
    """A 2x2 operator acting on one named qubit."""

    qubit: str
    matrix: np.ndarray

    def __post_init__(self):
        if self.qubit not in QUBITS:
            raise ValueError(f"qubit must be one of {QUBITS}")
        m = np.asarray(self.matrix, dtype=complex).reshape(2, 2).copy()
        if not np.all(np.isfinite(m.view(float))):
            raise NonFinite("non-finite operator entry")
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class GramParams:
    """Parameters (a, b, k, theta) of a Gram matrix M^dag M =
    [[a, k e^{-i theta}], [k e^{i theta}, b]] in the normal-form basis."""

    a: float
    b: float
    k: float
    theta: float

    def __post_init__(self):
        for name in ("a", "b", "k"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise NonFinite(f"non-finite gram parameter {name}")
            if v < -1e-12:
                raise ValueError(f"gram parameter {name} must be >= 0")
        if self.a * self.b - self.k**2 < -TOL_ZERO:
            raise ValueError("gram matrix not positive semidefinite (ab < k^2)")
        object.__setattr__(self, "theta", float(self.theta) % (2 * math.pi))

    def matrix(self):
        off = self.k * cmath.exp(1j * self.theta)
        return np.array([[self.a, off.conjugate()], [off, self.b]], dtype=complex)

    def complement(self):
        """Gram parameters of the complementary outcome (I minus this Gram)."""
        return GramParams(1.0 - self.a, 1.0 - self.b, self.k, self.theta + math.pi)


@dataclass(frozen=True, eq=False)
class Measurement2:
    """Two-outcome generalized measurement {m0, m1} on one named qubit."""

    qubit: str
    m0: np.ndarray
    m1: np.ndarray

    def __post_init__(self):
        if self.qubit not in QUBITS:
            raise ValueError(f"qubit must be one of {QUBITS}")
        for name in ("m0", "m1"):
            m = np.asarray(getattr(self, name), dtype=complex).reshape(2, 2).copy()
            if not np.all(np.isfinite(m.view(float))):
                raise NonFinite(f"non-finite entry in {name}")
            object.__setattr__(self, name, m)

    def operators(self):
        return (self.m0, self.m1)


# ---------------------------------------------------------------------------
# construction / validation


def validate_state(raw):
    """Coerce raw amplitudes into a PureState3.

    Raises NonFinite for NaN/inf entries and NotNormalized when the vector
    norm differs from 1 by more than TOL_NORM.  The returned state is
    renormalized exactly.
    """
    amps = np.asarray(raw, dtype=complex)
    if amps.size != 8:
        raise ValueError("a three-qubit state needs exactly 8 amplitudes")
    amps = amps.reshape(8)
    if not np.all(np.isfinite(amps.view(float))):
        raise NonFinite("state contains non-finite amplitudes")
    norm = np.linalg.norm(amps)
    if abs(norm - 1.0) > TOL_NORM:
        raise NotNormalized(f"state norm {norm} differs from 1 beyond tolerance")
    return PureState3(amps / norm)


def state_from_schmidt(coeffs):
    """Build the normal-form state for the given coefficients."""
    amps = np.zeros(8, dtype=complex)
    amps[0] = coeffs.l0
    amps[4] = coeffs.l1 * cmath.exp(1j * coeffs.phi)
    amps[5] = coeffs.l2
    amps[6] = coeffs.l3
    amps[7] = coeffs.l4
    n = np.linalg.norm(amps)
    return PureState3(amps / n)


def permute_qubits(state, order):
    """Relabel qubits: slot i of the result carries the qubit named order[i].

    order is a permutation string such as "BAC" (swap A and B).
    """
    if sorted(order) != ["A", "B", "C"]:
        raise ValueError("order must be a permutation of 'ABC'")
    axes = tuple(_AXIS[q] for q in order)
    return PureState3(state.tensor().transpose(axes).reshape(8))


def complex_conjugate(state):
    """Entrywise complex conjugate (flips the charge, keeps all magnitudes)."""
    return PureState3(state.amplitudes.conj())


# ---------------------------------------------------------------------------
# operators and measurements


def apply_operator(state, op):
    """Apply a one-qubit operator; returns (unnormalized amplitudes, p).

    p is the squared norm of the resulting vector, i.e. the outcome
    probability when op is a measurement operator.
    """
    axis = _AXIS[op.qubit]
    t = np.tensordot(op.matrix, state.tensor(), axes=([1], [axis]))
    # tensordot puts the contracted slot first; restore (A, B, C) order
    t = np.moveaxis(t, 0, axis)
    out = t.reshape(8)
    p = float(np.vdot(out, out).real)
    return out, p


def gram_params(matrix):
    """Gram parameters (a, b, k, theta) of a single 2x2 operator."""
    m = np.asarray(matrix, dtype=complex).reshape(2, 2)
    g = m.conj().T @ m
    off = g[1, 0]
    k = abs(off)
    theta = cmath.phase(off) % (2 * math.pi) if k > 1e-300 else 0.0
    return GramParams(float(g[0, 0].real), float(g[1, 1].real), float(k), theta)


def validate_measurement(meas):
    """Check completeness m0^dag m0 + m1^dag m1 = I within TOL_NORM."""
    g = meas.m0.conj().T @ meas.m0 + meas.m1.conj().T @ meas.m1
    dev = np.max(np.abs(g - np.eye(2)))
    if dev > TOL_NORM:
        raise IncompleteMeasurement(f"operators miss completeness by {dev:.3e}")


def measure(state, meas):
    """Perform a two-outcome measurement.

    Returns [(state0, p0), (state1, p1)].  An outcome with probability below
    TOL_ZERO is degenerate: its state is None and it must be excluded from
    invariant checks downstream.
    """
    validate_measurement(meas)
    results = []
    for m in meas.operators():
        out, p = apply_operator(state, LocalOperator(meas.qubit, m))
        if p < TOL_ZERO:
            results.append((None, p))
        else:
            results.append((PureState3(out / math.sqrt(p)), p))
    return results


def sqrtm_psd(g):
    """Principal square root of a 2x2 positive semidefinite matrix."""
    g = np.asarray(g, dtype=complex)
    det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    s = math.sqrt(max(det.real, 0.0))
    t2 = (g[0, 0] + g[1, 1]).real + 2.0 * s
    if t2 <= 0.0:
        return np.zeros((2, 2), dtype=complex)
    return (g + s * np.eye(2)) / math.sqrt(t2)


def measurement_from_grams(g0, qubit="A"):
    """Build the measurement whose outcome-0 Gram matrix has parameters g0.

    Outcome 1 takes the complementary Gram; both operators are the principal
    square roots, which fixes the (physically irrelevant) unitary freedom.
    """
    g1 = g0.complement()
    if g1.a * g1.b - g1.k**2 < -TOL_ZERO:
        raise ValueError("complementary gram not positive semidefinite")
    return Measurement2(qubit, sqrtm_psd(g0.matrix()), sqrtm_psd(g1.matrix()))


# ---------------------------------------------------------------------------
# generalized Schmidt decomposition


def _apply_locals(amps, ua, ub, uc):
    t = amps.reshape(2, 2, 2)
    return np.einsum("ai,bj,ck,ijk->abc", ua, ub, uc, t).reshape(8)


def apply_local_unitaries(state, ua, ub, uc):
    """Apply (ua ⊗ ub ⊗ uc) to the state."""
    return PureState3(_apply_locals(state.amplitudes, ua, ub, uc))


_GAUGE_ROWS = {
    4: (1.0, 0.0, 0.0),
    5: (1.0, 0.0, 1.0),
    6: (1.0, 1.0, 0.0),
    7: (1.0, 1.0, 1.0),
}


def _phase_gauge(raw):
    """Diagonal phases (a1, b1, c1) zeroing the phases of the anchor slots.

    raw maps slot index (4..7) -> complex amplitude.  Slots 5, 6, 7 must end
    up real nonnegative; slot 4 keeps the gauge-invariant leftover phase
    unless some other slot is negligible, in which case the leftover can be
    dumped there and slot 4 gets zero phase too.
    """
    tz = TOL_ZERO
    anchors = [i for i in (5, 6, 7) if abs(raw[i]) >= tz]
    if abs(raw[4]) >= tz and len(anchors) < 3:
        anchors.append(4)
    rows = np.array([_GAUGE_ROWS[i] for i in anchors]) if anchors else np.zeros((0, 3))
    rhs = np.array([-cmath.phase(raw[i]) for i in anchors])
    if len(anchors) == 3:
        sol = np.linalg.solve(rows, rhs)
    elif anchors:
        sol, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
    else:
        sol = np.zeros(3)
    return sol


def _candidate_decomposition(num, den, t0, t1):
    """Normal form induced by the slice-mixing row (den, num)."""
    ell = math.hypot(abs(num), abs(den))
    u00, u01 = den / ell, num / ell
    ua = np.array([[u00, u01], [-u01.conjugate(), u00.conjugate()]])
    s0 = u00 * t0 + u01 * t1
    s1 = -u01.conjugate() * t0 + u00.conjugate() * t1
    w, sig, vh = np.linalg.svd(s0)
    if sig[0] < TOL_ZERO:
        # the mixed slice vanishes: qubit A factors out on the other side,
        # so diagonalize that slice instead (biseparable BC normal form)
        w2, sig2, vh2 = np.linalg.svd(s1)
        ub, uc = w2.conj().T, vh2.conj()
        lams = np.array([0.0, sig2[0], 0.0, 0.0, sig2[1]])
        lams /= np.linalg.norm(lams)
        coeffs = SchmidtCoeffs(*lams, 0.0)
        return coeffs, (ua, ub, uc)
    ub, uc = w.conj().T, vh.conj()
    g1 = ub @ s1 @ uc.T
    raw = {4: g1[0, 0], 5: g1[0, 1], 6: g1[1, 0], 7: g1[1, 1]}
    a1, b1, c1 = _phase_gauge(raw)
    da = np.diag([1.0, cmath.exp(1j * a1)])
    db = np.diag([1.0, cmath.exp(1j * b1)])
    dc = np.diag([1.0, cmath.exp(1j * c1)])
    ua, ub, uc = da @ ua, db @ ub, dc @ uc
    lams = np.array([sig[0], abs(raw[4]), abs(raw[5]), abs(raw[6]), abs(raw[7])])
    lams /= np.linalg.norm(lams)
    if lams[1] < TOL_ZERO or min(lams[2:]) < TOL_ZERO:
        # any vanishing coefficient makes the phase removable; the gauge above
        # already dumped the leftover onto the negligible slot
        phi = 0.0
    else:
        phi = (cmath.phase(raw[4]) + a1) % (2 * math.pi)
        s = math.sin(phi)
        # the extracted phase carries noise of order eps / l1, so test the
        # imaginary amplitude l1 sin(phi) rather than the bare sine
        if lams[1] * abs(s) <= TOL_ZERO:
            phi = 0.0 if math.cos(phi) > 0 else math.pi
        elif s < 0:
            return None  # negative decomposition; the other root is positive
    coeffs = SchmidtCoeffs(*lams, phi)
    return coeffs, (ua, ub, uc)


def schmidt_decompose(state):
    """Normal form of a three-qubit state.

    Returns (coeffs, (ua, ub, uc)) such that applying ua ⊗ ub ⊗ uc to the
    input reproduces the normal-form amplitudes of coeffs within TOL_RECON.
    The positive decomposition is returned; for chargeless states with two
    admissible coefficient sets the one with larger l0 is chosen.
    """
    amps = state.amplitudes
    t = amps.reshape(2, 2, 2)
    t0, t1 = t[0], t[1]
    d0 = t0[0, 0] * t0[1, 1] - t0[0, 1] * t0[1, 0]
    d1 = t1[0, 0] * t1[1, 1] - t1[0, 1] * t1[1, 0]
    m = (t0[0, 0] * t1[1, 1] + t1[0, 0] * t0[1, 1]
         - t0[0, 1] * t1[1, 0] - t1[0, 1] * t0[1, 0])
    disc2 = m * m - 4.0 * d0 * d1
    disc = cmath.sqrt(disc2)
    # q-trick: pick the sign that avoids cancellation
    q = -0.5 * (m + disc) if abs(m + disc) >= abs(m - disc) else -0.5 * (m - disc)
    # projective roots of det(t0 + x t1) in x = num/den; a degenerate (0, 0)
    # pair means the pencil is singular everywhere, so any direction works
    root_pairs = [(q, d1), (d0, q)]
    if root_pairs[0] == (0, 0):
        root_pairs[0] = (1.0, 0.0)
    if root_pairs[1] == (0, 0):
        root_pairs[1] = (0.0, 1.0)
    scale = abs(m) ** 2 + 4.0 * abs(d0) * abs(d1)
    double_root = abs(disc2) <= 1e-12 * scale
    if double_root:
        # the discriminant is cancellation noise and its square root would
        # shift both roots by ~1e-8; the midpoint direction is exact for a
        # double root, so try it first
        for pair in ((-0.5 * m, d1), (d0, -0.5 * m)):
            if pair != (0, 0):
                root_pairs.insert(0, pair)

    candidates = []
    for num, den in root_pairs:
        cand = _candidate_decomposition(num, den, t0, t1)
        if cand is not None:
            candidates.append(cand)
    if not candidates:
        raise DecompositionFailed("no positive decomposition found")
    if not double_root:
        # two genuinely distinct admissible sets only arise away from the
        # double root; there the larger-l0 one is the convention.  At the
        # double root the sort would promote a noise-shifted copy over the
        # exact midpoint, so keep insertion order instead.
        candidates.sort(key=lambda cu: -cu[0].l0)
    for coeffs, (ua, ub, uc) in candidates:
        target = state_from_schmidt(coeffs).amplitudes
        err = np.linalg.norm(_apply_locals(amps, ua, ub, uc) - target)
        if err <= TOL_RECON:
            return coeffs, (ua, ub, uc)
    raise DecompositionFailed(f"reconstruction error {err:.3e} exceeds budget")


# ---------------------------------------------------------------------------
# random sampling

RANDOM_KINDS = ("haar", "ghz_type", "w_type", "biseparable_ab",
                "biseparable_ac", "biseparable_bc", "full_separable")


def haar_unitary(rng, n=2):
    """Haar-random n x n unitary (QR of a complex Gaussian matrix)."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _random_qubit(rng):
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return v / np.linalg.norm(v)


def _scramble(amps, rng):
    return _apply_locals(amps, haar_unitary(rng), haar_unitary(rng), haar_unitary(rng))


def random_state(kind, seed):
    """Deterministic random state of the requested kind.

    kind is one of: haar, ghz_type, w_type, biseparable_ab, biseparable_ac,
    biseparable_bc, full_separable.  Same (kind, seed) gives the same state.
    All non-haar kinds are scrambled by Haar-random local unitaries, which
    leaves the kind invariant.
    """
    if kind not in RANDOM_KINDS:
        raise ValueError(f"unknown state kind {kind!r}")
    rng = np.random.default_rng(seed)
    if kind == "haar":
        amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        return PureState3(amps / np.linalg.norm(amps))
    if kind == "ghz_type":
        lams = rng.uniform(0.15, 1.0, 5)
        lams /= np.linalg.norm(lams)
        phi = rng.uniform(0.0, math.pi)
        amps = state_from_schmidt(SchmidtCoeffs(*lams, phi)).amplitudes
    elif kind == "w_type":
        x = np.concatenate([[rng.uniform(0.0, 0.6)], rng.uniform(0.25, 1.0, 3)])
        x /= np.linalg.norm(x)
        amps = np.zeros(8, dtype=complex)
        amps[0], amps[4], amps[2], amps[1] = x  # x0|000> + x1|100> + x2|010> + x3|001>
    elif kind.startswith("biseparable_"):
        th = rng.uniform(0.15, math.pi / 4)
        pair = np.array([math.cos(th), 0.0, 0.0, math.sin(th)], dtype=complex)
        lone = _random_qubit(rng)
        t = np.zeros((2, 2, 2), dtype=complex)
        p = pair.reshape(2, 2)
        if kind.endswith("ab"):
            t += np.einsum("ab,c->abc", p, lone)
        elif kind.endswith("ac"):
            t += np.einsum("ac,b->abc", p, lone)
        else:
            t += np.einsum("bc,a->abc", p, lone)
        amps = t.reshape(8)
    else:  # full_separable
        t = np.einsum("a,b,c->abc", _random_qubit(rng), _random_qubit(rng),
                      _random_qubit(rng))
        amps = t.reshape(8)
    return PureState3(_scramble(amps, rng))


def random_measurement(seed, qubit="A"):
    """Deterministic random two-outcome measurement (Gram square roots twisted
    by Haar-random unitaries, so the operators are generally non-Hermitian)."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.05, 0.95)
    b = rng.uniform(0.05, 0.95)
    kmax = math.sqrt(min(a * b, (1 - a) * (1 - b)))
    k = rng.uniform(0.0, 1.0) * kmax
    theta = rng.uniform(0.0, 2 * math.pi)
    base = measurement_from_grams(GramParams(a, b, k, theta), qubit)
    return Measurement2(qubit, haar_unitary(rng) @ base.m0, haar_unitary(rng) @ base.m1)


# ---------------------------------------------------------------------------
# JSON helpers (shared by the CLI and tests)


def state_to_dict(state):
    return {"amplitudes": [[float(z.real), float(z.imag)] for z in state.amplitudes]}


def state_from_dict(data):
    try:
        pairs = data["amplitudes"]
        amps = [complex(re, im) for re, im in pairs]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed state object: {exc}") from exc
    return validate_state(amps)


def _matrix_to_rows(m):
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _matrix_from_rows(rows):
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def measurement_to_dict(meas):
    return {"qubit": meas.qubit,
            "operators": [_matrix_to_rows(meas.m0), _matrix_to_rows(meas.m1)]}


def measurement_from_dict(data):
    try:
        qubit = data["qubit"]
        ops = data["operators"]
        m0, m1 = (_matrix_from_rows(rows) for rows in ops)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed measurement object: {exc}") from exc
    meas = Measurement2(qubit, m0, m1)
    validate_measurement(meas)
    return meas
