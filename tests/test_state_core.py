import cmath
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from triloc import invariants, sampling, state_core, transfer
from triloc.cli import main
from triloc.state_core import (
    GramParams,
    IncompleteMeasurement,
    Measurement2,
    NonFinite,
    NotNormalized,
    PureState3,
    SchmidtCoeffs,
    QUBITS,
    RANDOM_KINDS,
)

import oracles
from cli_runner import invoke


def test_validate_rejects_unnormalized():
    with pytest.raises(NotNormalized):
        state_core.validate_state(np.ones(8))


def test_validate_rejects_wrong_length():
    with pytest.raises(ValueError):
        state_core.validate_state(np.array([1.0, 0.0]))


def test_state_input_contract():
    vec = sampling.random_state("haar", 9).amplitudes
    forms = [vec.tolist(), list(vec), tuple(vec.tolist()), vec.copy(),
             vec.reshape(2, 2, 2)]
    for make in (PureState3, state_core.validate_state):
        got = [make(raw).amps for raw in forms]
        assert all(amps == got[0] for amps in got)
        assert all(type(z) is complex for z in got[0])
        assert np.max(np.abs(np.array(got[0]) - vec)) <= 1e-15
        for size in (7, 9, 16):
            with pytest.raises(ValueError):
                make(np.full(size, 1.0 / math.sqrt(size)))
    for bad in (math.nan, math.inf, complex(0.0, -math.inf)):
        with pytest.raises(NonFinite):
            state_core.validate_state([bad] + [0.0] * 7)
    off = 1.0 + 3.0 * state_core.TOL_NORM
    with pytest.raises(NotNormalized):
        state_core.validate_state([off] + [0.0] * 7)
    near = state_core.validate_state([1.0 + 0.5 * state_core.TOL_NORM] + [0.0] * 7)
    assert near.amps[0] == 1.0
    state = PureState3(vec)
    assert state.amplitudes is state.amplitudes
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0


def test_state_from_schmidt_slots():
    r2 = 1.0 / math.sqrt(2.0)
    st_ghz = state_core.state_from_schmidt(SchmidtCoeffs(r2, 0, 0, 0, r2, 0.0))
    expect = np.zeros(8, dtype=complex)
    expect[0] = r2   # |000>
    expect[7] = r2   # |111>
    np.testing.assert_allclose(st_ghz.amplitudes, expect, atol=1e-15)

    co = SchmidtCoeffs(0.6, 0.2, 0.4, 0.4, math.sqrt(0.28), 1.2)
    vec = state_core.state_from_schmidt(co).amplitudes
    assert abs(vec[0] - 0.6) < 1e-15
    assert abs(vec[4] - 0.2 * np.exp(1.2j)) < 1e-15
    assert abs(vec[5] - 0.4) < 1e-15 and abs(vec[6] - 0.4) < 1e-15


def test_schmidt_coeffs_phase_guard():
    # a vanishing coefficient makes the relative phase removable
    with pytest.raises(ValueError):
        SchmidtCoeffs(1.0, 0.0, 0.0, 0.0, 0.0, 0.5)


def _round_trip(state):
    """Decompose, check the local maps are unitary pairs of rows of Python
    numbers and rebuild the normal form."""
    coeffs, us = state_core.schmidt_decompose(state)
    for u in us:
        assert len(u) == 2 and all(len(row) == 2 for row in u)
        assert all(isinstance(z, (complex, float)) for row in u for z in row)
        u = np.array(u, dtype=complex)
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) <= 1e-12
    rebuilt = state_core.apply_local_unitaries(state, *us)
    target = state_core.state_from_schmidt(coeffs)
    assert np.linalg.norm(rebuilt.amplitudes - target.amplitudes) < 1e-8
    return coeffs


def test_decompose_round_trip_all_kinds():
    for kind in RANDOM_KINDS:
        for i in range(30):
            seed = 1000 * (i + 1) + RANDOM_KINDS.index(kind)
            coeffs = _round_trip(sampling.random_state(kind, seed))
            lams = np.array(coeffs[:5])
            assert np.all(lams >= 0.0)
            assert abs(np.sum(lams**2) - 1.0) < 1e-9
            assert 0.0 <= coeffs.phi <= math.pi + 1e-12


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=16, max_size=16))
def test_decompose_round_trip_arbitrary(raw):
    vec = np.array(raw[:8]) + 1j * np.array(raw[8:])
    norm = np.linalg.norm(vec)
    if norm < 1e-3:
        return
    _round_trip(PureState3(vec / norm))


def _scrambled(coeffs, rng):
    us = [sampling.haar_unitary(rng) for _ in range(3)]
    return state_core.apply_local_unitaries(state_core.state_from_schmidt(coeffs), *us)


def _lams(rng, lo=0.15):
    lams = rng.uniform(lo, 1.0, 5)
    return lams / np.linalg.norm(lams)


def _assert_same_invariants(coeffs, want):
    got, ref = invariants.coeffs_profile(coeffs), invariants.coeffs_profile(want)
    assert got.c.max_deviation(ref.c) < 1e-9
    assert got.q_e == ref.q_e


def test_decompose_round_trip_real_phase():
    rng = np.random.default_rng(41)
    for phi in (0.0, math.pi) * 10:
        want = SchmidtCoeffs(*_lams(rng), phi)
        coeffs = _round_trip(_scrambled(want, rng))
        assert coeffs.phi in (0.0, math.pi)
        _assert_same_invariants(coeffs, want)


def test_decompose_round_trip_vanishing_coefficient():
    rng = np.random.default_rng(42)
    for slot in list(range(5)) * 4:
        lams = _lams(rng)
        lams[slot] = 0.0
        want = SchmidtCoeffs(*(lams / np.linalg.norm(lams)), 0.0)
        coeffs = _round_trip(_scrambled(want, rng))
        # l1 = 0 leaves charge 0, whose larger-l0 set may have no zero and phi = pi
        assert coeffs.phi in (0.0, math.pi)
        assert coeffs.phi == 0.0 or min(coeffs[:5]) >= state_core.TOL_ZERO
        _assert_same_invariants(coeffs, want)


def _double_root_coeffs(rng, count):
    """The chargeless coefficient sets of count random invariant sets whose
    j5 is replaced by the value that closes the discriminant delta_J: each
    state's two roots, and their l0, coincide up to rounding."""
    while count:
        lams = _lams(rng, lo=0.3)
        c = invariants.c_params(SchmidtCoeffs(*lams, rng.uniform(0.0, math.pi)))
        k_ap = (c.c_ab**2 + c.tau) * (c.c_ac**2 + c.tau) * (c.c_bc**2 + c.tau)
        j5 = math.sqrt(k_ap) - c.tau
        if abs(j5) >= c.c_ab * c.c_ac * c.c_bc:
            continue
        c = invariants.CParams(c.c_ab, c.c_ac, c.c_bc, c.tau, j5)
        yield from invariants.coeffs_from_invariants(c, 0)
        count -= 1


def test_decompose_round_trip_double_root():
    rng = np.random.default_rng(43)
    for want in _double_root_coeffs(rng, 20):
        _assert_same_invariants(_round_trip(_scrambled(want, rng)), want)


def test_decompose_w_type_aligned_on_a():
    # the A = 0 slice of a W-type normal form has rank 1, so with A left in
    # its normal-form basis the pencil's double root sits at x = 0, where
    # d0, m and the discriminant's relative scale are all rounding noise;
    # read as two distinct roots, that noise shifts them by its square
    # root, ~1e-8 in l4
    rng = np.random.default_rng(3)
    for _ in range(2000):
        lams = np.abs(rng.normal(size=4))
        want = SchmidtCoeffs(*(lams / np.linalg.norm(lams)), 0.0, 0.0)
        state = state_core.apply_local_unitaries(
            state_core.state_from_schmidt(want), np.eye(2),
            sampling.haar_unitary(rng), sampling.haar_unitary(rng))
        coeffs = _round_trip(state)
        assert coeffs.l4 < 1e-14
        got = invariants.c_params(coeffs)
        assert got.max_deviation(invariants.c_params(want)) < 1e-14


def test_decompose_round_trip_near_product():
    for i, eps in enumerate((1e-2, 1e-3, 1e-4, 1e-5) * 5):
        prod = sampling.random_state("full_separable", 500 + i).amplitudes
        noise = sampling.random_state("haar", 600 + i).amplitudes
        amps = prod + eps * noise
        _round_trip(PureState3(amps / np.linalg.norm(amps)))


def test_decompose_biseparable_bc_takes_the_fallback():
    # |a> (x) |psi_BC>: every slice mix is a multiple of psi, so the mixed
    # slice of the root direction vanishes and the BC slice is diagonalized
    rng = np.random.default_rng(44)
    for _ in range(20):
        th = rng.uniform(0.15, math.pi / 4)
        want = SchmidtCoeffs(0.0, math.cos(th), 0.0, 0.0, math.sin(th), 0.0)
        coeffs = _round_trip(_scrambled(want, rng))
        assert (coeffs.l0, coeffs.l2, coeffs.l3) == (0.0, 0.0, 0.0)
        assert abs(coeffs.l1 - want.l1) < 1e-12 and abs(coeffs.l4 - want.l4) < 1e-12


# Haar seeds whose l1 |sin phi| lies below 1e-3 (4.3e-4 on seed 32)
SMALL_IMAGINARY_SLOT = (32, 85, 1384, 1624, 1786)


def test_decomposition_reads_no_user_tolerance(monkeypatch):
    # the decomposition's zero tests are rounding rules: a phase snapped on
    # a loose TOL_ZERO left seed 32's normal form 4.3e-4 off the state
    states = [sampling.random_state(kind, 40 + i)
              for kind in RANDOM_KINDS for i in range(10)]
    states += [sampling.random_state("haar", s) for s in SMALL_IMAGINARY_SLOT]
    want = [repr(state_core.schmidt_decompose(st)) for st in states]
    for tz in (1e-3, 1e-12):
        monkeypatch.setattr(state_core, "TOL_ZERO", tz)
        assert [repr(state_core.schmidt_decompose(st)) for st in states] == want


def test_profile_under_a_loose_zero_tolerance(monkeypatch):
    monkeypatch.setattr(state_core, "TOL_ZERO", 1e-3)
    for s in SMALL_IMAGINARY_SLOT:
        assert invariants.profile(sampling.random_state("haar", s)).state_class.kind == "ghz_type"


def _candidates_built(monkeypatch, state):
    """What each _candidate_decomposition call of one decomposition gave,
    in the order built."""
    built = []
    original = state_core._candidate_decomposition

    def recording(*args):
        built.append(original(*args))
        return built[-1]

    monkeypatch.setattr(state_core, "_candidate_decomposition", recording)
    state_core.schmidt_decompose(state)
    monkeypatch.undo()
    return built


def test_candidates_built_per_state(monkeypatch):
    # the larger-l0 root is built first and kept when admissible: one
    # candidate at a tangle-free double root (its midpoint direction is
    # exact) and at a tangled state whose larger-l0 root is positive
    ghz = sampling.random_state("ghz_type", 11)
    split = state_core.measure(ghz, transfer.synth_bisep_measurement(ghz))[0][0]
    r2 = 1.0 / math.sqrt(2.0)
    bell_bc = state_core.state_from_schmidt(SchmidtCoeffs(0, r2, 0, 0, r2, 0.0))
    for state in (sampling.random_state("w_type", 5), bell_bc, split, ghz):
        assert len(_candidates_built(monkeypatch, state)) == 1
    # a charged state whose larger-l0 root is the negative decomposition
    # builds the other root too
    charged = sampling.random_state("ghz_type", 0)
    assert invariants.profile(charged).q_e == -1
    built = _candidates_built(monkeypatch, charged)
    assert [cand is None for cand in built] == [True, False]


def test_decompose_falls_back_when_the_first_root_misses_reconstruction(monkeypatch):
    # a chargeless tangled state has two admissible sets; when the larger-l0
    # one misses the reconstruction budget, the other root's set is returned
    rng = np.random.default_rng(46)
    state = _scrambled(SchmidtCoeffs(*_lams(rng), 0.0), rng)
    built = []
    original = state_core._candidate_decomposition
    identity = ((1.0, 0.0), (0.0, 1.0))

    def first_misses(*args):
        built.append(original(*args))
        coeffs, us = built[-1]
        return (coeffs, (identity,) * 3) if len(built) == 1 else (coeffs, us)

    monkeypatch.setattr(state_core, "_candidate_decomposition", first_misses)
    coeffs, _ = state_core.schmidt_decompose(state)
    assert len(built) == 2
    assert built[0][0].l0 > built[1][0].l0
    assert coeffs == built[1][0]


def _root_candidates(monkeypatch, state):
    """Both roots' candidates, each built explicitly, in the order the
    decomposition tries them: a builder that records its arguments and
    admits nothing makes the decomposition try every root."""
    roots = []
    monkeypatch.setattr(state_core, "_candidate_decomposition",
                        lambda *args: roots.append(args))
    with pytest.raises(state_core.DecompositionFailed):
        state_core.schmidt_decompose(state)
    monkeypatch.undo()
    return [state_core._candidate_decomposition(*args) for args in roots]


def _reconstructs(state, cand):
    coeffs, us = cand
    out = state_core._local_product(state.amps, *us)
    err = state_core._norm([x - y for x, y in
                            zip(out, state_core._normal_form_amps(coeffs))])
    return err <= state_core._RECON_BUDGET


def test_decompose_keeps_the_larger_l0_root(monkeypatch):
    # the rule of building every root's candidate and keeping the admissible,
    # reconstructing one with the larger l0: ordering the roots by their mixed
    # slice's norm and building lazily returns the same set.  Where the two
    # l0 agree to rounding (a double root, where the first is kept) either
    # may come first, and the sets then differ by rounding alone
    rng = np.random.default_rng(47)
    states = [state_core.apply_local_unitaries(
                  sampling.random_state(kind, seed),
                  *(sampling.haar_unitary(rng) for _ in range(3)))
              for kind in RANDOM_KINDS for seed in range(40)]
    states += [_scrambled(coeffs, rng) for coeffs in _double_root_coeffs(rng, 40)]
    for state in states:
        kept = [cand[0] for cand in _root_candidates(monkeypatch, state)
                if cand is not None and _reconstructs(state, cand)]
        largest = max(kept, key=lambda coeffs: coeffs.l0)
        want = next(co for co in kept if co.l0 >= largest.l0 - 1e-15)
        got, _ = state_core.schmidt_decompose(state)
        assert max(abs(x - y) for x, y in zip(got, want)) <= 1e-15
        got_p, want_p = invariants.coeffs_profile(got), invariants.coeffs_profile(largest)
        assert got_p.state_class == want_p.state_class
        assert got_p.q_e == want_p.q_e


@pytest.mark.parametrize("patch, message", [
    (lambda mp: mp.setattr(state_core, "_RECON_BUDGET", 0.0),
     "reconstruction error .* exceeds budget"),
    (lambda mp: mp.setattr(state_core, "_candidate_decomposition",
                           lambda *args: None),
     "no positive decomposition found"),
], ids=["reconstruction", "no_candidate"])
def test_decomposition_failed(monkeypatch, tmp_path, patch, message):
    state = sampling.random_state("ghz_type", 12)
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state_core.state_to_dict(state)))
    patch(monkeypatch)
    with pytest.raises(state_core.DecompositionFailed, match=message):
        state_core.schmidt_decompose(state)
    res = invoke(main, ["invariants", str(path)])
    assert res.exit_code == 2
    assert re.search(message, res.stderr)


def _svd_cases(rng):
    def gauss(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for _ in range(200):
        yield gauss(2, 2)
    for _ in range(50):
        yield np.outer(gauss(2), gauss(2))
    yield np.zeros((2, 2), dtype=complex)
    yield np.diag([0.3, 0.0]).astype(complex)
    yield np.diag([0.0, 2.0j])
    yield np.diag([1e-9, 0.5])
    for _ in range(20):
        yield gauss(1)[0] * sampling.haar_unitary(rng)


def test_svd2_matches_numpy():
    rng = np.random.default_rng(45)
    for m in _svd_cases(rng):
        s1, s2, u1, u2, v1, v2 = state_core._svd2(*m.ravel().tolist())
        np.testing.assert_allclose([s1, s2], np.linalg.svd(m, compute_uv=False),
                                   rtol=1e-12, atol=1e-12)
        u = np.array([u1, u2]).T
        v = np.array([v1, v2]).T
        for w in (u, v):
            assert np.max(np.abs(w.conj().T @ w - np.eye(2))) <= 1e-12
        for s, ui, vi in ((s1, u[:, 0], v[:, 0]), (s2, u[:, 1], v[:, 1])):
            assert np.max(np.abs(m @ vi - s * ui)) <= 1e-12


def test_phase_gauge_matches_lstsq():
    # slot 4 + 2b + c picks up the phase a1, a1 + c1, a1 + b1, a1 + b1 + c1
    rows = {4: (1, 0, 0), 5: (1, 0, 1), 6: (1, 1, 0), 7: (1, 1, 1)}
    rng = np.random.default_rng(46)
    for pattern in range(16):
        raw = [complex(*rng.standard_normal(2)) * (pattern >> j & 1) for j in range(4)]
        anchors = [i for i in (5, 6, 7) if raw[i - 4] != 0]
        gauge = state_core._phase_gauge(raw)
        if raw[0] == 0 and len(anchors) < 3:
            # a negligible slot 4 counts as phase 0, so a1 = 0 and the
            # remaining anchors are made real
            assert gauge[0] == 0.0
            for i in anchors:
                rest = cmath.exp(1j * (np.angle(raw[i - 4]) + np.dot(rows[i], gauge)))
                assert abs(rest - 1.0) <= 1e-12
            continue
        if len(anchors) < 3:
            anchors.append(4)
        lhs = np.array([rows[i] for i in anchors], dtype=float)
        rhs = [-np.angle(raw[i - 4]) for i in anchors]
        want = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
        np.testing.assert_allclose(gauge, want, atol=1e-12)


def test_profile_calls_no_lapack(monkeypatch):
    states = [sampling.random_state(kind, 7 + i)
              for i, kind in enumerate(RANDOM_KINDS * 3)]
    want = [invariants.profile(state) for state in states]

    def no_lapack(*args, **kwargs):
        raise AssertionError("the decomposition must not call np.linalg")

    for name in ("svd", "solve", "lstsq"):
        monkeypatch.setattr(np.linalg, name, no_lapack)
    for state, prof in zip(states, want):
        got = invariants.profile(state)
        assert (got.c, got.q_e, got.state_class) == (prof.c, prof.q_e, prof.state_class)


def test_local_unitaries_match_einsum():
    # the scalar mode products against the tensor contraction they replace
    rng = np.random.default_rng(48)
    worst = 0.0
    for i in range(200):
        state = sampling.random_state(RANDOM_KINDS[i % 7], 4000 + i)
        us = [sampling.haar_unitary(rng) for _ in range(3)]
        want = np.einsum("ai,bj,ck,ijk->abc", *us, state.amplitudes.reshape(2, 2, 2)).reshape(8)
        got = state_core.apply_local_unitaries(state, *us).amplitudes
        worst = max(worst, np.max(np.abs(got - want)))
    assert worst <= 1e-15


def test_permute_matches_tensor_reorder():
    state = sampling.random_state("haar", 77)
    t = state.amplitudes.reshape(2, 2, 2)
    for order, axes in [("BAC", (1, 0, 2)), ("CBA", (2, 1, 0)),
                        ("ACB", (0, 2, 1)), ("BCA", (1, 2, 0)),
                        ("CAB", (2, 0, 1))]:
        got = state_core.permute_qubits(state, order).amplitudes
        want = np.transpose(t, axes).reshape(8)
        np.testing.assert_allclose(got, want, atol=1e-15)


def test_permute_preserves_one_tangle():
    # the one-tangle of the qubit that moves to the front must follow it
    state = sampling.random_state("haar", 78)
    base = oracles.one_tangle(state.amplitudes, "B")
    moved = state_core.permute_qubits(state, "BAC")
    assert abs(oracles.one_tangle(moved.amplitudes, "A") - base) < 1e-12


def test_measure_probabilities():
    state = sampling.random_state("haar", 11)
    meas = sampling.random_measurement(12, qubit="B")
    outs = state_core.measure(state, meas)
    total = sum(p for _, p in outs)
    assert abs(total - 1.0) < 1e-12
    for out, p in outs:
        if out is not None:
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12


def test_measure_degenerate_outcome():
    # projecting |000> onto |1> of qubit A never fires
    state = state_core.state_from_schmidt(SchmidtCoeffs(1, 0, 0, 0, 0, 0.0))
    proj0 = np.array([[1.0, 0.0], [0.0, 0.0]])
    proj1 = np.array([[0.0, 0.0], [0.0, 1.0]])
    outs = state_core.measure(state, Measurement2("A", proj0, proj1))
    assert outs[0][0] is not None and abs(outs[0][1] - 1.0) < 1e-12
    assert outs[1][0] is None and outs[1][1] < 1e-12


def test_measurement_completeness_guard():
    m = np.eye(2) * 0.9
    with pytest.raises(IncompleteMeasurement):
        state_core.validate_measurement(Measurement2("A", m, m))


@pytest.mark.parametrize("m0, dev", [
    ([[1.0, 2e-9j], [0.0, 1.0]], "2.000e-09"),
    ([[math.sqrt(1.0 - 3e-9), 0.0], [0.0, 1.0]], "3.000e-09"),
    ([[1.0, 0.0], [0.0, math.sqrt(1.0 + 4e-9)]], "4.000e-09"),
    ([[1.0, 5e-10j], [0.0, 1.0]], None),
], ids=["off_diagonal", "a", "b", "within"])
def test_measurement_completeness_entries(m0, dev):
    # every entry of m0^dag m0 + m1^dag m1 - I counts against TOL_NORM
    meas = Measurement2("A", np.array(m0), np.zeros((2, 2)))
    if dev is None:
        state_core.validate_measurement(meas)
        return
    with pytest.raises(IncompleteMeasurement,
                       match=f"operators miss completeness by {dev}"):
        state_core.validate_measurement(meas)


def test_gram_params_round_trip():
    for seed in range(25):
        meas = sampling.random_measurement(seed, qubit="A")
        g = state_core.gram_params(meas.m0)
        want = meas.m0.conj().T @ meas.m0
        np.testing.assert_allclose(g.matrix(), want, atol=1e-12)
        comp = g.complement()
        np.testing.assert_allclose(comp.matrix(), np.eye(2) - want, atol=1e-12)


def test_gram_params_single_off_diagonal():
    # k e^{i theta} is the lower entry of m^dag m, the conjugate of
    # s = conj(m00) m01 + conj(m10) m11, formed once
    for seed in range(1000):
        meas = sampling.random_measurement(seed, qubit="A")
        for m in (meas.m0, meas.m1):
            (m00, m01), (m10, m11) = m.tolist()
            s = m00.conjugate() * m01 + m10.conjugate() * m11
            g = state_core.gram_params(m)
            assert g.k == abs(s)
            assert g.theta == cmath.phase(s.conjugate()) % (2 * math.pi)
            assert np.array_equal(g.matrix(), g.matrix().conj().T)


def test_gram_params_rejects_non_psd():
    with pytest.raises(ValueError):
        GramParams(0.1, 0.1, 0.5, 0.0)  # k^2 > ab


def test_measurement_from_grams():
    g = GramParams(0.3, 0.6, 0.25, 1.1)
    meas = state_core.measurement_from_grams(g)
    np.testing.assert_allclose(meas.m0.conj().T @ meas.m0, g.matrix(), atol=1e-12)
    np.testing.assert_allclose(meas.m1.conj().T @ meas.m1,
                               np.eye(2) - g.matrix(), atol=1e-12)


def _numpy_measurement_from_grams(g):
    """measurement_from_grams's two operators, (G + sqrt(det) I) /
    sqrt(tr G + 2 sqrt(det)), built as arrays for reference."""
    ops = []
    for h, det in ((g, state_core._gram_det(g.a, g.b, g.k)),
                   (g.complement(), state_core._complement_det(g.a, g.b, g.k))):
        s = math.sqrt(det)
        t2 = h.a + h.b + 2.0 * s
        ops.append((h.matrix() + s * np.eye(2)) / math.sqrt(t2) if t2 > 0.0
                   else np.zeros((2, 2)))
    return ops


def _parity_grams():
    """Interior Grams, rank-1 Grams (k = sqrt(ab), a + b <= 1), rank-1
    complements (k = sqrt((1 - a)(1 - b)), a + b >= 1) and the corners."""
    rng = np.random.default_rng(1515)
    grams = [GramParams(0.0, 0.0, 0.0, 0.0), GramParams(1.0, 1.0, 0.0, 0.0),
             GramParams(1.0, 0.0, 0.0, 2.0), GramParams(0.5, 0.5, 0.5, math.pi / 2)]
    for i in range(600):
        a, b = rng.uniform(0.0, 1.0, 2)
        if i % 3:
            # the rank-1 edge on the side where it binds
            a, b = (a * (1.0 - b), b) if i % 3 == 1 else (1.0 - a * b, b)
            k = state_core._max_k(a, b)
        else:
            k = rng.uniform(0.0, 1.0) * state_core._max_k(a, b)
        grams.append(GramParams(a, b, k, rng.uniform(0.0, 2.0 * math.pi)))
    return grams


def test_measurement_from_grams_matches_numpy():
    ranks = set()
    for g in _parity_grams():
        meas = state_core.measurement_from_grams(g)
        for rows, arr, want in zip(meas.ops, (meas.m0, meas.m1),
                                   _numpy_measurement_from_grams(g)):
            assert np.max(np.abs(np.array(rows) - want)) <= 1e-15, g
            assert np.array_equal(arr, np.array(rows))
        dets = [abs(m00 * m11 - m01 * m10) for (m00, m01), (m10, m11) in meas.ops]
        ranks.add(tuple(d <= 1e-15 for d in dets))
    # the sample holds rank-1 Grams, rank-1 complements and full-rank pairs
    assert {(True, False), (False, True), (False, False)} <= ranks


def test_gram_params_rows_and_arrays_match_numpy():
    for seed in range(300):
        meas = sampling.random_measurement(seed, qubit=QUBITS[seed % 3])
        for rows, arr in zip(meas.ops, (meas.m0, meas.m1)):
            g = state_core.gram_params(rows)
            assert state_core.gram_params(arr) == g
            assert state_core.gram_params(arr.tolist()) == g
            want = arr.conj().T @ arr
            assert abs(g.a - want[0, 0].real) <= 1e-15
            assert abs(g.b - want[1, 1].real) <= 1e-15
            assert abs(g.k * cmath.exp(1j * g.theta) - want[1, 0]) <= 1e-15


def test_measurement_json_keeps_rows():
    meas = sampling.random_measurement(22, qubit="C")
    back = state_core.measurement_from_dict(
        json.loads(json.dumps(state_core.measurement_to_dict(meas))))
    assert back.ops == meas.ops


def test_measure_probabilities_on_qubit_c():
    state = sampling.random_state("haar", 5)
    meas = sampling.random_measurement(6, qubit="C")
    rho = oracles.density(state.amplitudes)
    for m, (_, p) in zip((meas.m0, meas.m1), state_core.measure(state, meas)):
        big = np.kron(np.kron(np.eye(2), np.eye(2)), m.conj().T @ m)
        assert abs(p - np.trace(big @ rho).real) < 1e-12


def test_random_state_kinds_against_oracles():
    for seed in (3, 14, 159):
        v = sampling.random_state("ghz_type", seed).amplitudes
        assert oracles.hyperdeterminant_tangle(v) > 1e-3

        v = sampling.random_state("w_type", seed).amplitudes
        assert oracles.hyperdeterminant_tangle(v) < 1e-10
        for pair in ("AB", "AC", "BC"):
            assert oracles.pair_concurrence(v, pair) > 1e-3

        v = sampling.random_state("biseparable_ac", seed).amplitudes
        assert oracles.pair_concurrence(v, "AC") > 1e-3
        assert oracles.pair_concurrence(v, "AB") < 1e-8
        assert oracles.pair_concurrence(v, "BC") < 1e-8
        assert oracles.hyperdeterminant_tangle(v) < 1e-10

        v = sampling.random_state("full_separable", seed).amplitudes
        assert oracles.hyperdeterminant_tangle(v) < 1e-10
        for pair in ("AB", "AC", "BC"):
            assert oracles.pair_concurrence(v, pair) < 1e-8


def test_random_state_deterministic():
    a = sampling.random_state("haar", 123).amplitudes
    b = sampling.random_state("haar", 123).amplitudes
    c = sampling.random_state("haar", 124).amplitudes
    assert np.array_equal(a, b)
    assert not np.allclose(a, c)


def test_random_measurement_deterministic_and_valid():
    for qubit in QUBITS:
        m1 = sampling.random_measurement(9, qubit=qubit)
        m2 = sampling.random_measurement(9, qubit=qubit)
        assert np.array_equal(m1.m0, m2.m0) and np.array_equal(m1.m1, m2.m1)
        state_core.validate_measurement(m1)


def test_complex_conjugate():
    state = sampling.random_state("haar", 31)
    conj = state_core.complex_conjugate(state)
    np.testing.assert_allclose(conj.amplitudes, state.amplitudes.conj())


def test_state_json_round_trip():
    state = sampling.random_state("haar", 8)
    data = state_core.state_to_dict(state)
    back = state_core.state_from_dict(data)
    np.testing.assert_allclose(back.amplitudes, state.amplitudes, atol=1e-15)


def test_measurement_json_round_trip():
    meas = sampling.random_measurement(21, qubit="B")
    back = state_core.measurement_from_dict(state_core.measurement_to_dict(meas))
    assert back.qubit == "B"
    np.testing.assert_allclose(back.m0, meas.m0, atol=1e-15)
    np.testing.assert_allclose(back.m1, meas.m1, atol=1e-15)


def test_measurement_from_dict_rejects_garbage():
    with pytest.raises(ValueError):
        state_core.measurement_from_dict({"qubit": "A"})
