"""The contract of the library's value types: each is immutable, survives
copy, deepcopy and pickle unchanged, is built by keywords, and rejects
invalid input with the exception its callers catch, also through a named
tuple's _make and _replace."""

import copy
import math
import pickle

import numpy as np
import pytest

from triloc import invariants, locc, sampling, state_core, transfer

BELL = 1.0 / math.sqrt(2.0)
GHZ_AMPS = [BELL, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, BELL]
C_SAMPLE = dict(c_ab=0.25, c_ac=0.5, c_bc=0.125, tau=0.375, j5=-0.0625)
WITNESS = dict(zeta=0.5, zeta_a=0.75, zeta_b=1.0, zeta_c=1.0, zeta_lower=0.25,
               zeta_tilde=None)


def _profile_fields():
    p = invariants.profile(state_core.PureState3(GHZ_AMPS))
    return dict(coeffs=p.coeffs, c=p.c, k=p.k, derived=p.derived, q_e=p.q_e,
                state_class=p.state_class)


# type -> (keywords of a valid instance, [(invalid keywords, exception type)])
CASES = {
    state_core.PureState3: (
        dict(amps=GHZ_AMPS),
        [(dict(amps=GHZ_AMPS[:7]), ValueError)]),
    state_core.SchmidtCoeffs: (
        dict(l0=0.6, l1=0.0, l2=0.0, l3=0.0, l4=0.8, phi=0.0),
        [(dict(l0=-0.6, l1=0.0, l2=0.0, l3=0.0, l4=0.8, phi=0.0), ValueError),
         (dict(l0=math.inf, l1=0.0, l2=0.0, l3=0.0, l4=0.8, phi=0.0), state_core.NonFinite),
         (dict(l0=0.6, l1=0.0, l2=0.0, l3=0.0, l4=0.6, phi=0.0), state_core.NotNormalized),
         (dict(l0=5.0, l1=0.0, l2=0.0, l3=0.0, l4=0.8, phi=0.0), state_core.NotNormalized),
         (dict(l0=0.6, l1=0.0, l2=0.0, l3=0.0, l4=0.8, phi=4.0), ValueError)]),
    # a tiny negative angle is stored as 2pi by theta % 2pi; a copy keeps it
    state_core.GramParams: (
        dict(a=0.5, b=0.25, k=0.125, theta=-1e-17),
        [(dict(a=0.1, b=0.1, k=0.5, theta=0.0), ValueError),
         (dict(a=1e-6, b=1e-6, k=1.1e-6, theta=0.0), ValueError),
         (dict(a=math.nan, b=0.1, k=0.0, theta=0.0), state_core.NonFinite),
         (dict(a=0.5, b=0.5, k=0.1, theta=math.nan), state_core.NonFinite),
         (dict(a=0.5, b=0.5, k=0.1, theta=math.inf), state_core.NonFinite),
         (dict(a=0.1, b=-0.1, k=0.0, theta=0.0), ValueError)]),
    state_core.Tolerances: (
        dict(zero=1e-9, norm=1e-9, eq=1e-8),
        [(dict(dict(zero=1e-9, norm=1e-9, eq=1e-8), **{field: bad}), ValueError)
         for field in ("zero", "norm", "eq") for bad in (math.nan, math.inf, 0.0, -1.0)]),
    state_core.Measurement2: (
        dict(qubit="B", m0=[[1.0, 0.0], [0.0, 0.0]], m1=[[0.0, 0.0], [0.0, 1.0]]),
        [(dict(qubit="D", m0=[[1.0, 0.0], [0.0, 0.0]], m1=[[0.0, 0.0], [0.0, 1.0]]),
          ValueError),
         (dict(qubit="A", m0=[[math.nan, 0.0], [0.0, 0.0]], m1=[[0.0, 0.0], [0.0, 1.0]]),
          state_core.NonFinite)]),
    invariants.CParams: (C_SAMPLE, []),
    invariants.KParams: (dict(k_ab=0.5, k_ac=0.625, k_bc=0.375, tau=0.25, j5=0.125), []),
    invariants.StateClass: (
        dict(kind="biseparable", pair="BC", ep_definite=False, zeta_tilde_definite=True),
        []),
    invariants.StateProfile: (_profile_fields(), []),
    locc.GhzCanonical: (
        dict(c_a=0.5, c_b=0.25, c_c=0.75, abs_z=1.5, z=1.2 + 0.9j,
             zeta_tilde_definite=True),
        []),
    locc.WCoords: (dict(x1=0.5, x2=0.25, x3=0.75), []),
    locc.ZetaWitness: (WITNESS, []),
    locc.LoccVerdict: (
        dict(feasible=True, case="A", witness=locc.ZetaWitness(**WITNESS),
             violated=None, min_measurements=3),
        []),
    transfer.TransferParams: (
        dict(alpha=0.5, beta=0.25),
        [(dict(alpha=1.5, beta=0.25), ValueError)]),
    transfer.OutcomePrediction: (
        dict(probability=0.5, alpha=0.75, c=invariants.CParams(**C_SAMPLE), q_e=-1),
        []),
}


def _copies(value):
    return copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))


def _check_immutable_copies(value, field):
    """value survives copy, deepcopy and pickle with its type and repr, and
    neither field nor a new attribute can be set."""
    for twin in _copies(value):
        assert type(twin) is type(value)
        assert repr(twin) == repr(value)
    for name in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, 0.0)


def _check_contract(cls, kwargs, invalid):
    value = cls(**kwargs)
    assert repr(value) == repr(cls(*kwargs.values()))
    assert repr(value).startswith(f"{cls.__name__}({next(iter(kwargs))}=")
    _check_immutable_copies(value, next(iter(kwargs)))
    makers = [lambda bad: cls(**bad)]
    if hasattr(cls, "_make"):
        # namedtuple's _replace goes through _make
        makers += [lambda bad: cls._make(bad.values()), lambda bad: value._replace(**bad)]
    for bad, exc in invalid:
        for make in makers:
            with pytest.raises(exc) as info:
                make(bad)
            assert info.type is exc


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
def test_value_type_contract(cls):
    _check_contract(cls, *CASES[cls])


# states the library builds from amplitudes it made itself, without
# PureState3's coercion; real operators and coefficients must still give
# complex amplitudes
HAAR = sampling.random_state("haar", 7)
LIBRARY_STATES = {
    "measure": lambda: state_core.measure(
        HAAR, sampling.random_measurement(8, qubit="B"))[0][0],
    "permute_qubits": lambda: state_core.permute_qubits(HAAR, "CAB"),
    "complex_conjugate": lambda: state_core.complex_conjugate(HAAR),
    "state_from_schmidt": lambda: state_core.state_from_schmidt(
        state_core.SchmidtCoeffs(0.6, 0.0, 0.0, 0.0, 0.8, 0.0)),
    "apply_local_unitaries": lambda: state_core.apply_local_unitaries(
        state_core.PureState3(GHZ_AMPS), [[0, 1], [1, 0]], np.eye(2),
        ((BELL, BELL), (BELL, -BELL))),
    "validate_state": lambda: state_core.validate_state([1, 0, 0, 0, 0, 0, 0, 0]),
}


@pytest.mark.parametrize("make", list(LIBRARY_STATES.values()), ids=list(LIBRARY_STATES))
def test_library_built_state_contract(make):
    state = make()
    assert type(state) is state_core.PureState3
    assert type(state.amps) is tuple and len(state.amps) == 8
    assert all(type(z) is complex for z in state.amps)
    assert repr(state) == repr(state_core.PureState3(state.amps))
    _check_immutable_copies(state, "amps")
    with pytest.raises(AttributeError):
        del state.amps
    arr = state.amplitudes
    assert arr.dtype == complex and arr.shape == (8,) and not arr.flags.writeable
    assert arr.tolist() == list(state.amps)


def test_measurement_contract_from_arrays():
    # operators given as ndarrays take the numpy path into the same rows
    m0, m1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    _check_contract(state_core.Measurement2, dict(qubit="C", m0=m0, m1=m1),
                    [(dict(qubit="A", m0=np.full((2, 2), np.inf), m1=m1),
                      state_core.NonFinite),
                     (dict(qubit="A", m0=np.eye(3), m1=m1), ValueError)])


def test_value_type_conventions():
    assert state_core.GramParams(0.5, 0.25, 0.125, theta=7.0).theta == 7.0 % (2 * math.pi)
    assert locc.LoccVerdict(False, "A", None, "x").min_measurements is None
    # states compare by identity, not by amplitudes
    assert state_core.PureState3(GHZ_AMPS) != state_core.PureState3(GHZ_AMPS)


# one operator written five ways, and its rows
OP_ROWS = ((0.6 + 0j, 0.8j), (0.25 + 0j, -0.5 + 0.125j))
OP_FORMS = {
    "nested_lists": [[0.6, 0.8j], [0.25, -0.5 + 0.125j]],
    "nested_tuples": ((0.6, 0.8j), (0.25, -0.5 + 0.125j)),
    "list_of_arrays": [np.array([0.6, 0.8j]), np.array([0.25, -0.5 + 0.125j])],
    "flat_list": [0.6, 0.8j, 0.25, -0.5 + 0.125j],
    "ndarray": np.array([[0.6, 0.8j], [0.25, -0.5 + 0.125j]]),
}


@pytest.mark.parametrize("form", list(OP_FORMS))
def test_measurement_reads_every_operator_form(form):
    meas = state_core.Measurement2("B", OP_FORMS[form], OP_FORMS[form])
    assert meas.ops == (OP_ROWS, OP_ROWS)
    assert all(type(z) is complex for rows in meas.ops for row in rows for z in row)
    for arr in (meas.m0, meas.m1):
        assert arr.dtype == complex and arr.shape == (2, 2)
        assert np.array_equal(arr, np.array(OP_ROWS))
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0
    assert meas.m0 is meas.m0  # built once


def test_copies_keep_fields_and_read_only_arrays():
    # the arrays are built before copying; a copy rebuilds its own, read-only
    meas = state_core.Measurement2("C", OP_FORMS["ndarray"], OP_ROWS)
    state = state_core.PureState3(GHZ_AMPS)
    assert not meas.m0.flags.writeable and not state.amplitudes.flags.writeable
    for twin in _copies(meas):
        assert twin.qubit == "C" and twin.ops == meas.ops
        assert not twin.m0.flags.writeable and np.array_equal(twin.m0, meas.m0)
    for twin in _copies(state):
        assert twin.amps == state.amps
        assert not twin.amplitudes.flags.writeable
        assert np.array_equal(twin.amplitudes, state.amplitudes)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
@pytest.mark.parametrize("form", ["nested_lists", "ndarray"])
def test_measurement_rejects_non_finite(bad, form):
    m = [[0.6, 0.8j], [0.25, bad]]
    if form == "ndarray":
        m = np.array(m)
    with pytest.raises(state_core.NonFinite, match="non-finite entry in m1"):
        state_core.Measurement2("A", OP_ROWS, m)


@pytest.mark.parametrize("kwargs", [
    dict(qubit="D", m0=OP_ROWS, m1=OP_ROWS),
    dict(qubit="a", m0=OP_ROWS, m1=OP_ROWS),
    dict(qubit="A", m0=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], m1=OP_ROWS),
    dict(qubit="A", m0=OP_ROWS, m1=[1.0, 0.0]),
    dict(qubit="A", m0=np.eye(3), m1=OP_ROWS),
    dict(qubit="A", m0=[[1.0, 0.0], [0.0, "x"]], m1=OP_ROWS),
], ids=["qubit_D", "lower_case_qubit", "rows_of_three", "two_entries",
        "ndarray_3x3", "text_entry"])
def test_measurement_rejects_bad_shape_or_qubit(kwargs):
    with pytest.raises(ValueError) as info:
        state_core.Measurement2(**kwargs)
    assert info.type is ValueError


@pytest.mark.parametrize("make, exc", [
    (lambda: state_core.permute_qubits(state_core.PureState3(GHZ_AMPS), "ABB"),
     ValueError),
    (lambda: state_core.state_from_dict({"amplitudes": [[1.0, 0.0], [0.0]]}), ValueError),
    (lambda: sampling.random_state("nope", 0), ValueError),
    (lambda: invariants.coeffs_from_invariants(
        invariants.CParams(0.9, 0.9, 0.9, 0.01, 0.0), 0), invariants.Inconsistent),
    # a nested (2, 2, 2) list is read through numpy before the norm is checked
    (lambda: state_core.validate_state(np.full((2, 2, 2), 0.5).tolist()),
     state_core.NotNormalized),
], ids=["permutation", "state_dict", "random_kind", "inversion_discriminant",
        "nested_norm"])
def test_bad_input_raises(make, exc):
    with pytest.raises(exc) as info:
        make()
    assert info.type is exc


def test_validate_state_reads_a_nested_list():
    nested = np.array(GHZ_AMPS).reshape(2, 2, 2).tolist()
    assert state_core.validate_state(nested).amps == state_core.validate_state(GHZ_AMPS).amps
