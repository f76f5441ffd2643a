"""The contract of the library's value types: each is immutable, survives
copy, deepcopy and pickle unchanged, is built by keywords, and rejects
invalid input with the exception its callers catch."""

import copy
import math
import pickle

import pytest

from triloc import invariants, locc, state_core, transfer

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
        [(dict(l0=-0.6, l1=0.0, l2=0.0, l3=0.0, l4=0.8, phi=0.0), ValueError)]),
    # a tiny negative angle is stored as 2pi by theta % 2pi; a copy keeps it
    state_core.GramParams: (
        dict(a=0.5, b=0.25, k=0.125, theta=-1e-17),
        [(dict(a=0.1, b=0.1, k=0.5, theta=0.0), ValueError)]),
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


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
def test_value_type_contract(cls):
    kwargs, invalid = CASES[cls]
    value = cls(**kwargs)
    assert repr(value) == repr(cls(*kwargs.values()))
    assert repr(value).startswith(f"{cls.__name__}({next(iter(kwargs))}=")
    for twin in (copy.copy(value), copy.deepcopy(value),
                 pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls
        assert repr(twin) == repr(value)
    for name in (next(iter(kwargs)), "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, 0.0)
    for bad, exc in invalid:
        with pytest.raises(exc) as info:
            cls(**bad)
        assert info.type is exc


def test_value_type_conventions():
    assert state_core.GramParams(0.5, 0.25, 0.125, theta=7.0).theta == 7.0 % (2 * math.pi)
    assert locc.LoccVerdict(False, "A", None, "x").min_measurements is None
    # states compare by identity, not by amplitudes
    assert state_core.PureState3(GHZ_AMPS) != state_core.PureState3(GHZ_AMPS)
