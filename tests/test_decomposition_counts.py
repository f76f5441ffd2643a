"""Each decision decomposes each of its states exactly once."""

import json
import math

import numpy as np
import pytest

from triloc import invariants, locc, state_core, transfer
from triloc.cli import main
from triloc.state_core import SchmidtCoeffs

import samplers
from cli_runner import invoke

R2 = 1.0 / math.sqrt(2.0)
GHZ = state_core.state_from_schmidt(SchmidtCoeffs(R2, 0, 0, 0, R2, 0.0))
BELL_BC = state_core.state_from_schmidt(SchmidtCoeffs(0, R2, 0, 0, R2, 0.0))


@pytest.fixture
def decompositions(monkeypatch):
    calls = []
    original = invariants._decompose

    def counting(state):
        calls.append(state)
        return original(state)

    # profile decomposes through the internal step that keeps its unitaries
    # as Python numbers; the public schmidt_decompose wraps the same step
    monkeypatch.setattr(invariants, "_decompose", counting)
    monkeypatch.setattr(state_core, "_decompose", counting)
    return calls


@pytest.fixture
def state_files(tmp_path):
    paths = []
    for name, st in (("ghz.json", GHZ), ("bell.json", BELL_BC)):
        path = tmp_path / name
        path.write_text(json.dumps(state_core.state_to_dict(st)))
        paths.append(str(path))
    return paths


def test_dlocc_feasible(decompositions):
    assert locc.dlocc_feasible(GHZ, BELL_BC).feasible
    assert len(decompositions) == 2


def test_min_measurements(decompositions):
    assert locc.min_measurements(GHZ, BELL_BC) == 2
    assert len(decompositions) == 2


def test_cli_locc_check_feasible_pair(decompositions, state_files):
    res = invoke(main, ["locc-check", *state_files])
    assert res.exit_code == 0
    assert json.loads(res.output)["min_measurements"] == 2
    assert len(decompositions) == 2


def test_cli_lu_equiv(decompositions, state_files):
    res = invoke(main, ["lu-equiv", *state_files])
    assert res.exit_code == 1
    assert len(decompositions) == 2


def test_cli_synth_bisep(decompositions, state_files):
    res = invoke(main, ["synth-bisep", state_files[0]])
    assert res.exit_code == 0
    assert abs(json.loads(res.output)["outcome_c_bc"] - 1.0) < 1e-12
    assert len(decompositions) == 1


def test_verify_update(decompositions):
    # the measured-front source and each simulated outcome
    meas = state_core.random_measurement(3, qubit="B")
    assert transfer.verify_update(GHZ, meas)["pass"]
    assert len(decompositions) == 3


def test_cli_measure(decompositions, state_files, tmp_path):
    # verify_update's three; the outcomes printed after it are not profiled
    path = tmp_path / "meas.json"
    path.write_text(json.dumps(state_core.measurement_to_dict(
        state_core.random_measurement(5, qubit="A"))))
    res = invoke(main, ["measure", state_files[0], str(path)])
    assert res.exit_code == 0
    assert json.loads(res.output)["report"]["pass"] is True
    assert len(decompositions) == 3


@pytest.mark.parametrize("make_pair", [
    lambda rng: (GHZ, GHZ),
    lambda rng: (GHZ, BELL_BC),
    lambda rng: samplers.one_step_pair(rng, "zt_definite")[:2],
    lambda rng: samplers.one_step_pair(rng, "w_type")[:2],
], ids=["self", "split_off", "ghz_type", "w_type"])
def test_search(decompositions, make_pair):
    # the source once (keeping its frame), the target once and each
    # simulated outcome once
    src, dst = make_pair(np.random.default_rng(74))
    decompositions.clear()
    assert transfer.search_deterministic_measurement(src, dst) is not None
    assert len(decompositions) == 4
