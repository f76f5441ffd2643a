"""Each decision decomposes each of its states exactly once."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import triloc
from triloc import invariants, locc, sampling, state_core, transfer
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
    original = state_core.schmidt_decompose

    def counting(state):
        calls.append(state)
        return original(state)

    # transfer and the CLI read schmidt_decompose off state_core when they
    # call it; profile calls the name invariants imported
    monkeypatch.setattr(state_core, "schmidt_decompose", counting)
    monkeypatch.setattr(invariants, "schmidt_decompose", counting)
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
    meas = sampling.random_measurement(3, qubit="B")
    assert transfer.verify_update(GHZ, meas)["pass"]
    assert len(decompositions) == 3


def test_cli_measure(decompositions, state_files, tmp_path):
    # verify_update's three; the outcomes printed after it are not profiled
    path = tmp_path / "meas.json"
    path.write_text(json.dumps(state_core.measurement_to_dict(
        sampling.random_measurement(5, qubit="A"))))
    res = invoke(main, ["measure", state_files[0], str(path)])
    assert res.exit_code == 0
    assert json.loads(res.output)["report"]["pass"] is True
    assert len(decompositions) == 3


def test_transfer_laws(decompositions):
    # the lemmas read the spectator pair from the A-slice pencil, and the
    # attenuation from the Gram determinants
    states = (GHZ, BELL_BC, sampling.random_state("haar", 8))
    for qubit in state_core.QUBITS:
        meas = sampling.random_measurement(9, qubit=qubit)
        for st in states:
            transfer.lemma2_bounds(st, meas)
            transfer.lemma4_check(st, meas)
            transfer.alpha_average(st, meas)
    assert decompositions == []


def test_cli_verify_lemmas(decompositions):
    # verify_update's three per sample, and none for the lemmas
    res = invoke(main, ["verify-lemmas", "--samples", "5"])
    assert res.exit_code == 0
    assert json.loads(res.output)["pass"] is True
    assert len(decompositions) == 3 * 5


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


def test_decompose_loads_no_numpy():
    # the decomposition is scalar, unitaries included: a cold interpreter
    # decomposes through the package name without loading numpy
    state = sampling.random_state("haar", 3)
    code = ("import json, sys, triloc\n"
            f"st = triloc.state_from_dict({state_core.state_to_dict(state)!r})\n"
            "coeffs, us = triloc.schmidt_decompose(st)\n"
            "print(json.dumps([list(coeffs), sorted(m for m in sys.modules\n"
            "                  if m.split('.')[0] == 'numpy')]))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        os.path.dirname(os.path.dirname(triloc.__file__)), env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, env=env)
    assert res.returncode == 0, res.stderr
    coeffs, numpy_modules = json.loads(res.stdout)
    assert numpy_modules == []
    assert coeffs == list(state_core.schmidt_decompose(state)[0])
