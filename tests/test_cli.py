import argparse
import cmath
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import cli_runner
import samplers
import triloc
from triloc import cli, sampling, state_core, transfer
from triloc.cli import main
from triloc.state_core import SchmidtCoeffs

R2 = 1.0 / math.sqrt(2.0)
R3 = 1.0 / math.sqrt(3.0)


@pytest.fixture
def runner():
    return cli_runner


def write_state(path, *coeffs):
    st = state_core.state_from_schmidt(SchmidtCoeffs(*coeffs))
    path.write_text(json.dumps(state_core.state_to_dict(st)))
    return str(path)


@pytest.fixture
def ghz(tmp_path):
    return write_state(tmp_path / "ghz.json", R2, 0, 0, 0, R2, 0.0)


@pytest.fixture
def w(tmp_path):
    return write_state(tmp_path / "w.json", R3, 0, R3, R3, 0, 0.0)


@pytest.fixture
def sep(tmp_path):
    return write_state(tmp_path / "sep.json", 1, 0, 0, 0, 0, 0.0)


@pytest.fixture
def charged(tmp_path):
    return write_state(tmp_path / "charged.json",
                       0.6, 0.2, 0.4, 0.4, math.sqrt(0.28), math.pi / 2)


def test_invariants_w(runner, w):
    res = runner.invoke(main, ["invariants", w])
    assert res.exit_code == 0, res.output
    data = json.loads(res.output)
    assert data["class"] == "w_type"
    assert data["q_e"] == 0
    assert abs(data["c_params"]["c_ab"] - 2 / 3) < 1e-9
    assert abs(data["derived"]["delta_j"]) < 1e-9
    assert data["ep_definite"] is True
    assert data["zeta_tilde_definite"] is False
    assert data["phi5"] is not None


def test_invariants_biseparable_label(runner, tmp_path):
    path = write_state(tmp_path / "bell.json", 0, R2, 0, 0, R2, 0.0)
    data = json.loads(runner.invoke(main, ["invariants", path]).output)
    assert data["class"] == "biseparable_bc"
    assert data["phi5"] is None


def test_invariants_from_stdin(runner):
    st = sampling.random_state("haar", 3)
    res = runner.invoke(main, ["invariants", "-"],
                        input=json.dumps(state_core.state_to_dict(st)))
    assert res.exit_code == 0
    assert "c_params" in json.loads(res.output)


def test_lu_equiv_verdicts(runner, tmp_path, ghz, w):
    st = sampling.random_state("haar", 55)
    rng = np.random.default_rng(56)
    rot = state_core.apply_local_unitaries(
        st, sampling.haar_unitary(rng), sampling.haar_unitary(rng),
        sampling.haar_unitary(rng))
    pa = tmp_path / "a.json"
    pb = tmp_path / "b.json"
    pa.write_text(json.dumps(state_core.state_to_dict(st)))
    pb.write_text(json.dumps(state_core.state_to_dict(rot)))
    res = runner.invoke(main, ["lu-equiv", str(pa), str(pb)])
    assert res.exit_code == 0
    assert json.loads(res.output)["equivalent"] is True

    res = runner.invoke(main, ["lu-equiv", ghz, w])
    assert res.exit_code == 1
    data = json.loads(res.output)
    assert data["equivalent"] is False
    assert data["max_c_deviation"] > 0.1


def test_locc_check_feasible(runner, ghz, sep):
    res = runner.invoke(main, ["locc-check", ghz, sep])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["feasible"] is True
    assert data["case"] == "C"
    assert data["min_measurements"] == 2
    assert data["violated"] is None
    assert data["witness"]["zeta_a"] == 0.0


def test_locc_check_infeasible(runner, ghz, sep):
    res = runner.invoke(main, ["locc-check", sep, ghz])
    assert res.exit_code == 1
    data = json.loads(res.output)
    assert data["feasible"] is False
    assert data["violated"] == "cond1_no_solution"
    assert data["witness"] is None and data["min_measurements"] is None


def test_random_deterministic(runner):
    a = runner.invoke(main, ["--seed", "7", "random", "--count", "3"])
    b = runner.invoke(main, ["--seed", "7", "random", "--count", "3"])
    c = runner.invoke(main, ["--seed", "8", "random", "--count", "3"])
    assert a.exit_code == 0
    assert a.output == b.output
    assert a.output != c.output
    lines = a.output.strip().splitlines()
    assert len(lines) == 3
    for line in lines:
        amps = json.loads(line)["amplitudes"]
        assert len(amps) == 8 and len(amps[0]) == 2


def test_random_kind(runner):
    res = runner.invoke(main, ["random", "--kind", "w_type"])
    st = state_core.state_from_dict(json.loads(res.output))
    from triloc.invariants import classify
    assert classify(st).kind == "w_type"


def test_measure_roundtrip(runner, tmp_path, charged):
    meas = sampling.random_measurement(5, qubit="B")
    mpath = tmp_path / "meas.json"
    mpath.write_text(json.dumps(state_core.measurement_to_dict(meas)))
    res = runner.invoke(main, ["measure", charged, str(mpath)])
    assert res.exit_code == 0, res.output
    data = json.loads(res.output)
    assert data["report"]["pass"] is True
    assert len(data["outcomes"]) == 2
    total = sum(o["probability"] for o in data["outcomes"])
    assert abs(total - 1.0) < 1e-12


def test_synth_bisep_feeds_measure(runner, tmp_path, ghz):
    res = runner.invoke(main, ["synth-bisep", ghz])
    assert res.exit_code == 0, res.output
    data = json.loads(res.output)
    assert abs(data["outcome_c_bc"] - 1.0) < 1e-12
    mpath = tmp_path / "split.json"
    mpath.write_text(json.dumps(data))  # whole envelope on purpose
    res = runner.invoke(main, ["measure", ghz, str(mpath)])
    assert res.exit_code == 0, res.output


def test_synth_bisep_degenerate(runner, tmp_path):
    path = write_state(tmp_path / "nofront.json", 0, R2, 0, 0, R2, 0.0)
    res = runner.invoke(main, ["synth-bisep", path])
    assert res.exit_code == 1
    assert json.loads(res.output)["degenerate"] is True


def test_ghz_canonical_outputs(runner, ghz, w, charged):
    res = runner.invoke(main, ["ghz-canonical", ghz])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["is_ghz_type"] is True
    assert data["c_a"] == 0.0 and data["z"] is None and data["s"] is None
    assert abs(data["abs_z"] - 1.0) < 1e-9

    res = runner.invoke(main, ["ghz-canonical", w])
    assert res.exit_code == 1
    assert json.loads(res.output)["is_ghz_type"] is False

    res = runner.invoke(main, ["ghz-canonical", charged])
    data = json.loads(res.output)
    assert isinstance(data["z"], list) and len(data["z"]) == 2
    assert isinstance(data["n"], float) and isinstance(data["s"], float)


def test_ghz_canonical_prints_an_infinite_s(runner, tmp_path):
    # on the |z| = 1 circle away from z = +-1 the shape parameter s is
    # infinite, which JSON has no literal for
    st = samplers.two_term_state((0.3, 0.4, 0.5), cmath.exp(0.7j))
    path = tmp_path / "unimodular.json"
    path.write_text(json.dumps(state_core.state_to_dict(st)))
    res = runner.invoke(main, ["ghz-canonical", str(path)])
    assert res.exit_code == 0, res.output
    data = json.loads(res.output)
    assert data["s"] == "inf"
    assert abs(data["abs_z"] - 1.0) < 1e-9


def test_verify_lemmas(runner):
    res = runner.invoke(main, ["verify-lemmas", "--samples", "25"])
    assert res.exit_code == 0, res.output
    data = json.loads(res.output)
    assert data["pass"] is True
    assert data["samples"] == 25
    assert data["max_deviation"] <= 1e-9
    assert set(data["components"]) == {"lemma1", "lemma2", "lemma4",
                                       "alpha_sum"}


def test_verify_lemmas_under_a_loose_zero_tolerance(runner):
    # the gate reads --tol-zero, and the decomposition does not
    res = runner.invoke(main, ["--tol-zero", "1e-3", "verify-lemmas", "--samples", "200"])
    assert res.exit_code == 0, res.output + res.stderr
    assert json.loads(res.output)["pass"] is True


def test_measure_pass_reads_tol_eq(runner, tmp_path):
    # the prediction misses the simulation by 4.4e-16
    path = tmp_path / "haar.json"
    path.write_text(json.dumps(state_core.state_to_dict(sampling.random_state("haar", 11))))
    mpath = tmp_path / "meas.json"
    meas = sampling.random_measurement(12, qubit="B")
    mpath.write_text(json.dumps(state_core.measurement_to_dict(meas)))
    for flags, code in (([], 0), (["--tol-eq", "1e-30"], 1)):
        res = runner.invoke(main, [*flags, "measure", str(path), str(mpath)])
        assert res.exit_code == code, res.output
        assert json.loads(res.output)["report"]["pass"] is (code == 0)


def test_measure_of_a_near_aligned_projective_measurement(runner, tmp_path):
    # the normal form rotated on A by 1e-5 rad: outcome 0's normal-frame
    # Gram entry b is ~1e-10, below --tol-zero, and its concurrences ~1e-5.
    # Read as a product, the prediction missed the simulation by 2.06e-5
    co = state_core.schmidt_decompose(sampling.random_state("ghz_type", 3))[0]
    eps = 1e-5
    rot = ((math.cos(eps), -math.sin(eps)), (math.sin(eps), math.cos(eps)))
    eye = ((1.0, 0.0), (0.0, 1.0))
    st = state_core.apply_local_unitaries(state_core.state_from_schmidt(co), rot, eye, eye)
    path, mpath = tmp_path / "s.json", tmp_path / "z.json"
    path.write_text(json.dumps(state_core.state_to_dict(st)))
    meas = state_core.Measurement2("A", ((1.0, 0.0), (0.0, 0.0)), ((0.0, 0.0), (0.0, 1.0)))
    mpath.write_text(json.dumps(state_core.measurement_to_dict(meas)))
    res = runner.invoke(main, ["measure", str(path), str(mpath)])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)["report"]
    assert report["pass"] is True
    assert report["max_deviation"] < 1e-14


def test_malformed_inputs_exit_2(runner, tmp_path, ghz):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert runner.invoke(main, ["invariants", str(bad)]).exit_code == 2

    unnorm = tmp_path / "unnorm.json"
    unnorm.write_text(json.dumps({"amplitudes": [[1.0, 0.0]] * 8}))
    assert runner.invoke(main, ["invariants", str(unnorm)]).exit_code == 2

    assert runner.invoke(main, ["invariants", str(tmp_path / "gone.json")]
                         ).exit_code == 2

    zero = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    for name, op in (("tall.json", [[[1.0, 0.0]], [[0.0, 0.0]]]),
                     ("ragged.json", [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]])):
        path = tmp_path / name
        path.write_text(json.dumps({"qubit": "A", "operators": [op, zero]}))
        res = runner.invoke(main, ["measure", ghz, str(path)])
        assert res.exit_code == 2
        assert "malformed measurement object: an operator must be 2 rows" in res.stderr

    eye = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    for name, ops in (("one.json", [eye]), ("three.json", [eye, zero, zero])):
        path = tmp_path / name
        path.write_text(json.dumps({"qubit": "A", "operators": ops}))
        res = runner.invoke(main, ["measure", ghz, str(path)])
        assert res.exit_code == 2
        assert "malformed measurement object: a measurement must have 2 operators" in res.stderr


def test_two_bare_pairs_error_names_the_values(runner, tmp_path):
    # l0 = 2e-9 puts c_ab = 7.2e-10 just below TOL.zero and c_ac = 2.9e-9
    # just above it, with tau ~ 4e-18: the class rule refuses this valid
    # state, so its message shows the values it decided on
    path = write_state(tmp_path / "two_pairs.json", 2e-9, 0.42, 0.72, 0.18,
                       math.sqrt(0.2728), 0.0)
    res = runner.invoke(main, ["invariants", path])
    assert res.exit_code == 2
    assert "two bare pair entanglements cannot coexist" in res.stderr
    for text in ("c_ab = 7.2e-10", "c_ac = ", "c_bc = ", "tau = ", "--tol-zero = 1e-09"):
        assert text in res.stderr


def test_pretty_flag(runner, ghz):
    plain = runner.invoke(main, ["invariants", ghz]).output
    pretty = runner.invoke(main, ["--pretty", "invariants", ghz]).output
    assert "\n  " in pretty and "\n  " not in plain
    assert json.loads(plain) == json.loads(pretty)


def test_tolerance_flag_applies(runner, tmp_path):
    pa = write_state(tmp_path / "s1.json", 0.8, 0, 0.1, 0.1,
                     0.5830951894845301, 0.0)
    pb = write_state(tmp_path / "s2.json", 0.79, 0, 0.11, 0.1,
                     math.sqrt(1 - 0.79**2 - 0.11**2 - 0.01), 0.0)
    assert runner.invoke(main, ["lu-equiv", pa, pb]).exit_code == 1
    assert runner.invoke(main, ["--tol-eq", "0.5", "lu-equiv", pa, pb]
                         ).exit_code == 0


def test_tolerance_flags_last_one_call(runner, ghz, w, tmp_path):
    saved = state_core.TOL
    res = runner.invoke(main, ["--tol-zero", "1e-3", "--tol-norm", "1e-3",
                               "--tol-eq", "0.5", "lu-equiv", ghz, w])
    assert res.exit_code == 1
    assert state_core.TOL is saved
    assert state_core.TOL == state_core.Tolerances(1e-9, 1e-9, 1e-8)
    # a command that fails restores them too
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    res = runner.invoke(main, ["--tol-eq", "0.5", "invariants", str(bad)])
    assert res.exit_code == 2
    assert state_core.TOL is saved


@pytest.mark.parametrize("flag", ["--tol-zero", "--tol-norm", "--tol-eq"])
@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
def test_bad_tolerance_flag_is_usage_error(runner, ghz, flag, value):
    res = runner.invoke(main, [flag, value, "invariants", ghz])
    assert res.exit_code == 2
    assert f"argument {flag}: must be finite and > 0" in res.stderr


def _json_round_trip(state):
    return state_core.state_from_dict(json.loads(json.dumps(state_core.state_to_dict(state))))


def test_tiny_tol_zero_profiles_every_w_state(runner, tmp_path, monkeypatch):
    # derived once refused a W state's own invariants when k5^2 - k_ap
    # rounded below -TOL.zero (seed 42 reads -1.4e-17): only the inversion
    # checks invariants from outside
    path = tmp_path / "w.json"
    path.write_text(json.dumps(state_core.state_to_dict(sampling.random_state("w_type", 42))))
    res = runner.invoke(main, ["--tol-zero", "1e-17", "invariants", str(path)])
    assert res.exit_code == 0, res.stderr
    assert json.loads(res.output)["class"] == "w_type"
    monkeypatch.setattr(state_core, "TOL", state_core.Tolerances(zero=1e-17))
    for seed in range(500):
        st = _json_round_trip(sampling.random_state("w_type", seed))
        assert triloc.profile(st).state_class.kind == "w_type", seed


def test_tiny_tol_norm_validates_or_profiles_every_haar_state(monkeypatch):
    # the coefficients' norm check once read 10 TOL.norm, so a state that
    # passed validation could fail inside its own decomposition
    monkeypatch.setattr(state_core, "TOL", state_core.Tolerances(norm=1e-17))
    refused = 0
    for seed in range(500):
        try:
            st = _json_round_trip(sampling.random_state("haar", seed))
        except state_core.NotNormalized:
            refused += 1
            continue
        triloc.profile(st)
    assert 0 < refused < 500


def test_tiny_tol_zero_splits_every_ghz_state(runner, tmp_path, monkeypatch):
    # the Gram's PSD check once read TOL.zero, so the library's own rank-1
    # splitting Grams (ab - k^2 rounding below -1e-17) were refused
    path = tmp_path / "ghz.json"
    path.write_text(json.dumps(state_core.state_to_dict(sampling.random_state("ghz_type", 1))))
    res = runner.invoke(main, ["--tol-zero", "1e-17", "synth-bisep", str(path)])
    assert res.exit_code == 0, res.stderr
    monkeypatch.setattr(state_core, "TOL", state_core.Tolerances(zero=1e-17))
    for seed in range(300):
        st = sampling.random_state("ghz_type", seed)
        assert transfer.verify_update(st, transfer.synth_bisep_measurement(st))["pass"], seed


def test_tiny_tol_norm_runs_the_librarys_own_measurements(monkeypatch):
    # measure once re-checked completeness against TOL.norm, so measurements
    # the library built itself, complete to 2.2e-16, were refused under 1e-17
    monkeypatch.setattr(state_core, "TOL", state_core.Tolerances(norm=1e-17))
    for seed in range(300):
        st = sampling.random_state("ghz_type", seed)
        assert transfer.verify_update(st, transfer.synth_bisep_measurement(st))["pass"], seed
        assert transfer.search_deterministic_measurement(st, st) is not None, seed


def test_tiny_tol_norm_verifies_the_lemmas(runner):
    res = runner.invoke(main, ["--tol-norm", "1e-17", "verify-lemmas", "--samples", "200"])
    assert res.exit_code == 0, res.output + res.stderr
    assert json.loads(res.output)["pass"] is True


def _incomplete_measurement(path):
    """A measurement file whose m0^dag m0 + m1^dag m1 is (1 + 1e-7) I."""
    s = math.sqrt(1.0 + 1e-7)
    meas = state_core.Measurement2(
        "A", [[s * math.sqrt(0.3), 0.0], [0.0, s * math.sqrt(0.6)]],
        [[s * math.sqrt(0.7), 0.0], [0.0, s * math.sqrt(0.4)]])
    path.write_text(json.dumps(state_core.measurement_to_dict(meas)))
    return str(path)


def test_measure_checks_completeness_where_the_measurement_enters(runner, tmp_path, charged):
    # measurement_from_dict holds the file to --tol-norm; past it, the
    # report shows the miss
    mpath = _incomplete_measurement(tmp_path / "meas.json")
    res = runner.invoke(main, ["measure", charged, mpath])
    assert res.exit_code == 2
    assert "operators miss completeness by 1.000e-07" in res.stderr
    res = runner.invoke(main, ["--tol-norm", "1e-6", "measure", charged, mpath])
    assert res.exit_code == 0, res.output + res.stderr
    assert abs(json.loads(res.output)["report"]["p_sum_deviation"] - 1e-7) < 1e-12


def test_measure_of_a_measurement_with_no_outcome(runner, tmp_path, charged):
    # the entry check refuses zero operators at the default --tol-norm;
    # past it, the prediction finds no outcome to report
    zero = [[0.0, 0.0], [0.0, 0.0]]
    mpath = tmp_path / "zero.json"
    mpath.write_text(json.dumps(state_core.measurement_to_dict(
        state_core.Measurement2("A", zero, zero))))
    res = runner.invoke(main, ["measure", charged, str(mpath)])
    assert res.exit_code == 2
    assert "operators miss completeness by 1.000e+00" in res.stderr
    res = runner.invoke(main, ["--tol-norm", "2", "measure", charged, str(mpath)])
    assert res.exit_code == 2
    assert "error: both outcomes have vanishing probability" in res.stderr


def test_measure_validates_its_measurement_once(runner, tmp_path, charged, monkeypatch):
    calls = []
    original = state_core.validate_measurement

    def counting(meas):
        calls.append(meas)
        return original(meas)

    monkeypatch.setattr(state_core, "validate_measurement", counting)
    mpath = tmp_path / "meas.json"
    mpath.write_text(json.dumps(state_core.measurement_to_dict(
        sampling.random_measurement(5, qubit="B"))))
    res = runner.invoke(main, ["measure", charged, str(mpath)])
    assert res.exit_code == 0, res.output + res.stderr
    assert len(calls) == 1


def test_negative_seed_is_usage_error_naming_the_flag(runner):
    res = runner.invoke(main, ["--seed", "-1", "random"])
    assert res.exit_code == 2
    assert res.output == ""
    assert "--seed" in res.stderr and "must be >= 0" in res.stderr


def test_error_message_prints_plain_floats(runner, tmp_path):
    unnorm = tmp_path / "unnorm.json"
    amps = [[0.0, 0.0]] * 8
    amps[0] = amps[7] = [0.9, 0.0]  # norm 0.9 sqrt(2)
    unnorm.write_text(json.dumps({"amplitudes": amps}))
    res = runner.invoke(main, ["invariants", str(unnorm)])
    assert res.exit_code == 2
    assert "state norm 1.27279220613578" in res.stderr
    assert "np.float64" not in res.stderr


COMMANDS = ("invariants", "lu-equiv", "locc-check", "random", "measure",
            "synth-bisep", "ghz-canonical", "verify-lemmas")


def test_help_names_every_command(runner):
    res = runner.invoke(main, ["--help"])
    assert res.exit_code == 0
    for cmd in COMMANDS:
        assert cmd in res.output
        assert runner.invoke(main, [cmd, "--help"]).exit_code == 0, cmd


@pytest.mark.parametrize("args", [["bogus"], [], ["invariants"],
                                  ["locc-check", "a.json"],
                                  ["random", "--kind", "bogus"],
                                  ["--seed", "x", "random"],
                                  ["verify-lemmas", "--samples", "0"],
                                  ["verify-lemmas", "--samples", "-5"],
                                  ["random", "--count", "0"]])
def test_usage_errors_exit_2(runner, args):
    res = runner.invoke(main, args)
    assert res.exit_code == 2
    assert res.output == ""


def _env():
    """The environment of a fresh interpreter that imports this checkout's
    triloc."""
    src_dir = os.path.dirname(os.path.dirname(triloc.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    return env


def _run_python(*args):
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=_env(), timeout=60)


def test_module_entry_point(ghz):
    res = _run_python("-m", "triloc.cli", "invariants", ghz)
    assert res.returncode == 0, res.stderr
    data = json.loads(res.stdout)
    assert data["class"] == "ghz_type"
    assert abs(data["c_params"]["tau"] - 1.0) < 1e-12


@pytest.mark.parametrize("package", ["scipy", "numpy", "click", "dataclasses", "inspect"])
def test_import_loads_no(package):
    res = _run_python("-c", "import sys, triloc, triloc.cli; print(sorted("
                      f"m for m in sys.modules if m.split('.')[0] == {package!r}))")
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


# runs the triloc command on ARGS, as an installed console script does, after
# registering an exit hook that writes the loaded numpy and triloc modules to
# stderr as its last line
_REPORT_MODULES = (
    "import atexit, json, sys\n"
    "atexit.register(lambda: print(json.dumps(sorted(m for m in sys.modules\n"
    "    if m.split('.')[0] in ('numpy', 'triloc'))), file=sys.stderr))\n"
    "from triloc.cli import main\n"
    "main()\n")


def _subcommands():
    """The names of the positional arguments of each triloc subcommand."""
    parser = cli._parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: [a.dest for a in p._actions if not a.option_strings]
            for name, p in sub.choices.items()}


# the triloc modules each command loads beyond the package, cli, state_core
# and invariants; the commands that sample load numpy with triloc.sampling
EXTRA_MODULES = {"invariants": (), "lu-equiv": (), "locc-check": ("locc",),
                 "ghz-canonical": ("locc",), "measure": ("transfer",),
                 "synth-bisep": ("transfer",), "random": ("sampling",),
                 "verify-lemmas": ("sampling", "transfer")}


@pytest.mark.parametrize("command", sorted(_subcommands()))
def test_numpy_audit(tmp_path, ghz, w, command):
    # every command runs cold on its positionals (a measurement file for the
    # measurement, states otherwise) and loads only the triloc modules it
    # runs; only the sampling ones load numpy, and the hook sees it there
    meas = tmp_path / "meas.json"
    meas.write_text(json.dumps(state_core.measurement_to_dict(
        sampling.random_measurement(5, qubit="A"))))
    states = iter([ghz, w])
    args = [str(meas) if dest == "measurement_path" else next(states)
            for dest in _subcommands()[command]]
    res = _run_python("-c", _REPORT_MODULES, command, *args)
    assert res.returncode in (0, 1), res.stderr
    json.loads(res.stdout.splitlines()[0])
    loaded = json.loads(res.stderr.splitlines()[-1])
    modules = ("cli", "invariants", "state_core", *EXTRA_MODULES[command])
    assert [m for m in loaded if m.startswith("triloc")] == sorted(
        ["triloc", *(f"triloc.{m}" for m in modules)])
    numpy = [m for m in loaded if m.split(".")[0] == "numpy"]
    assert bool(numpy) == ("sampling" in modules)


def test_closed_pipe_exits_quietly():
    # the reader takes one line and closes the pipe while triloc still writes
    # leaving the block closes both pipes, so no unclosed file is left
    with subprocess.Popen([sys.executable, "-m", "triloc.cli", "random", "--count", "2000"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env()) as proc:
        try:
            json.loads(proc.stdout.readline())
            proc.stdout.close()
            err = proc.stderr.read().decode()
            status = proc.wait(timeout=60)
        finally:
            proc.kill()
    assert "Traceback" not in err, err
    assert status == cli.BROKEN_PIPE
