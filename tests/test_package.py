"""The package namespace: each exported name resolves from triloc to the
object of its home module, on first access; and three scans of the
library's source."""

import ast
import os
import pathlib
import re
import subprocess
import sys
import tokenize

import pytest

import triloc
from triloc import invariants, locc, sampling, state_core, transfer

# the package's export list, by home module
EXPORTS = {
    invariants: ("CParams", "Derived", "Inconsistent", "KParams", "StateClass",
                 "StateProfile", "c_params", "classify", "coeffs_from_invariants",
                 "derived", "ep_phase", "k_params", "lu_equivalent", "profile"),
    locc: ("GhzCanonical", "LoccVerdict", "NotFeasible", "NotGhzType", "NotWType",
           "WCoords", "ZetaWitness", "dlocc_feasible", "ghz_canonical", "ghz_oracle",
           "min_measurements", "ns_params", "w_coords"),
    sampling: ("haar_unitary", "random_measurement", "random_state"),
    state_core: ("DecompositionFailed", "GramParams", "IncompleteMeasurement",
                 "Measurement2", "NonFinite", "NotNormalized", "PureState3",
                 "SchmidtCoeffs", "apply_local_unitaries", "complex_conjugate",
                 "measure", "measurement_from_dict", "measurement_from_grams",
                 "measurement_to_dict", "permute_qubits", "schmidt_decompose",
                 "state_from_dict", "state_from_schmidt", "state_to_dict",
                 "validate_measurement", "validate_state"),
    transfer: ("DegenerateInput", "OutcomePrediction", "TransferParams",
               "ZeroProbability", "alpha_average", "lemma2_bounds", "lemma4_check",
               "predict_update", "search_deterministic_measurement",
               "synth_bisep_measurement", "transfer_rule", "verify_update"),
}
SUBMODULES = {m.__name__.split(".")[1]: m for m in EXPORTS}
NAMES = [(m, name) for m, names in EXPORTS.items() for name in names]


def test_names_resolve_to_their_home_objects():
    wrong = [name for home, name in NAMES if getattr(triloc, name) is not getattr(home, name)]
    assert not wrong


def test_submodules_are_attributes():
    for name, module in SUBMODULES.items():
        assert getattr(triloc, name) is module


def test_all_and_dir_list_the_exports():
    exported = sorted([*SUBMODULES, *(name for _, name in NAMES)])
    assert sorted(triloc.__all__) == exported
    assert sorted(dir(triloc)) == exported


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'bogus'"):
        triloc.bogus
    assert not hasattr(triloc, "bogus")


def test_star_import_binds_all():
    namespace = {}
    exec("from triloc import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(triloc.__all__)


def test_import_loads_no_submodule():
    code = ("import sys, triloc; triloc.profile; "
            "print(sorted(m for m in sys.modules if m.startswith('triloc')))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        os.path.dirname(os.path.dirname(triloc.__file__)), env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == str(["triloc", "triloc.invariants", "triloc.state_core"])


# literal thresholds written as 1e-N in the library, one role each:
# - the three defaults of Tolerances (state_core), the user's tolerances,
#   one per CLI flag;
# - _RECON_BUDGET (state_core), the reconstruction error of an accepted
#   decomposition;
# - _SLACK (state_core), the range slack of the value types and the tie of
#   two equal residuals;
# - _NEGLIGIBLE (state_core), a normal-form coefficient, or a quantity made
#   of them, that is rounding noise; ten times it bounds the rounding of
#   SchmidtCoeffs' norm;
# - _snap_det's relative factor (state_core), a difference of terms that
#   cancels to rounding, which every determinant test goes through, GramParams'
#   positive-semidefiniteness included;
# - the pencil floor guard (state_core), pencil coefficients that are all noise
MAX_LITERAL_THRESHOLDS = 8


def test_literal_thresholds_do_not_grow():
    counts = {}
    for path in sorted(pathlib.Path(triloc.__file__).parent.glob("*.py")):
        with open(path, "rb") as f:
            n = sum(tok.type == tokenize.NUMBER and bool(re.fullmatch(r"1e-\d+", tok.string))
                    for tok in tokenize.tokenize(f.readline))
        if n:
            counts[path.name] = n
    assert sum(counts.values()) <= MAX_LITERAL_THRESHOLDS, counts


# outside data is checked once, where it enters: each entry check is used by
# its JSON reader and by no other library code
ENTRY_CHECKS = {"validate_measurement": "measurement_from_dict",
                "validate_state": "state_from_dict"}


class _Uses(ast.NodeVisitor):
    """(innermost enclosing function, key) of every node for which key(node)
    is not None."""

    def __init__(self, key):
        self.key, self.scope, self.uses = key, [None], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def generic_visit(self, node):
        key = self.key(node)
        if key is not None:
            self.uses.append((self.scope[-1], key))
        super().generic_visit(node)


def _library_uses(key):
    """(module, innermost enclosing function, key) of every node of the
    library's source for which key(node) is not None."""
    uses = []
    for path in sorted(pathlib.Path(triloc.__file__).parent.glob("*.py")):
        found = _Uses(key)
        found.visit(ast.parse(path.read_text(), filename=str(path)))
        uses += [(path.stem, *use) for use in found.uses]
    return sorted(uses)


def _entry_check(node):
    name = (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute) else None)
    return name if name in ENTRY_CHECKS else None


def test_entry_checks_run_only_in_their_json_readers():
    uses = [(fn, check) for _, fn, check in _library_uses(_entry_check)]
    assert sorted(uses) == sorted((reader, check) for check, reader in ENTRY_CHECKS.items())


# the functions that read a user tolerance, with the field they read.
# invariants alone decides that an invariant vanishes, and locc and
# transfer read that decision from it; outside invariants TOL.zero decides
# a probability (state_core.measure, transfer._predict_one), the oracle's
# unit circle (locc.ns_params), and the CLI's flag default and
# verify-lemmas' gate.  A new reader has to be added here
TOL_READERS = [
    ("cli", "_parser", "eq"), ("cli", "_parser", "norm"), ("cli", "_parser", "zero"),
    ("cli", "verify_lemmas", "zero"),
    ("invariants", "_classify", "zero"), ("invariants", "_entangled_pairs", "zero"),
    ("invariants", "_verified", "eq"), ("invariants", "coeffs_from_invariants", "eq"),
    ("invariants", "coeffs_from_invariants", "zero"),
    ("invariants", "invariant_kernel", "zero"),
    ("invariants", "lu_equivalent_profiles", "eq"),
    ("locc", "dlocc_feasible_profiles", "eq"), ("locc", "ghz_oracle", "eq"),
    ("locc", "ns_params", "zero"),
    ("state_core", "measure", "zero"), ("state_core", "validate_measurement", "norm"),
    ("state_core", "validate_state", "norm"),
    ("transfer", "_predict_one", "zero"), ("transfer", "_step_gram", "eq"),
    ("transfer", "_two_term_gram", "eq"), ("transfer", "verify_update", "eq"),
]


def _tol_field(node):
    """The field of a read of TOL.zero, TOL.norm or TOL.eq, bare or as
    state_core.TOL."""
    if not (isinstance(node, ast.Attribute) and node.attr in state_core.Tolerances._fields):
        return None
    v = node.value
    named_tol = ((isinstance(v, ast.Name) and v.id == "TOL")
                 or (isinstance(v, ast.Attribute) and v.attr == "TOL"))
    return node.attr if named_tol else None


def test_tolerance_readers_are_the_listed_ones():
    assert sorted(set(_library_uses(_tol_field))) == sorted(TOL_READERS)
