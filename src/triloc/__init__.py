"""Entanglement invariants, local-unitary equivalence, and deterministic
LOCC transformability of three-qubit pure states.

Every exported name is imported from its home module on first access
(PEP 562), so `import triloc` compiles no submodule, and a CLI command
loads only the modules it runs.  A resolved name is then an ordinary
attribute of the package.
"""

from importlib import import_module

__version__ = "0.1.0"

# the exported names of each submodule
_EXPORTS = {
    "invariants": (
        "CParams", "Derived", "Inconsistent", "KParams", "StateClass",
        "StateProfile", "c_params", "classify", "coeffs_from_invariants",
        "derived", "ep_phase", "k_params", "lu_equivalent", "profile"),
    "locc": (
        "GhzCanonical", "LoccVerdict", "NotFeasible", "NotGhzType", "NotWType",
        "WCoords", "ZetaWitness", "dlocc_feasible", "ghz_canonical",
        "ghz_oracle", "min_measurements", "ns_params", "w_coords"),
    "sampling": (
        "haar_unitary", "random_measurement", "random_state"),
    "state_core": (
        "DecompositionFailed", "GramParams", "IncompleteMeasurement",
        "Measurement2", "NonFinite", "NotNormalized", "PureState3",
        "SchmidtCoeffs", "apply_local_unitaries", "complex_conjugate",
        "measure", "measurement_from_dict", "measurement_from_grams",
        "measurement_to_dict", "permute_qubits", "schmidt_decompose",
        "state_from_dict", "state_from_schmidt", "state_to_dict",
        "validate_measurement", "validate_state"),
    "transfer": (
        "DegenerateInput", "OutcomePrediction", "TransferParams",
        "ZeroProbability", "alpha_average", "lemma2_bounds", "lemma4_check",
        "predict_update", "search_deterministic_measurement",
        "synth_bisep_measurement", "transfer_rule", "verify_update"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name):
    if name in _EXPORTS:
        # importing a submodule binds it on the package
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return list(__all__)
