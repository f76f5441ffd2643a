"""Entanglement invariants, local-unitary equivalence, and deterministic
LOCC transformability of three-qubit pure states."""

from .invariants import (
    CParams,
    Derived,
    Inconsistent,
    KParams,
    NegativeDiscriminant,
    StateClass,
    StateProfile,
    c_params,
    classify,
    coeffs_from_invariants,
    derived,
    ep_phase,
    k_params,
    lu_equivalent,
    profile,
    q_e,
)
from .locc import (
    GhzCanonical,
    LoccVerdict,
    NotFeasible,
    NotGhzType,
    NotWType,
    WCoords,
    ZetaWitness,
    dlocc_feasible,
    ghz_canonical,
    ghz_oracle,
    min_measurements,
    ns_params,
    w_coords,
)
from .state_core import (
    DecompositionFailed,
    GramParams,
    IncompleteMeasurement,
    Measurement2,
    NonFinite,
    NotNormalized,
    PureState3,
    SchmidtCoeffs,
    apply_local_unitaries,
    complex_conjugate,
    haar_unitary,
    measure,
    measurement_from_dict,
    measurement_from_grams,
    measurement_to_dict,
    permute_qubits,
    random_measurement,
    random_state,
    schmidt_decompose,
    state_from_dict,
    state_from_schmidt,
    state_to_dict,
    validate_measurement,
    validate_state,
)
# transfer works on ndarray measurements and unitaries, so it is imported on
# first use of any of its names (PEP 562) and the scalar commands never load it
_TRANSFER_NAMES = (
    "DegenerateInput",
    "OutcomePrediction",
    "TransferParams",
    "ZeroProbability",
    "alpha_average",
    "lemma2_bounds",
    "lemma4_check",
    "predict_update",
    "search_deterministic_measurement",
    "synth_bisep_measurement",
    "transfer_rule",
    "verify_update",
)


def __getattr__(name):
    if name == "transfer" or name in _TRANSFER_NAMES:
        import importlib
        transfer = importlib.import_module(".transfer", __name__)
        return transfer if name == "transfer" else getattr(transfer, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted([*globals(), "transfer", *_TRANSFER_NAMES])


__version__ = "0.1.0"
