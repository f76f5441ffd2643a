"""Reproducible random states and measurements.

The samplers draw from numpy's default generator, seeded by the caller, so
the same (kind, seed) or seed always gives the same state or measurement.
This is the one triloc module that imports numpy when it loads; the kinds
random_state accepts, RANDOM_KINDS, live in state_core so that the CLI
parser can offer them without loading this module.
"""

import math

import numpy as np

from .state_core import (RANDOM_KINDS, GramParams, Measurement2, PureState3,
                         SchmidtCoeffs, _local_product, _max_k,
                         measurement_from_grams, permute_qubits,
                         state_from_schmidt)


def haar_unitary(rng):
    """Haar-random 2 x 2 unitary (QR of a complex Gaussian matrix)."""
    z = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _random_qubit(rng):
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return v / np.linalg.norm(v)


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
        amps = state_from_schmidt(SchmidtCoeffs(*lams, phi)).amps
    elif kind == "w_type":
        x = np.concatenate([[rng.uniform(0.0, 0.6)], rng.uniform(0.25, 1.0, 3)])
        x0, x1, x2, x3 = (x / np.linalg.norm(x)).tolist()
        amps = (x0, x3, x2, 0.0, x1, 0.0, 0.0, 0.0)  # x0|000> + x1|100> + x2|010> + x3|001>
    elif kind.startswith("biseparable_"):
        th = rng.uniform(0.15, math.pi / 4)
        pair = (math.cos(th), 0.0, 0.0, math.sin(th))
        lone = _random_qubit(rng).tolist()
        order = {"ab": "ABC", "ac": "ACB", "bc": "CAB"}[kind[-2:]]
        amps = permute_qubits(PureState3([p * z for p in pair for z in lone]), order).amps
    else:  # full_separable
        qa, qb, qc = (_random_qubit(rng).tolist() for _ in range(3))
        amps = [x * y * z for x in qa for y in qb for z in qc]
    scramble = (haar_unitary(rng).tolist() for _ in range(3))
    return PureState3(_local_product(amps, *scramble))


def random_measurement(seed, qubit="A"):
    """Deterministic random two-outcome measurement (Gram square roots twisted
    by Haar-random unitaries, so the operators are generally non-Hermitian)."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.05, 0.95)
    b = rng.uniform(0.05, 0.95)
    k = rng.uniform(0.0, 1.0) * _max_k(a, b)
    theta = rng.uniform(0.0, 2 * math.pi)
    base = measurement_from_grams(GramParams(a, b, k, theta))
    # numpy's product, not a scalar 2x2 one: the two round differently in
    # the last bits, and every seeded measurement would move
    return Measurement2(qubit, haar_unitary(rng) @ base.m0, haar_unitary(rng) @ base.m1)
