"""Independent references for the answer checks, batched over states.

They work on raw amplitude vectors with textbook constructions and share
no code with the normal-form formulas under test.  The pair concurrence
uses Wootters' rank-2 recipe: for a pure three-qubit state the reduced
pair state is spanned by the two slices psi_0, psi_1 of the third qubit,
and C = s_max - s_min for the singular values s of the 2x2 matrix
psi_i^T (sigma_y x sigma_y) psi_j.  Singular values carry absolute error
~1e-16, so a near-zero concurrence is resolved far below the 1e-8 check,
which the square root of a noisy eigenvalue of rho * rho_tilde is not.
"""

import numpy as np

_YY = np.kron(np.array([[0.0, -1.0j], [1.0j, 0.0]]),
              np.array([[0.0, -1.0j], [1.0j, 0.0]]))

# axis order that puts the named pair first and the traced-out qubit last
_PAIR_AXES = {"AB": (0, 1, 2, 3), "AC": (0, 1, 3, 2), "BC": (0, 2, 3, 1)}


def concurrences(amps):
    """(N, 3) array of the AB, AC and BC concurrences of (N, 8) amplitudes."""
    t = np.asarray(amps, dtype=complex).reshape(-1, 2, 2, 2)
    out = np.empty((t.shape[0], 3))
    for col, pair in enumerate(("AB", "AC", "BC")):
        psi = t.transpose(_PAIR_AXES[pair]).reshape(-1, 4, 2)
        pre = np.einsum("nia,ij,njb->nab", psi, _YY, psi)
        s = np.linalg.svd(pre, compute_uv=False)
        out[:, col] = s[:, 0] - s[:, 1]
    return out


def tangles(amps):
    """(N,) three-tangle, 4 |Cayley hyperdeterminant| of the amplitudes."""
    a = np.asarray(amps, dtype=complex).reshape(-1, 8).T
    d1 = a[0]**2 * a[7]**2 + a[1]**2 * a[6]**2 + a[2]**2 * a[5]**2 + a[3]**2 * a[4]**2
    d2 = (a[0] * a[7] * a[3] * a[4] + a[0] * a[7] * a[5] * a[2]
          + a[0] * a[7] * a[6] * a[1] + a[3] * a[4] * a[5] * a[2]
          + a[3] * a[4] * a[6] * a[1] + a[5] * a[2] * a[6] * a[1])
    d3 = a[0] * a[6] * a[5] * a[3] + a[7] * a[1] * a[2] * a[4]
    return 4.0 * np.abs(d1 - 2.0 * d2 + 4.0 * d3)


def invariants(amps):
    """(N, 4) array of c_ab, c_ac, c_bc and tau."""
    return np.column_stack([concurrences(amps), tangles(amps)])


def apply_on_a(amps, m):
    """Outcome of the 2x2 operator m on qubit A: (normalized amplitudes, p)."""
    out = (np.asarray(m) @ np.asarray(amps).reshape(2, 4)).reshape(8)
    p = float(np.vdot(out, out).real)
    return out / np.sqrt(p), p
