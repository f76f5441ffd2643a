"""Independent reference implementations used to cross-check the library.

Everything here works on raw 8-component state vectors with textbook
constructions (density matrices, Wootters' rank-2 spin-flip recipe,
the degree-4 hyperdeterminant), deliberately avoiding the normal-form
formulas under test.
"""

import numpy as np

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])


def density(vec):
    vec = np.asarray(vec, dtype=complex).reshape(8)
    return np.outer(vec, vec.conj())


def _pair_singular_values(vec, pair):
    """Singular values s_max >= s_min of Wootters' 2x2 matrix
    psi_i^T (sigma_y x sigma_y) psi_j of the named pair ("AB"/"AC"/"BC"),
    psi_0, psi_1 the slices of the third qubit, which span the reduced pair
    state.  Singular values carry an absolute error of ~1e-16, where the
    square roots of the eigenvalues of rho * rho_tilde would carry ~1e-8.
    """
    t = np.asarray(vec, dtype=complex).reshape(2, 2, 2)
    if pair == "AB":
        m = t.reshape(4, 2)
    elif pair == "AC":
        m = np.transpose(t, (0, 2, 1)).reshape(4, 2)
    elif pair == "BC":
        m = np.transpose(t, (1, 2, 0)).reshape(4, 2)
    else:
        raise ValueError(pair)
    return np.linalg.svd(m.T @ np.kron(SIGMA_Y, SIGMA_Y) @ m, compute_uv=False)


def pair_concurrence(vec, pair):
    """Concurrence of the named pair, Wootters' rank-2 recipe: s_max - s_min."""
    s = _pair_singular_values(vec, pair)
    return s[0] - s[1]


def pair_residue_root(vec, pair):
    """sqrt(k_xy) = sqrt(c_xy^2 + tau) of the named pair as s_max + s_min.

    The product s_max s_min is |det| of Wootters' matrix, which is the
    hyperdeterminant up to sign, so (s_max + s_min)^2 = c^2 + 4 s_max s_min
    = c^2 + tau.  The sum keeps the singular values' absolute error, where
    the square root of c^2 + tau magnifies the tangle's by 1 / (2 sqrt(k)).
    """
    s = _pair_singular_values(vec, pair)
    return s[0] + s[1]


def hyperdeterminant_tangle(vec):
    """Three-tangle as 4 |Cayley hyperdeterminant| of the amplitude tensor."""
    a = np.asarray(vec, dtype=complex).reshape(8)
    d1 = (a[0] ** 2 * a[7] ** 2 + a[1] ** 2 * a[6] ** 2
          + a[2] ** 2 * a[5] ** 2 + a[3] ** 2 * a[4] ** 2)
    d2 = (a[0] * a[7] * a[3] * a[4] + a[0] * a[7] * a[5] * a[2]
          + a[0] * a[7] * a[6] * a[1] + a[3] * a[4] * a[5] * a[2]
          + a[3] * a[4] * a[6] * a[1] + a[5] * a[2] * a[6] * a[1])
    d3 = a[0] * a[6] * a[5] * a[3] + a[7] * a[1] * a[2] * a[4]
    return 4.0 * abs(d1 - 2.0 * d2 + 4.0 * d3)


def one_tangle(vec, qubit):
    """4 det of the single-qubit reduced density matrix."""
    t = np.asarray(vec, dtype=complex).reshape(2, 2, 2)
    axis = "ABC".index(qubit)
    m = np.moveaxis(t, axis, 0).reshape(2, 4)
    rho = m @ m.conj().T
    return 4.0 * np.linalg.det(rho).real


def fifth_invariant(vec):
    """j5 from Kempe's invariant I5 = 3 Re tr[(rho_A ⊗ rho_B) rho_AB] -
    tr rho_A^3 - tr rho_B^3, the one-qubit purities and the tangle:
    j5 = 5/3 - (tr rho_A^2 + tr rho_B^2 + tr rho_C^2) + (4/3) I5 - tau / 2."""
    t = np.asarray(vec, dtype=complex).reshape(2, 2, 2)
    rho_ab = np.einsum("abc,dec->abde", t, t.conj()).reshape(4, 4)
    rho_a = np.einsum("abc,dbc->ad", t, t.conj())
    rho_b = np.einsum("abc,adc->bd", t, t.conj())
    rho_c = np.einsum("abc,abd->cd", t, t.conj())
    purity = sum(np.trace(r @ r).real for r in (rho_a, rho_b, rho_c))
    i5 = (3.0 * np.trace(np.kron(rho_a, rho_b) @ rho_ab).real
          - np.trace(rho_a @ rho_a @ rho_a).real - np.trace(rho_b @ rho_b @ rho_b).real)
    return 5.0 / 3.0 - purity + 4.0 / 3.0 * i5 - hyperdeterminant_tangle(vec) / 2.0
