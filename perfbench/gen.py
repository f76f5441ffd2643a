"""Input generators, built only from the public triloc API.

Every generator takes a numpy Generator seeded from the benchmark's --seed,
so the same seed gives the same states, pairs and measurements.  Rejection
loops (a draw whose invariants no pure state realizes) consume the same
generator and are therefore deterministic too.
"""

import math

import numpy as np

import triloc

KINDS = triloc.state_core.RANDOM_KINDS
THRESHOLD_KINDS = ("real_phase", "vanishing_coeff", "double_root", "near_product")


def sub_seed(rng):
    return int(rng.integers(0, 2**62))


def scramble(state, rng):
    """Apply Haar-random local unitaries (keeps every invariant)."""
    return triloc.apply_local_unitaries(
        state, triloc.haar_unitary(rng), triloc.haar_unitary(rng),
        triloc.haar_unitary(rng))


def _lams(rng, lo=0.15):
    lams = rng.uniform(lo, 1.0, 5)
    return lams / np.linalg.norm(lams)


def real_phase(rng, phi):
    """Tangled state whose normal form has phase phi in {0, pi}."""
    return scramble(triloc.state_from_schmidt(triloc.SchmidtCoeffs(*_lams(rng), phi)), rng)


def vanishing_coeff(rng, slot):
    """State whose normal-form coefficient l_slot is exactly zero."""
    lams = _lams(rng)
    lams[slot] = 0.0
    lams /= np.linalg.norm(lams)
    return scramble(triloc.state_from_schmidt(triloc.SchmidtCoeffs(*lams, 0.0)), rng)


def double_root(rng):
    """Tangled state on the double-root surface delta_J = 0 (charge 0).

    The fifth invariant of a random normal form is replaced by the value
    that closes the discriminant, and the coefficients come back from
    coeffs_from_invariants.
    """
    while True:
        lams = _lams(rng, lo=0.3)
        c = triloc.c_params(triloc.SchmidtCoeffs(*lams, rng.uniform(0.0, math.pi)))
        k_ap = (c.c_ab**2 + c.tau) * (c.c_ac**2 + c.tau) * (c.c_bc**2 + c.tau)
        j5 = math.sqrt(k_ap) - c.tau
        if abs(j5) >= c.c_ab * c.c_ac * c.c_bc:
            continue
        try:
            cands = triloc.coeffs_from_invariants(
                triloc.CParams(c.c_ab, c.c_ac, c.c_bc, c.tau, j5), 0)
        except ValueError:
            continue
        return scramble(triloc.state_from_schmidt(cands[0]), rng)


def near_product(rng, eps):
    """Product state plus a Haar-random admixture of weight eps."""
    prod = triloc.random_state("full_separable", sub_seed(rng)).amplitudes
    noise = triloc.random_state("haar", sub_seed(rng)).amplitudes
    amps = prod + eps * noise
    return triloc.PureState3(amps / np.linalg.norm(amps))


def stream_state(rng, i):
    """State i of the profile stream: the seven random kinds, then the four
    threshold families, in equal shares; variants rotate within a family."""
    families = KINDS + THRESHOLD_KINDS
    fam = families[i % len(families)]
    turn = i // len(families)
    if fam in KINDS:
        return fam, triloc.random_state(fam, sub_seed(rng))
    if fam == "real_phase":
        return fam, real_phase(rng, (0.0, math.pi)[turn % 2])
    if fam == "vanishing_coeff":
        return fam, vanishing_coeff(rng, turn % 5)
    if fam == "double_root":
        return fam, double_root(rng)
    return fam, near_product(rng, 10.0 ** -(2 + turn % 4))


# ---------------------------------------------------------------------------
# LOCC pairs


def scaled_destination(prof, za, zb, zc, z, q):
    """State whose pair residues are the source's scaled by (z, za, zb, zc),
    or None when no pure state carries the scaled invariants with charge q.
    """
    k = prof.k
    kp_ab = z * za * zb * k.k_ab
    kp_ac = z * za * zc * k.k_ac
    kp_bc = z * zb * zc * k.k_bc
    f = z * za * zb * zc
    tau, j5 = f * prof.c.tau, f * prof.c.j5
    c = triloc.CParams(math.sqrt(max(kp_ab - tau, 0.0)),
                       math.sqrt(max(kp_ac - tau, 0.0)),
                       math.sqrt(max(kp_bc - tau, 0.0)), tau, j5)
    try:
        cands = triloc.coeffs_from_invariants(c, q)
    except ValueError:
        return None
    return triloc.state_from_schmidt(cands[0])


def _ktil(prof, za, zb, zc):
    return ((prof.k.k_ab - zc * prof.c.tau) * (prof.k.k_ac - zb * prof.c.tau)
            * (prof.k.k_bc - za * prof.c.tau))


def zeta_tilde(prof, za, zb, zc):
    """The collective factor a zeta-tilde-definite source must use."""
    d = prof.derived
    gap = max(d.j_ap - prof.c.j5**2, 0.0)
    return ((d.k_ap * gap + d.delta_j * d.j_ap)
            / (d.k_ap * gap + d.delta_j * _ktil(prof, za, zb, zc)))


def zeta_lower(prof, za, zb, zc):
    if prof.derived.j_ap <= 1e-9:
        return 0.0
    return prof.derived.j_ap / _ktil(prof, za, zb, zc)


def real_weight_ghz(rng):
    """Tangled state u1 u2 u3 +- v1 v2 v3 with real overlaps and weight: all
    concurrences nonzero but the distinguished factor indefinite."""
    while True:
        terms = []
        for _ in range(3):
            u, v = (rng.normal(size=2) + 1j * rng.normal(size=2) for _ in range(2))
            u, v = u / np.linalg.norm(u), v / np.linalg.norm(v)
            ov = np.vdot(u, v)
            if not 0.1 < abs(ov) < 0.9:
                break
            terms.append((u, v * (ov.conjugate() / abs(ov))))
        if len(terms) != 3:
            continue
        t0 = np.kron(np.kron(terms[0][0], terms[1][0]), terms[2][0])
        t1 = np.kron(np.kron(terms[0][1], terms[1][1]), terms[2][1])
        amps = t0 + rng.choice([-1.0, 1.0]) * t1
        st = triloc.PureState3(amps / np.linalg.norm(amps))
        p = triloc.profile(st)
        if (p.state_class.ep_definite and not p.state_class.zeta_tilde_definite
                and min(p.c.c_ab, p.c.c_ac, p.c.c_bc) > 0.05):
            return st, p


def zt_definite_ghz(rng):
    """Random tangled state with every concurrence above 0.05 and charge +-1."""
    while True:
        st = triloc.random_state("ghz_type", sub_seed(rng))
        p = triloc.profile(st)
        if (p.state_class.ep_definite and p.state_class.zeta_tilde_definite
                and p.q_e != 0 and min(p.c.c_ab, p.c.c_ac, p.c.c_bc) > 0.05):
            return st, p


def indefinite_ghz(rng):
    """Tangled state with c_ab = 0 (normal-form l3 = 0): concurrence-indefinite."""
    lams = _lams(rng, lo=0.3)
    lams[3] = 0.0
    lams /= np.linalg.norm(lams)
    st = scramble(triloc.state_from_schmidt(triloc.SchmidtCoeffs(*lams, 0.0)), rng)
    return st, triloc.profile(st)


def bisep_target(rng, prof, top):
    """Biseparable target on a random pair whose concurrence is a share of
    the largest reachable value sqrt(top(pair))."""
    pair = ("AB", "AC", "BC")[int(rng.integers(3))]
    cmax = math.sqrt(min(top(prof, pair), 1.0))
    value = rng.uniform(0.3, 0.9) * cmax
    cs = {p: (value if p == pair else 0.0) for p in ("AB", "AC", "BC")}
    c = triloc.CParams(cs["AB"], cs["AC"], cs["BC"], 0.0, 0.0)
    return scramble(triloc.state_from_schmidt(triloc.coeffs_from_invariants(c, 0)[0]), rng)


def _k_pair(prof, pair):
    return {"AB": prof.k.k_ab, "AC": prof.k.k_ac, "BC": prof.k.k_bc}[pair]


def _c_pair_sq(prof, pair):
    return {"AB": prof.c.c_ab, "AC": prof.c.c_ac, "BC": prof.c.c_bc}[pair] ** 2


MARGIN = 1e-3
SOURCE_KINDS = ("zt_definite", "real_weight", "c_indefinite", "w_type")
TARGET_KINDS = ("on_surface", "off_surface", "conjugate", "bisep", "tangle_free", "random")


TRIES = 20


def _tangled_targets(rng, src_kind, prof):
    """(on-surface, off-surface) targets of a tangled source, or None when
    TRIES draws of the contraction factors realize no pair."""
    for _ in range(TRIES):
        za, zb, zc = rng.uniform(0.6, 0.95, 3)
        if src_kind == "zt_definite":
            z, q = zeta_tilde(prof, za, zb, zc), prof.q_e
            # z = 1 is the edge of the feasible set; within rounding of it the
            # verdict and ghz_oracle may each go either way
            if not MARGIN < z <= 1.0 - MARGIN:
                continue
            on = scaled_destination(prof, za, zb, zc, z, q)
            # the collective factor moves off the unique admissible value
            off = scaled_destination(prof, za, zb, zc, z * (1.0 - MARGIN), q)
        else:
            if src_kind == "c_indefinite":
                zc = 1.0  # keeps c_ab = 0, so the target stays indefinite too
                q = 0
            else:
                q = int(rng.choice([-1, 1]))
            zl = zeta_lower(prof, za, zb, zc)
            z = rng.uniform(zl + 0.2 * (1.0 - zl), 1.0 - 0.1 * (1.0 - zl))
            on = scaled_destination(prof, za, zb, zc, z, q)
            # one per-qubit factor exceeds 1: the first condition fails
            off = scaled_destination(prof, 1.0 + MARGIN, zb, zc, z, q)
        if on is not None and off is not None:
            return scramble(on, rng), scramble(off, rng)
    return None


def _w_targets(rng, prof):
    """Scaled-down W target and one pushed past the source on qubit A, or
    None when TRIES draws realize no pair."""
    x = np.array(triloc.w_coords(prof.c).as_tuple())
    for _ in range(TRIES):
        r = rng.uniform(0.6, 0.95, 3)
        out = []
        for x1, x2, x3 in (x * r, x * np.array([1.0 + MARGIN, r[1], r[2]])):
            cab, cac, cbc = 2 * x1 * x2, 2 * x1 * x3, 2 * x2 * x3
            # tangle-free states sit on delta_J = 0, which fixes j5
            c = triloc.CParams(cab, cac, cbc, 0.0, cab * cac * cbc)
            try:
                out.append(scramble(triloc.state_from_schmidt(
                    triloc.coeffs_from_invariants(c, 0)[0]), rng))
            except ValueError:
                break
        if len(out) == 2:
            return tuple(out)
    return None


def _source(rng, kind):
    if kind == "zt_definite":
        return zt_definite_ghz(rng)
    if kind == "real_weight":
        src, prof = real_weight_ghz(rng)
        return scramble(src, rng), prof
    if kind == "c_indefinite":
        return indefinite_ghz(rng)
    src = triloc.random_state("w_type", sub_seed(rng))
    return src, triloc.profile(src)


def locc_block(rng, j):
    """Source j with its six destinations: [(src_kind, tgt_kind, src, dst,
    expected feasible, expected min_measurements or None)]."""
    src_kind = SOURCE_KINDS[j % len(SOURCE_KINDS)]
    tangled = src_kind != "w_type"
    targets = None
    while targets is None:
        src, prof = _source(rng, src_kind)
        targets = (_tangled_targets(rng, src_kind, prof) if tangled
                   else _w_targets(rng, prof))
    on, off = targets
    if tangled:
        bisep = bisep_target(rng, prof, _k_pair)
        # a zero-tangle target with three concurrences needs a vanishing factor
        tangle_free, tf_label = triloc.random_state("w_type", sub_seed(rng)), (False, None)
        rnd = triloc.random_state("haar", sub_seed(rng))
    else:
        bisep = bisep_target(rng, prof, _c_pair_sq)
        tangle_free, tf_label = triloc.random_state("full_separable", sub_seed(rng)), (True, 2)
        rnd = triloc.random_state("ghz_type", sub_seed(rng))
    # conjugation flips a nonzero charge, which a zeta-tilde-definite source
    # must match; the other sources reach both charges or carry none
    conj = (False, None) if src_kind == "zt_definite" else (True, 3)
    labels = [(True, 3), (False, None), conj, (True, 2), tf_label, (False, None)]
    dsts = [on, off, triloc.complex_conjugate(on), bisep, tangle_free, rnd]
    return [(src_kind, tk, src, dst, feas, count)
            for tk, dst, (feas, count) in zip(TARGET_KINDS, dsts, labels)]


# ---------------------------------------------------------------------------
# transfer samples


def lemma_sample(rng, i):
    """One verify-lemmas sample: (haar state, measurement on A, state of
    kind i % 7, measurement on A, the same operators on qubit i % 3)."""
    st = triloc.random_state("haar", sub_seed(rng))
    meas = triloc.random_measurement(sub_seed(rng), qubit="A")
    stk = triloc.random_state(KINDS[i % len(KINDS)], sub_seed(rng))
    measa = triloc.random_measurement(sub_seed(rng), qubit="A")
    measq = triloc.Measurement2(triloc.state_core.QUBITS[i % 3], measa.m0, measa.m1)
    return st, meas, stk, measa, measq


def split_off_target(src, rng):
    """The source's split-off pair: outcome 0 of its splitting measurement,
    LU-scrambled.  One measurement on A reaches it deterministically."""
    out = triloc.measure(src, triloc.synth_bisep_measurement(src))[0][0]
    return scramble(out, rng)


def unreachable_target(rng):
    """A random GHZ-type target; one measurement on A does not reach it
    from another random GHZ-type state."""
    return triloc.random_state("ghz_type", sub_seed(rng))
