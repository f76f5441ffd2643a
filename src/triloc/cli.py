"""Command-line interface.

All commands consume and produce JSON.  State and measurement arguments are
paths to JSON files ("-" reads stdin).  Exit status: 0 for an affirmative
verdict or successful computation, 1 for a negative verdict, 2 for malformed
input or numerical failure.
"""

import functools
import json
import math
import sys

import click

from . import locc, state_core
from .invariants import ep_phase, lu_equivalent_profiles, profile


def _fail(msg):
    click.echo(f"error: {msg}", err=True)
    sys.exit(2)


def _guard(fn):
    """Map library errors onto exit status 2."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ValueError, RuntimeError, ArithmeticError) as exc:
            _fail(str(exc))
    return wrapper


def _read_json(path):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        _fail(f"cannot read {path}: {exc}")


def _load_state(path):
    return state_core.state_from_dict(_read_json(path))


def _jsonable(x):
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, complex):
        return [x.real, x.imag]
    # numpy scalars can only occur once a command has loaded numpy
    np = sys.modules.get("numpy")
    if np is not None and isinstance(x, np.integer):
        return int(x)
    if np is not None and isinstance(x, np.floating):
        x = float(x)
    if isinstance(x, float) and not math.isfinite(x):
        # infinities are meaningful (the shape parameter s), JSON has no
        # literal for them
        return ("inf" if x > 0 else "-inf") if not math.isnan(x) else "nan"
    return x


def _positive_tolerance(ctx, param, value):
    if value is not None and not (math.isfinite(value) and value > 0.0):
        raise click.BadParameter(f"must be finite and > 0, got {value}")
    return value


@click.group()
@click.option("--tol-zero", type=float, default=None, callback=_positive_tolerance,
              help="Threshold below which an invariant counts as zero.")
@click.option("--tol-norm", type=float, default=None, callback=_positive_tolerance,
              help="Normalization / completeness tolerance.")
@click.option("--tol-eq", type=float, default=None, callback=_positive_tolerance,
              help="Tolerance for equality of invariants between states.")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed for commands that sample.")
@click.option("--pretty", is_flag=True, help="Indent JSON output.")
@click.pass_context
def main(ctx, tol_zero, tol_norm, tol_eq, seed, pretty):
    """Decide local-unitary equivalence and deterministic LOCC
    transformability of three-qubit pure states, and verify the
    entanglement-transfer laws by simulation."""
    if tol_zero is not None:
        state_core.TOL_ZERO = tol_zero
    if tol_norm is not None:
        state_core.TOL_NORM = tol_norm
    if tol_eq is not None:
        state_core.TOL_EQ = tol_eq
    ctx.obj = {"seed": seed, "pretty": pretty}


def _emit(ctx, data):
    indent = 2 if ctx.obj["pretty"] else None
    click.echo(json.dumps(_jsonable(data), indent=indent))


@main.command()
@click.argument("state_path")
@click.pass_context
@_guard
def invariants(ctx, state_path):
    """Entanglement invariants and class of STATE_PATH."""
    p = profile(_load_state(state_path))
    cls = p.state_class
    kind = cls.kind if cls.pair is None else f"{cls.kind}_{cls.pair.lower()}"
    _emit(ctx, {
        "c_params": {"c_ab": p.c.c_ab, "c_ac": p.c.c_ac, "c_bc": p.c.c_bc,
                     "tau": p.c.tau, "j5": p.c.j5},
        "k_params": {"k_ab": p.k.k_ab, "k_ac": p.k.k_ac, "k_bc": p.k.k_bc},
        "derived": {"j_ap": p.derived.j_ap, "k_ap": p.derived.k_ap,
                    "k5": p.derived.k5, "delta_j": p.derived.delta_j},
        "q_e": p.q_e,
        "phi5": ep_phase(p.c),
        "class": kind,
        "ep_definite": cls.ep_definite,
        "zeta_tilde_definite": cls.zeta_tilde_definite,
    })


@main.command(name="lu-equiv")
@click.argument("state_a")
@click.argument("state_b")
@click.pass_context
@_guard
def lu_equiv(ctx, state_a, state_b):
    """Decide local-unitary equivalence of two states (exit 0 / 1)."""
    pa, pb = profile(_load_state(state_a)), profile(_load_state(state_b))
    same = lu_equivalent_profiles(pa, pb)
    _emit(ctx, {"equivalent": same, "max_c_deviation": pa.c.max_deviation(pb.c),
                "charges": [pa.q_e, pb.q_e]})
    sys.exit(0 if same else 1)


@main.command(name="locc-check")
@click.argument("src_path")
@click.argument("dst_path")
@click.pass_context
@_guard
def locc_check(ctx, src_path, dst_path):
    """Decide deterministic transformability of SRC into DST (exit 0 / 1)."""
    src, dst = _load_state(src_path), _load_state(dst_path)
    verdict = locc.dlocc_feasible(src, dst)
    witness = None
    if verdict.feasible:
        w = verdict.witness
        witness = {"zeta": w.zeta, "zeta_a": w.zeta_a, "zeta_b": w.zeta_b,
                   "zeta_c": w.zeta_c, "zeta_lower": w.zeta_lower,
                   "zeta_tilde": w.zeta_tilde}
    _emit(ctx, {"feasible": verdict.feasible, "case": verdict.case,
                "witness": witness, "violated": verdict.violated,
                "min_measurements": verdict.min_measurements})
    sys.exit(0 if verdict.feasible else 1)


@main.command()
@click.option("--kind", type=click.Choice(state_core.RANDOM_KINDS),
              default="haar", show_default=True)
@click.option("--count", type=int, default=1, show_default=True)
@click.pass_context
@_guard
def random(ctx, kind, count):
    """Sample reproducible random states (one JSON object per line)."""
    base = ctx.obj["seed"]
    for i in range(count):
        st = state_core.random_state(kind, base * 4096 + i)
        _emit(ctx, state_core.state_to_dict(st))


@main.command()
@click.argument("state_path")
@click.argument("measurement_path")
@click.pass_context
@_guard
def measure(ctx, state_path, measurement_path):
    """Apply a measurement and check the closed-form outcome prediction."""
    from . import transfer
    st = _load_state(state_path)
    mdata = _read_json(measurement_path)
    if isinstance(mdata, dict) and "measurement" in mdata:
        mdata = mdata["measurement"]  # accept synth-bisep output directly
    meas = state_core.measurement_from_dict(mdata)
    report = transfer.verify_update(st, meas)
    outcomes = []
    for out, p in state_core.measure(st, meas):
        outcomes.append({"probability": p,
                         "state": None if out is None else state_core.state_to_dict(out)})
    _emit(ctx, {"outcomes": outcomes, "report": report})
    sys.exit(0 if report["pass"] else 1)


@main.command(name="synth-bisep")
@click.argument("state_path")
@click.pass_context
@_guard
def synth_bisep(ctx, state_path):
    """Measurement that deterministically splits off the unmeasured pair."""
    from . import transfer
    st = _load_state(state_path)
    prof = profile(st)
    try:
        meas = transfer.synth_bisep_measurement(st)
    except transfer.DegenerateInput as exc:
        _emit(ctx, {"degenerate": True, "reason": str(exc)})
        sys.exit(1)
    _emit(ctx, {"measurement": state_core.measurement_to_dict(meas),
                "outcome_c_bc": math.sqrt(prof.k.k_bc)})


@main.command(name="ghz-canonical")
@click.argument("state_path")
@click.pass_context
@_guard
def ghz_canonical(ctx, state_path):
    """Canonical two-term coordinates of a tangled state (exit 1 if none)."""
    st = _load_state(state_path)
    try:
        g = locc.ghz_canonical(st)
    except locc.NotGhzType as exc:
        _emit(ctx, {"is_ghz_type": False, "reason": str(exc)})
        sys.exit(1)
    n, s = locc.ns_params(g)
    _emit(ctx, {"is_ghz_type": True, "c_a": g.c_a, "c_b": g.c_b, "c_c": g.c_c,
                "abs_z": g.abs_z, "z": g.z, "n": n, "s": s,
                "zeta_tilde_definite": g.zeta_tilde_definite})


@main.command(name="verify-lemmas")
@click.option("--samples", type=int, default=200, show_default=True)
@click.pass_context
@_guard
def verify_lemmas(ctx, samples):
    """Fuzz the transfer laws on random states and measurements."""
    from . import transfer
    base = ctx.obj["seed"]
    worst = {"lemma1": 0.0, "lemma2": 0.0, "lemma4": 0.0, "alpha_sum": 0.0}
    for i in range(samples):
        seed = base * 4096 + 4 * i
        # exactness of the closed-form update on generic states
        st = state_core.random_state("haar", seed)
        meas = state_core.random_measurement(seed + 1, qubit="A")
        report = transfer.verify_update(st, meas)
        worst["lemma1"] = max(worst["lemma1"], report["max_deviation"],
                              report["p_sum_deviation"])
        # inequality suites across all entanglement families
        stk = state_core.random_state(state_core.RANDOM_KINDS[i % 7], seed + 2)
        measa = state_core.random_measurement(seed + 3, qubit="A")
        lhs, mid, rhs = transfer.lemma2_bounds(stk, measa)
        worst["lemma2"] = max(worst["lemma2"], lhs - mid, mid - rhs)
        measq = state_core.Measurement2(state_core.QUBITS[i % 3],
                                        measa.m0, measa.m1)
        avg, bound = transfer.lemma4_check(stk, measq)
        worst["lemma4"] = max(worst["lemma4"], avg - bound)
        asum = transfer.alpha_average(stk, measa)
        worst["alpha_sum"] = max(worst["alpha_sum"], asum - 1.0, -asum)
    max_dev = max(worst.values())
    _emit(ctx, {"samples": samples, "max_deviation": max_dev,
                "pass": bool(max_dev <= 1e-9), "components": worst})
    sys.exit(0 if max_dev <= 1e-9 else 1)


if __name__ == "__main__":
    main()
