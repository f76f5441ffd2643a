"""Command-line interface.

All commands consume and produce JSON.  State and measurement arguments are
paths to JSON files ("-" reads stdin).  Exit status: 0 for an affirmative
verdict or successful computation, 1 for a negative verdict, 2 for malformed
input or numerical failure, and 141 (128 + SIGPIPE, what a shell reports
for a process that a closed pipe ends) when the reader of stdout closes it
early, as in `triloc random --count 500 | head -1`: the rest of the output
is dropped, without a traceback.

Each command imports the triloc modules it runs inside its own function, so
a cold call compiles only those: invariants and lu-equiv load state_core
and invariants; locc-check and ghz-canonical add locc; measure and
synth-bisep add transfer; random loads triloc.sampling (and numpy), and
verify-lemmas both transfer and sampling.
"""

import argparse
import json
import math
import os
import sys

from . import state_core
from .invariants import coeffs_profile, ep_phase, lu_equivalent_profiles, profile


def _read_json(path):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def _load_state(path):
    return state_core.state_from_dict(_read_json(path))


def _jsonable(x):
    if hasattr(x, "_asdict"):  # the named-tuple value types
        x = x._asdict()
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, float) and not math.isfinite(x):
        # infinities are meaningful (the shape parameter s), JSON has no
        # literal for them
        return ("inf" if x > 0 else "-inf") if not math.isnan(x) else "nan"
    return x


def _emit(args, data):
    print(json.dumps(_jsonable(data), indent=2 if args.pretty else None))


def invariants(args):
    """Entanglement invariants and class of STATE_PATH."""
    p = profile(_load_state(args.state_path))
    cls = p.state_class
    kind = cls.kind if cls.pair is None else f"{cls.kind}_{cls.pair.lower()}"
    _emit(args, {
        "c_params": p.c,
        "k_params": {"k_ab": p.k.k_ab, "k_ac": p.k.k_ac, "k_bc": p.k.k_bc},
        "derived": p.derived,
        "q_e": p.q_e,
        "phi5": ep_phase(p.c),
        "class": kind,
        "ep_definite": cls.ep_definite,
        "zeta_tilde_definite": cls.zeta_tilde_definite,
    })


def lu_equiv(args):
    """Decide local-unitary equivalence of two states (exit 0 / 1)."""
    pa, pb = profile(_load_state(args.state_a)), profile(_load_state(args.state_b))
    same = lu_equivalent_profiles(pa, pb)
    _emit(args, {"equivalent": same, "max_c_deviation": pa.c.max_deviation(pb.c),
                 "charges": [pa.q_e, pb.q_e]})
    return 0 if same else 1


def locc_check(args):
    """Decide deterministic transformability of SRC_PATH into DST_PATH
    (exit 0 / 1).  min_measurements is the count for the hardest target of
    the two states' classes, not for DST_PATH itself."""
    from . import locc
    src, dst = _load_state(args.src_path), _load_state(args.dst_path)
    verdict = locc.dlocc_feasible(src, dst)
    _emit(args, verdict)
    return 0 if verdict.feasible else 1


def random(args):
    """Sample reproducible random states (one JSON object per line)."""
    from .sampling import random_state
    for i in range(args.count):
        st = random_state(args.kind, args.seed * 4096 + i)
        _emit(args, state_core.state_to_dict(st))


def measure(args):
    """Apply a measurement and check the closed-form outcome prediction."""
    from . import transfer
    st = _load_state(args.state_path)
    mdata = _read_json(args.measurement_path)
    if isinstance(mdata, dict) and "measurement" in mdata:
        mdata = mdata["measurement"]  # accept synth-bisep output directly
    meas = state_core.measurement_from_dict(mdata)
    report = transfer.verify_update(st, meas)
    outcomes = []
    for out, p in state_core.measure(st, meas):
        outcomes.append({"probability": p,
                         "state": None if out is None else state_core.state_to_dict(out)})
    _emit(args, {"outcomes": outcomes, "report": report})
    return 0 if report["pass"] else 1


def synth_bisep(args):
    """Measurement that deterministically splits off the unmeasured pair."""
    from . import transfer
    # transfer.synth_bisep_measurement, keeping its one decomposition for
    # the outcomes' pair concurrence
    coeffs, (ua, _, _) = state_core.schmidt_decompose(_load_state(args.state_path))
    try:
        meas = transfer._lab_measurement(transfer._a_step_gram(coeffs, 0.0), ua)
    except transfer.DegenerateInput as exc:
        _emit(args, {"degenerate": True, "reason": str(exc)})
        return 1
    _emit(args, {"measurement": state_core.measurement_to_dict(meas),
                 "outcome_c_bc": math.sqrt(coeffs_profile(coeffs).k.k_bc)})


def ghz_canonical(args):
    """Canonical two-term coordinates of a tangled state (exit 1 if none)."""
    from . import locc
    st = _load_state(args.state_path)
    try:
        g = locc.ghz_canonical(st)
    except locc.NotGhzType as exc:
        _emit(args, {"is_ghz_type": False, "reason": str(exc)})
        return 1
    n, s = locc.ns_params(g)
    _emit(args, {"is_ghz_type": True, "c_a": g.c_a, "c_b": g.c_b, "c_c": g.c_c,
                 "abs_z": g.abs_z, "z": g.z, "n": n, "s": s,
                 "zeta_tilde_definite": g.zeta_tilde_definite})


def verify_lemmas(args):
    """Fuzz the transfer laws on random states and measurements."""
    from . import transfer
    from .sampling import random_measurement, random_state
    worst = {"lemma1": 0.0, "lemma2": 0.0, "lemma4": 0.0, "alpha_sum": 0.0}
    for i in range(args.samples):
        seed = args.seed * 4096 + 4 * i
        # exactness of the closed-form update on generic states
        st = random_state("haar", seed)
        meas = random_measurement(seed + 1, qubit="A")
        report = transfer.verify_update(st, meas)
        worst["lemma1"] = max(worst["lemma1"], report["max_deviation"],
                              report["p_sum_deviation"])
        # inequality suites across all entanglement families
        stk = random_state(state_core.RANDOM_KINDS[i % 7], seed + 2)
        measa = random_measurement(seed + 3, qubit="A")
        lhs, mid, rhs = transfer.lemma2_bounds(stk, measa)
        worst["lemma2"] = max(worst["lemma2"], lhs - mid, mid - rhs)
        measq = state_core.Measurement2(state_core.QUBITS[i % 3], *measa.ops)
        avg, bound = transfer.lemma4_check(stk, measq)
        worst["lemma4"] = max(worst["lemma4"], avg - bound)
        asum = transfer.alpha_average(stk, measa)
        worst["alpha_sum"] = max(worst["alpha_sum"], asum - 1.0, -asum)
    max_dev = max(worst.values())
    passed = bool(max_dev <= state_core.TOL_ZERO)
    _emit(args, {"samples": args.samples, "max_deviation": max_dev,
                 "pass": passed, "components": worst})
    return 0 if passed else 1


def tolerance(text):
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {value}")
    return value


def count(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def seed(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _parser():
    parser = argparse.ArgumentParser(
        prog="triloc",
        description="Decide local-unitary equivalence and deterministic LOCC "
                    "transformability of three-qubit pure states, and verify "
                    "the entanglement-transfer laws by simulation.")
    # the defaults are the current module values, so an absent flag keeps them
    parser.add_argument("--tol-zero", type=tolerance, default=state_core.TOL_ZERO,
                        help="Threshold below which an invariant counts as zero.")
    parser.add_argument("--tol-norm", type=tolerance, default=state_core.TOL_NORM,
                        help="Normalization / completeness tolerance.")
    parser.add_argument("--tol-eq", type=tolerance, default=state_core.TOL_EQ,
                        help="Tolerance for equality of invariants between states.")
    parser.add_argument("--seed", type=seed, default=0,
                        help="Seed for commands that sample (default: 0).")
    parser.add_argument("--pretty", action="store_true", help="Indent JSON output.")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(run, *positionals):
        sub = commands.add_parser(run.__name__.replace("_", "-"),
                                  help=run.__doc__, description=run.__doc__)
        for name in positionals:
            sub.add_argument(name, metavar=name.upper())
        sub.set_defaults(run=run)
        return sub

    command(invariants, "state_path")
    command(lu_equiv, "state_a", "state_b")
    command(locc_check, "src_path", "dst_path")
    sub = command(random)
    sub.add_argument("--kind", choices=state_core.RANDOM_KINDS, default="haar",
                     help="(default: %(default)s)")
    sub.add_argument("--count", type=count, default=1, help="(default: %(default)s)")
    command(measure, "state_path", "measurement_path")
    command(synth_bisep, "state_path")
    command(ghz_canonical, "state_path")
    command(verify_lemmas).add_argument("--samples", type=count, default=200,
                                        help="(default: %(default)s)")
    return parser


# exit status when stdout's reader has closed the pipe
BROKEN_PIPE = 141


def main(argv=None):
    """Run one command and exit the process with its status."""
    args = _parser().parse_args(argv)
    saved = state_core.TOL_ZERO, state_core.TOL_NORM, state_core.TOL_EQ
    try:
        state_core.TOL_ZERO, state_core.TOL_NORM, state_core.TOL_EQ = (
            args.tol_zero, args.tol_norm, args.tol_eq)
        status = args.run(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout once more at exit: send that to
        # devnull, so it cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = BROKEN_PIPE
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        status = 2
    finally:
        state_core.TOL_ZERO, state_core.TOL_NORM, state_core.TOL_EQ = saved
    sys.exit(status)


if __name__ == "__main__":
    main()
