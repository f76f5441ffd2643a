"""The four workloads: how each builds its ops, runs them and checks them.

An op is one call sequence a user would make; it reaches the library only
through module attributes looked up at call time, so the traced run's
rebinding sees every call.  Inputs come in blocks: block j of a workload
is fixed by the seed and j, so a run that completes the first
fixed_blocks(seconds) blocks has the same mix as every other run with
that seed.
"""

import json
import os
import subprocess
import sys
from collections import namedtuple

import numpy as np

import triloc
import gen
import oracles

Op = namedtuple("Op", "fn args meta")

inv, locc, transfer = triloc.invariants, triloc.locc, triloc.transfer

COMMANDS = ("invariants", "locc-check", "measure")  # what cli_cold runs
EXACT = 1e-8      # invariants against the independent references
LEMMA = 1e-9      # transfer laws, as verify-lemmas checks them
SPLIT_PAIR = 1e-6  # concurrences the splitting measurement must erase


class Workload:
    name = ""
    block_ops = 1      # ops per block
    chunk_blocks = 1   # blocks whose answers are checked together
    warmup_blocks = 1
    # blocks per second of --seconds in the fixed-size traced run, sized so
    # its untraced pass takes about half of --seconds at the seed commit
    trace_blocks_per_s = 1.0

    def __init__(self, seed, workdir):
        pass

    def fixed_blocks(self, seconds):
        return max(1, round(seconds * self.trace_blocks_per_s))

    def block(self, rng, j):
        raise NotImplementedError

    def check(self, ops, answers):
        """One bool per op: the answer is right (an exception never is)."""
        return [not isinstance(ans, Exception) and self.check_one(op, ans)
                for op, ans in zip(ops, answers)]

    def check_one(self, op, answer):
        raise NotImplementedError

    def labels(self, op, answer):
        """Mix keys counted for this op."""
        raise NotImplementedError

    def traced_call(self, rec, i, op):
        return rec.run_op(i, op.fn, *op.args)

    def layer_extra(self, ops, latencies):
        """Per-layer metrics only this workload measures (0 elsewhere)."""
        return {f"cli.{cmd}.wall_ms": 0.0 for cmd in COMMANDS}

    def cleanup(self):
        pass


# ---------------------------------------------------------------------------
# profile_stream


def op_profile(state):
    return inv.profile(state)


class ProfileStream(Workload):
    name = "profile_stream"
    block_ops = len(gen.KINDS + gen.THRESHOLD_KINDS) * 5
    chunk_blocks = 10
    warmup_blocks = 10
    trace_blocks_per_s = 30.0

    def block(self, rng, j):
        ops = []
        for n in range(self.block_ops):
            fam, st = gen.stream_state(rng, j * self.block_ops + n)
            ops.append(Op(op_profile, (st,), fam))
        return ops

    def check(self, ops, answers):
        ref = oracles.invariants(np.array([op.args[0].amplitudes for op in ops]))
        ok = []
        for n, (op, ans, want) in enumerate(zip(ops, answers, ref)):
            if isinstance(ans, Exception):
                ok.append(False)
                continue
            got = np.array([ans.c.c_ab, ans.c.c_ac, ans.c.c_bc, ans.c.tau])
            good = bool(np.max(np.abs(got - want)) <= EXACT)
            if n % 8 == 0:
                conj = inv.profile(triloc.complex_conjugate(op.args[0]))
                good = good and conj.q_e == -ans.q_e
            ok.append(good)
        return ok

    def labels(self, op, ans):
        if isinstance(ans, Exception):
            return [f"family.{op.meta}", "raised"]
        return [f"family.{op.meta}", f"class.{ans.state_class.kind}", f"charge.{ans.q_e}"]


# ---------------------------------------------------------------------------
# locc_pairs


def op_locc(src, dst):
    """What `triloc locc-check` computes: the verdict, then the count."""
    verdict = locc.dlocc_feasible(src, dst)
    count = locc.min_measurements(src, dst) if verdict.feasible else None
    return verdict, count


class LoccPairs(Workload):
    name = "locc_pairs"
    block_ops = len(gen.TARGET_KINDS)
    chunk_blocks = 20
    warmup_blocks = 16
    trace_blocks_per_s = 60.0

    def block(self, rng, j):
        return [Op(op_locc, (src, dst), (sk, tk, feas, count))
                for sk, tk, src, dst, feas, count in gen.locc_block(rng, j)]

    def check_one(self, op, ans):
        sk, tk, feas, count = op.meta
        verdict, got_count = ans
        if verdict.feasible != feas or got_count != count:
            return False
        tangled = sk != "w_type" and tk not in ("bisep", "tangle_free")
        return not tangled or locc.ghz_oracle(*op.args) == feas

    def labels(self, op, ans):
        sk, tk, _, _ = op.meta
        keys = [f"source.{sk}", f"target.{tk}"]
        if isinstance(ans, Exception):
            return keys + ["raised"]
        v = ans[0]
        keys += [f"case.{v.case}", "feasible" if v.feasible else f"violated.{v.violated}"]
        return keys


# ---------------------------------------------------------------------------
# transfer_mix


def op_lemmas(st, meas, stk, measa, measq):
    """One verify-lemmas sample."""
    return (transfer.verify_update(st, meas), transfer.lemma2_bounds(stk, measa),
            transfer.lemma4_check(stk, measq), transfer.alpha_average(stk, measa))


def op_synth(st):
    # verify_update is not asked about this measurement: on about 1 state in
    # 60 it rejects it (see defects.py), while the oracle below accepts it
    return transfer.synth_bisep_measurement(st)


def op_search(src, target):
    return transfer.search_deterministic_measurement(src, target)


class TransferMix(Workload):
    name = "transfer_mix"
    # one search per block, from a GHZ-type source to itself: searches take
    # about half the time and fill the top 2.5% of latencies, so op_tail_ms
    # (p99) reads a typical search.  Split-off and unreachable targets make
    # the search miss or raise; defects.py runs those.
    SAMPLES, SYNTHS = 37, 2
    block_ops = SAMPLES + SYNTHS + 1
    warmup_blocks = 1
    trace_blocks_per_s = 1.2

    def block(self, rng, j):
        ops = []
        for n in range(self.SAMPLES):
            i = j * self.SAMPLES + n
            ops.append(Op(op_lemmas, gen.lemma_sample(rng, i), ("sample", gen.KINDS[i % 7])))
        for _ in range(self.SYNTHS):
            ops.append(Op(op_synth, (triloc.random_state("ghz_type", gen.sub_seed(rng)),),
                          ("synth", "ghz_type")))
        src = triloc.random_state("ghz_type", gen.sub_seed(rng))
        ops.append(Op(op_search, (src, src), ("search", "self")))
        return ops

    def check_one(self, op, ans):
        kind = op.meta[0]
        if kind == "sample":
            report, (lhs, mid, rhs), (avg, bound), asum = ans
            worst = max(report["max_deviation"], report["p_sum_deviation"],
                        lhs - mid, mid - rhs, avg - bound, asum - 1.0, -asum)
            return bool(report["pass"]) and worst <= LEMMA
        if kind == "synth":
            amps = op.args[0].amplitudes
            c_ab, c_ac, c_bc, tau = oracles.invariants(amps)[0]
            for m in (ans.m0, ans.m1):
                out, _ = oracles.apply_on_a(amps, m)
                o_ab, o_ac, o_bc, o_tau = oracles.invariants(out)[0]
                # the whole residue c_bc^2 + tau moves onto the spectator pair
                if (abs(o_bc**2 - (c_bc**2 + tau)) > EXACT or o_tau > LEMMA
                        or max(o_ab, o_ac) > SPLIT_PAIR):
                    return False
            return True
        if ans is None:
            return False
        src, target = op.args
        want = oracles.invariants(target.amplitudes)[0]
        for m in (ans.m0, ans.m1):
            out, _ = oracles.apply_on_a(src.amplitudes, m)
            if np.max(np.abs(oracles.invariants(out)[0] - want)) > EXACT:
                return False
        return True

    def labels(self, op, ans):
        keys = [f"op.{op.meta[0]}", f"{op.meta[0]}.{op.meta[1]}"]
        if isinstance(ans, Exception):
            return keys + ["raised"]
        if op.meta[0] == "search":
            keys.append(f"search.{op.meta[1]}.{'found' if ans is not None else 'none'}")
        return keys


# ---------------------------------------------------------------------------
# cli_cold

# The package declares a console script, but a checkout need not have it
# installed, and `python -m triloc.cli` would only import the module.
LAUNCH = "from triloc.cli import main; main()"
LAUNCH_TRACED = "import sys; sys.path.insert(0, {bench!r}); import tracer; tracer.cli_main({out!r})"
POOL = 6
CLI_TIMEOUT = 60


def _write(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh)
    return path


def run_cli(code, argv, env):
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=CLI_TIMEOUT)
    return proc.returncode, proc.stdout


def _close(a, b):
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(
            _close(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(
            _close(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, (int, float)):
        return abs(a - b) <= 1e-12
    return a == b


class CliCold(Workload):
    name = "cli_cold"
    trace_blocks_per_s = 0.6

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.pool_dir = os.path.join(workdir, f"cli_pool_{os.getpid()}")
        os.makedirs(self.pool_dir, exist_ok=True)
        bench = os.path.dirname(os.path.abspath(__file__))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(os.path.dirname(bench), "src"),
                        os.environ.get("PYTHONPATH")) if p)
        self.bench = bench
        self.pool = self._make_pool(np.random.default_rng([seed, 2]))

    def _state_file(self, name, state):
        return _write(os.path.join(self.pool_dir, name), triloc.state_to_dict(state))

    def _make_pool(self, rng):
        """POOL inputs per command with the library's own answers; pairs
        alternate between feasible and infeasible destinations."""
        pool = {c: [] for c in COMMANDS}
        blocks = [gen.locc_block(rng, j) for j in range(POOL)]
        for n in range(POOL):
            st = blocks[n][0][2]
            p = inv.profile(st)
            path = self._state_file(f"state{n}.json", st)
            cls = p.state_class
            pool["invariants"].append(((path,), (0, {
                "c": list(p.c.as_tuple()), "q_e": p.q_e,
                "class": cls.kind if cls.pair is None else f"{cls.kind}_{cls.pair.lower()}"})))
            _, tk, src, dst, feas, count = blocks[n][n % 2]
            v, _ = op_locc(src, dst)
            argv = (self._state_file(f"src{n}.json", src), self._state_file(f"dst{n}.json", dst))
            pool["locc-check"].append((argv, (0 if feas else 1, {
                "feasible": feas, "case": v.case, "violated": v.violated,
                "min_measurements": count})))
            st = triloc.random_state("haar", gen.sub_seed(rng))
            meas = triloc.random_measurement(gen.sub_seed(rng), qubit="A")
            argv = (self._state_file(f"mstate{n}.json", st),
                    _write(os.path.join(self.pool_dir, f"meas{n}.json"),
                           triloc.measurement_to_dict(meas)))
            probs = [p for _, p in triloc.measure(st, meas)]
            pool["measure"].append((argv, (0, {"pass": True, "probabilities": probs})))
        return pool

    def block(self, rng, j):
        cmd = COMMANDS[j % len(COMMANDS)]
        argv, expected = self.pool[cmd][(j // len(COMMANDS)) % POOL]
        return [Op(run_cli, (LAUNCH, (cmd, *argv), self.env), (cmd, expected))]

    def check_one(self, op, ans):
        cmd, (want_rc, want) = op.meta
        rc, out = ans
        if rc != want_rc:
            return False
        try:
            data = json.loads(out)
        except json.JSONDecodeError:
            return False
        if cmd == "invariants":
            c = data["c_params"]
            got = {"c": [c["c_ab"], c["c_ac"], c["c_bc"], c["tau"], c["j5"]],
                   "q_e": data["q_e"], "class": data["class"]}
        elif cmd == "locc-check":
            got = {k: data[k] for k in want}
        else:
            got = {"pass": data["report"]["pass"],
                   "probabilities": [o["probability"] for o in data["outcomes"]]}
        return _close(want, got)

    def labels(self, op, ans):
        cmd, (want_rc, _) = op.meta
        return [f"command.{cmd}", f"{cmd}.exit{want_rc}"]

    def traced_call(self, rec, i, op):
        out = os.path.join(self.pool_dir, f"spans{i}.json")
        code = LAUNCH_TRACED.format(bench=self.bench, out=out)
        result = rec.run_op(i, op.fn, code, *op.args[1:])
        with open(out) as fh:
            child = json.load(fh)
        os.remove(out)
        root = len(rec.spans) - 1  # the op span just closed
        base = len(rec.spans)
        for name, start, end, parent, _ in child["spans"]:
            rec.spans.append((name, start, end, root if parent < 0 else parent + base, i))
        rec.counts.update(child["counts"])
        rec.distinct_other += child["distinct_inputs"]
        return result

    def layer_extra(self, ops, latencies):
        out = {}
        for cmd in COMMANDS:
            lat = [t for op, t in zip(ops, latencies) if op.meta[0] == cmd]
            out[f"cli.{cmd}.wall_ms"] = float(np.median(lat)) * 1e3 if lat else 0.0
        return out

    def cleanup(self):
        for name in os.listdir(self.pool_dir):
            os.remove(os.path.join(self.pool_dir, name))
        os.rmdir(self.pool_dir)


WORKLOADS = {w.name: w for w in (CliCold, ProfileStream, LoccPairs, TransferMix)}
