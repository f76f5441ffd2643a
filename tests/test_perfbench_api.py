"""The benchmark in perfbench/ is kept fixed while the library changes, so
every library name it reads must keep existing, every call it makes must
still fit the callee's signature, and its tracer must still see the layers
the library runs.  These checks read the perfbench sources and load its
tracer; they run none of its workloads."""

import ast
import importlib
import importlib.util
import inspect
import math
import pathlib

import triloc
import triloc.cli  # loaded so that the triloc.cli.main tracer.py reads resolves
# Patch lists the loaded triloc modules before it imports the ones it wraps,
# so every module whose bindings it must rebind is imported here
from triloc import invariants, locc, sampling, state_core, transfer

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"

# module aliases perfbench binds: workloads.py at module level, defects.py
# inside main()
ALIASES = {
    "workloads.py": {"inv": triloc.invariants, "locc": triloc.locc,
                     "transfer": triloc.transfer},
    "defects.py": {"transfer": triloc.transfer},
}


def _chain(node):
    """Dotted names of an attribute chain such as triloc.state_core.QUBITS,
    or None when the chain does not start at a plain name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id] + parts[::-1]


def _sources():
    """(file name, root objects by name, syntax tree) of every perfbench
    source."""
    for path in sorted(PERFBENCH.glob("*.py")):
        yield (path.name, {"triloc": triloc, **ALIASES.get(path.name, {})},
               ast.parse(path.read_text()))


def _library_reads():
    """(file, dotted name, root object) for every attribute chain that a
    perfbench source reads off triloc or one of its module aliases."""
    reads = []
    for file, roots, tree in _sources():
        for node in ast.walk(tree):
            chain = _chain(node) if isinstance(node, ast.Attribute) else None
            if chain and chain[0] in roots:
                reads.append((file, ".".join(chain), roots[chain[0]]))
    return reads


def _resolve(chain, obj):
    """The object an attribute chain reads off its root obj, or None when
    an attribute is missing."""
    for attr in chain[1:]:
        if not hasattr(obj, attr):
            return None
        obj = getattr(obj, attr)
    return obj


def _tracer():
    """perfbench/tracer.py, loaded as a module of its own."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_wrapped_names_exist():
    tracer = _tracer()
    assert tracer.WRAPPED
    for mod_name, fn_name in tracer.WRAPPED:
        mod = importlib.import_module(f"triloc.{mod_name}")
        assert callable(getattr(mod, fn_name, None)), f"triloc.{mod_name}.{fn_name}"


def test_tracer_sees_every_decomposition():
    # the tracer wraps public names, so the decomposition the library runs
    # must be the public schmidt_decompose for its per-layer spans to count
    r2 = 1.0 / math.sqrt(2.0)
    ghz = state_core.state_from_schmidt(state_core.SchmidtCoeffs(r2, 0, 0, 0, r2, 0.0))
    bell_bc = state_core.state_from_schmidt(state_core.SchmidtCoeffs(0, r2, 0, 0, r2, 0.0))
    meas = sampling.random_measurement(3, qubit="B")
    tracer = _tracer()
    rec = tracer.Recorder()
    patch = tracer.Patch(rec)
    counts = []
    patch.apply()
    try:
        # the calls read the module attributes that apply() rebinds
        for call in (lambda: invariants.profile(ghz),
                     lambda: locc.dlocc_feasible(ghz, bell_bc),
                     lambda: transfer.verify_update(ghz, meas),
                     lambda: transfer.search_deterministic_measurement(ghz, bell_bc)):
            start = len(rec.spans)
            call()
            counts.append(sum(span[0] == "state_core.schmidt_decompose"
                              for span in rec.spans[start:]))
    finally:
        patch.undo()
    assert counts == [1, 2, 3, 4]


def test_perfbench_library_reads_exist():
    reads = _library_reads()
    names = {name for _, name, _ in reads}
    # the alias reads are found too, not only the triloc.<name> ones
    assert {"triloc.random_measurement", "inv.profile",
            "transfer.verify_update", "locc.dlocc_feasible"} <= names
    missing = [f"{file}: {name}" for file, name, obj in reads
               if _resolve(name.split("."), obj) is None]
    assert not missing, missing


def test_perfbench_calls_bind_to_signatures():
    # each argument's syntax node stands in for its value, so the binding
    # checks the positional count and the keyword names.  A call with *args
    # or **kwargs cannot be checked that way and is skipped; a missing name
    # is the finding of the test above
    bound, skipped, bad = 0, 0, []
    for file, roots, tree in _sources():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            chain = _chain(node.func)
            if not chain or chain[0] not in roots:
                continue
            obj = _resolve(chain, roots[chain[0]])
            if not callable(obj):
                continue
            if (any(isinstance(a, ast.Starred) for a in node.args)
                    or any(k.arg is None for k in node.keywords)):
                skipped += 1
                continue
            try:
                inspect.signature(obj).bind(*node.args,
                                            **{k.arg: k.value for k in node.keywords})
            except TypeError as exc:
                bad.append(f"{file}:{node.lineno}: {'.'.join(chain)}: {exc}")
            bound += 1
    assert bound > skipped
    assert not bad, bad
