"""The benchmark in perfbench/ is kept fixed while the library changes, so
every library name it reads must keep existing.  These checks read the
perfbench sources; they run none of its workloads."""

import ast
import importlib
import importlib.util
import pathlib

import triloc
import triloc.cli  # loaded so that the triloc.cli.main tracer.py reads resolves

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


def _library_reads():
    """(file, dotted name, root object) for every attribute chain that a
    perfbench source reads off triloc or one of its module aliases."""
    reads = []
    for path in sorted(PERFBENCH.glob("*.py")):
        roots = {"triloc": triloc, **ALIASES.get(path.name, {})}
        for node in ast.walk(ast.parse(path.read_text())):
            chain = _chain(node) if isinstance(node, ast.Attribute) else None
            if chain and chain[0] in roots:
                reads.append((path.name, ".".join(chain), roots[chain[0]]))
    return reads


def test_tracer_wrapped_names_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.WRAPPED
    for mod_name, fn_name in tracer.WRAPPED:
        mod = importlib.import_module(f"triloc.{mod_name}")
        assert callable(getattr(mod, fn_name, None)), f"triloc.{mod_name}.{fn_name}"


def test_perfbench_library_reads_exist():
    reads = _library_reads()
    names = {name for _, name, _ in reads}
    # the alias reads are found too, not only the triloc.<name> ones
    assert {"triloc.random_measurement", "inv.profile",
            "transfer.verify_update", "locc.dlocc_feasible"} <= names
    missing = []
    for file, name, obj in reads:
        for attr in name.split(".")[1:]:
            if not hasattr(obj, attr):
                missing.append(f"{file}: {name}")
                break
            obj = getattr(obj, attr)
    assert not missing, missing
