"""The benchmark's hooks into maxflex still resolve.

``perfbench/tracer.py`` wraps the functions named in its ``TARGETS`` and
``perfbench/workloads.py`` calls the program through module attributes.  A
refactor that renames one of them must fail here, in tier-1, rather than in
a traced benchmark run.  Both files are read as source; nothing is written
next to them.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _resolve(module_name, path):
    obj = importlib.import_module(module_name)
    for attr in path.split("."):
        obj = getattr(obj, attr)
    return obj


def test_tracer_targets_resolve():
    source = (PERFBENCH / "tracer.py").read_text()
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(source, str(PERFBENCH / "tracer.py"), "exec"), namespace)
    targets = namespace["TARGETS"]
    assert targets
    for _prefix, module_name, path, _metrics in targets:
        assert callable(_resolve(module_name, path)), (module_name, path)


def _attribute_chain(node):
    """``("geometry", "ProjPoint", "from_data")`` for a dotted name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return (node.id,) + tuple(reversed(parts))


def test_workload_attributes_resolve():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    modules = {}  # local name -> maxflex module name
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "maxflex":
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module == "maxflex":
            for alias in node.names:
                modules[alias.asname or alias.name] = "maxflex." + alias.name
    used = set()
    for node in ast.walk(tree):
        chain = _attribute_chain(node) if isinstance(node, ast.Attribute) else None
        if chain and chain[0] in modules:
            used.add((modules[chain[0]], ".".join(chain[1:])))
    assert ("maxflex.torsion", "distinguish") in used
    for module_name, path in sorted(used):
        _resolve(module_name, path)
