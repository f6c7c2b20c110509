"""Every function and method of the package has a caller in the package.

A helper that only tests call is code the package does not need: its
tests check nothing a run can reach.  This scan reads each module under
``src/reslab`` and asks that every module-level function and every class
method (dunders aside) be named somewhere in the package besides its own
definition: called, passed or read as an attribute.  Names in ``__all__``
strings do not count.
"""

import ast
from pathlib import Path

import reslab

SOURCE = Path(reslab.__file__).resolve().parent

#: ``benchmarks/tracing.SPANS`` resolves these by name and
#: ``tests/test_tracing_names.py`` checks that they resolve, so deleting them
#: changes the benchmark's per-layer metrics: a change of its own
PINNED_BY_THE_BENCHMARK = {
    "apply_generator",
    "liouvillian_matrix",
    "LindbladTerm.operator_at",
    "MasterEquation.hamiltonian_at",
}


def definitions_and_names():
    defined, named = {}, set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined[node.name] = node.name
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        defined[f"{node.name}.{item.name}"] = item.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return defined, named


def test_every_function_has_a_caller_in_the_package():
    defined, named = definitions_and_names()
    assert {"evolve", "Harmonic.map", "LindbladTerm.superoperator"} <= set(defined)
    uncalled = {key for key, name in defined.items() if name not in named}
    assert uncalled == PINNED_BY_THE_BENCHMARK
