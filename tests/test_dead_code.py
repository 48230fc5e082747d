"""Every module-level function, class and method of the package is referred
to somewhere in the package outside its own definition, so no entry mode
lives on for tests alone."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "noma_outage"

#: Definitions nothing in the package refers to by name, each with the
#: reason it stays.
ALLOWED = {
    "cli._Parser.error": "argparse calls it on a usage error",
    "rates.RateEvaluator.whitened_inverse": "perfbench/tracer.py wraps it by name",
    "validation.random_instance": "perfbench's validate check and the tests redraw instances one at a time",
}


def _definitions(tree, module):
    """(qualified name, node) of each module-level function and class and
    of each method defined in a class body."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield f"{module}.{node.name}.{item.name}", item


def _loads(node) -> Counter:
    """The names a subtree reads, bare or as an attribute; imports are not
    uses."""
    return Counter(sub.id if isinstance(sub, ast.Name) else sub.attr for sub in ast.walk(node)
                   if isinstance(sub, (ast.Name, ast.Attribute)) and isinstance(sub.ctx, ast.Load))


def _exported(trees) -> set[str]:
    for node in trees["__init__"].body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["__all__"]:
            return set(ast.literal_eval(node.value))
    return set()


def test_every_definition_is_used():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    loads = sum((_loads(tree) for tree in trees.values()), Counter())
    exported = _exported(trees)
    defined, unused = set(), []
    for module, tree in trees.items():
        for qual, node in _definitions(tree, module):
            defined.add(qual)
            name = node.name
            if name.startswith("__") and name.endswith("__") or name in exported or qual in ALLOWED:
                continue
            if loads[name] - _loads(node)[name] <= 0:
                unused.append(qual)
    assert unused == [], f"defined but never used in src/: {unused}"
    assert set(ALLOWED) <= defined, f"allowlisted but not defined: {set(ALLOWED) - defined}"
