"""The band rule n // 2 - 1 is stated once, in ``signals._band``; every other module calls it."""

import ast
from pathlib import Path

import genharm

SOURCES = sorted(Path(genharm.__file__).parent.glob("*.py"))


def _is_band_rule(node) -> bool:
    """Whether node is an expression ``<x> // 2 - 1``."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
            and isinstance(node.right, ast.Constant) and node.right.value == 1
            and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.FloorDiv)
            and isinstance(node.left.right, ast.Constant) and node.left.right.value == 2)


def _band_rules(tree) -> list:
    """The names of the functions holding a band rule, "<module>" for one outside any function."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if _is_band_rule(node):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_the_guard_sees_the_rule_in_any_operand():
    tree = ast.parse("def f(n, g):\n    return (n // 2 - 1, g.n // 2 - 1, len(g) // 2 - 1 + n // 2)")
    assert _band_rules(tree) == ["f"] * 3


def test_the_band_rule_is_stated_only_in_signals_band():
    found = {path.stem: _band_rules(ast.parse(path.read_text(), str(path))) for path in SOURCES}
    assert "signals" in found
    assert {module: where for module, where in found.items() if where} == {"signals": ["_band"]}
