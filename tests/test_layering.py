"""Layering: the production modules never import the references in
`oracle`, and the CLI takes S(x) from the streaming extractor."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "quopitsim"
PRODUCTION = ("circuit", "fields", "pathsum", "quadform", "evaluator")


def _tree(module: str) -> ast.AST:
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


@pytest.mark.parametrize("module", PRODUCTION)
def test_production_module_does_not_import_oracle(module):
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Import):
            parts = [p for alias in node.names for p in alias.name.split(".")]
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            parts += [alias.name for alias in node.names]
        else:
            continue
        assert "oracle" not in parts, f"{module}.py line {node.lineno}"


def test_cli_does_not_use_reference_extractor():
    names = set()
    for node in ast.walk(_tree("cli")):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    assert "extract_phase_polynomial" not in names


def test_evaluator_never_densifies_theta():
    # `QuadraticForm.theta` builds the dense alpha x alpha matrix; the
    # evaluator hands `theta_entries` to the engine instead
    reads = [node.lineno for node in ast.walk(_tree("evaluator"))
             if isinstance(node, ast.Attribute) and node.attr == "theta"]
    assert not reads, f"evaluator.py reads .theta at lines {reads}"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_scipy_import(path):
    # scipy is not a dependency, and importing it would slow every start-up
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        assert not any(n.split(".")[0] == "scipy" for n in names), \
            f"{path.name} line {node.lineno}"
