"""Layering: the production modules never import the references in
`oracle`, the CLI takes S(x) and the wire labels from the streaming
extractor, and the public names are pinned."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

import quopitsim

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


def _names(module: str) -> set[str]:
    """Every name the module binds, reads or imports."""
    names = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            names.add(node.name)
    return names


# the reference labeler and its label objects, which live in `oracle`
REFERENCE_LABELER = {"AffineForm", "LabeledCircuit", "label_circuit",
                     "render_labels"}


def test_cli_does_not_use_reference_extractor():
    names = _names("cli")
    assert "extract_phase_polynomial" not in names
    assert not names & REFERENCE_LABELER


@pytest.mark.parametrize("module", PRODUCTION)
def test_production_module_has_no_reference_labeler(module):
    assert not _names(module) & REFERENCE_LABELER


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


# a change to the public names shows up as a diff of this list
PUBLIC_NAMES = [
    "AffineForm", "AmplitudeReport", "CapExceeded", "Circuit",
    "CircuitParseError", "DiagonalizationResult", "ExactScalar",
    "FieldElement", "Gate", "LabeledCircuit", "OddPrime", "QuadraticForm",
    "SymmetricEntries", "amplitude", "amplitude_table", "balance_weight",
    "brute_force_path_sum", "classify_fourier_gates", "dense_amplitude",
    "dense_state", "diagonalize", "diagonalize_reference",
    "extract_phase_polynomial", "gf_rank", "inverse_mod", "label_circuit",
    "legendre", "make_circuit", "normalize_to_standard_form",
    "parse_circuit", "phase_polynomial_direct", "probability",
    "serialize_circuit", "split_step", "weil_sum",
]


def test_public_names():
    assert sorted(quopitsim.__all__) == PUBLIC_NAMES
    namespace = {}
    exec("from quopitsim import *", namespace)
    for name in PUBLIC_NAMES:
        assert not name.startswith("_")
        assert namespace[name] is getattr(quopitsim, name)
