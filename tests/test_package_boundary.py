"""What the package ships and how it guards its output.

The package exports the constructor, the partition bijection, the KG
check and the protocol; the test oracles live in tests/oracles.py and must
stay independent of the code they check. Checks on what the program
outputs raise exceptions, so they hold under ``python -O``; the one
assert left in src/ restates checks that already ran.
"""

import ast
import glob
import inspect
import os

import oracles
import wireid
from wireid import cable, matrices, partitions

PUBLIC_NAMES = [
    "BinaryMatrix",
    "CableInstance",
    "ConnectionPlan",
    "Construction",
    "ConstructionError",
    "END_A",
    "END_B",
    "InfeasibleOrderError",
    "KgPartition",
    "ProtocolError",
    "ProtocolTranscript",
    "Representation",
    "construct",
    "construct_matrix",
    "construct_trace",
    "feasible_orders",
    "kg_violations",
    "make_cable",
    "matrix_to_partition",
    "max_elements",
    "min_elements",
    "partition_from_json",
    "partition_to_json",
    "probe",
    "represent",
    "run_protocol",
    "transcript_to_json",
]

TEST_ONLY_NAMES = [
    "gale_ryser_feasible",
    "conjugate",
    "enumerate_matrices",
    "MAX_ENUMERATION_SIDE",
    "partition_to_matrix",
    "verify_kg",
    "transcript_from_json",
    "from_text",
]

# Functions allowed an assert, each because an explicit check has already
# established what the assert restates.
ALLOWED_ASSERTS: set[str] = set()


def test_public_surface_is_pinned():
    assert sorted(wireid.__all__) == PUBLIC_NAMES
    assert all(hasattr(wireid, name) for name in PUBLIC_NAMES)


def test_test_only_names_do_not_ship():
    for module in (wireid, matrices, partitions, cable):
        for name in TEST_ONLY_NAMES:
            assert not hasattr(module, name), (module.__name__, name)
    assert not hasattr(matrices.BinaryMatrix, "from_text")


def test_construction_error_is_one_class():
    assert wireid.ConstructionError is matrices.ConstructionError is partitions.ConstructionError


def test_oracles_stay_independent_of_the_code_they_check():
    tree = ast.parse(inspect.getsource(oracles))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    assert {"BinaryMatrix", "KgPartition", "ConnectionPlan"} <= names  # the walk sees the imports
    checked = {"construct_matrix", "_construct", "can_construct", "matrix_to_partition", "_cell_keys",
               "kg_violations"}
    assert not names & checked


def _assert_sites(node, scope):
    """(qualified scope, line) of every assert below node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Assert):
            yield scope, child.lineno
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _assert_sites(child, f"{scope}.{child.name}")
        else:
            yield from _assert_sites(child, scope)


def test_output_checks_are_not_asserts():
    package = os.path.dirname(os.path.abspath(wireid.__file__))
    paths = sorted(glob.glob(os.path.join(package, "*.py")))
    assert len(paths) >= 5
    stray, allowed_seen = [], set()
    for path in paths:
        module = os.path.splitext(os.path.basename(path))[0]
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=path)
        for scope, line in _assert_sites(tree, module):
            if scope in ALLOWED_ASSERTS:
                allowed_seen.add(scope)
            else:
                stray.append(f"{path}:{line} ({scope})")
    assert not stray, "asserts vanish under python -O; raise instead:\n" + "\n".join(stray)
    assert allowed_seen == ALLOWED_ASSERTS, "allow-listed scopes without an assert: " + ", ".join(
        sorted(ALLOWED_ASSERTS - allowed_seen))
