"""What the package ships and how it guards its output.

The package exports the constructor, the partition bijection, the KG
check and the protocol; the test oracles live in tests/oracles.py and must
stay independent of the code they check. Checks on what the program
outputs raise exceptions, so they hold under ``python -O``; no assert is
left in src/. A value the package builds itself may skip its class's
check through ``matrices._unchecked``, but only where pinned here; every
public constructor still checks input from outside. Every run is a fresh
process, so what ``import wireid.cli`` loads is pinned too.
"""

import ast
import glob
import inspect
import os
import subprocess
import sys

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

# (scope, class) of every _unchecked call in src/, each with the reason the
# skipped __post_init__ could not fail there.
ALLOWED_UNCHECKED = {
    ("matrices.BinaryMatrix.transpose", "BinaryMatrix"): "the transpose of a checked matrix",
    ("matrices.construct_matrix", "BinaryMatrix"): "_construct writes only 0s and 1s into m bytearrays of m",
    ("partitions.construct_trace", "BinaryMatrix"): "_construct's rows, as in construct_matrix",
    ("partitions.represent", "Representation"): "_canonical is what __post_init__ compares with",
    ("partitions.construct_trace", "KgPartition"): "labels 1..n ascending cut both sides in canonical order",
    ("cable.make_cable", "CableInstance"): "a shuffle of range(1, n + 1) is a bijection",
    ("cable.run_protocol", "ConnectionPlan"): "a valid pair's canonical sides, each with its own groups' size map",
}


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
               "_verdict", "_key_rows", "kg_violations"}
    assert not names & checked


def _scoped_nodes(node, scope):
    """(qualified scope, node) of every node below node."""
    for child in ast.iter_child_nodes(node):
        yield scope, child
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _scoped_nodes(child, f"{scope}.{child.name}")
        else:
            yield from _scoped_nodes(child, scope)


def _package_nodes():
    """(path, qualified scope, node) of every node in the package's modules."""
    package = os.path.dirname(os.path.abspath(wireid.__file__))
    paths = sorted(glob.glob(os.path.join(package, "*.py")))
    assert len(paths) >= 5
    for path in paths:
        module = os.path.splitext(os.path.basename(path))[0]
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=path)
        for scope, node in _scoped_nodes(tree, module):
            yield path, scope, node


def test_output_checks_are_not_asserts():
    stray, allowed_seen = [], set()
    for path, scope, node in _package_nodes():
        if not isinstance(node, ast.Assert):
            continue
        if scope in ALLOWED_ASSERTS:
            allowed_seen.add(scope)
        else:
            stray.append(f"{path}:{node.lineno} ({scope})")
    assert not stray, "asserts vanish under python -O; raise instead:\n" + "\n".join(stray)
    assert allowed_seen == ALLOWED_ASSERTS, "allow-listed scopes without an assert: " + ", ".join(
        sorted(ALLOWED_ASSERTS - allowed_seen))


def test_unchecked_builds_only_where_pinned():
    """Outside input must meet its class's check: _unchecked is called only at the pinned sites."""
    seen, stray = set(), []
    for path, scope, node in _package_nodes():
        if isinstance(node, ast.Call) and "_unchecked" in (getattr(node.func, "id", None),
                                                           getattr(node.func, "attr", None)):
            site = (scope, ast.unparse(node.args[0]) if node.args else None)
            if site in ALLOWED_UNCHECKED:
                seen.add(site)
            else:
                stray.append(f"{path}:{node.lineno} {site}")
    assert not stray, "unpinned _unchecked calls:\n" + "\n".join(stray)
    assert seen == ALLOWED_UNCHECKED.keys(), f"pinned sites without a call: {ALLOWED_UNCHECKED.keys() - seen}"


def test_the_cli_import_loads_neither_dataclasses_nor_inspect():
    """The records are _Frozen, not dataclasses: dataclasses imports inspect (and with it ast, dis, tokenize and
    linecache), which with the methods a dataclass generates cost a cold start about 10 ms. -S keeps site's .pth
    files, which may import either, out of the count."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(wireid.__file__)))
    script = "import sys, wireid.cli; print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
    flags = ["-S", *["-O"] * sys.flags.optimize]
    result = subprocess.run([sys.executable, *flags, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                            capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n", result.stdout
