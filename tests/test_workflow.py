"""The CI workflow is valid YAML, and one step runs every slow test."""

import os

import pytest

WORKFLOW = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), ".github", "workflows",
                        "tests.yml")


def workflow_lines():
    with open(WORKFLOW, encoding="utf-8") as workflow:
        return workflow.read().splitlines()


def test_the_workflow_parses():
    yaml = pytest.importorskip("yaml")
    with open(WORKFLOW, encoding="utf-8") as workflow:
        steps = yaml.safe_load(workflow)["jobs"]["quick"]["steps"]
    assert all(isinstance(step, dict) and {"uses", "run"} & set(step) for step in steps)
    assert all(isinstance(step["name"], str) for step in steps if "name" in step)


def test_no_step_name_holds_an_unquoted_colon_and_space():
    # A plain YAML scalar cannot hold ": ", so such a step name makes the whole file invalid (and CI runs
    # nothing). This check needs no YAML parser.
    names = [line.split("name:", 1)[1].strip() for line in workflow_lines()
             if line.strip().startswith(("name:", "- name:"))]
    assert len(names) > 4
    unquoted = [name for name in names if name[:1] not in "\"'" and (": " in name or name.endswith(":"))]
    assert not unquoted, unquoted


def test_one_step_runs_every_slow_test():
    # By the marker alone: a slow test added to any file runs, where per-file steps would miss it.
    runs = [line.split("run:", 1)[1].strip() for line in workflow_lines() if line.strip().startswith("run:")]
    assert [run for run in runs if "-m slow" in run] == ["python -m pytest -q -m slow"]
