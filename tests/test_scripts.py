"""Smoke tests: the scripts under scripts/ run against the current package."""

import os
import subprocess
import sys

import pytest

import wireid

SRC = os.path.dirname(os.path.dirname(os.path.abspath(wireid.__file__)))
SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def run_script(name, *args, timeout=60):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, name), *args],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


def test_protocol_demo_labels_every_wire_consistently():
    result = run_script("protocol_demo.py", "--n", "26", "--seed", "3")
    assert result.returncode == 0, result.stderr
    assert result.stdout.rstrip().endswith("all wires labeled consistently at both ends.")


def test_bounds_experiment_reports_the_exceptional_sizes():
    result = run_script("bounds_experiment.py", "--max-m", "8", "--scan-n", "200")
    assert result.returncode == 0, result.stderr
    assert "n with no feasible order in 1..200: [2, 5, 9]" in result.stdout


def test_stdout_digest_pins_the_small_sweep():
    # Hashes exit statuses, stdout and stderr of every request for n < 20;
    # a change to any of those bytes changes the digest.
    result = run_script("stdout_digest.py", "--max-n", "20")
    assert result.returncode == 0, result.stderr
    assert result.stdout == "5f1161c77f4808bc30311a7b7222e07fc87da0cd2e23cff4e769f1420354dfa1\n"


@pytest.mark.slow
def test_stdout_digest_pins_the_default_sweep():
    # Every n below 200 and n = 1000, 5000 and 20000, also construct at the
    # largest order of each large n, where the small sweep stops at n < 20.
    result = run_script("stdout_digest.py", timeout=600)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "4337f4f3dae1d2e4c4f6710898dd1df38f4ccab969da86077f5c922474915fc3\n"
