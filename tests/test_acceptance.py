"""Acceptance battery: one test per criterion, each printed as a pass/fail
line.  Criteria and tolerances live in polylogvar.acceptance; criterion 9
(byte reproducibility of the suite command) runs the CLI twice end to end.
"""

import subprocess
import sys

import pytest

from polylogvar import acceptance


def _report(result):
    line = f"{'PASS' if result.passed else 'FAIL'} criterion {result.number}: {result.name}"
    print(line)
    assert result.passed, f"criterion {result.number} failed: {result.details}"


def test_criterion_1_integral_identity():
    _report(acceptance.criterion_1())


def test_criterion_2_flatness():
    _report(acceptance.criterion_2())


def test_criterion_3_monodromy_rationality_unipotence():
    _report(acceptance.criterion_3())


def test_criterion_4_trivial_sub_kummer_quotient():
    _report(acceptance.criterion_4())


def test_criterion_5_derham_relations():
    _report(acceptance.criterion_5())


def test_criterion_6_eulerian_polynomials():
    _report(acceptance.criterion_6())


def test_criterion_7_arnold_poset_suite():
    _report(acceptance.criterion_7())


def test_criterion_8_paving():
    _report(acceptance.criterion_8())


@pytest.mark.slow
def test_criterion_9_suite_determinism():
    cmd = [sys.executable, "-m", "polylogvar", "suite"]
    r1 = subprocess.run(cmd, capture_output=True, timeout=1200)
    r2 = subprocess.run(cmd, capture_output=True, timeout=1200)
    assert r1.returncode == 0, r1.stdout.decode()[-2000:]
    assert r1.stdout == r2.stdout
    print("PASS criterion 9: suite output is byte-reproducible")
