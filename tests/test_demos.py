"""Every script in demos/ runs to completion and prints exactly what the
golden record holds for it (``golden_record.py``)."""

import pytest

from golden_record import DEMOS, assert_matches, load, run_demo

RECORD = load()["demos"]


@pytest.mark.parametrize("script", DEMOS)
def test_demo_runs(script):
    assert_matches(RECORD[script], *run_demo(script))
