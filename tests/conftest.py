import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, os.path.dirname(__file__))


def pytest_runtest_teardown(item, nextitem):
    """After the last test under tests/, clear every polylogvar
    ``lru_cache``, so that a run that goes on into perfbench/ in the same
    process meets the memo caches as cold as a run of perfbench alone."""
    if nextitem is not None and Path(__file__).parent in nextitem.path.parents:
        return
    for name, module in list(sys.modules.items()):
        if name == "polylogvar" or name.startswith("polylogvar."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


@pytest.fixture
def first_step_off(monkeypatch):
    """Patch ``analytic._step_row`` so that the first disk step after the
    patch leaves Li_1, entry 1 of the row, 1 too large.  The Li_1 row
    steps additively (its new value is the old one plus the sum of
    p^k / k), so every later step carries that error unchanged.  In
    monodromy's entry (0, 1) it is i / (2 pi), about 0.16 i, beyond the
    proved radius at n = 3, 1/16."""
    from polylogvar import analytic

    step, done = analytic._step_row, []

    def off(r_re, r_im, c, z1, terms, F):
        out_re, out_im = step(r_re, r_im, c, z1, terms, F)
        if not done:
            out_re[0] += 1 << F
            done.append(True)
        return out_re, out_im

    monkeypatch.setattr(analytic, "_step_row", off)
