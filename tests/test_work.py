"""The work ledger (``tests/work.py``) is a pure function of the code.

Its quick slice prints the same lines twice in one process, and leaves the
modules it counts as they were.  No count is pinned here: the ledger is read
by comparing two versions' outputs.
"""

import numpy as np

from apdgof import apd, numerics, score
from tests import work


def test_quick_slice_is_the_same_twice_and_restores_the_modules():
    locate = score._locate
    lines = work.ledger(quick=True)
    assert lines == work.ledger(quick=True)
    assert any(" stage=solve " in line for line in lines) and any(" stage=law " in line for line in lines)
    assert score.np is apd.np is numerics.np is np
    assert score._locate is locate
