"""Block entropies of the radial lattice against a frozen 40-digit oracle.

S_l(A) in nats for N = 24 sites and A = the outer sites j > 12 (the
cut at r = 12.5), computed at 80 digits by tests/oracle/gen_area_oracle.py
with mpmath, a route that shares no code with qilab.  The test suite
never runs the generator; mpmath is not a dependency.
"""

import numpy as np
import pytest

from qilab import oscillators as osc

N, CUT = 24, 12
ORACLE = {
    0: "4.304200395396939407515977501470140681725e-1",
    10: "7.274048929524156926643063392367571048277e-2",
    1000: "3.237165352156586280023694669890379533241e-8",
}
# The largest relative error measured was 1.6e-14 (l = 0).
REL = 1e-13


@pytest.mark.parametrize("l", sorted(ORACLE))
def test_subsystem_entropy_matches_oracle(l):
    got = osc.subsystem_entropy(osc.radial_K(l, N), range(CUT, N))
    assert got == pytest.approx(float(ORACLE[l]), rel=REL, abs=0.0)


def test_area_law_engine_matches_oracle():
    ls = np.array(sorted(ORACLE))
    got = osc._shell_entropies(ls, N, [CUT])[0]
    want = [float(ORACLE[l]) for l in ls]
    assert got == pytest.approx(want, rel=REL, abs=0.0)
