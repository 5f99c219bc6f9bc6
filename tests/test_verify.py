"""Property: the invariant suite holds at every seed, and its fault injection trips it."""

from hypothesis import given, strategies as st

from liquid_ssm.verify import run_suite

from helpers import PROPERTY


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1))
def test_suite_passes_and_poison_fails(seed):
    failing = [c.name for c in run_suite(seed) if not c.passed]
    assert failing == []
    assert any(not c.passed for c in run_suite(seed, poison=True))
