"""A hypothesis test that fails on purpose.

A failing hypothesis test must be reported with its falsifying example, under
the repository's pytest settings (every warning an error), not end the run in
an INTERNALERROR.  Run it alone from the repository root:

    python -m pytest -q ci/failing_hypothesis_probe.py

and expect exit code 1 and "Falsifying example" in the output.  Its name and
place keep it out of the tier-1 suite, which collects only tests/test_*.py.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from vesprod import CobbDouglasParams, eval_intensive


@settings(derandomize=True, database=None)
@given(k=st.floats(0.5, 2.0))
def test_fails_on_purpose(k):
    assert eval_intensive(CobbDouglasParams(A=2.0, beta=0.4), k) < 2.0
