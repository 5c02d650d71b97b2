import sys
from pathlib import Path

# the benchmark's modules, as perfbench/tests/conftest.py puts them on the path
# but behind the tests' own: both directories hold an `oracles` module
sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))

import spans  # noqa: E402


def test_every_traced_name_resolves():
    # the tracer wraps each target where callers look it up; a missing name
    # would stop a traced benchmark run before its first operation
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in spans.TARGETS
               if not callable(getattr(owner, attr, None))]
    assert missing == []
