"""The benchmark tracer must find every function it patches.

bench/spans.py wraps noisylearn's public functions by name from outside
the package. A rename in src/ would otherwise only surface when the
benchmark runs; here it fails the unit suite.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_timed_tracer_finds_every_target():
    sys.path.insert(0, str(BENCH))
    try:
        import spans
    finally:
        sys.path.remove(str(BENCH))
    tracer = spans.Tracer(timed=True)
    originals = [getattr(t.owner, t.attr, None) for t in tracer.targets]
    with tracer:      # raises spans.MissingTarget if a name is gone
        assert all(getattr(t.owner, t.attr) is not fn
                   for t, fn in zip(tracer.targets, originals))
    assert all(getattr(t.owner, t.attr) is fn
               for t, fn in zip(tracer.targets, originals))
