"""Uniform doubles from gradsurf.rng streams, for drawing test data.

The pipeline draws only integers from its streams; the tests also want
doubles, taken here from the top 53 bits of a stream's next output.
"""

from __future__ import annotations

from gradsurf.rng import Stream


def random(stream: Stream) -> float:
    """Uniform double in [0, 1) from the top 53 bits."""
    return (stream.next_u64() >> 11) * 2.0**-53


def uniform(stream: Stream, lo: float, hi: float) -> float:
    """Uniform double in [lo, hi)."""
    return lo + (hi - lo) * random(stream)
