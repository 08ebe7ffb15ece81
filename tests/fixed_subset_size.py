"""The fixed-size fake: generators whose subset-size draw returns one size.

``check_good_subset_rate`` draws every trial's subset-size exponent with its
generator's first ``integers`` call.  ``FixedSizeGenerator`` answers that
call with ``kt`` for every trial and draws nothing; every other call goes to
the real generator it wraps.  So a check run through it makes, after the size
draw, exactly the draws it would make had every trial drawn ``kt``, and its
rate is the rate conditioned on that subset size.
"""

import numpy as np


class FixedSizeGenerator:
    """A numpy Generator whose first ``integers`` call is size exponents kt."""

    def __init__(self, rng: np.random.Generator, kt: int):
        self._rng = rng
        self._kt = kt
        self._sized = False

    def integers(self, *args, size=None, **kwargs):
        if self._sized:
            return self._rng.integers(*args, size=size, **kwargs)
        self._sized = True
        return np.full(size, self._kt, dtype=np.int64)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def fix_subset_size(monkeypatch, kt: int) -> None:
    """Until monkeypatch undoes it, np.random.default_rng(seed) returns a
    FixedSizeGenerator over the generator it would have returned."""
    make = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed=None: FixedSizeGenerator(make(seed), kt))
