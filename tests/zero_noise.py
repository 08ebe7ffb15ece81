"""The exact-answer fake: oracles whose every noise row is -0.0.

``x + (-0.0) == x`` for every float x, signed zeros included, so a query
answered through ``ZeroNoise`` gets exactly the answer its value gives, with
the oracle's own admission, charging, logging and tournament paths.  On the
equal-budget adapter that is the mean of m_i equal rounds (``np.mean`` starts
from 0.0, so a -0.0 value reads as 0.0) plus a -0.0 top-up.
``Generator.normal`` is never called.
"""

import numpy as np

from privsel.oracle import BudgetOracle, EqualBudgetAdapter


class ZeroNoise:
    """Mixin for a BudgetOracle class: ``_noise`` returns rows of -0.0 in the
    shape that class's own ``_noise`` returns."""

    def _noise(self, count, rho_i):
        if isinstance(self, EqualBudgetAdapter):  # m_i round noises, then a top-up if any
            plan = self._plan(rho_i)
            row = plan.per_query_repeats + (plan.topup_variance > 0)
            return np.full(row if count is None else (count, row), -0.0)
        return -0.0 if count is None else np.full(count, -0.0)


class ExactOracle(ZeroNoise, BudgetOracle):
    pass


class ExactAdapter(ZeroNoise, EqualBudgetAdapter):
    pass
