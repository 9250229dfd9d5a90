"""Shared test settings and fixtures."""

import numpy as np
import pytest
from hypothesis import settings

from elcontrol import qpsolver

# every property test draws 25 examples and runs without a per-example deadline
settings.register_profile("elcontrol", max_examples=25, deadline=None)
settings.load_profile("elcontrol")


@pytest.fixture
def qp_infeasible_from_third_call(monkeypatch):
    """`qpsolver.solve` solves its first two problems and reports every later
    one infeasible, with a Farkas-style certificate."""
    real = qpsolver.solve
    calls = []

    def solve(problem):
        calls.append(None)
        if len(calls) < 3:
            return real(problem)
        return qpsolver.QpSolution(np.full(problem.n, np.nan), np.zeros(problem.r), (),
                                   "infeasible", 0, np.inf,
                                   {"violation_bound": 1.0,
                                    "farkas_multipliers": np.ones(problem.r),
                                    "farkas_gap": -float(problem.r),
                                    "farkas_stationarity": 0.0})

    monkeypatch.setattr(qpsolver, "solve", solve)
    return calls
