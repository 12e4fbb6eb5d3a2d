"""The paper's contribution: joint caching + load balancing optimization.

- :mod:`repro.core.problem` — the joint optimization problem (Eq. 9).
- :mod:`repro.core.caching_lp` — subproblem ``P1`` (Eq. 18) with exact
  integral solutions (Theorem 1) via min-cost flow or LP.
- :mod:`repro.core.load_balancing` — subproblem ``P2`` (Eq. 19) and the
  exact load-balancing oracle for fixed caches.
- :mod:`repro.core.primal_dual` — Algorithm 1 (primal-dual), for one
  problem or a lockstep stack of independent windows.
- :mod:`repro.core.offline` — the offline optimal policy wrapper.
- :mod:`repro.core.rounding` — the CHC rounding policy (Theorem 3).
- :mod:`repro.core.online` — RHC / AFHC / CHC controllers (Section IV).
- :mod:`repro.core.exhaustive` — brute-force oracle for tiny instances.
"""

from repro.core.problem import JointProblem
from repro.core.primal_dual import (
    PrimalDualResult,
    WindowProblem,
    solve_primal_dual,
    solve_primal_dual_stack,
)
from repro.core.rounding import optimal_rounding_threshold, round_caching

__all__ = [
    "JointProblem",
    "PrimalDualResult",
    "WindowProblem",
    "optimal_rounding_threshold",
    "round_caching",
    "solve_primal_dual",
    "solve_primal_dual_stack",
]
