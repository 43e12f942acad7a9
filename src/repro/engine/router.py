"""Dichotomy router support: route decisions and measured cost models.

The paper's two tractability routes — query-based lifted inference and
instance-based circuit compilation — meet in
:meth:`repro.engine.CompilationEngine.choose_route`: given a query and a
TID instance, pick the evaluation method for ``method="auto"``.  This
module is the one place that names the routes (:data:`ROUTES`,
:data:`METHOD_NAMES`) and holds the passive data behind that choice:

* :class:`RouteDecision` — the chosen method plus everything that went
  into it (liftability, instance size, per-route cost estimates, which
  routes were gated infeasible, a human-readable reason), recorded so the
  CLI and tests can explain routing;
* :class:`RouteCostModel` — per-route cost rates in seconds per fact,
  seeded with static priors and updated from measured evaluations
  (exponentially weighted moving average), so a session learns the actual
  relative costs of its routes on its own workload.

Cost estimates are deliberately ``float`` seconds: they steer which exact
route runs, they never enter a probability computation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ProbabilityError

#: Every evaluation route, one per regime: the lifted plan for safe queries
#: (Section 9), then the two instance-side routes of Theorem 4.2 — lineage
#: compiled to an OBDD, and the tree-automaton dynamic program.  The order
#: is both the router's tie-break preference and the failover chain of
#: ``method="auto"``.
ROUTES: tuple[str, ...] = ("safe_plan", "obdd", "automaton")

#: The circuit-building routes the router arbitrates against the lifted
#: plan: both exact, both requiring work over the whole instance.
CIRCUIT_ROUTES: tuple[str, ...] = ("obdd", "automaton")

#: Every accepted ``method=`` string: ``auto`` (routing and failover) plus
#: one name per route (the CLI ``--method`` choices).
METHOD_NAMES: tuple[str, ...] = ("auto",) + ROUTES

#: Prior cost rates in seconds per fact, from the benchmark suite's orders
#: of magnitude: a lifted plan streams the hash indexes once; the circuit
#: routes enumerate lineage matches or automaton states on top.
DEFAULT_COST_PRIORS: dict[str, float] = {
    "safe_plan": 5e-6,
    "obdd": 2e-4,
    "automaton": 5e-4,
}


def check_method(method: str) -> None:
    """Reject a ``method=`` string that names no route."""
    if method not in METHOD_NAMES:
        raise ProbabilityError(
            f"unknown probability method {method!r}; use one of {', '.join(METHOD_NAMES)}"
        )


@dataclass(frozen=True, slots=True)
class RouteAttempt:
    """One try in a ``method="auto"`` failover chain.

    ``error`` is empty on success, else a one-line description of the
    typed failure (budget blowout, deadline, route-specific error) that
    pushed the engine to the next route.
    """

    route: str
    error: str
    seconds: float

    @property
    def succeeded(self) -> bool:
        return not self.error


@dataclass(frozen=True, slots=True)
class RouteDecision:
    """One ``method="auto"`` routing decision, with its evidence.

    ``estimates`` holds ``(route, predicted_seconds)`` for every feasible
    route (in preference order); ``infeasible`` names the routes gated out
    by the circuit fact limit.  ``method`` is always one of the estimate
    routes when any route is feasible, else the best-effort fallback.

    After an evaluation, ``attempts`` records the failover chain actually
    walked (the engine re-publishes the decision with them filled in);
    ``degraded`` marks answers served by the opt-in ``karp_luby``
    degradation tier after every exact route failed.
    """

    method: str
    liftable: bool
    instance_facts: int
    estimates: tuple[tuple[str, float], ...]
    infeasible: tuple[str, ...]
    reason: str
    attempts: tuple[RouteAttempt, ...] = ()
    degraded: bool = False


class RouteCostModel:
    """EWMA per-route cost rates (seconds per fact).

    ``observe`` folds a measured evaluation into the route's rate;
    ``predict`` extrapolates to an instance size.  Rates start at the
    static priors, so the router is usable from the first call and simply
    gets sharper as the session measures its own workload.

    Failed attempts (budget blowouts, route-specific errors) are recorded
    by :meth:`record_failure` as a *penalty* — a separate multiplier of
    ``2**failures`` (capped) on the route's prediction — never as a fake
    timing observation, so blowouts steer the router away from a route
    without poisoning the EWMA rate that successful runs keep sharpening.
    Each subsequent success halves the penalty back down.
    """

    #: Cap on the failure-penalty exponent: at most a ``2**6 = 64``-fold
    #: prediction inflation, so a recovered route can win again after a
    #: handful of successes elsewhere rather than being exiled forever.
    MAX_FAILURE_PENALTY_EXPONENT = 6

    def __init__(
        self,
        priors: dict[str, float] | None = None,
        smoothing: float = 0.3,
    ) -> None:
        self._rates: dict[str, float] = dict(
            DEFAULT_COST_PRIORS if priors is None else priors
        )
        self._smoothing = smoothing
        self._failures: dict[str, int] = {}

    def observe(self, route: str, facts: int, seconds: float) -> None:
        """Fold one measured evaluation into the route's rate."""
        if seconds < 0.0:
            return
        rate = seconds / max(facts, 1)
        previous = self._rates.get(route)
        if previous is None:
            self._rates[route] = rate
        else:
            self._rates[route] = (
                previous + self._smoothing * (rate - previous)
            )
        failures = self._failures.get(route, 0)
        if failures:
            # A success is evidence the route recovered: decay the penalty.
            if failures > 1:
                self._failures[route] = failures // 2
            else:
                del self._failures[route]

    def record_failure(self, route: str) -> None:
        """Record one failed attempt (blowout or error) on a route."""
        self._failures[route] = self._failures.get(route, 0) + 1

    def failure_count(self, route: str) -> int:
        """Current (decayed) failure count for a route."""
        return self._failures.get(route, 0)

    def failure_counts(self) -> dict[str, int]:
        """A copy of every route's current failure count."""
        return dict(self._failures)

    def predict(self, route: str, facts: int) -> float:
        """Predicted evaluation cost in seconds at ``facts`` facts.

        Routes with recorded failures are penalized by ``2**failures``
        (exponent capped) on top of the measured rate.
        """
        rate = self._rates.get(route, max(DEFAULT_COST_PRIORS.values()))
        exponent = min(
            self._failures.get(route, 0), self.MAX_FAILURE_PENALTY_EXPONENT
        )
        return rate * max(facts, 1) * (1 << exponent)

    def rate(self, route: str) -> float | None:
        """The current rate for a route (None when never seen)."""
        return self._rates.get(route)

    def snapshot(self) -> dict[str, float]:
        """A copy of every route's current rate."""
        return dict(self._rates)
