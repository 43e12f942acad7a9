"""repro.testing — the differential-oracle subsystem.

The library computes one quantity — the probability of a UCQ≠ on a
tuple-independent database — through many independent routes (brute-force
world enumeration, OBDD and d-DNNF compilation, the tree-automaton dynamic
program, lifted inference on safe queries, Karp–Luby sampling, dissociation
bounds).  This package turns that redundancy into infrastructure:

* :class:`ProbabilityOracle` evaluates one ``(query, instance)`` pair
  through every applicable algorithm of :data:`ORACLE_METHODS` (the
  product routes plus the reference algorithms that are not routes), asserts the exact routes agree as
  :class:`~fractions.Fraction` values, and asserts the approximate routes
  respect their guaranteed intervals;
* :func:`random_workload` produces seeded, reproducible ``(query, TID)``
  cases over the library's own treelike generator families;
* :func:`is_valid_decomposition` / :func:`decomposition_errors` check tree
  and path decompositions independently of the production ``validate``
  methods;
* :mod:`repro.testing.faults` injects deterministic faults (worker kills,
  stragglers, allocation failures, segment sabotage) into the parallel
  engine, so the chaos tests can assert recovery *and* exactness via the
  oracle.

``tests/test_differential.py`` and ``tests/test_structure_oracle.py`` drive
these against every backend; ``examples/differential_testing.py`` shows the
API.
"""

from repro.testing.decompositions import decomposition_errors, is_valid_decomposition
from repro.testing.faults import (
    DISK_FAULT_KINDS,
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    WorkerFaults,
    apply_parent_segment_faults,
    consume_token,
)
from repro.testing.oracle import (
    DEFAULT_EXACT_METHODS,
    ORACLE_METHODS,
    OracleDisagreement,
    OracleReport,
    ProbabilityOracle,
    oracle_probability,
)
from repro.testing.workloads import (
    DEFAULT_FAMILIES,
    WorkloadCase,
    random_cq,
    random_dyadic_probabilities,
    random_query,
    random_safe_cq,
    random_safe_query,
    random_safe_workload,
    random_workload,
    workload_pairs,
)

__all__ = [
    "DEFAULT_EXACT_METHODS",
    "DEFAULT_FAMILIES",
    "DISK_FAULT_KINDS",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "ORACLE_METHODS",
    "OracleDisagreement",
    "OracleReport",
    "ProbabilityOracle",
    "WorkerFaults",
    "WorkloadCase",
    "apply_parent_segment_faults",
    "consume_token",
    "decomposition_errors",
    "is_valid_decomposition",
    "oracle_probability",
    "random_cq",
    "random_dyadic_probabilities",
    "random_query",
    "random_safe_cq",
    "random_safe_query",
    "random_safe_workload",
    "random_workload",
    "workload_pairs",
]
