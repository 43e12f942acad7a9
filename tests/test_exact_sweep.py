"""Differential tests for the integer exact sweeps (tier-1, also run without numpy).

Both exact probability kernels — the object sweep
(:meth:`repro.booleans.obdd.OBDD.sweep`) and the columnar pass
(:class:`repro.booleans.columnar.ColumnarOBDD`) — compute in integers over one
common denominator and build a single :class:`~fractions.Fraction` at the
end.  These tests check them against the seed recursive Fraction walk
(:func:`repro.booleans.reference.probability_recursive`) on real lineages and
on probabilities chosen to stress that scheme: dyadic, prime denominators,
100-bit fractions, the degenerate 0 and 1, and ``int``/``float`` inputs.
They also pin the unchanged contracts around the pass: the missing-probability
error, deadline checkpoints every ``_CHECKPOINT_STRIDE`` nodes, and float
paths that compute exactly what they computed before.
"""

import random
from fractions import Fraction

import pytest

from repro.booleans import columnar as columnar_module
from repro.booleans import obdd as obdd_module
from repro.booleans.columnar import ColumnarOBDD, array_backend, columnar_from_obdd
from repro.booleans.obdd import FALSE_NODE, OBDD, TRUE_NODE
from repro.booleans.reference import probability_recursive
from repro.errors import DeadlineExceeded, LineageError
from repro.provenance.compile_obdd import compile_query_to_obdd
from repro.resilience import ResourceBudget
from repro.testing import random_workload

PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97]


def _dyadic(rng):
    return Fraction(rng.randint(0, 16), 16)


def _prime(rng):
    d = rng.choice(PRIMES)
    return Fraction(rng.randint(1, d - 1), d)


def _wide(rng):
    return Fraction(rng.getrandbits(100), (1 << 100) + rng.getrandbits(20) + 1)


def _degenerate(rng):
    return Fraction(rng.randint(0, 1))


def _builtin(rng):
    return rng.choice([0, 1, 0.5, 0.25, 0.1, 0.3, 1 / 3])


def _mixed(rng):
    return rng.choice([_dyadic, _prime, _wide, _degenerate, _builtin])(rng)


WEIGHTINGS = {
    "dyadic": _dyadic,
    "prime": _prime,
    "100-bit": _wide,
    "zero-one": _degenerate,
    "int-float": _builtin,
    "mixed": _mixed,
}


def _compiled_workload(count, seed):
    cases = random_workload(count, seed=seed, max_facts=10)
    return [(case, compile_query_to_obdd(case.query, case.tid.instance)) for case in cases]


WORKLOAD = _compiled_workload(24, seed=1409)


@pytest.mark.parametrize("weighting", sorted(WEIGHTINGS))
def test_both_kernels_match_the_recursive_walk_on_workload_obdds(weighting):
    draw = WEIGHTINGS[weighting]
    rng = random.Random(weighting)
    for case, compiled in WORKLOAD:
        probabilities = {f: draw(rng) for f in case.tid.instance}
        expected = probability_recursive(compiled.manager, compiled.root, probabilities)
        value = compiled.manager.sweep(compiled.root, probabilities).probability
        assert type(value) is Fraction and value == expected, str(case)
        flat = columnar_from_obdd(compiled.manager, compiled.root, compiled.order)
        assert flat.probability(probabilities) == expected, str(case)


def test_probability_many_exact_matches_the_walk():
    rng = random.Random(7)
    for case, compiled in WORKLOAD[:8]:
        maps = [{f: _mixed(rng) for f in case.tid.instance} for _ in range(4)]
        flat = compiled.to_columnar()
        values = flat.probability_many(maps, exact=True)
        assert values == [
            probability_recursive(compiled.manager, compiled.root, weights) for weights in maps
        ]
        assert all(type(value) is Fraction for value in values)


def test_array_columns_match_the_walk(monkeypatch):
    monkeypatch.setenv("REPRO_NO_NUMPY", "1")
    assert array_backend() is None
    rng = random.Random(11)
    for case, compiled in WORKLOAD[:8]:
        flat = columnar_from_obdd(compiled.manager, compiled.root, compiled.order)
        assert flat.var.__class__.__module__ == "array"
        maps = [{f: _mixed(rng) for f in case.tid.instance} for _ in range(3)]
        assert flat.probability_many(maps, exact=True) == [
            probability_recursive(compiled.manager, compiled.root, weights) for weights in maps
        ]


def _chain(levels):
    """The OR of ``levels`` variables: one decision node per level."""
    manager = OBDD([f"x{i}" for i in range(levels)])
    root = FALSE_NODE
    for level in reversed(range(levels)):
        root = manager.make_node(level, root, TRUE_NODE)
    return manager, root


def test_terminals_and_an_empty_columnar_diagram():
    manager, _ = _chain(3)
    assert manager.probability(TRUE_NODE, {}) == Fraction(1)
    assert manager.probability(FALSE_NODE, {}) == Fraction(0)
    assert ColumnarOBDD(("x",), [], [], [], TRUE_NODE).probability({}) == Fraction(1)


def test_missing_probability_on_a_reachable_level_raises():
    manager, root = _chain(4)
    probabilities = {f"x{i}": Fraction(1, 3) for i in range(4)}
    del probabilities["x2"]
    with pytest.raises(LineageError, match="missing probability for variable 'x2'"):
        manager.probability(root, probabilities)
    with pytest.raises(LineageError, match="missing probability for variable 'x2'"):
        columnar_from_obdd(manager, root).probability(probabilities)
    # A level the diagram never tests needs no probability.
    partial = OBDD(["a", "b", "c"])
    node = partial.make_node(2, FALSE_NODE, TRUE_NODE)
    assert partial.probability(node, {"c": Fraction(2, 7)}) == Fraction(2, 7)
    assert columnar_from_obdd(partial, node).probability({"c": Fraction(2, 7)}) == Fraction(2, 7)


class _CountingBudget(ResourceBudget):
    """Counts checkpoints and raises DeadlineExceeded at the ``fail_at``-th."""

    def __init__(self, fail_at=None):
        super().__init__()
        self.calls = 0
        self.fail_at = fail_at

    def checkpoint(self):
        self.calls += 1
        if self.calls == self.fail_at:
            raise DeadlineExceeded("deadline passed during the sweep")


@pytest.mark.parametrize("kernel", ["object", "columnar"])
def test_deadline_checkpoints_every_stride_during_the_exact_pass(kernel):
    assert obdd_module._CHECKPOINT_STRIDE == columnar_module._CHECKPOINT_STRIDE
    stride = obdd_module._CHECKPOINT_STRIDE
    levels = 2 * stride + 17
    manager, root = _chain(levels)
    probabilities = {f"x{i}": Fraction(1, 3) for i in range(levels)}
    flat = columnar_from_obdd(manager, root)

    def sweep():
        if kernel == "object":
            return manager.probability(root, probabilities)
        return flat.probability(probabilities)

    # The object sweep checkpoints once up front, both every stride nodes.
    upfront = 1 if kernel == "object" else 0
    budget = _CountingBudget()
    with budget.activate():
        value = sweep()
    assert value == 1 - Fraction(2, 3) ** levels
    assert budget.calls == upfront + levels // stride

    interrupted = _CountingBudget(fail_at=upfront + 1)
    with interrupted.activate():
        with pytest.raises(DeadlineExceeded):
            sweep()


def _float_walk(manager, root, probabilities):
    """The float sweep's arithmetic, node by node in the same order."""
    values = {FALSE_NODE: 0.0, TRUE_NODE: 1.0}
    order = manager.variable_order
    reachable = sorted(manager.reachable_nodes(root), key=lambda n: manager._nodes[n][0])
    for node in reversed(reachable):
        level, low, high = manager._nodes[node]
        p = float(probabilities[order[level]])
        values[node] = p * values[high] + (1 - p) * values[low]
    return min(max(values[root], 0.0), 1.0)


def test_float_paths_are_unchanged():
    rng = random.Random(5)
    for case, compiled in WORKLOAD:
        probabilities = {f: _builtin(rng) for f in case.tid.instance}
        expected = _float_walk(compiled.manager, compiled.root, probabilities)
        assert compiled.probability(probabilities, exact=False) == expected
        flat = columnar_from_obdd(compiled.manager, compiled.root, compiled.order)
        if array_backend() is None:
            # The no-numpy columnar float pass shares the scalar arithmetic.
            assert flat.probability(probabilities, exact=False) == expected
        else:
            assert flat.probability(probabilities, exact=False) == pytest.approx(expected)
