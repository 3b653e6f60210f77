"""Acceptance criteria, one test per criterion.

Each test prints one `criterion NN PASS/FAIL` line (run pytest with -rA or
-s to see the lines for passing tests) and asserts both the property and
its runtime budget.  Criterion 07 compares the worked square-root example
of the DG^2 fixed point with two literal reference strings; those strings
are derived from the brute-force oracles alone in tests/test_sqroot.py.
"""

import time

from sturmrep.verify import (
    PINNED_ROOT_LIST,
    PINNED_SQRT_58,
    SQRT_PSI,
    run_suite,
)
from sturmrep.dynamics import fixed_point_stream
from sturmrep.morphisms import parse_genword
from sturmrep.sqroot import iter_square_roots, sqrt_fixing_morphism, square_root_stream

SEED = 0


def _run(number, name, budget, samples=None):
    t0 = time.perf_counter()
    result = run_suite(name, samples, SEED)
    elapsed = time.perf_counter() - t0
    status = "PASS" if result.ok and elapsed < budget else "FAIL"
    print(f"criterion {number:02d} [{name}] {status} ({elapsed:.2f}s < {budget}s): {result.details}")
    assert result.ok, result.details
    assert elapsed < budget, f"{name} took {elapsed:.2f}s, budget {budget}s"


def test_criterion_01_presentation_relations():
    _run(1, "relations", budget=1)


def test_criterion_02_faithfulness_to_length_7():
    _run(2, "faithfulness", budget=30)


def test_criterion_03_membership_roundtrip_and_mutations():
    _run(3, "roundtrip", budget=60, samples=1000)


def test_criterion_04_parameter_commutation():
    _run(4, "commutation", budget=60, samples=200)


def test_criterion_05_fixed_point_reproduction():
    _run(5, "fixed-points", budget=60, samples=100)


def test_criterion_06_conjugacy_counts():
    _run(6, "conjugacy", budget=60)


def test_criterion_07_sqrt_example_reproduction():
    t0 = time.perf_counter()
    word = parse_genword("DGG")
    result = sqrt_fixing_morphism(word)
    psi_ok = result.power == 2 and result.morphism == SQRT_PSI
    stream = fixed_point_stream(word)
    roots_it = iter_square_roots(stream)
    roots = ",".join(next(roots_it) for _ in range(16))
    sqrt58 = square_root_stream(stream).prefix(58)
    elapsed = time.perf_counter() - t0
    ok = psi_ok and roots == PINNED_ROOT_LIST and sqrt58 == PINNED_SQRT_58
    print(
        f"criterion 07 [sqrt-example] {'PASS' if ok and elapsed < 5 else 'FAIL'} "
        f"({elapsed:.2f}s < 5s): psi/k {'ok' if psi_ok else 'MISMATCH'}, "
        f"root list {'ok' if roots == PINNED_ROOT_LIST else 'MISMATCH'}, "
        f"58-prefix {'ok' if sqrt58 == PINNED_SQRT_58 else 'MISMATCH'}"
    )
    assert psi_ok, (result.power, str(result.morphism))
    assert elapsed < 5
    assert (roots, sqrt58) == (PINNED_ROOT_LIST, PINNED_SQRT_58), (
        f"root list {roots!r} != pinned {PINNED_ROOT_LIST!r}; "
        f"58-prefix {sqrt58!r} != pinned {PINNED_SQRT_58!r}"
    )


def test_criterion_08_sqrt_theorem_properties():
    _run(8, "sqrt-theorem", budget=300, samples=50)


def test_criterion_09_yasutomi_necessary_condition():
    _run(9, "yasutomi", budget=30, samples=200)


def test_criterion_10_dekking_pairs():
    _run(10, "dekking", budget=120, samples=50)
