"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines inline;
under plain pytest they appear in captured output.
"""

import contextlib
import time
from collections import Counter

import pytest

from nsqs import (
    PreconditionError,
    SearchSpec,
    alternative_splits,
    block_points,
    boolean_sqs,
    catalog_get,
    census_violations,
    classify,
    complete_uniform,
    doubling_a,
    doubling_b,
    feasibility_table,
    local_balance,
    nested_design,
    pair_census,
    repartition,
    rotational_expand,
    rotational_spec,
    search_nesting,
    search_rotational,
    uniform,
    verify_steiner,
)
from nsqs.analysis import split_classes
import random


@contextlib.contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {title}")
        raise
    print(f"PASS criterion {number}: {title}")


def _point_sets(design):
    return [tuple(sorted(b[0] + b[1])) for b in design.blocks]


def test_criterion_1_boolean_construction():
    with criterion(1, "Boolean construction block counts and verification"):
        start = time.monotonic()
        for n, count in [(2, 1), (3, 14), (4, 140), (5, 1240)]:
            design = boolean_sqs(n)
            assert len(design.blocks) == count
            assert verify_steiner(design).ok
        fixture = catalog_get("bool8").design()
        assert {block_points(b) for b in boolean_sqs(3).blocks} == {
            block_points(b) for b in fixture.blocks
        }
        assert time.monotonic() - start < 1.0


def test_criterion_2_census_reproduction():
    with criterion(2, "census of the order-8 fixtures"):
        assert pair_census(catalog_get("bool8").design()).histogram() == {
            2: 8,
            3: 4,
        }
        assert pair_census(catalog_get("sqs8uniform").design()).histogram() == {
            1: 28
        }


def test_criterion_3_catalog_expansions():
    with criterion(3, "rotational and Boolean catalog expansions"):
        expected = {
            "ro20": (285, 3, 190),
            "ro26": (650, 4, 325),
            "ro38": (2109, 6, 703),
            "ro62": (9455, 10, 1891),
            "bool32": (1240, 5, 496),
        }
        for name, (blocks, mu, nd_pairs) in expected.items():
            start = time.monotonic()
            design = catalog_get(name).design()
            assert len(design.blocks) == blocks, name
            cls = classify(design)
            assert cls.kind == "complete-uniform", name
            assert cls.mu_min == cls.mu_max == mu, name
            assert cls.nd_pairs == nd_pairs, name
            # total pair slots double the block count
            assert pair_census(design).total == 2 * blocks
            assert time.monotonic() - start < 5.0, name


def test_criterion_4_doubling_a():
    with criterion(4, "doubling A gives the minimum-uniform SQS(16)"):
        d16 = doubling_a(catalog_get("sqs8uniform").design())
        cls = classify(d16)
        assert cls.kind == "minimum-uniform"
        assert cls.nd_pairs == 56
        assert cls.mu_min == cls.mu_max == 5
        assert cls.half_partition == (tuple(range(8)), tuple(range(8, 16)))


def test_criterion_5_doubling_b():
    with criterion(5, "doubling B census on the SQS(16)"):
        d16 = doubling_b(catalog_get("sqs8uniform").design())
        census = pair_census(d16)
        assert census.histogram() == {2: 112, 7: 8}
        assert census.nd_pair_count == 120
        assert census.total == 280


def test_criterion_6_repartition_script():
    with criterion(6, "the 16 scripted moves and the alternate scheme"):
        v = 8
        base = doubling_b(catalog_get("sqs8uniform").design())

        # 16 type-II blocks {(i,0),(i,1),(i+s,0),(i+s,1)}, s in {1,2},
        # re-split from same-point pairs to within-side pairs
        design = base
        for step in (1, 2):
            for i in range(8):
                j = (i + step) % 8
                index = {block_points(b): k for k, b in enumerate(design.blocks)}
                idx = index[frozenset({i, i + v, j, j + v})]
                design = repartition(design, idx, ((min(i, j), max(i, j)),
                                                   (min(i, j) + v, max(i, j) + v)))
        assert pair_census(design).histogram() == {2: 80, 3: 40}
        assert classify(design).kind == "quasi-uniform"

        # alternate scheme: every type-II block {(x,0),(x,1),(y,0),(y,1)}
        # becomes [{(x,0),(y,1)}, {(x,1),(y,0)}]
        design = base
        for x in range(8):
            for y in range(x + 1, 8):
                index = {block_points(b): k for k, b in enumerate(design.blocks)}
                idx = index[frozenset({x, x + v, y, y + v})]
                design = repartition(design, idx, ((x, y + v), (y, x + v)))
        census = pair_census(design)
        assert census.histogram() == {2: 56, 3: 56}
        assert census.nd_pair_count == 112  # 8 of the 120 pairs are not ND
        assert classify(design).kind == "quasi-uniform"


def test_criterion_7_feasibility_table():
    with criterion(7, "feasibility table matches the survey for v=8..64"):
        rows = {r.v: r for r in feasibility_table(8, 64)}
        def cands(v):
            return [(c.nd_pairs, c.mu) for c in rows[v].candidates]
        assert cands(10) == [(30, 2)]
        assert {e.nd_pairs for e in rows[10].exclusions} == {20, 45}
        assert cands(22) == [(154, 5)]
        assert cands(46) == [(690, 11), (759, 10)]
        assert cands(56) == [(924, 15), (1260, 11), (1540, 9)]
        for v in (10, 22, 34, 46, 58):
            reasons = {e.nd_pairs: e.reason for e in rows[v].exclusions}
            assert "v^2/4" in reasons[(v // 2) * (v // 2 - 1)]
        # full cross-check against the transcribed survey lives in
        # tests/test_analysis.py::test_feasibility_table_matches_survey_row_for_row
        from test_analysis import TABLE_ORACLE

        for v, (expected_cands, excluded) in TABLE_ORACLE.items():
            assert [
                (c.nd_pairs, c.mu, c.status) for c in rows[v].candidates
            ] == expected_cands, f"v={v}"
            assert {e.nd_pairs for e in rows[v].exclusions} == excluded, f"v={v}"


def test_criterion_8_search_success():
    with criterion(8, "rotational and flat searches find uniform nestings"):
        spec = catalog_get("ro20").payload
        stripped = rotational_spec(
            spec.p,
            [alternative_splits(block_points(b))[0] for b in spec.base_blocks],
            spec.multipliers,
        )
        start = time.monotonic()
        out = search_rotational(stripped, SearchSpec(complete_uniform()))
        assert out.status == "found"
        assert out.stats.nodes <= 10**7
        assert time.monotonic() - start < 60
        assert classify(rotational_expand(out.witness)).kind == "complete-uniform"

        start = time.monotonic()
        out = search_nesting(
            _point_sets(catalog_get("sqs10").design()), SearchSpec(uniform(2))
        )
        assert out.status == "found"
        assert time.monotonic() - start < 60
        cls = classify(out.witness)
        assert cls.kind == "uniform" and cls.mu_min == cls.mu_max == 2


def test_criterion_9_search_refusal():
    with criterion(9, "infeasible target refused citing the v^2/4 bound"):
        out = search_nesting(
            _point_sets(catalog_get("sqs10").design()), SearchSpec(uniform(3))
        )
        assert out.status == "refused"
        assert out.stats.nodes == 0
        assert "v^2/4" in out.reason


def test_criterion_10_property_suites():
    with criterion(10, "randomized bound invariants and census laws"):
        start = time.monotonic()
        rng = random.Random(1)
        for name in ("bool8", "sqs8uniform", "sqs10", "ro20", "ro26",
                     "ro38", "ro62", "bool32"):
            design = catalog_get(name).design()
            for _ in range(200):
                i = rng.randrange(len(design.blocks))
                pts = block_points(design.blocks[i])
                design = repartition(
                    design, i, rng.choice(alternative_splits(pts))
                )
            assert census_violations(pair_census(design)) == [], name

        for name in ("ro20", "ro26", "ro38", "ro62", "bool32"):
            # each difference class has one multiplicity, and each pair
            # through the fixed point (v-2)/6
            spec = catalog_get(name).payload
            p = spec.p
            classes = Counter(
                c for b in spec.base_blocks for c in split_classes(b, p, spec.multipliers)
            )
            predicted = {(x, p): (spec.v - 2) // 6 for x in range(p)}
            for d, c in classes.items():
                for x in range(p):
                    y = (x + d) % p
                    predicted[min(x, y), max(x, y)] = c
            actual = pair_census(rotational_expand(spec)).counts
            assert predicted == dict(actual), name

        for name in ("sqs8uniform", "bool8", "sqs10"):
            base_design = catalog_get(name).design()
            base = pair_census(base_design)
            v = base_design.v
            doubled = doubling_a(base_design)
            census = pair_census(doubled)
            for (a, b), count in census.counts.items():
                assert (a < v) == (b < v), name
                x, y = sorted((a % v, b % v))
                assert count == v // 2 + base.counts.get((x, y), 0), name
            if name == "sqs8uniform":
                doubled = doubling_b(base_design)
                census = pair_census(doubled)
                for (a, b), count in census.counts.items():
                    x, y = a % v, b % v
                    if x == y:
                        assert count == v - 1
                    else:
                        assert count == 2 * base.counts[(min(x, y), max(x, y))]
            if name == "sqs10":
                with pytest.raises(PreconditionError):
                    doubling_b(base_design)
        assert time.monotonic() - start < 60
