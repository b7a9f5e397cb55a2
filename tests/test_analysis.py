"""Bounds, classification, feasibility table, difference classes, cosets."""

import random
import re
import time
from collections import Counter
from math import comb

import pytest

from nsqs import (
    InvalidModulusError,
    InvalidOrderError,
    PreconditionError,
    admissible,
    alternative_splits,
    block_points,
    bounds_profile,
    catalog_get,
    catalog_names,
    census_violations,
    classify,
    cyclotomic_cosets,
    doubling_a,
    feasibility_row,
    feasibility_table,
    half_partition,
    min_nd_pairs,
    min_nd_pairs_raised,
    pair_census,
    repartition,
    rotational_expand,
    total_pair_slots,
    verify_steiner,
)
from nsqs.analysis import (
    KNOWN_UNIFORM,
    UNMARKED,
    Candidate,
    Exclusion,
    FeasibilityRow,
    _survives,
    split_classes,
    uniform_obstruction,
)
from nsqs.cli import main
from nsqs.errors import NsqsError
from nsqs.search import _resolve_target, uniform


def test_admissible():
    assert [v for v in range(4, 30) if admissible(v)] == [
        4, 8, 10, 14, 16, 20, 22, 26, 28
    ]


def test_min_nd_pairs():
    assert min_nd_pairs(8) == 12
    assert min_nd_pairs(10) == 20
    assert min_nd_pairs_raised(10) == 25  # raised to v^2/4
    assert min_nd_pairs_raised(16) == 56
    assert min_nd_pairs_raised(22) == 121


def test_bounds_profile_v10():
    b = bounds_profile(10)
    assert b.block_count == 30
    assert b.total_pair_slots == 60
    assert b.max_mult == 4
    assert b.max_count_at_max == 5
    assert b.min_nd_pairs == 25
    assert b.max_nd_pairs == 45
    assert b.min_mult_upper == 3
    assert b.max_mult_lower == 2
    assert b.min_point_degree == 5


def test_bounds_profile_rejects_inadmissible():
    with pytest.raises(InvalidOrderError):
        bounds_profile(12)


def test_catalog_satisfies_all_bounds():
    for name in catalog_names():
        design = catalog_get(name).design()
        assert census_violations(pair_census(design)) == [], name


def test_every_known_table_cell_has_a_witness():
    # each "known" cell (v, ND-pairs) of the feasibility table is
    # certified by a Steiner system built here whose ND-pairs all share
    # one multiplicity, and no witness names a cell the table lacks
    designs = [
        catalog_get(name).design()
        for name in ("sqs8uniform", "sqs10", "ro20", "ro26", "ro38", "ro62", "bool32")
    ]
    designs += [
        doubling_a(catalog_get(name).design())
        for name in ("sqs8uniform", "ro20", "ro26", "bool32")
    ]
    cells = set()
    for design in designs:
        assert verify_steiner(design).ok
        cls = classify(design)
        assert cls.mu_min == cls.mu_max, (design.v, cls.kind)
        cells.add((design.v, cls.nd_pairs))
    assert cells == KNOWN_UNIFORM


def test_census_violations_detects_bad_total():
    census = pair_census(catalog_get("sqs10").design())
    bad = type(census)(v=10, counts={(0, 1): 60})
    msgs = census_violations(bad)
    assert any("max multiplicity" in m for m in msgs)
    assert any("below bound" in m for m in msgs)


def test_classify_catalog_kinds():
    expected = {
        "bool8": "quasi-uniform",
        "sqs8uniform": "complete-uniform",
        "sqs10": "uniform",
        "ro20": "complete-uniform",
        "ro26": "complete-uniform",
        "ro38": "complete-uniform",
        "ro62": "complete-uniform",
        "bool32": "complete-uniform",
    }
    for name, kind in expected.items():
        assert classify(catalog_get(name).design()).kind == kind, name


def test_half_partition_none_when_support_not_minimal():
    census = pair_census(catalog_get("sqs8uniform").design())
    assert half_partition(census) is None


# ---------------------------------------------------------------------------
# feasibility table, row-for-row against the published survey

# v -> (sorted candidate list [(nd_pairs, mu, status)], excluded endpoints)
TABLE_ORACLE = {
    8: ([(28, 1, "known")], {12}),
    10: ([(30, 2, "known")], {20, 45}),
    14: ([(91, 2, "open")], {42}),
    16: ([(56, 5, "known")], {120}),
    20: ([(190, 3, "known")], {90}),
    22: ([(154, 5, "open")], {110, 231}),
    26: ([(260, 5, "open"), (325, 4, "known")], {156}),
    28: ([(182, 9, "unmarked")], {378}),
    32: ([(496, 5, "known")], {240}),
    34: ([(374, 8, "open")], {272, 561}),
    38: ([(703, 6, "known")], {342}),
    40: ([(380, 13, "known")], {780}),
    44: ([(946, 7, "open")], {462}),
    46: ([(690, 11, "open"), (759, 10, "open")], {506, 1035}),
    50: ([(700, 14, "open"), (1225, 8, "open")], {600}),
    52: ([(650, 17, "known")], {1326}),
    56: ([(924, 15, "open"), (1260, 11, "open"), (1540, 9, "unmarked")], {756}),
    58: ([(1102, 14, "open")], {812, 1653}),
    62: ([(1891, 10, "known")], {930}),
    64: ([(992, 21, "known")], {2016}),
}


def test_feasibility_table_matches_survey_row_for_row():
    rows = feasibility_table(8, 64)
    assert [r.v for r in rows] == sorted(TABLE_ORACLE)
    for row in rows:
        cands, excluded = TABLE_ORACLE[row.v]
        got = [(c.nd_pairs, c.mu, c.status) for c in row.candidates]
        assert got == cands, f"v={row.v}"
        assert {e.nd_pairs for e in row.exclusions} == excluded, f"v={row.v}"
        assert row.total_pair_slots == total_pair_slots(row.v)
        assert row.max_nd == comb(row.v, 2)


def test_feasibility_candidate_kinds():
    row = feasibility_row(26)
    kinds = {c.nd_pairs: c.kind for c in row.candidates}
    assert kinds == {260: "intermediate", 325: "complete"}
    row = feasibility_row(16)
    assert [c.kind for c in row.candidates] == ["minimum"]


def test_mod12_minimum_exclusions():
    for v in (10, 22, 34, 46, 58):
        row = feasibility_row(v)
        reasons = {e.nd_pairs: e.reason for e in row.exclusions}
        assert "v^2/4" in reasons[min_nd_pairs(v)]


def test_candidate_slots_multiply_out():
    for row in feasibility_table(8, 64):
        for c in row.candidates:
            assert c.nd_pairs * c.mu == row.total_pair_slots


def _scan_feasibility_row(v):
    """Reference: the row from a scan of every m in [min_nd, C(v, 2)]."""
    total = total_pair_slots(v)
    lo = min_nd_pairs(v)
    hi = comb(v, 2)
    candidates = []
    for m in range(lo, hi + 1):
        mu = _survives(v, m)
        if mu is None:
            continue
        kind = "complete" if m == hi else "minimum" if m == lo else "intermediate"
        if (v, m) in KNOWN_UNIFORM:
            status = "known"
        elif (v, m) in UNMARKED:
            status = "unmarked"
        else:
            status = "open"
        candidates.append(Candidate(nd_pairs=m, mu=mu, kind=kind, status=status))
    exclusions = []
    if _survives(v, lo) is None:
        if v % 12 in (2, 10):
            reason = "minimum excluded: ND-pair count below v^2/4 for v = 2, 10 (mod 12)"
        else:
            reason = "minimum excluded: multiplicity (v-1)/3 not an integer"
        exclusions.append(Exclusion(nd_pairs=lo, reason=reason))
    if _survives(v, hi) is None:
        exclusions.append(
            Exclusion(
                nd_pairs=hi,
                reason="complete excluded: multiplicity (v-2)/6 not an integer",
            )
        )
    return FeasibilityRow(
        v=v,
        total_pair_slots=total,
        min_nd=lo,
        min_nd_raised=min_nd_pairs_raised(v),
        max_nd=hi,
        candidates=tuple(candidates),
        exclusions=tuple(exclusions),
    )


def test_feasibility_row_equals_scan():
    for v in range(8, 257):
        if admissible(v):
            assert feasibility_row(v) == _scan_feasibility_row(v), f"v={v}"


def test_feasibility_row_rejects_inadmissible():
    for v in (3, 7, 12):
        with pytest.raises(InvalidOrderError):
            feasibility_row(v)


def test_feasibility_rows_at_scale(capsys):
    # a scan of every m would take O(v^2) steps per row, ~2e8 here
    start = time.perf_counter()
    row = feasibility_row(19996)
    assert main(["table", "--min", "19990", "--max", "20000"]) == 0
    assert time.perf_counter() - start < 5
    assert [c.nd_pairs * c.mu for c in row.candidates] == (
        [row.total_pair_slots] * len(row.candidates)
    )
    out = capsys.readouterr().out
    assert [line.split()[0] for line in out.splitlines() if line.startswith("v=")] == [
        "v=19990", "v=19994", "v=19996", "v=20000"
    ]


# ---------------------------------------------------------------------------
# the uniform screen, against the two copies it replaced

def reference_survives(v, m):
    """The table's screen as it stood before it shared the search's."""
    total = total_pair_slots(v)
    if total % m:
        return None
    mu = total // m
    if ((v - 1) * (v - 2) // 6) % mu:
        return None
    if (2 * m) % v:
        return None
    if m < min_nd_pairs_raised(v):
        return None
    return mu


def reference_uniform_branch(v, mu, nd_pairs):
    """The search's uniform screen as it stood: a refusal reason, or the
    pinned (mu, ND-pair count)."""
    total = total_pair_slots(v)
    if mu is None or mu < 1:
        raise NsqsError("uniform target needs mu >= 1")
    if total % mu:
        return f"multiplicity {mu} does not divide the total pair count {total}"
    m = nd_pairs if nd_pairs is not None else total // mu
    if m * mu != total:
        return (
            f"{m} ND-pairs at multiplicity {mu} gives {m * mu} pair slots, "
            f"but the total is {total}"
        )
    if m < min_nd_pairs_raised(v):
        if v % 12 in (2, 10) and m >= min_nd_pairs(v):
            return (
                f"ND-pair count {m} is below the v^2/4 lower bound "
                f"{v * v // 4} for v = 2, 10 (mod 12)"
            )
        return (
            f"ND-pair count {m} is below the lower bound "
            f"{min_nd_pairs(v)}"
        )
    if m > comb(v, 2):
        return f"ND-pair count {m} exceeds the number of pairs {comb(v, 2)}"
    if ((v - 1) * (v - 2) // 6) % mu:
        return (
            f"multiplicity {mu} does not divide the per-point block "
            f"count {(v - 1) * (v - 2) // 6}"
        )
    if (2 * m) % v:
        return f"v={v} does not divide twice the ND-pair count {m}"
    if mu > (v - 2) // 2:
        return f"multiplicity {mu} exceeds the maximum {(v - 2) // 2}"
    return (mu, m)


def _divisors(n):
    small = [d for d in range(1, int(n**0.5) + 1) if n % d == 0]
    return sorted({*small, *(n // d for d in small)})


def _screen_cases():
    """(v, mu, pinned ND-pair count or None) for every admissible v <= 256
    and every v <= 40: every divisor m of the total at mu = total / m,
    every mu in 1..v with the count free, and the counts 0 and
    C(v, 2) + 1.  The rotational search screens any order p + 1 before
    anything checks its spec, and only inadmissible orders trip the last
    two checks: twice the count at v = 6, say, and the maximum at v <= 3."""
    for v in range(1, 257):
        if v > 40 and not admissible(v):
            continue
        total = total_pair_slots(v)
        for m in _divisors(total) if total else ():
            yield v, total // m, m
        for mu in range(1, v + 1):
            yield v, mu, None
            yield v, mu, 0
            yield v, mu, comb(v, 2) + 1


def test_uniform_obstruction_matches_reference():
    verdicts = Counter()
    for v, mu, m in _screen_cases():
        expected = reference_uniform_branch(v, mu, m)
        reason = uniform_obstruction(v, mu, m)
        resolved = _resolve_target(uniform(mu, m), v)
        if isinstance(expected, str):
            assert reason == resolved == expected, (v, mu, m)
        else:
            assert reason is None, (v, mu, m)
            assert (resolved.mu_lo, resolved.nd_pairs) == expected, (v, mu, m)
        verdicts[re.sub(r"-?\d+", "N", reason or "pass")] += 1
    # a pass and each of the eight reasons occur, so no check goes untested
    assert len(verdicts) == 9, sorted(verdicts)


def test_survives_matches_reference():
    """The table's screen is the search's: equal to the old one on every
    divisor m <= C(v, 2), and None above it, which the old screen never
    checked and the table never asks."""
    pairs = 0
    for v in range(4, 257):
        if not admissible(v):
            continue
        for m in _divisors(total_pair_slots(v)):
            if m <= comb(v, 2):
                assert _survives(v, m) == reference_survives(v, m), (v, m)
                pairs += 1
            else:
                assert _survives(v, m) is None, (v, m)
    assert pairs == 2901


# ---------------------------------------------------------------------------
# difference censuses

def reference_difference_census(spec):
    """The ND-pair multiplicities predicted for an expanded rotational
    spec: a finite pair gets the count of its difference class over the
    base blocks' splits, and each pair through the fixed point |M| times
    the base-block pairs through it."""
    p = spec.p
    class_counts = Counter(
        key for block in spec.base_blocks
        for key in split_classes(block, p, spec.multipliers)
    )
    counts = {}
    for d, c in class_counts.items():
        for x in range(p):
            a, b = x, (x + d) % p
            counts[(a, b) if a < b else (b, a)] = c
    inf_count = len(spec.multipliers) * sum(
        p in pair for block in spec.base_blocks for pair in block
    )
    if inf_count:
        for x in range(p):
            counts[(x, p)] = inf_count
    return counts


@pytest.mark.parametrize("name", ["ro20", "ro26", "ro38", "ro62", "bool32"])
def test_difference_census_equals_expansion_census(name):
    spec = catalog_get(name).payload
    predicted = reference_difference_census(spec)
    actual = pair_census(rotational_expand(spec)).counts
    assert predicted == dict(actual)


def test_split_classes_pair_by_pair():
    # pairs through the fixed point have no class
    assert split_classes(((0, 1), (3, 19)), 19, (1,)) == [1]
    # (0, 5): 5 -> class 2, 10 = 3 -> 3; (1, 3): 2 -> 2, 4 -> 3
    assert split_classes(((0, 5), (1, 3)), 7, (1, 2)) == [2, 3, 2, 3]


def test_difference_census_inf_count_forced():
    spec = catalog_get("ro62").payload
    counts = reference_difference_census(spec)
    inf_blocks = sum(1 for b in spec.base_blocks if spec.p in block_points(b))
    assert counts[(0, spec.p)] == inf_blocks * len(spec.multipliers) == 10


# ---------------------------------------------------------------------------
# cosets

def test_cyclotomic_cosets_mod7():
    cosets = cyclotomic_cosets(7)
    assert cosets.cosets == ((1, 2, 4), (3, 6, 5))


def test_cyclotomic_cosets_mod31():
    cosets = cyclotomic_cosets(31)
    assert len(cosets.cosets) == 6
    assert all(len(c) == 5 for c in cosets.cosets)


def test_cyclotomic_cosets_rejects_even():
    with pytest.raises(InvalidModulusError):
        cyclotomic_cosets(8)


@pytest.mark.parametrize("m", [(1 << 20) + 1, 10**18 + 1])
def test_cyclotomic_cosets_refuses_huge_modulus(m):
    with pytest.raises(InvalidModulusError, match=f"got {m}"):
        cyclotomic_cosets(m)


@pytest.mark.parametrize(
    "lo,hi,error",
    [
        (10**18, 10**18 + 10, r"^need orders <= 1000000, got 1000000000000000010$"),
        (10**6 - 10**4 + 1, 10**6 + 1, r"^need orders <= 1000000, got 1000001$"),
        (10**6 - 10**4, 10**6, r"^need at most 10000 orders, got 10001$"),
        (-(10**18), 8, r"^need at most 10000 orders, got 1000000000000000009$"),
    ],
)
def test_feasibility_table_bounds_its_work(lo, hi, error):
    with pytest.raises(PreconditionError, match=error):
        feasibility_table(lo, hi)


def test_feasibility_table_edges_of_its_bounds():
    # the largest order and the most orders are accepted; an empty range
    # is an empty table, as before
    assert [r.v for r in feasibility_table(10**6, 10**6)] == [10**6]
    assert [r.v for r in feasibility_table(-9991, 8)] == [4, 8]
    assert feasibility_table(64, 8) == []


# ---------------------------------------------------------------------------
# randomized bound invariants (acceptance criterion 10 backs onto this)

def test_random_repartitions_respect_bounds():
    rng = random.Random(20260823)
    for name in ("bool8", "sqs8uniform", "sqs10", "ro20"):
        design = catalog_get(name).design()
        for _ in range(50):
            i = rng.randrange(len(design.blocks))
            pts = block_points(design.blocks[i])
            design = repartition(design, i, rng.choice(alternative_splits(pts)))
            assert census_violations(pair_census(design)) == []
