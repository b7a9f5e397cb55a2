"""Nesting search: refusal, backtracking, rotational, local balance."""

import hashlib
import sys

import pytest

from nsqs import (
    NsqsError,
    PreconditionError,
    SearchSpec,
    alternative_splits,
    block_points,
    boolean_sqs,
    catalog_get,
    classify,
    complete_uniform,
    doubling_b,
    local_balance,
    minimum_uniform,
    pair_census,
    quasi_uniform,
    rotational_expand,
    rotational_spec,
    search_nesting,
    search_rotational,
    serialize_base_spec,
    serialize_design,
    uniform,
    verify_steiner,
)
from nsqs.search import band


def _call_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def _witness_digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _point_sets(name):
    design = catalog_get(name).design()
    return [tuple(sorted(b[0] + b[1])) for b in design.blocks]


def _stripped_spec(name):
    spec = catalog_get(name).payload
    return rotational_spec(
        spec.p,
        [alternative_splits(block_points(b))[0] for b in spec.base_blocks],
        spec.multipliers,
    )


def test_refusal_uniform3_on_sqs10():
    out = search_nesting(_point_sets("sqs10"), SearchSpec(uniform(3)))
    assert out.status == "refused"
    assert out.stats.nodes == 0
    assert "v^2/4" in out.reason
    assert "25" in out.reason


def test_refusal_nondividing_mu():
    out = search_nesting(_point_sets("sqs10"), SearchSpec(uniform(7)))
    assert out.status == "refused"
    assert out.stats.nodes == 0
    assert "divide" in out.reason


def test_refusal_minimum_uniform_v10():
    out = search_nesting(_point_sets("sqs10"), SearchSpec(minimum_uniform()))
    assert out.status == "refused"
    assert "v^2/4" in out.reason


def test_search_finds_uniform2_on_sqs10():
    out = search_nesting(_point_sets("sqs10"), SearchSpec(uniform(2)))
    assert out.status == "found"
    assert verify_steiner(out.witness).ok
    cls = classify(out.witness)
    assert cls.kind == "uniform"
    assert cls.nd_pairs == 30
    assert cls.mu_min == cls.mu_max == 2


def test_search_finds_complete_uniform_on_sqs8():
    out = search_nesting(_point_sets("sqs8uniform"), SearchSpec(complete_uniform()))
    assert out.status == "found"
    assert classify(out.witness).kind == "complete-uniform"


def test_search_deterministic_under_seed():
    blocks = _point_sets("sqs10")
    a = search_nesting(blocks, SearchSpec(uniform(2), seed=7))
    b = search_nesting(blocks, SearchSpec(uniform(2), seed=7))
    assert a.witness == b.witness
    assert a.stats.nodes == b.stats.nodes


@pytest.mark.parametrize("mu", [0, -2])
def test_uniform_target_needs_positive_mu(mu):
    with pytest.raises(NsqsError, match="mu >= 1"):
        search_nesting(_point_sets("sqs10"), SearchSpec(uniform(mu)))


def test_search_rejects_empty_block_list():
    with pytest.raises(PreconditionError, match="block list is empty"):
        search_nesting([], SearchSpec(uniform(2)))


def test_band_target_needs_nonnegative_lower_bound():
    with pytest.raises(NsqsError, match="0 <= mu_lo <= mu_hi"):
        search_nesting(_point_sets("sqs10"), SearchSpec(band(-5, 10**9)))


def test_band_target_upper_bound_may_exceed_any_count():
    out = search_nesting(_point_sets("sqs10"), SearchSpec(band(1, 10**9), seed=1))
    assert out.status == "found"
    assert out.stats.nodes == 30


def test_search_budget_exceeded():
    out = search_nesting(_point_sets("sqs10"), SearchSpec(uniform(2), node_budget=3))
    assert out.status == "budget-exceeded"
    assert out.stats.nodes == 3


def test_search_rejects_non_steiner_input():
    blocks = _point_sets("sqs10")[:-1]
    with pytest.raises(PreconditionError):
        search_nesting(blocks, SearchSpec(uniform(2)))


# Block-level searches: (design, target, seed, node budget, status, nodes,
# prunes, sha256 prefix of the serialized witness).  Recorded from the
# recursive engine (ro38 under a raised recursion limit).  bool4 is
# boolean_sqs(4); its quasi_uniform(2) case runs the deficit prune.
BLOCK_TARGETS = {
    "uniform2": uniform(2),
    "minimum": minimum_uniform(),
    "band24": band(2, 4),
    "complete": complete_uniform(),
    "quasi2": quasi_uniform(2),
}
BLOCK_PINS = [
    ("sqs10", "uniform2", None, 5000, "found", 618,
     {"no-feasible-split": 112, "pair-unliftable": 119}, "b6c1ad90bab08a25"),
    ("sqs10", "uniform2", 0, 5000, "found", 344,
     {"no-feasible-split": 41, "pair-unliftable": 80}, "d5b6714e0c3a6347"),
    ("sqs10", "uniform2", 1, 5000, "found", 210,
     {"no-feasible-split": 30, "pair-unliftable": 49}, "e756e62f307c8529"),
    ("sqs10", "uniform2", 2, 5000, "found", 144,
     {"no-feasible-split": 24, "pair-unliftable": 25}, "4dac5a142030a698"),
    ("sqs10", "uniform2", 3, 5000, "found", 759,
     {"no-feasible-split": 116, "pair-unliftable": 157}, "fbd65f81ddead81b"),
    ("sqs10", "uniform2", 7, 5000, "found", 191,
     {"no-feasible-split": 21, "pair-unliftable": 48}, "8ff6d1297c65527c"),
    ("bool4", "minimum", None, 100_000, "found", 1017,
     {"no-feasible-split": 13, "pair-unliftable": 471}, "368488029e5365a0"),
    ("bool4", "minimum", 1, 100_000, "found", 18213,
     {"no-feasible-split": 293, "pair-unliftable": 10949}, "f2889962df9f5557"),
    ("bool4", "minimum", 5, 100_000, "found", 44142,
     {"no-feasible-split": 2019, "pair-unliftable": 24107}, "18abdc9fc0de1df4"),
    ("bool4", "minimum", 2, 100_000, "budget-exceeded", 100_002,
     {"no-feasible-split": 6, "pair-unliftable": 66392}, None),
    ("bool4", "band24", 1, 10**8, "found", 972,
     {"deficit-exceeds-capacity": 110, "pair-unliftable": 403}, "e4a5280aca0683ff"),
    ("bool4", "quasi2", None, 5000, "budget-exceeded", 5000,
     {"deficit-exceeds-capacity": 632, "no-feasible-split": 2, "pair-unliftable": 1425},
     None),
    ("ro20", "complete", None, 5000, "budget-exceeded", 5000,
     {"no-feasible-split": 212, "pair-unliftable": 55}, None),
    ("ro38", "complete", None, 20_000, "budget-exceeded", 20_000,
     {"no-feasible-split": 1295, "pair-unliftable": 735}, None),
]


@pytest.mark.parametrize(
    "name,target,seed,budget,status,nodes,prunes,witness", BLOCK_PINS
)
def test_search_nesting_pinned(
    name, target, seed, budget, status, nodes, prunes, witness
):
    blocks = (
        [b[0] + b[1] for b in boolean_sqs(4).blocks]
        if name == "bool4"
        else _point_sets(name)
    )
    spec = SearchSpec(BLOCK_TARGETS[target], node_budget=budget, seed=seed)
    out = search_nesting(blocks, spec)
    assert out.status == status
    assert out.stats.nodes == nodes
    assert dict(out.stats.prunes) == prunes
    if witness is None:
        assert out.witness is None
    else:
        assert _witness_digest(serialize_design(out.witness)) == witness


def test_search_nesting_has_no_depth_limit():
    blocks = _point_sets("ro38")
    assert len(blocks) == 2109
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_call_depth() + 20)
    try:
        out = search_nesting(blocks, SearchSpec(complete_uniform(), node_budget=3000))
    finally:
        sys.setrecursionlimit(limit)
    assert out.status == "budget-exceeded"
    assert out.stats.nodes == 3000
    assert dict(out.stats.prunes) == {"no-feasible-split": 225, "pair-unliftable": 56}


def test_rotational_search_recovers_ro20():
    out = search_rotational(_stripped_spec("ro20"), SearchSpec(complete_uniform()))
    assert out.status == "found"
    design = rotational_expand(out.witness)
    assert classify(design).kind == "complete-uniform"
    assert out.stats.nodes <= 10**7


def test_rotational_search_recovers_ro62():
    out = search_rotational(_stripped_spec("ro62"), SearchSpec(complete_uniform()))
    assert out.status == "found"
    assert classify(rotational_expand(out.witness)).kind == "complete-uniform"


# Seeded orbit searches on stripped base blocks: (entry, target, seed, node
# budget, status, nodes, prunes, sha256 prefix of the serialized witness).
# uniform(5) on ro26 is refused: the pairs through the fixed point are
# forced to multiplicity 4.
ROTATIONAL_PINS = [
    ("ro20", "complete", None, None, "found", 23, {"no-feasible-split": 2}, "69987953d34d1148"),
    ("ro20", "complete", 2, None, "found", 107, {"no-feasible-split": 27}, "ec23a8847d543b60"),
    ("ro20", "complete", 3, None, "found", 51, {"no-feasible-split": 10}, "df73a79d9cc05eb9"),
    ("ro26", "complete", None, None, "found", 26, {}, "585f82856e0f5c71"),
    ("ro26", "complete", 3, None, "found", 64, {"no-feasible-split": 7}, "ec2d02f286f03f77"),
    ("ro26", "uniform5", 4, 400, "refused", 0, {}, None),
    ("bool32", "complete", 1, None, "found", 8, {}, "3c2c2e00d3492e0f"),
    ("ro38", "complete", 1, 3000, "budget-exceeded", 3000, {"no-feasible-split": 718}, None),
    ("ro38", "complete", 5, 3000, "found", 709, {"no-feasible-split": 158}, "7f957f082de87e85"),
]


@pytest.mark.parametrize(
    "name,target,seed,budget,status,nodes,prunes,witness", ROTATIONAL_PINS
)
def test_rotational_search_pinned(
    name, target, seed, budget, status, nodes, prunes, witness
):
    spec = SearchSpec(
        complete_uniform() if target == "complete" else uniform(5),
        node_budget=budget or 10**8,
        seed=seed,
    )
    out = search_rotational(_stripped_spec(name), spec)
    assert out.status == status
    assert out.stats.nodes == nodes
    assert dict(out.stats.prunes) == prunes
    if witness is None:
        assert out.witness is None
    else:
        assert _witness_digest(serialize_base_spec(out.witness)) == witness


def test_rotational_search_has_no_depth_limit():
    spec = _stripped_spec("ro38")
    assert len(spec.base_blocks) == 57
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_call_depth() + 20)
    try:
        out = search_rotational(spec, SearchSpec(complete_uniform(), seed=5))
    finally:
        sys.setrecursionlimit(limit)
    assert out.status == "found"
    assert out.stats.nodes == 709


def test_rotational_search_refuses_bad_order():
    out = search_rotational(_stripped_spec("ro20"), SearchSpec(minimum_uniform()))
    assert out.status == "refused"
    assert out.stats.nodes == 0


def test_rotational_search_refuses_support_off_the_classes():
    # one more inf base block forces the fixed-point pairs to 5, which
    # uniform(5) allows, but its 260 ND-pairs are not a multiple of p = 25
    spec = catalog_get("ro26").payload
    inf_block = next(b for b in spec.base_blocks if spec.p in b[0] + b[1])
    padded = rotational_spec(
        spec.p, list(spec.base_blocks) + [inf_block], spec.multipliers
    )
    out = search_rotational(padded, SearchSpec(uniform(5), node_budget=400))
    assert out.status == "refused"
    assert out.stats.nodes == 0
    assert "260 ND-pairs" in out.reason


# local_balance runs: (design, mu_lo, mu_hi, max_moves, status, moves,
# sha256 prefix of the serialized witness).  Recorded from the version
# that re-scored every block at every move.  bool5 toward [4, 6] reaches
# a local optimum after 128 moves; sqs8uniform.b is doubling_b of
# sqs8uniform.  stats.nodes counts score evaluations, so it is not pinned.
BALANCE_PINS = [
    ("bool5", 4, 6, 20, "exhausted", 20, "6b02d9fffbdff957"),
    ("bool5", 4, 6, 400, "exhausted", 128, "1f325991dd67b3c6"),
    ("bool6", 9, 11, 3, "exhausted", 3, "0364638e1e1f3c76"),
    ("sqs8uniform.b", 2, 3, 10_000, "found", 16, "96d93b811bd98f5b"),
    ("sqs10", 2, 2, 10_000, "found", 0, "5fd7ac0c52216c2f"),
    ("ro38", 5, 7, 10_000, "found", 0, "7ecab2fbecc5ee27"),
]


@pytest.mark.parametrize("name,lo,hi,max_moves,status,moves,witness", BALANCE_PINS)
def test_local_balance_pinned(name, lo, hi, max_moves, status, moves, witness):
    if name.startswith("bool"):
        design = boolean_sqs(int(name[4:]))
    elif name.endswith(".b"):
        design = doubling_b(catalog_get(name[:-2]).design())
    else:
        design = catalog_get(name).design()
    out = local_balance(design, lo, hi, max_moves)
    assert out.status == status
    assert out.stats.moves == moves
    assert _witness_digest(serialize_design(out.witness)) == witness


def test_local_balance_reaches_quasi_uniform():
    d16 = doubling_b(catalog_get("sqs8uniform").design())
    out = local_balance(d16, 2, 3)
    assert out.status == "found"
    assert out.stats.moves == 16
    census = pair_census(out.witness)
    assert census.histogram() == {2: 80, 3: 40}
    assert classify(out.witness).kind == "quasi-uniform"
    assert verify_steiner(out.witness).ok


def test_local_balance_noop_on_uniform_design():
    d = catalog_get("sqs10").design()
    out = local_balance(d, 2, 2)
    assert out.status == "found"
    assert out.stats.moves == 0
    assert out.witness == d


def test_local_balance_respects_budget():
    d16 = doubling_b(catalog_get("sqs8uniform").design())
    out = local_balance(d16, 2, 3, max_moves=2)
    assert out.status == "exhausted"
    assert out.stats.moves == 2


def test_quasi_uniform_target_search():
    out = search_nesting(_point_sets("bool8"), SearchSpec(quasi_uniform(2)))
    assert out.status == "found"
    census = pair_census(out.witness)
    assert set(census.histogram()) <= {2, 3}


@pytest.mark.parametrize("lo,hi", [(3, 1), (-4, -1)])
def test_local_balance_rejects_empty_or_negative_band(lo, hi):
    # the band target refuses the same bounds with the same condition
    with pytest.raises(NsqsError, match=r"local balance needs 0 <= mu_lo <= mu_hi"):
        local_balance(catalog_get("sqs10").design(), lo, hi)
