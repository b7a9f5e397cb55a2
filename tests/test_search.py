"""Nesting search: refusal, backtracking, rotational, local balance."""

import copy
import dataclasses
import functools
import gc
import hashlib
import operator
import pickle
import random
import sys
import time
from collections import Counter
from itertools import chain, count
from typing import Optional

import pytest

from nsqs import (
    InconsistentSpecError,
    NsqsError,
    PreconditionError,
    RotationalSpec,
    SearchSpec,
    alternative_splits,
    block_points,
    boolean_rotational_design,
    boolean_sqs,
    catalog_get,
    classify,
    complete_uniform,
    doubling_b,
    local_balance,
    minimum_uniform,
    orbit_spec,
    pair_census,
    parse_base_spec,
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
from nsqs import constructions, search
from nsqs.analysis import split_classes
from nsqs.search import SearchStats, SearchTarget, band


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


# the stop cause a search with the default time budget reports for
# each outcome status
STOPS = {
    "found": "found",
    "exhausted": "exhausted",
    "budget-exceeded": "node-budget",
    "refused": "refused",
}


def test_refusal_uniform3_on_sqs10():
    out = search_nesting(_point_sets("sqs10"), SearchSpec(uniform(3)))
    assert out.status == "refused"
    assert out.stats.nodes == 0
    assert out.stats.stop == "refused"
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


@pytest.mark.parametrize(
    "target,reason",
    [
        (SearchTarget("quasi-uniform", mu_lo=2, mu_hi=3, nd_pairs=10**6),
         "ND-pair count 1000000 exceeds the number of pairs 190"),
        (SearchTarget("quasi-uniform", mu_lo=2, mu_hi=3, nd_pairs=-3),
         "ND-pair count -3 is negative"),
        (SearchTarget("band", mu_lo=1, mu_hi=4, nd_pairs=191),
         "ND-pair count 191 exceeds the number of pairs 190"),
    ],
)
def test_band_target_refuses_support_out_of_range(target, reason):
    out = search_nesting(_point_sets("ro20"), SearchSpec(target))
    assert out.status == "refused"
    assert out.stats.nodes == 0
    assert out.reason == reason


def test_search_budget_exceeded():
    out = search_nesting(_point_sets("sqs10"), SearchSpec(uniform(2), node_budget=3))
    assert out.status == "budget-exceeded"
    assert out.stats.nodes == 3
    assert out.stats.stop == "node-budget"


@pytest.mark.parametrize("level", ["block", "orbit"])
def test_zero_time_budget_stops_before_the_first_node(level):
    spec = SearchSpec(uniform(2) if level == "block" else complete_uniform(), time_budget=0)
    if level == "block":
        out = search_nesting(_point_sets("sqs10"), spec)
    else:
        out = search_rotational(_stripped_spec("ro20"), spec)
    assert (out.status, out.stats.nodes, out.stats.stop) == ("budget-exceeded", 0, "time-budget")


def test_time_budget_stops_a_long_search():
    # the clock is read once per _CLOCK_STRIDE nodes, so a search far
    # from its node budget still stops soon after its time budget
    spec = SearchSpec(complete_uniform(), node_budget=10**7, time_budget=0.05)
    out = search_nesting(_point_sets("ro38"), spec)
    assert (out.status, out.stats.stop) == ("budget-exceeded", "time-budget")
    assert 0 < out.stats.nodes < 10**7
    assert out.stats.elapsed < 1


@pytest.mark.parametrize(
    "budgets,what",
    [
        ({"node_budget": -1}, "node budget"),
        ({"node_budget": float("nan")}, "node budget"),
        ({"time_budget": -0.5}, "time budget"),
        ({"time_budget": float("nan")}, "time budget"),
    ],
)
def test_search_spec_refuses_negative_or_nan_budget(budgets, what):
    with pytest.raises(NsqsError, match=f"{what} must be >= 0"):
        SearchSpec(uniform(2), **budgets)


def test_search_rejects_non_steiner_input():
    blocks = _point_sets("sqs10")[:-1]
    with pytest.raises(PreconditionError):
        search_nesting(blocks, SearchSpec(uniform(2)))


# Block-level searches: (design, target, seed, node budget, status, nodes,
# prunes, sha256 prefix of the serialized witness).  Recorded from the
# engine that breaks fail-first ties by the lowest unit index.  bool4 is
# boolean_sqs(4); its quasi_uniform(2) case runs the deficit prune.
# BLOCK_TARGETS maps a target name to the target and the classify kind
# of its witnesses; band(2, 4) admits several kinds, and its one pinned
# witness is irregular.
BLOCK_TARGETS = {
    "uniform2": (uniform(2), "uniform"),
    "minimum": (minimum_uniform(), "minimum-uniform"),
    "band24": (band(2, 4), "irregular"),
    "complete": (complete_uniform(), "complete-uniform"),
    "quasi2": (quasi_uniform(2), "quasi-uniform"),
}
BLOCK_PINS = [
    ("sqs10", "uniform2", None, 5000, "found", 381,
     {"no-feasible-split": 60, "pair-unliftable": 85}, "b6c1ad90bab08a25"),
    ("sqs10", "uniform2", 0, 5000, "found", 389,
     {"no-feasible-split": 39, "pair-unliftable": 100}, "d5b6714e0c3a6347"),
    ("sqs10", "uniform2", 1, 5000, "found", 224,
     {"no-feasible-split": 34, "pair-unliftable": 49}, "e756e62f307c8529"),
    ("sqs10", "uniform2", 2, 5000, "found", 183,
     {"no-feasible-split": 31, "pair-unliftable": 29}, "4dac5a142030a698"),
    ("sqs10", "uniform2", 3, 5000, "found", 697,
     {"no-feasible-split": 119, "pair-unliftable": 125}, "fbd65f81ddead81b"),
    ("sqs10", "uniform2", 7, 5000, "found", 197,
     {"no-feasible-split": 22, "pair-unliftable": 60}, "8ff6d1297c65527c"),
    ("bool4", "minimum", None, 100_000, "found", 997,
     {"no-feasible-split": 20, "pair-unliftable": 452}, "5acdefcb23004b70"),
    ("bool4", "minimum", 1, 100_000, "found", 18368,
     {"no-feasible-split": 304, "pair-unliftable": 11024}, "f2889962df9f5557"),
    ("bool4", "minimum", 5, 100_000, "found", 23964,
     {"no-feasible-split": 221, "pair-unliftable": 15028}, "7a45506c498d2d35"),
    ("bool4", "minimum", 2, 100_000, "budget-exceeded", 100_000,
     {"pair-unliftable": 66587}, None),
    ("bool4", "band24", 1, 10**8, "found", 1025,
     {"deficit-exceeds-capacity": 117, "pair-unliftable": 430}, "e4a5280aca0683ff"),
    ("bool4", "quasi2", None, 5000, "budget-exceeded", 5000,
     {"deficit-exceeds-capacity": 424, "pair-unliftable": 2026}, None),
    ("ro20", "complete", None, 5000, "budget-exceeded", 5000,
     {"no-feasible-split": 193, "pair-unliftable": 73}, None),
    ("ro38", "complete", None, 20_000, "budget-exceeded", 20_000,
     {"no-feasible-split": 1814, "pair-unliftable": 339}, None),
    # the benchmark's search-blocks op
    ("ro38", "complete", None, 200_000, "budget-exceeded", 200_000,
     {"no-feasible-split": 17419, "pair-unliftable": 1786}, None),
]


@pytest.mark.parametrize(
    "name,target,seed,budget,status,nodes,prunes,witness", BLOCK_PINS
)
def test_search_nesting_pinned(
    monkeypatch, name, target, seed, budget, status, nodes, prunes, witness
):
    blocks = (
        [b[0] + b[1] for b in boolean_sqs(4).blocks]
        if name == "bool4"
        else _point_sets(name)
    )
    goal, kind = BLOCK_TARGETS[target]
    spec = SearchSpec(goal, node_budget=budget, seed=seed)
    kernels = _spy_kernels(monkeypatch)
    out = search_nesting(blocks, spec)
    assert out.status == status
    assert out.stats.stop == STOPS[status]
    assert out.stats.nodes == nodes
    assert dict(out.stats.prunes) == prunes
    if witness is None:
        assert out.witness is None
    else:
        assert _witness_digest(serialize_design(out.witness)) == witness
        assert verify_steiner(out.witness).ok
        assert classify(out.witness).kind == kind
    # a support that is not pinned takes the bit kernel, and the list
    # kernel makes the same search
    free = target not in ("uniform2", "minimum")
    assert kernels == [free]
    if free:
        monkeypatch.setattr(search, "_BIT_OPTIONS", 0)
        lists = search_nesting(blocks, spec)
        assert kernels == [True, False]
        assert (lists.status, lists.stats.nodes, dict(lists.stats.prunes)) == (
            status, nodes, prunes
        )
        assert (lists.witness and _witness_digest(serialize_design(lists.witness))) == witness


def _spy_kernels(monkeypatch):
    """The list, in run order, of whether each engine run took bits."""
    kernels = []
    run = search._SplitEngine.run

    def spy(engine, spec):
        kernels.append(engine.bits)
        return run(engine, spec)

    monkeypatch.setattr(search._SplitEngine, "run", spy)
    return kernels


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
    assert dict(out.stats.prunes) == {"no-feasible-split": 224, "pair-unliftable": 54}


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
    ("ro20", "complete", 2, None, "found", 102, {"no-feasible-split": 24}, "ec23a8847d543b60"),
    ("ro20", "complete", 3, None, "found", 60, {"no-feasible-split": 11}, "df73a79d9cc05eb9"),
    ("ro26", "complete", None, None, "found", 26, {}, "585f82856e0f5c71"),
    ("ro26", "complete", 3, None, "found", 64, {"no-feasible-split": 7}, "ec2d02f286f03f77"),
    ("ro26", "uniform5", 4, 400, "refused", 0, {}, None),
    ("bool32", "complete", 1, None, "found", 8, {}, "3c2c2e00d3492e0f"),
    ("ro38", "complete", 1, 3000, "budget-exceeded", 3000, {"no-feasible-split": 640}, None),
    ("ro38", "complete", 5, 3000, "found", 438, {"no-feasible-split": 87}, "7f957f082de87e85"),
    ("ro62", "complete", None, None, "found", 31, {}, "581034c243349ab9"),
    ("ro62", "complete", 2, None, "found", 55, {"no-feasible-split": 9}, "d55251ce27a127d6"),
]


@pytest.fixture
def problem_builds(monkeypatch):
    """The specs an orbit problem is built for, in call order."""
    built = []
    init = search._OrbitProblem.__init__

    def spy(problem, spec):
        built.append(spec)
        init(problem, spec)

    monkeypatch.setattr(search._OrbitProblem, "__init__", spy)
    return built


def _same_objects(got, want):
    return len(got) == len(want) and all(map(operator.is_, got, want))


@pytest.mark.parametrize(
    "name,target,seed,budget,status,nodes,prunes,witness", ROTATIONAL_PINS
)
def test_rotational_search_pinned(
    problem_builds, name, target, seed, budget, status, nodes, prunes, witness
):
    spec = SearchSpec(
        complete_uniform() if target == "complete" else uniform(5),
        node_budget=budget or 10**8,
        seed=seed,
    )
    first = _stripped_spec(name)
    out = search_rotational(first, spec)
    assert out.status == status
    assert out.stats.stop == STOPS[status]
    assert out.stats.nodes == nodes
    assert dict(out.stats.prunes) == prunes
    if witness is None:
        assert out.witness is None
    else:
        assert _witness_digest(serialize_base_spec(out.witness)) == witness
        design = rotational_expand(out.witness)
        assert verify_steiner(design).ok
        assert classify(design).kind == "complete-uniform"
    # an equal but distinct spec builds its own problem, with the same result
    twin = _stripped_spec(name)
    assert twin == first and twin is not first
    assert _rotational_result(twin, spec) == (status, nodes, prunes, witness)
    assert _same_objects(problem_builds, [first, twin])


def test_bool128_orbit_search_is_pinned_on_both_kernels(monkeypatch):
    # the Boolean SQS(128) under the maps x -> 2^k x + s mod 127: 96 base
    # blocks, so 288 options over 63 difference classes.  Seed 2 finds
    # the same witness at the same node on the bit kernel, which the
    # engine picks, and on the list kernel
    spec = orbit_spec(boolean_rotational_design(7), {pow(2, k, 127) for k in range(7)})
    search_spec = SearchSpec(complete_uniform(), seed=2)
    want = ("found", 10686, {"no-feasible-split": 2732}, "d4f5e9411bccaab9")
    out = search_rotational(spec, search_spec)
    problem = spec._memo["problem"]
    assert (problem.engine.bits, len(problem.engine.contribs)) == (True, 288)
    assert _rotational_result(spec, search_spec) == want
    with monkeypatch.context() as patch:
        patch.setattr(search, "_BIT_OPTIONS", 0)
        lists = search._SplitEngine(
            problem.engine.contribs, 63, problem.mu, problem.mu, 63, unliftable=False
        )
        assert not lists.bits
        patch.setattr(problem, "engine", lists)
        assert _rotational_result(spec, search_spec) == want
    cls = classify(rotational_expand(out.witness))
    assert (cls.kind, cls.nd_pairs, cls.mu_min, cls.mu_max) == ("complete-uniform", 8128, 21, 21)


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
    assert out.stats.nodes == 438


def test_rotational_search_refuses_bad_order():
    out = search_rotational(_stripped_spec("ro20"), SearchSpec(minimum_uniform()))
    assert out.status == "refused"
    assert out.stats.nodes == 0


def test_rotational_search_certifies_before_the_target(monkeypatch):
    # one more inf base block would force the fixed-point pairs to 5,
    # which uniform(5) allows, but its 27 orbits are not those of an
    # SQS(26): the spec is refused before any target is read
    spec = catalog_get("ro26").payload
    inf_block = next(b for b in spec.base_blocks if spec.p in b[0] + b[1])
    padded = rotational_spec(
        spec.p, list(spec.base_blocks) + [inf_block], spec.multipliers
    )
    message = (
        r"^27 base blocks have 675 images under 25 maps x -> m\*x \+ s, "
        r"expected 650$"
    )
    calls = []
    monkeypatch.setattr(search._SplitEngine, "run", lambda engine, spec: calls.append("run"))
    for target in (complete_uniform(), uniform(5), minimum_uniform()):
        for _ in range(2):  # the spec's first call, then a repeat
            with pytest.raises(InconsistentSpecError, match=message):
                search_rotational(padded, SearchSpec(target, node_budget=400))
    assert calls == []


def test_fixed_point_multiplicity_is_derived():
    # a certified spec's expansion has (v-2)/6 on every pair through the
    # fixed point, the multiplicity its orbit problem sets without a count
    names = ("ro20", "ro26", "ro38", "ro62", "bool32")
    specs = [catalog_get(name).payload for name in names]
    specs += [_stripped_spec(name) for name in names]
    specs.append(orbit_spec(boolean_rotational_design(5), {1, 2, 4, 8, 16}))
    for spec in specs:
        forced = (spec.v - 2) // 6
        counts = pair_census(rotational_expand(spec)).counts
        assert [counts[(x, spec.p)] for x in range(spec.p)] == [forced] * spec.p
        assert search._OrbitProblem(spec).mu == forced
    # and a target off it is refused with the forced value
    out = search_rotational(_stripped_spec("ro26"), SearchSpec(uniform(5)))
    assert out.status == "refused"
    assert out.stats.nodes == 0
    assert out.reason == (
        "pairs through the fixed point are forced to multiplicity 4, target needs 5"
    )


def _rotational_result(spec, search_spec):
    out = search_rotational(spec, search_spec)
    digest = out.witness and _witness_digest(serialize_base_spec(out.witness))
    return out.status, out.stats.nodes, dict(out.stats.prunes), digest


@pytest.mark.parametrize(
    "name,target,seed,budget,status,nodes,prunes,witness",
    [row for row in ROTATIONAL_PINS if row[2] is not None],
)
def test_rotational_search_warm_cache_matches_cold(
    problem_builds, name, target, seed, budget, status, nodes, prunes, witness
):
    # a library-built spec keeps its orbit problem in its memo: a repeat
    # call builds none and gives the cold call's result
    spec = _rotational_pin_spec(target, budget, seed)
    stripped = _stripped_spec(name)
    cold = _rotational_result(stripped, spec)
    assert cold == (status, nodes, prunes, witness)
    assert _rotational_result(stripped, spec) == cold
    assert _same_objects(problem_builds, [stripped])
    # a caller's spec, a copy and a spec made unhashable by a list of
    # base blocks and a set of multipliers keep nothing: each call
    # builds a fresh problem, with the same result
    others = [
        RotationalSpec(stripped.p, stripped.base_blocks, stripped.multipliers),
        dataclasses.replace(stripped),
        RotationalSpec(
            p=stripped.p,
            base_blocks=list(stripped.base_blocks),
            multipliers=set(stripped.multipliers),
        ),
    ]
    for other in others:
        assert _rotational_result(other, spec) == cold
        assert _rotational_result(other, spec) == cold
    assert _same_objects(problem_builds, [stripped] + [o for o in others for _ in range(2)])


def test_orbit_builds_leave_nothing_for_the_collector():
    # an expansion and an orbit problem hold no reference cycle, so what
    # they build is freed on return: with the collector paused, a
    # collection afterwards finds nothing to free
    spec = _stripped_spec("ro62")
    gc.collect()
    gc.disable()
    try:
        assert len(rotational_expand(spec).blocks) == 9455
        freed = gc.collect()
        assert search._OrbitProblem(spec).mu == 10
        freed = (freed, gc.collect())
    finally:
        gc.enable()
    assert freed == (0, 0)


def test_memo_is_no_part_of_a_specs_value():
    spec = _stripped_spec("ro20")
    before = pickle.dumps(spec)
    assert search_rotational(spec, SearchSpec(complete_uniform(), seed=1)).status == "found"
    assert isinstance(spec._memo["problem"], search._OrbitProblem)
    for other in (
        copy.copy(spec),
        copy.deepcopy(spec),
        pickle.loads(pickle.dumps(spec)),
        dataclasses.replace(spec),
    ):
        assert other == spec and hash(other) == hash(spec)
        assert repr(other) == repr(spec)
        assert not hasattr(other, "_memo")
    assert pickle.dumps(spec) == before


def test_every_spec_producer_gives_a_memo():
    stripped = _stripped_spec("ro26")
    witness = search_rotational(stripped, SearchSpec(complete_uniform())).witness
    for spec in (
        stripped,
        catalog_get("ro26").payload,
        parse_base_spec(serialize_base_spec(stripped)),
        orbit_spec(boolean_rotational_design(5), {1, 2, 4, 8, 16}),
        witness,
    ):
        assert isinstance(spec._memo, dict)


def _negated_first_block(spec):
    """The spec with base block 0 replaced by its image under x -> -x,
    the fixed point kept: the same difference classes, other triples."""
    p = spec.p
    (a, b), (c, d) = spec.base_blocks[0]
    neg = [x if x == p else -x % p for x in (a, b, c, d)]
    return rotational_spec(
        p, [(neg[:2], neg[2:])] + list(spec.base_blocks[1:]), spec.multipliers
    )


def test_rotational_search_post_check_catches_a_bad_spec_when_warm():
    bad = _negated_first_block(_stripped_spec("ro20"))
    spec = SearchSpec(complete_uniform(), seed=1)
    message = (
        r"^expansion is not a quadruple system; "
        r"witness triple \(0, 1, 12\) covered 2 times$"
    )
    with pytest.raises(InconsistentSpecError, match=message):
        search_rotational(bad, spec)  # first call
    with pytest.raises(InconsistentSpecError, match=message):
        search_rotational(bad, spec)  # repeat call
    ro20 = _stripped_spec("ro20")
    assert search_rotational(ro20, spec).status == "found"
    assert search_rotational(ro20, spec).status == "found"
    with pytest.raises(InconsistentSpecError, match=message):
        search_rotational(bad, spec)  # after the good spec passed
    assert bad._memo == {}  # a refused spec keeps nothing


def test_rotational_search_checks_steiner_once_per_spec(monkeypatch, problem_builds):
    calls = []
    verify = constructions.verify_steiner

    def spy(design):
        calls.append(design.v)
        return verify(design)

    monkeypatch.setattr(constructions, "verify_steiner", spy)
    ro20, ro26 = _stripped_spec("ro20"), _stripped_spec("ro26")
    for seed in (None, 1, 2, 3):
        assert search_rotational(ro20, SearchSpec(complete_uniform(), seed=seed)).witness
    assert search_rotational(ro26, SearchSpec(complete_uniform())).witness
    assert search_rotational(ro20, SearchSpec(uniform(5))).status == "refused"
    assert calls == [20, 26]
    # seeded calls on one spec object build its problem once, and keep it
    assert _same_objects(problem_builds, [ro20, ro26])
    assert list(ro20._memo) == ["problem"]
    # rotational_expand keeps its full check
    rotational_expand(ro20)
    assert calls == [20, 26, 20]


def _ro20_miscounted(edit):
    """Stripped ro20 with its first finite base block listed twice, or
    dropped: 16 or 14 orbits where an SQS(20) has 15."""
    spec = _stripped_spec("ro20")
    base = list(spec.base_blocks)
    k = next(i for i, b in enumerate(base) if spec.p not in b[0] + b[1])
    base = base + [base[k]] if edit == "repeated" else base[:k] + base[k + 1:]
    return RotationalSpec(spec.p, tuple(base), spec.multipliers)


@pytest.mark.parametrize("edit,n_base", [("repeated", 16), ("dropped", 14)])
def test_rotational_search_certifies_the_image_count(monkeypatch, edit, n_base):
    # the repeated block expands to ro20 itself, and the dropped one to
    # no SQS; both are refused before anything is expanded or searched
    message = (
        rf"^{n_base} base blocks have {19 * n_base} images under 19 maps "
        r"x -> m\*x \+ s, expected 285$"
    )
    calls = []
    monkeypatch.setattr(constructions, "_image_rows", lambda spec: calls.append("expand"))
    monkeypatch.setattr(search._SplitEngine, "run", lambda engine, spec: calls.append("run"))
    spec = _ro20_miscounted(edit)
    for seed in (None, 1):  # the spec's first call, then a repeat
        with pytest.raises(InconsistentSpecError, match=message):
            search_rotational(spec, SearchSpec(complete_uniform(), seed=seed))
    assert calls == []


def _rotational_pin_spec(target, budget, seed):
    return SearchSpec(
        complete_uniform() if target == "complete" else uniform(5),
        node_budget=budget or 10**8,
        seed=seed,
    )


def test_rotational_search_interleaved_specs_match_pins():
    # each spec keeps its own engine: runs on other specs, and a target
    # refused after the spec's entry was made, change no seeded result
    rows = [row for row in ROTATIONAL_PINS if row[2] is not None]
    specs = {name: _stripped_spec(name) for name in ["ro20", "ro38"] + [row[0] for row in rows]}
    for row in rows + rows[::-1]:
        name, target, seed, budget, status, nodes, prunes, witness = row
        other = "ro38" if name != "ro38" else "ro20"
        refused = search_rotational(specs[other], SearchSpec(uniform(5)))
        assert refused.status == "refused"
        assert _rotational_result(
            specs[name], _rotational_pin_spec(target, budget, seed)
        ) == (status, nodes, prunes, witness)


def _engine_snapshot(engine):
    """A deep copy of the engine's tables, steps and the watch lists
    they share included, with the sharing kept: one copy per list.  A
    bit-kernel engine's masks, its steps' rows among them, are ints, so
    the copy holds them too."""
    return copy.deepcopy(vars(engine))


def _steps_share_watch(engine):
    return all(
        flips is engine.watch[cl]
        for steps in engine.steps
        for cl, inc, flips in steps
        if inc == 1
    )


def _reached(masks):
    """The AND of the masks that are not None, position by position, or
    None if all are."""
    live = [m for m in masks if m is not None]
    return tuple(functools.reduce(operator.and_, col) for col in zip(*live)) if live else None


def _steps_read_rows(engine):
    """Whether each step's row[t] is the AND of its cell's masks at the
    counts t - inc + 1 .. t, None below inc, and for inc 1 the cell's
    row itself."""
    return all(
        row is engine.rows[cl] if inc == 1 else row == [
            _reached(engine.rows[cl][t - inc + 1:t + 1]) if t >= inc else None
            for t in range(len(engine.rows[cl]))
        ]
        for steps in engine.steps
        for cl, inc, row in steps
    )


def _tables_of_its_kernel(engine):
    """Whether the engine's steps are those of the kernel it picked."""
    return _steps_read_rows(engine) if engine.bits else _steps_share_watch(engine)


def test_engine_runs_leave_the_tables_unchanged(monkeypatch):
    # each kernel's tables, the bit kernel's masks and the list kernel's
    # lists; a limit of 0 options puts every engine on the list kernel
    for limit in (search._BIT_OPTIONS, 0):
        monkeypatch.setattr(search, "_BIT_OPTIONS", limit)
        _check_runs_leave_the_tables_unchanged(limit > 0)


def _check_runs_leave_the_tables_unchanged(bits):
    for name, runs in (
        ("ro38", ((5, 3000, "found"), (1, 3000, "budget-exceeded"))),
        ("ro62", ((None, 10**8, "found"), (2, 10**8, "found"))),
    ):
        spec = _stripped_spec(name)
        out = search_rotational(spec, SearchSpec(complete_uniform(), node_budget=0))
        assert out.status == "budget-exceeded"
        problem = spec._memo["problem"]
        assert problem.engine.bits == bits
        before = (
            _engine_snapshot(problem.engine), list(problem.splits), list(problem.classes)
        )
        for seed, budget, status in runs:
            out = search_rotational(
                spec, SearchSpec(complete_uniform(), node_budget=budget, seed=seed)
            )
            assert out.status == status
            assert (_engine_snapshot(problem.engine), problem.splits, problem.classes) == before
            assert _tables_of_its_kernel(problem.engine)
    # a pinned support adds the open-cell tallies, which runs copy too;
    # it runs on the list kernel whatever the limit
    blocks = [b[0] + b[1] for b in boolean_sqs(4).blocks]
    contribs, _, n_cells = _engine_input(
        search_nesting, blocks, SearchSpec(band(0, 1), node_budget=0)
    )
    res = search._resolve_target(minimum_uniform(), 16)
    engine = search._SplitEngine(contribs, n_cells, res.mu_lo, res.mu_hi, res.nd_pairs, True)
    assert engine.pinned and engine.within and engine.losses and not engine.bits
    before = _engine_snapshot(engine)
    for budget, status in ((10**5, "found"), (500, "budget-exceeded")):
        assert engine.run(SearchSpec(minimum_uniform(), node_budget=budget))[0] == status
        assert _engine_snapshot(engine) == before
        assert _steps_share_watch(engine)
    # a free support with the unliftable prune and the deficit tally on:
    # bool4 under a band, 420 options
    engine = _flat_engine("bool4", band(4, 6))
    assert engine.bits == bits and engine.tally and engine.losses
    before = _engine_snapshot(engine)
    for seed in (None, 3):
        assert engine.run(SearchSpec(band(4, 6), node_budget=3000, seed=seed))[2].nodes
        assert _engine_snapshot(engine) == before
        assert _tables_of_its_kernel(engine)


def _table_cases():
    """(contribs, n_cells, mu_lo, mu_hi, nd_cells): ro62's orbit input,
    whose options touch 5 to 10 classes with increments of 2 among them,
    the synthetic increments, also under mu_hi = 2, where an option that
    adds 3 to a cell fits at no count, and bool4's pinned minimum-uniform
    input."""
    contribs, _, n_cells = _engine_input(
        search_rotational, _stripped_spec("ro62"), SearchSpec(complete_uniform(), node_budget=0)
    )
    yield contribs, n_cells, 10, 10, None
    yield from (case[:5] for case in _synthetic_increment_cases())
    yield next(_synthetic_increment_cases())[:2] + (2, 2, None)
    yield from [case[:5] for case in _bool4_minimum_cases()][:1]


def test_engine_steps_list_the_watchers_each_change_crosses(monkeypatch):
    # flips[c] of a step (cell, inc) holds the watchers of the thresholds
    # c .. c+inc-1, for every count c at which an option fits the cell
    # (c + inc <= mu_hi); one step serves every option with that entry
    monkeypatch.setattr(search, "_BIT_OPTIONS", 0)
    incs = set()
    for contribs, n_cells, lo, hi, nd in _table_cases():
        engine = search._SplitEngine(contribs, n_cells, lo, hi, nd, True)
        assert not engine.bits
        shared = {}
        for o, steps in enumerate(engine.steps):
            assert [(cl, inc) for cl, inc, _ in steps] == list(contribs[o])
            for step in steps:
                cl, inc, flips = step
                assert shared.setdefault((cl, inc), step) is step
                watch = engine.watch[cl]
                assert len(flips) == max(0, len(watch) - inc + 1)
                for c, crossed in enumerate(flips):
                    assert list(crossed) == [w for t in range(c, c + inc) for w in watch[t]]
                incs.add(inc)
        assert _steps_share_watch(engine)
    assert incs == {1, 2, 3}


def test_engine_masks_hold_the_options_each_count_rules_out():
    # option 3i + k adding inc to a cell fits while the cell's count c
    # has c + inc <= mu_hi (capped at the largest reach).  rows[cell][t]
    # holds, at position k, full less the units whose option k fits at
    # t - 1 but not at t, or None where no option stops at t; fit at the
    # root is full less the options that fit at no count; a step's
    # row[t] holds full less the units whose option k fits at t - inc
    # but not at t, or None where that is no unit or t < inc
    kernels = set()
    for contribs, n_cells, lo, hi, nd in _table_cases():
        engine = search._SplitEngine(contribs, n_cells, lo, hi, nd, True)
        kernels.add(engine.bits)
        if not engine.bits:
            continue
        assert not hasattr(engine, "watch")
        reach = Counter()
        for span in _spans(contribs):
            reach.update(span)
        hi = max(0, min(hi, max(reach.values(), default=0)))
        full = (1 << len(contribs) // 3) - 1
        entries = list(map(dict, contribs))

        def stopped(cl, c, t):
            """Position by position, full less the units whose option fits
            the cell at count c but not at count t; None if none do."""
            masks = [
                sum(1 << o // 3 for o in range(k, len(entries), 3)
                    if cl in entries[o] and c + entries[o][cl] <= hi < t + entries[o][cl])
                for k in range(3)
            ]
            return tuple(full ^ m for m in masks) if any(masks) else None

        assert len(engine.rows) == n_cells
        for cl, row in enumerate(engine.rows):
            assert row == [None] + [stopped(cl, t - 1, t) for t in range(1, hi + 1)]
        never = [
            sum(1 << o // 3 for o in range(k, len(entries), 3)
                if any(inc > hi for inc in entries[o].values()))
            for k in range(3)
        ]
        assert engine.fit == tuple(full ^ m for m in never)
        shared = {}
        for o, steps in enumerate(engine.steps):
            assert [(cl, inc) for cl, inc, _ in steps] == list(contribs[o])
            for step in steps:
                cl, inc, row = step
                assert shared.setdefault((cl, inc), step) is step
                assert row == [stopped(cl, t - inc, t) if t >= inc else None
                               for t in range(hi + 1)]
        assert _steps_read_rows(engine)
    assert kernels == {True, False}  # bool4 minimum-uniform is pinned


def _expanded_pairs(spec):
    return Counter(chain.from_iterable(rotational_expand(spec).blocks))


def _class_pairs(p, key):
    """The pair class over Z_p + {p} whose least pair is ``key``: the p
    pairs through p, or those whose points differ by +-d."""
    a, d = key
    assert a == 0 and 1 <= d <= p
    if d == p:
        return [(s, p) for s in range(p)]
    assert 2 * d < p
    return [tuple(sorted((s, (s + d) % p))) for s in range(p)]


def _spread(p, counts):
    """Class counts as the multiplicities of every pair of each class."""
    return Counter({pr: n for key, n in counts.items() for pr in _class_pairs(p, key)})


def test_image_pairs_count_the_expanded_pairs(monkeypatch):
    # the post-check's class counts of every pinned witness, made cold
    # and warm, spread over their classes' pairs
    counted = []
    class_counts = search._OrbitProblem.class_counts

    def spy(problem, chosen):
        counted.append(class_counts(problem, chosen))
        return counted[-1]

    monkeypatch.setattr(search._OrbitProblem, "class_counts", spy)
    found = [row for row in ROTATIONAL_PINS if row[4] == "found"]
    assert len(found) == 9
    specs = {name: _stripped_spec(name) for name, *_ in found}
    for name, target, seed, budget, *_ in found + found:
        witness = search_rotational(
            specs[name], _rotational_pin_spec(target, budget, seed)
        ).witness
        assert _spread(witness.p, counted.pop()) == _expanded_pairs(witness)
    assert not counted
    # and of each catalog spec, read as a choice of its stripped spec's splits
    for name in ("ro20", "ro26", "ro38", "ro62", "bool32"):
        spec, stripped = catalog_get(name).payload, _stripped_spec(name)
        search_rotational(stripped, SearchSpec(complete_uniform(), node_budget=0))
        problem = stripped._memo["problem"]
        chosen = [
            3 * i + problem.splits[3 * i:3 * i + 3].index(blk)
            for i, blk in enumerate(spec.base_blocks)
        ]
        assert _spread(spec.p, class_counts(problem, chosen)) == _expanded_pairs(spec)


def _drop_pair(row, other):
    return row[:-1]


def _repeat_pair(row, other):
    return row[:-1] + row[:1]


def _overlap_another_class(row, other):
    # the least pair swapped for another class's greatest: a new key,
    # and the other p - 1 pairs still those of the row's class
    least = min(row)
    return [max(other) if pr == least else pr for pr in row]


def _rekey_another_class(row, other):
    # the last pair swapped for another class's least, which becomes the
    # row's key: that class's key on other pairs
    return row[:-1] + [min(other)]


@pytest.mark.parametrize(
    "corrupt,error",
    [
        (_drop_pair, r"^a shift row holds 18 distinct pairs of 18, expected 19$"),
        (_repeat_pair, r"^a shift row holds 18 distinct pairs of 19, expected 19$"),
        (_overlap_another_class, r"^the shift row keyed \(0, 17\) meets another pair class$"),
        (_rekey_another_class, r"^two shift rows keyed \(0, 1\) hold different pairs$"),
    ],
    ids=["drop", "repeat", "overlap", "rekey"],
)
def test_orbit_rows_that_are_not_whole_classes_are_refused(monkeypatch, corrupt, error):
    # the spec's own expansion certifies it first, so the corrupted rows
    # reach only the orbit problem, which refuses them on the first call
    image_rows = search._image_rows

    def corrupted(spec):
        # corrupt the first row of the last tuple, given a row of another class
        rows = list(image_rows(spec))
        r, x, r2, x2 = rows[-1]
        other = next(row for row, _, _, _ in rows if set(row).isdisjoint(r))
        rows[-1] = (corrupt(r, other), x, r2, x2)
        return iter(rows)

    monkeypatch.setattr(search, "_image_rows", corrupted)
    spec = _stripped_spec("ro20")
    with pytest.raises(NsqsError, match=error):
        search_rotational(spec, SearchSpec(complete_uniform(), seed=1))
    assert spec._memo == {}  # a refused spec keeps nothing
    monkeypatch.setattr(search, "_image_rows", image_rows)
    assert search_rotational(spec, SearchSpec(complete_uniform(), seed=1)).status == "found"


@pytest.mark.parametrize(
    "degenerate,error",
    [
        (((0, 1), (1, 2)), r"^split pairs \(0, 1\) and \(1, 2\) are not disjoint$"),
        (((3, 3), (1, 2)), r"^pair needs two distinct points, got 3 twice$"),
    ],
)
def test_image_pairs_refuse_a_degenerate_block_like_the_expansion(degenerate, error):
    # the spec is certified by its expansion before any row is built
    ro20 = catalog_get("ro20").payload
    spec = RotationalSpec(ro20.p, ro20.base_blocks[:-1] + (degenerate,), ro20.multipliers)
    with pytest.raises(NsqsError, match=error):
        constructions._expand_images(spec)
    for _ in range(2):  # the spec's first call, then a repeat
        with pytest.raises(NsqsError, match=error):
            search_rotational(spec, SearchSpec(complete_uniform()))


def test_rotational_search_post_check_catches_a_wrong_split_when_warm(monkeypatch):
    ro20 = _stripped_spec("ro20")
    run = search._SplitEngine.run

    def wrong_split(engine, spec):
        status, chosen, stats = run(engine, spec)
        # move the first unit with a choice of classes to another split
        con = engine.contribs
        for i, o in enumerate(chosen):
            other = next(
                (o2 for o2 in range(3 * i, 3 * i + 3) if dict(con[o2]) != dict(con[o])), None
            )
            if other is not None:
                chosen[i] = other
                break
        return status, chosen, stats

    message = "^rotational search produced a non-uniform witness$"
    monkeypatch.setattr(search._SplitEngine, "run", wrong_split)
    with pytest.raises(NsqsError, match=message):
        search_rotational(ro20, SearchSpec(complete_uniform(), seed=2))  # first call
    monkeypatch.setattr(search._SplitEngine, "run", run)
    assert search_rotational(ro20, SearchSpec(complete_uniform())).status == "found"
    monkeypatch.setattr(search._SplitEngine, "run", wrong_split)
    with pytest.raises(NsqsError, match=message):
        search_rotational(ro20, SearchSpec(complete_uniform(), seed=2))  # after a witness


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


# ---------------------------------------------------------------------------
# differential check of the split-assignment engine

# The engine as it was before the floor gate, the inlined count updates
# and the per-count fail-first pick, kept as the reference: it scans the
# whole unassigned set for the lowest unit with the fewest feasible
# options, and its watch walks update every unit.  It differs from that engine only in the tie
# rule and in checking the node budget before each option.  The engine
# in search.py must visit the same nodes in the same order.

def reference_assign_splits(
    contribs: list[tuple[tuple[int, int], ...]],
    n_cells: int,
    mu_lo: int,
    mu_hi: int,
    nd_cells: Optional[int],
    unliftable: bool,
    spec: SearchSpec,
) -> tuple[str, list[int], SearchStats]:
    """Depth-first search for one split per unit, every cell ending in
    [mu_lo, mu_hi] or at zero.

    Unit i has the options 3i, 3i+1 and 3i+2; option o adds
    ``contribs[o] = ((cell, increment), ...)`` to the cell counts.
    ``nd_cells`` pins how many cells end up nonzero (None leaves it
    free; all of them makes every cell live from the start).  With
    ``unliftable`` a move is also pruned when one of its unit's cells
    sits below mu_lo and the unassigned units can no longer lift it.
    Returns the outcome status, the chosen option of every unit (when
    found) and the stats.

    The search runs on an explicit stack, so the number of units is not
    limited by the recursion limit.  Domains are kept incrementally: a
    move updates only the options that watch a cell whose count it
    changed, and tallies of unassigned units by feasible count give the
    fail-first choice without scoring every unit.
    """
    n_units = len(contribs) // 3
    complete = nd_cells == n_cells
    # With the support pinned below all cells, an option is feasible only
    # if the cells it would open fit in the slack (nd_cells less the
    # nonzero cells).  That test binds only while the slack is below
    # max_new, the most cells one option touches; then the options of
    # each unit are counted afresh at every node instead of tallied.
    pinned = nd_cells is not None and not complete
    max_new = max(map(len, contribs), default=0)
    # no unassigned unit can lower the deficit by more than this
    capacity = max((sum(inc for _, inc in con) for con in contribs), default=0)

    # spans[i]: the most unit i can add to each cell it touches;
    # reach[cell]: the most the unassigned units can still add to it.
    # No count ever passes its cell's initial reach, so capping mu_hi at
    # the largest one changes no test and keeps the tables below small.
    spans: list[tuple[tuple[int, int], ...]] = []
    reach = [0] * n_cells
    for i in range(n_units):
        span: dict[int, int] = {}
        for o in range(3 * i, 3 * i + 3):
            for cl, inc in contribs[o]:
                span[cl] = max(span.get(cl, 0), inc)
        spans.append(tuple(span.items()))
        for cl, inc in span.items():
            reach[cl] += inc
    mu_hi = max(0, min(mu_hi, max(reach, default=0)))

    # Domains.  over[o] counts the cells option o would push past mu_hi,
    # so o is feasible iff over[o] == 0 (and the support pin allows it).
    # An option adding inc to a cell fits while the cell's count is at
    # most mu_hi - inc, so watch[cell][t] lists the (option, unit) pairs
    # with that threshold t: a count crossing t flips exactly those.  For
    # an unassigned unit i, nfeas[i] counts its options with over == 0
    # (refreshed when i re-enters), and tally[k] counts the unassigned
    # units with nfeas == k.
    watch = [[[] for _ in range(mu_hi)] for _ in range(n_cells)]
    over = [0] * len(contribs)
    for o, con in enumerate(contribs):
        for cl, inc in con:
            if inc > mu_hi:
                over[o] += 1
            else:
                watch[cl][mu_hi - inc].append((o, o // 3))

    def n_feasible(i: int) -> int:
        return (not over[3 * i]) + (not over[3 * i + 1]) + (not over[3 * i + 2])

    nfeas = [n_feasible(i) for i in range(n_units)]
    tally = [nfeas.count(k) for k in range(4)]
    free = [True] * n_units  # i in unassigned, as a cheaper test in add/remove
    # deficit = sum of gap[count] over cells: how far the live cells sit
    # below mu_lo; empty cells are live only when the support is complete
    gap = [
        mu_lo - c if c < mu_lo and (complete or c) else 0 for c in range(mu_hi + 1)
    ]
    counts = [0] * n_cells
    deficit = gap[0] * n_cells

    def add(o: int) -> int:
        """Apply option o; returns the change in the deficit."""
        delta = 0
        for cl, inc in contribs[o]:
            c = counts[cl]
            c2 = c + inc
            counts[cl] = c2
            delta += gap[c2] - gap[c]
            crossed = watch[cl]
            for t in range(c, c2):
                for o2, i in crossed[t]:
                    n = over[o2]
                    over[o2] = n + 1
                    if not n and free[i]:  # o2 stopped fitting
                        k = nfeas[i]
                        nfeas[i] = k - 1
                        tally[k] -= 1
                        tally[k - 1] += 1
        return delta

    def remove(o: int) -> int:
        """Undo option o; returns the change in the deficit."""
        delta = 0
        for cl, inc in contribs[o]:
            c2 = counts[cl]
            c = c2 - inc
            counts[cl] = c
            delta += gap[c] - gap[c2]
            crossed = watch[cl]
            for t in range(c, c2):
                for o2, i in crossed[t]:
                    n = over[o2] - 1
                    over[o2] = n
                    if not n and free[i]:  # o2 fits again
                        k = nfeas[i]
                        nfeas[i] = k + 1
                        tally[k] -= 1
                        tally[k + 1] += 1
        return delta

    def options(i: int, slack: int) -> list[int]:
        """Unit i's feasible options when only ``slack`` more cells may
        open, fewer than ``max_new``."""
        return [
            o
            for o in range(3 * i, 3 * i + 3)
            if not over[o] and sum(not counts[cl] for cl, _ in contribs[o]) <= slack
        ]

    budget = spec.node_budget
    time_budget = spec.time_budget
    nodes = no_split = over_capacity = unliftable_cell = 0
    start = time.monotonic()
    chosen = [0] * n_units
    # fail-first ties go to the first unit in the set's iteration order;
    # units leave and re-enter it in stack order, so the order and with
    # it the node order are deterministic
    unassigned = set(range(n_units))
    n_free = n_units
    stack: list[list] = []  # [unit, its feasible options, next position]
    status = None
    while status is None:
        # a fresh node: a leaf, a budget stop, or a branch on the unit
        # with the fewest feasible options
        if not n_free:
            if deficit == 0 and (nd_cells is None or n_cells - counts.count(0) == nd_cells):
                status = "found"
                break
        elif nodes >= budget or time.monotonic() - start > time_budget:
            status = "budget-exceeded"
            break
        else:
            slack = nd_cells - n_cells + counts.count(0) if pinned else max_new
            if slack < max_new:
                least = 4
                for u in sorted(unassigned):
                    k = len(options(u, slack))
                    if k < least:
                        i, least = u, k
                        if not k:
                            break
                if least:
                    opts = options(i, slack)
            else:
                least = 0 if tally[0] else 1 if tally[1] else 2 if tally[2] else 3
                if least:
                    i = min(u for u in unassigned if nfeas[u] == least)
                    opts = [o for o in range(3 * i, 3 * i + 3) if not over[o]]
            if least:
                unassigned.discard(i)
                free[i] = False
                n_free -= 1
                tally[nfeas[i]] -= 1
                if unliftable:
                    for cl, inc in spans[i]:
                        reach[cl] -= inc
                stack.append([i, opts, 0])
            else:
                no_split += 1
        # undo the last option tried and apply the next untried one
        while stack:
            frame = stack[-1]
            i, opts, pos = frame
            if pos:
                deficit += remove(opts[pos - 1])
            if pos == len(opts):
                stack.pop()
                unassigned.add(i)
                free[i] = True
                n_free += 1
                nfeas[i] = k = n_feasible(i)
                tally[k] += 1
                if unliftable:
                    for cl, inc in spans[i]:
                        reach[cl] += inc
                continue
            if nodes >= budget:
                status = "budget-exceeded"
                break
            frame[2] = pos + 1
            nodes += 1
            o = opts[pos]
            chosen[i] = o
            deficit += add(o)
            if deficit > capacity * n_free:
                over_capacity += 1
                continue
            if unliftable:
                # prune when one of the unit's cells sits below mu_lo out
                # of reach of the unassigned units
                for cl, _ in spans[i]:
                    c = counts[cl]
                    if c + reach[cl] < mu_lo and (complete or c):
                        unliftable_cell += 1
                        break
                else:
                    break
                continue
            break
        else:
            status = "exhausted"

    stats = SearchStats(nodes=nodes, elapsed=time.monotonic() - start)
    for name, n in (
        ("no-feasible-split", no_split),
        ("deficit-exceeds-capacity", over_capacity),
        ("pair-unliftable", unliftable_cell),
    ):
        if n:
            stats.prunes[name] = n
    return status, chosen, stats


def _unit_orders(n_units, seed):
    """The order in which a run under ``seed`` tries each unit's options:
    index order, or one ``random.Random(seed)`` shuffle of each unit's
    [3i, 3i+1, 3i+2], in unit order."""
    orders = [[o, o + 1, o + 2] for o in range(0, 3 * n_units, 3)]
    if seed is not None:
        rng = random.Random(seed)
        for order in orders:
            rng.shuffle(order)
    return [tuple(order) for order in orders]


def _engine_input(front_end, *args):
    """The (contribs, units, n_cells) of the engine run a front end makes:
    the contributions of options 3i, 3i+1, 3i+2 of each unit i, and the
    order in which the run tries each unit's options."""
    seen = []
    run = search._SplitEngine.run

    def spy(engine, spec):
        seen.append((engine.contribs, spec.seed, engine.n_cells))
        return run(engine, spec)

    search._SplitEngine.run = spy
    try:
        front_end(*args)
    finally:
        search._SplitEngine.run = run
    contribs, seed, n_cells = seen[0]
    return contribs, _unit_orders(len(contribs) // 3, seed), n_cells


def _seeded(contribs, units):
    """The contributions read in each unit's order."""
    return [contribs[o] for order in units for o in order]


def reference_orbit_input(spec, seed):
    """The (contribs, n_cells) that search_rotational handed the engine
    when it built every split's classes afresh on each call."""
    rng = random.Random(seed)
    splits = []
    for blk in spec.base_blocks:
        opts = alternative_splits(blk)
        if seed is not None:
            rng.shuffle(opts)
        splits += opts
    contribs = [
        tuple(Counter(d - 1 for d in split_classes(opt, spec.p, spec.multipliers)).items())
        for opt in splits
    ]
    return contribs, spec.p // 2


# (entry, level, seeds): block contribs have one cell per pair and
# increments of 1; orbit contribs have one cell per difference class and
# increments up to the number of multipliers.  ro62's options touch 5 to
# 10 classes, with increments of 2 among them
ENGINE_INPUTS = [
    ("sqs10", "block", (None, 0, 1, 2, 3, 4, 5)),
    ("bool4", "block", (None, 0, 1, 2, 3, 4, 5)),
    ("bool8", "block", (None, 0, 3)),
    ("ro20", "block", (None, 1, 4)),
    ("ro38", "block", (None, 2)),
    ("ro20", "orbit", (None, 0, 1, 2, 3, 4, 5)),
    ("ro26", "orbit", (None, 0, 1, 2, 3, 4, 5)),
    ("ro38", "orbit", (None, 0, 1, 2, 3, 4, 5)),
    ("bool32", "orbit", (None, 0, 1, 2, 3, 4, 5)),
    ("ro62", "orbit", (None, 0, 1, 2)),
]
ENGINE_TARGETS = [
    complete_uniform(),
    minimum_uniform(),
    uniform(2),
    uniform(3),
    uniform(5),
    band(1, 3),
    quasi_uniform(2),
    SearchTarget("quasi-uniform", mu_lo=3, mu_hi=4, nd_pairs=120),
]


@pytest.mark.parametrize(
    "name,seeds", [(n, seeds) for n, lv, seeds in ENGINE_INPUTS if lv == "orbit"]
)
def test_orbit_engine_input_matches_reference(name, seeds):
    spec = _stripped_spec(name)
    for seed in seeds:
        want = reference_orbit_input(spec, seed)
        for _ in range(2):  # the spec's first call, then a cached one
            contribs, units, n_cells = _engine_input(
                search_rotational, spec,
                SearchSpec(complete_uniform(), node_budget=0, seed=seed),
            )
            assert (_seeded(contribs, units), n_cells) == want, seed


def _engine_cases(name, level, seed):
    """(contribs, n_cells, mu_lo, mu_hi, nd_cells) for every target that
    resolves at the entry's order, with its support pinned and free."""
    if level == "block":
        blocks = (
            [b[0] + b[1] for b in boolean_sqs(4).blocks]
            if name == "bool4"
            else _point_sets(name)
        )
        v = max(map(max, blocks)) + 1
        contribs, units, n_cells = _engine_input(
            search_nesting, blocks, SearchSpec(band(0, 1), node_budget=0, seed=seed)
        )
        p = None
    else:
        spec = _stripped_spec(name)
        v, p = spec.v, spec.p
        contribs, units, n_cells = _engine_input(
            search_rotational, spec,
            SearchSpec(complete_uniform(), node_budget=0, seed=seed),
        )
    contribs = _seeded(contribs, units)
    for target in ENGINE_TARGETS:
        res = search._resolve_target(target, v)
        if isinstance(res, str):
            continue
        for nd in dict.fromkeys((res.nd_pairs, None)):
            if p is not None and nd is not None:
                if nd % p:
                    continue  # not a union of difference classes
                nd = nd // p - 1  # the fixed point's p pairs are not a cell
            yield contribs, n_cells, res.mu_lo, res.mu_hi, nd


def _sweep_cases(name, level, seeds):
    """Every target of one entry, under each seed, at 300 nodes."""
    for seed in seeds:
        for case in _engine_cases(name, level, seed):
            yield case + (300, seed)


def _ro38_complete_cases():
    """The unseeded ro38 complete-uniform block search, deep enough to
    branch on units with two and with three feasible options."""
    contribs, _, n_cells = _engine_input(
        search_nesting, _point_sets("ro38"), SearchSpec(band(0, 1), node_budget=0)
    )
    res = search._resolve_target(complete_uniform(), 38)
    yield contribs, n_cells, res.mu_lo, res.mu_hi, res.nd_pairs, 4000, None


def _bool4_minimum_cases():
    """bool4 minimum-uniform, its support pinned: deep enough for the
    slack to drop below the most cells one split opens."""
    blocks = [b[0] + b[1] for b in boolean_sqs(4).blocks]
    res = search._resolve_target(minimum_uniform(), 16)
    for seed in (None, 1):
        contribs, units, n_cells = _engine_input(
            search_nesting, blocks, SearchSpec(band(0, 1), node_budget=0, seed=seed)
        )
        yield (_seeded(contribs, units), n_cells, res.mu_lo, res.mu_hi, res.nd_pairs,
               4000, seed)


def _synthetic_cases():
    """256 units whose options touch no cell, then a random core of 64
    units over 40 cells, so that the fail-first picks at every feasible
    count land on unit indices past one byte."""
    rng = random.Random(2)
    contribs = [()] * (3 * 256)
    for _ in range(3 * 64):
        con = {}
        while len(con) < 3:
            con[int(rng.random() * 40)] = 1 + (rng.random() < 0.3)
        contribs.append(tuple(sorted(con.items())))
    for nd in (None, 36):
        yield contribs, 40, 2, 5, nd, 4000, None


def _synthetic_increment_cases():
    """24 units over 16 cells whose options add 1, 2 or 3 to each of
    their cells, so that under mu_hi = 6 a cell's thresholds 3, 4 and 5
    are all watched and one count change crosses two or three of them."""
    rng = random.Random(3)
    contribs = []
    for _ in range(3 * 24):
        con = {}
        while len(con) < 2 + (rng.random() < 0.5):
            con[int(rng.random() * 16)] = 1 + int(rng.random() * 3)
        contribs.append(tuple(sorted(con.items())))
    for lo, hi, nd in ((4, 6, None), (6, 6, None), (3, 6, 12)):
        yield contribs, 16, lo, hi, nd, 4000, None


def _complete_short_cases():
    """20 units over 16 cells, every cell live and mu_lo == mu_hi == 4,
    each unit's options adding one total (2 or 4), but all units together
    add 60, less than the 64 the cells need: the deficit tally stays on,
    and its prune fires once nine units of total 2 are assigned."""
    rng = random.Random(5)
    contribs = []
    for i in range(3 * 20):
        con = set()
        while len(con) < 2 + 2 * (i // 3 % 2):
            con.add(int(rng.random() * 16))
        contribs.append(tuple((cl, 1) for cl in sorted(con)))
    yield contribs, 16, 4, 4, 16, 4000, None


def _unliftable_edge_cases():
    """24 units over 14 cells whose options add 1, 2 or 3 to their
    cells; only units 3 and 9 touch cells 12 and 13, whose reach is 4
    and 6, so that with the support free or pinned an option opens a
    cell below mu_lo.  The last case, every cell live, adds a cell 14
    that each option of unit 5 raises by 1 and no other unit touches:
    it fails at the root, and since no option of unit 5 lowers its
    potential, only its entries at a loss of 0 test it."""
    rng = random.Random(0)
    contribs = []
    for o in range(3 * 24):
        con = {}
        while len(con) < 2 + (rng.random() < 0.5):
            con[int(rng.random() * 12)] = 1 + int(rng.random() * 3)
        if o // 3 in (3, 9):
            con[12 + o % 2] = 1 + o % 3
        contribs.append(tuple(sorted(con.items())))
    for lo, hi, nd in ((4, 6, None), (5, 6, None), (4, 6, 11), (4, 6, 14)):
        yield contribs, 14, lo, hi, nd, 4000, None
    rooted = [con + ((14, 1),) if o // 3 == 5 else con for o, con in enumerate(contribs)]
    yield rooted, 15, 4, 6, 15, 4000, None


def _pinned_churn_cases():
    """30 units over 18 cells whose options open one to three cells,
    adding 1 or 2 to each, with the support pinned two to four cells
    below all 18, unseeded and seeded.  The slack falls below the three
    cells one option may open and climbs back past it hundreds of times
    within the budget under mu_lo = 1 and 2, mu_hi = 3, so the running
    count of open cells, the pinned tallies and their saved columns are
    taken down and restored at every depth."""
    rng = random.Random(7)
    contribs = []
    for _ in range(3 * 30):
        con = {}
        while len(con) < 1 + int(rng.random() * 3):
            con[int(rng.random() * 18)] = 1 + (rng.random() < 0.25)
        contribs.append(tuple(sorted(con.items())))
    for seed in (None, 4):
        seeded = _seeded(contribs, _unit_orders(30, seed))
        for lo, hi, nd in ((2, 4, 15), (1, 3, 16), (2, 3, 14)):
            yield seeded, 18, lo, hi, nd, 4000, seed


ENGINE_SWEEP = {
    f"{n}-{lv}": functools.partial(_sweep_cases, n, lv, seeds)
    for n, lv, seeds in ENGINE_INPUTS
}
ENGINE_SWEEP["ro38-block-complete"] = _ro38_complete_cases
ENGINE_SWEEP["bool4-block-minimum"] = _bool4_minimum_cases
ENGINE_SWEEP["synthetic-320"] = _synthetic_cases
ENGINE_SWEEP["synthetic-increments"] = _synthetic_increment_cases
ENGINE_SWEEP["complete-short"] = _complete_short_cases
ENGINE_SWEEP["unliftable-edges"] = _unliftable_edge_cases
ENGINE_SWEEP["pinned-churn"] = _pinned_churn_cases


def _flat_engine(name, target):
    """The engine search_nesting builds for the target on a catalog
    design, or on boolean_sqs(n) for the name bool<n>."""
    if name.startswith("bool"):
        blocks = [b[0] + b[1] for b in boolean_sqs(int(name[4:])).blocks]
    else:
        blocks = _point_sets(name)
    contribs, _, n_cells = _engine_input(
        search_nesting, blocks, SearchSpec(band(0, 1), node_budget=0)
    )
    res = search._resolve_target(target, max(map(max, blocks)) + 1)
    return search._SplitEngine(contribs, n_cells, res.mu_lo, res.mu_hi, res.nd_pairs, True)


def _spans(contribs):
    """Each unit's span: its largest increment on every cell it touches."""
    spans = []
    for o in range(0, len(contribs), 3):
        span = Counter()
        for cl, inc in chain(*contribs[o:o + 3]):
            span[cl] = max(span[cl], inc)
        spans.append(span)
    return spans


def test_engine_losses_are_the_spans_less_each_option():
    # pot starts at each cell's reach, the sum of the spans; option o
    # loses its unit's span less its own entries, and with every cell
    # live, a cell whose reach is below mu_lo at a loss of 0 as well
    engines = [_flat_engine("ro38", complete_uniform()), _flat_engine("bool4", minimum_uniform())]
    engines += [
        search._SplitEngine(*case[:5], True)
        for case in chain(_synthetic_increment_cases(), _unliftable_edge_cases())
    ]
    failing = 0
    for engine in engines:
        spans = _spans(engine.contribs)
        reach = Counter()
        for span in spans:
            reach.update(span)
        assert engine.pot == [reach[cl] for cl in range(engine.n_cells)]
        for o, con in enumerate(engine.contribs):
            span = spans[o // 3]
            low = [(cl, 0) for cl in span if engine.complete and reach[cl] < engine.mu_lo]
            want = [*(span - Counter(dict(con))).items(), *low]
            assert sorted(engine.losses[o]) == sorted(want), o
            failing += len(low)
    assert failing  # the unliftable edges fail a cell at the root


def test_deficit_tally_is_kept_only_where_its_prune_can_fire():
    # off: every cell live, mu_lo == mu_hi, one total per unit and all
    # units reaching n_cells * mu_lo, so the deficit never exceeds what
    # the free units can add
    off = [
        search._OrbitProblem(catalog_get(name).payload).engine
        for name in ("ro20", "ro26", "ro38", "ro62", "bool32")
    ]
    off += [_flat_engine(name, complete_uniform()) for name in ("sqs8uniform", "ro20", "ro38")]
    assert [engine.tally for engine in off] == [False] * 8
    for engine in off:
        # the reference, which always tallies, makes the same search and
        # never prunes on the deficit
        spec = SearchSpec(complete_uniform(), node_budget=1000)
        got = engine.run(spec)
        want = reference_assign_splits(
            engine.contribs, engine.n_cells, engine.mu_lo, engine.mu_lo,
            engine.nd_cells, engine.unliftable, spec,
        )
        assert "deficit-exceeds-capacity" not in want[2].prunes
        assert (got[0], got[1], got[2].nodes, got[2].prunes) == (
            want[0], want[1], want[2].nodes, want[2].prunes
        )
    # on: a band, a pinned support, and a complete exact input whose
    # units add less than its cells need
    on = [
        _flat_engine("bool4", quasi_uniform(2)),
        _flat_engine("bool5", band(4, 6)),
        _flat_engine("bool4", minimum_uniform()),
    ]
    contribs, n_cells, lo, hi, nd, budget, _ = next(_complete_short_cases())
    short = search._SplitEngine(contribs, n_cells, lo, hi, nd, False)
    assert short.complete and lo == hi
    on.append(short)
    assert [engine.tally for engine in on] == [True] * 4
    spec = SearchSpec(complete_uniform(), node_budget=budget)
    want = reference_assign_splits(contribs, n_cells, lo, hi, nd, False, spec)
    assert want[2].prunes["deficit-exceeds-capacity"] > 0


def _kernels(monkeypatch):
    """Yield True, then False: first the engine picks its own kernel,
    then a limit of 0 options forces the list kernel on every input
    that has a unit."""
    for bits in (True, False):
        with monkeypatch.context() as patch:
            if not bits:
                patch.setattr(search, "_BIT_OPTIONS", 0)
            yield bits


def _picks_bits(contribs, n_cells, nd):
    """The bit kernel's input: a support that is not pinned below all
    cells, and at most search._BIT_OPTIONS options."""
    return nd in (None, n_cells) and len(contribs) <= search._BIT_OPTIONS


def test_engine_follows_the_unit_orders(monkeypatch):
    # a seeded run, each unit's options in a shuffled order, makes the
    # same search as the reference over the contributions read in that
    # order, including the pinned slack's tallies past their threshold,
    # on the kernel the engine picks and on the list kernel.  Each case
    # takes its own seed among those that leave option 0 first in unit
    # 0, so an unset chosen entry (0) reads alike in both
    seeds = (seed for seed in count() if _unit_orders(1, seed)[0][0] == 0)
    orders = set()
    cases = chain(
        _bool4_minimum_cases(),
        _synthetic_cases(),
        _sweep_cases("sqs10", "block", (None,)),
        _sweep_cases("ro26", "orbit", (None,)),
    )
    runs = Counter()
    for contribs, n_cells, lo, hi, nd, budget, _ in cases:
        seed = next(seeds)
        units = _unit_orders(len(contribs) // 3, seed)
        orders.add(tuple(units))
        for unliftable in (True, False):
            spec = SearchSpec(complete_uniform(), node_budget=budget)
            want = reference_assign_splits(
                _seeded(contribs, units), n_cells, lo, hi, nd, unliftable, spec
            )
            for allowed in _kernels(monkeypatch):
                engine = search._SplitEngine(contribs, n_cells, lo, hi, nd, unliftable)
                assert engine.bits == (allowed and _picks_bits(contribs, n_cells, nd))
                status, chosen, stats = engine.run(
                    SearchSpec(complete_uniform(), node_budget=budget, seed=seed)
                )
                assert (status, stats.nodes, stats.prunes) == (
                    want[0], want[2].nodes, want[2].prunes
                )
                assert chosen == [
                    units[i][o - 3 * i] if 0 <= o - 3 * i < 3 else o
                    for i, o in enumerate(want[1])
                ]
                runs[engine.bits] += 1
    assert sum(runs.values()) == 4 * len(orders)
    assert runs[True] and runs[False]


def _check_kernels_against_reference(cases, monkeypatch):
    """Run every case, with the unliftable prune on and off, on the
    kernel the engine picks and on the list kernel, against the
    reference; returns how many runs each kernel made."""
    runs = Counter()
    for contribs, n_cells, lo, hi, nd, budget, seed in cases:
        for unliftable in (True, False):
            spec = SearchSpec(complete_uniform(), node_budget=budget)
            want = reference_assign_splits(contribs, n_cells, lo, hi, nd, unliftable, spec)
            for allowed in _kernels(monkeypatch):
                engine = search._SplitEngine(contribs, n_cells, lo, hi, nd, unliftable)
                assert engine.bits == (allowed and _picks_bits(contribs, n_cells, nd))
                got = engine.run(spec)
                assert got[2].nodes <= budget
                assert got[2].stop == STOPS[got[0]]
                # chosen at a budget stop pins the node order
                assert (got[0], got[1], got[2].nodes, got[2].prunes) == (
                    want[0], want[1], want[2].nodes, want[2].prunes
                ), (seed, lo, hi, nd, unliftable, engine.bits)
                runs[engine.bits] += 1
    return runs


@pytest.mark.parametrize("case", ENGINE_SWEEP)
def test_engine_matches_reference(case, monkeypatch):
    runs = _check_kernels_against_reference(ENGINE_SWEEP[case](), monkeypatch)
    assert runs[False]


def _limit_cases(n_units):
    """n_units units over 48 cells: every fourth unit, from unit 1 on,
    is in a random core whose options add 1 or 2 to two or three cells,
    and the options of the other units touch no cell; under a band with
    the support free, and with every cell live at mu = 3.  Within the
    budget each of the three prunes fires, the unliftable one only with
    its prune on, the deficit one only with it off."""
    rng = random.Random(11)
    contribs = []
    for o in range(3 * n_units):
        con = {}
        while o // 3 % 4 == 1 and len(con) < 2 + (rng.random() < 0.5):
            con[int(rng.random() * 48)] = 1 + (rng.random() < 0.3)
        contribs.append(tuple(sorted(con.items())))
    for lo, hi, nd in ((2, 4, None), (3, 3, 48)):
        yield contribs, 48, lo, hi, nd, 3000, None


def test_engine_kernels_meet_at_the_option_limit(monkeypatch):
    # 8 190 options, the most whole units within 8 192, take the bit
    # kernel and 8 193 the list kernel; both search as the reference
    # does, and so does an input with no cell at all
    assert search._BIT_OPTIONS == 8192
    for n_units, bits in ((2730, True), (2731, False)):
        cases = list(_limit_cases(n_units))
        assert all(len(case[0]) == 3 * n_units for case in cases)
        runs = _check_kernels_against_reference(cases, monkeypatch)
        assert runs == Counter({True: 2 * len(cases) * bits, False: 2 * len(cases) * (2 - bits)})
    empty = [([()] * 12, 0, 1, 2, nd, 100, None) for nd in (None, 0)]
    runs = _check_kernels_against_reference(empty, monkeypatch)
    assert runs == Counter({True: 4, False: 4})


def test_engine_picks_its_kernel_from_its_input():
    # bits: the five orbit problems of the search-orbit benchmark, and
    # flat inputs with a free support up to the limit
    for name, options in (("ro20", 45), ("ro26", 78), ("ro38", 171), ("ro62", 93),
                          ("bool32", 24)):
        engine = search._OrbitProblem(_stripped_spec(name)).engine
        assert (len(engine.contribs), engine.bits) == (options, True)
        assert not hasattr(engine, "watch") and not hasattr(engine, "over")
    for name, options in (("ro20", 855), ("ro38", 6327)):
        engine = _flat_engine(name, complete_uniform())
        assert (len(engine.contribs), engine.bits, engine.pinned) == (options, True, False)
        assert not hasattr(engine, "watch") and not hasattr(engine, "over")
    # lists: pinned supports of any size, and flat inputs past the limit
    for name, target, options in (
        ("sqs10", uniform(2), 90),
        ("bool4", minimum_uniform(), 420),
        ("ro62", complete_uniform(), 28365),
    ):
        engine = _flat_engine(name, target)
        assert (len(engine.contribs), engine.bits, engine.pinned) == (options, False, options < 8192)
        assert not hasattr(engine, "rows") and not hasattr(engine, "fit")
