"""Core data model: pairs, splits, designs, census, verification."""

import copy
import dataclasses
import functools
import itertools
import pickle
import random
from collections import Counter, namedtuple
from math import comb

import pytest
from hypothesis import given, strategies as st

from nsqs import (
    InvalidBlockError,
    InvalidPairError,
    InvalidSplitError,
    NestedDesign,
    alternative_splits,
    block_points,
    boolean_rotational_design,
    boolean_sqs,
    canonical_block,
    canonical_pair,
    VerificationReport,
    catalog_get,
    catalog_names,
    classify,
    doubling_a,
    doubling_b,
    expected_block_count,
    local_balance,
    nested_design,
    pair_census,
    parse_design,
    relabel,
    repartition,
    rotational_expand,
    serialize_design,
    total_pair_slots,
    verify_steiner,
)
from nsqs import core


def sorted_design(v, blocks, uses_infinity=False):
    """Canonical blocks sorted by tuple order into a design, independent
    of the library's constructor (which orders them the same way)."""
    return NestedDesign(v, tuple(sorted(blocks)), uses_infinity)


def test_canonical_pair_sorts():
    assert canonical_pair(3, 1) == (1, 3)
    assert canonical_pair(1, 3) == (1, 3)


@given(st.integers(0, 100), st.integers(0, 100))
def test_canonical_pair_symmetric(a, b):
    if a == b:
        with pytest.raises(InvalidPairError):
            canonical_pair(a, b)
    else:
        assert canonical_pair(a, b) == canonical_pair(b, a)
        assert canonical_pair(a, b)[0] < canonical_pair(a, b)[1]


def test_canonical_pair_rejects_equal():
    with pytest.raises(InvalidPairError):
        canonical_pair(2, 2)


def test_canonical_block_orders_pairs():
    assert canonical_block((5, 2), (1, 0)) == ((0, 1), (2, 5))


def test_canonical_block_rejects_overlap():
    # the first pair is checked, then the second, then disjointness
    cases = [
        (((1, 1), (2, 3)), InvalidPairError, "pair needs two distinct points, got 1 twice"),
        (((0, 1), (2, 2)), InvalidPairError, "pair needs two distinct points, got 2 twice"),
        (((1, 1), (1, 2)), InvalidPairError, "pair needs two distinct points, got 1 twice"),
        (((0, 1), (1, 2)), InvalidSplitError, "split pairs (0, 1) and (1, 2) are not disjoint"),
        (((3, 2), (2, 3)), InvalidSplitError, "split pairs (2, 3) and (2, 3) are not disjoint"),
        (((5, 0), (3, 0)), InvalidSplitError, "split pairs (0, 5) and (0, 3) are not disjoint"),
    ]
    for pairs, error, message in cases:
        with pytest.raises(error) as info:
            canonical_block(*pairs)
        assert type(info.value) is error
        assert str(info.value) == message


def test_alternative_splits():
    splits = alternative_splits([0, 1, 2, 3])
    assert splits == [
        ((0, 1), (2, 3)),
        ((0, 2), (1, 3)),
        ((0, 3), (1, 2)),
    ]
    for s in splits:
        assert block_points(s) == frozenset({0, 1, 2, 3})
    assert alternative_splits(((1, 3), (0, 2))) == splits  # a nested block


def test_alternative_splits_rejects_bad_sets():
    with pytest.raises(InvalidBlockError):
        alternative_splits([0, 1, 2])
    with pytest.raises(InvalidBlockError):
        alternative_splits([0, 1, 2, 2])


def test_block_count_formulas():
    assert expected_block_count(8) == 14
    assert expected_block_count(10) == 30
    assert expected_block_count(20) == 285
    assert total_pair_slots(8) == 28
    assert total_pair_slots(10) == 60
    assert total_pair_slots(62) == 18910


def test_nested_design_canonicalizes_and_sorts():
    d = nested_design(8, [((3, 1), (0, 2)), ((5, 4), (7, 6))])
    assert d.blocks[0] == ((0, 2), (1, 3))
    assert d.blocks == tuple(sorted(d.blocks))


@pytest.mark.parametrize("name", sorted(catalog_names()))
def test_nested_design_of_scrambled_blocks(name):
    design = catalog_get(name).design()
    text = serialize_design(design)
    rng = random.Random(name)
    shuffled = list(design.blocks)
    rng.shuffle(shuffled)
    # sorted but for the last two blocks
    late = list(design.blocks)
    late[-2:] = late[:-3:-1]
    for blocks in (design.blocks, design.blocks[::-1], shuffled, late):
        again = core._design(design.v, list(blocks), design.uses_infinity)
        assert again == design
        assert serialize_design(again) == text
        flipped = [
            ((b, a), (d, c)) if rng.random() < 0.5 else ((c, d), (a, b))
            for (a, b), (c, d) in blocks
        ]
        for scrambled in (blocks, flipped):
            again = nested_design(design.v, scrambled, design.uses_infinity)
            assert again == design
            assert again.blocks == design.blocks
            assert serialize_design(again) == text


def test_nested_design_rejects_out_of_range():
    with pytest.raises(InvalidBlockError):
        nested_design(4, [((0, 1), (2, 4))])


def test_verify_steiner_passes_catalog():
    d = catalog_get("sqs10").design()
    report = verify_steiner(d)
    assert report.ok
    assert report.block_count == report.expected_blocks == 30
    assert report.witness is None
    assert report.violations == 0


def test_verify_steiner_fails_on_truncation():
    d = catalog_get("sqs10").design()
    broken = nested_design(10, d.blocks[1:])
    report = verify_steiner(broken)
    assert not report.ok
    assert report.witness is not None
    assert report.witness_coverage == 0
    assert report.violations == 4  # each dropped block uncovers 4 triples


def test_verify_steiner_fails_on_duplicate():
    d = catalog_get("sqs10").design()
    dup = nested_design(10, d.blocks[:1] + d.blocks)
    report = verify_steiner(dup)
    assert not report.ok
    assert report.witness_coverage == 2


def reference_verify(design):
    """verify_steiner by counting triples as tuple keys of a Counter."""
    v = design.v
    cover = Counter(
        t
        for blk in design.blocks
        for t in itertools.combinations(sorted(blk[0] + blk[1]), 3)
    )
    over = sorted((t, c) for t, c in cover.items() if c != 1)
    missing = comb(v, 3) - len(cover)
    witness, coverage = over[0] if over else (None, 0)
    if witness is None and missing:
        witness = next(
            t for t in itertools.combinations(range(v), 3) if t not in cover
        )
    expected = expected_block_count(v)
    return VerificationReport(
        ok=not over and not missing and len(design.blocks) == expected,
        v=v,
        block_count=len(design.blocks),
        expected_blocks=expected,
        witness=witness,
        witness_coverage=coverage,
        violations=len(over) + missing,
    )


def _moved_point(blk, v):
    """blk with its largest point moved to the least point outside it."""
    (a, b), (c, d) = blk
    x = next(x for x in range(v) if x not in (a, b, c, d))
    return ((a, b), (c, x)) if d > b else ((a, x), (c, d))


_NONCANONICAL_SHAPES = {
    "high-to-low": lambda blk: (blk[0][::-1], blk[1][::-1]),
    "first-high-to-low": lambda blk: (blk[0][::-1], blk[1]),
    "second-first": lambda blk: (blk[1], blk[0]),
    "both": lambda blk: (blk[1][::-1], blk[0][::-1]),
}


def _verify_cases():
    for name in catalog_names():
        d = catalog_get(name).design()
        mid = len(d.blocks) // 2
        blocks = list(d.blocks)
        yield name, d
        yield name + "-dropped", nested_design(d.v, blocks[:mid] + blocks[mid + 1:])
        yield name + "-duplicated", nested_design(d.v, blocks + [blocks[mid]])
        moved = blocks[:mid] + [_moved_point(blocks[mid], d.v)] + blocks[mid + 1:]
        yield name + "-moved", nested_design(d.v, moved)
        # built directly, so the blocks keep a shape nested_design
        # would have canonicalized away
        for label, shape in _NONCANONICAL_SHAPES.items():
            yield f"{name}-{label}", NestedDesign(d.v, tuple(map(shape, d.blocks)))
            yield f"{name}-moved-{label}", NestedDesign(d.v, tuple(map(shape, moved)))
    # covers beyond one byte, and designs far sparser than their order
    yield "repeated", nested_design(8, [((0, 1), (2, 3))] * 300)
    yield "sparse", nested_design(
        128, [((0, 1), (2, 3)), ((0, 1), (2, 4)), ((5, 9), (6, 127))]
    )
    # a huge v keeps the marks in a dict: a repeated block (coverage 2), a
    # block in a non-canonical shape, and over-covered and missing triples
    yield "huge-v", nested_design(10**5, [((3, 4), (5, 99_999))])
    yield "huge-v-repeated", nested_design(10**5, [((3, 4), (5, 99_999))] * 2)
    yield "huge-v-high-to-low", NestedDesign(10**5, (((99_999, 5), (4, 3)),))
    yield "huge-v-over-and-missing", nested_design(
        10**5, [((3, 4), (5, 6)), ((3, 4), (5, 7)), ((3, 4), (6, 7)), ((0, 9), (1, 8))]
    )
    yield "empty", nested_design(0, [])
    # canonical in shape but with a repeated point: b == c, then b == d
    yield "degenerate", NestedDesign(8, (((0, 1), (1, 2)), ((0, 3), (2, 3))))


@pytest.mark.parametrize(
    "design", [pytest.param(d, id=name) for name, d in _verify_cases()]
)
def test_verify_steiner_matches_reference(design):
    assert verify_steiner(design) == reference_verify(design)


def test_pair_census_totals():
    d = catalog_get("bool8").design()
    census = pair_census(d)
    assert census.total == 28 == total_pair_slots(8)
    assert census.nd_pair_count == 12
    assert census.histogram() == {2: 8, 3: 4}
    assert census.min_mult == 2
    assert census.max_mult == 3
    assert sum(census.point_degrees()) == 2 * census.nd_pair_count


def _census_designs():
    for name in catalog_names():
        d = catalog_get(name).design()
        yield name, d
        yield name + "-doubling-a", doubling_a(d)
        if pair_census(d).nd_pair_count == comb(d.v, 2):
            yield name + "-doubling-b", doubling_b(d)


@pytest.mark.parametrize(
    "design", [pytest.param(d, id=name) for name, d in _census_designs()]
)
def test_pair_census_key_order(design):
    # pairs enter the census in block order, first pair then second
    reference: dict = {}
    for p1, p2 in design.blocks:
        reference[p1] = reference.get(p1, 0) + 1
        reference[p2] = reference.get(p2, 0) + 1
    assert list(pair_census(design).counts.items()) == list(reference.items())


def test_repartition_changes_one_split():
    d = catalog_get("sqs8uniform").design()
    pts = block_points(d.blocks[0])
    alt = [s for s in alternative_splits(pts) if s != d.blocks[0]][0]
    d2 = repartition(d, 0, alt)
    assert len(d2.blocks) == len(d.blocks)
    assert {block_points(b) for b in d2.blocks} == {
        block_points(b) for b in d.blocks
    }
    assert alt in d2.blocks
    assert verify_steiner(d2).ok


def test_repartition_rejects_wrong_points():
    d = catalog_get("sqs8uniform").design()
    wrong = (
        ((0, 1), (2, 3))
        if block_points(d.blocks[0]) != frozenset({0, 1, 2, 3})
        else ((0, 1), (2, 4))
    )
    with pytest.raises(InvalidSplitError):
        repartition(d, 0, wrong)


def test_relabel_preserves_verification_and_census_shape():
    d = catalog_get("sqs10").design()
    perm = [(3 * i + 1) % 10 for i in range(10)]
    d2 = relabel(d, perm)
    assert verify_steiner(d2).ok
    assert pair_census(d2).histogram() == pair_census(d).histogram()


@given(st.randoms(use_true_random=False))
def test_relabel_random_perms_preserve_histogram(rnd):
    d = catalog_get("bool8").design()
    perm = list(range(8))
    rnd.shuffle(perm)
    d2 = relabel(d, perm)
    assert verify_steiner(d2).ok
    assert pair_census(d2).histogram() == pair_census(d).histogram()


def reference_relabel(design, perm):
    """relabel as it was: one canonical_block per block."""
    if sorted(perm) != list(range(design.v)):
        raise InvalidBlockError("perm is not a bijection on the point set")
    blocks = [
        canonical_block((perm[p1[0]], perm[p1[1]]), (perm[p2[0]], perm[p2[1]]))
        for p1, p2 in design.blocks
    ]
    return nested_design(design.v, blocks, design.uses_infinity)


def _relabel_outcome(fn, design, perm):
    """fn's relabeled design, or the type and text of what it raised."""
    try:
        return fn(design, perm)
    except Exception as exc:  # noqa: BLE001 - compared with the reference
        return type(exc), str(exc)


@pytest.mark.parametrize("as_tuple", [False, True])
@pytest.mark.parametrize("name", catalog_names())
def test_relabel_matches_reference(name, as_tuple):
    design = catalog_get(name).design()
    perm = list(range(design.v))
    random.Random(name).shuffle(perm)
    if as_tuple:
        perm = tuple(perm)
    got = relabel(design, perm)
    assert got == reference_relabel(design, perm)
    assert len({id(p) for b in got.blocks for p in b}) == len(pair_census(got).counts)


@pytest.mark.parametrize(
    "first",
    [
        ((1, 0), (2, 3)),  # a pair high to low
        ((2, 3), (0, 1)),  # pairs out of order
        ((0, 1), (1, 2)),  # pairs that share a point
        ((0, 0), (2, 3)),  # a degenerate pair
        ((-1, 2), (3, 7)),  # a negative point, which perm reads as 7
        ((-2, 2), (3, 4)),
        ((0, 1), (2, 8)),  # a point past v - 1
        ((0, 1, 2), (3, 4)),  # three points in a pair
        ([0, 1], [2, 3]),  # pairs as lists
    ],
)
def test_relabel_malformed_block_matches_reference(first):
    sqs8 = catalog_get("sqs8uniform").design()
    design = NestedDesign(8, (first,) + sqs8.blocks[1:])
    perm = [3, 0, 7, 5, 1, 6, 2, 4]
    assert _relabel_outcome(relabel, design, perm) == _relabel_outcome(
        reference_relabel, design, perm
    )


@pytest.mark.parametrize(
    "v,perm",
    [(8, [0, 1, 2, 3, 4, 5, 6, 6]), (8, list(range(9))), (4, [3, 2, 1, 0])],
)
def test_relabel_perm_matches_reference(v, perm):
    design = catalog_get("sqs8uniform").design() if v == 8 else NestedDesign(4, ())
    assert _relabel_outcome(relabel, design, perm) == _relabel_outcome(
        reference_relabel, design, perm
    )


@pytest.mark.parametrize(
    "bad",
    [
        (((0, 1), (2, 8)), ((0, 2.5), (3, 4))),  # a point past v - 1 first
        (((0, 2.5), (3, 4)), ((0, 1), (2, 8))),  # a fractional point first
        (((1, 9), (2, 3)), ((0, 1.5), (4, 5))),
        (((0, 1.5), (4, 5)), ((1, 9), (2, 3))),
    ],
)
def test_relabel_raises_for_the_first_bad_block_in_order(bad):
    sqs8 = catalog_get("sqs8uniform").design()
    design = NestedDesign(8, bad + sqs8.blocks[2:])
    perm = [3, 0, 7, 5, 1, 6, 2, 4]
    assert _relabel_outcome(relabel, design, perm) == _relabel_outcome(
        reference_relabel, design, perm
    )


# ---------------------------------------------------------------------------
# nested_design keeps canonical blocks: the same design as canonicalizing


def reference_nested_design(v, blocks, uses_infinity=False):
    """nested_design as it was: canonical_block on every block, each
    followed by the range check, then sorted."""
    canon = []
    for nb in itertools.starmap(canonical_block, blocks):
        (a, b), (c, d) = nb
        if a < 0 or b >= v or d >= v:
            p = next(p for p in (a, b, c, d) if not 0 <= p < v)
            raise InvalidBlockError(f"point {p} out of range for v={v}")
        canon.append(nb)
    return sorted_design(v, canon, uses_infinity)


def _outcome(build, v, blocks, uses_infinity=False):
    try:
        design = build(v, blocks, uses_infinity)
    except Exception as exc:  # the class and the text must match
        return ("error", type(exc), str(exc))
    # equal designs, down to the types of blocks, pairs and points
    types = [(type(b), *map(type, b), *map(type, itertools.chain(*b))) for b in design.blocks]
    return ("design", design, design.blocks, types)


def assert_nests_like_reference(v, blocks, uses_infinity=False):
    got = _outcome(nested_design, v, list(blocks), uses_infinity)
    want = _outcome(reference_nested_design, v, list(blocks), uses_infinity)
    assert got == want
    return got


# doubling_b needs a complete nesting: every pair an ND-pair
_COMPLETE = ["bool32", "ro20", "ro26", "ro38", "ro62", "sqs8uniform"]
_NESTING_INPUTS = (
    sorted(catalog_names())
    + [name + ".a" for name in sorted(catalog_names())]
    + [name + ".b" for name in _COMPLETE]
)


def _build(name):
    base, _, step = name.partition(".")
    design = catalog_get(base).design()
    if step:
        design = {"a": doubling_a, "b": doubling_b}[step](design)
    return design


@pytest.mark.parametrize("name", _NESTING_INPUTS)
def test_nested_design_matches_canonicalizing_reference(name):
    design = _build(name)
    rng = random.Random(name)
    shuffled = list(design.blocks)
    rng.shuffle(shuffled)
    flipped = [
        ((b, a), (c, d)) if rng.random() < 0.5 else ((c, d), (a, b))
        for (a, b), (c, d) in shuffled
    ]
    for blocks in (design.blocks, design.blocks[::-1], shuffled, flipped):
        got = assert_nests_like_reference(design.v, blocks, design.uses_infinity)
        assert got[1] == design


_NamedPair = namedtuple("_NamedPair", "lo hi")
_NamedBlock = namedtuple("_NamedBlock", "first second")

# canonical blocks over 0..7, which the one pass keeps, ahead of the
# block that sends it to canonical_block
_VALID = [((0, 1), (2, 3)), ((4, 5), (6, 7)), ((0, 2), (5, 7))]

NESTING_EDGE_CASES = {
    "lists": [[[0, 1], [2, 3]], [[4, 5], [6, 7]]],
    "list pair": [((0, 1), [2, 3])],
    "list block": [[(0, 1), (2, 3)]],
    "three-element block": [((0, 1), (2, 3), (4, 5))],
    "three-element pair": [((0, 1, 4), (2, 3))],
    "one-element block": [((0, 1),)],
    "empty block": [()],
    "int block": [5],
    "bool points": [((False, True), (2, 3)), ((True, 2), (4, 5))],
    "float points": [((0.0, 1.0), (2.0, 3.0)), ((4.0, 5.0), (6.0, 7.0))],
    "fractional points": [((0, 1.5), (2, 3)), ((0, 2), (1, 3))],
    "nan point": [((0, float("nan")), (2, 3))],
    "string points": [(("a", "b"), ("c", "d"))],
    "mixed points": [((0, "b"), (2, 3))],
    "out of range": [((0, 1), (2, 8))],
    "negative": [((-1, 1), (2, 3))],
    "out of range then overlap": [((0, 1), (2, 9)), ((0, 1), (1, 2))],
    "overlap then out of range": [((0, 1), (1, 2)), ((0, 1), (2, 9))],
    "overlapping pairs": [((0, 1), (1, 2))],
    "same pair twice": [((0, 1), (0, 1))],
    "repeated point in pair": [((1, 1), (2, 3))],
    "second pair first": [((2, 3), (0, 1))],
    "pair high to low": [((1, 0), (2, 3))],
    "a equals c": [((0, 1), (0, 2))],
    "b equals d": [((0, 2), (1, 2))],
    "duplicate blocks": [((0, 1), (2, 3)), ((0, 1), (2, 3))],
    "namedtuple pair": [(_NamedPair(0, 1), (2, 3))],
    "namedtuple block": [_NamedBlock((0, 1), (2, 3))],
    "namedtuple block after valid": _VALID + [_NamedBlock((4, 5), (6, 7))],
    "list pair after valid": _VALID + [((1, 3), [4, 6])],
    "bool points after valid": _VALID + [((False, True), (2, 3))],
    "negative after valid": _VALID + [((-1, 1), (2, 3))],
    "negative then overlap": _VALID + [((-2, 3), (4, 5)), ((0, 1), (1, 2))],
    "first pair out of range": [((0, 8), (2, 3))],
    "out of range after 1000 valid": (_VALID * 334)[:1000] + [((0, 1), (2, 8))],
    "out of order and range after 1000 valid": (_VALID * 334)[:1000] + [((1, 0), (8, 2))],
    "both pairs out of range": [((0, 9), (2, 8))],
    "empty": [],
}


@pytest.mark.parametrize("name", sorted(NESTING_EDGE_CASES))
def test_nested_design_edge_cases_match_reference(name):
    assert_nests_like_reference(8, NESTING_EDGE_CASES[name])


def test_nested_design_of_iterator_blocks_matches_reference():
    def blocks():
        return (iter(pairs) for pairs in [((1, 0), (2, 3)), ((4, 5), (6, 7))])

    assert nested_design(8, blocks()) == reference_nested_design(8, blocks())


@pytest.mark.parametrize("late", [((3, 1), (6, 4)), ((0, 1), (2, 8))])
def test_nested_design_of_iterator_block_after_valid_matches_reference(late):
    # the pass stops at the iterator block without consuming it
    def blocks():
        return _VALID + [iter(late)] + _VALID[:1]

    got = _outcome(nested_design, 8, blocks())
    assert got == _outcome(reference_nested_design, 8, blocks())


def _contract_designs():
    """Every design a producer that skips the range check hands back."""
    designs = {name: _build(name) for name in _NESTING_INPUTS}
    designs.update({f"boolean{n}": boolean_sqs(n) for n in (4, 5, 6)})
    designs["boolean-rotational5"] = boolean_rotational_design(5)
    for name in sorted(catalog_names()):
        design = catalog_get(name).design()
        perm = list(range(design.v))
        random.Random(name).shuffle(perm)
        designs[f"relabel:{name}"] = relabel(design, perm)
        designs[f"parse:{name}"] = parse_design(serialize_design(design))
    designs["parse:ro62.b"] = parse_design(serialize_design(designs["ro62.b"]))
    outcome = local_balance(boolean_sqs(5), 4, 6, max_moves=20)
    assert outcome.stats.moves > 0
    designs["local-balance:boolean5"] = outcome.witness
    return designs


def test_producers_hand_back_canonical_blocks_in_range():
    # core._design trusts its callers: each must give canonical
    # blocks over 0..v-1, so that nested_design keeps the same design
    for name, design in _contract_designs().items():
        again = nested_design(design.v, design.blocks, design.uses_infinity)
        assert again == design, name
        pairs = itertools.chain.from_iterable(design.blocks)
        assert set(itertools.chain.from_iterable(pairs)) <= set(range(design.v)), name


def test_parsed_v128_design_shares_one_tuple_per_pair():
    design = doubling_a(doubling_a(catalog_get("bool32").design()))
    parsed = parse_design(serialize_design(design))
    census = pair_census(parsed)
    pair_objects = {id(p) for block in parsed.blocks for p in block}
    assert len(pair_objects) == census.nd_pair_count
    shuffled = list(parsed.blocks)
    random.Random(128).shuffle(shuffled)
    again = nested_design(parsed.v, shuffled)
    assert again == design
    # the blocks are kept, not rebuilt
    assert {id(b) for b in again.blocks} == {id(b) for b in parsed.blocks}


# ---------------------------------------------------------------------------
# the missing-triple witness of a huge, nearly empty design


@pytest.mark.parametrize(
    "blocks, witness",
    [((), (0, 1, 2)), ((((0, 1), (2, 3)),), (0, 1, 4))],
)
def test_verify_steiner_witness_with_huge_v(blocks, witness):
    v = 3 * 10**9
    report = verify_steiner(NestedDesign(v=v, blocks=blocks))
    assert not report.ok
    assert report.witness == witness
    assert report.witness_coverage == 0
    assert report.violations == comb(v, 3) - 4 * len(blocks)


def test_verify_steiner_missing_witness_is_first_in_order():
    d = catalog_get("sqs10").design()
    for k in range(len(d.blocks)):
        blocks = d.blocks[:k] + d.blocks[k + 1:]
        first_missing = next(
            t
            for t in itertools.combinations(range(10), 3)
            if not any(set(t) <= block_points(b) for b in blocks)
        )
        report = verify_steiner(NestedDesign(v=10, blocks=blocks))
        assert report.witness == first_missing


# ---------------------------------------------------------------------------
# a design the library built works out its report and census once


def _fresh(design):
    """An equal design as a caller builds it, with no memo."""
    return NestedDesign(design.v, design.blocks, design.uses_infinity)


def _facts(design):
    census = pair_census(design)
    return verify_steiner(design), list(census.counts.items()), classify(design)


def _renested(design, seed):
    parsed = parse_design(serialize_design(design))
    shuffled = list(parsed.blocks)
    random.Random(seed).shuffle(shuffled)
    return nested_design(parsed.v, shuffled, parsed.uses_infinity)


def _memo_designs():
    for name in sorted(catalog_names()):
        yield name, lambda name=name: catalog_get(name).design()
        yield name + ".a", lambda name=name: doubling_a(catalog_get(name).design())
        if name in _COMPLETE:
            yield name + ".b", lambda name=name: doubling_b(catalog_get(name).design())
        yield name + " renested", lambda name=name: _renested(
            catalog_get(name).design(), name
        )


@pytest.mark.parametrize(
    "build", [pytest.param(build, id=name) for name, build in _memo_designs()]
)
def test_memoized_facts_equal_a_fresh_designs(build):
    design = build()
    want = _facts(_fresh(design))
    assert _facts(design) == want  # the memo filled
    assert _facts(design) == want  # and read back


@pytest.fixture
def work_outs(monkeypatch):
    """How often a Steiner report and a pair census are worked out."""
    calls = Counter()
    for fact in ("_steiner_report", "_pair_counts"):
        work_out = getattr(core, fact)

        def counted(design, fact=fact, work_out=work_out):
            calls[fact] += 1
            return work_out(design)

        monkeypatch.setattr(core, fact, counted)
    return calls


def test_library_built_design_works_out_each_fact_once(work_outs):
    design = doubling_a(catalog_get("sqs10").design())
    for _ in range(3):
        verify_steiner(design)
        pair_census(design)
        classify(design)
    assert work_outs == {"_steiner_report": 1, "_pair_counts": 1}


def test_mutating_a_census_leaves_the_next_one_unchanged():
    design = _renested(catalog_get("ro20").design(), 20)
    census = pair_census(design)
    want = list(census.counts.items())
    census.counts[(0, 1)] = 99
    census.counts[(-1, -2)] = 1
    assert list(pair_census(design).counts.items()) == want
    pair_census(design).counts.clear()
    assert list(pair_census(design).counts.items()) == want
    assert classify(design) == classify(_fresh(design))


def test_caller_built_designs_and_copies_are_never_memoized(work_outs):
    design = catalog_get("ro26").design()
    for other in (
        _fresh(design),
        dataclasses.replace(design),
        copy.copy(design),
        pickle.loads(pickle.dumps(design)),
    ):
        work_outs.clear()
        for _ in range(2):
            verify_steiner(other)
            pair_census(other)
        assert work_outs == {"_steiner_report": 2, "_pair_counts": 2}


def test_memo_is_no_part_of_a_designs_value():
    design = catalog_get("ro38").design()
    fresh = _fresh(design)
    before = pickle.dumps(design)
    verify_steiner(design)
    pair_census(design)
    for other in (fresh, dataclasses.replace(design)):
        assert design == other and hash(design) == hash(other)
        assert repr(design) == repr(other)
    assert pickle.dumps(design) == before == pickle.dumps(fresh)


@pytest.mark.parametrize(
    "name",
    [n for n in sorted(catalog_names()) if catalog_get(n).kind == "rotational-spec"],
)
def test_rotational_expand_hands_over_its_report(name, work_outs):
    design = rotational_expand(catalog_get(name).payload)
    assert work_outs == {"_steiner_report": 1}
    report = verify_steiner(design)
    assert work_outs == {"_steiner_report": 1}
    assert report == verify_steiner(_fresh(design))


# nested_design sorts by the keys of its one checking pass


def _v128():
    return doubling_a(doubling_a(catalog_get("bool32").design()))


def _v124():
    return doubling_b(catalog_get("ro62").design())


@pytest.mark.parametrize("build", [_v124, _v128])
def test_nested_design_sorts_shuffled_v124_and_v128_by_its_keys(build):
    design = build()
    blocks = list(parse_design(serialize_design(design)).blocks)
    rng = random.Random(design.v)
    # equal blocks as other tuples, some twice, among the shuffled blocks
    repeats = [(b[0], b[1]) for b in rng.sample(blocks, 50)]
    for blocks in (blocks, blocks + repeats + repeats[:10]):
        blocks = blocks[:]
        rng.shuffle(blocks)
        got = assert_nests_like_reference(design.v, blocks, design.uses_infinity)
        # the caller's blocks are kept, duplicates in input order: the
        # stable sort of the blocks themselves
        assert list(map(id, got[1].blocks)) == list(map(id, sorted(blocks)))
    assert got[1] != design and len(got[1].blocks) == len(design.blocks) + 60


@pytest.mark.parametrize(
    "items",
    [[], [7], list(range(20)), list(range(20))[::-1], [3, 1, 3, 2, 1, 3] * 5,
     random.Random(0).sample(range(10**6), 5000)],
)
def test_list_sort_calls_its_key_once_per_item_in_list_order(items):
    # nested_design sorts with key=partial(next, iter(keys)), which holds
    # only if list.sort calls its key once per item, in list order
    items = [(x,) for x in items]
    given = items[:]
    called = []

    def key(item):
        called.append(item)
        return item

    items.sort(key=key)
    assert list(map(id, called)) == list(map(id, given))
    keys = [x for (x,) in given]
    assert sorted(given, key=functools.partial(next, iter(keys))) == sorted(given)


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize(
    "blocks",
    [
        [((1, 2), (4, 5)), ((1, 2.0), (6, 7))],
        [((1, 2.0), (4, 5)), ((1, 2), (6, 7))],
    ],
)
def test_relabel_of_a_float_pair_equal_to_an_int_pair_matches_reference(blocks, reverse):
    # the two pairs are equal but for the type of one point; the fast
    # path must not map the float one through the int one's image
    design = nested_design(8, blocks)
    if reverse:
        design = NestedDesign(8, design.blocks[::-1])
    perm = list(range(8))
    got = _relabel_outcome(relabel, design, perm)
    assert got == _relabel_outcome(reference_relabel, design, perm)
    assert got[0] is TypeError


# ---------------------------------------------------------------------------
# one constructor: each producer hands it blocks in order, or has it sort


def _shuffled_text(design, seed):
    """The serialization of a design with its block lines shuffled."""
    head, *lines = serialize_design(design).splitlines()
    body = [line for line in lines if not line.startswith("#")]
    random.Random(seed).shuffle(body)
    return "\n".join([head, *body, *lines[len(body):]]) + "\n"


def _resplit(design, seed, moves=25):
    rng = random.Random(seed)
    for _ in range(moves):
        i = rng.randrange(len(design.blocks))
        design = repartition(design, i, rng.choice(alternative_splits(design.blocks[i])))
    return design


def _producer_designs():
    for name in sorted(catalog_names()):
        entry = catalog_get(name)
        if entry.kind == "rotational-spec":
            yield f"expand:{name}", lambda e=entry: rotational_expand(e.payload)
    yield "doubling-a:bool32", lambda: doubling_a(catalog_get("bool32").design())
    yield "doubling-a:bool32.a", _v128
    yield "doubling-b:ro62", _v124
    for n in range(2, 7):
        yield f"boolean{n}", lambda n=n: boolean_sqs(n)
    yield "relabel:ro26", lambda: relabel(
        catalog_get("ro26").design(), random.Random(26).sample(range(26), 26)
    )
    yield "repartition:ro38", lambda: _resplit(catalog_get("ro38").design(), 38)
    yield "local-balance:boolean5", lambda: local_balance(
        boolean_sqs(5), 4, 6, max_moves=20
    ).witness
    for name in ("sqs8uniform", "ro20", "ro62"):
        design = lambda name=name: catalog_get(name).design()  # noqa: E731
        yield f"parse:{name}", lambda d=design: parse_design(serialize_design(d()))
        yield f"parse-shuffled:{name}", lambda d=design, name=name: parse_design(
            _shuffled_text(d(), name)
        )


@pytest.mark.parametrize(
    "build", [pytest.param(build, id=name) for name, build in _producer_designs()]
)
def test_every_producer_builds_a_sorted_design_with_a_memo(build):
    design = build()
    assert hasattr(design, "_memo")
    again = nested_design(design.v, reversed(design.blocks), design.uses_infinity)
    assert again == design


def test_doubling_a_of_an_unsorted_caller_design_is_sorted():
    design = catalog_get("ro20").design()
    shuffled = list(design.blocks)
    random.Random(20).shuffle(shuffled)
    for given in (NestedDesign(20, tuple(shuffled)), _fresh(design)):
        got = doubling_a(given)
        assert got.blocks == tuple(sorted(got.blocks))
        assert got == doubling_a(design)


def _call_outcome(fn, *args):
    """fn's result, or the type and text of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared with the reference
        return type(exc), str(exc)


def reference_repartition(design, index, split):
    """repartition as it was: the new split in place, then nested anew."""
    split = canonical_block(*split)
    old = design.blocks[index]
    if block_points(split) != block_points(old):
        raise InvalidSplitError(f"split {split} does not cover the points of block {old}")
    blocks = list(design.blocks)
    blocks[index] = split
    return nested_design(design.v, blocks, design.uses_infinity)


@pytest.mark.parametrize("name", ["sqs10", "ro26", "ro62"])
def test_repartition_matches_renesting(name):
    design = catalog_get(name).design()
    rng = random.Random(name)
    for _ in range(40):
        n = len(design.blocks)
        index = rng.randrange(-n, n)
        (a, b), (c, d) = rng.choice(alternative_splits(design.blocks[index]))
        split = rng.choice([((a, b), (c, d)), ((d, c), (b, a)), ((b, a), (c, d))])
        got = repartition(design, index, split)
        assert got == reference_repartition(design, index, split)
        assert hasattr(got, "_memo")
        wrong = ((a, b), (c, next(x for x in range(design.v) if x not in (a, b, c, d))))
        assert _call_outcome(repartition, design, index, wrong) == _call_outcome(
            reference_repartition, design, index, wrong
        )
        design = got


@pytest.mark.parametrize(
    "bad", [((0, 1), (2, 8)), ((1, 0), (3, 2)), ((0, 1), (1, 2)), ((-1, 1), (2, 3))]
)
@pytest.mark.parametrize("reverse", [False, True])
def test_repartition_of_a_caller_design_matches_renesting(bad, reverse):
    sqs8 = catalog_get("sqs8uniform").design()
    blocks = (bad,) + sqs8.blocks[1:]
    design = NestedDesign(8, blocks[::-1] if reverse else blocks)
    index = 7
    split = alternative_splits(design.blocks[index])[2]
    got = _call_outcome(repartition, design, index, split)
    assert got == _call_outcome(reference_repartition, design, index, split)
    # an unsorted caller design with good blocks is sorted as before
    design = NestedDesign(8, sqs8.blocks[::-1])
    split = alternative_splits(design.blocks[index])[2]
    got = repartition(design, index, split)
    assert got == reference_repartition(design, index, split)
