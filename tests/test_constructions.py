"""One-factorizations, Boolean and rotational constructions, doubling."""

import hashlib
import itertools
import math
import random

import pytest

from nsqs import (
    Gf2nField,
    InconsistentSpecError,
    NestedDesign,
    NsqsError,
    InvalidOrderError,
    InvalidPairError,
    InvalidSplitError,
    OneFactorization,
    PreconditionError,
    RotationalSpec,
    alternative_splits,
    block_points,
    boolean_blocks,
    boolean_rotational_design,
    boolean_sqs,
    boolean_to_rotational,
    canonical_block,
    catalog_get,
    classify,
    doubling_a,
    doubling_b,
    expected_block_count,
    nested_design,
    one_factorization,
    orbit_spec,
    pair_census,
    parse_design,
    relabel,
    rotational_expand,
    rotational_spec,
    serialize_design,
    verify_steiner,
)
from nsqs.catalog import BOOL32_POLY

BOOL32_MULTIPLIERS = (1, 2, 4, 8, 16)


def sorted_design(v, blocks, uses_infinity=False):
    """Canonical blocks sorted by tuple order into a design, independent
    of the library's constructor (which orders them the same way)."""
    return NestedDesign(v, tuple(sorted(blocks)), uses_infinity)


@pytest.mark.parametrize("v", [4, 6, 8, 10, 16, 20])
def test_one_factorization_valid(v):
    f = one_factorization(v)
    f.validate()
    assert len(f.factors) == v - 1
    for factor in f.factors:
        assert len(factor) == v // 2
        assert sorted(x for pr in factor for x in pr) == list(range(v))
    edges = {pr for factor in f.factors for pr in factor}
    assert len(edges) == v * (v - 1) // 2


def test_one_factorization_rejects_odd():
    with pytest.raises(InvalidOrderError):
        one_factorization(7)


@pytest.mark.parametrize("n", [9, 40])
def test_boolean_sqs_refuses_large_n(n):
    with pytest.raises(InvalidOrderError, match=f"needs n <= 8, got {n}"):
        boolean_sqs(n)


@pytest.mark.parametrize(
    "n,count", [(2, 1), (3, 14), (4, 140), (5, 1240)]
)
def test_boolean_block_counts(n, count):
    blocks = boolean_blocks(n)
    assert len(blocks) == count == expected_block_count(1 << n)
    for blk in blocks:
        x, y, z, w = blk
        assert x ^ y ^ z ^ w == 0
        assert len(set(blk)) == 4


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_boolean_sqs_verifies(n):
    design = boolean_sqs(n)
    assert verify_steiner(design).ok


def test_boolean_n3_matches_bool8_fixture():
    design = boolean_sqs(3)
    fixture = catalog_get("bool8").design()
    assert {block_points(b) for b in design.blocks} == {
        block_points(b) for b in fixture.blocks
    }


def test_boolean_to_rotational_is_a_bijection():
    field = Gf2nField(5)
    mapping = boolean_to_rotational(field)
    assert sorted(mapping) == list(range(32))
    assert sorted(mapping.values()) == list(range(32))
    assert mapping[0] == 31  # zero becomes the fixed point
    assert mapping[1] == 0  # alpha^0 = 1


def test_boolean_rotational_design_verifies():
    design = boolean_rotational_design(5)
    assert verify_steiner(design).ok
    assert design.uses_infinity
    assert len(design.blocks) == 1240


def test_rotational_expand_matches_catalog():
    spec = catalog_get("ro20").payload
    design = rotational_expand(spec)
    assert verify_steiner(design).ok
    assert len(design.blocks) == 285


def test_rotational_expand_detects_wrong_block_count():
    spec = catalog_get("ro20").payload
    short = rotational_spec(spec.p, spec.base_blocks[:-1], spec.multipliers)
    with pytest.raises(InconsistentSpecError) as info:
        rotational_expand(short)
    # refused by its image count, before any image is built
    assert str(info.value) == (
        "14 base blocks have 266 images under 19 maps x -> m*x + s, expected 285"
    )


# sha256 of serialize_design of each rotational catalog expansion,
# recorded from the version that mapped and deduplicated image by image
EXPANSION_PINS = {
    "bool32": "44c397faddf3c43d17a0d17020c5aca89ac374792dc552ee85638ee96652bfef",
    "ro20": "ec77dbaafd42ee45c38090d2137e0c5c914eb266eae9b7051655f96078f5cdbf",
    "ro26": "224e410ce8a28295b4a81b657d07c81d1f33a8faea331edbacb443a0ca42ca8e",
    "ro38": "7ecab2fbecc5ee27d2eb4b547b36a3e431c313f13c83017a76b37eb47258d561",
    "ro62": "4c0904d058a530fdd8b84dbf41b9f581118dfd9a9f3833d9835fe8a0a1fef65f",
}


def _expansion_digest(spec):
    return hashlib.sha256(serialize_design(rotational_expand(spec)).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(EXPANSION_PINS))
def test_rotational_expand_pinned(name):
    assert _expansion_digest(catalog_get(name).payload) == EXPANSION_PINS[name]


def _ro20_variant(blocks):
    """A directly built spec over Z_19 + {inf}, skipping rotational_spec's
    canonicalization and validation."""
    return RotationalSpec(19, tuple(blocks))


_RO20_BASE = list(catalog_get("ro20").payload.base_blocks)
_RO20_RESPLIT = ((0, 1), (8, 19))  # base block 0 is ((0, 8), (1, 19))


@pytest.mark.parametrize(
    "blocks",
    [
        pytest.param([((19, 1), (8, 0))] + _RO20_BASE[1:], id="noncanonical"),
    ],
)
def test_rotational_expand_equivalent_specs_give_ro20(blocks):
    assert _expansion_digest(_ro20_variant(blocks)) == EXPANSION_PINS["ro20"]


# the image-count refusal of a ro20 variant with n base blocks
def _ro20_count_error(n):
    return f"{n} base blocks have {19 * n} images under 19 maps x -> m*x + s, expected 285"


# errors of bad specs: the image count is refused first, before any
# image is built, then a degenerate base block at its first image, then
# a failed Steiner check by its witness triple (id, base blocks, error
# class, message)
EXPANSION_ERRORS = [
    (
        # an orbit listed twice is refused, not deduplicated
        "repeated",
        _RO20_BASE + [_RO20_BASE[0]],
        InconsistentSpecError,
        _ro20_count_error(16),
    ),
    (
        "resplit",
        _RO20_BASE + [_RO20_RESPLIT],
        InconsistentSpecError,
        _ro20_count_error(16),
    ),
    (
        # the right block count: the orbit reached with two splits covers
        # its triples twice
        "resplit-in-place",
        _RO20_BASE[:-1] + [_RO20_RESPLIT],
        InconsistentSpecError,
        "expansion is not a quadruple system; witness triple (0, 1, 8) "
        "covered 2 times",
    ),
    (
        # the right block count, but not a quadruple system
        "moved",
        [((1, 19), (2, 8))] + _RO20_BASE[1:],
        InconsistentSpecError,
        "expansion is not a quadruple system; witness triple (0, 1, 7) "
        "covered 2 times",
    ),
    (
        "degenerate-split",
        [((0, 1), (1, 5))] + _RO20_BASE[1:],
        InvalidSplitError,
        "split pairs (0, 1) and (1, 5) are not disjoint",
    ),
    (
        "degenerate-pair",
        _RO20_BASE[:3] + [((4, 4), (1, 5))] + _RO20_BASE[3:],
        InconsistentSpecError,
        _ro20_count_error(16),
    ),
    (
        "degenerate-pair-in-place",
        _RO20_BASE[:3] + [((4, 4), (1, 5))] + _RO20_BASE[4:],
        InvalidPairError,
        "pair needs two distinct points, got 4 twice",
    ),
    (
        "resplit-then-degenerate",
        [_RO20_BASE[0], _RO20_RESPLIT, ((0, 1), (1, 5))],
        InconsistentSpecError,
        _ro20_count_error(3),
    ),
]


@pytest.mark.parametrize(
    "blocks,error,message",
    [pytest.param(b, e, m, id=i) for i, b, e, m in EXPANSION_ERRORS],
)
def test_rotational_expand_error_pinned(blocks, error, message):
    with pytest.raises(error) as info:
        rotational_expand(_ro20_variant(blocks))
    assert type(info.value) is error
    assert str(info.value) == message


def test_rotational_expand_short_orbit():
    # {1, 12, 2, 11} split (1, 12) / (2, 11) is fixed by negation, so its
    # 26 images hold 13 distinct blocks; a spec counts 26, and 26 images
    # are not the 91 blocks of an SQS(14)
    spec = RotationalSpec(13, (((1, 12), (2, 11)),), frozenset({1, 12}))
    with pytest.raises(InconsistentSpecError) as info:
        rotational_expand(spec)
    assert str(info.value) == (
        "1 base blocks have 26 images under 26 maps x -> m*x + s, expected 91"
    )


def test_rotational_spec_validates_multiplier_closure():
    with pytest.raises(InconsistentSpecError):
        rotational_spec(19, [((19, 1), (0, 9))], (1, 2)).validate()


def test_rotational_spec_rejects_a_multiplier_that_is_not_a_unit():
    # 6 and 11 share a factor with p, though each group is closed; the
    # p=55 spec's 63 * 2 * 55 images number the 6930 blocks of an
    # SQS(56), so without the unit check it reached its image blocks
    with pytest.raises(InconsistentSpecError, match="^multiplier 6 not a unit mod 15$"):
        rotational_spec(15, [((0, 5), (10, 15))], (1, 6))
    base = (((0, 11), (5, 55)),) * 63
    assert len(base) * 2 * 55 == expected_block_count(56)
    with pytest.raises(InconsistentSpecError, match="^multiplier 11 not a unit mod 55$"):
        rotational_spec(55, base, (1, 11))
    with pytest.raises(InconsistentSpecError, match="^multiplier 11 not a unit mod 55$"):
        rotational_expand(RotationalSpec(55, base, frozenset({1, 11})))


def test_rotational_spec_rejects_point_out_of_range():
    with pytest.raises(InconsistentSpecError, match="point 9 out of range 0..7"):
        rotational_spec(7, [((0, 1), (2, 9))])


# ---------------------------------------------------------------------------
# orbit specs: the Boolean SQS under shift and Frobenius doubling


def _orbit(pts, p, multipliers):
    return {
        frozenset(x if x == p else (m * x + s) % p for x in pts)
        for m in multipliers
        for s in range(p)
    }


def test_orbit_spec_boolean_n3_orbits():
    design = boolean_rotational_design(3)
    spec = orbit_spec(design, {1})
    assert [block_points(b) for b in spec.base_blocks] == [
        frozenset({0, 1, 2, 5}), frozenset({0, 1, 3, 7}),
    ]
    # the default splits are not orbit-consistent; the point sets are
    assert {block_points(b) for b in rotational_expand(spec).blocks} == {
        block_points(b) for b in design.blocks
    }


def test_orbit_spec_refuses_boolean_n3():
    # doubling fixes both orbits of 7: 7 blocks per orbit, not 7 * 3
    with pytest.raises(InconsistentSpecError) as info:
        orbit_spec(boolean_rotational_design(3), {1, 2, 4})
    assert str(info.value) == (
        "orbit of block [0, 1, 2, 5] holds 7 blocks, expected 21"
    )


def test_orbit_spec_refuses_boolean_even_n():
    with pytest.raises(InconsistentSpecError, match="holds 15 blocks, expected 60"):
        orbit_spec(boolean_rotational_design(4), {1, 2, 4, 8})


def test_no_consistent_class_nesting_for_n3():
    """Both orbits at n=3 have order-3 stabilizers under {1, 2, 4} that
    move every split, so no orbit-consistent nesting exists at all."""
    maps = [(m, s) for m in (1, 2, 4) for s in range(7)]

    def image(pts, m, s):
        return frozenset(x if x == 7 else (m * x + s) % 7 for x in pts)

    for pts in ((0, 1, 2, 5), (0, 1, 3, 7)):
        stabilizer = [(m, s) for m, s in maps if image(pts, m, s) == set(pts)]
        assert len(stabilizer) == 3
        for split in alternative_splits(pts):
            moved = {frozenset(image(pair, m, s) for pair in split) for m, s in stabilizer}
            assert len(moved) == 3
    # a spec expresses only orbits of 21 images, so every choice of
    # splits is refused by its image count
    for s0 in alternative_splits((0, 1, 2, 5)):
        for s1 in alternative_splits((0, 1, 3, 7)):
            with pytest.raises(InconsistentSpecError) as info:
                rotational_expand(rotational_spec(7, [s0, s1], (1, 2, 4)))
            assert str(info.value) == (
                "2 base blocks have 42 images under 21 maps x -> m*x + s, expected 14"
            )


def test_orbit_spec_boolean_n5():
    spec = orbit_spec(boolean_rotational_design(5), BOOL32_MULTIPLIERS)
    assert len(spec.base_blocks) == 8
    orbits = [_orbit(block_points(b), 31, BOOL32_MULTIPLIERS) for b in spec.base_blocks]
    assert [len(o) for o in orbits] == [155] * 8
    assert len(set().union(*orbits)) == 1240


def _bool32_orbit_spec():
    return orbit_spec(
        boolean_rotational_design(5, BOOL32_POLY), BOOL32_MULTIPLIERS
    )


def test_orbit_splits_expand_to_catalog_bool32():
    spec = _bool32_orbit_spec()
    splits = catalog_get("bool32").payload.base_blocks
    # align each catalog base split with its orbit
    ordered = []
    for base in spec.base_blocks:
        orbit = _orbit(block_points(base), 31, BOOL32_MULTIPLIERS)
        match = [s for s in splits if block_points(s) in orbit]
        assert len(match) == 1
        ordered.append(match[0])
    design = rotational_expand(rotational_spec(31, ordered, BOOL32_MULTIPLIERS))
    assert design == catalog_get("bool32").design()


def test_orbit_spec_rejects_foreign_split():
    base = list(_bool32_orbit_spec().base_blocks)
    # a second split from the first orbit in place of the second orbit's
    base[1] = alternative_splits(block_points(base[0]))[1]
    with pytest.raises(InconsistentSpecError) as info:
        rotational_expand(rotational_spec(31, base, BOOL32_MULTIPLIERS))
    # the first orbit, reached with two splits, covers its triples twice
    assert str(info.value) == (
        "expansion is not a quadruple system; witness triple (0, 1, 2) covered 2 times"
    )


def test_negation_does_not_preserve_blocks():
    for n in (3, 5):
        p = (1 << n) - 1
        with pytest.raises(InconsistentSpecError, match="not invariant"):
            orbit_spec(boolean_rotational_design(n), {1, p - 1})


@pytest.mark.parametrize(
    "name", ["ro20", "ro26", "ro38", "ro62", "bool32", "sqs8uniform"]
)
def test_orbit_spec_round_trip(name):
    entry = catalog_get(name)
    design = entry.design()
    multipliers = getattr(entry.payload, "multipliers", {1})
    spec = orbit_spec(design, multipliers)
    assert spec.multipliers == frozenset(multipliers)
    assert rotational_expand(spec) == design


@pytest.mark.parametrize("name", ["sqs10", "bool8"])
def test_orbit_spec_refuses_non_invariant(name):
    with pytest.raises(InconsistentSpecError, match="not invariant"):
        orbit_spec(catalog_get(name).design(), {1})


# ---------------------------------------------------------------------------
# doubling

def test_doubling_a_from_sqs8uniform():
    d8 = catalog_get("sqs8uniform").design()
    d16 = doubling_a(d8)
    assert verify_steiner(d16).ok
    cls = classify(d16)
    assert cls.kind == "minimum-uniform"
    assert cls.nd_pairs == 56
    assert cls.mu_min == cls.mu_max == 5
    assert cls.half_partition == (tuple(range(8)), tuple(range(8, 16)))


def test_doubling_a_accepts_edges_written_high_to_low():
    for name in ("sqs8uniform", "sqs10", "ro20"):
        design = catalog_get(name).design()
        standard = one_factorization(design.v)
        reversed_edges = OneFactorization(
            v=design.v,
            factors=tuple(
                frozenset((hi, lo) for lo, hi in factor) for factor in standard.factors
            ),
        )
        reversed_edges.validate()
        assert doubling_a(design, reversed_edges) == doubling_a(design, standard)


def test_doubling_a_census_law_sqs10():
    d10 = catalog_get("sqs10").design()
    base = pair_census(d10)
    d20 = doubling_a(d10)
    assert verify_steiner(d20).ok
    census = pair_census(d20)
    # within-side pair {(x,i),(y,i)} multiplicity = v/2 + input multiplicity
    for (a, b), count in census.counts.items():
        assert (a < 10) == (b < 10), "no cross pairs are ND under doubling A"
        x, y = a % 10, b % 10
        assert count == 5 + base.counts.get((min(x, y), max(x, y)), 0)


def test_doubling_b_from_sqs8uniform():
    d8 = catalog_get("sqs8uniform").design()
    d16 = doubling_b(d8)
    assert verify_steiner(d16).ok
    census = pair_census(d16)
    assert census.histogram() == {2: 112, 7: 8}
    assert census.nd_pair_count == 120
    assert census.total == 280
    base = pair_census(d8)
    for (a, b), count in census.counts.items():
        x, y = a % 8, b % 8
        if x == y:
            assert count == 7  # {(x,0),(x,1)} pairs
        else:
            assert count == 2 * base.counts[(min(x, y), max(x, y))]


def test_doubling_b_precondition():
    d10 = catalog_get("sqs10").design()
    with pytest.raises(PreconditionError, match=r"\(0, 5\)"):
        doubling_b(d10)


def test_doubling_a_rejects_non_steiner():
    d8 = catalog_get("sqs8uniform").design()
    broken = nested_design(8, d8.blocks[:-1])
    with pytest.raises(PreconditionError):
        doubling_a(broken)


# ---------------------------------------------------------------------------
# shared pair tuples: the builders against the versions that gave every
# block its own two pair tuples


def reference_boolean_sqs(n):
    """boolean_sqs as it was, one canonical_block per block."""
    if n < 2:
        raise InvalidOrderError(f"boolean system needs n >= 2, got {n}")
    size = 1 << n
    blocks = []
    for x in range(size):
        for y in range(x + 1, size):
            for z in range(y + 1, size):
                w = x ^ y ^ z
                if w > z:
                    blocks.append(canonical_block((x, y), (z, w)))
    return nested_design(size, blocks)


def reference_rotational_images(spec):
    """The images of rotational_expand, checked in its order: validation,
    the image count, each image built from four shifted points (its
    pairs new tuples), then the Steiner check."""
    spec.validate()
    p = spec.p
    v = spec.v
    maps = len(spec.multipliers) * p
    expected = expected_block_count(v)
    if len(spec.base_blocks) * maps != expected:
        raise InconsistentSpecError(
            f"{len(spec.base_blocks)} base blocks have "
            f"{len(spec.base_blocks) * maps} images under {maps} maps "
            f"x -> m*x + s, expected {expected}"
        )
    cycle = list(range(p)) * 2
    fixed = [p] * p

    def shifts(x):
        return fixed if x == p else cycle[x:x + p]

    images = []
    for (a, b), (c, d) in spec.base_blocks:
        for m in sorted(spec.multipliers):
            ra, rb, rc, rd = (
                shifts(pt if pt == p else m * pt % p) for pt in (a, b, c, d)
            )
            canonical_block((ra[0], rb[0]), (rc[0], rd[0]))
            for w, x, y, z in zip(ra, rb, rc, rd):
                if w > x:
                    w, x = x, w
                if y > z:
                    y, z = z, y
                images.append(((w, x), (y, z)) if w < y else ((y, z), (w, x)))
    report = verify_steiner(NestedDesign(v, tuple(images), uses_infinity=True))
    if not report.ok:
        raise InconsistentSpecError(
            f"expansion is not a quadruple system; witness triple "
            f"{report.witness} covered {report.witness_coverage} times"
        )
    return images


def reference_doubling_a(design, factorization=None):
    """doubling_a as it was: side-1 copies and Type II blocks sorted after."""
    v = design.v
    if not verify_steiner(design).ok:
        raise PreconditionError("doubling-a input is not a Steiner quadruple system")
    if factorization is None:
        factorization = one_factorization(v)
    if factorization.v != v:
        raise PreconditionError(
            f"factorization is over {factorization.v} points, design over {v}"
        )
    factorization.validate()
    blocks = list(design.blocks)
    blocks += [((a + v, b + v), (c + v, d + v)) for (a, b), (c, d) in design.blocks]
    for factor in factorization.factors:
        edges = [(x, y) if x < y else (y, x) for x, y in factor]
        shifted = [(z + v, w + v) for z, w in edges]
        blocks += [(e, f) for e in edges for f in shifted]
    return sorted_design(2 * v, blocks)


def reference_doubling_b(design):
    """doubling_b as it was: eight images per block, pair by pair."""
    v = design.v
    if not verify_steiner(design).ok:
        raise PreconditionError("doubling-b input is not a Steiner quadruple system")
    census = pair_census(design)
    for a in range(v):
        for b in range(a + 1, v):
            if (a, b) not in census.counts:
                raise PreconditionError(
                    f"doubling-b needs all pairs to be ND-pairs; "
                    f"pair ({a}, {b}) is not"
                )
    offsets = [
        (i * v, j * v, k * v, (i + j + k) % 2 * v)
        for i, j, k in itertools.product((0, 1), repeat=3)
    ]
    blocks = []
    for (x, y), (z, w) in design.blocks:
        for dx, dy, dz, dw in offsets:
            s, t, u, r = x + dx, y + dy, z + dz, w + dw
            p = (s, t) if s < t else (t, s)
            q = (u, r) if u < r else (r, u)
            blocks.append((p, q) if p < q else (q, p))
    blocks += [((x, x + v), (y, y + v)) for x in range(v) for y in range(x + 1, v)]
    return sorted_design(2 * v, blocks)


def _outcome(fn, *args):
    """fn's result, or the type and text of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared with the reference
        return type(exc), str(exc)


def _one_tuple_per_pair(design):
    return len({id(p) for b in design.blocks for p in b}) == len(
        pair_census(design).counts
    )


ROTATIONAL_NAMES = ["bool32", "ro20", "ro26", "ro38", "ro62"]


def _chain_a():
    d32 = rotational_expand(catalog_get("bool32").payload)
    d64 = doubling_a(d32)
    return [d64, doubling_a(d64)]


@pytest.mark.parametrize("n", range(2, 7))
def test_boolean_sqs_matches_reference(n):
    assert boolean_sqs(n) == reference_boolean_sqs(n)
    assert boolean_blocks(n) == [p + q for p, q in reference_boolean_sqs(n).blocks]


def test_boolean_rotational_design_one_tuple_per_pair():
    design = boolean_rotational_design(5)
    assert _one_tuple_per_pair(design)


@pytest.mark.parametrize("n", range(2, 7))
def test_boolean_sqs_one_tuple_per_pair(n):
    assert _one_tuple_per_pair(boolean_sqs(n))


@pytest.mark.parametrize("name", ROTATIONAL_NAMES)
def test_rotational_expand_one_tuple_per_pair(name):
    assert _one_tuple_per_pair(rotational_expand(catalog_get(name).payload))


def test_doublings_one_tuple_per_pair():
    designs = _chain_a()
    designs += [doubling_b(catalog_get(name).design()) for name in ("ro20", "ro62")]
    assert [d.v for d in designs] == [64, 128, 40, 124]
    for design in designs:
        assert _one_tuple_per_pair(design)


def test_relabel_and_parse_one_tuple_per_pair():
    design = catalog_get("ro38").design()
    perm = list(range(design.v))
    random.Random(5).shuffle(perm)
    assert _one_tuple_per_pair(relabel(design, perm))
    # a design whose blocks each held their own pair tuples
    own = nested_design(
        design.v, [((a, b), (c, d)) for (a, b), (c, d) in design.blocks]
    )
    assert not _one_tuple_per_pair(own)
    assert _one_tuple_per_pair(relabel(own, perm))
    assert _one_tuple_per_pair(parse_design(serialize_design(own)))


def _subgroups(p, max_order):
    """The cyclic groups of units mod p of order at most max_order."""
    groups = set()
    for g in range(1, p):
        group = frozenset(pow(g, k, p) for k in range(p))
        if math.gcd(g, p) == 1 and len(group) <= max_order:
            groups.add(group)
    return sorted(groups, key=sorted)


def _differential_specs():
    """Specs for the image differential: catalog, pinned error and
    short-orbit specs, shuffled catalog base blocks under small
    multiplier groups, and random specs over odd and even p."""
    specs = [(name, catalog_get(name).payload) for name in ROTATIONAL_NAMES]
    specs += [(i, _ro20_variant(b)) for i, b, _, _ in EXPANSION_ERRORS]
    specs += [
        ("noncanonical", _ro20_variant([((19, 1), (8, 0))] + _RO20_BASE[1:])),
        ("short-orbit", RotationalSpec(13, (((1, 12), (2, 11)),), frozenset({1, 12}))),
    ]
    rng = random.Random(13)
    for name in ROTATIONAL_NAMES:
        spec = catalog_get(name).payload
        for group in _subgroups(spec.p, 6):
            base = list(spec.base_blocks)
            rng.shuffle(base)
            shuffled = RotationalSpec(spec.p, tuple(base), group)
            specs.append((f"{name}-shuffled-{sorted(group)}", shuffled))
    for k in range(60):
        p = rng.randrange(4, 31)
        units = [m for m in range(1, p) if math.gcd(m, p) == 1]
        gen = rng.choice(units)
        group = frozenset(pow(gen, e, p) for e in range(p))
        base = []
        for _ in range(rng.randrange(1, 6)):
            a, b, c, d = rng.sample(range(p + 1), 4)
            base.append(((a, b), (c, d)))
        specs.append((f"random-{k}-p{p}", RotationalSpec(p, tuple(base), group)))
    return specs


@pytest.mark.parametrize(
    "spec", [pytest.param(s, id=str(i)) for i, s in _differential_specs()]
)
def test_rotational_images_match_reference(spec):
    def reference(spec):
        images = reference_rotational_images(spec)
        return sorted_design(spec.v, images, uses_infinity=True)

    got = _outcome(rotational_expand, spec)
    assert got == _outcome(reference, spec)
    if isinstance(got, NestedDesign):
        assert _one_tuple_per_pair(got)


def _doubling_input(name):
    """A doubling input used above, one whose blocks are not in sorted
    order, one that is not a Steiner system, or an empty design."""
    if name == "bool32.a":
        return _chain_a()[0]
    if name == "ro20-shuffled":
        shuffled = list(catalog_get("ro20").design().blocks)
        random.Random(3).shuffle(shuffled)
        return NestedDesign(20, tuple(shuffled))
    if name == "sqs8-less-one":
        return nested_design(8, catalog_get("sqs8uniform").design().blocks[:-1])
    if name.startswith("empty-"):
        return NestedDesign(int(name[6:]), ())
    return catalog_get(name).design()


@pytest.mark.parametrize(
    "name",
    ["sqs8uniform", "sqs10", "ro20", "ro62", "bool32.a", "ro20-shuffled",
     "sqs8-less-one", "empty-2", "empty-1"],
)
def test_doublings_match_reference(name):
    design = _doubling_input(name)
    for build, reference in ((doubling_a, reference_doubling_a),
                             (doubling_b, reference_doubling_b)):
        got = _outcome(build, design)
        assert got == _outcome(reference, design)
        if isinstance(got, NestedDesign):
            assert _one_tuple_per_pair(got)


def test_doubling_a_reversed_edges_match_reference():
    for name in ("sqs8uniform", "sqs10", "ro20"):
        design = catalog_get(name).design()
        reversed_edges = OneFactorization(
            v=design.v,
            factors=tuple(
                frozenset((hi, lo) for lo, hi in factor)
                for factor in one_factorization(design.v).factors
            ),
        )
        got = doubling_a(design, reversed_edges)
        assert got == reference_doubling_a(design, reversed_edges)
        assert _one_tuple_per_pair(got)
    wrong = one_factorization(10)
    design = catalog_get("sqs8uniform").design()
    assert _outcome(doubling_a, design, wrong) == _outcome(
        reference_doubling_a, design, wrong
    )

