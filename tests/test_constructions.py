"""One-factorizations, Boolean and rotational constructions, doubling."""

import pytest

from nsqs import (
    Gf2nField,
    InconsistentSpecError,
    InvalidOrderError,
    InvalidSplitError,
    OneFactorization,
    PreconditionError,
    alternative_splits,
    block_classes,
    block_points,
    boolean_blocks,
    boolean_rotational_design,
    boolean_sqs,
    boolean_to_rotational,
    catalog_get,
    classify,
    doubling_a,
    doubling_b,
    expected_block_count,
    nest_from_class_reps,
    negation_preserves_blocks,
    nested_design,
    one_factorization,
    pair_census,
    rotational_expand,
    rotational_spec,
    verify_steiner,
)


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
    with pytest.raises(InconsistentSpecError):
        rotational_expand(short)


def test_rotational_spec_validates_multiplier_closure():
    with pytest.raises(InconsistentSpecError):
        rotational_spec(19, [((19, 1), (0, 9))], (1, 2)).validate()


def test_rotational_spec_rejects_point_out_of_range():
    with pytest.raises(InconsistentSpecError, match="point 9 out of range 0..7"):
        rotational_spec(7, [((0, 1), (2, 9))])


def test_block_classes_n3():
    classes = block_classes(3)
    assert [c.size for c in classes] == [7, 7]
    assert classes[0].representative == (0, 1, 2, 5)
    assert classes[1].representative == (0, 1, 3, 7)
    covered = set()
    for c in classes:
        covered |= set(c.orbit)
    assert len(covered) == 14


def test_block_classes_n5():
    classes = block_classes(5)
    assert len(classes) == 8
    assert all(c.size == 155 for c in classes)


def test_block_classes_rejects_even_n():
    with pytest.raises(InvalidOrderError):
        block_classes(4)


def test_nest_from_class_reps_equals_catalog_bool32():
    classes = block_classes(5)
    fixture = catalog_get("bool32")
    splits = list(fixture.payload.base_blocks)
    # align each catalog base split with its class
    ordered = []
    for cls in classes:
        match = [s for s in splits if block_points(s) in cls.orbit]
        assert len(match) == 1
        ordered.append(match[0])
    design = nest_from_class_reps(classes, ordered)
    assert design == fixture.design()


def test_nest_from_class_reps_rejects_foreign_split():
    classes = block_classes(3)
    good = alternative_splits(classes[0].representative)[0]
    with pytest.raises(InvalidSplitError):
        nest_from_class_reps(classes, [good, good])


def test_no_consistent_class_nesting_for_n3():
    """Both classes at n=3 have order-3 stabilizers that move every
    split, so no orbit-consistent nesting exists at all.  Seeding from a
    representative is enough: propagation visits the whole orbit either
    way, so every seed hits the same stabilizer conflict."""
    classes = block_classes(3)
    for s0 in alternative_splits(classes[0].representative):
        for s1 in alternative_splits(classes[1].representative):
            with pytest.raises(InconsistentSpecError):
                nest_from_class_reps(classes, [s0, s1])


def test_negation_does_not_preserve_blocks():
    assert negation_preserves_blocks(3) is False
    assert negation_preserves_blocks(5) is False


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
