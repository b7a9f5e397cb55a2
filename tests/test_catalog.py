"""Full catalog regression: every entry's expected assertions hold."""

import pytest

from nsqs import (
    NsqsError,
    catalog_get,
    catalog_names,
    classify,
    pair_census,
    verify_steiner,
)
from nsqs.catalog import BOOL32_POLY


def test_catalog_names():
    assert catalog_names() == [
        "bool32", "bool8", "ro20", "ro26", "ro38", "ro62",
        "sqs10", "sqs8uniform",
    ]


def test_unknown_name_lists_available():
    with pytest.raises(NsqsError, match="available: bool32"):
        catalog_get("nosuch")


@pytest.mark.parametrize("name", sorted(catalog_names()))
def test_entry_expected_assertions(name):
    entry = catalog_get(name)
    design = entry.design()
    expected = entry.expected
    assert design.v == expected["v"]
    assert len(design.blocks) == expected["blocks"]
    assert verify_steiner(design).ok
    census = pair_census(design)
    assert census.nd_pair_count == expected["nd_pairs"]
    if "histogram" in expected:
        assert census.histogram() == expected["histogram"]
    cls = classify(design)
    assert cls.kind == expected["kind"]
    if "mu" in expected:
        assert cls.mu_min == cls.mu_max == expected["mu"]


def test_ro26_first_base_block():
    spec = catalog_get("ro26").payload
    # [{inf,3} | {0,1}] with inf encoded as 25
    assert spec.base_blocks[0] == ((0, 1), (3, 25))
    assert len(spec.base_blocks) == 26


def test_ro38_base_block_count():
    assert len(catalog_get("ro38").payload.base_blocks) == 57


def test_ro62_multipliers():
    spec = catalog_get("ro62").payload
    assert sorted(spec.multipliers) == [1, 9, 20, 34, 58]
    assert len(spec.base_blocks) == 31


def test_bool32_entry_shape():
    entry = catalog_get("bool32")
    assert entry.kind == "rotational-spec"
    assert entry.expected["poly"] == BOOL32_POLY == 0b100101
    assert len(entry.payload.base_blocks) == 8
    assert sorted(entry.payload.multipliers) == [1, 2, 4, 8, 16]


def test_entry_kinds():
    kinds = {name: catalog_get(name).kind for name in catalog_names()}
    assert kinds == {
        "bool8": "flat-design",
        "sqs8uniform": "flat-design",
        "sqs10": "flat-design",
        "ro20": "rotational-spec",
        "ro26": "rotational-spec",
        "ro38": "rotational-spec",
        "ro62": "rotational-spec",
        "bool32": "rotational-spec",
    }
