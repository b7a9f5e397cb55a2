"""Built-in catalog of nested quadruple systems and rotational specs.

Each entry carries the data needed to rebuild it plus the expected
census/classification facts, so the whole catalog doubles as a
regression suite.  Rotational entries store base blocks over
Z_p + {inf}, with inf written as the index p.  The order-10 system is
stored over Z_5 x Z_2 with (a, b) encoded as a + 5b.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from .constructions import RotationalSpec, rotational_expand, rotational_spec
from .core import NestedDesign, nested_design
from .errors import NsqsError

INF8 = 7    # infinity over Z_7 + {inf}
INF20 = 19
INF26 = 25
INF38 = 37
INF62 = 61
INF32 = 31

BOOL32_POLY = 0b100101  # x^5 + x^2 + 1


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    payload: Union[NestedDesign, RotationalSpec]
    expected: dict = field(default_factory=dict, compare=False)

    @property
    def kind(self) -> str:
        if isinstance(self.payload, RotationalSpec):
            return "rotational-spec"
        return "flat-design"

    def design(self) -> NestedDesign:
        """The full nested design (expanding rotational payloads)."""
        if isinstance(self.payload, RotationalSpec):
            return rotational_expand(self.payload)
        return self.payload


def _enc10(a: int, b: int) -> int:
    return a + 5 * b


# The unique SQS(8), nested so that four "complement" pairs appear three
# times each and eight more pairs twice each.
_BOOL8_BLOCKS = [
    ((0, 1), (2, 3)), ((0, 1), (4, 5)), ((0, 1), (6, 7)),
    ((0, 2), (4, 6)), ((0, 2), (5, 7)),
    ((0, 3), (4, 7)), ((0, 3), (5, 6)),
    ((1, 2), (5, 6)), ((1, 2), (4, 7)),
    ((1, 3), (4, 6)), ((1, 3), (5, 7)),
    ((2, 3), (4, 5)), ((2, 3), (6, 7)),
    ((4, 5), (6, 7)),
]

# The same block set nested so every one of the 28 pairs appears once.
_SQS8_UNIFORM_BLOCKS = [
    ((INF8, 0), (2, 6)), ((INF8, 1), (0, 3)), ((INF8, 2), (1, 4)),
    ((INF8, 3), (2, 5)), ((INF8, 4), (3, 6)), ((INF8, 5), (0, 4)),
    ((INF8, 6), (1, 5)),
    ((0, 1), (4, 6)), ((0, 2), (3, 4)), ((0, 5), (1, 2)),
    ((0, 6), (3, 5)), ((1, 3), (4, 5)), ((1, 6), (2, 3)),
    ((2, 4), (5, 6)),
]

# The unique SQS(10) over Z_5 x Z_2, nested with every ND-pair twice.
_SQS10_BLOCKS_RAW = [
    (((0, 0), (2, 1)), ((0, 1), (1, 1))),
    (((2, 0), (3, 1)), ((1, 1), (2, 1))),
    (((4, 0), (4, 1)), ((2, 1), (3, 1))),
    (((1, 0), (0, 1)), ((3, 1), (4, 1))),
    (((3, 0), (1, 1)), ((4, 1), (0, 1))),
    (((0, 0), (4, 1)), ((1, 1), (3, 1))),
    (((2, 0), (0, 1)), ((2, 1), (4, 1))),
    (((4, 0), (1, 1)), ((0, 1), (3, 1))),
    (((1, 0), (2, 1)), ((1, 1), (4, 1))),
    (((3, 0), (3, 1)), ((0, 1), (2, 1))),
    (((1, 0), (2, 0)), ((0, 1), (1, 1))),
    (((3, 0), (4, 0)), ((1, 1), (2, 1))),
    (((0, 0), (1, 0)), ((2, 1), (3, 1))),
    (((2, 0), (3, 0)), ((3, 1), (4, 1))),
    (((0, 0), (4, 0)), ((0, 1), (4, 1))),
    (((1, 0), (4, 0)), ((0, 1), (2, 1))),
    (((1, 0), (3, 0)), ((1, 1), (3, 1))),
    (((0, 0), (3, 0)), ((2, 1), (4, 1))),
    (((0, 0), (2, 0)), ((0, 1), (3, 1))),
    (((2, 0), (4, 0)), ((1, 1), (4, 1))),
    (((1, 0), (2, 0)), ((0, 0), (4, 1))),
    (((2, 0), (3, 0)), ((1, 0), (2, 1))),
    (((3, 0), (4, 0)), ((2, 0), (0, 1))),
    (((0, 0), (4, 0)), ((3, 0), (3, 1))),
    (((0, 0), (1, 0)), ((4, 0), (1, 1))),
    (((1, 0), (3, 0)), ((4, 0), (4, 1))),
    (((2, 0), (4, 0)), ((0, 0), (2, 1))),
    (((0, 0), (3, 0)), ((1, 0), (0, 1))),
    (((1, 0), (4, 0)), ((2, 0), (3, 1))),
    (((0, 0), (2, 0)), ((3, 0), (1, 1))),
]

_RO20_BASE = [
    ((INF20, 1), (0, 8)), ((INF20, 2), (0, 5)), ((INF20, 13), (0, 9)),
    ((0, 1), (2, 4)), ((0, 1), (6, 9)), ((0, 1), (10, 17)),
    ((0, 2), (6, 14)), ((0, 2), (9, 15)),
    ((0, 3), (4, 16)), ((0, 3), (5, 10)),
    ((0, 4), (5, 9)), ((0, 4), (7, 15)),
    ((0, 5), (6, 16)),
    ((0, 6), (11, 18)), ((0, 6), (8, 17)),
]

_RO26_BASE = [
    # Third block corrected from {inf,14},{0,7}: as printed it double
    # covers difference class 7 and misses class 4; {inf,21},{0,7} is the
    # unique repair keeping the {0,7} split pair, and restores exact
    # triple coverage.
    ((INF26, 3), (0, 1)), ((INF26, 13), (0, 5)), ((INF26, 21), (0, 7)),
    ((INF26, 15), (0, 6)),
    ((0, 1), (12, 22)), ((0, 1), (13, 21)), ((0, 1), (14, 23)),
    ((0, 2), (1, 5)), ((0, 2), (6, 9)), ((0, 2), (7, 17)), ((0, 2), (15, 20)),
    ((0, 3), (5, 11)), ((0, 3), (8, 17)), ((0, 3), (13, 20)),
    ((0, 4), (2, 12)), ((0, 4), (6, 18)), ((0, 4), (10, 21)),
    ((0, 5), (6, 24)), ((0, 5), (9, 21)),
    ((0, 6), (3, 10)), ((0, 6), (11, 22)),
    ((0, 8), (1, 9)), ((0, 8), (6, 19)),
    ((0, 9), (7, 18)), ((0, 9), (10, 24)),
    ((0, 10), (7, 19)),
]

_RO38_BASE = [
    ((INF38, 22), (0, 2)), ((INF38, 33), (0, 3)), ((INF38, 14), (0, 8)),
    ((INF38, 10), (0, 11)), ((INF38, 18), (0, 13)), ((INF38, 28), (0, 16)),
    ((0, 1), (2, 6)), ((0, 1), (7, 19)), ((0, 1), (9, 35)),
    ((0, 1), (10, 24)), ((0, 1), (13, 30)), ((0, 1), (20, 34)),
    ((0, 2), (4, 16)), ((0, 2), (5, 8)), ((0, 2), (13, 36)),
    ((0, 2), (19, 24)), ((0, 2), (25, 30)),
    ((0, 3), (7, 28)), ((0, 3), (9, 19)), ((0, 3), (12, 20)),
    ((0, 3), (17, 27)),
    ((0, 4), (1, 11)), ((0, 4), (5, 21)), ((0, 4), (8, 22)),
    ((0, 4), (15, 27)), ((0, 4), (17, 32)),
    ((0, 5), (3, 26)), ((0, 5), (19, 35)), ((0, 5), (23, 29)),
    ((0, 5), (27, 34)),
    ((0, 6), (4, 30)), ((0, 6), (5, 31)), ((0, 6), (7, 27)),
    ((0, 6), (10, 32)), ((0, 6), (17, 26)),
    ((0, 7), (5, 25)), ((0, 7), (12, 23)), ((0, 7), (14, 31)),
    ((0, 7), (17, 36)), ((0, 7), (26, 35)),
    ((0, 8), (6, 23)), ((0, 8), (9, 33)), ((0, 8), (10, 35)),
    ((0, 8), (11, 24)),
    ((0, 9), (4, 14)), ((0, 9), (6, 24)), ((0, 9), (10, 21)),
    ((0, 9), (15, 30)),
    ((0, 10), (4, 19)), ((0, 10), (22, 34)),
    ((0, 12), (8, 32)),
    ((0, 13), (9, 29)), ((0, 13), (16, 35)),
    ((0, 14), (15, 36)),
    ((0, 15), (3, 21)), ((0, 15), (8, 26)),
    ((0, 16), (8, 27)),
]

_RO62_BASE = [
    ((INF62, 5), (0, 1)), ((INF62, 10), (0, 2)),
    ((0, 1), (20, 30)), ((0, 1), (21, 42)), ((0, 1), (22, 23)),
    ((0, 1), (24, 25)), ((0, 1), (26, 31)), ((0, 1), (29, 41)),
    ((0, 1), (33, 57)),
    ((0, 2), (14, 44)), ((0, 2), (18, 56)), ((0, 2), (20, 22)),
    ((0, 2), (30, 53)), ((0, 2), (33, 49)), ((0, 2), (40, 42)),
    ((0, 4), (7, 58)), ((0, 4), (8, 53)), ((0, 4), (9, 13)),
    ((0, 4), (12, 28)), ((0, 4), (17, 43)), ((0, 4), (22, 46)),
    ((0, 4), (33, 55)), ((0, 4), (36, 44)),
    ((0, 5), (14, 52)), ((0, 5), (18, 28)), ((0, 5), (34, 39)),
    ((0, 5), (48, 56)),
    ((0, 8), (1, 9)), ((0, 8), (21, 51)),
    ((0, 10), (1, 11)), ((0, 10), (12, 56)),
]

_RO62_MULTIPLIERS = (1, 9, 20, 34, 58)

# Base splits for the eight orbits of the rotational Boolean SQS(32)
# built on x^5 + x^2 + 1 under all shifts and the multiplier group
# {1, 2, 4, 8, 16} (Frobenius doubling in exponent coordinates);
# expanding them nests the whole system with every pair at multiplicity 5.
BOOL32_BASE_SPLITS = [
    ((0, 1), (2, 11)),
    ((0, 1), (3, 27)),
    ((0, 1), (4, 17)),
    ((0, 1), (5, 19)),
    ((0, 26), (1, 7)),
    ((0, 24), (1, 14)),
    ((0, 5), (10, 22)),
    ((0, 2), (INF32, 5)),
]


def _build_entries() -> dict[str, CatalogEntry]:
    entries = {}

    entries["bool8"] = CatalogEntry(
        name="bool8",
        payload=nested_design(8, _BOOL8_BLOCKS),
        expected={
            "v": 8, "blocks": 14, "nd_pairs": 12,
            "histogram": {2: 8, 3: 4}, "kind": "quasi-uniform",
        },
    )
    entries["sqs8uniform"] = CatalogEntry(
        name="sqs8uniform",
        payload=nested_design(8, _SQS8_UNIFORM_BLOCKS, uses_infinity=True),
        expected={
            "v": 8, "blocks": 14, "nd_pairs": 28,
            "histogram": {1: 28}, "kind": "complete-uniform", "mu": 1,
        },
    )
    sqs10_blocks = [
        ((_enc10(*p1a), _enc10(*p1b)), (_enc10(*p2a), _enc10(*p2b)))
        for (p1a, p1b), (p2a, p2b) in _SQS10_BLOCKS_RAW
    ]
    entries["sqs10"] = CatalogEntry(
        name="sqs10",
        payload=nested_design(10, sqs10_blocks),
        expected={
            "v": 10, "blocks": 30, "nd_pairs": 30,
            "histogram": {2: 30}, "kind": "uniform", "mu": 2,
        },
    )
    entries["ro20"] = CatalogEntry(
        name="ro20",
        payload=rotational_spec(19, _RO20_BASE),
        expected={
            "v": 20, "blocks": 285, "nd_pairs": 190,
            "kind": "complete-uniform", "mu": 3,
        },
    )
    entries["ro26"] = CatalogEntry(
        name="ro26",
        payload=rotational_spec(25, _RO26_BASE),
        expected={
            "v": 26, "blocks": 650, "nd_pairs": 325,
            "kind": "complete-uniform", "mu": 4,
        },
    )
    entries["ro38"] = CatalogEntry(
        name="ro38",
        payload=rotational_spec(37, _RO38_BASE),
        expected={
            "v": 38, "blocks": 2109, "nd_pairs": 703,
            "kind": "complete-uniform", "mu": 6,
        },
    )
    entries["ro62"] = CatalogEntry(
        name="ro62",
        payload=rotational_spec(61, _RO62_BASE, _RO62_MULTIPLIERS),
        expected={
            "v": 62, "blocks": 9455, "nd_pairs": 1891,
            "kind": "complete-uniform", "mu": 10,
        },
    )
    entries["bool32"] = CatalogEntry(
        name="bool32",
        payload=rotational_spec(31, BOOL32_BASE_SPLITS, (1, 2, 4, 8, 16)),
        expected={
            "v": 32, "blocks": 1240, "nd_pairs": 496,
            "kind": "complete-uniform", "mu": 5, "poly": BOOL32_POLY,
        },
    )
    return entries


_ENTRIES = _build_entries()


def catalog_names() -> list[str]:
    return sorted(_ENTRIES)


def catalog_get(name: str) -> CatalogEntry:
    try:
        return _ENTRIES[name]
    except KeyError:
        raise NsqsError(
            f"unknown catalog entry {name!r}; available: {', '.join(catalog_names())}"
        )
