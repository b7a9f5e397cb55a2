"""Pinned results every correct version of nsqs must reproduce.

Designs are keyed by how they are built: a catalog name is its
rotational expansion, ``.a`` is one ``doubling_a`` and ``.b`` one
``doubling_b``.  Each entry holds the order v, the sha256 of
``serialize_design``, and ``classify`` as (kind, nd_pairs, mu_min, mu_max).
Feasibility tables are pinned by the sha256 of
``json.dumps([asdict(row) for row in rows], sort_keys=True)``.
"""

DESIGNS = {
    "bool32": (
        32,
        "44c397faddf3c43d17a0d17020c5aca89ac374792dc552ee85638ee96652bfef",
        ("complete-uniform", 496, 5, 5),
    ),
    "bool32.a": (
        64,
        "01a380fbbeafce2e2e645b393448912d6839937c7c65610a5460d6917d226d4d",
        ("minimum-uniform", 992, 21, 21),
    ),
    "bool32.a.a": (
        128,
        "f44dbdb50b185dbd2e37414a59e33951141f7d90312bc773b553986e7e5227be",
        ("irregular", 4032, 32, 53),
    ),
    "ro62": (
        62,
        "4c0904d058a530fdd8b84dbf41b9f581118dfd9a9f3833d9835fe8a0a1fef65f",
        ("complete-uniform", 1891, 10, 10),
    ),
    "ro62.b": (
        124,
        "8049122f32e953c0c6f94cf5bf72e1c7c322d72090b6ef3609364e2bb6bd7a9a",
        ("irregular", 7626, 20, 61),
    ),
    "ro20": (
        20,
        "ec77dbaafd42ee45c38090d2137e0c5c914eb266eae9b7051655f96078f5cdbf",
        ("complete-uniform", 190, 3, 3),
    ),
    "ro20.a": (
        40,
        "8e5784753c14bcab52240711542d9b194cbd6cb1db520d652a6666b1f83a32a3",
        ("minimum-uniform", 380, 13, 13),
    ),
    "ro26": (
        26,
        "224e410ce8a28295b4a81b657d07c81d1f33a8faea331edbacb443a0ca42ca8e",
        ("complete-uniform", 325, 4, 4),
    ),
    "ro26.b": (
        52,
        "32283a4c5f9dc029a86afcd0d527247d567cc553884effbf0be1a2b9c4d29c8a",
        ("irregular", 1326, 8, 25),
    ),
}

TABLES = {
    (8, 64): "dd6285ef463a3cb1d7e043eab5e981396f8767c40e93624657286516f5ae8597",
    (100, 130): "d687f198e003f07ee51797363a9dabbd6d3cccf1c2838d16d4bd69a70d19f2e8",
    (500, 630): "e3e68866d24b681805c3b95f8bf5764fc27be99d2e60a2ff25c2518a2a315907",
}
