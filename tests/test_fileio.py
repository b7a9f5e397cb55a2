"""Design file parsing and byte-deterministic serialization."""

import pytest

from nsqs import (
    ParseError,
    catalog_get,
    catalog_names,
    nested_design,
    parse_base_spec,
    parse_design,
    rotational_expand,
    serialize_base_spec,
    serialize_design,
)


def test_single_block_example():
    d = parse_design("nsqs v=4 blocks=1\n0 1 | 2 3\n")
    assert d.v == 4
    assert d.blocks == (((0, 1), (2, 3)),)


@pytest.mark.parametrize("name", sorted(catalog_names()))
def test_round_trip_catalog(name):
    design = catalog_get(name).design()
    text = serialize_design(design)
    again = parse_design(text)
    assert again == design
    assert serialize_design(again) == text  # byte-deterministic


def test_serialize_is_canonical_order():
    d = nested_design(8, [((6, 7), (4, 5)), ((0, 1), (2, 3))])
    text = serialize_design(d)
    assert text == "nsqs v=8 blocks=2\n0 1 | 2 3\n4 5 | 6 7\n"


def test_inf_token():
    d = catalog_get("sqs8uniform").design()
    text = serialize_design(d)
    assert "inf" in text
    assert "# infinity=1" in text
    assert parse_design(text).uses_infinity


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 1"):
        parse_design("bogus header\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_design("nsqs v=4 blocks=1\n0 1 2 3\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_design("nsqs v=8 blocks=2\n0 1 | 2 3\n4 5 | 5 6\n")


def test_parse_rejects_overlapping_pairs():
    with pytest.raises(ParseError, match="repeated point"):
        parse_design("nsqs v=4 blocks=1\n0 1 | 1 2\n")


def test_parse_rejects_out_of_range_point():
    with pytest.raises(ParseError, match="out of range"):
        parse_design("nsqs v=4 blocks=1\n0 1 | 2 7\n")


def test_parse_rejects_count_mismatch():
    with pytest.raises(ParseError, match="announced 2"):
        parse_design("nsqs v=4 blocks=2\n0 1 | 2 3\n")


def test_lenient_count_for_truncated_files():
    d = parse_design("nsqs v=4 blocks=2\n0 1 | 2 3\n", strict_count=False)
    assert len(d.blocks) == 1


def test_metadata_lines_tolerated():
    text = "nsqs v=4 blocks=1\n0 1 | 2 3\n# source=unit-test\n"
    assert parse_design(text).v == 4
    with pytest.raises(ParseError, match="key=value"):
        parse_design("nsqs v=4 blocks=1\n0 1 | 2 3\n# loose comment\n")


@pytest.mark.parametrize("name", ["ro20", "ro26", "ro62", "bool32"])
def test_base_spec_round_trip(name):
    spec = catalog_get(name).payload
    text = serialize_base_spec(spec)
    again = parse_base_spec(text)
    assert again == spec
    assert rotational_expand(again) == catalog_get(name).design()


def test_base_spec_header():
    spec = catalog_get("ro62").payload
    header = serialize_base_spec(spec).splitlines()[0]
    assert header == "nsqs-base p=61 multipliers=1,9,20,34,58"


def test_base_spec_bad_header():
    with pytest.raises(ParseError, match="line 1"):
        parse_base_spec("nsqs v=4 blocks=1\n0 1 | 2 3\n")


# Each block line after the header "nsqs v=8 blocks=1", with the blocks it
# parses to or the exact ParseError text.
BLOCK_LINE_CASES = [
    ("inf 1 | 2 3", (((1, 7), (2, 3)),)),
    ("0 1 | inf 3", (((0, 1), (3, 7)),)),
    ("+5 1 | 2 3", (((1, 5), (2, 3)),)),
    ("007 1 | 2 3", (((1, 7), (2, 3)),)),
    ("-0 1 | 2 +7", (((0, 1), (2, 7)),)),
    ("5 4 | 1 0", (((0, 1), (4, 5)),)),
    ("-1 1 | 2 3", "line 2: point -1 out of range 0..7"),
    ("0 x | 2 3", "line 2: bad point 'x'"),
    ("0x1 1 | 2 3", "line 2: bad point '0x1'"),
    ("0 1 | 2 8", "line 2: point 8 out of range 0..7"),
    ("0 1 | 9 x", "line 2: point 9 out of range 0..7"),
    ("1_0 1 | 2 3", "line 2: point 10 out of range 0..7"),
    ("0 1 | 1 2", "line 2: repeated point in block '0 1 | 1 2'"),
    ("0 0 | 1 2", "line 2: repeated point in block '0 0 | 1 2'"),
    ("0 1 | 2 2", "line 2: repeated point in block '0 1 | 2 2'"),
    ("inf 7 | 1 2", "line 2: repeated point in block 'inf 7 | 1 2'"),
    ("0 1 | inf inf", "line 2: repeated point in block '0 1 | inf inf'"),
    ("0\t1 | 2 3", "line 2: malformed block line '0\\t1 | 2 3'"),
    ("0  1 | 2 3", "line 2: malformed block line '0  1 | 2 3'"),
    ("0 1 |  2 3", "line 2: malformed block line '0 1 |  2 3'"),
    ("0 1 | 2 3\t", "line 2: malformed block line '0 1 | 2 3\\t'"),
    (" 0 1 | 2 3", "line 2: malformed block line ' 0 1 | 2 3'"),
    ("0 1 2 3", "line 2: malformed block line '0 1 2 3'"),
    ("0 1 || 2 3", "line 2: malformed block line '0 1 || 2 3'"),
    ("# 1 | 2 3", "line 2: metadata needs key=value"),
]


@pytest.mark.parametrize("line, expected", BLOCK_LINE_CASES)
def test_block_line_contract(line, expected):
    text = f"nsqs v=8 blocks=1\n{line}\n"
    if isinstance(expected, str):
        with pytest.raises(ParseError) as info:
            parse_design(text)
        assert str(info.value) == expected
    else:
        design = parse_design(text)
        assert design.blocks == expected
        assert design.uses_infinity == ("inf" in line)


def test_error_line_numbers_count_blank_and_metadata_lines():
    text = "nsqs v=8 blocks=2\n\n# source=x\n0 1 | 2 3\n   \n4 5 | 6 6\n"
    with pytest.raises(ParseError) as info:
        parse_design(text)
    assert str(info.value) == "line 6: repeated point in block '4 5 | 6 6'"


def test_uses_infinity_from_metadata_alone():
    d = parse_design("nsqs v=8 blocks=1\n0 1 | 2 3\n# infinity=1\n")
    assert d.uses_infinity
    assert serialize_design(d) == "nsqs v=8 blocks=1\n0 1 | 2 3\n# infinity=1\n"
    assert not parse_design("nsqs v=8 blocks=1\n0 1 | 2 7\n# infinity=0\n").uses_infinity
