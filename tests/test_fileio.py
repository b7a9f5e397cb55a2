"""Design file parsing and byte-deterministic serialization."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from nsqs import (
    NestedDesign,
    NsqsError,
    ParseError,
    catalog_get,
    catalog_names,
    doubling_a,
    nested_design,
    parse_base_spec,
    parse_design,
    rotational_expand,
    serialize_base_spec,
    serialize_design,
)
from nsqs.constructions import rotational_spec


def sorted_design(v, blocks, uses_infinity=False):
    """Canonical blocks sorted by tuple order into a design, independent
    of the library's constructor (which orders them the same way)."""
    return NestedDesign(v, tuple(sorted(blocks)), uses_infinity)


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


# ---------------------------------------------------------------------------
# The parser against the line-by-line reader it replaced

_REF_HEADER = re.compile(r"^nsqs v=(\d+) blocks=(\d+)$")
_REF_BASE_HEADER = re.compile(r"^nsqs-base p=(\d+) multipliers=(\d+(?:,\d+)*)$")
_REF_LINE = re.compile(r"^(\S+) (\S+) \| (\S+) (\S+)$")


def _ref_point(token, inf_index, lineno):
    if token == "inf":
        return inf_index
    try:
        x = int(token)
    except ValueError:
        raise ParseError(f"line {lineno}: bad point {token!r}")
    if not 0 <= x < inf_index + 1:
        raise ParseError(f"line {lineno}: point {x} out of range 0..{inf_index}")
    return x


def _ref_header(text, header):
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty input")
    m = header.match(lines[0].strip())
    if not m:
        raise ParseError(f"line 1: bad header {lines[0]!r}")
    return m, lines[1:]


def _ref_blocks(body, inf_index):
    blocks, saw_inf, metadata = [], False, {}
    for lineno, line in enumerate(body, 2):
        m = _REF_LINE.match(line)
        if m is None or line[0] == "#":
            if not line.strip():
                continue
            if line.startswith("#"):
                meta = line[1:].strip()
                if "=" not in meta:
                    raise ParseError(f"line {lineno}: metadata needs key=value")
                key, _, value = meta.partition("=")
                metadata[key.strip()] = value.strip()
                continue
            raise ParseError(f"line {lineno}: malformed block line {line!r}")
        tokens = m.groups()
        saw_inf = saw_inf or "inf" in tokens
        a, b, c, d = (_ref_point(t, inf_index, lineno) for t in tokens)
        if len({a, b, c, d}) < 4:
            raise ParseError(f"line {lineno}: repeated point in block {line!r}")
        p, q = (min(a, b), max(a, b)), (min(c, d), max(c, d))
        blocks.append((p, q) if p < q else (q, p))
    return blocks, saw_inf, metadata


def reference_parse_design(text, strict_count=True):
    """The parser as it was before pair texts were shared: every line
    read alone, token by token."""
    m, body = _ref_header(text, _REF_HEADER)
    v, count = int(m.group(1)), int(m.group(2))
    if not strict_count:
        count = sum(
            1 for line in body if line.strip() and not line.lstrip().startswith("#")
        )
    blocks, saw_inf, metadata = _ref_blocks(body, v - 1)
    if len(blocks) != count:
        raise ParseError(f"header announced {count} blocks, file contains {len(blocks)}")
    uses_infinity = saw_inf or metadata.get("infinity") == "1"
    return sorted_design(v, blocks, uses_infinity=uses_infinity)


def reference_parse_base_spec(text):
    """parse_base_spec over the same line-by-line reader."""
    m, body = _ref_header(text, _REF_BASE_HEADER)
    p = int(m.group(1))
    multipliers = tuple(int(t) for t in m.group(2).split(","))
    blocks, _, _ = _ref_blocks(body, p)
    return rotational_spec(p, blocks, multipliers)


def _outcome(parse, text, strict_count):
    try:
        design = parse(text, strict_count=strict_count)
    except ParseError as exc:
        return ("error", str(exc))
    return ("design", design, design.uses_infinity, design.blocks)


def assert_parses_like_reference(text):
    for strict_count in (True, False):
        got = _outcome(parse_design, text, strict_count)
        want = _outcome(reference_parse_design, text, strict_count)
        assert got == want, (text[:200], strict_count)


_RO20 = serialize_design(catalog_get("ro20").design())
_SQS8 = serialize_design(catalog_get("sqs8uniform").design())


def _swap_line(text, i, line):
    lines = text.split("\n")
    lines[i] = line
    return "\n".join(lines)


PARSER_DIFFERENTIAL_CASES = {
    "crlf": _RO20.replace("\n", "\r\n"),
    "crlf body only": _RO20.replace("\n", "\r\n").replace("\r\n", "\n", 1),
    "cr body": _RO20.replace("\n", "\r").replace("\r", "\n", 1),
    "cr in header": _RO20.replace("\n", "\r", 1),
    "cr header end": _RO20.replace("\n", "\r\n", 1),
    "formfeed in header": _RO20.replace(" blocks", "\x0cblocks", 1),
    "formfeed header end": _RO20.replace("\n", "\x0c", 1),
    "file separator body": _RO20.replace("\n", "\x1c", 3),
    "line separator body": _RO20.replace("\n", "\u2028", 5),
    "line separator header": _RO20.replace("\n", "\u2028", 1),
    "formfeed mid line": _swap_line(_RO20, 40, "0 1 |\x0c2 3"),
    "nel mid file": _swap_line(_RO20, 40, _RO20.split("\n")[40] + "\x85"),
    "blank line mid file": _swap_line(_RO20, 100, "\n" + _RO20.split("\n")[100]),
    "spaces line mid file": _swap_line(_RO20, 100, "   \n" + _RO20.split("\n")[100]),
    "comment mid file": _swap_line(_RO20, 100, "# note=x\n" + _RO20.split("\n")[100]),
    "bad comment mid file": _swap_line(_RO20, 100, "# loose\n" + _RO20.split("\n")[100]),
    "infinity metadata only": "nsqs v=8 blocks=1\n0 1 | 2 3\n# infinity=1\n",
    "infinity metadata first": "nsqs v=8 blocks=1\n# infinity=1\n0 1 | 2 3\n",
    "inf tokens": _SQS8,
    "inf spelled out": _SQS8.replace("inf", "7"),
    "inf mixed": _SQS8.replace("inf", "7", 3),
    "leading zeros": _swap_line(_RO20, 7, "007 1 | 2 3"),
    "plus sign": _swap_line(_RO20, 7, "+5 1 | 2 3"),
    "underscore": _swap_line(_RO20, 7, "1_0 11 | 2 3"),
    "arabic digit": _swap_line(_RO20, 7, "٣ 1 | 5 6"),
    "arabic digit header": _RO20.replace("v=20", "v=٢٠", 1),
    "out of range": _swap_line(_RO20, 9, "0 1 | 2 20"),
    "far out of range": _swap_line(_RO20, 9, "0 1 | 2 99999999999999"),
    "negative": _swap_line(_RO20, 9, "-1 1 | 2 3"),
    "repeated point": _swap_line(_RO20, 9, "0 1 | 1 2"),
    "repeated greatest point": _swap_line(_RO20, 9, "0 2 | 1 2"),
    "repeated least point": _swap_line(_RO20, 9, "0 1 | 0 2"),
    "repeated inf": _swap_line(_SQS8, 3, "inf 7 | 1 2"),
    "pair high to low": _swap_line(_RO20, 9, "3 1 | 0 2"),
    "second pair first": _swap_line(_RO20, 9, "2 3 | 0 1"),
    "pairs interleaved": "nsqs v=8 blocks=2\n0 2 | 1 3\n0 3 | 1 2\n",
    "blocks out of order": "nsqs v=8 blocks=2\n4 5 | 6 7\n0 1 | 2 3\n",
    "no trailing newline": _RO20.rstrip("\n"),
    "no trailing newline inf": _SQS8.rstrip("\n"),
    "truncated": "\n".join(_RO20.split("\n")[:50]) + "\n",
    "count too low": _RO20.replace("blocks=285", "blocks=284", 1),
    "count too high": _RO20.replace("blocks=285", "blocks=286", 1),
    "huge v": "nsqs v=99999999999 blocks=1\n0 1 | 2 3\n",
    "bulk limit v": "nsqs v=65536 blocks=1\n0 1 | 2 65535\n",
    "past bulk limit v": "nsqs v=65537 blocks=1\n0 1 | 2 65536\n",
    "zero v": "nsqs v=0 blocks=1\ninf 0 | 1 2\n",
    "one v inf": "nsqs v=1 blocks=1\ninf 0 | inf 0\n",
    "header only": "nsqs v=8 blocks=0",
    "header newline": "nsqs v=8 blocks=0\n",
    "empty": "",
    "newline only": "\n",
    "header trailing space": "nsqs v=8 blocks=1 \n0 1 | 2 3\n",
    "double space": _swap_line(_RO20, 9, "0  1 | 2 3"),
    "tab": _swap_line(_RO20, 9, "0\t1 | 2 3"),
    "pipe token": _swap_line(_RO20, 9, "0 1 | | 3"),
    "two pipes": _swap_line(_RO20, 9, "0 1 | 2 | 3"),
    "hash block": _swap_line(_RO20, 9, "# 1 | 2 3"),
    "fin token": _swap_line(_RO20, 9, "fin 1 | 2 3"),
    "three tokens in a pair": _swap_line(_RO20, 9, "0 1 2 | 3 4"),
}


@pytest.mark.parametrize("name", sorted(PARSER_DIFFERENTIAL_CASES))
def test_parse_matches_line_by_line_reference(name):
    assert_parses_like_reference(PARSER_DIFFERENTIAL_CASES[name])


def test_parse_of_multi_chunk_designs_matches_reference():
    for design in (catalog_get("ro62").design(), doubling_a(catalog_get("bool32").design())):
        text = serialize_design(design)
        assert len(text) > 65536  # split into lines more than one chunk at a time
        assert parse_design(text) == reference_parse_design(text) == design
        # a fault far into the file, after thousands of shared pair texts
        lines = text.split("\n")
        for k, line in ((len(lines) - 3, "0 1 | 1 2"), (7000, "5 4 | 1 0")):
            broken = "\n".join(lines[:k] + [line] + lines[k + 1:])
            assert_parses_like_reference(broken)


def _past_first_chunk(lines):
    """The index of the first line that starts after the parser's first
    64 KiB chunk of text."""
    pos = 0
    for i, line in enumerate(lines):
        if pos > 65536:
            return i
        pos += len(line) + 1
    raise AssertionError("text fits in one chunk")


@pytest.mark.parametrize(
    "late",
    [
        ["0 1 2 3"],
        ["", "0 1 2 3"],
        ["# note=x", "   ", "5 4 | 1 0", "0 1 | 2 99"],
        ["", "# loose"],
        ["# infinity=1", "", "0 1 | 1 2"],
        ["", "# note=x"],
    ],
)
def test_parse_errors_after_the_first_chunk_match_reference(late):
    lines = serialize_design(catalog_get("ro62").design()).split("\n")
    k = _past_first_chunk(lines)
    # blank and # lines before and after the chunk boundary, then ``late``
    body = lines[:100] + ["", "# note=x"] + lines[100:k] + ["   ", "# a=b"] + lines[k:]
    j = k + 300
    text = "\n".join(body[:j] + late + body[j:])
    assert_parses_like_reference(text)
    if late[-1] == "0 1 2 3":
        with pytest.raises(ParseError, match=f"^line {j + len(late)}: malformed"):
            parse_design(text)


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_crlf_and_cr_files_parse_like_lf(newline):
    design = doubling_a(catalog_get("bool32").design())
    text = serialize_design(design)
    parsed = parse_design(text.replace("\n", newline))
    assert parsed == parse_design(text) == design
    pairs = [p for blk in parsed.blocks for p in blk]
    assert len({id(p) for p in pairs}) == len(set(pairs))  # one tuple per pair


def _base_outcome(parse, text):
    try:
        return ("spec", parse(text))
    except NsqsError as exc:
        return ("error", type(exc), str(exc))


_RO20_BASE = serialize_base_spec(catalog_get("ro20").payload)
_RO62_BASE = serialize_base_spec(catalog_get("ro62").payload)

BASE_DIFFERENTIAL_CASES = {
    **{
        f"catalog {name}": serialize_base_spec(catalog_get(name).payload)
        for name in ("ro20", "ro26", "ro38", "ro62", "bool32")
    },
    "crlf": _RO62_BASE.replace("\n", "\r\n"),
    "cr": _RO62_BASE.replace("\n", "\r"),
    "inf spelled out": _RO20_BASE.replace("inf", "19"),
    "inf mixed": _RO20_BASE.replace("inf", "19", 1),
    "out of range": _swap_line(_RO20_BASE, 2, "0 1 | 2 20"),
    "p written out": _swap_line(_RO20_BASE, 2, "0 1 | 2 19"),
    "base block twice": _swap_line(
        _RO20_BASE, 2, _RO20_BASE.split("\n")[2] + "\n" + _RO20_BASE.split("\n")[2]
    ),
    "negative": _swap_line(_RO20_BASE, 2, "-1 1 | 2 3"),
    "repeated point": _swap_line(_RO20_BASE, 2, "0 1 | 1 2"),
    "repeated inf": _swap_line(_RO20_BASE, 2, "inf 19 | 1 2"),
    "pairs out of order": _swap_line(_RO20_BASE, 2, "9 0 | inf 1"),
    "leading zeros": _swap_line(_RO20_BASE, 2, "00 1 | 2 3"),
    "blank and comment lines": _swap_line(
        _RO20_BASE, 2, "\n   \n# note=x\n" + _RO20_BASE.split("\n")[2]
    ),
    "bad comment": _swap_line(_RO20_BASE, 2, "# loose"),
    "malformed line": _swap_line(_RO20_BASE, 2, "0 1 2 3"),
    "design header": "nsqs v=4 blocks=1\n0 1 | 2 3\n",
    "no multipliers": _RO20_BASE.replace(" multipliers=1", "", 1),
    "multipliers not a group": _RO20_BASE.replace("=1\n", "=1,19\n", 1),
    "header trailing space": _RO20_BASE.replace("\n", " \n", 1),
    "header only": "nsqs-base p=19 multipliers=1\n",
    "empty": "",
    "newline only": "\n",
    "no trailing newline": _RO62_BASE.rstrip("\n"),
}


@pytest.mark.parametrize("name", sorted(BASE_DIFFERENTIAL_CASES))
def test_parse_base_spec_matches_line_by_line_reference(name):
    text = BASE_DIFFERENTIAL_CASES[name]
    assert _base_outcome(parse_base_spec, text) == _base_outcome(
        reference_parse_base_spec, text
    )


_MUTATION_LINES = [
    "", "   ", "# note=x", "# loose", "# infinity=1", "0 1 | 2 3", "3 1 | 0 2",
    "inf 1 | 2 3", "0 1 | 2 inf", "007 1 | 2 3", "+5 1 | 2 3", "1_0 1 | 2 3",
    "٣ 1 | 2 4", "0 1 | 1 2", "0 2 | 1 2", "0 1 | 2 99", "0 1 2 3", "0\t1 | 2 3",
]
_MUTATION_SEPARATORS = ["\n", "\r\n", "\r", "\x0c", "\x1c", "\u2028", "\x85"]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(["sqs8uniform", "sqs10", "ro20", "ro26"]),
    edits=st.lists(
        st.tuples(
            st.integers(0, 10**6),
            st.sampled_from(["replace", "insert", "delete", "separator"]),
            st.sampled_from(_MUTATION_LINES),
            st.sampled_from(_MUTATION_SEPARATORS),
        ),
        max_size=3,
    ),
    cut=st.booleans(),
)
def test_parse_matches_reference_under_line_mutations(name, edits, cut):
    lines = serialize_design(catalog_get(name).design()).split("\n")
    seps = ["\n"] * len(lines)
    for at, kind, line, sep in edits:
        i = at % len(lines)
        if kind == "replace":
            lines[i] = line
        elif kind == "insert":
            lines.insert(i, line)
            seps.insert(i, "\n")
        elif kind == "delete" and len(lines) > 1:
            del lines[i], seps[i]
        else:
            seps[i] = sep
    text = "".join(line + sep for line, sep in zip(lines, seps))
    if cut:
        text = text[: len(text) // 2]
    assert_parses_like_reference(text)
