"""Plain-text design files.

Design format::

    nsqs v=10 blocks=30
    0 1 | 2 3
    ...
    # infinity=1

One block per line, the chosen split marked by ``|``.  Points are
decimal indices; the rotational fixed point (always the largest index)
is written ``inf``.  Trailing ``# key=value`` lines carry metadata; the
only recognized key is ``infinity``.  Serialization is byte-deterministic
and parse/serialize round-trips canonicalized designs exactly.

Rotational base-block files use the same block lines under a different
header::

    nsqs-base p=19 multipliers=1,9
    inf 1 | 0 9
    ...
"""

from __future__ import annotations

import operator
import re

from .constructions import RotationalSpec, rotational_spec
from .core import NestedDesign, design_from_canonical
from .errors import ParseError

_DESIGN_HEADER = re.compile(r"^nsqs v=(\d+) blocks=(\d+)$")
_BASE_HEADER = re.compile(r"^nsqs-base p=(\d+) multipliers=(\d+(?:,\d+)*)$")
_BLOCK_LINE = re.compile(r"^(\S+) (\S+) \| (\S+) (\S+)$")
# A run of lines shaped like serialize_design's block lines: two pair
# texts of digits, letters of "inf" and spaces, split by " | ", each line
# ended by "\n".  Whether a pair text names a pair is checked apart.
_PAIR_TEXT = "[0-9inf ]+"
_PLAIN_LINES = re.compile(rf"(?:{_PAIR_TEXT} \| {_PAIR_TEXT}\n)*")
# The header's v is untrusted: the bulk parse builds a point-name table
# of v entries, so it runs only up to this order.
_BULK_MAX_V = 1 << 16
_BULK_CHUNK = 1 << 16  # characters the bulk parse reads per pass
_first = operator.itemgetter(0)
_second = operator.itemgetter(1)


def _parse_point(token: str, inf_index: int, lineno: int) -> int:
    if token == "inf":
        return inf_index
    try:
        x = int(token)
    except ValueError:
        raise ParseError(f"line {lineno}: bad point {token!r}")
    if not 0 <= x < inf_index + 1:
        raise ParseError(f"line {lineno}: point {x} out of range 0..{inf_index}")
    return x


def _parse_blocks(lines, start_lineno, inf_index):
    """Parse lines of a design body into canonical blocks, one by one.

    Returns (blocks, saw_inf, metadata).
    """
    blocks = []
    saw_inf = False
    metadata: dict[str, str] = {}
    for lineno, line in enumerate(lines, start_lineno):
        m = _BLOCK_LINE.match(line)
        # a block line never starts blank, but "# 1 | 2 3" would match
        if m is None or line[0] == "#":
            if not line.strip():
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" not in body:
                    raise ParseError(f"line {lineno}: metadata needs key=value")
                key, _, value = body.partition("=")
                metadata[key.strip()] = value.strip()
                continue
            raise ParseError(f"line {lineno}: malformed block line {line!r}")
        tokens = m.groups()
        ta, tb, tc, td = tokens
        try:
            a, b, c, d = int(ta), int(tb), int(tc), int(td)
        except ValueError:  # "inf" or a bad token
            a = -1
        if not (
            0 <= a <= inf_index
            and 0 <= b <= inf_index
            and 0 <= c <= inf_index
            and 0 <= d <= inf_index
        ):
            # the token-by-token path reads "inf" and words every error
            saw_inf = saw_inf or "inf" in tokens
            a, b, c, d = (_parse_point(t, inf_index, lineno) for t in tokens)
        if a == b or c == d or a == c or a == d or b == c or b == d:
            raise ParseError(f"line {lineno}: repeated point in block {line!r}")
        if a > b:
            a, b = b, a
        if c > d:
            c, d = d, c
        blocks.append(((a, b), (c, d)) if a < c else ((c, d), (a, b)))
    return blocks, saw_inf, metadata


def _bulk_blocks(body: str, v: int):
    """Read the leading run of plain, canonical block lines of ``body``.

    Works a chunk of lines at a time in C-level passes, reading each
    distinct pair text once, and gives every distinct pair one shared
    tuple.  Stops at the first chunk it cannot prove, which the per-line
    parser then reads, errors and all.

    Returns (blocks, saw_inf, end), with ``body[:end]`` the lines read.
    """
    names = {str(x): x for x in range(v)}
    names["inf"] = v - 1
    pairs: dict = {}  # each distinct pair to its one tuple
    pair_of: dict = {}  # pair text, such as "3 inf", to that tuple
    blocks: list = []
    saw_inf = False
    pos = 0
    while True:
        end = body.rfind("\n", pos, pos + _BULK_CHUNK) + 1
        if end <= pos:
            break
        stop = _PLAIN_LINES.match(body, pos, end).end()
        chunk = body[pos:stop]
        # the first and second pair texts of each line, alternating
        texts = chunk.replace(" | ", "\n").split("\n")
        del texts[-1]
        if not _read_pair_texts(set(texts).difference(pair_of), names, pairs, pair_of):
            break
        first = list(map(pair_of.__getitem__, texts[0::2]))
        second = list(map(pair_of.__getitem__, texts[1::2]))
        # each pair has a < b and c < d: the block is canonical when
        # a < c, and then only b may meet c or d
        b = list(map(_second, first))
        c = list(map(_first, second))
        if not (
            all(map(operator.lt, map(_first, first), c))
            and all(map(operator.ne, b, c))
            and all(map(operator.ne, b, map(_second, second)))
        ):
            break
        saw_inf = saw_inf or "inf" in chunk
        blocks += zip(first, second)
        pos = stop
        if stop < end:
            break
    return blocks, saw_inf, pos


def _read_pair_texts(texts, names, pairs, pair_of) -> bool:
    """Enter each pair text "x y", with x < y named in ``names``, into
    ``pair_of``; False at the first text that is not one."""
    for text in texts:
        tx, _, ty = text.partition(" ")
        x, y = names.get(tx), names.get(ty)
        if x is None or y is None or not x < y:
            return False
        pair = (x, y)
        pair_of[text] = pairs.setdefault(pair, pair)
    return True


def parse_design(text: str, strict_count: bool = True) -> NestedDesign:
    """Parse a design file.

    ``strict_count=False`` tolerates a block count below the header's
    announcement (e.g. a truncated file), leaving the shortfall for
    verification to report.
    """
    head, _, body = text.partition("\n")
    m = _DESIGN_HEADER.match(head)
    if m is not None and int(m.group(1)) <= _BULK_MAX_V:
        # a header line ended by a plain "\n": the body is the other lines
        v = int(m.group(1))
        blocks, saw_inf, end = _bulk_blocks(body, v)
        lines = body[end:].splitlines()
    else:
        lines = text.splitlines()
        if not lines:
            raise ParseError("empty input")
        m = _DESIGN_HEADER.match(lines[0].strip())
        if not m:
            raise ParseError(f"line 1: bad header {lines[0]!r}")
        v = int(m.group(1))
        blocks, saw_inf, lines = [], False, lines[1:]
    count = int(m.group(2))
    more, more_inf, metadata = _parse_blocks(lines, 2 + len(blocks), v - 1)
    blocks += more
    if strict_count and len(blocks) != count:
        raise ParseError(
            f"header announced {count} blocks, file contains {len(blocks)}"
        )
    uses_infinity = saw_inf or more_inf or metadata.get("infinity") == "1"
    return design_from_canonical(v, blocks, uses_infinity=uses_infinity)


def _fmt_point(x: int, inf_index: int, uses_infinity: bool) -> str:
    return "inf" if uses_infinity and x == inf_index else str(x)


def serialize_design(design: NestedDesign) -> str:
    v = design.v
    names = [str(x) for x in range(v)]
    if design.uses_infinity and v:
        names[-1] = "inf"
    out = [f"nsqs v={v} blocks={len(design.blocks)}"]
    out += [
        f"{names[a]} {names[b]} | {names[c]} {names[d]}"
        for (a, b), (c, d) in design.blocks
    ]
    if design.uses_infinity:
        out.append("# infinity=1")
    return "\n".join(out) + "\n"


def parse_base_spec(text: str) -> RotationalSpec:
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty input")
    m = _BASE_HEADER.match(lines[0].strip())
    if not m:
        raise ParseError(f"line 1: bad header {lines[0]!r}")
    p = int(m.group(1))
    multipliers = tuple(int(t) for t in m.group(2).split(","))
    body = lines[1:]
    # count is not in the header for base files; accept whatever is present
    blocks, _, _ = _parse_blocks(body, 2, p)
    return rotational_spec(p, blocks, multipliers)


def serialize_base_spec(spec: RotationalSpec) -> str:
    mults = ",".join(str(m) for m in sorted(spec.multipliers))
    out = [f"nsqs-base p={spec.p} multipliers={mults}"]
    for (a, b), (c, d) in spec.base_blocks:
        pts = [_fmt_point(x, spec.p, True) for x in (a, b, c, d)]
        out.append(f"{pts[0]} {pts[1]} | {pts[2]} {pts[3]}")
    return "\n".join(out) + "\n"
