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

import itertools
import re

from .constructions import RotationalSpec, rotational_spec
from .core import NestedDesign, _design
from .errors import ParseError

_DESIGN_HEADER = re.compile(r"^nsqs v=(\d+) blocks=(\d+)$")
_BASE_HEADER = re.compile(r"^nsqs-base p=(\d+) multipliers=(\d+(?:,\d+)*)$")
_BLOCK_LINE = re.compile(r"^(\S+) (\S+) \| (\S+) (\S+)$")
_CHUNK = 1 << 16  # characters split into lines at a time


def _head(text: str) -> list[str]:
    """The first line of ``text`` with its line break, as the first of
    ``text.splitlines(True)``; none for an empty text."""
    return text[: text.find("\n") + 1 or len(text)].splitlines(True)[:1]


def _read_header(text: str, header: re.Pattern):
    """Match the first line of ``text`` against ``header``.  Returns the
    match and the index at which line 2 starts."""
    head = _head(text)
    if not head:
        raise ParseError("empty input")
    first = head[0].splitlines()[0]
    m = header.match(first.strip())
    if not m:
        raise ParseError(f"line 1: bad header {first!r}")
    return m, len(head[0])


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


def _parse_blocks(text, pos, inf_index):
    """Parse the lines of a design or base file body, from line 2 on at
    ``pos``, into canonical blocks with one shared tuple per distinct pair.
    Lines are split a chunk at a time; each chunk but the last ends with a
    line feed, so no line break spans two chunks.

    A pair text written as ``serialize_design`` writes it, such as
    ``3 inf`` (points ``str(x)`` or ``inf``, x < y), is read once; a line
    of two such texts in canonical order is a block.  Any other line is
    read token by token, which words every error.

    Returns (blocks, saw_inf, metadata).
    """
    pairs: dict = {}  # each distinct pair to its one tuple
    pair_of: dict = {}  # each plain pair text read to its pair's tuple
    blocks = []
    saw_inf = False
    metadata: dict[str, str] = {}
    skipped = 0  # blank and # lines so far: each other line is a block

    def enter(text):
        """The pair a plain pair text names, entered in ``pair_of``; None
        for any other text."""
        nonlocal saw_inf
        tx, _, ty = text.partition(" ")
        try:
            x, y = int(tx), (inf_index if ty == "inf" else int(ty))
        except ValueError:
            return None
        if not (0 <= x < y <= inf_index and str(x) == tx and ty in ("inf", str(y))):
            return None
        saw_inf = saw_inf or ty == "inf"
        pair = pair_of[text] = pairs.setdefault((x, y), (x, y))
        return pair

    while pos < len(text):
        end = text.find("\n", pos + _CHUNK) + 1 or len(text)
        lines = text[pos:end].splitlines()
        pos = end
        for first, bar, second in map(str.partition, lines, itertools.repeat(" | ")):
            p = pair_of.get(first) or enter(first)
            q = pair_of.get(second) or enter(second)
            if p and q and p[0] < q[0] and p[1] != q[0] and p[1] != q[1]:
                blocks.append((p, q))
                continue
            line = first + bar + second
            lineno = 2 + len(blocks) + skipped
            m = _BLOCK_LINE.match(line)
            # a block line never starts blank, but "# 1 | 2 3" would match
            if m is None or line[0] == "#":
                if line.startswith("#"):
                    key, eq, value = line[1:].strip().partition("=")
                    if not eq:
                        raise ParseError(f"line {lineno}: metadata needs key=value")
                    metadata[key.strip()] = value.strip()
                elif line.strip():
                    raise ParseError(f"line {lineno}: malformed block line {line!r}")
                skipped += 1
                continue
            tokens = m.groups()
            saw_inf = saw_inf or "inf" in tokens
            a, b, c, d = (_parse_point(t, inf_index, lineno) for t in tokens)
            if a == b or c == d or a == c or a == d or b == c or b == d:
                raise ParseError(f"line {lineno}: repeated point in block {line!r}")
            p = (a, b) if a < b else (b, a)
            q = (c, d) if c < d else (d, c)
            p, q = pairs.setdefault(p, p), pairs.setdefault(q, q)
            blocks.append((p, q) if p < q else (q, p))
    return blocks, saw_inf, metadata


def parse_design(text: str, strict_count: bool = True) -> NestedDesign:
    """Parse a design file.

    ``strict_count=False`` tolerates a block count below the header's
    announcement (e.g. a truncated file), leaving the shortfall for
    verification to report.
    """
    m, pos = _read_header(text, _DESIGN_HEADER)
    v, count = int(m.group(1)), int(m.group(2))
    blocks, saw_inf, metadata = _parse_blocks(text, pos, v - 1)
    if strict_count and len(blocks) != count:
        raise ParseError(
            f"header announced {count} blocks, file contains {len(blocks)}"
        )
    uses_infinity = saw_inf or metadata.get("infinity") == "1"
    return _design(v, blocks, uses_infinity=uses_infinity)


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
    out.append("")  # the final newline, without a second copy of the text
    return "\n".join(out)


def parse_base_spec(text: str) -> RotationalSpec:
    m, pos = _read_header(text, _BASE_HEADER)
    p = int(m.group(1))
    multipliers = tuple(int(t) for t in m.group(2).split(","))
    # count is not in the header for base files; accept whatever is present
    blocks, _, _ = _parse_blocks(text, pos, p)
    return rotational_spec(p, blocks, multipliers)


def serialize_base_spec(spec: RotationalSpec) -> str:
    mults = ",".join(str(m) for m in sorted(spec.multipliers))
    out = [f"nsqs-base p={spec.p} multipliers={mults}"]
    for block in spec.base_blocks:
        a, b, c, d = ("inf" if x == spec.p else x for x in block[0] + block[1])
        out.append(f"{a} {b} | {c} {d}")
    return "\n".join(out) + "\n"
