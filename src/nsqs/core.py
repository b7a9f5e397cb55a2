"""Core data model for nested Steiner quadruple systems.

Points are integers 0..v-1.  In rotational systems the fixed point
"infinity" is encoded as the largest index v-1, which makes it sort last
under plain integer ordering; designs carry a flag saying whether that
encoding is in use (it only affects serialization).

A pair is a canonically ordered 2-tuple ``(lo, hi)`` with ``lo < hi``.
A nested block is a 2-tuple of two disjoint pairs, ordered so that
``first <= second`` lexicographically.  Both are plain tuples so they can
be dict keys and set members in the hot loops.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .errors import (
    InvalidBlockError,
    InvalidPairError,
    InvalidSplitError,
    PreconditionError,
)

Pair = tuple[int, int]
NestedBlock = tuple[Pair, Pair]


def canonical_pair(a: int, b: int) -> Pair:
    """Return the unordered pair {a, b} in canonical (sorted) form."""
    if a == b:
        raise InvalidPairError(f"pair needs two distinct points, got {a} twice")
    return (a, b) if a < b else (b, a)


def canonical_block(p1: Pair, p2: Pair) -> NestedBlock:
    """Canonicalize a split given as two pairs, each in either order.

    Checks as :func:`canonical_pair` would, first ``p1`` then ``p2``,
    and then that the pairs are disjoint.
    """
    a, b = p1
    c, d = p2
    if a == b:
        raise InvalidPairError(f"pair needs two distinct points, got {a} twice")
    if c == d:
        raise InvalidPairError(f"pair needs two distinct points, got {c} twice")
    if a > b:
        a, b = b, a
    if c > d:
        c, d = d, c
    if a == c or a == d or b == c or b == d:
        raise InvalidSplitError(f"split pairs {(a, b)} and {(c, d)} are not disjoint")
    # disjoint pairs order by their least points
    return ((a, b), (c, d)) if a < c else ((c, d), (a, b))


def block_points(block: NestedBlock) -> frozenset[int]:
    return frozenset(block[0] + block[1])


def alternative_splits(points: Iterable[int]) -> list[NestedBlock]:
    """All three ways to split a 4-set of points into two disjoint pairs.

    ``points`` may also be a nested block.  Together the three splits
    hold each of the six pairs of the points once.
    """
    pts = sorted(points)
    if len(pts) == 2 and isinstance(pts[0], tuple):  # a nested block
        pts = sorted(pts[0] + pts[1])
    if len(pts) != 4 or not pts[0] < pts[1] < pts[2] < pts[3]:  # sorted, so distinct
        raise InvalidBlockError(f"need 4 distinct points, got {pts}")
    a, b, c, d = pts
    return [((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c))]


def expected_block_count(v: int) -> int:
    """Number of blocks in a quadruple system of order v."""
    return v * (v - 1) * (v - 2) // 24


def total_pair_slots(v: int) -> int:
    """Total pair count over all block splits: two per block."""
    return v * (v - 1) * (v - 2) // 12


def _fields_only(value) -> dict:
    """The state of ``value`` without its memo (see _with_memo), so that
    a pickle or a copy holds the fields alone."""
    state = value.__dict__.copy()
    state.pop("_memo", None)
    return state


@dataclass(frozen=True)
class NestedDesign:
    """An SQS(v) with every block carrying a chosen split into two pairs.

    ``blocks`` is kept in canonical sorted order, so two designs over the
    same point set compare equal iff they have the same blocks with the
    same splits.  Use :func:`nested_design` to construct one.
    """

    v: int
    blocks: tuple[NestedBlock, ...]
    uses_infinity: bool = False

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    __getstate__ = _fields_only


def _with_memo(value):
    """``value``, a frozen dataclass the library built, with an empty
    private memo for :func:`_memoized`: no field, so ``==``, ``hash``,
    ``repr`` and ``dataclasses.replace`` do not see it."""
    object.__setattr__(value, "_memo", {})
    return value


def _memoized(value, fact: str, work_out):
    """``work_out(value)``, kept in the memo of a design or spec if it
    has one; a ``work_out`` that raises keeps nothing."""
    memo = getattr(value, "_memo", None)
    if memo is None:
        return work_out(value)
    if fact not in memo:
        memo[fact] = work_out(value)
    return memo[fact]


def nested_design(
    v: int,
    blocks: Iterable[NestedBlock],
    uses_infinity: bool = False,
) -> NestedDesign:
    """Canonicalize blocks, validate point ranges, and build a design."""
    blocks = list(blocks)
    keys = _canonical_keys(blocks, v)
    if keys is None:
        given, blocks = blocks, []
        for nb in itertools.starmap(canonical_block, given):
            (a, b), (c, d) = nb
            # a canonical block's least point is a, its greatest b or d
            if a < 0 or b >= v or d >= v:
                p = next(p for p in (a, b, c, d) if not 0 <= p < v)
                raise InvalidBlockError(f"point {p} out of range for v={v}")
            blocks.append(nb)
    return _design(v, blocks, uses_infinity, keys)


def _design(
    v: int, blocks: list, uses_infinity: bool = False, keys=None, ordered: bool = False
) -> NestedDesign:
    """The library's one constructor, of a list of canonical blocks over
    0..v-1 (nothing else is checked).  Unless ``ordered`` (the caller's
    proof), the list is sorted in place by ``keys``, or by the same keys
    worked out here, when not in order.  The design gets a private memo
    (see _with_memo) that keeps its Steiner report and pair census.  A
    caller's ``NestedDesign(...)`` has none."""
    if not ordered and not _in_order(blocks if keys is None else keys):
        if keys is None:
            keys = [((a * v + b) * v + c) * v + d for (a, b), (c, d) in blocks]
        # list.sort calls its key once per block, in list order, so each
        # call hands back that block's key: a stable sort by the keys
        blocks.sort(key=functools.partial(next, iter(keys)))
    return _with_memo(NestedDesign(v, tuple(blocks), uses_infinity))


def _in_order(items) -> bool:
    return all(map(operator.le, items, itertools.islice(items, 1, None)))


def _canonical_keys(blocks: list, v: int) -> Optional[list]:
    """The key ``((a*v + b)*v + c)*v + d`` of every block, in one pass,
    if each block is a tuple of two tuples ``((a, b), (c, d))`` with
    0 <= a < b < v, c < d < v, a < c, and b neither c nor d; else None.

    :func:`canonical_block` returns such a block as an equal tuple over
    the same points, so the block itself can stand in for it.  With every
    point in 0..v-1 the keys order like the blocks.
    """
    keys: list = []
    append = keys.append
    try:
        for nb in blocks:
            if type(nb) is not tuple:  # unpacking would consume an iterator
                return None
            p, q = nb
            if type(p) is not tuple or type(q) is not tuple:
                return None
            (a, b), (c, d) = p, q
            if not (0 <= a < b < v and c < d < v and a < c and b != c and b != d):
                return None
            append(((a * v + b) * v + c) * v + d)
    except (TypeError, ValueError):  # not two pairs of two, or no order
        return None
    return keys


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a Steiner-property check.

    ``witness`` is a triple covered zero or at least two times (None on
    pass); ``violations`` counts all bad triples, not just the witness.
    """

    ok: bool
    v: int
    block_count: int
    expected_blocks: int
    witness: Optional[tuple[int, int, int]] = None
    witness_coverage: int = 0
    violations: int = 0


def verify_steiner(design: NestedDesign) -> VerificationReport:
    """Check that every 3-subset of points is covered by exactly one block.

    A design the library built keeps its report, so it is checked once.
    """
    return _memoized(design, "report", _steiner_report)


class _Multiples(dict):
    """x -> x * k, worked out at the first lookup of each point x."""

    def __init__(self, k: int):
        self.k = k

    def __missing__(self, x):
        self[x] = y = x * self.k
        return y


def _steiner_report(design: NestedDesign) -> VerificationReport:
    v = design.v
    blocks = design.blocks
    n_cells = v * v * v
    # one mark per cell, a byte unless there are far fewer blocks than
    # cells (a huge v in a file header, say): then a dict, so memory stays
    # proportional to the blocks; covers after the first land in ``extra``
    small = n_cells <= 64 * len(blocks) + (1 << 20)
    marks = bytearray(n_cells) if small else defaultdict(int)
    extra = []
    vv = v * v
    if small and hasattr(design, "_memo"):  # library-built: points in 0..v-1
        sq, lin = [x * vv for x in range(v)], [x * v for x in range(v)]
    else:  # a huge v from a header, or a caller's points: those present
        sq, lin = _Multiples(vv), _Multiples(v)
    for (a, b), (c, d) in blocks:
        # in canonical shape a is the least point, and where b falls
        # among c < d sorts the rest
        if a < b and c < d and a < c:
            if b > c:
                if b < d:
                    b, c = c, b
                else:
                    b, c, d = c, d, b
        else:
            a, b, c, d = sorted((a, b, c, d))
        # the four triples abc, abd, acd and bcd, unrolled
        x = sq[a]
        ab = x + lin[b]
        cd = lin[c] + d
        t = ab + c
        if marks[t]:
            extra.append(t)
        else:
            marks[t] = 1
        t = ab + d
        if marks[t]:
            extra.append(t)
        else:
            marks[t] = 1
        t = x + cd
        if marks[t]:
            extra.append(t)
        else:
            marks[t] = 1
        t = sq[b] + cd
        if marks[t]:
            extra.append(t)
        else:
            marks[t] = 1
    over = {t: 1 + n for t, n in Counter(extra).items()}
    distinct = 4 * len(blocks) - len(extra)

    n_triples = v * (v - 1) * (v - 2) // 6
    missing = n_triples - distinct
    violations = len(over) + missing
    witness = None
    witness_cov = 0
    if over:
        t = min(over)
        witness, witness_cov = (t // (v * v), t // v % v, t % v), over[t]
    elif missing:
        # the blocks cover at most 4 * len(blocks) triples, so one of the
        # first 4 * len(blocks) + 1 in order is uncovered; the triples
        # come lazily, as itertools.combinations would copy range(v)
        triples = (
            (a, b, c) for a in range(v) for b in range(a + 1, v) for c in range(b + 1, v)
        )
        witness = next(
            (a, b, c)
            for a, b, c in itertools.islice(triples, 4 * len(blocks) + 1)
            if not marks[(a * v + b) * v + c]
        )
    ok = violations == 0 and len(blocks) == expected_block_count(v)
    return VerificationReport(
        ok=ok,
        v=v,
        block_count=len(blocks),
        expected_blocks=expected_block_count(v),
        witness=witness,
        witness_coverage=witness_cov,
        violations=violations,
    )


@dataclass(frozen=True)
class PairCensus:
    """Multiplicity map over the pairs chosen in block splits."""

    v: int
    counts: dict[Pair, int] = field(compare=False)

    @property
    def nd_pair_count(self) -> int:
        return len(self.counts)

    @property
    def min_mult(self) -> int:
        return min(self._multiplicities())

    @property
    def max_mult(self) -> int:
        return max(self._multiplicities())

    def _multiplicities(self):
        if not self.counts:
            raise PreconditionError("the census is empty: the design has no blocks")
        return self.counts.values()

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def point_degrees(self) -> list[int]:
        """Number of distinct ND-pairs containing each point."""
        deg = [0] * self.v
        for (a, b) in self.counts:
            deg[a] += 1
            deg[b] += 1
        return deg

    def histogram(self) -> dict[int, int]:
        """multiplicity -> number of ND-pairs with that multiplicity."""
        h: Counter = Counter(self.counts.values())
        return dict(sorted(h.items()))


def pair_census(design: NestedDesign) -> PairCensus:
    """The census of the design's pairs, each a key in block order, first
    pair then second.  A design the library built keeps its counts, and
    each call gets a copy of them."""
    counts = _memoized(design, "census", _pair_counts)
    return PairCensus(v=design.v, counts=dict(counts))


def _pair_counts(design: NestedDesign) -> Counter:
    return Counter(itertools.chain.from_iterable(design.blocks))


def repartition(design: NestedDesign, index: int, split: NestedBlock) -> NestedDesign:
    """Replace the split of the block at ``index`` with ``split``.

    The new split must cover the same four points; the block set (and so
    the Steiner property) is untouched.  Blocks are re-sorted, so the
    changed block may land at a different index in the result.
    """
    split = canonical_block(*split)
    old = design.blocks[index]
    if block_points(split) != block_points(old):
        raise InvalidSplitError(
            f"split {split} does not cover the points of block {old}"
        )
    blocks = list(design.blocks)
    if not hasattr(design, "_memo"):  # a caller's blocks: nest them anew
        blocks[index] = split
        return nested_design(design.v, blocks, design.uses_infinity)
    # a library-built design holds canonical blocks in order: bisect the split
    del blocks[index]
    bisect.insort(blocks, split)
    return _design(design.v, blocks, design.uses_infinity, ordered=True)


def relabel(design: NestedDesign, perm: Sequence[int]) -> NestedDesign:
    """Apply a point bijection consistently to every block and split."""
    v = design.v
    if sorted(perm) != list(range(v)):
        raise InvalidBlockError("perm is not a bijection on the point set")
    blocks = list(design.blocks)
    keys = _canonical_keys(blocks, v)
    # a point that is not an int (2.0, say) makes its block's key no int;
    # its pair could merge below with an equal pair of ints and take that
    # pair's image, so such a design goes block by block, where perm is
    # read at each point as given
    if keys is not None and {int}.issuperset(map(type, keys)):
        firsts = list(map(operator.itemgetter(0), blocks))
        seconds = list(map(operator.itemgetter(1), blocks))
        # each distinct pair is mapped once, to one new tuple; perm is a
        # bijection, so distinct pairs of 0..v-1 keep distinct images
        image = {}
        for pair in set(firsts + seconds):
            a, b = pair
            x, y = perm[a], perm[b]
            image[pair] = (x, y) if x < y else (y, x)
        # the pairs of a canonical block are disjoint, and so are their
        # images, which order by their least points
        relabeled = [
            (p, q) if p < q else (q, p)
            for p, q in zip(
                map(image.__getitem__, firsts), map(image.__getitem__, seconds)
            )
        ]
        return _design(v, relabeled, design.uses_infinity)
    # block by block, as before, for a block that is not canonical or a
    # point outside 0..v-1: the same errors, or the same design
    blocks = [
        canonical_block(
            (perm[p1[0]], perm[p1[1]]), (perm[p2[0]], perm[p2[1]])
        )
        for p1, p2 in blocks
    ]
    return nested_design(v, blocks, design.uses_infinity)
