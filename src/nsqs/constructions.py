"""Generative machinery for nested quadruple systems.

Covers one-factorizations of K_v, Boolean systems over GF(2)^n and their
rotational form, orbit expansion of rotational base blocks and its
inverse (``orbit_spec``: the base blocks of a design invariant under a
shift and multiplier group), and the two doubling constructions that
lift a nested system of order v to one of order 2v.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterator

from .core import (
    NestedBlock,
    NestedDesign,
    Pair,
    _design,
    _fields_only,
    _in_order,
    _with_memo,
    block_points,
    canonical_block,
    canonical_pair,
    expected_block_count,
    pair_census,
    verify_steiner,
)
from .errors import (
    InconsistentSpecError,
    InvalidOrderError,
    PreconditionError,
)
from .gf2n import Gf2nField


# ---------------------------------------------------------------------------
# one-factorizations

@dataclass(frozen=True)
class OneFactorization:
    """A partition of the edges of K_v into v-1 perfect matchings."""

    v: int
    factors: tuple[frozenset[Pair], ...]

    def validate(self) -> None:
        v = self.v
        if len(self.factors) != v - 1:
            raise PreconditionError(
                f"expected {v - 1} factors, got {len(self.factors)}"
            )
        seen: set[Pair] = set()
        for f in self.factors:
            pts = [p for pair in f for p in pair]
            if len(f) != v // 2 or sorted(pts) != list(range(v)):
                raise PreconditionError(f"factor {sorted(f)} is not a perfect matching")
            if seen & f:
                raise PreconditionError("factors share an edge")
            seen |= f
        if len(seen) != v * (v - 1) // 2:
            raise PreconditionError("factors do not cover all edges of K_v")


def one_factorization(v: int) -> OneFactorization:
    """Round-robin (circle method) one-factorization of K_v, point v-1 fixed."""
    if v < 2 or v % 2:
        raise InvalidOrderError(f"one-factorization needs even v >= 2, got {v}")
    m = v - 1
    factors = []
    for i in range(m):
        factor = {canonical_pair(v - 1, i)}
        for j in range(1, (v - 2) // 2 + 1):
            factor.add(canonical_pair((i + j) % m, (i - j) % m))
        factors.append(frozenset(factor))
    return OneFactorization(v=v, factors=tuple(factors))


# ---------------------------------------------------------------------------
# Boolean systems

def _pair_table(n: int) -> list:
    """The pair (x, y), 0 <= x < y < n, at index x * n + y, and None
    elsewhere: one tuple per pair, for the blocks of a design to share."""
    table: list = [None] * (n * n)
    for x in range(n):
        table[x * n + x + 1:(x + 1) * n] = zip(itertools.repeat(x), range(x + 1, n))
    return table


def _boolean_split_blocks(n: int) -> list[NestedBlock]:
    """The blocks (x, y, z, w) of :func:`boolean_blocks`, in the same
    order, each split as ((x, y), (z, w)) over one shared tuple per pair.

    x < y < z < w, so each block is canonical and the list is sorted.
    """
    size = 1 << n
    pairs = list(filter(None, _pair_table(size)))  # in order (x, y)
    # the pairs (z, w) with z ^ w == k, in order of z, for each k
    by_xor: list[list[Pair]] = [[] for _ in range(size)]
    for pair in pairs:
        by_xor[pair[0] ^ pair[1]].append(pair)
    blocks: list[NestedBlock] = []
    for pair in pairs:
        x, y = pair
        # w = x ^ y ^ z, so (z, w) runs over the pairs with xor x ^ y,
        # from the first with z > y
        row = by_xor[x ^ y]
        blocks += zip(itertools.repeat(pair), row[bisect.bisect(row, (y, size)):])
    return blocks


def boolean_blocks(n: int) -> list[tuple[int, int, int, int]]:
    """All 4-subsets of GF(2)^n (as ints) with zero XOR, each listed once,
    as (x, y, z, w) with x < y < z < w, in lexicographic order."""
    return [p + q for p, q in _boolean_split_blocks(n)]


# n = 8 gives 690 880 blocks; n = 9 would hold 5.6 M in memory
_BOOLEAN_MAX_N = 8


def _check_boolean_order(n: int) -> None:
    """Raise InvalidOrderError unless 2 <= n <= _BOOLEAN_MAX_N, before
    any field table or block is built."""
    if n < 2:
        raise InvalidOrderError(f"boolean system needs n >= 2, got {n}")
    if n > _BOOLEAN_MAX_N:
        raise InvalidOrderError(f"boolean system needs n <= {_BOOLEAN_MAX_N}, got {n}")


def boolean_sqs(n: int, poly: int | None = None) -> NestedDesign:
    """Boolean SQS(2^n) with default (lexicographically first) splits.

    The block set does not depend on the polynomial; passing one merely
    validates it (non-primitive moduli are rejected), matching the
    rotational-form functions that do need it.
    """
    _check_boolean_order(n)
    if poly is not None:
        Gf2nField(n, poly)
    return _design(1 << n, _boolean_split_blocks(n), ordered=True)


def boolean_to_rotational(field: Gf2nField) -> dict[int, int]:
    """Bijection GF(2)^n -> Z_{2^n-1} + {inf}: 0 -> inf, alpha^i -> i.

    The infinity point is encoded as the largest index 2^n - 1.
    """
    mapping = {0: field.order}
    for i in range(field.order):
        mapping[field.exp_table[i]] = i
    return mapping


def boolean_rotational_design(n: int, poly: int | None = None) -> NestedDesign:
    """Boolean SQS(2^n) in exponent coordinates, default splits."""
    _check_boolean_order(n)
    field = Gf2nField(n, poly)
    to_rot = boolean_to_rotational(field)
    size = 1 << n
    rot = [to_rot[x] for x in range(size)]
    table = _pair_table(size)
    blocks = []
    for (x, y), (z, w) in _boolean_split_blocks(n):
        a, b, c, d = sorted((rot[x], rot[y], rot[z], rot[w]))
        blocks.append((table[a * size + b], table[c * size + d]))
    return _design(size, blocks, uses_infinity=True)


# ---------------------------------------------------------------------------
# rotational specs and orbit expansion

@dataclass(frozen=True)
class RotationalSpec:
    """Base nested blocks over Z_p + {inf} with shift and multiplier group.

    The infinity point is encoded as index p (= v - 1).
    """

    p: int
    base_blocks: tuple[NestedBlock, ...]
    multipliers: frozenset[int] = frozenset({1})

    @property
    def v(self) -> int:
        return self.p + 1

    # a library-built spec keeps its orbit problem in a memo (see core._with_memo)
    __getstate__ = _fields_only

    def validate(self) -> None:
        if 1 not in self.multipliers:
            raise InconsistentSpecError("multiplier group must contain 1")
        for m in self.multipliers:
            if not 0 < m < self.p or math.gcd(m, self.p) != 1:
                raise InconsistentSpecError(f"multiplier {m} not a unit mod {self.p}")
            for m2 in self.multipliers:
                if (m * m2) % self.p not in self.multipliers:
                    raise InconsistentSpecError(
                        f"multipliers not closed: {m}*{m2} mod {self.p} missing"
                    )
        for block in self.base_blocks:
            for x in block[0] + block[1]:
                if not 0 <= x <= self.p:
                    raise InconsistentSpecError(
                        f"base-block point {x} out of range 0..{self.p}"
                    )


def rotational_spec(
    p: int,
    base_blocks,
    multipliers=(1,),
) -> RotationalSpec:
    spec = _with_memo(RotationalSpec(
        p=p,
        base_blocks=tuple(canonical_block(*b) for b in base_blocks),
        multipliers=frozenset(multipliers),
    ))
    spec.validate()
    return spec


def rotational_expand(spec: RotationalSpec) -> NestedDesign:
    """Apply every multiplier and shift to every base block: the one
    certification of a spec.

    The spec is validated, then refused with InconsistentSpecError
    unless its images (one per base block, multiplier and shift) number
    the blocks of an SQS(v), before any image is built.  The images are
    then built once, a degenerate base block raising at its first image,
    and must cover every triple once, else InconsistentSpecError carries
    a witness triple.
    """
    spec.validate()
    v = spec.v
    maps = len(spec.multipliers) * spec.p
    expected = expected_block_count(v)
    if len(spec.base_blocks) * maps != expected:
        raise InconsistentSpecError(
            f"{len(spec.base_blocks)} base blocks have "
            f"{len(spec.base_blocks) * maps} images under {maps} maps "
            f"x -> m*x + s, expected {expected}"
        )
    design = _design(v, _expand_images(spec), uses_infinity=True)
    # the design keeps this report, so doubling it checks it no more
    report = verify_steiner(design)
    if not report.ok:
        raise InconsistentSpecError(
            f"expansion is not a quadruple system; witness triple "
            f"{report.witness} covered {report.witness_coverage} times"
        )
    return design


def _image_rows(spec: RotationalSpec) -> Iterator[tuple[list[Pair], int, list[Pair], int]]:
    """Yield ``(row, x, row2, x2)`` for each base block of a validated
    spec and then each of ``sorted(multipliers)``, in image order: the
    images of its first pair under the shifts 0..p-1, in order, are
    ``row[x:] + row[:x]``, and likewise of its second pair.  A degenerate
    base block raises at its shift-0 image, before it is yielded."""
    p = spec.p
    rows: dict[int, list[Pair]] = {}

    def row(d: int) -> list[Pair]:
        """The pairs {s, s + d} (d in 1..p-1), or {s, p} (d = p), for s
        in Z_p, built on first use: one tuple per pair, and d and p - d
        share theirs.  (For an even p the class p/2 holds each pair
        twice; such a p never expands to a design, as p + 1 is odd.)"""
        r = rows.get(d)
        if r is None:
            # {s, s + d} = {s + d, s + d + (p - d)}: the row of p - d, turned
            e = p - d if d < p < 2 * d else d
            r = rows.get(e)
            if r is None:
                if e == p:
                    r = [(s, p) for s in range(p)]
                else:
                    r = [(s, s + e) for s in range(p - e)]
                    r += [(s + e - p, s) for s in range(p - e, p)]
                rows[e] = r
            if e != d:
                r = r[d:] + r[:d]
                rows[d] = r
        return r

    multipliers = sorted(spec.multipliers)
    for (a, b), (c, d) in spec.base_blocks:
        for m in multipliers:
            w, x, y, z = (pt if pt == p else m * pt % p for pt in (a, b, c, d))
            canonical_block((w, x), (y, z))
            # the shift-s image of {x, p} is row(p)[x + s]; of {x, y},
            # row(y - x)[x + s]
            if w == p:
                w, x = x, w
            if y == p:
                y, z = z, y
            yield (row(p if x == p else (x - w) % p), w,
                   row(p if z == p else (z - y) % p), y)


def _expand_images(spec: RotationalSpec) -> list[NestedBlock]:
    """Every image of every base block of a validated spec, in image
    order (base block, then ``sorted(multipliers)``, then shift),
    unchecked but for a degenerate base block, which raises."""
    images: list[NestedBlock] = []
    for r, x, r2, x2 in _image_rows(spec):
        # disjoint pairs order by their least points
        images += [
            (e, f) if e < f else (f, e)
            for e, f in zip(r[x:] + r[:x], r2[x2:] + r2[:x2])
        ]
    return images


def orbit_spec(design: NestedDesign, multipliers) -> RotationalSpec:
    """The rotational spec of a design over Z_p + {inf}, p = v - 1, that
    is invariant under every map x -> m*x + s (m in ``multipliers``, s in
    Z_p, the point p fixed).

    Each orbit's base block is its first block in design order, with the
    design's split.  An image that is not a block of the design, or an
    orbit shorter than p * |multipliers| (which rotational_expand cannot
    express), raises InconsistentSpecError.
    """
    p = design.v - 1
    group = rotational_spec(p, (), multipliers).multipliers
    blocks = {block_points(nb) for nb in design.blocks}
    covered: set[frozenset[int]] = set()
    base = []
    for nb in design.blocks:
        pts = block_points(nb)
        if pts in covered:
            continue
        orbit = {
            frozenset(x if x == p else (m * x + s) % p for x in pts)
            for m in group
            for s in range(p)
        }
        if not orbit <= blocks:
            foreign = min(orbit - blocks, key=sorted)
            raise InconsistentSpecError(
                f"design is not invariant: block {sorted(pts)} maps to "
                f"{sorted(foreign)}, which is not a block"
            )
        if len(orbit) != p * len(group):
            raise InconsistentSpecError(
                f"orbit of block {sorted(pts)} holds {len(orbit)} blocks, "
                f"expected {p * len(group)}"
            )
        covered |= orbit
        base.append(nb)
    return _with_memo(RotationalSpec(p=p, base_blocks=tuple(base), multipliers=group))


# ---------------------------------------------------------------------------
# doubling constructions

def doubling_a(
    design: NestedDesign, factorization: OneFactorization | None = None
) -> NestedDesign:
    """One-factorization doubling: nested SQS(v) -> nested SQS(2v).

    The point (x, i) of Q x {0,1} is the index x + i*v.  Type I blocks
    copy the input design (and its splits) onto each side; Type II
    blocks pair up edges of the same one-factor across sides and are
    always split into their two within-side pairs.
    """
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

    # one shared tuple per pair: each pair within a side is an edge of
    # exactly one factor.  At index x * v + y, ``low`` holds the side-0
    # pair (x, y), ``high`` its side-1 copy, and ``partners`` the side-1
    # copies of the edges of its factor, in order: the second pairs of
    # its Type II blocks.
    low: list = [None] * (v * v)
    high: list = [None] * (v * v)
    partners: list = [None] * (v * v)
    for factor in factorization.factors:
        # validate() admits an edge written either way round
        edges = sorted((x, y) if x < y else (y, x) for x, y in factor)
        shifted = [(x + v, y + v) for x, y in edges]
        for e, f in zip(edges, shifted):
            i = e[0] * v + e[1]
            low[i], high[i], partners[i] = e, f, shifted
    # Type I: each distinct input pair is looked up once; shifting all
    # four points of a canonical block by v keeps it canonical
    firsts = list(map(operator.itemgetter(0), design.blocks))
    seconds = list(map(operator.itemgetter(1), design.blocks))
    to_low, to_high = {}, {}
    for pair in set(firsts + seconds):
        x, y = pair
        i = x * v + y if x < y else y * v + x
        to_low[pair] = low[i]
        to_high[pair] = high[i]
    side0 = list(zip(map(to_low.__getitem__, firsts), map(to_low.__getitem__, seconds)))
    side1 = zip(map(to_high.__getitem__, firsts), map(to_high.__getitem__, seconds))
    # in sorted order for a sorted input: by first pair (x, y), the side-0
    # copies, then the Type II blocks; last the side-1 copies.  So the
    # order of a library-built (so canonical) input proves the output's.
    ordered = hasattr(design, "_memo") and _in_order(design.blocks)
    blocks: list[NestedBlock] = []
    j = 0
    for i, e in enumerate(low):
        if e is not None:
            while j < len(side0) and side0[j][0] is e:
                blocks.append(side0[j])
                j += 1
            blocks += zip(itertools.repeat(e), partners[i])
    blocks += side0[j:]
    blocks += side1
    return _design(2 * v, blocks, ordered=ordered)


def doubling_b(design: NestedDesign) -> NestedDesign:
    """Parity doubling: needs an input in which every pair is an ND-pair.

    The point (x, i) of Q x {0,1} is the index x + i*v.  Type I places
    each input block on the even-parity side patterns, carrying the
    split through; Type II joins both copies of two points and splits
    them into the two same-point pairs.
    """
    v = design.v
    if not verify_steiner(design).ok:
        raise PreconditionError("doubling-b input is not a Steiner quadruple system")
    counts = pair_census(design).counts
    pair = next((p for p in itertools.combinations(range(v), 2) if p not in counts), None)
    if pair is not None:
        raise PreconditionError(
            f"doubling-b needs all pairs to be ND-pairs; pair {pair} is not"
        )

    n = 2 * v
    table = _pair_table(n)
    # the four lifts {(x, i), (y, j)} of each distinct input pair (x, y),
    # at index 2i + j: one shared tuple per pair
    firsts = list(map(operator.itemgetter(0), design.blocks))
    seconds = list(map(operator.itemgetter(1), design.blocks))
    lifts = {}
    for pair in set(firsts + seconds):
        x, y = pair
        lifts[pair] = tuple(
            table[s * n + t] if s < t else table[t * n + s]
            for s, t in ((x, y), (x, y + v), (x + v, y), (x + v, y + v))
        )
    first_lifts = list(map(lifts.__getitem__, firsts))
    second_lifts = list(map(lifts.__getitem__, seconds))
    # Type I: the even-parity side patterns (i, j, k, i ^ j ^ k);
    # disjoint pairs order by their least points
    blocks: list[NestedBlock] = []
    for i, j, k in itertools.product((0, 1), repeat=3):
        blocks += [
            (e, f) if e < f else (f, e)
            for e, f in zip(
                map(operator.itemgetter(2 * i + j), first_lifts),
                map(operator.itemgetter(2 * k + (i ^ j ^ k)), second_lifts),
            )
        ]
    # Type II: x < y, so both pairs and their order are canonical
    blocks += itertools.combinations([table[x * n + x + v] for x in range(v)], 2)
    return _design(2 * v, blocks)
