"""Bound evaluation, nesting classification, and feasibility screening.

Everything here is closed-form or a direct scan of a census; nothing
constructs designs.  The feasibility table enumerates the (ND-pair
count, multiplicity) parameters a uniform nesting of order v could have
after all divisibility and counting conditions are applied.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb
from typing import Optional

from .core import (
    NestedBlock,
    NestedDesign,
    PairCensus,
    expected_block_count,
    pair_census,
    total_pair_slots,
)
from .errors import InvalidModulusError, InvalidOrderError, NsqsError, PreconditionError


def admissible(v: int) -> bool:
    """Orders for which a quadruple system exists."""
    return v >= 4 and v % 6 in (2, 4)


def min_nd_pairs(v: int) -> int:
    """Counting lower bound on the number of ND-pairs."""
    return (v // 2) * (v // 2 - 1)


def min_nd_pairs_raised(v: int) -> int:
    """The lower bound after the strengthening for v = 2, 10 (mod 12)."""
    if v % 12 in (2, 10):
        return max(min_nd_pairs(v), v * v // 4)
    return min_nd_pairs(v)


@dataclass(frozen=True)
class BoundsProfile:
    """Every closed-form bound evaluated at a single order v."""

    v: int
    block_count: int
    total_pair_slots: int
    max_mult: int
    max_count_at_max: int
    min_nd_pairs: int
    max_nd_pairs: int
    min_mult_upper: int
    max_mult_lower: int
    min_point_degree: int


def _require_admissible(v: int) -> None:
    if not admissible(v):
        raise InvalidOrderError(
            f"no quadruple system of order {v} (need v >= 4, v = 2 or 4 mod 6)"
        )


def bounds_profile(v: int) -> BoundsProfile:
    _require_admissible(v)
    raised = v % 12 in (2, 10)
    return BoundsProfile(
        v=v,
        block_count=expected_block_count(v),
        total_pair_slots=total_pair_slots(v),
        max_mult=(v - 2) // 2,
        max_count_at_max=v // 2,
        min_nd_pairs=min_nd_pairs_raised(v),
        max_nd_pairs=comb(v, 2),
        min_mult_upper=(v - 1) // 3,
        max_mult_lower=-((2 - v) // 6),  # ceil((v - 2) / 6)
        min_point_degree=v // 2 if raised else (v - 2) // 2,
    )


def census_violations(census: PairCensus) -> list[str]:
    """All counting-bound violations of a census; empty for a real design."""
    v = census.v
    bounds = bounds_profile(v)
    out = []
    if census.total != bounds.total_pair_slots:
        out.append(
            f"total pair count {census.total} != {bounds.total_pair_slots}"
        )
    if census.max_mult > bounds.max_mult:
        out.append(
            f"max multiplicity {census.max_mult} exceeds bound {bounds.max_mult}"
        )
    at_max = sum(1 for c in census.counts.values() if c == bounds.max_mult)
    if at_max > bounds.max_count_at_max:
        out.append(
            f"{at_max} ND-pairs at maximum multiplicity, bound is "
            f"{bounds.max_count_at_max}"
        )
    low_deg = [
        x for x, d in enumerate(census.point_degrees())
        if d < bounds.min_point_degree
    ]
    if low_deg:
        out.append(
            f"points {low_deg} lie in fewer than {bounds.min_point_degree} ND-pairs"
        )
    if census.nd_pair_count < bounds.min_nd_pairs:
        out.append(
            f"ND-pair count {census.nd_pair_count} below bound {bounds.min_nd_pairs}"
        )
    if census.min_mult > bounds.min_mult_upper:
        out.append(
            f"minimum multiplicity {census.min_mult} exceeds bound "
            f"{bounds.min_mult_upper}"
        )
    if census.max_mult < bounds.max_mult_lower:
        out.append(
            f"maximum multiplicity {census.max_mult} below bound "
            f"{bounds.max_mult_lower}"
        )
    return out


# ---------------------------------------------------------------------------
# classification

HalfPartition = tuple[tuple[int, ...], tuple[int, ...]]


def half_partition(census: PairCensus) -> Optional[HalfPartition]:
    """Split of the points into equal halves whose within-half pairs are
    exactly the ND-pairs, or None if no such split exists.

    Seeded from point 0's ND-neighborhood, which is forced when the
    ND-pair count meets the counting minimum.
    """
    v = census.v
    q1 = {0}
    for (a, b) in census.counts:
        if a == 0:
            q1.add(b)
        elif b == 0:
            q1.add(a)
    if len(q1) != v // 2:
        return None
    q2 = set(range(v)) - q1
    expected = {
        (a, b)
        for half in (q1, q2)
        for a in half
        for b in half
        if a < b
    }
    if set(census.counts) != expected:
        return None
    return (tuple(sorted(q1)), tuple(sorted(q2)))


@dataclass(frozen=True)
class Classification:
    kind: str  # complete-uniform | minimum-uniform | uniform | quasi-uniform | irregular
    v: int
    nd_pairs: int
    mu_min: int
    mu_max: int
    half_partition: Optional[HalfPartition] = None


def classify(design: NestedDesign) -> Classification:
    census = pair_census(design)
    v = design.v
    m = census.nd_pair_count
    lo, hi = census.min_mult, census.max_mult
    halves = half_partition(census) if m == min_nd_pairs(v) else None
    if lo == hi:
        if m == comb(v, 2) and 6 * lo == v - 2:
            kind = "complete-uniform"
        elif m == min_nd_pairs(v) and 3 * lo == v - 1:
            kind = "minimum-uniform"
        else:
            kind = "uniform"
    elif hi - lo <= 1:
        kind = "quasi-uniform"
    else:
        kind = "irregular"
    return Classification(
        kind=kind, v=v, nd_pairs=m, mu_min=lo, mu_max=hi, half_partition=halves
    )


# ---------------------------------------------------------------------------
# feasibility table

# Parameter sets with a known uniform nesting: the two small systems of
# order 8 and 10, the rotational catalog entries, the Boolean class
# nesting at order 32, and the doubled systems at 16, 40, 52, 64.
KNOWN_UNIFORM = {
    (8, 28), (10, 30), (16, 56), (20, 190), (26, 325), (32, 496),
    (38, 703), (40, 380), (52, 650), (62, 1891), (64, 992),
}

# Candidates the source table leaves without any existence marker.
UNMARKED = {(28, 182), (56, 1540)}


@dataclass(frozen=True)
class Candidate:
    nd_pairs: int
    mu: int
    kind: str    # complete | minimum | intermediate
    status: str  # known | open | unmarked


@dataclass(frozen=True)
class Exclusion:
    nd_pairs: int
    reason: str


@dataclass(frozen=True)
class FeasibilityRow:
    v: int
    total_pair_slots: int
    min_nd: int
    min_nd_raised: int
    max_nd: int
    candidates: tuple[Candidate, ...]
    exclusions: tuple[Exclusion, ...]


def uniform_obstruction(v: int, mu: int, m: Optional[int] = None) -> Optional[str]:
    """Why no uniform nesting of order v has multiplicity mu and m
    ND-pairs (m = None leaves the count free), or None if every counting
    and divisibility condition holds.  A mu that is None or below 1
    raises NsqsError."""
    if mu is None or mu < 1:
        raise NsqsError("uniform target needs mu >= 1")
    total = total_pair_slots(v)
    if total % mu:
        return f"multiplicity {mu} does not divide the total pair count {total}"
    if m is None:
        m = total // mu
    if m * mu != total:
        return (
            f"{m} ND-pairs at multiplicity {mu} gives {m * mu} pair slots, "
            f"but the total is {total}"
        )
    if m < min_nd_pairs_raised(v):
        if v % 12 in (2, 10) and m >= min_nd_pairs(v):
            return (
                f"ND-pair count {m} is below the v^2/4 lower bound "
                f"{v * v // 4} for v = 2, 10 (mod 12)"
            )
        return f"ND-pair count {m} is below the lower bound {min_nd_pairs(v)}"
    if m > comb(v, 2):
        return f"ND-pair count {m} exceeds the number of pairs {comb(v, 2)}"
    if ((v - 1) * (v - 2) // 6) % mu:
        return (
            f"multiplicity {mu} does not divide the per-point block "
            f"count {(v - 1) * (v - 2) // 6}"
        )
    if (2 * m) % v:
        return f"v={v} does not divide twice the ND-pair count {m}"
    if mu > (v - 2) // 2:
        return f"multiplicity {mu} exceeds the maximum {(v - 2) // 2}"
    return None


def _survives(v: int, m: int) -> Optional[int]:
    """Multiplicity of a surviving candidate with m ND-pairs, else None."""
    mu, rest = divmod(total_pair_slots(v), m)
    if rest or uniform_obstruction(v, mu, m) is not None:
        return None
    return mu


def _add_prime_factors(n: int, exponents: Counter) -> None:
    """Add the prime factorization of n >= 1 to ``exponents``."""
    p = 2
    while p * p <= n:
        while n % p == 0:
            exponents[p] += 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        exponents[n] += 1


def _slot_divisors(v: int, lo: int, hi: int) -> list[int]:
    """Divisors of total_pair_slots(v) = v(v-1)(v-2)/12 in [lo, hi], ascending.

    Each of v, v-1, v-2 is factored on its own (trial division up to
    sqrt(v)), so no number near the total is ever scanned.  Needs 12 to
    divide v(v-1)(v-2), which holds for every admissible v.
    """
    exponents: Counter = Counter()
    for n in (v, v - 1, v - 2):
        _add_prime_factors(n, exponents)
    exponents[2] -= 2
    exponents[3] -= 1
    divisors = [1]
    for p, e in exponents.items():
        divisors = [d * p**k for d in divisors for k in range(e + 1)]
    return sorted(d for d in divisors if lo <= d <= hi)


def feasibility_row(v: int) -> FeasibilityRow:
    _require_admissible(v)
    total = total_pair_slots(v)
    lo = min_nd_pairs(v)
    lo_raised = min_nd_pairs_raised(v)
    hi = comb(v, 2)
    candidates = []
    # a candidate's multiplicity is total / m, so only divisors can survive
    for m in _slot_divisors(v, lo, hi):
        mu = _survives(v, m)
        if mu is None:
            continue
        kind = "complete" if m == hi else "minimum" if m == lo else "intermediate"
        if (v, m) in KNOWN_UNIFORM:
            status = "known"
        elif (v, m) in UNMARKED:
            status = "unmarked"
        else:
            status = "open"
        candidates.append(Candidate(nd_pairs=m, mu=mu, kind=kind, status=status))

    exclusions = []
    if _survives(v, lo) is None:
        if v % 12 in (2, 10):
            reason = "minimum excluded: ND-pair count below v^2/4 for v = 2, 10 (mod 12)"
        else:
            reason = "minimum excluded: multiplicity (v-1)/3 not an integer"
        exclusions.append(Exclusion(nd_pairs=lo, reason=reason))
    if _survives(v, hi) is None:
        exclusions.append(
            Exclusion(
                nd_pairs=hi,
                reason="complete excluded: multiplicity (v-2)/6 not an integer",
            )
        )
    return FeasibilityRow(
        v=v,
        total_pair_slots=total,
        min_nd=lo,
        min_nd_raised=lo_raised,
        max_nd=hi,
        candidates=tuple(candidates),
        exclusions=tuple(exclusions),
    )


# each row factors v, v-1 and v-2 by trial division up to sqrt(v), and
# every row is held at once: the largest range accepted, 10 000 orders
# ending at 10^6, takes about 0.8 s printed and 1.0 s as JSON through
# the CLI on a 2-CPU Xeon host with CPython 3.11
_TABLE_MAX_ORDER = 10**6
_TABLE_MAX_ORDERS = 10**4


def feasibility_table(v_min: int, v_max: int) -> list[FeasibilityRow]:
    """The row of every admissible v in v_min..v_max.  A range past order
    10^6, or of more than 10^4 orders, raises PreconditionError."""
    if v_max > _TABLE_MAX_ORDER:
        raise PreconditionError(f"need orders <= {_TABLE_MAX_ORDER}, got {v_max}")
    if v_max - v_min >= _TABLE_MAX_ORDERS:
        raise PreconditionError(
            f"need at most {_TABLE_MAX_ORDERS} orders, got {v_max - v_min + 1}"
        )
    return [feasibility_row(v) for v in range(v_min, v_max + 1) if admissible(v)]


# ---------------------------------------------------------------------------
# difference classes and cyclotomic cosets

def split_classes(split: NestedBlock, p: int, multipliers) -> list[int]:
    """The difference class min(d, p - d), d = m * (b - a) mod p, of each
    finite pair (a, b) of a split over Z_p + {inf} under each multiplier
    m, pair by pair."""
    diffs = [m * (b - a) % p for a, b in split if p not in (a, b) for m in multipliers]
    return [min(d, p - d) for d in diffs]


@dataclass(frozen=True)
class CosetSet:
    modulus: int
    cosets: tuple[tuple[int, ...], ...]


# every residue is held at once: 2^20 - 1 takes about 0.5 s and 90 MB
_COSETS_MAX_MODULUS = 1 << 20


def cyclotomic_cosets(m: int) -> CosetSet:
    """Partition of Z_m \\ {0} into orbits under doubling."""
    if m < 3 or m % 2 == 0:
        raise InvalidModulusError(f"need an odd modulus >= 3, got {m}")
    if m > _COSETS_MAX_MODULUS:
        raise InvalidModulusError(f"need a modulus <= {_COSETS_MAX_MODULUS}, got {m}")
    seen: set[int] = set()
    cosets = []
    for x in range(1, m):
        if x in seen:
            continue
        coset = []
        y = x
        while y not in seen:
            coset.append(y)
            seen.add(y)
            y = (2 * y) % m
        cosets.append(tuple(coset))
    return CosetSet(modulus=m, cosets=tuple(cosets))
