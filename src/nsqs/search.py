"""Search for nestings of a given (un-nested) quadruple system.

Three engines:

* :func:`search_nesting` -- depth-first over whole block lists, three
  split choices per block, with capacity/deficit pruning.
* :func:`search_rotational` -- the same search at orbit level: only base
  block splits are chosen and feasibility is tracked on difference
  classes, so one node covers a whole orbit of blocks.  Its domains are
  kept incrementally through a watch list (class -> the options adding
  to it, by increment), so a move touches only the options whose
  feasibility it changes; fail-first picks the block with the fewest
  feasible splits.  It runs on an explicit stack and has no depth limit.
* :func:`local_balance` -- steepest-descent repartitioning of single
  blocks toward a multiplicity band.

Targets that violate a counting or divisibility necessary condition are
refused before any node is expanded, with the failing condition in the
outcome's ``reason``.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass, field
from math import comb
from typing import Optional, Sequence

from .analysis import (
    difference_class,
    min_nd_pairs,
    min_nd_pairs_raised,
)
from .constructions import RotationalSpec, rotational_expand
from .core import (
    NestedBlock,
    NestedDesign,
    alternative_splits,
    block_points,
    nested_design,
    pair_census,
    total_pair_slots,
    verify_steiner,
)
from .errors import NsqsError, PreconditionError


@dataclass(frozen=True)
class SearchTarget:
    """What the search is after.

    kind is one of uniform, complete-uniform, minimum-uniform,
    quasi-uniform, band.  ``mu`` fixes the exact multiplicity for
    uniform; ``mu_lo``/``mu_hi`` bound band-style targets; ``nd_pairs``
    optionally pins the exact ND-pair count.
    """

    kind: str
    mu: Optional[int] = None
    mu_lo: Optional[int] = None
    mu_hi: Optional[int] = None
    nd_pairs: Optional[int] = None


def uniform(mu: int, nd_pairs: Optional[int] = None) -> SearchTarget:
    return SearchTarget(kind="uniform", mu=mu, nd_pairs=nd_pairs)


def complete_uniform() -> SearchTarget:
    return SearchTarget(kind="complete-uniform")


def minimum_uniform() -> SearchTarget:
    return SearchTarget(kind="minimum-uniform")


def quasi_uniform(mu_lo: int) -> SearchTarget:
    return SearchTarget(kind="quasi-uniform", mu_lo=mu_lo, mu_hi=mu_lo + 1)


def band(mu_lo: int, mu_hi: int) -> SearchTarget:
    return SearchTarget(kind="band", mu_lo=mu_lo, mu_hi=mu_hi)


@dataclass(frozen=True)
class SearchSpec:
    target: SearchTarget
    node_budget: int = 10**8
    time_budget: float = 300.0
    seed: Optional[int] = None


@dataclass
class SearchStats:
    nodes: int = 0
    prunes: Counter = field(default_factory=Counter)
    moves: int = 0
    elapsed: float = 0.0


@dataclass
class SearchOutcome:
    status: str  # found | exhausted | budget-exceeded | refused
    witness: object = None  # NestedDesign or RotationalSpec when found
    reason: Optional[str] = None
    stats: SearchStats = field(default_factory=SearchStats)


@dataclass(frozen=True)
class _Resolved:
    mu_lo: int
    mu_hi: int
    nd_pairs: Optional[int]  # exact support size, None = free
    exact: bool  # every ND-pair must land exactly on mu_lo (= mu_hi)


def _resolve_target(target: SearchTarget, v: int) -> _Resolved | str:
    """Pin the target's band and support size at order v, or return a
    refusal reason string if a necessary condition already fails."""
    total = total_pair_slots(v)
    kind = target.kind
    if kind == "complete-uniform":
        if (v - 2) % 6:
            return f"complete uniform needs v = 2 (mod 6); v={v}"
        mu = (v - 2) // 6
        return _Resolved(mu, mu, comb(v, 2), True)
    if kind == "minimum-uniform":
        if v % 12 in (2, 10):
            return (
                f"minimum uniform impossible for v={v}: the ND-pair count "
                f"is at least v^2/4 = {v * v // 4} for v = 2, 10 (mod 12)"
            )
        if (v - 1) % 3:
            return f"minimum uniform needs v = 4 (mod 6); v={v}"
        return _Resolved((v - 1) // 3, (v - 1) // 3, min_nd_pairs(v), True)
    if kind == "uniform":
        mu = target.mu
        if mu is None:
            raise NsqsError("uniform target needs mu")
        if total % mu:
            return f"multiplicity {mu} does not divide the total pair count {total}"
        m = target.nd_pairs if target.nd_pairs is not None else total // mu
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
            return (
                f"ND-pair count {m} is below the lower bound "
                f"{min_nd_pairs(v)}"
            )
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
        return _Resolved(mu, mu, m, True)
    if kind in ("quasi-uniform", "band"):
        lo, hi = target.mu_lo, target.mu_hi
        if lo is None or hi is None or lo > hi:
            raise NsqsError(f"{kind} target needs mu_lo <= mu_hi")
        # divisibility screens are advisory when the support is free
        return _Resolved(lo, hi, target.nd_pairs, False)
    raise NsqsError(f"unknown target kind {target.kind!r}")


# ---------------------------------------------------------------------------
# full block-level search

def search_nesting(blocks, spec: SearchSpec) -> SearchOutcome:
    """Depth-first search for a split assignment of every block."""
    choices = [alternative_splits(blk) for blk in blocks]
    # split 0 of a block a < b < c < d is ((a, b), (c, d))
    v = max(opts[0][1][1] for opts in choices) + 1
    base = nested_design(v, [opts[0] for opts in choices])
    if not verify_steiner(base).ok:
        raise PreconditionError("block list is not a Steiner quadruple system")

    res = _resolve_target(spec.target, v)
    if isinstance(res, str):
        return SearchOutcome(status="refused", reason=res)

    # each block's six pairs, computed once
    pairs = [opts[0] + opts[1] + opts[2] for opts in choices]
    rng = random.Random(spec.seed)
    n_blocks = len(choices)
    if spec.seed is not None:
        for opts in choices:
            rng.shuffle(opts)

    require_all = res.nd_pairs == comb(v, 2)
    m_exact = res.nd_pairs
    mu_lo, mu_hi = res.mu_lo, res.mu_hi

    counts: Counter = Counter()
    avail: Counter = Counter(pr for prs in pairs for pr in prs)

    assigned: list[Optional[NestedBlock]] = [None] * n_blocks
    stats = SearchStats()
    start = time.monotonic()
    # deficit = sum over "live" pairs of how far below mu_lo they sit;
    # zero-count pairs are live only when the support must be complete
    state = {
        "support": 0,
        "deficit": mu_lo * comb(v, 2) if require_all else 0,
    }

    def feasible_splits(i: int) -> list[NestedBlock]:
        out = []
        for opt in choices[i]:
            ok = True
            new_pairs = 0
            for pr in opt:
                c = counts[pr]
                if c + 1 > mu_hi:
                    ok = False
                    break
                if c == 0:
                    new_pairs += 1
            if ok and m_exact is not None and state["support"] + new_pairs > m_exact:
                ok = False
            if ok:
                out.append(opt)
        return out

    def apply(i: int, opt: NestedBlock) -> None:
        assigned[i] = opt
        for pr in opt:
            c = counts[pr]
            if c == 0:
                state["support"] += 1
                if not require_all:
                    state["deficit"] += mu_lo
            counts[pr] = c + 1
            if c < mu_lo:
                state["deficit"] -= 1
        for pr in pairs[i]:
            avail[pr] -= 1

    def undo(i: int, opt: NestedBlock) -> None:
        assigned[i] = None
        for pr in pairs[i]:
            avail[pr] += 1
        for pr in opt:
            c = counts[pr] - 1
            counts[pr] = c
            if c < mu_lo:
                state["deficit"] += 1
            if c == 0:
                state["support"] -= 1
                if not require_all:
                    state["deficit"] -= mu_lo

    def dead_pair(i: int) -> bool:
        """After assigning block i, check its pairs can still be lifted."""
        for pr in pairs[i]:
            c = counts[pr]
            live = c > 0 or require_all
            if live and c < mu_lo and c + avail[pr] < mu_lo:
                return True
        return False

    unassigned = set(range(n_blocks))

    def dfs() -> Optional[str]:
        if not unassigned:
            if m_exact is not None and state["support"] != m_exact:
                return None
            if state["deficit"] != 0:
                return None
            return "found"
        if stats.nodes >= spec.node_budget:
            return "budget"
        if time.monotonic() - start > spec.time_budget:
            return "budget"
        # fail-first: expand the block with the fewest feasible splits
        best_i, best_opts = None, None
        for i in unassigned:
            opts = feasible_splits(i)
            if best_opts is None or len(opts) < len(best_opts):
                best_i, best_opts = i, opts
                if not opts:
                    break
        if not best_opts:
            stats.prunes["no-feasible-split"] += 1
            return None
        remaining = len(unassigned) - 1
        unassigned.discard(best_i)
        try:
            for opt in best_opts:
                stats.nodes += 1
                apply(best_i, opt)
                pruned = None
                if state["deficit"] > 2 * remaining:
                    stats.prunes["deficit-exceeds-capacity"] += 1
                    pruned = True
                elif dead_pair(best_i):
                    stats.prunes["pair-unliftable"] += 1
                    pruned = True
                if not pruned:
                    r = dfs()
                    if r is not None:
                        return r
                undo(best_i, opt)
            return None
        finally:
            unassigned.add(best_i)

    result = dfs()
    stats.elapsed = time.monotonic() - start
    if result == "found":
        witness = nested_design(v, [s for s in assigned if s is not None])
        return SearchOutcome(status="found", witness=witness, stats=stats)
    if result == "budget":
        return SearchOutcome(status="budget-exceeded", stats=stats)
    return SearchOutcome(status="exhausted", stats=stats)


# ---------------------------------------------------------------------------
# orbit-level search over rotational base blocks

def search_rotational(spec: RotationalSpec, search: SearchSpec) -> SearchOutcome:
    """Choose base-block splits only; feasibility runs on difference classes.

    A chosen split pair with finite difference d contributes one unit to
    class min(md, p-md) for each multiplier m; shifts then spread that
    uniformly over every pair of the class, so per-class counts are exact
    predictions of the expanded census.

    The depth-first search runs on an explicit stack, so the number of
    base blocks is not limited by the recursion limit.  Domains are kept
    incrementally: a move updates only the options that watch a class
    whose count it changed.
    """
    spec.validate()
    p = spec.p
    v = spec.v
    n_mult = len(spec.multipliers)
    res = _resolve_target(search.target, v)
    if isinstance(res, str):
        return SearchOutcome(status="refused", reason=res)
    if not res.exact:
        raise NsqsError("rotational search supports exact uniform targets only")
    mu = res.mu_lo

    n_blocks = len(spec.base_blocks)
    inf_blocks = sum(1 for b in spec.base_blocks if p in b[0] + b[1])
    complete = res.nd_pairs == comb(v, 2)

    # every split of an inf block pairs inf with someone, so the inf-pair
    # multiplicity is forced before any choice is made
    inf_final = inf_blocks * n_mult
    if complete and inf_final != mu:
        return SearchOutcome(
            status="refused",
            reason=(
                f"pairs through the fixed point are forced to multiplicity "
                f"{inf_final}, target needs {mu}"
            ),
        )

    # Option o = 3*i + k is split k of block i (in seeded order).  It adds
    # contribs[o] = ((class, increment), ...) to the class counts.
    n_classes = p // 2
    rng = random.Random(search.seed)
    splits: list[NestedBlock] = []
    contribs: list[tuple[tuple[int, int], ...]] = []
    for blk in spec.base_blocks:
        opts = alternative_splits(blk)
        if search.seed is not None:
            rng.shuffle(opts)
        for opt in opts:
            contrib: Counter = Counter()
            for pr in opt:
                if p in pr:
                    continue
                d = pr[1] - pr[0]
                for m in spec.multipliers:
                    contrib[difference_class(m * d, p)] += 1
            splits.append(opt)
            contribs.append(tuple(contrib.items()))

    # Domains.  over[o] counts the classes option o would push past mu, so
    # o is feasible iff over[o] == 0; nfeas[i] counts block i's feasible
    # options.  watch[cl][inc] lists the options adding inc to class cl:
    # when cl goes from c to c2, exactly those with mu - c2 < inc <= mu - c
    # change side.
    max_inc = max((inc for con in contribs for _, inc in con), default=0)
    watch = [[[] for _ in range(max_inc + 1)] for _ in range(n_classes + 1)]
    over = [0] * len(contribs)
    for o, con in enumerate(contribs):
        for cl, inc in con:
            watch[cl][inc].append(o)
            if inc > mu:
                over[o] += 1
    nfeas = [
        sum(1 for o in range(3 * i, 3 * i + 3) if not over[o])
        for i in range(n_blocks)
    ]
    # deficit = sum of gap[count] over classes: how far the live classes
    # sit below mu; empty classes are live only when the support is complete
    gap = [mu - c if complete or 0 < c < mu else 0 for c in range(mu + 1)]
    counts = [0] * (n_classes + 1)
    deficit = gap[0] * n_classes

    def move(o: int, sign: int) -> int:
        """Add (sign 1) or remove (sign -1) option o; returns the change
        in the deficit."""
        delta = 0
        for cl, inc in contribs[o]:
            c = counts[cl]
            c2 = c + sign * inc
            counts[cl] = c2
            delta += gap[c2] - gap[c]
            lo, hi = (c, c2) if sign < 0 else (c2, c)
            flipped = watch[cl]
            for j in range(mu - lo + 1, min(mu - hi, max_inc) + 1):
                for o2 in flipped[j]:
                    n = over[o2] + sign
                    over[o2] = n
                    # o2 became infeasible (n == 1 on add) or feasible
                    # again (n == 0 on remove)
                    if n == (sign > 0):
                        nfeas[o2 // 3] -= sign
        return delta

    stats = SearchStats()
    start = time.monotonic()
    chosen = [0] * n_blocks
    # fail-first ties go to the first block in the set's iteration order;
    # blocks leave and re-enter it in stack order, so the order and with
    # it the node order are deterministic
    unassigned = set(range(n_blocks))
    stack: list[list] = []  # [block, its feasible options, next position]
    capacity = 2 * n_mult
    while True:
        # a fresh node: a leaf, a budget stop, or a branch on the block
        # with the fewest feasible options
        if not unassigned:
            # every class sits at 0 or mu; each full class holds p pairs
            if deficit == 0 and (
                complete or p * (counts.count(mu) + bool(inf_final)) == res.nd_pairs
            ):
                result = "found"
                break
        elif stats.nodes >= search.node_budget or (
            time.monotonic() - start > search.time_budget
        ):
            result = "budget"
            break
        else:
            i = min(unassigned, key=nfeas.__getitem__)
            if nfeas[i]:
                unassigned.discard(i)
                feasible = [o for o in range(3 * i, 3 * i + 3) if not over[o]]
                stack.append([i, feasible, 0])
            else:
                stats.prunes["no-feasible-split"] += 1
        # undo the last option tried and apply the next untried one
        while stack:
            frame = stack[-1]
            i, opts, pos = frame
            if pos:
                deficit += move(opts[pos - 1], -1)
            if pos == len(opts):
                stack.pop()
                unassigned.add(i)
                continue
            frame[2] = pos + 1
            stats.nodes += 1
            chosen[i] = opts[pos]
            deficit += move(opts[pos], 1)
            if deficit > capacity * len(unassigned):
                stats.prunes["deficit-exceeds-capacity"] += 1
                continue
            break
        else:
            result = "exhausted"
            break

    stats.elapsed = time.monotonic() - start
    if result == "found":
        witness = RotationalSpec(
            p=p,
            base_blocks=tuple(splits[o] for o in chosen),
            multipliers=spec.multipliers,
        )
        # the class prediction is exact, but expand once as a post-check
        design = rotational_expand(witness)
        census = pair_census(design)
        if census.min_mult != mu or census.max_mult != mu:
            raise NsqsError("rotational search produced a non-uniform witness")
        return SearchOutcome(status="found", witness=witness, stats=stats)
    if result == "budget":
        return SearchOutcome(status="budget-exceeded", stats=stats)
    return SearchOutcome(status="exhausted", stats=stats)


# ---------------------------------------------------------------------------
# local repartitioning

def local_balance(
    design: NestedDesign,
    mu_lo: int,
    mu_hi: int,
    max_moves: int = 10_000,
) -> SearchOutcome:
    """Steepest-descent single-block repartitioning toward [mu_lo, mu_hi].

    The objective is (total distance of ND-pair multiplicities outside
    the band, sum of squared multiplicities); pairs dropped to count
    zero leave the census and stop counting.  Moves never worsen the
    objective; the walk stops at a local optimum or the move budget.
    """
    if not verify_steiner(design).ok:
        raise PreconditionError("local balance needs a verified design")

    def dist(c: int) -> int:
        if c <= 0:
            return 0
        return max(0, mu_lo - c, c - mu_hi)

    blocks = list(design.blocks)
    counts: Counter = Counter()
    for p1, p2 in blocks:
        counts[p1] += 1
        counts[p2] += 1

    stats = SearchStats()
    start = time.monotonic()
    while stats.moves < max_moves:
        best = None  # (d_dist, d_sq, index, new_split)
        for i, blk in enumerate(blocks):
            for alt in alternative_splits(block_points(blk)):
                if alt == blk:
                    continue
                stats.nodes += 1
                d_dist = d_sq = 0
                for pr in blk:
                    c = counts[pr]
                    d_dist += dist(c - 1) - dist(c)
                    d_sq += (c - 1) ** 2 - c**2
                for pr in alt:
                    c = counts[pr]
                    d_dist += dist(c + 1) - dist(c)
                    d_sq += (c + 1) ** 2 - c**2
                key = (d_dist, d_sq)
                if key < (0, 0) and (best is None or key < best[0]):
                    best = (key, i, alt)
        if best is None:
            break
        (_, i, alt) = best
        for pr in blocks[i]:
            counts[pr] -= 1
            if not counts[pr]:
                del counts[pr]
        for pr in alt:
            counts[pr] += 1
        blocks[i] = alt
        stats.moves += 1

    stats.elapsed = time.monotonic() - start
    result = nested_design(design.v, blocks, design.uses_infinity)
    if all(dist(c) == 0 for c in counts.values()):
        return SearchOutcome(status="found", witness=result, stats=stats)
    return SearchOutcome(status="exhausted", witness=result, stats=stats)
