"""Search for nestings of a given (un-nested) quadruple system.

One engine, two front ends, plus local rebalancing:

* :class:`_SplitEngine` -- the engine: an explicit-stack depth-first
  search for one of three splits per *unit*, where each split adds to
  the counts of *cells* that must end in the target band.  It runs on
  one of two kernels that make the same search: int masks over all
  splits when there are at most 512 splits and the support is not
  pinned, as in every orbit search, and crossing lists otherwise, as
  in flat searches of large or pinned inputs, where whole masks cost
  more than walking the splits a move flips.
* :func:`search_nesting` -- units are whole blocks, cells are pairs.
* :func:`search_rotational` -- units are rotational base blocks, cells
  are difference classes, so one node covers a whole orbit of blocks.
* :func:`local_balance` -- steepest-descent repartitioning of single
  blocks toward a multiplicity band.

Both front ends list each unit's three splits in canonical order, build
one engine over them and call its ``run`` with the search spec, whose
seed orders every unit's options the same way for both.  Each certifies
its input before it reads the target: the blocks must form an SQS, and
a spec must pass :func:`~nsqs.constructions.rotational_expand`, the one
certification of a spec, or the input is refused with an error whatever
the target.  Targets that violate a counting or divisibility necessary
condition are then refused before any node is expanded, with the
failing condition in the outcome's ``reason``.  The module keeps no
state between calls: an orbit search keeps its per-spec work in the
memo of a library-built spec.
"""

from __future__ import annotations

import heapq
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, islice
from math import comb
from operator import itemgetter
from typing import Optional

from .analysis import min_nd_pairs, split_classes, uniform_obstruction
from .constructions import RotationalSpec, _image_rows, rotational_expand
from .core import (
    NestedDesign,
    _design,
    _memoized,
    _with_memo,
    alternative_splits,
    nested_design,
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

    def __post_init__(self) -> None:
        # written as not >= so that a NaN budget is refused too
        if not self.node_budget >= 0:
            raise NsqsError(f"node budget must be >= 0, got {self.node_budget}")
        if not self.time_budget >= 0:
            raise NsqsError(f"time budget must be >= 0, got {self.time_budget}")


@dataclass
class SearchStats:
    nodes: int = 0
    prunes: Counter = field(default_factory=Counter)
    moves: int = 0
    elapsed: float = 0.0
    stop: Optional[str] = None  # found | exhausted | node-budget | time-budget | refused


@dataclass
class SearchOutcome:
    status: str  # found | exhausted | budget-exceeded | refused
    witness: object = None  # NestedDesign or RotationalSpec when found
    reason: Optional[str] = None
    stats: SearchStats = field(default_factory=SearchStats)


def _refused(reason: str) -> SearchOutcome:
    return SearchOutcome(status="refused", reason=reason, stats=SearchStats(stop="refused"))


@dataclass(frozen=True)
class _Resolved:
    mu_lo: int
    mu_hi: int
    nd_pairs: Optional[int]  # exact support size, None = free
    exact: bool  # every ND-pair must land exactly on mu_lo (= mu_hi)


def _resolve_target(target: SearchTarget, v: int) -> _Resolved | str:
    """Pin the target's band and support size at order v, or return a
    refusal reason string if a necessary condition already fails."""
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
        reason = uniform_obstruction(v, mu, target.nd_pairs)
        if reason:
            return reason
        return _Resolved(mu, mu, total_pair_slots(v) // mu, True)
    if kind in ("quasi-uniform", "band"):
        lo, hi = target.mu_lo, target.mu_hi
        _check_band(f"{kind} target", lo, hi)
        m = target.nd_pairs
        if m is not None and m < 0:
            return f"ND-pair count {m} is negative"
        if m is not None and m > comb(v, 2):
            return f"ND-pair count {m} exceeds the number of pairs {comb(v, 2)}"
        # divisibility screens are advisory when the support is free
        return _Resolved(lo, hi, m, False)
    raise NsqsError(f"unknown target kind {target.kind!r}")


def _check_band(what: str, lo: Optional[int], hi: Optional[int]) -> None:
    """Raise NsqsError unless 0 <= lo <= hi."""
    if lo is None or hi is None or not 0 <= lo <= hi:
        raise NsqsError(f"{what} needs 0 <= mu_lo <= mu_hi")


# ---------------------------------------------------------------------------
# the split-assignment engine

_CLOCK_STRIDE = 4096  # nodes from one read of the clock to the next

# The most options an input may have for the bit kernel, which answers
# the fail-first question from whole-int masks and so pays per node for
# every option; the list kernel pays only for the watchers a move
# crosses.  Engine CPU per node on a 2-CPU Xeon host with CPython 3.11:
# with 288 options (the Boolean SQS(128) orbit problem) the bit kernel
# is 3.4-3.8x faster; with 855 (flat ro20 complete-uniform) the two are
# even; with 6 327 (flat ro38 complete-uniform) the list kernel is 1.3x
# faster.  The limit sits below the even point: an unpinned flat search
# takes bits up to v = 16 (420 options) and the list kernel from v = 20.
_BIT_OPTIONS = 512


class _SplitEngine:
    """The split-assignment engine on one input: the tables that do not
    depend on the order in which a unit's options are tried, built once,
    and :meth:`run`, one depth-first search for one split per unit, every
    cell ending in [mu_lo, mu_hi] or at zero.

    Unit i has the options 3i, 3i+1 and 3i+2; option o adds
    ``contribs[o] = ((cell, increment), ...)`` to the cell counts.
    ``nd_cells`` pins how many cells end up nonzero (None leaves it
    free; all of them makes every cell live from the start).  With
    ``unliftable`` a move is also pruned when one of its unit's cells
    sits below mu_lo and the unassigned units can no longer lift it,
    tested from per-cell potentials on the cells a move lowers or opens.
    ``tally`` is False where the deficit prune cannot fire, and runs then
    keep no deficit.

    The engine picks one of two kernels when it is built, and builds
    only the tables that kernel reads.  Both make the same search: the
    same nodes, prunes, witnesses and ``chosen`` at a budget stop.

    * The bit kernel (``bits``) runs when the support is not pinned
      below all cells and there are at most ``_BIT_OPTIONS`` options.
      Option o is bit o of an int, and ``blocked[cell][count]`` is the
      mask of the options that no longer fit once the cell holds that
      count.  A move ORs in one mask per cell it touches, and a node
      reads every free unit's feasible options from one mask at once.
    * The list kernel runs otherwise.  The options that a count change
      flips are listed once per cell and increment, for every count the
      change can start from, and each option keeps its shared steps
      ``(cell, increment, flips)``.  A move walks only the watchers it
      crosses, which is cheaper than whole masks on large inputs, and
      it keeps the per-option tallies that a pinned support reads.  A
      branched unit's feasible counts are not recounted when it is
      popped: the pop restores the counts it had at the branch.

    A run works on copies of the mutable tables, so an engine serves any
    number of runs, each with its own seed.
    """

    def __init__(
        self,
        contribs: list[tuple[tuple[int, int], ...]],
        n_cells: int,
        mu_lo: int,
        mu_hi: int,
        nd_cells: Optional[int],
        unliftable: bool,
    ) -> None:
        n_units = len(contribs) // 3
        self.contribs, self.n_cells, self.n_units = contribs, n_cells, n_units
        self.mu_lo, self.nd_cells, self.unliftable = mu_lo, nd_cells, unliftable
        self.complete = complete = nd_cells == n_cells
        self.pinned = pinned = nd_cells is not None and not complete
        # no unassigned unit can lower the deficit by more than this
        inc_of = itemgetter(1)
        totals = [sum(map(inc_of, con)) for con in contribs]
        self.capacity = max(totals, default=0)

        # pot[cell]: its count plus the spans of the free units (a unit's
        # span: its largest increment on each cell), at the root the
        # cell's reach.  Option o lowers it by losses[o] = ((cell, span
        # less o's increment), ...); when the options share no cell, by the
        # other two's entries.  No count ever passes its cell's reach, so
        # capping mu_hi at the largest one changes no test and keeps the tables small.
        self.pot, self.losses = pot, losses = [0] * n_cells, []
        units = iter(contribs)
        for a, b, c in zip(units, units, units):
            span = dict(whole := a + b + c)
            if len(span) < len(whole):  # the options share a cell
                for cl, inc in whole:
                    span[cl] = max(span[cl], inc)
                if unliftable:
                    losses += [tuple((cl, m - own.get(cl, 0)) for cl, m in span.items()
                                     if m > own.get(cl, 0)) for own in map(dict, (a, b, c))]
            elif unliftable:
                losses += (b + c, a + c, a + b)
            for cl, inc in span.items():
                pot[cl] += inc
        # with every cell live, one whose reach is below mu_lo fails from
        # the root on: each option of a unit spanning it lists it at loss 0
        low = [r < mu_lo for r in pot] if unliftable and complete else []
        for o in range(len(contribs) if any(low) else 0):
            unit = dict(chain.from_iterable(contribs[o - o % 3:o - o % 3 + 3]))
            losses[o] += tuple((cl, 0) for cl in unit if low[cl])
        mu_hi = max(0, min(mu_hi, max(pot, default=0)))
        # With every cell live and no count above mu_hi == mu_lo, the
        # deficit is n_cells * mu_lo less what the assigned units add.  If
        # each unit's options add one total and all units reach n_cells *
        # mu_lo, it stays within capacity * n_free and is 0 at every leaf:
        # run keeps no deficit tally and never tests it.
        self.tally = not (complete and mu_hi == mu_lo and n_cells * mu_lo <= sum(totals[::3])
                          and totals[::3] == totals[1::3] == totals[2::3])
        # deficit = sum of gap[count] over cells: how far the live cells
        # sit below mu_lo; empty cells are live only when the support is
        # complete
        self.gap = [
            mu_lo - c if c < mu_lo and (complete or c) else 0 for c in range(mu_hi + 1)
        ]
        self.bits = not pinned and 3 * n_units <= _BIT_OPTIONS
        if self.bits:
            self._bit_tables(mu_hi)
        else:
            self._list_tables(mu_hi)

    def _bit_tables(self, mu_hi: int) -> None:
        """The bit kernel's tables.  An option adding inc to a cell fits
        while the cell's count is at most mu_hi - inc, so it is in
        ``blocked[cell][c]`` for every count c above that (every count,
        if inc > mu_hi).  No count passes mu_hi, so each cell has mu_hi
        + 1 masks, and ``inf`` at the root is the OR of their first.
        ``steps[o]`` holds one step (cell, inc, row) per entry of
        contribs[o], shared by every option with that entry: row[c] is
        the cell's mask at count c + inc, the one a move from c ORs in."""
        blocked = [[0] * (mu_hi + 1) for _ in range(self.n_cells)]
        for o, con in enumerate(self.contribs):
            bit = 1 << o
            for cl, inc in con:
                row = blocked[cl]
                for c in range(max(0, mu_hi - inc + 1), mu_hi + 1):
                    row[c] |= bit
        self.blocked = blocked
        self.inf = 0
        for row in blocked:
            self.inf |= row[0]
        interned = {(cl, inc): (cl, inc, blocked[cl][inc:])
                    for cl, inc in dict.fromkeys(chain.from_iterable(self.contribs))}
        self.steps = [tuple(map(interned.__getitem__, con)) for con in self.contribs]

    def _list_tables(self, mu_hi: int) -> None:
        """The list kernel's tables."""
        contribs, n_cells, n_units, pinned = self.contribs, self.n_cells, self.n_units, self.pinned
        # With the support pinned below all cells, an option is feasible
        # only if the cells it would open fit in the slack (nd_cells less
        # the nonzero cells).  That test binds only while the slack is
        # below max_new, the most cells one option touches.
        self.max_new = max_new = max(map(len, contribs), default=0)
        # Domains.  over[o] counts the cells option o would push past
        # mu_hi, so o is feasible iff over[o] == 0 (and the support pin
        # allows it).  An option adding inc to a cell fits while the
        # cell's count is at most mu_hi - inc, so watch[cell][t] lists the
        # (option, unit) pairs with that threshold t: a count crossing t
        # flips exactly those.  nfeas[i] counts unit i's options with
        # over == 0.
        self.watch = watch = [[[] for _ in range(mu_hi)] for _ in range(n_cells)]
        self.over = over = [0] * len(contribs)
        for o, con in enumerate(contribs):
            w = (o, o // 3)
            for cl, inc in con:
                if inc > mu_hi:
                    over[o] += 1
                else:
                    watch[cl][mu_hi - inc].append(w)
        # Crossing lists.  steps[o] holds one step (cell, inc, flips) per
        # entry of contribs[o], shared by every option with that entry:
        # flips[c] lists the watchers of the thresholds c .. c+inc-1, the
        # ones a count moving between c and c + inc crosses.  An option is
        # applied only while it fits, so c never passes mu_hi - inc.  For
        # inc == 1, flips is the cell's watch list itself.
        interned = {(cl, inc): (cl, inc, watch[cl] if inc == 1 else [
            tuple(chain.from_iterable(watch[cl][c:c + inc])) for c in range(mu_hi - inc + 1)
        ]) for cl, inc in dict.fromkeys(chain.from_iterable(contribs))}
        steps = map(interned.__getitem__, chain.from_iterable(contribs))
        if max_new == min(map(len, contribs), default=0) > 0:  # regroup them at C speed
            self.steps = list(zip(*[steps] * max_new))
        else:
            self.steps = [tuple(islice(steps, len(con))) for con in contribs]
        self.nfeas = bytearray((not over[o]) + (not over[o + 1]) + (not over[o + 2])
                               for o in range(0, len(contribs), 3))

        # Pinned support: new[o] counts the cells option o would open,
        # touch[cell] lists the (option, unit) pairs with an entry on the
        # cell, and within[s][i] counts unit i's options with over == 0
        # that open at most s cells, for every slack s below max_new.
        new = [len(con) for con in contribs] if pinned else []
        touch: list[list[tuple[int, int]]] = [[] for _ in range(n_cells)] if pinned else []
        for o, con in enumerate(contribs if pinned else ()):
            for cl, _ in con:
                touch[cl].append((o, o // 3))
        self.new, self.touch = new, touch
        self.within = [
            bytearray(
                sum(not over[o] and new[o] <= s for o in range(3 * i, 3 * i + 3))
                for i in range(n_units)
            )
            for s in range(max_new if pinned else 0)
        ]

    def run(self, spec: SearchSpec) -> tuple[str, list[int], SearchStats]:
        """Search with each unit's feasible options tried in index order
        or, with ``spec.seed``, in an order drawn from
        ``random.Random(spec.seed)``: one shuffle of each unit's
        [3i, 3i+1, 3i+2], in unit order.  Returns the outcome status, the
        chosen option of every unit (when found) and the stats.

        The search runs on an explicit stack, so the number of units is
        not limited by the recursion limit.  It branches fail-first: on
        the free unit with the fewest feasible options, ties going to the
        lowest unit index, so the node order depends on nothing but the
        input and the seed.  A forced unit tries its one feasible option;
        a unit with two or three tries them in its order.
        ``stats.nodes`` never exceeds ``spec.node_budget``; the clock is
        read at the first fresh node and then once per ``_CLOCK_STRIDE``
        nodes.
        """
        units = [[o, o + 1, o + 2] for o in range(0, 3 * self.n_units, 3)]
        if spec.seed is not None:
            shuffle = random.Random(spec.seed).shuffle
            for order in units:
                shuffle(order)
        start = time.monotonic()
        kernel = self._run_bits if self.bits else self._run_lists
        stop, chosen, nodes, prunes = kernel(units, spec, start)
        stats = SearchStats(nodes=nodes, elapsed=time.monotonic() - start, stop=stop)
        for name, n in zip(
            ("no-feasible-split", "deficit-exceeds-capacity", "pair-unliftable"), prunes
        ):
            if n:
                stats.prunes[name] = n
        status = stop if stop in ("found", "exhausted") else "budget-exceeded"
        return status, chosen, stats

    def _run_lists(self, units: list[list[int]], spec: SearchSpec, start: float) -> tuple:
        """The list kernel.  Domains are kept incrementally: a move
        updates only the options of free units that watch a cell whose
        count it changed, and C-level scans of a bytearray of feasible
        counts give the fail-first choice without scoring every unit.
        Applying an option walks, for each of its steps, the one crossing
        list of the count the change starts at, so no threshold is tested
        on the way, and keeps on its frame the trail of watchers whose
        ``over`` it raised, which its undo replays.  Popping a unit
        restores the feasible counts saved at its branch, and with the
        support pinned the slack is kept from a running count of the
        nonzero cells, so neither is recounted.  Returns the stop cause,
        ``chosen``, the node count and the three prune counts.
        """
        # the tables a run changes are copied; every table is a local
        steps, n_cells, n_units = self.steps, self.n_cells, self.n_units
        mu_lo, nd_cells, unliftable, tally = self.mu_lo, self.nd_cells, self.unliftable, self.tally
        complete, pinned, max_new = self.complete, self.pinned, self.max_new
        capacity, losses, touch, gap = self.capacity, self.losses, self.touch, self.gap
        pot = self.pot[:] if unliftable else self.pot
        opens = pinned or unliftable and not complete  # an opening cell is tallied or tested
        over = self.over[:]
        nfeas = self.nfeas[:]
        new = self.new[:]
        within = [w[:] for w in self.within]
        # The walks update over, new and within only for free units; an
        # assigned unit's entries freeze when it is branched on.  That is
        # exact: units leave and re-enter in stack order, so a unit is
        # free both when an option is applied and when it is undone, or
        # assigned both times, and the skipped updates would have
        # cancelled; so an undo reverses exactly its apply's trail.  When
        # the unit is popped, the counts are back to their values at its
        # branch, so its frozen entries are correct again, and so are the
        # counts of them taken at its branch, which the pop restores
        # rather than recounts.  Without a pinned support a branch takes
        # every feasible option, so nfeas[i] is the number on the frame;
        # with one, the branch keeps nfeas[i] and each within[s][i] on
        # ``saved``.  A unit on the stack holds 4 in them, above any count.
        # So ``0 in nfeas`` is a dead end, and otherwise the first of
        # nfeas.find(1), find(2), find(3) to hit is the lowest unit among
        # the fewest feasible options; within[slack] answers the same
        # while the pinned slack binds.
        free = [True] * n_units  # not on the stack
        saved: list[tuple[int, bytes]] = []  # pinned: (nfeas[i], within[s][i]) per frame
        counts = [0] * n_cells
        n_open = 0  # pinned: the nonzero cells
        deficit = gap[0] * n_cells if tally else 0

        budget = spec.node_budget
        time_budget = spec.time_budget
        nodes = no_split = over_capacity = unliftable_cell = clock_at = 0
        chosen = [0] * n_units
        n_free = n_units
        # [unit, its feasible options, how many, next position, trail]
        stack: list[list] = []
        stop = None
        while stop is None:
            # a fresh node: a leaf, a budget stop, or a branch on the
            # lowest unit among those with the fewest feasible options
            if not n_free:
                if deficit == 0 and (nd_cells is None or n_cells - counts.count(0) == nd_cells):
                    stop = "found"
                    break
            elif nodes >= budget or nodes >= clock_at and time.monotonic() - start > time_budget:
                stop = "node-budget" if nodes >= budget else "time-budget"
                break
            else:
                if nodes >= clock_at:  # the clock was read: the next read is a stride on
                    clock_at = nodes + _CLOCK_STRIDE
                if pinned and (slack := nd_cells - n_open) < max_new:
                    least = min(within[slack])
                    if least:
                        i = within[slack].find(least)
                        opts = tuple(o for o in units[i] if not over[o] and new[o] <= slack)
                else:
                    least = 0 if 0 in nfeas else 1
                    if least:
                        i = nfeas.find(1)
                        if i >= 0:  # a forced unit: its one open option
                            o = 3 * i
                            while over[o]:
                                o += 1
                            opts = (o,)
                        elif (i := nfeas.find(2)) >= 0:
                            least = 2
                            x, y, z = units[i]
                            opts = (y, z) if over[x] else (x, z) if over[y] else (x, y)
                        else:
                            least, i = 3, nfeas.find(3)
                            opts = units[i]
                if least:
                    if pinned:
                        saved.append((nfeas[i], bytes([w[i] for w in within])))
                        for w in within:
                            w[i] = 4
                    nfeas[i] = 4
                    free[i] = False
                    n_free -= 1
                    stack.append([i, opts, least, 0, []])
                else:
                    no_split += 1
            # undo the last option tried and apply the next untried one
            while stack:
                frame = stack[-1]
                i, opts, n_opts, pos, trail = frame
                if pos:
                    for o2 in trail:
                        n = over[o2] - 1
                        over[o2] = n
                        if not n:  # o2 fits again
                            j = o2 // 3
                            nfeas[j] += 1
                            if pinned:
                                for s in range(new[o2], max_new):
                                    within[s][j] += 1
                    trail.clear()
                    o = opts[pos - 1]
                    if unliftable:
                        for cl, d in losses[o]:
                            pot[cl] += d
                    for cl, inc, _ in steps[o]:
                        c = counts[cl] - inc
                        counts[cl] = c
                        if tally:
                            deficit += gap[c] - gap[c + inc]
                        if pinned and not c:  # the cell closes
                            n_open -= 1
                            for o2, j in touch[cl]:
                                if free[j]:
                                    n = new[o2]
                                    new[o2] = n + 1
                                    if n < max_new and not over[o2]:
                                        within[n][j] -= 1
                if pos == n_opts:
                    stack.pop()
                    free[i] = True
                    n_free += 1
                    if pinned:
                        nfeas[i], column = saved.pop()
                        for w, n in zip(within, column):
                            w[i] = n
                    else:
                        nfeas[i] = n_opts
                    continue
                if nodes >= budget:  # siblings count against the budget too
                    stop = "node-budget"
                    break
                frame[3] = pos + 1
                nodes += 1
                o = opts[pos]
                chosen[i] = o
                if unliftable:
                    # a live cell that the move lowers below mu_lo fails
                    fail = False
                    for cl, d in losses[o]:
                        pot[cl] = p = pot[cl] - d
                        if p < mu_lo and (complete or counts[cl]):
                            fail = True
                for cl, inc, flips in steps[o]:
                    c = counts[cl]
                    counts[cl] = c + inc
                    if tally:
                        deficit += gap[c + inc] - gap[c]
                    for o2, j in flips[c]:
                        if free[j]:
                            n = over[o2]
                            over[o2] = n + 1
                            trail.append(o2)
                            if not n:  # o2 stopped fitting
                                nfeas[j] -= 1
                                if pinned:
                                    for s in range(new[o2], max_new):
                                        within[s][j] -= 1
                    if opens and not c:  # the cell opens
                        if unliftable and pot[cl] < mu_lo:
                            fail = True
                        if pinned:
                            n_open += 1
                            for o2, j in touch[cl]:
                                if free[j]:
                                    n = new[o2] - 1
                                    new[o2] = n
                                    if n < max_new and not over[o2]:
                                        within[n][j] += 1
                if tally and deficit > capacity * n_free:
                    over_capacity += 1
                    continue
                if unliftable and fail:
                    unliftable_cell += 1
                    continue
                break
            else:
                stop = "exhausted"
        return stop, chosen, nodes, (no_split, over_capacity, unliftable_cell)

    def _run_bits(self, units: list[list[int]], spec: SearchSpec, start: float) -> tuple:
        """The bit kernel: ``_run_lists`` with the domains kept as masks.
        ``inf`` is the OR of ``blocked[cell][count]`` over the cells at
        their current counts, the options that no longer fit.  Counts
        only rise down the stack, so a move ORs in the masks of the
        counts it reaches; each frame keeps ``inf`` as it was at its
        branch, and an undo restores it from there, so there is no trail.
        ``free`` holds the options of the units not on the stack.  A node
        shifts ``free & ~inf`` into three slices that hold unit i's
        options 3i, 3i+1 and 3i+2 at bit 3i, and reads the units with 0,
        1, 2 or 3 feasible options, all at once, from the slices' OR,
        parity and AND; the lowest set bit k = 3i of such a mask is the
        lowest such unit.  Returns what ``_run_lists`` returns.
        """
        steps, n_cells, n_units = self.steps, self.n_cells, self.n_units
        mu_lo, nd_cells, unliftable, tally = self.mu_lo, self.nd_cells, self.unliftable, self.tally
        complete, capacity, losses, gap = self.complete, self.capacity, self.losses, self.gap
        pot = self.pot[:] if unliftable else self.pot
        opens = unliftable and not complete  # an opening cell is tested
        low = int("001" * n_units or "0", 2)  # bit 3i of every unit i
        free = (1 << 3 * n_units) - 1
        free_low = low  # bit 3i of every free unit i
        inf = self.inf
        counts = [0] * n_cells
        deficit = gap[0] * n_cells if tally else 0

        budget = spec.node_budget
        time_budget = spec.time_budget
        nodes = no_split = over_capacity = unliftable_cell = clock_at = 0
        chosen = [0] * n_units
        n_free = n_units
        # [unit, its feasible options, how many, next position, inf at the branch]
        stack: list[list] = []
        stop = None
        while stop is None:
            # a fresh node, as in _run_lists
            if not n_free:
                if deficit == 0 and (nd_cells is None or n_cells - counts.count(0) == nd_cells):
                    stop = "found"
                    break
            elif nodes >= budget or nodes >= clock_at and time.monotonic() - start > time_budget:
                stop = "node-budget" if nodes >= budget else "time-budget"
                break
            else:
                if nodes >= clock_at:
                    clock_at = nodes + _CLOCK_STRIDE
                fit = free & ~inf
                f0 = fit & low
                f1 = fit >> 1 & low
                f2 = fit >> 2 & low
                some = f0 | f1 | f2
                if some == free_low:  # no free unit is left without an option
                    three = f0 & f1 & f2
                    odd = f0 ^ f1 ^ f2
                    if one := odd ^ three:  # a forced unit: its one open option
                        k = (one & -one).bit_length() - 1
                        # its option bits read 1, 2 or 4 for option k, k+1 or k+2
                        least, opts = 1, (k + ((fit >> k & 7) >> 1),)
                    elif two := some ^ odd:
                        k = (two & -two).bit_length() - 1
                        x, y, z = units[k // 3]
                        least = 2
                        opts = (y, z) if inf >> x & 1 else (x, z) if inf >> y & 1 else (x, y)
                    else:
                        k = (three & -three).bit_length() - 1
                        least, opts = 3, units[k // 3]
                    free ^= 7 << k
                    free_low ^= 1 << k
                    n_free -= 1
                    stack.append([k // 3, opts, least, 0, inf])
                else:
                    no_split += 1
            # undo the last option tried and apply the next untried one
            while stack:
                frame = stack[-1]
                i, opts, n_opts, pos, inf = frame
                if pos:
                    o = opts[pos - 1]
                    if unliftable:
                        for cl, d in losses[o]:
                            pot[cl] += d
                    for cl, inc, _ in steps[o]:
                        c = counts[cl] - inc
                        counts[cl] = c
                        if tally:
                            deficit += gap[c] - gap[c + inc]
                if pos == n_opts:
                    stack.pop()
                    free |= 7 << 3 * i
                    free_low |= 1 << 3 * i
                    n_free += 1
                    continue
                if nodes >= budget:
                    stop = "node-budget"
                    break
                frame[3] = pos + 1
                nodes += 1
                o = opts[pos]
                chosen[i] = o
                if unliftable:
                    fail = False
                    for cl, d in losses[o]:
                        pot[cl] = p = pot[cl] - d
                        if p < mu_lo and (complete or counts[cl]):
                            fail = True
                for cl, inc, row in steps[o]:
                    c = counts[cl]
                    counts[cl] = c + inc
                    inf |= row[c]
                    if tally:
                        deficit += gap[c + inc] - gap[c]
                    if opens and not c and pot[cl] < mu_lo:  # the cell opens below reach
                        fail = True
                if tally and deficit > capacity * n_free:
                    over_capacity += 1
                    continue
                if unliftable and fail:
                    unliftable_cell += 1
                    continue
                break
            else:
                stop = "exhausted"
        return stop, chosen, nodes, (no_split, over_capacity, unliftable_cell)


# ---------------------------------------------------------------------------
# the two front ends: whole block lists, and rotational base blocks

def search_nesting(blocks, spec: SearchSpec) -> SearchOutcome:
    """Search for a split of every block; the cells are the pairs."""
    choices = [alternative_splits(blk) for blk in blocks]
    if not choices:
        raise PreconditionError("the block list is empty")
    # split 0 of a block a < b < c < d is ((a, b), (c, d))
    v = max(opts[0][1][1] for opts in choices) + 1
    base = nested_design(v, [opts[0] for opts in choices])
    if not verify_steiner(base).ok:
        raise PreconditionError("block list is not a Steiner quadruple system")

    res = _resolve_target(spec.target, v)
    if isinstance(res, str):
        return _refused(res)

    # the pairs are the cells, numbered in the order first seen
    splits = list(chain.from_iterable(choices))
    pairs = list(chain.from_iterable(splits))
    entry_of = {pr: (cl, 1) for cl, pr in enumerate(dict.fromkeys(pairs))}
    entries = map(entry_of.__getitem__, pairs)
    engine = _SplitEngine(list(zip(entries, entries)), len(entry_of), res.mu_lo, res.mu_hi,
                          res.nd_pairs, unliftable=True)
    status, chosen, stats = engine.run(spec)
    if status != "found":
        return SearchOutcome(status=status, stats=stats)
    witness = nested_design(v, [splits[o] for o in chosen])
    return SearchOutcome(status=status, witness=witness, stats=stats)


class _OrbitProblem:
    """What :func:`search_rotational` works out once per spec, built
    whole: the spec certified, the three splits of every base block
    (split k of block i at 3i + k), the pair classes of every split's
    shift rows, the multiplicity ``mu`` forced on the pairs through the
    fixed point, and the engine over the splits' class contributions."""

    def __init__(self, spec: RotationalSpec) -> None:
        # certify the spec: its images must be the blocks of an SQS(v)
        rotational_expand(spec)
        p = spec.p
        self.splits = splits = [
            opt for blk in spec.base_blocks for opt in alternative_splits(blk)
        ]
        contribs = [
            tuple(Counter(d - 1 for d in split_classes(opt, p, spec.multipliers)).items())
            for opt in splits
        ]
        # A shift row lists the images of one pair under all p shifts, so
        # it is one whole pair class: a difference class, or the p pairs
        # through the fixed point.  Each row is keyed by its least pair,
        # once per distinct row (_image_rows shares one list per
        # difference), after a check that it holds p distinct pairs, the
        # same pairs as every row keyed alike, and none of another class.
        # A pair's multiplicity in the expansion of chosen splits is then
        # the number of their rows keyed by its class.
        # id(row) -> (row, key); holding the row keeps its id its own
        known: dict[int, tuple[list, tuple]] = {}
        classes: dict[tuple, set] = {}
        covered: set = set()

        def key_of(row: list) -> tuple:
            hit = known.get(id(row))
            if hit is None:
                pairs = set(row)
                if len(row) != p or len(pairs) != p:
                    raise NsqsError(f"a shift row holds {len(pairs)} distinct pairs "
                                    f"of {len(row)}, expected {p}")
                key = min(pairs)
                same = classes.setdefault(key, pairs)
                if same is pairs:
                    if not covered.isdisjoint(pairs):
                        raise NsqsError(f"the shift row keyed {key} meets another pair class")
                    covered.update(pairs)
                elif same != pairs:
                    raise NsqsError(f"two shift rows keyed {key} hold different pairs")
                known[id(row)] = hit = (row, key)
            return hit[1]

        # one pass over every split, so that all rows share one row table
        keys = [
            key_of(row)
            for r, _, r2, _ in _image_rows(RotationalSpec(p, tuple(splits), spec.multipliers))
            for row in (r, r2)
        ]
        k = 2 * len(spec.multipliers)
        self.classes = [tuple(keys[o:o + k]) for o in range(0, len(keys), k)]
        # The images are the blocks of an SQS(v), each once, so the
        # (v-1)(v-2)/6 blocks through the fixed point are images of the
        # base blocks through it.  Every split of such a block pairs the
        # fixed point with one other point, and the shifts spread those
        # pairs evenly over its p pairs: each has multiplicity (v-2)/6
        # whatever the choice, and every pair is an ND-pair.  So the only
        # reachable target is complete-uniform, every class is a cell
        # that must end at mu, and one engine serves every call.  The
        # unliftable prune stays off here, as it changes seeded results: 80
        # seeded ro26 and ro38 runs of 2 500 nodes find 46 witnesses in
        # 106 530 nodes with it, 33 in 140 342 without, in 10% less time
        self.mu = mu = (spec.v - 2) // 6
        self.engine = _SplitEngine(contribs, p // 2, mu, mu, p // 2, unliftable=False)

    def class_counts(self, chosen: list[int]) -> Counter:
        """How many rows of the chosen splits each pair class holds, by
        its least pair: classes[o] keys the rows of split o's two pairs
        under every multiplier, and each pair of a class lies in one
        image per row of it."""
        return Counter(chain.from_iterable(map(self.classes.__getitem__, chosen)))


def search_rotational(spec: RotationalSpec, search: SearchSpec) -> SearchOutcome:
    """Choose base-block splits only; the cells are the difference classes.

    A chosen split pair with finite difference d contributes one unit to
    class min(md, p-md) for each multiplier m; shifts then spread that
    uniformly over every pair of the class, so per-class counts are exact
    predictions of the expanded census.  The p pairs through the fixed
    point are not a cell: their multiplicity is forced to (v-2)/6.

    The spec is certified before the target is read, by
    :func:`rotational_expand`, whose errors it raises whatever the
    target: a spec whose images do not number the blocks of an SQS(v)
    is refused before any image is built, and one whose images are not
    an SQS(v) by a witness triple.  Seeded restarts on one spec repeat
    only the per-call work: the target, one run of the engine and the
    post-check of the witness.  The certification, the splits, their
    class contributions, the pair classes of their shift rows and the
    engine's tables are made once per spec the library built, and kept
    in its memo; a caller's ``RotationalSpec(...)`` or a copy gets them
    made afresh at every call.  A witness has the certified spec's block
    point sets, so its post-check counts, for each pair class, the shift
    rows of its chosen splits in that class, without building an image
    block or a row, and tests every count for the uniform multiplicity.
    """
    problem = _memoized(spec, "problem", _OrbitProblem)
    res = _resolve_target(search.target, spec.v)
    if isinstance(res, str):
        return _refused(res)
    if not res.exact:
        raise NsqsError("rotational search supports exact uniform targets only")
    mu = res.mu_lo
    if mu != problem.mu:
        return _refused(
            f"pairs through the fixed point are forced to multiplicity "
            f"{problem.mu}, target needs {mu}"
        )

    status, chosen, stats = problem.engine.run(search)
    if status != "found":
        return SearchOutcome(status=status, stats=stats)
    witness = _with_memo(RotationalSpec(
        p=spec.p,
        base_blocks=tuple(problem.splits[o] for o in chosen),
        multipliers=spec.multipliers,
    ))
    # the class prediction is exact, but count the expanded pairs by
    # their classes as a post-check: the images are those of the
    # certified spec, resplit
    counts = problem.class_counts(chosen).values()
    if min(counts) != mu or max(counts) != mu:
        raise NsqsError("rotational search produced a non-uniform witness")
    return SearchOutcome(status=status, witness=witness, stats=stats)


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
    zero leave the census and stop counting.  Each move takes the
    resplit that lowers the objective most, ties going to the first
    block in design order and then to the first of its
    :func:`alternative_splits`.  Moves never worsen the objective; the
    walk stops at a local optimum or the move budget.

    Only the blocks through the four pairs a move changes are re-scored
    after it.  ``stats.nodes`` counts the resplits scored.
    """
    _check_band("local balance", mu_lo, mu_hi)
    if not verify_steiner(design).ok:
        raise PreconditionError("local balance needs a verified design")

    def dist(c: int) -> int:
        if c <= 0:
            return 0
        return max(0, mu_lo - c, c - mu_hi)

    # A pair (x, y) has the id x * v + y.  splits[i]: the three splits of
    # block i, in the order of :func:`alternative_splits`, as six pair
    # ids, split k at 2k and 2k + 1; cur[i]: the position of its current
    # split.  A canonical block ((a, b), (c, d)) has its least point a
    # and c < d, so where b falls among c and d gives both.
    v = design.v
    splits: list[tuple[int, ...]] = []
    cur: list[int] = []
    through: list[list[int]] = [[] for _ in range(v * v)]  # pair id -> blocks
    counts = [0] * (v * v)
    for i, ((a, b), (c, d)) in enumerate(design.blocks):
        av = a * v
        if b < c:
            k, ids = 0, (av + b, c * v + d, av + c, b * v + d, av + d, b * v + c)
        elif b < d:
            k, ids = 1, (av + c, b * v + d, av + b, c * v + d, av + d, c * v + b)
        else:
            k, ids = 2, (av + c, d * v + b, av + d, c * v + b, av + b, c * v + d)
        splits.append(ids)
        cur.append(k)
        for pid in ids:
            through[pid].append(i)
        counts[av + b] += 1
        counts[c * v + d] += 1

    # A move's score is weight * d_dist + d_sq.  No count passes the
    # number of blocks through its pair, cmax, so |d_sq| < 8 * cmax <
    # weight / 2, and scores order like the (d_dist, d_sq) pairs; a
    # move improves iff its score is negative.  drop[c] and rise[c]
    # score one pair's count going from c to c - 1 and to c + 1.
    cmax = max(map(len, through), default=0)
    weight = 16 * cmax + 16
    drop = [weight * (dist(c - 1) - dist(c)) + 1 - 2 * c for c in range(cmax + 2)]
    rise = [weight * (dist(c + 1) - dist(c)) + 1 + 2 * c for c in range(cmax + 2)]

    # heap of improving moves (score, block, split position, stamp); an
    # entry whose stamp is not its block's latest is stale, so the first
    # live entry is the first-minimum move over all blocks
    heap: list[tuple[int, int, int, int]] = []
    stamp = [0] * len(splits)
    stats = SearchStats()

    def rescore(i: int) -> None:
        stamp[i] = s = stamp[i] + 1
        ids = splits[i]
        k = cur[i]
        base = drop[counts[ids[2 * k]]] + drop[counts[ids[2 * k + 1]]]
        for pos in range(3):
            if pos != k:
                score = base + rise[counts[ids[2 * pos]]] + rise[counts[ids[2 * pos + 1]]]
                if score < 0:
                    heapq.heappush(heap, (score, i, pos, s))
        stats.nodes += 2

    start = time.monotonic()
    for i in range(len(splits)):
        rescore(i)
    moved: set[int] = set()
    while stats.moves < max_moves:
        while heap and heap[0][3] != stamp[heap[0][1]]:
            heapq.heappop(heap)
        if not heap:
            break
        _, i, pos, _ = heapq.heappop(heap)
        ids = splits[i]
        k = cur[i]
        changed = (ids[2 * k], ids[2 * k + 1], ids[2 * pos], ids[2 * pos + 1])
        counts[changed[0]] -= 1
        counts[changed[1]] -= 1
        counts[changed[2]] += 1
        counts[changed[3]] += 1
        cur[i] = pos
        moved.add(i)
        stats.moves += 1
        for j in set().union(*(through[pid] for pid in changed)):
            rescore(j)
        if len(heap) > 8 * len(splits):
            # drop stale entries, so the heap stays within the live moves
            heap = [e for e in heap if e[3] == stamp[e[1]]]
            heapq.heapify(heap)

    stats.elapsed = time.monotonic() - start
    blocks = list(design.blocks)
    for i in moved:
        ids = splits[i]
        k = cur[i]
        blocks[i] = (divmod(ids[2 * k], v), divmod(ids[2 * k + 1], v))
    result = _design(v, blocks, design.uses_infinity)
    if all(dist(c) == 0 for c in counts):
        return SearchOutcome(status="found", witness=result, stats=stats)
    return SearchOutcome(status="exhausted", witness=result, stats=stats)
