"""The benchmark's three workloads.

A workload function receives the freshly imported ``nsqs`` package, a
probe for its set-up calls, the workload seed and a size, builds its
inputs and returns the fixed list of ops that one pass runs.  Building
the inputs is part of the measured set-up time.  ``size="small"`` is the
reduced variant the self-test runs.

Every search gets a fixed node budget and a time budget far above it, so
only node counts stop a search and every pass repeats the same work.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import sys
from dataclasses import asdict

import pins
from harness import Incorrect, Op, Probe, Tally, expect

TIME_BUDGET = 3600.0


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def block_count(v: int) -> int:
    return v * (v - 1) * (v - 2) // 24


def point_sets(blocks) -> list[tuple[int, ...]]:
    """The sorted block point sets of nested blocks, to compare block sets."""
    return sorted(tuple(sorted(b[0] + b[1])) for b in blocks)


def draw_seeds(seed: int, label: str, n: int) -> list[int]:
    rng = random.Random(f"{seed}:{label}")
    return [rng.randrange(2**31) for _ in range(n)]


# counters recorded on spans: count(result, *args) -> sizes
def _bytes_out(text, *args):
    return {"bytes": len(text)}


def _bytes_in(result, text):
    return {"bytes": len(text)}


def _blocks_in(result, design):
    return {"blocks": len(design.blocks)}


def _rows_out(rows, *args):
    return {"rows": len(rows)}


def search_counts(outcome, *args):
    stats = outcome.stats
    return {"nodes": stats.nodes, "prunes": sum(stats.prunes.values()), "moves": stats.moves}


def search_work(outcome) -> tuple:
    stats = outcome.stats
    return (outcome.status, stats.nodes, stats.moves, tuple(sorted(stats.prunes.items())))


class Certifier:
    """Checks witnesses with verify_steiner and classify, once per distinct one."""

    def __init__(self, lib):
        self.lib = lib
        self._seen: dict = {}

    def design(self, witness, blocks, label: str):
        """Certify a nested design that must re-nest ``blocks``; returns
        (classification, digest)."""
        key = sha256(self.lib.serialize_design(witness))
        if key not in self._seen:
            expect(
                point_sets(witness.blocks) == point_sets(blocks),
                f"{label}: witness nests a different block set",
            )
            self._seen[key] = self._classify(witness, label)
        return self._seen[key], key

    def rotational(self, witness, base, label: str):
        """Certify a rotational witness that must re-nest ``base``."""
        key = self.lib.serialize_base_spec(witness)
        if key not in self._seen:
            expect(
                witness.p == base.p
                and witness.multipliers == base.multipliers
                and point_sets(witness.base_blocks) == point_sets(base.base_blocks),
                f"{label}: witness nests different base blocks",
            )
            try:
                design = self.lib.rotational_expand(witness)
            except self.lib.NsqsError as exc:
                raise Incorrect(f"{label}: witness does not expand: {exc}")
            self._seen[key] = self._classify(design, label)
        return self._seen[key], key

    def _classify(self, design, label: str):
        report = self.lib.verify_steiner(design)
        expect(report.ok, f"{label}: witness fails verify_steiner at {report.witness}")
        return self.lib.classify(design)


# ---------------------------------------------------------------------------
# construct-verify

CONSTRUCT = {
    # cli: catalog entry piped through `expand | classify`;
    # chain_a: (rotational catalog entry, number of doubling_a steps);
    # chain_b: rotational catalog entry doubled once by doubling_b
    "full": {"cli": "ro62", "chain_a": ("bool32", 2), "chain_b": "ro62",
             "tables": [(8, 64), (500, 630)]},
    "small": {"cli": "ro20", "chain_a": ("ro20", 1), "chain_b": "ro26",
              "tables": [(8, 64), (100, 130)]},
}


def _run_cli(cli, argv: list[str], stdin_text: str) -> tuple[int, str]:
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def _cli_ops(cli, name: str) -> list[Op]:
    _, digest, (kind, nd_pairs, mu, _) = pins.DESIGNS[name]
    line = f"{kind} M={nd_pairs} mu={mu}\n"

    def expand(probe, state):
        state["cli"] = probe.call(
            "cli.main", _run_cli, cli, ["expand", "--catalog", name], ""
        )
        return state["cli"]

    def check_expand(value):
        code, out = value
        expect(code == 0, f"cli expand exited {code}")
        expect(sha256(out) == digest, f"cli expand {name}: output differs from the pin")
        return Tally((code, len(out)), goals=1, solved=1)

    def classify(probe, state):
        return probe.call("cli.main", _run_cli, cli, ["classify"], state["cli"][1])

    def check_classify(value):
        code, out = value
        expect(code == 0 and out == line, f"cli classify printed {out!r}, expected {line!r}")
        return Tally((code, out))

    return [
        Op(f"cli expand --catalog {name}", expand, check_expand, goal=True),
        Op("cli classify", classify, check_classify),
    ]


def _build_op(name: str, layer: str, fn, source, dst: str) -> Op:
    v = pins.DESIGNS[dst][0]

    def run(probe, state):
        state[dst] = probe.call(layer, fn, source(state))
        return state[dst]

    def check(design):
        expect(
            design.v == v and len(design.blocks) == block_count(v),
            f"{dst}: built v={design.v} with {len(design.blocks)} blocks",
        )
        return Tally((design.v, len(design.blocks)), goals=1, solved=1)

    return Op(name, run, check, goal=True)


def _roundtrip_op(lib, name: str, perm: list[int]) -> Op:
    """serialize -> parse -> nested_design(shuffled) -> verify, census, classify."""
    _, digest, pinned = pins.DESIGNS[name]

    def run(probe, state):
        design = state[name]
        text = probe.call("fileio.serialize_design", lib.serialize_design, design,
                          count=_bytes_out)
        parsed = probe.call("fileio.parse_design", lib.parse_design, text, count=_bytes_in)
        shuffled = [parsed.blocks[i] for i in perm]
        renested = probe.call("core.nested_design", lib.nested_design, parsed.v,
                              shuffled, parsed.uses_infinity)
        report = probe.call("core.verify_steiner", lib.verify_steiner, renested,
                            count=_blocks_in)
        census = probe.call("core.pair_census", lib.pair_census, renested)
        cls = probe.call("analysis.classify", lib.classify, renested)
        return design, text, parsed, renested, report, census, cls

    def check(value):
        design, text, parsed, renested, report, census, cls = value
        expect(sha256(text) == digest, f"{name}: serialize_design differs from the pin")
        expect(parsed == design, f"{name}: parse_design(serialize_design(d)) != d")
        expect(renested == design, f"{name}: nested_design(shuffled blocks) != d")
        expect(report.ok, f"{name}: verify_steiner fails at {report.witness}")
        expect(
            census.total == 2 * len(design.blocks)
            and (census.nd_pair_count, census.min_mult, census.max_mult)
            == (cls.nd_pairs, cls.mu_min, cls.mu_max),
            f"{name}: pair_census disagrees with classify",
        )
        got = (cls.kind, cls.nd_pairs, cls.mu_min, cls.mu_max)
        expect(got == pinned, f"{name}: classify gave {got}, pinned {pinned}")
        return Tally((len(text),))

    return Op(f"roundtrip {name}", run, check)


def _table_op(lib, lo: int, hi: int) -> Op:
    digest = pins.TABLES[(lo, hi)]

    def run(probe, state):
        return probe.call("analysis.feasibility_table", lib.feasibility_table, lo, hi,
                          count=_rows_out)

    def check(rows):
        got = sha256(json.dumps([asdict(r) for r in rows], sort_keys=True))
        expect(got == digest, f"feasibility_table({lo}, {hi}) differs from the pin")
        return Tally((len(rows),))

    return Op(f"feasibility_table {lo}..{hi}", run, check)


def construct_verify(lib, probe: Probe, seed: int, size: str = "full") -> list[Op]:
    cfg = CONSTRUCT[size]
    cli = importlib.import_module("nsqs.cli")
    base_a, steps = cfg["chain_a"]
    base_b = cfg["chain_b"]
    specs = {
        name: probe.call("catalog.catalog_get", lib.catalog_get, name).payload
        for name in (base_a, base_b)
    }
    chain = [base_a + ".a" * k for k in range(steps + 1)]
    designs = chain + [base_b, base_b + ".b"]
    perms = {}
    for name in designs:
        perm = list(range(block_count(pins.DESIGNS[name][0])))
        random.Random(f"{seed}:{name}").shuffle(perm)
        perms[name] = perm

    ops = _cli_ops(cli, cfg["cli"])
    for name in (base_a, base_b):
        ops.append(_build_op(f"rotational_expand {name}", "constructions.rotational_expand",
                             lib.rotational_expand, lambda state, s=specs[name]: s, name))
    for src, dst in zip(chain, chain[1:]):
        ops.append(_build_op(f"doubling_a {src}", "constructions.doubling_a",
                             lib.doubling_a, lambda state, s=src: state[s], dst))
    ops.append(_build_op(f"doubling_b {base_b}", "constructions.doubling_b",
                         lib.doubling_b, lambda state: state[base_b], base_b + ".b"))
    ops += [_roundtrip_op(lib, name, perms[name]) for name in designs]
    ops += [_table_op(lib, lo, hi) for lo, hi in cfg["tables"]]
    return ops


# ---------------------------------------------------------------------------
# searches

def _search_op(lib, name: str, layer: str, fn, problem, target, seeds, cutoff: int,
               nodes: int, certify, attainable: bool = True) -> Op:
    """Searches restarted with fresh seeds until the seeds run out or ``nodes``
    are spent.

    Each call's node budget is ``cutoff`` or what is left of ``nodes``,
    whichever is less.  A call that ends budget-exceeded is a restart and
    counts as neither solved nor failed.  On an attainable target,
    exhausted or refused is a failure.
    """

    def run(probe, state):
        calls, spent = [], 0
        for s in seeds:
            if spent >= nodes:
                break
            budget = min(cutoff, nodes - spent)
            spec = lib.SearchSpec(target, node_budget=budget, time_budget=TIME_BUDGET, seed=s)
            out = probe.call(layer, fn, problem, spec, count=search_counts)
            calls.append((budget, out))
            spent += out.stats.nodes
        return calls

    def check(calls):
        work, goals, solved, failed = [], 0, 0, False
        for budget, out in calls:
            work.append(search_work(out))
            if not attainable:
                expect(out.status == "refused",
                       f"{name}: an unattainable target ended {out.status}")
            elif out.status == "found":
                work.append(certify(out.witness))
                goals += 1
                solved += 1
            elif out.status == "budget-exceeded":
                expect(out.stats.nodes >= budget,
                       f"{name}: budget-exceeded after {out.stats.nodes} of {budget} nodes")
            else:
                goals += 1
                failed = True
        return Tally(tuple(work), goals, solved, failed)

    return Op(name, run, check, goal=attainable)


ORBIT = {
    # (catalog entry, seeds drawn, per-call cutoff, node allotment)
    "full": [("ro20", 30, 2_000, 10**6), ("ro26", 1000, 2_000, 15_000),
             ("ro38", 1000, 2_500, 20_000), ("ro62", 4, 500, 10**6),
             ("bool32", 10, 500, 10**6)],
    "small": [("ro20", 3, 10**6, 10**6), ("ro26", 1000, 200, 1_000), ("bool32", 2, 10**6, 10**6)],
}


def search_orbit(lib, probe: Probe, seed: int, size: str = "full") -> list[Op]:
    certifier = Certifier(lib)
    ops = []
    for name, n_seeds, cutoff, nodes in ORBIT[size]:
        spec = probe.call("catalog.catalog_get", lib.catalog_get, name).payload
        stripped = lib.rotational_spec(
            spec.p,
            [lib.alternative_splits(b[0] + b[1])[0] for b in spec.base_blocks],
            spec.multipliers,
        )

        def certify(witness, stripped=stripped, name=name):
            cls, key = certifier.rotational(witness, stripped, name)
            expect(cls.kind == "complete-uniform", f"{name}: witness is {cls.kind}")
            return key

        ops.append(_search_op(
            lib, f"search_rotational {name}", "search.search_rotational",
            lib.search_rotational, stripped, lib.complete_uniform(),
            draw_seeds(seed, name, n_seeds), cutoff, nodes, certify,
        ))
    return ops


BLOCKS = {
    # sqs10: (seeds drawn, per-call cutoff, node allotment) for uniform(2);
    # fixed: (catalog entry or boolean_sqs order, target, node budget), unseeded;
    # balance: (boolean_sqs order, mu_lo, mu_hi, max_moves)
    "full": {"sqs10": (10, 5_000, 30_000),
             "fixed": [(4, "minimum-uniform", 100_000), ("ro20", "complete-uniform", 5_000),
                       ("ro38", "complete-uniform", 200_000)],
             "balance": [(5, 4, 6, 20), (6, 9, 11, 3)]},
    "small": {"sqs10": (3, 1_000, 3_000),
              "fixed": [(4, "minimum-uniform", 100_000), ("ro20", "complete-uniform", 300),
                        ("ro38", "complete-uniform", 200_000)],
              "balance": [(4, 2, 3, 10)]},
}


def _flat(design) -> list[tuple[int, ...]]:
    return [b[0] + b[1] for b in design.blocks]


def _balance_op(lib, name: str, design, lo: int, hi: int, max_moves: int,
                certifier: Certifier) -> Op:
    def run(probe, state):
        return probe.call("search.local_balance", lib.local_balance, design, lo, hi,
                          max_moves, count=search_counts)

    def check(out):
        expect(out.stats.moves <= max_moves, f"{name}: {out.stats.moves} moves")
        cls, key = certifier.design(out.witness, design.blocks, name)
        if out.status == "found":
            expect(lo <= cls.mu_min and cls.mu_max <= hi,
                   f"{name}: found, but multiplicities span {cls.mu_min}..{cls.mu_max}")
        return Tally(search_work(out) + (key,))

    return Op(name, run, check)


def search_blocks(lib, probe: Probe, seed: int, size: str = "full") -> list[Op]:
    cfg = BLOCKS[size]
    certifier = Certifier(lib)

    def certify_kind(design, label, kind, mu=None):
        def certify(witness):
            cls, key = certifier.design(witness, design.blocks, label)
            expect(cls.kind == kind and (mu is None or cls.mu_min == cls.mu_max == mu),
                   f"{label}: witness is {cls.kind} mu={cls.mu_min}..{cls.mu_max}")
            return key
        return certify

    def design_of(source):
        if isinstance(source, int):
            return lib.boolean_sqs(source)
        return probe.call("catalog.catalog_get", lib.catalog_get, source).design()

    sqs10 = design_of("sqs10")
    n_seeds, cutoff, nodes = cfg["sqs10"]
    ops = [
        _search_op(lib, "search_nesting sqs10 uniform(2)", "search.search_nesting",
                   lib.search_nesting, _flat(sqs10), lib.uniform(2),
                   draw_seeds(seed, "sqs10", n_seeds), cutoff, nodes,
                   certify_kind(sqs10, "sqs10", "uniform", 2)),
        _search_op(lib, "search_nesting sqs10 uniform(3)", "search.search_nesting",
                   lib.search_nesting, _flat(sqs10), lib.uniform(3), [None], 1_000,
                   1_000, None, attainable=False),
    ]
    targets = {"minimum-uniform": lib.minimum_uniform(),
               "complete-uniform": lib.complete_uniform()}
    for source, kind, budget in cfg["fixed"]:
        design = design_of(source)
        label = f"bool{source}" if isinstance(source, int) else source
        ops.append(_search_op(
            lib, f"search_nesting {label} {kind}", "search.search_nesting",
            lib.search_nesting, _flat(design), targets[kind], [None], budget,
            budget, certify_kind(design, label, kind),
        ))
    for n, lo, hi, max_moves in cfg["balance"]:
        ops.append(_balance_op(lib, f"local_balance bool{n} [{lo},{hi}]",
                               lib.boolean_sqs(n), lo, hi, max_moves, certifier))
    return ops


WORKLOADS = {
    "construct-verify": construct_verify,
    "search-orbit": search_orbit,
    "search-blocks": search_blocks,
}
