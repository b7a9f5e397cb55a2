"""Command-line driver.

Exit codes: 0 on success/pass, 1 on verification failure or a
refused/exhausted search, 2 on usage errors (including malformed input
files and unknown catalog names).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace

from . import analysis, catalog, constructions, fileio, search
from .core import pair_census, relabel, verify_steiner
from .errors import NsqsError, ParseError
from .gf2n import Gf2nField


def _read(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        source = "standard input" if path == "-" else path
        raise ParseError(f"{source} is not valid UTF-8 (byte {exc.start})")


def _load_design(path: str, strict_count: bool = True):
    return fileio.parse_design(_read(path), strict_count=strict_count)


def _warn_unless_steiner(design) -> None:
    """One stderr line, after the output, when a design given to census
    or classify is not an SQS: their figures then describe whatever
    blocks the file holds.  A design they refuse gets only the error."""
    report = verify_steiner(design)
    if not report.ok:
        print(
            f"warning: input is not a Steiner quadruple system "
            f"({report.violations} bad triples; {report.block_count} blocks, "
            f"expected {report.expected_blocks})",
            file=sys.stderr,
        )


def _mu_text(lo: int, hi: int) -> str:
    return str(lo) if lo == hi else f"{lo}..{hi}"


# ---------------------------------------------------------------------------
# subcommands

def _cmd_construct(args) -> int:
    if args.what == "boolean":
        if args.nest != "search":
            design = constructions.boolean_sqs(args.n, poly=args.poly)
        else:
            out = _search_boolean(args.n, args.poly)
            if out.status != "found":
                print(
                    f"search {out.status}"
                    + (f": {out.reason}" if out.reason else ""),
                    file=sys.stderr,
                )
                return 1
            design = out.witness
    else:
        design = _load_design(args.input)
        if args.what == "doubling-a":
            design = constructions.doubling_a(design)
        else:
            design = constructions.doubling_b(design)
    sys.stdout.write(fileio.serialize_design(design))
    return 0


def _search_boolean(n: int, poly) -> search.SearchOutcome:
    """A uniform nesting of the Boolean SQS(2^n) over GF(2)^n.  For odd
    n >= 5 it is chosen orbit by orbit under shift and Frobenius
    doubling: in exponent coordinates, Z_p with multipliers {2^k mod p}."""
    if n < 5 or n % 2 == 0:
        design = constructions.boolean_sqs(n, poly=poly)
        target = (
            search.complete_uniform()
            if ((1 << n) - 2) % 6 == 0
            else search.quasi_uniform(1)
        )
        blocks = [b[0] + b[1] for b in design.blocks]
        return search.search_nesting(blocks, search.SearchSpec(target))
    # the design refuses an n past boolean_sqs's bound before any field
    # table is built
    p = (1 << n) - 1
    spec = constructions.orbit_spec(
        constructions.boolean_rotational_design(n, poly),
        {pow(2, k, p) for k in range(n)},
    )
    out = search.search_rotational(
        spec, search.SearchSpec(search.complete_uniform())
    )
    if out.status != "found":
        return out
    # exponent i back to the field element alpha^i, the fixed point to 0
    to_rot = constructions.boolean_to_rotational(Gf2nField(n, poly))
    design = relabel(
        constructions.rotational_expand(out.witness), sorted(to_rot, key=to_rot.get)
    )
    return replace(out, witness=replace(design, uses_infinity=False))


def _cmd_expand(args) -> int:
    if args.catalog:
        design = catalog.catalog_get(args.catalog).design()
    else:
        spec = fileio.parse_base_spec(_read(args.base))
        design = constructions.rotational_expand(spec)
    sys.stdout.write(fileio.serialize_design(design))
    return 0


def _cmd_verify(args) -> int:
    design = _load_design(args.file, strict_count=False)
    report = verify_steiner(design)
    if report.ok:
        print(f"ok v={report.v} blocks={report.block_count}")
        return 0
    if report.witness is not None:
        print(
            f"FAIL triple {report.witness} covered "
            f"{report.witness_coverage} times (expected 1)"
        )
    print(
        f"FAIL {report.violations} bad triples; "
        f"{report.block_count} blocks, expected {report.expected_blocks}"
    )
    return 1


def _cmd_census(args) -> int:
    design = _load_design(args.file)
    census = pair_census(design)
    if args.json:
        print(
            json.dumps(
                {
                    "v": census.v,
                    "nd_pairs": census.nd_pair_count,
                    "min_mult": census.min_mult,
                    "max_mult": census.max_mult,
                    "total": census.total,
                    "histogram": {
                        str(k): n for k, n in sorted(census.histogram().items())
                    },
                },
                indent=2,
            )
        )
    else:
        print(
            f"v={census.v} nd_pairs={census.nd_pair_count} "
            f"min={census.min_mult} max={census.max_mult} total={census.total}"
        )
        for mult, n in sorted(census.histogram().items()):
            print(f"  multiplicity {mult}: {n} pairs")
    _warn_unless_steiner(design)
    return 0


def _cmd_classify(args) -> int:
    design = _load_design(args.file)
    cls = analysis.classify(design)
    if args.json:
        payload = asdict(cls)
        print(json.dumps(payload, indent=2))
    else:
        print(f"{cls.kind} M={cls.nd_pairs} mu={_mu_text(cls.mu_min, cls.mu_max)}")
        if cls.half_partition is not None:
            q1, q2 = cls.half_partition
            print(f"half-partition {list(q1)} / {list(q2)}")
    _warn_unless_steiner(design)
    return 0


def _cmd_bounds(args) -> int:
    profile = analysis.bounds_profile(args.v)
    if args.json:
        print(json.dumps(asdict(profile), indent=2))
    else:
        for key, value in asdict(profile).items():
            print(f"{key}={value}")
    return 0


def _cmd_table(args) -> int:
    rows = analysis.feasibility_table(args.min, args.max)
    if args.json:
        print(json.dumps([asdict(r) for r in rows], indent=2))
        return 0
    for row in rows:
        cands = " ".join(
            f"{c.nd_pairs}({c.mu})[{c.status}]" for c in row.candidates
        )
        print(f"v={row.v} total={row.total_pair_slots} candidates: {cands}")
        for ex in row.exclusions:
            print(f"  excluded {ex.nd_pairs}: {ex.reason}")
    return 0


def _build_target(args) -> search.SearchTarget:
    t = args.target
    if args.nd_pairs is not None and t != "uniform":
        raise NsqsError(f"--nd-pairs applies to --target uniform only, not {t}")
    if t == "uniform":
        if args.mu is None:
            raise NsqsError("--target uniform needs --mu")
        return search.uniform(args.mu, nd_pairs=args.nd_pairs)
    if t == "complete-uniform":
        return search.complete_uniform()
    if t == "minimum-uniform":
        return search.minimum_uniform()
    if t == "quasi-uniform":
        if args.mu is None:
            raise NsqsError("--target quasi-uniform needs --mu (lower value)")
        return search.quasi_uniform(args.mu)
    raise NsqsError(f"unknown target {t!r}")


def _cmd_search(args) -> int:
    text = _read(args.file)
    target = _build_target(args)
    spec = search.SearchSpec(
        target, node_budget=args.budget, seed=args.seed
    )
    # the first line, stripped as the parsers strip their header line
    if "".join(fileio._head(text)).strip().startswith("nsqs-base"):
        base = fileio.parse_base_spec(text)
        out = search.search_rotational(base, spec)
        serialize = fileio.serialize_base_spec
    else:
        design = fileio.parse_design(text)
        blocks = [b[0] + b[1] for b in design.blocks]
        out = search.search_nesting(blocks, spec)
        serialize = fileio.serialize_design
    print(
        f"status={out.status} nodes={out.stats.nodes} "
        f"elapsed={out.stats.elapsed:.2f}s"
        + (f" reason: {out.reason}" if out.reason else ""),
        file=sys.stderr,
    )
    if out.status == "found":
        sys.stdout.write(serialize(out.witness))
        return 0
    return 1


def _cmd_cosets(args) -> int:
    cosets = analysis.cyclotomic_cosets(args.mod)
    for coset in cosets.cosets:
        print("{" + ", ".join(str(x) for x in coset) + "}")
    return 0


# ---------------------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsqs", description="nested Steiner quadruple systems"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a design")
    p.add_argument("what", choices=["boolean", "doubling-a", "doubling-b"])
    p.add_argument("--n", type=int, help="Boolean dimension")
    p.add_argument("--poly", type=lambda s: int(s, 0), help="field polynomial")
    p.add_argument(
        "--nest", choices=["catalog", "search", "none"], default="catalog"
    )
    p.add_argument("--input", default="-", help="input design file (doubling)")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("expand", help="expand a rotational spec")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--catalog", help="catalog entry name")
    group.add_argument("--base", help="base-block spec file")
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("verify", help="check the Steiner property")
    p.add_argument("file", nargs="?", default="-")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("census", help="ND-pair multiplicity census")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("classify", help="classify a nesting")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("bounds", help="closed-form bounds at order v")
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("table", help="uniform-nesting feasibility table")
    p.add_argument("--min", type=int, required=True)
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("search", help="search for a nesting")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument(
        "--target",
        required=True,
        choices=["uniform", "complete-uniform", "minimum-uniform", "quasi-uniform"],
    )
    p.add_argument("--mu", type=int)
    p.add_argument("--nd-pairs", type=int, dest="nd_pairs")
    p.add_argument("--seed", type=int)
    p.add_argument("--budget", type=int, default=10**8)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("cosets", help="cyclotomic cosets mod m")
    p.add_argument("--mod", type=int, required=True)
    p.set_defaults(func=_cmd_cosets)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "construct" and args.what == "boolean" and args.n is None:
        print("error: construct boolean needs --n", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (NsqsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
