"""Run one nsqs benchmark workload and print its metrics.

    python3 perfbench/run.py --workload construct-verify --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the library is imported from ``src/``.
Set-up (import ``nsqs``, first ``catalog_get``, build the workload's
inputs from the seed) is measured ``SETUPS`` times.  Passes then run for
about ``--seconds`` in all; every result is checked after its op's clock
stops.  With ``--trace 1`` every second pass is traced.  Set-up and op
times are scaled by a reference loop timed between them, against the
host's speed drift (see ``harness``).

Output: an ``env`` line, one line per op, one line per metric (name,
value, unit), then the result as one JSON object on the last line.  The
full record, with the spans of traced passes, goes to
``perfbench/out/<workload>-seed<seed>-trace<trace>.json``.

Exit status: 0 when every check passed, 1 on a wrong result, 2 when
``nsqs`` cannot be imported from this checkout.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import harness
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUPS = 7


class LibraryMissing(Exception):
    pass


def import_nsqs():
    """Import nsqs from this checkout's src/, discarding any earlier import."""
    for name in [m for m in sys.modules if m == "nsqs" or m.startswith("nsqs.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        lib = importlib.import_module("nsqs")
    except ImportError as exc:
        raise LibraryMissing(str(exc))
    if Path(lib.__file__).resolve().parent != SRC / "nsqs":
        raise LibraryMissing(f"nsqs was imported from {lib.__file__}")
    return lib


def set_up(build, seed: int, size: str, tracing: bool):
    """Set up SETUPS times from a fresh import; returns the last ops, the
    set-up times scaled by the reference loop (see harness), and the
    catalog_get time of each set-up."""
    times, catalog_s = [], []
    for _ in range(SETUPS):
        probe = harness.Probe(tracing)
        before = probe.reference
        start = time.perf_counter()
        lib = import_nsqs()
        ops = build(lib, probe, seed, size)
        seconds = time.perf_counter() - start - probe.sampling
        after = harness.reference_time()
        times.append(seconds * harness.REFERENCE_S * 2 / (before + after))
        catalog_s.append(
            sum(s.end - s.start for s in probe.spans or [] if s.name == "catalog.catalog_get")
        )
    return ops, times, catalog_s


def git_sha() -> str | None:
    """HEAD's commit, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "nsqs").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    tracing = bool(args.trace)

    try:
        ops, setup_s, catalog_s = set_up(
            workloads.WORKLOADS[args.workload], args.seed, "full", tracing
        )
    except LibraryMissing as exc:
        print(f"error: cannot import nsqs from {SRC}: {exc}", file=sys.stderr)
        return 2

    try:
        passes = harness.measure(ops, args.seconds, tracing)
    except harness.Incorrect as exc:
        print(f"INCORRECT: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": len(ops), "failed": 0, "metrics": {}}))
        return 1

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    e2e = harness.end_to_end(passes, setup_s, peak_rss_mb)
    layers = harness.per_layer(passes, catalog_s) if tracing else {}
    plain = [p for p in passes if not p.traced]
    env = {
        "git": git_sha(),
        "src_sha256": src_sha256(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setups": SETUPS,
        "passes": len(plain),
        "traced_passes": len(passes) - len(plain),
    }
    ops_report = [
        {
            "name": op.name,
            "median_s": statistics.median(p.seconds[i] for p in plain),
            "error": plain[0].errors[i],
            "work": repr(plain[0].tallies[i].work),
        }
        for i, op in enumerate(ops)
    ]
    attempted = sum(len(p.tallies) for p in passes)
    failed = sum(t.failed for p in passes for t in p.tallies)

    print("env " + json.dumps(env))
    for op in ops_report:
        status = f"raised {op['error']}" if op["error"] else "ok"
        print(f"op {op['name']}: {op['median_s']:.4f} s median, {status}")
    for name, (value, unit) in {**e2e, **layers}.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(f"fail_frac = {failed / attempted:.6g} ({failed} of {attempted} ops); "
          f"timings are medians of {len(plain)} passes and {SETUPS} set-ups")
    print(f"unscaled: wall {statistics.median(p.wall for p in plain):.4f} s median, "
          f"with the reference loop at {1e3 * harness.REFERENCE_S:g} ms it is "
          f"{e2e['wall_s'][0]:.4f} s")

    OUT.mkdir(exist_ok=True)
    record = {
        "env": env,
        "end_to_end": e2e,
        "per_layer": layers,
        "ops": ops_report,
        "passes": [{"traced": p.traced, "wall_s": p.wall, "scaled_wall_s": p.scaled_wall}
                   for p in passes],
        "spans": [[dataclasses.asdict(s) for s in p.spans] for p in passes if p.traced],
    }
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in (layers if tracing else e2e).items()}
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
