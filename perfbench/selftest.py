"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload at reduced size (one plain and one traced pass) and
requires all checks to pass, the known ro38 RecursionError to be counted
as a failed op, and every metric named in BENCHMARK.json to be reported.
Then it corrupts results one at a time and requires the matching check
to fire, and requires the reference loop to stay outside op times.
Exits 0 when every assertion holds.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import harness
import run
import workloads
from harness import Incorrect, Op, Probe, Tally


def small_ops(name: str):
    lib = run.import_nsqs()
    return lib, workloads.WORKLOADS[name](lib, Probe(), seed=1, size="small")


def value_of(ops: list[Op], name: str):
    """Run ops up to the named one in a single pass and return its result."""
    upto = next(i for i, op in enumerate(ops) if op.name.startswith(name))
    *_, record = harness.run_pass(ops[: upto + 1], Probe())
    assert record.error is None, f"{name} raised {record.error}"
    return record.op, record.value


def must_fire(op: Op, value, what: str) -> None:
    try:
        op.check(value)
    except Incorrect as exc:
        print(f"ok   {what}: {exc}")
        return
    raise AssertionError(f"check did not fire: {what}")


def resplit(lib, design, index: int = 0):
    """The design with block ``index`` split differently."""
    block = design.blocks[index]
    other = next(s for s in lib.alternative_splits(block[0] + block[1]) if s != block)
    return lib.repartition(design, index, other)


def test_workloads_pass() -> None:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == [n for n, _ in harness.END_TO_END]
    assert [m["name"] for m in bench["per_layer"]] == [n for n, _ in harness.PER_LAYER]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        _, ops = small_ops(name)
        passes = harness.measure(ops, seconds=0, trace=True)
        assert [p.traced for p in passes] == [False, True]
        e2e = harness.end_to_end(passes, [1.0], 1.0)
        layers = harness.per_layer(passes, [0.0])
        assert e2e["solved_frac"][0] > 0
        errors = {ops[i].name: e for i, e in enumerate(passes[0].errors) if e}
        if name == "search-blocks":
            assert errors == {"search_nesting ro38 complete-uniform": "RecursionError"}, errors
            assert layers["search.search_nesting.errors"][0] == 1
            assert e2e["ok_frac"][0] < 1
        else:
            assert not errors and e2e["ok_frac"][0] == 1, errors
        print(f"ok   {name}: {len(ops)} ops, checks pass, known failures {errors or 'none'}")


def test_construct_verify_checks() -> None:
    lib, ops = small_ops("construct-verify")
    op, value = value_of(ops, "roundtrip ro20.a")
    design, text, parsed, renested, report, census, cls = value
    lines = text.splitlines()
    lines[1] = lines[2]
    must_fire(op, (design, "\n".join(lines) + "\n", *value[2:]), "serialization digest")
    wrong = resplit(lib, design)
    must_fire(op, (design, text, wrong, *value[3:]), "parse round trip")
    must_fire(op, (design, text, parsed, wrong, *value[4:]), "re-canonicalized design")
    bad = dataclasses.replace(report, ok=False)
    must_fire(op, (*value[:4], bad, census, cls), "verify_steiner verdict")
    must_fire(op, (*value[:6], dataclasses.replace(cls, kind="uniform")), "classify kind")
    must_fire(op, (*value[:6], dataclasses.replace(cls, mu_max=cls.mu_max + 1)),
              "classify multiplicities")

    op, rows = value_of(ops, "feasibility_table 8..64")
    must_fire(op, rows[:-1], "feasibility table digest")
    op, (code, out) = value_of(ops, "cli classify")
    must_fire(op, (code, out.replace("mu=", "mu=1")), "cli classify output")


def test_search_orbit_checks() -> None:
    lib, ops = small_ops("search-orbit")
    op, calls = value_of(ops, "search_rotational ro20")
    budget, out = calls[0]
    witness = out.witness
    block = witness.base_blocks[1]
    other = next(s for s in lib.alternative_splits(block[0] + block[1]) if s != block)
    blocks = list(witness.base_blocks)
    blocks[1] = other
    wrong = dataclasses.replace(witness, base_blocks=tuple(blocks))
    must_fire(op, [(budget, dataclasses.replace(out, witness=wrong))] + calls[1:],
              "rotational witness re-split")
    blocks = list(witness.base_blocks)
    blocks[0] = blocks[1]
    must_fire(op, [(budget, dataclasses.replace(out, witness=dataclasses.replace(
        witness, base_blocks=tuple(blocks))))] + calls[1:], "rotational witness block set")
    must_fire(op, [(budget, dataclasses.replace(out, status="budget-exceeded"))] + calls[1:],
              "budget-exceeded before the budget")


def test_search_blocks_checks() -> None:
    lib, ops = small_ops("search-blocks")
    op, calls = value_of(ops, "search_nesting sqs10 uniform(2)")
    budget, out = calls[0]
    wrong = resplit(lib, out.witness)
    must_fire(op, [(budget, dataclasses.replace(out, witness=wrong))] + calls[1:],
              "search_nesting witness")
    op, calls = value_of(ops, "search_nesting sqs10 uniform(3)")
    budget, out = calls[0]
    must_fire(op, [(budget, dataclasses.replace(out, status="found"))], "refusal")
    op, out = value_of(ops, "local_balance")
    wrong = lib.nested_design(out.witness.v, out.witness.blocks[1:])
    must_fire(op, dataclasses.replace(out, witness=wrong), "local_balance witness")


def test_work_must_repeat() -> None:
    calls = iter(range(10))
    flaky = Op("flaky", lambda probe, state: next(calls), lambda n: Tally((n,)))
    try:
        harness.measure([flaky], seconds=0, trace=False)
    except Incorrect as exc:
        print(f"ok   work counts compared between passes: {exc}")
        return
    raise AssertionError("differing work counts were not caught")


def test_reference_loop_not_timed() -> None:
    def run_op(probe, state):
        for _ in range(10):
            probe.call("noop", lambda: None)

    [record] = harness.run_pass([Op("noop", run_op, lambda value: Tally())], Probe())
    assert record.seconds < harness.REFERENCE_S, record.seconds
    print(f"ok   reference loop runs are not timed: 10 calls in {record.seconds:.2e} s")


def main() -> int:
    test_workloads_pass()
    test_construct_verify_checks()
    test_search_orbit_checks()
    test_search_blocks_checks()
    test_work_must_repeat()
    test_reference_loop_not_timed()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
