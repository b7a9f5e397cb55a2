"""Command-line surface: subcommands, exit codes, JSON output."""

import hashlib
import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from nsqs import (
    alternative_splits,
    block_points,
    boolean_blocks,
    catalog_get,
    parse_design,
    rotational_spec,
    serialize_base_spec,
    serialize_design,
)
from nsqs import constructions
from nsqs.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def sqs10_file(tmp_path):
    path = tmp_path / "sqs10.nsqs"
    path.write_text(serialize_design(catalog_get("sqs10").design()))
    return str(path)


def test_expand_classify_pipe_equivalent(capsys, tmp_path):
    code, out, _ = run(capsys, "expand", "--catalog", "ro20")
    assert code == 0
    path = tmp_path / "ro20.nsqs"
    path.write_text(out)
    code, out, _ = run(capsys, "classify", str(path))
    assert code == 0
    assert out.splitlines()[0] == "complete-uniform M=190 mu=3"


def test_expand_unknown_catalog_is_usage_error(capsys):
    code, _, err = run(capsys, "expand", "--catalog", "nosuch")
    assert code == 2
    assert "available" in err


def test_verify_pass(capsys, sqs10_file):
    code, out, _ = run(capsys, "verify", sqs10_file)
    assert code == 0
    assert out.strip() == "ok v=10 blocks=30"


def test_verify_truncated_file(capsys, sqs10_file, tmp_path):
    lines = open(sqs10_file).read().splitlines()
    truncated = tmp_path / "trunc.nsqs"
    truncated.write_text("\n".join(lines[:-5]) + "\n")
    code, out, _ = run(capsys, "verify", str(truncated))
    assert code == 1
    assert "FAIL triple" in out


def test_census_json(capsys, sqs10_file):
    code, out, _ = run(capsys, "census", sqs10_file, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "v": 10,
        "nd_pairs": 30,
        "min_mult": 2,
        "max_mult": 2,
        "total": 60,
        "histogram": {"2": 30},
    }


def test_classify_json(capsys, sqs10_file):
    code, out, _ = run(capsys, "classify", sqs10_file, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "uniform"
    assert payload["nd_pairs"] == 30
    assert payload["mu_min"] == payload["mu_max"] == 2


def test_bounds_json(capsys):
    code, out, _ = run(capsys, "bounds", "--v", "10", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["min_nd_pairs"] == 25
    assert payload["max_mult"] == 4


def test_bounds_inadmissible_order(capsys):
    code, _, err = run(capsys, "bounds", "--v", "12")
    assert code == 2
    assert "error" in err


def test_table_json_matches_survey_slice(capsys):
    code, out, _ = run(capsys, "table", "--min", "8", "--max", "16", "--json")
    assert code == 0
    rows = json.loads(out)
    assert [r["v"] for r in rows] == [8, 10, 14, 16]
    v10 = rows[1]
    assert [(c["nd_pairs"], c["mu"]) for c in v10["candidates"]] == [(30, 2)]
    assert {e["nd_pairs"] for e in v10["exclusions"]} == {20, 45}


def test_construct_boolean_pipe(capsys, tmp_path):
    code, out, _ = run(capsys, "construct", "boolean", "--n", "4")
    assert code == 0
    path = tmp_path / "b16.nsqs"
    path.write_text(out)
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert "ok v=16 blocks=140" in out


def test_construct_boolean_needs_n(capsys):
    # one error line, worded like every other usage error
    code, out, err = run(capsys, "construct", "boolean")
    assert (code, out) == (2, "")
    assert err == "error: construct boolean needs --n\n"


@pytest.mark.parametrize("nest", ["none", "catalog", "search"])
@pytest.mark.parametrize("n", [-1, 0, 1])
def test_construct_boolean_rejects_small_n(capsys, nest, n):
    code, out, err = run(capsys, "construct", "boolean", "--n", str(n), "--nest", nest)
    assert (code, out) == (2, "")
    assert err == f"error: boolean system needs n >= 2, got {n}\n"


@pytest.mark.parametrize("nest", ["none", "catalog", "search"])
def test_construct_boolean_refuses_large_n(capsys, nest):
    # refused before anything of size 2^n is allocated
    code, out, err = run(capsys, "construct", "boolean", "--n", "40", "--nest", nest)
    assert (code, out) == (2, "")
    assert err == "error: boolean system needs n <= 8, got 40\n"


@pytest.mark.parametrize("nest", ["none", "catalog", "search"])
@pytest.mark.parametrize("n,poly", [(9, "0x211"), (40, "0x10000000003")])
def test_construct_boolean_refuses_large_n_with_poly(capsys, nest, n, poly):
    # a --poly of degree n gets an odd n past the default polynomials to
    # the orbit search; it is refused before any field table or block
    code, out, err = run(
        capsys, "construct", "boolean", "--n", str(n), "--poly", poly, "--nest", nest
    )
    assert (code, out) == (2, "")
    assert err == f"error: boolean system needs n <= 8, got {n}\n"


@pytest.mark.parametrize("nest", ["none", "catalog", "search"])
def test_construct_boolean_rejects_non_primitive_poly(capsys, nest):
    # x^3 + x^2 + x + 1 = (x + 1)^3
    code, out, err = run(
        capsys, "construct", "boolean", "--n", "3", "--poly", "0b1111", "--nest", nest
    )
    assert (code, out) == (2, "")
    assert err == "error: modulus 0b1111 is not primitive for n=3\n"


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_construct_boolean_none_is_catalog(capsys, n):
    _, none, _ = run(capsys, "construct", "boolean", "--n", str(n), "--nest", "none")
    _, default, _ = run(capsys, "construct", "boolean", "--n", str(n))
    assert none == default


# sha256 of the witness of the flat block search, which n < 5 still take
BOOLEAN_FLAT_SEARCH_SHA256 = {
    2: "e2b777186ca6f62d77ad646fcc1e01c8bc9fdbb9d3ea71a9f171092518c52b4b",
    3: "6fa7f5c2c593fe6a996aff212225a847d91a439f6b0a1b7d942d01b0a7c10f65",
}


@pytest.mark.parametrize("n", [2, 3])
def test_construct_boolean_flat_search_pinned(capsys, n):
    code, out, _ = run(
        capsys, "construct", "boolean", "--n", str(n), "--nest", "search"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == BOOLEAN_FLAT_SEARCH_SHA256[n]


@pytest.mark.parametrize(
    "n,first_line",
    [(5, "complete-uniform M=496 mu=5"), (7, "complete-uniform M=8128 mu=21")],
)
def test_construct_boolean_orbit_search(capsys, tmp_path, n, first_line):
    code, out, _ = run(
        capsys, "construct", "boolean", "--n", str(n), "--nest", "search"
    )
    assert code == 0
    path = tmp_path / "witness.nsqs"
    path.write_text(out)
    assert run(capsys, "verify", str(path))[:2] == (
        0, f"ok v={1 << n} blocks={len(boolean_blocks(n))}\n"
    )
    code, text, _ = run(capsys, "classify", str(path))
    assert code == 0
    assert text.splitlines()[0] == first_line
    # the same block set over the same GF(2)^n labels as --nest none
    _, flat, _ = run(capsys, "construct", "boolean", "--n", str(n), "--nest", "none")
    witness, plain = parse_design(out), parse_design(flat)
    assert not witness.uses_infinity
    assert {block_points(b) for b in witness.blocks} == {
        block_points(b) for b in plain.blocks
    }


def test_construct_doubling_a(capsys, tmp_path):
    d8 = tmp_path / "d8.nsqs"
    d8.write_text(serialize_design(catalog_get("sqs8uniform").design()))
    code, out, _ = run(capsys, "construct", "doubling-a", "--input", str(d8))
    assert code == 0
    path = tmp_path / "d16.nsqs"
    path.write_text(out)
    code, out, _ = run(capsys, "classify", str(path))
    assert code == 0
    assert out.splitlines()[0] == "minimum-uniform M=56 mu=5"


def test_construct_doubling_b_precondition(capsys, sqs10_file):
    code, _, err = run(capsys, "construct", "doubling-b", "--input", sqs10_file)
    assert code == 2
    assert "ND-pair" in err


def test_search_refused(capsys, sqs10_file):
    code, _, err = run(
        capsys, "search", sqs10_file, "--target", "uniform", "--mu", "3"
    )
    assert code == 1
    assert "refused" in err
    assert "v^2/4" in err


def test_search_found_writes_design(capsys, sqs10_file, tmp_path):
    code, out, err = run(
        capsys, "search", sqs10_file, "--target", "uniform", "--mu", "2"
    )
    assert code == 0
    assert "status=found" in err
    path = tmp_path / "found.nsqs"
    path.write_text(out)
    code, out, _ = run(capsys, "classify", str(path))
    assert out.splitlines()[0] == "uniform M=30 mu=2"


def test_search_flat_design_has_no_depth_limit(capsys, tmp_path):
    path = tmp_path / "ro38.nsqs"
    path.write_text(serialize_design(catalog_get("ro38").design()))
    code, out, err = run(
        capsys, "search", str(path), "--target", "complete-uniform",
        "--budget", "3000",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("status=budget-exceeded nodes=3000 ")
    assert "Traceback" not in err


def test_search_rotational_base_file(capsys, tmp_path):
    spec = catalog_get("ro20").payload
    from nsqs import alternative_splits, block_points, rotational_spec

    stripped = rotational_spec(
        spec.p,
        [alternative_splits(block_points(b))[0] for b in spec.base_blocks],
        spec.multipliers,
    )
    base = tmp_path / "ro20.base"
    base.write_text(serialize_base_spec(stripped))
    code, out, err = run(
        capsys, "search", str(base), "--target", "complete-uniform"
    )
    assert code == 0
    assert out.startswith("nsqs-base p=19")
    found = tmp_path / "found.base"
    found.write_text(out)
    code, out, _ = run(capsys, "expand", "--base", str(found))
    assert code == 0
    assert out.startswith("nsqs v=20 blocks=285")


@pytest.mark.parametrize("indent", [" ", "  \t"])
def test_search_dispatches_on_the_stripped_header(capsys, tmp_path, indent):
    # the parsers strip the header line, so an indented header picks the
    # same search as it picks the same parser in expand --base
    spec = catalog_get("ro20").payload
    stripped = rotational_spec(
        spec.p,
        [alternative_splits(block_points(b))[0] for b in spec.base_blocks],
        spec.multipliers,
    )
    base = tmp_path / "ro20.base"
    base.write_text(indent + serialize_base_spec(stripped))
    code, out, err = run(capsys, "expand", "--base", str(base))
    assert code == 0
    code, out, err = run(capsys, "search", str(base), "--target", "complete-uniform")
    assert code == 0
    assert err.startswith("status=found ")
    assert out.startswith("nsqs-base p=19")
    design = tmp_path / "sqs10.nsqs"
    design.write_text(indent + serialize_design(catalog_get("sqs10").design()))
    code, out, err = run(capsys, "search", str(design), "--target", "uniform", "--mu", "2")
    assert code == 0
    assert err.startswith("status=found ")
    assert out.startswith("nsqs v=10 blocks=30")


def test_search_refuses_a_base_file_with_a_repeated_orbit(capsys, tmp_path):
    # stripped ro20 with a finite base block listed twice expands to ro20
    # itself, but its orbits number 16 where an SQS(20) has 15
    spec = catalog_get("ro20").payload
    blocks = [alternative_splits(block_points(b))[0] for b in spec.base_blocks]
    repeated = rotational_spec(spec.p, blocks + [blocks[3]], spec.multipliers)
    base = tmp_path / "ro20-repeated.base"
    base.write_text(serialize_base_spec(repeated))
    code, out, err = run(capsys, "search", str(base), "--target", "complete-uniform")
    assert (code, out) == (2, "")
    assert err == (
        "error: 16 base blocks have 304 images under 19 maps x -> m*x + s, "
        "expected 285\n"
    )


@pytest.mark.parametrize("blocks", ["", "inf 0 | 1 3\ninf 0 | 1 3\n"], ids=["empty", "twice"])
@pytest.mark.parametrize(
    "target",
    [["complete-uniform"], ["uniform", "--mu", "2"], ["minimum-uniform"]],
    ids=lambda target: target[0],
)
def test_search_refuses_a_non_sqs_base_file_for_every_target(
    capsys, tmp_path, blocks, target
):
    # no blocks, or one orbit listed twice: 0 or 7 distinct blocks where
    # an SQS(8) has 14, an input error before the target is read
    base = tmp_path / "p7.base"
    base.write_text("nsqs-base p=7 multipliers=1\n" + blocks)
    code, out, err = run(capsys, "search", str(base), "--target", *target)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def _base_file_text(name):
    """A base file that is not an SQS: ro20 with an orbit repeated or
    dropped, p=7 with no block or one orbit listed twice, p=55 under a
    multiplier that is not a unit with as many blocks as an SQS(56)
    needs, or a huge p with one block."""
    spec = catalog_get("ro20").payload
    blocks = list(spec.base_blocks)
    if name == "ro20-repeated":
        return serialize_base_spec(rotational_spec(spec.p, blocks + blocks[3:4], spec.multipliers))
    if name == "ro20-dropped":
        return serialize_base_spec(rotational_spec(spec.p, blocks[:-1], spec.multipliers))
    if name == "p7-empty":
        return "nsqs-base p=7 multipliers=1\n"
    if name == "p7-twice":
        return "nsqs-base p=7 multipliers=1\ninf 0 | 1 3\ninf 0 | 1 3\n"
    if name == "p55-non-unit":
        return "nsqs-base p=55 multipliers=1,11\n" + "0 11 | 5 inf\n" * 63
    return "nsqs-base p=1000000007 multipliers=1\n0 1 | 2 3\n"


# the one refusal of each base file: by its multipliers or by image
# count before any image is built, or by the witness triple of the
# Steiner check
BASE_FILE_REFUSALS = {
    "ro20-repeated": "16 base blocks have 304 images under 19 maps x -> m*x + s, expected 285",
    "ro20-dropped": "14 base blocks have 266 images under 19 maps x -> m*x + s, expected 285",
    "p7-empty": "0 base blocks have 0 images under 7 maps x -> m*x + s, expected 14",
    "p7-twice": "expansion is not a quadruple system; witness triple (0, 1, 3) covered 2 times",
    "p55-non-unit": "multiplier 11 not a unit mod 55",
    "huge-p": (
        "1 base blocks have 1000000007 images under 1000000007 maps x -> m*x + s, "
        "expected 41666667541666672750000014"
    ),
}


@pytest.mark.parametrize("name", sorted(BASE_FILE_REFUSALS))
def test_expand_and_search_refuse_a_base_file_alike(capsys, tmp_path, monkeypatch, name):
    base = tmp_path / f"{name}.base"
    base.write_text(_base_file_text(name))
    rows = []
    image_rows = constructions._image_rows

    def spy(spec):
        rows.append(spec.p)
        return image_rows(spec)

    monkeypatch.setattr(constructions, "_image_rows", spy)
    expand = run(capsys, "expand", "--base", str(base))
    searched = run(capsys, "search", str(base), "--target", "complete-uniform")
    assert expand == searched == (2, "", f"error: {BASE_FILE_REFUSALS[name]}\n")
    if "images under" in BASE_FILE_REFUSALS[name] or "multiplier" in BASE_FILE_REFUSALS[name]:
        assert rows == []


def test_cosets(capsys):
    code, out, _ = run(capsys, "cosets", "--mod", "7")
    assert code == 0
    assert out == "{1, 2, 4}\n{3, 6, 5}\n"


def test_cosets_refuses_huge_modulus(capsys):
    code, out, err = run(capsys, "cosets", "--mod", "1000000000000000001")
    assert (code, out) == (2, "")
    assert err == "error: need a modulus <= 1048576, got 1000000000000000001\n"


@pytest.mark.parametrize(
    "lo,hi,error",
    [
        ("1000000000000000000", "1000000000000000010",
         "need orders <= 1000000, got 1000000000000000010"),
        ("8", "100000000", "need orders <= 1000000, got 100000000"),
        ("990000", "1000000", "need at most 10000 orders, got 10001"),
        ("-1000000000000000000", "64", "need at most 10000 orders, got 1000000000000000065"),
    ],
)
def test_table_refuses_unbounded_work(capsys, lo, hi, error):
    # trial division to sqrt(v) per row and one held row per order: a
    # request past either bound is one error line, before any row is made
    start = time.perf_counter()
    for extra in ((), ("--json",)):
        code, out, err = run(capsys, "table", "--min", lo, "--max", hi, *extra)
        assert (code, out, err) == (2, "", f"error: {error}\n")
    assert time.perf_counter() - start < 1


# sha256 of the table's stdout, as printed before its work was bounded
TABLE_DIGESTS = {
    ("19990", "20000"): "dfdc0c9776233513dd24e97f44977d68ee6dfcd315021023802e39629d56d9e7",
    ("8", "130", "--json"): "d0f7f669ca1685d1847b21a9ae338523a50e8df58ad7aebe957e906e6c6709c5",
    ("8", "64"): "d916f8c29fe0e41c837e7953fffd4d3031ab30f3e743181298324496acac087e",
    ("8", "64", "--json"): "2c29e3fae2599940b0ec0cbe45b4811e7fb2858f544c47ce0637243bdb073b24",
    ("500", "630"): "17310eee83bee32063dc79cf0ad07f99f97081e58408bd1bb3a8c22bbe86e098",
    ("500", "630", "--json"): "0bae4738cebc9a7edbd133ad9520c499bb48f3b09a3448058e26a6ed14bbd16c",
}


@pytest.mark.parametrize("request_", sorted(TABLE_DIGESTS), ids="-".join)
def test_table_within_its_bounds_is_unchanged(capsys, request_):
    lo, hi, *extra = request_
    code, out, err = run(capsys, "table", "--min", lo, "--max", hi, *extra)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_DIGESTS[request_]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_stdin_default(capsys, monkeypatch):
    import io

    text = serialize_design(catalog_get("sqs10").design())
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, _ = run(capsys, "classify")
    assert code == 0
    assert out.splitlines()[0] == "uniform M=30 mu=2"


def _assert_usage_error(code, out, err):
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_verify_directory_is_usage_error(capsys, tmp_path):
    _assert_usage_error(*run(capsys, "verify", str(tmp_path)))


def test_non_utf8_file_is_usage_error(capsys, tmp_path):
    path = tmp_path / "latin1.nsqs"
    path.write_bytes(b"nsqs v=8 blocks=0\n# note=caf\xe9\n")
    code, out, err = run(capsys, "verify", str(path))
    _assert_usage_error(code, out, err)
    assert "UTF-8" in err


def test_non_utf8_stdin_is_usage_error(capsys, monkeypatch):
    import io

    stdin = io.TextIOWrapper(io.BytesIO(b"nsqs v=8 \xff"), encoding="utf-8")
    monkeypatch.setattr("sys.stdin", stdin)
    _assert_usage_error(*run(capsys, "census"))


@pytest.mark.parametrize("command", ["census", "classify"])
@pytest.mark.parametrize("v", [0, 3])
def test_blockless_design_is_usage_error(capsys, tmp_path, command, v):
    path = tmp_path / "empty.nsqs"
    path.write_text(f"nsqs v={v} blocks=0\n")
    code, out, err = run(capsys, command, str(path))
    _assert_usage_error(code, out, err)
    assert "no blocks" in err


@pytest.mark.parametrize("mu", ["0", "-2"])
def test_search_nonpositive_mu_is_usage_error(capsys, sqs10_file, mu):
    code, out, err = run(
        capsys, "search", sqs10_file, "--target", "uniform", "--mu", mu
    )
    _assert_usage_error(code, out, err)
    assert "mu >= 1" in err


@pytest.mark.parametrize(
    "target,mu", [("quasi-uniform", ["--mu", "2"]), ("complete-uniform", []),
                  ("minimum-uniform", [])]
)
def test_search_nd_pairs_off_uniform_is_usage_error(capsys, sqs10_file, target, mu):
    code, out, err = run(
        capsys, "search", sqs10_file, "--target", target, *mu, "--nd-pairs", "30"
    )
    _assert_usage_error(code, out, err)
    assert "--nd-pairs applies to --target uniform only" in err


def test_search_negative_budget_is_usage_error(capsys, sqs10_file):
    code, out, err = run(
        capsys, "search", sqs10_file, "--target", "uniform", "--mu", "2", "--budget", "-1"
    )
    _assert_usage_error(code, out, err)
    assert err == "error: node budget must be >= 0, got -1\n"


def test_search_blockless_design_is_usage_error(capsys, tmp_path):
    path = tmp_path / "empty.nsqs"
    path.write_text("nsqs v=8 blocks=0\n")
    code, out, err = run(capsys, "search", str(path), "--target", "uniform", "--mu", "2")
    _assert_usage_error(code, out, err)
    assert "block list is empty" in err


@pytest.mark.parametrize("command", ["census", "classify"])
def test_non_steiner_input_warns(capsys, tmp_path, command):
    path = tmp_path / "one-block.nsqs"
    path.write_text("nsqs v=8 blocks=1\n0 1 | 2 3\n")
    code, out, err = run(capsys, command, str(path))
    assert code == 0
    if command == "classify":
        assert out == "uniform M=2 mu=1\n"
    assert err == (
        "warning: input is not a Steiner quadruple system "
        "(52 bad triples; 1 blocks, expected 14)\n"
    )


@pytest.mark.parametrize("command", ["census", "classify"])
def test_steiner_input_does_not_warn(capsys, monkeypatch, command):
    import io

    code, text, _ = run(capsys, "expand", "--catalog", "ro62")
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, command)
    assert code == 0
    assert err == ""
    if command == "classify":
        assert out == "complete-uniform M=1891 mu=10\n"


# ---------------------------------------------------------------------------
# a header's v is untrusted input

HUGE_V = "nsqs v=99999999999 blocks={n}\n"


@pytest.mark.parametrize(
    "body, witness",
    [("", "(0, 1, 2)"), ("0 1 | 2 3\n", "(0, 1, 4)")],
)
def test_verify_huge_v_reports_first_missing_triple(capsys, tmp_path, body, witness):
    path = tmp_path / "huge.nsqs"
    path.write_text(HUGE_V.format(n=body.count("\n")) + body)
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1
    assert out.splitlines()[0] == f"FAIL triple {witness} covered 0 times (expected 1)"
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, first_line",
    [
        ("census", "v=99999999999 nd_pairs=2 min=1 max=1 total=2"),
        ("classify", "uniform M=2 mu=1"),
    ],
)
def test_census_and_classify_of_huge_v_warn(capsys, tmp_path, command, first_line):
    path = tmp_path / "huge.nsqs"
    path.write_text(HUGE_V.format(n=1) + "0 1 | 2 3\n")
    code, out, err = run(capsys, command, str(path))
    assert code == 0
    assert out.splitlines()[0] == first_line
    assert err.startswith("warning: input is not a Steiner quadruple system (")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_expand_huge_base_header_refused_by_count(capsys, tmp_path, monkeypatch):
    # the shifts of one base block take memory linear in p, so a huge p
    # is refused by its image count before any row of shifts is built
    path = tmp_path / "huge.nsqs"
    path.write_text(_base_file_text("huge-p"))
    monkeypatch.setattr(constructions, "_image_rows", lambda spec: pytest.fail("expanded"))
    code, out, err = run(capsys, "expand", "--base", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: 1 base blocks have 1000000007 images")
    assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# fuzz: any file gives exit 0, 1 or 2, and no exception escapes main

_FUZZ_TOKENS = st.one_of(
    st.integers(0, 40).map(str),
    st.sampled_from(
        ["inf", "x", "-1", "+5", "007", "1_0", "٣", "７", "", "|", "#", "1e3",
         "99999999999999"]
    ),
)
_FUZZ_BLOCK_LINES = st.builds(
    "{} {} | {} {}".format, _FUZZ_TOKENS, _FUZZ_TOKENS, _FUZZ_TOKENS, _FUZZ_TOKENS
)
_FUZZ_LINES = st.one_of(
    st.sampled_from(["", "  ", "# infinity=1", "0 1 | 2 3", "4 5 | 6 7", "inf 1 | 2 3"]),
    _FUZZ_BLOCK_LINES,
    st.sampled_from(["# note", "0 1 2 3", "inf inf | 1 2"]),
    st.text(max_size=12),
)
_FUZZ_SEPARATORS = st.sampled_from(["\n", "\r\n", "\r", "\x0c", "\x1c", "\u2028", "\x85"])
_FUZZ_HEADERS = st.one_of(
    st.builds(
        "nsqs v={} blocks={}".format,
        st.one_of(
            st.sampled_from([0, 4, 8, 10, 2**16, 2**16 + 1, 3 * 10**9, 10**12]),
            st.integers(0, 10**12),
        ),
        st.integers(0, 12),
    ),
    # expansion costs grow linearly with p, so base headers reach a few
    # thousand; the small p stay likely, since their points are in range
    st.builds(
        "nsqs-base p={} multipliers={}".format,
        st.one_of(st.integers(0, 40), st.integers(0, 5000)),
        st.sampled_from(["1", "1,2", "1,3,9", "0"]),
    ),
    st.text(max_size=24),
)


@st.composite
def _fuzz_files(draw):
    sep = draw(_FUZZ_SEPARATORS)
    lines = [draw(_FUZZ_HEADERS)] + draw(st.lists(_FUZZ_LINES, max_size=10))
    data = (sep.join(lines) + draw(st.sampled_from(["", sep]))).encode()
    if draw(st.booleans()):
        data += draw(st.binary(max_size=24))
    return data


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=_fuzz_files())
def test_cli_fuzz_exits_cleanly(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "input.nsqs"
    path.write_bytes(data)
    for argv in (
        ["verify", str(path)],
        ["census", str(path)],
        ["classify", str(path)],
        ["expand", "--base", str(path)],
    ):
        code, _, err = _run_quietly(argv)
        assert code in (0, 1, 2), (argv[0], data)
        assert "Traceback" not in err
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, (argv[0], err)


_SEARCH_TARGETS = (
    ["--target", "uniform", "--mu", "2"],
    ["--target", "complete-uniform"],
    ["--target", "minimum-uniform"],
    ["--target", "quasi-uniform", "--mu", "1"],
)
# small inputs that the search accepts, so that edits of them reach it
_SEARCH_SEEDS = (
    serialize_design(catalog_get("sqs8uniform").design()),
    serialize_design(catalog_get("sqs10").design()),
    serialize_base_spec(catalog_get("ro20").payload),
)


@st.composite
def _search_files(draw):
    """A fuzz file, or a small design or base spec with a few of its
    block lines resplit (it stays an SQS), dropped or replaced."""
    if draw(st.booleans()):
        return draw(_fuzz_files())
    lines = draw(st.sampled_from(_SEARCH_SEEDS)).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(1, len(lines) - 1))
        edit = draw(st.sampled_from(["resplit", "resplit", "drop", "replace"]))
        words = lines[k].split()
        if edit == "resplit" and len(words) == 5:
            a, b, _, c, d = words
            lines[k] = draw(st.sampled_from([f"{a} {c} | {b} {d}", f"{a} {d} | {b} {c}"]))
        elif edit == "drop" and len(lines) > 2:
            del lines[k]
        else:
            lines[k] = draw(_FUZZ_LINES)
    return ("\n".join(lines) + "\n").encode()


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=_search_files())
def test_cli_search_fuzz_exits_cleanly(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "input.nsqs"
    path.write_bytes(data)
    # a base file that does not expand to an SQS is refused for every
    # target: the orbit search certifies the spec before the target
    lines = data.decode("utf-8", "replace").splitlines()
    not_sqs = bool(lines) and lines[0].strip().startswith("nsqs-base") and (
        _run_quietly(["expand", "--base", str(path)])[0] == 2
    )
    for target in _SEARCH_TARGETS:
        argv = ["search", str(path), *target, "--budget", "50"]
        code, _, err = _run_quietly(argv)
        assert code in (0, 1, 2), (target, data)
        assert "Traceback" not in err
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, (target, err)
        if not_sqs:
            assert code == 2, (target, data, err)
