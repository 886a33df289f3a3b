"""Command-line interface: output formats, exit codes and round trips."""

import contextlib
import io
import json
import os
import subprocess
import sys
import textwrap
import time

import pytest
from hypothesis import given, settings, strategies as st

import nilclose
from nilclose import oracle, witness
from nilclose.cli import _emit, main
from nilclose.criterion import ENUMERATION_LIMIT
from nilclose.field import PRIMALITY_LIMIT, rationals
from nilclose.matrices import ExactMatrix, matrix_from_json, matrix_to_json
from nilclose.witness import WITNESS_DIMENSION_LIMIT


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_criterion_human(capsys):
    code, out, _ = run(capsys, "criterion", "--n", "6", "--char", "0",
                       "--q", "2,3,5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "reject"
    assert "m0=4 (half_n): missing_prefix, offending size 4" in lines[1]
    code, out, _ = run(capsys, "criterion", "--n", "6", "--char", "3",
                       "--q", "2,3,5")
    assert code == 0
    assert out.strip() == "accept (m0=3, char_power)"


def test_criterion_json(capsys):
    code, out, _ = run(capsys, "criterion", "--n", "4", "--char", "0",
                       "--q", "2,3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data == {"verdict": "accept", "m0": 3, "branch": "half_n"}


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "4", "--char", "2")
    assert code == 0
    assert out.splitlines() == ["-", "2", "2,3", "2,3,4", "2,4"]


def test_witness_json_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "witness", "--n", "4", "--char", "0",
                       "--q", "2,4", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["construction"] == "neighbor"
    # the emitted matrices feed back into partition and member
    for key, expected_member in (("x", "true"), ("y", "true")):
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(record[key]))
        code, out, _ = run(capsys, "member", "--input", str(path),
                           "--q", "2,4")
        assert code == 0 and out.strip() == expected_member
    x = matrix_from_json(record["x"])
    y = matrix_from_json(record["y"])
    spec = x.spec
    combo = x.scale(spec.parse_scalar(record["a"])) \
        + y.scale(spec.parse_scalar(record["b"]))
    path = tmp_path / "combo.json"
    from nilclose.matrices import matrix_to_json
    path.write_text(json.dumps(matrix_to_json(combo)))
    code, out, _ = run(capsys, "partition", "--input", str(path))
    assert code == 0
    assert out.strip() == "[" + ",".join(
        str(p) for p in record["combo_partition"]) + "]"


def test_witness_accept(capsys):
    code, out, _ = run(capsys, "witness", "--n", "4", "--char", "0",
                       "--q", "2,3")
    assert code == 0 and "accept" in out


def test_partition_golden(capsys, tmp_path):
    Q = rationals()
    x = ExactMatrix.jordan_cell(Q, Q.zero(), 7).power(3)
    path = tmp_path / "mat.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_json(x), fh)
    code, out, _ = run(capsys, "partition", "--input", str(path))
    assert code == 0 and out.strip() == "[3,2,2]"


def test_verify_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--n", "4", "--field", "GF(2)",
                       "--q", "2")
    assert code == 0 and "pass" in out
    code, out, _ = run(capsys, "verify", "--n", "4", "--field", "GF(3)",
                       "--q", "2")
    assert code == 2 and "violation" in out
    code, _, err = run(capsys, "verify", "--n", "4", "--field", "GF(3)",
                       "--q", "2", "--budget", "10")
    assert code == 3 and "BudgetExceeded" in err


def test_verify_default_run_writes_nothing_to_stderr(capsys):
    """Building closure tables logs debug lines, which stay silent."""
    oracle._closure_table.cache_clear()
    code, out, err = run(capsys, "verify", "--n", "4", "--field", "GF(3)",
                         "--q", "2,3", "--mode", "exhaustive")
    assert code == 0 and out and err == ""


def test_verify_sampled_json(capsys):
    code, out, _ = run(capsys, "verify", "--n", "4", "--field", "GF(3)",
                       "--q", "2,3", "--mode", "sampled", "--samples", "20",
                       "--seed", "5", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["mode"] == "sampled" and data["seed"] == 5


def test_decompose(capsys, tmp_path):
    Q = rationals()
    x = ExactMatrix.from_ints(Q, [[1, 1], [0, 1]])
    path = tmp_path / "mat.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_json(x), fh)
    code, out, _ = run(capsys, "decompose", "--input", str(path), "--json")
    assert code == 0
    data = json.loads(out)
    assert matrix_from_json(data["semisimple"]) == ExactMatrix.identity(Q, 2)
    assert matrix_from_json(data["nilpotent"]) == \
        ExactMatrix.from_ints(Q, [[0, 1], [0, 0]])


def test_decompose_empty_matrix(capsys, tmp_path):
    """The 0 x 0 matrix decomposes into two empty matrices."""
    path = tmp_path / "empty.json"
    path.write_text('{"field": "Q", "n": 0, "rows": []}')
    code, out, err = run(capsys, "decompose", "--input", str(path), "--json")
    assert code == 0 and err == ""
    empty = {"field": "Q", "n": 0, "rows": []}
    assert json.loads(out) == {"semisimple": empty, "nilpotent": empty}


@pytest.mark.parametrize("budget", ["0", "-1"])
@pytest.mark.parametrize("argv", [
    ["verify", "--n", "4", "--field", "GF(2)", "--q", "2"],
    ["cross-validate", "--n", "3", "--char", "2"],
], ids=lambda argv: argv[0])
def test_budget_below_one_is_usage_error(capsys, argv, budget):
    """A span has at least one element, so a budget below 1 would skip
    every check; it is refused like any other bad argument."""
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--budget", budget])
    assert exc.value.code == 64
    last = capsys.readouterr().err.splitlines()[-1]
    assert last == (f"nilclose {argv[0]}: error: argument --budget: "
                    f"must be positive, got {budget}")


def test_cross_validate_cli(capsys):
    code, out, _ = run(capsys, "cross-validate", "--n", "4", "--char", "2",
                       "--degrees", "1", "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data["accepted"]) == 5 and data["witnesses"] == 3


@pytest.mark.parametrize("degrees", ["1", "2"])
def test_cross_validate_char_zero_is_domain_error(capsys, degrees):
    code, out, err = run(capsys, "cross-validate", "--n", "3", "--char", "0",
                         "--degrees", degrees)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("InfiniteField: ")


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["criterion", "--n", "4"])          # missing required flags
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["criterion", "--n", "4", "--char", "0", "--q", "2",
              "--frog"])                         # unknown flag is an error
    assert exc.value.code == 64


@pytest.mark.parametrize("argv, message", [
    (["verify", "--field", "GF(6)"], "characteristic 6 is not 0 or prime"),
    (["verify", "--field", "GF(x)"], "unparsable field 'GF(x)'"),
    (["verify", "--field", "GF(3)", "--mode", "sampled", "--samples", "-5"],
     "must be non-negative, got -5"),
])
def test_verify_bad_arguments_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv[:1] + ["--n", "4", "--q", "2"] + argv[1:])
    assert exc.value.code == 64
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith("nilclose verify: error:") and message in last


@pytest.mark.parametrize("degrees", ["x", "1,,2", "0"])
def test_cross_validate_bad_degrees_are_usage_errors(capsys, degrees):
    with pytest.raises(SystemExit) as exc:
        main(["cross-validate", "--n", "4", "--char", "2",
              "--degrees", degrees])
    assert exc.value.code == 64
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith("nilclose cross-validate: error: argument --degrees")


@pytest.mark.parametrize("text, message", [
    ('{"field": "Q", "n": 2, "rows": [["0", "1"], ["0"]]}',
     "row 2: expected 2 entries, found 1"),
    ("[[0, 1], [0, 0]", "not a JSON file"),
], ids=["short-row", "not-json"])
@pytest.mark.parametrize("command", [
    ["partition"], ["member", "--q", "2"], ["decompose"]], ids=lambda c: c[0])
def test_bad_matrix_files_are_domain_errors(capsys, tmp_path, command, text,
                                            message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run(capsys, command[0], "--input", str(path),
                         *command[1:])
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("MalformedMatrix: ") and message in err


@pytest.mark.parametrize("field, cell, message", [
    ("GF(2^2)", "x^10000000000",
     "unparsable GF(2^2;1+x+x^2) element 'x^10000000000'"),
    ("Q", "1e999999999", "unparsable rational '1e999999999'"),
], ids=["huge-power", "exponent"])
def test_oversized_cells_are_refused_at_once(capsys, tmp_path, field, cell,
                                             message):
    """A power past the extension degree, or a rational in exponent
    notation, is refused before any work sized by it."""
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"field": field, "n": 1, "rows": [[cell]]}))
    start = time.perf_counter()
    code, out, err = run(capsys, "partition", "--input", str(path))
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err.startswith("MalformedMatrix: ") and message in err


@pytest.mark.parametrize("degrees", ["1000", "1000000000"])
def test_cross_validate_refuses_huge_degrees_at_once(capsys, degrees):
    """A degree past the default-modulus limit is a domain error at once,
    not a modulus search before the q-set is listed as skipped."""
    start = time.perf_counter()
    code, out, err = run(capsys, "cross-validate", "--n", "2", "--char", "2",
                         "--degrees", degrees)
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err.startswith(f"OutOfRange: GF(2^{degrees}) has order above 2^32")


def test_oversized_modulus_is_usage_error_at_once(capsys):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "4", "--q", "2",
              "--field", "GF(2^2;x^10000000000+1)"])
    assert time.perf_counter() - start < 1
    assert exc.value.code == 64
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith("nilclose verify: error:")
    assert "term x^10000000000 above degree 2" in last


def test_witness_over_a_large_prime_finds_its_modulus_at_once(capsys):
    """The witness lives over GF(1000003^4), where no binomial x^4 + c is
    irreducible as 1000003 = 3 mod 4, so the search for its default modulus
    starts after the million binomials."""
    start = time.perf_counter()
    code, out, _ = run(capsys, "witness", "--n", "26", "--char", "1000003",
                       "--q", "2,3,4,5")
    assert time.perf_counter() - start < 5
    assert code == 0 and "field: GF(1000003^4;1+x+x^4)" in out


def _assert_field_refused_at_once(capsys, tmp_path, field, message):
    """--field with this text is a usage error and a matrix file over it a
    MalformedMatrix, each within a second and with message in the error."""
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "2", "--q", "2", "--field", field])
    assert time.perf_counter() - start < 1
    assert exc.value.code == 64
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith("nilclose verify: error: argument --field: ")
    assert message in last
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"field": field, "n": 1, "rows": [["0"]]}))
    start = time.perf_counter()
    code, out, err = run(capsys, "partition", "--input", str(path))
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err.startswith("MalformedMatrix: ") and message in err


@pytest.mark.parametrize("field", ["GF(2^300)", "GF(2^33)",
                                   "GF(1000003^16)"])
def test_field_past_the_modulus_search_limit_is_refused_at_once(
        capsys, tmp_path, field):
    """A field without a modulus above order 2^32 is refused before the
    default modulus is searched: a usage error for --field, a malformed
    matrix for a file."""
    _assert_field_refused_at_once(capsys, tmp_path, field,
                                  "above 2^32, the limit for a field "
                                  "without a modulus; give one")


@pytest.mark.parametrize("field", [
    "GF(2^513;x^513+x+1)", "GF(2^1000;x^1000+x+1)",
    "GF(2^3000;x^3000+x+1)", "GF(3^324;x^324+2*x+1)",
    "GF(1000003^26;x^26+x+1)", "GF(2^10000000000;x^10000000000+x+1)"])
def test_field_past_the_order_limit_is_refused_at_once(capsys, tmp_path,
                                                       field):
    """A field text of order above 2^512 is refused before its modulus is
    read or tested, with the limit named."""
    _assert_field_refused_at_once(capsys, tmp_path, field,
                                  "above 2^512, the limit for any field")


def test_commands_without_the_oracle_do_not_import_numpy():
    """Only verify and cross-validate need the oracle, and with it numpy."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(nilclose.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = textwrap.dedent("""
        import sys
        import nilclose.cli
        seen = ["numpy" in sys.modules]
        for command in ("criterion", "witness"):
            nilclose.cli.main([command, "--n", "6", "--char", "0",
                               "--q", "2,3,5"])
            seen.append("numpy" in sys.modules)
        nilclose.exhaustive_check
        seen.append("numpy" in sys.modules)
        print(seen)
        """)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[False, False, False, True]"


def test_closed_stdout_exits_quietly_with_141():
    """A reader that closes the pipe, as ``| head -1`` does, ends the
    command as SIGPIPE would: exit 141 and nothing on stderr, not even the
    interpreter's complaint about its last flush."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(nilclose.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    with subprocess.Popen(
            [sys.executable, "-m", "nilclose.cli", "witness", "--n", "8",
             "--char", "0", "--q", "2,4", "--json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        proc.stdout.close()         # closed before the first write
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    assert err == b""


@pytest.mark.parametrize("argv", [
    ["criterion", "--char", "2", "--q", "-"],
    ["enumerate", "--char", "2"],
    ["witness", "--char", "2", "--q", "-"],
    ["verify", "--field", "GF(2)", "--q", "-"],
    ["cross-validate", "--char", "2"],
], ids=lambda argv: argv[0])
def test_negative_dimension_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv[:1] + ["--n", "-3"] + argv[1:])
    assert exc.value.code == 64
    last = capsys.readouterr().err.splitlines()[-1]
    assert last == (f"nilclose {argv[0]}: error: argument --n: "
                    "must be non-negative, got -3")


def test_enumeration_limit_refuses_at_once(capsys):
    """``enumerate`` and ``cross-validate`` over all q list 2^(n-1)
    subsets, so n above ``ENUMERATION_LIMIT`` is refused before any is
    listed."""
    n = str(ENUMERATION_LIMIT + 1)
    for command in ("enumerate", "cross-validate"):
        start = time.perf_counter()
        code, out, err = run(capsys, command, "--n", n, "--char", "2")
        assert time.perf_counter() - start < 1
        assert code == 1 and out == ""
        assert err == (f"BoundExceeded: n={n} exceeds the enumeration "
                       f"bound {ENUMERATION_LIMIT}\n")


def test_domain_error_exit(capsys):
    code, _, err = run(capsys, "criterion", "--n", "4", "--char", "6",
                       "--q", "2")
    assert code == 1 and "NonPrimeChar" in err
    code, _, err = run(capsys, "witness", "--n", "4", "--char", "0",
                       "--q", "7")
    assert code == 1 and "InvalidQ" in err


def test_witness_refuses_a_dimension_above_the_limit(capsys, monkeypatch):
    """A rejected q above WITNESS_DIMENSION_LIMIT exits 1 with OutOfRange
    before any construction is planned; at the limit a witness is built,
    and an accepted q still answers at any n."""
    code, out, _ = run(capsys, "witness", "--n",
                       str(WITNESS_DIMENSION_LIMIT), "--char", "2",
                       "--q", "2,5")
    assert code == 0 and "construction: gap" in out

    def fail(*args):
        raise AssertionError("a construction was planned")
    monkeypatch.setattr(witness, "_plan", fail)
    code, _, err = run(capsys, "witness", "--n",
                       str(WITNESS_DIMENSION_LIMIT + 1), "--char", "0",
                       "--q", "2,3")
    assert code == 1 and "OutOfRange" in err
    assert str(WITNESS_DIMENSION_LIMIT) in err
    n = 10 * WITNESS_DIMENSION_LIMIT
    code, out, _ = run(capsys, "witness", "--n", str(n), "--char", "0",
                       "--q", ",".join(map(str, range(2, n + 1))))
    assert code == 0 and "accept" in out


def test_large_prime_characteristic_answers_at_once(capsys):
    code, out, _ = run(capsys, "criterion", "--n", "4", "--char",
                       str(2 ** 61 - 1), "--q", "2")
    assert code == 0 and out.splitlines()[0] == "reject"
    code, _, err = run(capsys, "verify", "--n", "2", "--field",
                       f"GF({2 ** 61 - 1})", "--q", "2")
    assert code == 3 and err.startswith("BudgetExceeded: ")


@pytest.mark.parametrize("p", [PRIMALITY_LIMIT, 2 ** 89 - 1])
def test_characteristic_past_the_primality_limit_is_refused(capsys, p):
    code, out, err = run(capsys, "criterion", "--n", "4", "--char", str(p),
                         "--q", "2")
    assert code == 1 and out == ""
    assert err.startswith("NonPrimeChar: ") and str(PRIMALITY_LIMIT) in err
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "2", "--field", f"GF({p})", "--q", "2"])
    assert exc.value.code == 64
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith("nilclose verify: error: argument --field: ")
    assert str(PRIMALITY_LIMIT) in last


def test_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in ("criterion", "enumerate", "partition", "member", "witness",
                 "verify", "decompose", "cross-validate"):
        assert name in out


def test_main_runs_again_with_its_cached_parser(capsys):
    """``main`` builds its parser once per process; later calls with other
    subcommands, a usage error and --help behave as on a first call."""
    code, out, _ = run(capsys, "criterion", "--n", "4", "--char", "0",
                       "--q", "2,3", "--json")
    assert code == 0 and json.loads(out)["verdict"] == "accept"
    code, out, _ = run(capsys, "enumerate", "--n", "4", "--char", "2")
    assert code == 0 and out.splitlines()[0] == "-"
    code, out, _ = run(capsys, "witness", "--n", "4", "--char", "0",
                       "--q", "2,4", "--json")
    assert code == 0 and json.loads(out)["construction"] == "neighbor"
    with pytest.raises(SystemExit) as exc:
        main(["criterion", "--n", "4"])
    assert exc.value.code == 64
    assert "required" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["witness", "--help"])
    assert exc.value.code == 0
    assert "--char" in capsys.readouterr().out
    code, out, _ = run(capsys, "criterion", "--n", "4", "--char", "0",
                       "--q", "2,3", "--json")
    assert code == 0 and json.loads(out)["verdict"] == "accept"


_JSON_TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t é€😀'),
                               st.characters()))
_JSON_TREE = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(),
              st.integers(2 ** 64, 2 ** 80).map(lambda v: v * (-1) ** v),
              st.floats(), _JSON_TEXT, st.lists(_JSON_TEXT)),
    lambda children: st.one_of(
        st.lists(children), st.lists(children).map(tuple),
        st.lists(st.one_of(_JSON_TEXT, children)),
        st.dictionaries(_JSON_TEXT, children)),
    max_leaves=15)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_JSON_TREE)
def test_emit_prints_the_bytes_of_json_dumps(tree):
    """``_emit`` prints json.dumps(tree, indent=2, sort_keys=True): strings
    with quotes, backslashes, control and non-ASCII characters, big ints,
    true, false, null, empty and nested lists and dicts, and lists of
    strings mixed with other values."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(tree)
    assert out.getvalue() == json.dumps(tree, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("argv", [
    ["criterion", "--n", "6", "--char", "0", "--q", "2,3,5"],
    ["enumerate", "--n", "5", "--char", "2"],
    ["partition", "--input", "{nilpotent}"],
    ["member", "--input", "{nilpotent}", "--q", "2,3"],
    ["witness", "--n", "6", "--char", "2", "--q", "2,3,5"],
    ["witness", "--n", "4", "--char", "0", "--q", "2,3"],
    ["verify", "--n", "4", "--field", "GF(3)", "--q", "2"],
    ["verify", "--n", "4", "--field", "GF(3)", "--q", "2,3", "--mode",
     "sampled", "--samples", "5", "--seed", "1"],
    ["decompose", "--input", "{general}"],
    ["cross-validate", "--n", "3", "--char", "2", "--degrees", "1,2"],
], ids=lambda argv: "-".join(argv[:1] + argv[-2:]))
def test_json_output_is_json_dumps_indented(capsys, tmp_path, argv):
    """Every command's --json output is exactly the indented, key-sorted
    json.dumps text of what it holds."""
    q_field = rationals()
    paths = {}
    for name, eigenvalue in (("nilpotent", 0), ("general", 2)):
        x = ExactMatrix.block_diag(q_field, [
            ExactMatrix.jordan_cell(q_field, q_field.from_int(eigenvalue), 2),
            ExactMatrix.jordan_cell(q_field, q_field.zero(), 3)])
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(matrix_to_json(x)))
    code, out, _ = run(capsys, *(a.format(**paths) for a in argv), "--json")
    assert code in (0, 2) and out.startswith(("{", "["))
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
