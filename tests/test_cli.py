"""Tests for the command-line interface."""

import hashlib
import json
import os
import shlex
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import sympgen
from sympgen import claims
from sympgen.cli import main, make_parser


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_fields_lists_bundled_moduli(capsys):
    rc, out = run_cli(capsys, "fields")
    assert rc == 0
    entries = json.loads(out)
    assert {"q": 8, "tag": "G7", "modulus": [1, 1, 0, 1]} in entries
    assert {"q": 9, "tag": "main12", "modulus": [1, 0, 1]} in entries


def test_build_with_integer_a(capsys):
    rc, out = run_cli(capsys, "build", "--n", "4", "--q", "3", "--a", "1")
    assert rc == 0
    d = json.loads(out)
    assert d["n"] == 4 and d["q"] == 3 and d["valid"] is True
    assert len(d["x"]) == 8 and len(d["x"][0]) == 8


def test_build_with_minpoly_a_and_tau(capsys):
    rc, out = run_cli(capsys, "build", "--n", "7", "--q", "4",
                      "--a", "minpoly:1,1,1", "--dump-tau")
    assert rc == 0
    d = json.loads(out)
    assert "tau" in d and len(d["tau"]) == 14


def test_build_rejects_bad_parameters(capsys):
    rc, _ = run_cli(capsys, "build", "--n", "4", "--q", "2", "--a", "1")
    assert rc == 2


def _too_slow(signum, frame):
    raise TimeoutError("a composite q was not refused at once")


def test_build_refuses_a_huge_composite_q_at_once(capsys):
    # q is the product of the primes 2^100 + 277 and 2^101 + 81; telling
    # that it is no prime power must not mean factoring it
    q = (2**100 + 277) * (2**101 + 81)
    previous = signal.signal(signal.SIGALRM, _too_slow)
    signal.alarm(2)
    try:
        rc = main(["build", "--recipe", "general", "--n", "4", "--q", str(q),
                   "--a", "1"])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "not a prime power" in captured.err


@pytest.mark.parametrize("argv", [
    ("build", "--n", "6", "--q", "5", "--a", "foo"),
    ("build", "--n", "6", "--q", "5", "--a", "minpoly:1,x"),
    ("certify", "--n", "6", "--q", "2", "--a", "foo"),
])
def test_malformed_a_is_a_parameter_error(capsys, argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("error: ")


def test_verify_filter_and_exit_code(capsys):
    rc, out = run_cli(capsys, "verify", "prop-q2-*")
    assert rc == 0
    payload = json.loads(out)
    assert sorted(e["id"] for e in payload) == [
        "prop-q2-n11", "prop-q2-n6", "prop-q2-n7", "prop-q2-n8",
        "prop-q2-n9", "prop-q2-sl9"]
    assert all(e["status"] == "Pass" for e in payload)


def test_verify_filter_matching_nothing_is_an_error(capsys):
    rc = main(["verify", "no-such*"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == "error: no claim matches 'no-such*'\n"


def test_verify_output_byte_stable(capsys):
    rc1, out1 = run_cli(capsys, "verify", "quadform-n4")
    rc2, out2 = run_cli(capsys, "verify", "quadform-n4")
    assert (rc1, out1) == (rc2, out2)
    assert json.loads(out1)[0]["wall_time_ms"] == 0


def test_verify_timings_flag_reports_real_times(capsys):
    rc, out = run_cli(capsys, "verify", "quadform-n4", "--timings")
    assert rc == 0
    assert json.loads(out)[0]["wall_time_ms"] >= 0


def test_verify_nonzero_exit_on_failure(capsys):
    cid = "test-cli-forced-failure"

    @claims.claim(cid, "q=2-L8")
    def _forced():
        return {"expected": 0, "computed": 1}

    try:
        rc, out = run_cli(capsys, "verify", cid)
        assert rc == 1
        assert json.loads(out)[0]["status"] == "Fail"
    finally:
        del claims._REGISTRY[cid]


def test_search_named_fixture(capsys):
    rc, out = run_cli(capsys, "search", "--lemma", "M=H", "--q", "7")
    assert rc == 0
    d = json.loads(out)
    assert "1" in d["admissible"]
    assert d["count"] == len(d["admissible"])


def test_search_empty_case(capsys):
    rc, out = run_cli(capsys, "search", "--lemma", "G9", "--q", "7")
    assert rc == 0
    assert json.loads(out)["admissible"] == []


# Extension-field output, pinned byte for byte: the sha256 of the whole
# line, its count, field, and the first and last admissible elements.
SEARCH_OUTPUTS = {
    ("irr6", 625): ("388e57a78577514b9584975bd1d85648068f18c24f764f94d3544aa53ef8dcb3",
                    564, "5^4/2,0,0,0,1",
                    ["1+w", "1+2*w+w^2", "1+3*w+3*w^2+w^3", "4+4*w+w^2+4*w^3"],
                    ["3*w+4*w^2+4*w^3", "2+3*w+2*w^2+3*w^3"]),
    ("ex5", 2048): ("206288a1f288d28cbc34d4724cc152b0d9cdb01825a6ae7543f3d28347aee3aa",
                    2046, "2^11/1,0,1,0,0,0,0,0,0,0,0,1",
                    ["w", "w^2", "w^3", "w^4"], ["1+w^9", "w+w^10"]),
    ("irr6", 1331): ("ba152a6ab46ff9e3fb744aa385628675b2cf423842cfa8776c2e6ab4cc8069cf",
                     1320, "11^3/4,1,0,1",
                     ["w", "w^2", "7+10*w", "7*w+10*w^2"], ["9+8*w+9*w^2", "8+8*w^2"]),
    ("M=H", 243): ("24c36cf37dd0a8eb402dbfc55dc12be4ceeef23b27d33c586bfb15a387dcd20c",
                   240, "3^5/1,2,0,0,0,1",
                   ["w", "w^2", "w^3", "w^4"], ["1+2*w^3+2*w^4", "1+2*w^4"]),
}


@pytest.mark.parametrize("lemma,q", sorted(SEARCH_OUTPUTS))
def test_search_extension_field_output_is_pinned(capsys, lemma, q):
    sha, count, field, head, tail = SEARCH_OUTPUTS[lemma, q]
    rc, out = run_cli(capsys, "search", "--lemma", lemma, "--q", str(q))
    assert rc == 0
    d = json.loads(out)
    assert (d["count"], d["field"], d["admissible"][:4], d["admissible"][-2:]) == (
        count, field, head, tail)
    assert hashlib.sha256(out.encode()).hexdigest() == sha


def test_search_output_is_the_same_under_python_O():
    # python -O strips assert statements: the field walk, the sieve and the
    # output must not rest on one
    argv = ["-m", "sympgen.cli", "search", "--lemma", "9ex", "--q", "729"]
    env = dict(os.environ, PYTHONPATH=str(Path(sympgen.__file__).parents[1]))
    plain, optimized = (subprocess.run([sys.executable, *flags, *argv], env=env,
                                       capture_output=True, text=True, check=True).stdout
                        for flags in ([], ["-O"]))
    assert json.loads(plain)["count"] == 666
    assert optimized == plain


def test_search_past_its_bound_exits_2(capsys):
    # 2^23: q - 1 is past the search's bound 2^22, refused before any table
    assert main(["search", "--lemma", "irr6", "--q", str(2**23)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "past the bound 2^22" in err


def test_build_past_its_n_bound_exits_2_before_any_matrix(capsys, monkeypatch):
    # n = 513 is one past the general recipe's bound 512
    def made(*args):
        raise RuntimeError("a matrix was made")

    monkeypatch.setattr(sympgen.matrix.Mat, "_make", made)
    assert main(["build", "--n", "513", "--q", "2", "--a", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "n = 513: n is past the bound 512" in err


def test_search_unknown_lemma_is_an_error(capsys):
    rc, _ = run_cli(capsys, "search", "--lemma", "bogus", "--q", "7")
    assert rc == 2


def test_certify_default_words(capsys):
    rc, out = run_cli(capsys, "certify", "--n", "6", "--q", "2", "--a", "1")
    assert rc == 0
    assert json.loads(out)["certificate"] == "Certified"


def test_certify_has_no_words_option(capsys):
    _, out = run_cli(capsys, "certify", "--n", "6", "--q", "2", "--a", "1")
    assert json.loads(out)["words"] == "default"
    with pytest.raises(SystemExit):
        make_parser().parse_args(["certify", "--n", "6", "--q", "2", "--words", "default"])


def test_certify_unknown_pair_is_an_error(capsys):
    rc, _ = run_cli(capsys, "certify", "--n", "4", "--q", "3", "--a", "1")
    assert rc == 2


def test_cli_outputs_match_the_benchmark_record(capsys):
    # the perfbench record of every fields and certify item, byte for byte
    record = json.loads((Path(__file__).parents[1] / "perfbench" / "expected.json").read_text())
    items = {**record["fields"], **record["certify"]}
    assert (len(record["fields"]), len(record["certify"])) == (10, 11)
    for item_id, want in items.items():
        assert run_cli(capsys, *item_id.split()) == (0, want), item_id


def test_readme_command_examples_parse():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1]
    lines = [line for line in block.split("```", 1)[0].splitlines()
             if line.startswith("sympgen ")]
    assert len(lines) >= 5
    for line in lines:
        try:
            make_parser().parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"the CLI rejects the README example {line!r}")
