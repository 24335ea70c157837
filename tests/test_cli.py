"""Command-line interface: outputs, determinism, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from alcovepaths import cli
from alcovepaths import affine as af
from alcovepaths import identities as ids
from alcovepaths import qbg
from conftest import datum_of


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def built(*args):
    raise AssertionError("the graph was built")


def test_qbg_table(capsys):
    code, out, _ = run(capsys, "qbg", "--type", "A2")
    assert code == 0
    assert out == "vertices: 6\nbruhat edges: 8\nquantum edges: 7\n"


def test_qbg_json(capsys):
    code, out, _ = run(capsys, "qbg", "--type", "A1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["vertices"] == ["1", "e"]
    assert len(data["edges"]) == 2


def test_qbg_dot(capsys):
    code, out, _ = run(capsys, "qbg", "--type", "A1", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph qbg {")


@pytest.mark.parametrize("argv", [
    ("qbg", "--type", "A2"),
    ("qbg", "--type", "A2", "--format", "json"),
    ("qbg", "--type", "A2", "--format", "dot"),
    ("paths", "--type", "A2", "--weight", "-1,0"),
    ("paths", "--type", "A2", "--weight", "-1,0", "--format", "json"),
    ("paths", "--type", "A2", "--weight", "-1,0", "--format", "csv"),
], ids=" ".join)
def test_output_follows_redirect_stdout(capsys, argv):
    # the exports write to sys.stdout as it is at the call, so output that
    # is redirected in process (as perfbench's qbg_cli captures it) is
    # all there, and nothing reaches the stream that was replaced
    code, want, _ = run(capsys, *argv)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(list(argv)) == code == 0
    assert buf.getvalue() == want and capsys.readouterr().out == ""


def test_parser_is_built_once(capsys):
    # the parser is cached for the process, so a usage error must leave
    # nothing behind that a later invocation could see
    assert cli.build_parser() is cli.build_parser()
    argv = ("qbg", "--type", "A2", "--format", "json")
    code, before, _ = run(capsys, *argv)
    assert code == 0
    code, out, err = run(capsys, "qbg")
    assert (code, out) == (2, "")
    assert "--type" in err
    assert run(capsys, *argv) == (0, before, "")
    # the digest the benchmark's oracle pins for this invocation
    assert hashlib.sha256(before.encode()).hexdigest() == (
        "e1a52dc4cfc9d1cb5d4a707dfeac21a0a1be5faae3d98b5bb6d46d92d87b513b")


def test_beta_table(capsys):
    code, out, _ = run(capsys, "beta", "--type", "C2", "--index", "2")
    assert code == 0
    assert out.splitlines() == [
        "[0, -1] + 1*delta",
        "[-1, -2] + 2*delta",
        "[-1, -1] + 1*delta",
        "[-1, -2] + 1*delta",
    ]


def test_beta_json_is_the_canonical_order(capsys):
    code, out, _ = run(capsys, "beta", "--type", "C2", "--index", "2",
                       "--format", "json")
    assert code == 0
    assert json.loads(out) == [
        {"re": list(b.re), "deg": b.deg}
        for b in af.canonical_beta_order(datum_of("C", 2), 2)
    ]


def test_beta_index_out_of_range(capsys):
    code, _, err = run(capsys, "beta", "--type", "C2", "--index", "5")
    assert code == 2
    assert "out of range" in err


def test_paths_table_counts(capsys):
    code, out, _ = run(capsys, "paths", "--type", "G2", "--weight", "-1,0")
    assert code == 0
    assert out.strip().splitlines()[-1] == "total: 15"
    code, out, _ = run(capsys, "paths", "--type", "G2", "--weight", "0,-1")
    assert code == 0
    assert out.strip().splitlines()[-1] == "total: 7"


def test_paths_csv(capsys):
    code, out, _ = run(capsys, "paths", "--type", "A1", "--weight", "-1",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "folds,quantum_folds,end_weight,end_dir,qwt_degree"
    assert len(lines) == 3


def test_paths_explicit_word(capsys):
    # the affine word 0 in rank one has exactly two folded paths
    code, out, _ = run(capsys, "paths", "--type", "A1", "--word", "0",
                       "--format", "json")
    assert code == 0
    assert len(json.loads(out)) == 2


def test_paths_need_weight_or_word(capsys):
    code, _, err = run(capsys, "paths", "--type", "A2")
    assert code == 2
    assert "need --weight or --word" in err


def test_paths_word_letters_are_affine_indices(capsys, monkeypatch):
    # A2 has the affine letters 0, 1 and 2
    monkeypatch.setattr(qbg, "build", built)
    code, out, err = run(capsys, "paths", "--type", "A2", "--word", "0,5")
    assert (code, out) == (2, "")
    assert "invalid affine indices" in err


def test_emac_table(capsys):
    code, out, _ = run(capsys, "emac", "--type", "A1", "--weight", "-1")
    assert code == 0
    assert out.strip() == "x1^-1 + x1^1"
    code, out, _ = run(capsys, "emac", "--type", "A1", "--weight", "-1",
                       "--spec", "infinity")
    assert code == 0
    assert out.strip() == "x1^-1 + x1^1*q^1"


def test_emac_both_reports(capsys):
    code, out, _ = run(capsys, "emac", "--type", "A2", "--weight", "-1,0",
                       "--spec", "both")
    assert code == 0
    payload = json.loads(out)
    assert payload["routes_agree"] is True


def test_emac_reports_disagreeing_routes(capsys, disagreeing_routes):
    # a route mismatch prints nothing on stdout and both values on stderr
    code, out, err = run(capsys, "emac", "--type", "A1", "--weight", "-1",
                         "--spec", "infinity")
    assert (code, out) == (4, "")
    assert err == (
        "t=infinity routes disagree at (-1,):\n"
        "  twisted:  x1^-1 + x1^1*q^1\n"
        "  reversed: 2*x1^-1 + 2*x1^1*q^1\n"
    )


def test_emac_rejects_dominant(capsys):
    code, _, err = run(capsys, "emac", "--type", "A2", "--weight", "1,0")
    assert code == 2
    assert "anti-dominant" in err


@pytest.mark.parametrize("argv", [
    ("emac", "--type", "B4", "--weight", "1,0,0,0"),
    ("char", "--type", "B4", "--weight", "0,1,0,0"),
    ("dims", "--type", "B4", "--weight", "0,0,0,1"),
    ("paths", "--type", "B4", "--weight", "1,0,0,0"),
    ("emac", "--type", "B4"),
])
def test_weight_checked_before_graph(capsys, monkeypatch, argv):
    monkeypatch.setattr(qbg, "build", built)
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "anti-dominant" in err or "need --weight" in err


@pytest.mark.parametrize("command,fmt", [
    ("qbg", "csv"), ("beta", "csv"), ("beta", "dot"), ("paths", "dot"),
    ("emac", "csv"), ("emac", "dot"), ("char", "csv"), ("char", "dot"),
    ("dims", "table"), ("dims", "json"),
    ("emac --spec both", "table"),
])
def test_unimplemented_format_refused(capsys, monkeypatch, command, fmt):
    monkeypatch.setattr(qbg, "build", built)
    command, *options = command.split()
    extra = {"qbg": (), "beta": ("--index", "1")}.get(command, ("--weight", "-1,0"))
    code, out, err = run(capsys, command, "--type", "A2", *extra, *options,
                         "--format", fmt)
    assert (code, out) == (2, "")
    assert "--format" in err


def test_emac_eval_is_not_an_option(capsys, monkeypatch):
    # emac prints polynomials; their value at x = q = 1 is what dims prints
    monkeypatch.setattr(qbg, "build", built)
    code, out, err = run(capsys, "emac", "--type", "A2", "--weight", "-1,-1",
                         "--eval", "1,1")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --eval 1,1" in err


def test_char_and_dims(capsys):
    code, out, _ = run(capsys, "dims", "--type", "G2", "--weight", "-1,0")
    assert code == 0
    assert out.strip() == "15"
    code, out, _ = run(capsys, "char", "--type", "A1", "--weight", "-1",
                       "--sigma", "1", "--format", "json")
    assert code == 0
    assert json.loads(out) == [
        {"x": [-1], "q": 1, "c": 1}, {"x": [1], "q": 0, "c": 1},
    ]


def test_bad_type_is_parse_error(capsys):
    code, _, err = run(capsys, "qbg", "--type", "Z9")
    assert code == 2
    assert "bad --type" in err


@pytest.mark.parametrize("argv", [
    ("qbg", "--type", "D2"),
    ("qbg", "--type", "A0"),
    ("beta", "--type", "B1", "--index", "1"),
    ("paths", "--type", "D3", "--weight", "-1,0,0"),
    ("emac", "--type", "E5", "--weight", "-1,0,0,0,0"),
    ("char", "--type", "G3", "--weight", "-1,0,0"),
    ("dims", "--type", "F2", "--weight", "-1,0"),
])
def test_invalid_simple_type_is_usage_error(capsys, monkeypatch, argv):
    # a letter A-G with digits that names no simple type: no group, no graph
    from alcovepaths import weylgroup as wg
    monkeypatch.setattr(qbg, "build", built)
    monkeypatch.setattr(wg, "enumerate_group", built)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: invalid simple type {argv[2]}\n"


@pytest.mark.parametrize("word", ["1,1", "1,2,1,2", "0,0", "1,2,1,2,1"])
def test_paths_word_must_be_reduced(capsys, monkeypatch, word):
    # in A2, s1 s1 is the identity and s1 s2 s1 s2 = s2 s1 has length 2
    monkeypatch.setattr(qbg, "build", built)
    code, out, err = run(capsys, "paths", "--type", "A2", "--word", word)
    assert (code, out) == (2, "")
    assert "not reduced" in err


@pytest.mark.parametrize("command", ["char", "dims", "paths"])
@pytest.mark.parametrize("sigma", ["1,1", "1,2,1,2", "2,1,2,1"])
def test_sigma_word_must_be_reduced(capsys, monkeypatch, command, sigma):
    # in A2, s1 s1 is the identity; dims --sigma 1,1 used to print 9
    monkeypatch.setattr(qbg, "build", built)
    code, out, err = run(capsys, command, "--type", "A2", "--weight", "-1,-1",
                         "--sigma", sigma)
    assert (code, out) == (2, "")
    assert "not reduced" in err


def test_bad_integer_list(capsys, monkeypatch):
    monkeypatch.setattr(qbg, "build", built)
    code, out, err = run(capsys, "emac", "--type", "A2", "--weight", "a,b")
    assert (code, out) == (2, "")
    assert err == "error: bad integer list 'a,b'\n"


@pytest.mark.parametrize("command", ["char", "dims", "paths"])
def test_sigma_letters_are_simple_indices(capsys, monkeypatch, command):
    monkeypatch.setattr(qbg, "build", built)
    code, out, err = run(capsys, command, "--type", "A2", "--weight", "-1,-1",
                         "--sigma", "3")
    assert (code, out) == (2, "")
    assert err == "error: sigma word uses invalid indices: (3,)\n"


def test_bad_weight_length(capsys):
    code, _, err = run(capsys, "emac", "--type", "A2", "--weight", "-1")
    assert code == 2
    assert "expected 2" in err


def test_unknown_flag_is_parse_error(capsys):
    code, _, _ = run(capsys, "qbg", "--type", "A2", "--bogus")
    assert code == 2


def test_group_cap_exit_code(capsys, monkeypatch):
    from alcovepaths import weylgroup as wg
    monkeypatch.setattr(wg, "GROUP_SIZE_CAP", 4)
    code, _, err = run(capsys, "qbg", "--type", "A3")
    assert code == 3
    assert "cap" in err


def test_group_cap_refused_before_enumeration(capsys, monkeypatch):
    from alcovepaths import weylgroup as wg

    def enumerated(*args):
        raise AssertionError("a group element was built")

    # |W(E7)| = 2903040 is known from the classification
    monkeypatch.setattr(wg, "multiply", enumerated)
    code, _, err = run(capsys, "qbg", "--type", "E7")
    assert code == 3
    assert "2903040" in err and "cap" in err


@pytest.mark.parametrize("command", ["qbg", "paths", "emac", "char", "dims"])
@pytest.mark.parametrize("type_", ["A80", "B40", "D40"])
def test_group_cap_refused_before_the_datum(capsys, monkeypatch, command, type_):
    # |W| comes from the family and rank alone, so no root datum is built
    from alcovepaths import lattice

    def datum_built(*args):
        raise AssertionError("the root datum was built")

    monkeypatch.setattr(lattice, "build_datum", datum_built)
    argv = [command, "--type", type_]
    if command != "qbg":
        argv += ["--weight", "-1"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert f"|W({type_})| = " in err and "cap" in err


@pytest.mark.parametrize("argv,length", [
    (("dims", "--type", "A1", "--weight", "-400"), 400),
    (("char", "--type", "A2", "--weight", "-34,-34"), 136),
    (("emac", "--type", "A1", "--weight", "-65", "--spec", "both"), 65),
    (("dims", "--type", "E6", "--weight", "0,0,0,-3,0,0", "--sigma", "4"), 126),
], ids=["dims-A1", "char-A2", "emac-A1", "dims-E6"])
def test_translation_length_cap_refused_before_the_graph(
        capsys, monkeypatch, argv, length):
    # l(t_lam) is read off the weight, so the walk's size is refused
    # before the graph that it would walk is built
    monkeypatch.setattr(qbg, "build", built)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert f"l(t_lam) = {length} " in err and "cap" in err


@pytest.mark.parametrize("command", ["emac", "char", "dims"])
def test_translation_length_cap_is_inclusive(capsys, monkeypatch, command):
    monkeypatch.setattr(cli, "TRANSLATION_LENGTH_CAP", 3)
    assert run(capsys, command, "--type", "A1", "--weight", "-3")[0] == 0
    assert run(capsys, command, "--type", "A1", "--weight", "-4")[0] == 3


def test_beta_builds_no_graph(capsys):
    # W(E7) is above the group size cap, but the layout never reads W
    code, out, _ = run(capsys, "beta", "--type", "E7", "--index", "1")
    assert code == 0
    assert len(out.splitlines()) == 34


def test_verify_fast_subset(capsys):
    code, out, _ = run(capsys, "verify", "--suites", "shift,beta")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["failures"] == []


def test_verify_runs_every_suite(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert out == (
        '{"suites": ["beta", "dual_route", "lenart", "recursion", "shift", '
        '"twist", "w0_inversion", "word_choice"], "ok": true, '
        '"failures": []}\n'
    )


def test_verify_failure_names_suite_and_inputs(capsys, monkeypatch):
    monkeypatch.setattr(ids, "_twisted", lambda *args: False)
    code, out, _ = run(capsys, "verify", "--suites", "twist")
    assert code == 4
    failures = json.loads(out)["failures"]
    assert len(failures) == 5  # m = 1, 2 in A1 and m = 1 in A2, A2, C2
    assert failures[0] == {"suite": "twist", "type": "A1", "i": 1, "m": 1}


def test_verify_twist_reports_disagreeing_routes(capsys, disagreeing_routes):
    # the twist check reads the report, so a route mismatch is one failing
    # case, not a SpecializationMismatch out of main
    code, out, _ = run(capsys, "verify", "--suites", "twist")
    assert code == 4
    failures = json.loads(out)["failures"]
    assert [(f["type"], f["i"], f["m"]) for f in failures] == [
        ("A1", 1, 1), ("A1", 1, 2), ("A2", 1, 1), ("A2", 2, 1), ("C2", 2, 1),
    ]


def test_verify_runs_a_repeated_suite_once(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli.ids, "SUITES", {
        name: (lambda d, g, name=name: calls.append(name) or (), [("A", 1)])
        for name in ("shift", "beta")
    })
    code, out, _ = run(capsys, "verify", "--suites", "shift,beta,shift")
    assert code == 0
    assert json.loads(out)["suites"] == ["shift", "beta"]
    assert calls == ["shift", "beta"]


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suites", "nope")
    assert code == 2
    assert "unknown suite" in err


@pytest.mark.parametrize("value", ["", ","])
def test_verify_refuses_an_empty_suite_name(capsys, value):
    # an empty --suites names the suite '', as ',' does, and runs none
    code, out, err = run(capsys, "verify", f"--suites={value}")
    assert code == 2
    assert out == ""
    assert "unknown suite ''" in err


def test_output_determinism(capsys):
    a = run(capsys, "emac", "--type", "C2", "--weight", "-1,0", "--format", "json")
    b = run(capsys, "emac", "--type", "C2", "--weight", "-1,0", "--format", "json")
    assert a == b
    c = run(capsys, "paths", "--type", "C2", "--weight", "-1,0",
            "--format", "json")
    d = run(capsys, "paths", "--type", "C2", "--weight", "-1,0",
            "--format", "json")
    assert c == d


@pytest.mark.parametrize("argv,code,out,err", [
    (("dims", "--type", "A2", "--weight", "-1,-1"), 0, "9\n", ""),
    (("dims", "--type", "A2"), 2, "", "error: need --weight\n"),
], ids=["weight", "no-weight"])
def test_module_entry_point(argv, code, out, err):
    # the command line as a user runs it, through sys.exit(main())
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-B", "-m", "alcovepaths.cli", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stdout, done.stderr) == (code, out, err)
