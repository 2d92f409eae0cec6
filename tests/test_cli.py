import argparse
import ast
import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
import warnings

import pytest

from mvmlab import (catalog, catalog_names, cli, cn_delta, enumerate_chain,
                    lm_delta, ln_plus, load, product, save, trivial_algebra)
from mvmlab.constructions import cn_delta_star
from mvmlab.enumeration import FILTERS

from conftest import random_operations, shuffled


def run(*argv):
    buf = io.StringIO()
    code = cli.run(list(argv), buf)
    return code, buf.getvalue()


def run_json(*argv):
    code, text = run(*argv)
    assert code == 0, text
    return json.loads(text)


@pytest.fixture()
def algebra_file(tmp_path):
    def write(A, name="a.json"):
        p = tmp_path / name
        p.write_text(json.dumps(save(A)))
        return str(p)
    return write


def test_axioms_command(algebra_file):
    doc = run_json("axioms", algebra_file(ln_plus(3)))
    assert doc == {"passed": True, "failures": []}


def test_axioms_command_failure_report(algebra_file, tmp_path):
    bad = {"size": 2, "zero": 0, "one": 1,
           "oplus": [[1, 1], [1, 1]], "odot": [[0, 0], [0, 1]]}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    doc = run_json("axioms", str(p))
    assert not doc["passed"]
    assert any(f["axiom"] == "mon.oplus.unit" for f in doc["failures"])


def test_congruences_command(algebra_file):
    doc = run_json("congruences", algebra_file(cn_delta(2)))
    assert doc["size"] == 3 and doc["is_chain"]
    assert doc["congruences"][0] == [[0], [1], [2]]
    assert doc["congruences"][-1] == [[0, 1, 2]]


def test_construct_catalog_and_parametric(tmp_path):
    doc = run_json("construct", "C2d")
    assert doc["size"] == 3
    doc = run_json("construct", "ln_plus", "--n", "4")
    assert load(doc) == ln_plus(4).rename(doc["name"])
    out = tmp_path / "x.json"
    code, text = run("construct", "L2+", "--out", str(out))
    assert code == 0
    assert load(json.loads(out.read_text())).size == 3


def test_construct_gamma_lex(tmp_path):
    M = cn_delta_star(3)
    p = tmp_path / "m.json"
    p.write_text(json.dumps({"size": M.size, "zero": M.zero,
                             "plus": [list(r) for r in M.plus],
                             "name": M.name}))
    doc = run_json("construct", "gamma-lex", str(p))
    from mvmlab import are_isomorphic
    assert are_isomorphic(load(doc), cn_delta(3))


def test_construct_errors():
    assert run("construct", "nope")[0] == 1
    assert run("construct", "ln_plus")[0] == 1  # missing --n
    assert run("construct", "gamma-lex")[0] == 1  # missing file


def test_enumerate_count_only():
    doc = run_json("enumerate", "--size", "4", "--count-only")
    assert doc == {"size": 4, "filter": "all", "count": 19}
    doc = run_json("enumerate", "--size", "4", "--filter", "si",
                   "--count-only")
    assert doc["count"] == 7


@pytest.mark.parametrize("flt", FILTERS)
def test_enumerate_count_only_counts_what_enumerate_chain_lists(flt):
    # the count is read off the pair stage's verdicts, no algebra built
    for n in range(1, 8):
        assert run_json("enumerate", "--size", str(n), "--filter", flt,
                        "--count-only") == {
            "size": n, "filter": flt, "count": len(enumerate_chain(n, flt))}


def test_enumerate_writes_files(tmp_path):
    d = tmp_path / "out"
    doc = run_json("enumerate", "--size", "3", "--filter", "positive",
                   "--out", str(d))
    assert doc["written"] == 2
    files = sorted(os.listdir(d))
    assert len(files) == 2
    for f in files:
        load(json.loads((d / f).read_text()))


@pytest.mark.parametrize("filt", ["all", "si", "positive"])
def test_enumerate_files_keep_the_printed_names(tmp_path, filt):
    printed = run_json("enumerate", "--size", "4", "--filter", filt)
    d = tmp_path / "out"
    run_json("enumerate", "--size", "4", "--filter", filt, "--out", str(d))
    assert sorted(os.listdir(d)) == sorted(f"{doc['name']}.json"
                                           for doc in printed)
    for doc in printed:
        assert json.loads((d / f"{doc['name']}.json").read_text()) == doc


class File(str):
    """An argv entry that the test replaces with a file holding this text."""


class Dir:
    """An argv entry that the test replaces with a directory."""


def doc(obj):
    return File(json.dumps(obj))


_ROW = {"size": 2, "zero": 0, "one": 1, "oplus": [1, 2],
        "odot": [[0, 0], [0, 1]]}


@pytest.mark.parametrize("argv", [
    ("enumerate", "--size", "0"),
    ("enumerate", "--size", "-3"),
    ("phi", None, "--n", "0"),
    # algebra and l-monoid documents: a row that is not a list, JSON true
    # as the size, booleans as table entries
    ("axioms", doc(_ROW)),
    ("hsu", doc(_ROW)),
    ("axioms", doc({"size": True, "zero": 0, "one": 0, "oplus": [[0]],
                    "odot": [[0]]})),
    ("axioms", doc({"size": 2, "zero": 0, "one": 1,
                    "oplus": [[False, True], [True, True]],
                    "odot": [[0, 0], [0, 1]]})),
    ("construct", "gamma-lex", doc({"size": 2, "zero": 0, "plus": [0, 1]})),
    ("construct", "gamma-lex", doc({"size": True, "zero": 0,
                                    "plus": [[0]]})),
    ("construct", "gamma-lex", doc({"size": 2, "zero": 0,
                                    "plus": [[False, True], [True, True]]})),
    # CLI inputs
    ("downsets", File("{not json")),
    ("downsets", doc({"nodes": 5})),
    ("downsets", doc({"nodes": ["a", "b"], "leq": [["a", "c"]]})),
    ("downsets", doc({"nodes": ["a"], "leq": [[["a"], "a"]]})),
    ("construct", "gamma-lex", File("{not json")),
    ("member", None, "--set", "abc"),
    ("sigma", None, "--set", "abc"),
    ("axioms", Dir()),
])
def test_out_of_domain_arguments_are_domain_errors(argv, algebra_file,
                                                   tmp_path, capsys):
    def arg(i, a):
        if a is None:
            return algebra_file(ln_plus(2))
        if isinstance(a, Dir):
            return str(tmp_path)
        if isinstance(a, File):
            p = tmp_path / f"arg{i}.json"
            p.write_text(a)
            return str(p)
        return a

    argv = [arg(i, a) for i, a in enumerate(argv)]
    code, out = run(*argv)
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_check_eq_command(algebra_file):
    f = algebra_file(cn_delta(2))
    doc = run_json("check-eq", f, "--eq", "x + x ≈ x")
    assert doc == {"holds": True, "witness": None}
    doc = run_json("check-eq", f, "--eq",
                   "x + z ≈ y + z & x * z ≈ y * z => x ≈ y")
    assert doc["holds"] is False and doc["witness"] == {"x": 0, "y": 1, "z": 1}


def test_check_eq_syntax_error(algebra_file):
    assert run("check-eq", algebra_file(ln_plus(2)), "--eq", "x ≈")[0] == 1


def test_check_eq_rejects_a_bare_term(algebra_file, capsys):
    code, out = run("check-eq", algebra_file(ln_plus(2)), "--eq", "x + y")
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert err.startswith("error: expected an equation")


def test_check_eq_takes_any_depth(algebra_file):
    deep = "(" * 2000 + "x" + ")" * 2000
    f = algebra_file(ln_plus(2))
    assert run_json("check-eq", f, "--eq", f"{deep} ≈ x") == \
        {"holds": True, "witness": None}
    doc = run_json("check-eq", f, "--eq", f"{deep} ≈ 0")
    assert doc == {"holds": False, "witness": {"x": 1}}


def test_sigma_output_checks_back(algebra_file):
    # the threshold equation 201x ≈ 200x prints 200 brackets deep
    f = algebra_file(ln_plus(1))
    doc = run_json("sigma", f, "--set", ",".join(map(str, range(1, 201))))
    assert doc["holds"] is True and len(doc["equations"]) == 1
    assert run_json("check-eq", f, "--eq", doc["equations"][0]) == \
        {"holds": True, "witness": None}


def test_check_eq_superscript_digit_is_a_syntax_error(algebra_file, capsys):
    code, out = run("check-eq", algebra_file(ln_plus(2)), "--eq", "x² ≈ x")
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert err == "error: unexpected character '²' (at position 1)\n"


@pytest.mark.parametrize("eq", ["x" + "9" * 5000 + " ≈ x",
                                "9" * 5000 + "x ≈ x"])
def test_check_eq_rejects_numbers_too_long_to_read(algebra_file, capsys, eq):
    # a variable index or scalar of 5000 digits used to end in a ValueError
    # traceback from int()
    code, out = run("check-eq", algebra_file(ln_plus(2)), "--eq", eq)
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert err == "error: a number has at most 4300 digits, got 5000 " \
        "(at position 0)\n"


@pytest.mark.parametrize("eq", ["200000x ≈ x", "x^200000 ≈ x"])
def test_check_eq_caps_scalar_prefixes_and_exponents(algebra_file, capsys,
                                                     eq):
    code, out = run("check-eq", algebra_file(ln_plus(2)), "--eq", eq)
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert err == "error: the sum of scalar prefixes and exponents is " \
        "200000, above the cap 10000 (MVMLAB_CAP_REPEAT)\n"


@pytest.mark.parametrize("eq", ["x99 ≈ x99", "x99 + x ≈ x + x99"])
def test_check_eq_caps_the_assignments(algebra_file, eq):
    # x99 makes 100 variables: 2**100 assignments on L1+, which used to end
    # in an OverflowError traceback or run without end
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    env.pop("MVMLAB_CAP_ASSIGNMENTS", None)
    done = subprocess.run([sys.executable, "-m", "mvmlab", "check-eq",
                           algebra_file(ln_plus(1)), "--eq", eq],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == "error: the number of assignments to 100 " \
        f"variables over 2 elements is {2 ** 100}, above the cap " \
        f"{2 ** 24} (MVMLAB_CAP_ASSIGNMENTS)\n"


@pytest.mark.parametrize("name", ["ln_plus", "cn_delta", "cn_nabla",
                                  "lm_delta", "lm_nabla"])
def test_construct_caps_the_table_size(name):
    # n = 100000 makes about 10**10 table cells, which used to end in a
    # MemoryError traceback from the table builder
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    env.pop("MVMLAB_CAP_ASSIGNMENTS", None)
    done = subprocess.run([sys.executable, "-m", "mvmlab", "construct", name,
                           "--n", "100000"],
                          capture_output=True, text=True, env=env, timeout=10)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == "error: the number of assignments to 2 " \
        f"variables over the 100001 elements of {name}(100000) is " \
        f"{100001 ** 2}, above the cap {2 ** 24} (MVMLAB_CAP_ASSIGNMENTS)\n"


def test_a_lowered_cap_leaves_the_catalogue_names(algebra_file):
    # the names come from fixed tables up to L8+, built whatever the caps;
    # 50 is below the 81 cells of L8+'s table
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src),
           "MVMLAB_CAP_ASSIGNMENTS": "50"}
    done = subprocess.run([sys.executable, "-m", "mvmlab", "hsu",
                           algebra_file(ln_plus(1))],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == '{\n  "classes": [\n    "L1+",\n    "trivial"\n' \
        '  ]\n}\n'
    # while what a command is asked to build stays capped
    done = subprocess.run([sys.executable, "-m", "mvmlab", "construct",
                           "ln_plus", "--n", "7"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == "error: the number of assignments to 2 " \
        "variables over the 8 elements of ln_plus(7) is 64, above the cap " \
        "50 (MVMLAB_CAP_ASSIGNMENTS)\n"


def test_python_dash_m_runs_the_command_line(algebra_file):
    # `python -m mvmlab` in a source checkout, as the installed `mvmlab`
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    f = algebra_file(ln_plus(3))
    done = subprocess.run([sys.executable, "-m", "mvmlab", "axioms", f],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout == run("axioms", f)[1]
    done = subprocess.run([sys.executable, "-m", "mvmlab", "check-eq", f,
                           "--eq", "x ≈"], capture_output=True, text=True,
                          env=env)
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.startswith("error: ")


def test_python_dash_m_construct_exits_zero():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    done = subprocess.run([sys.executable, "-m", "mvmlab", "construct", "L1+"],
                          capture_output=True, text=True, env=env)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == run("construct", "L1+")[1]
    assert json.loads(done.stdout) == save(ln_plus(1))


def test_malformed_cap_value_is_an_error(monkeypatch, capsys):
    monkeypatch.setenv("MVMLAB_CAP_ENUM_CHAIN", "abc")
    code, out = run("enumerate", "--size", "3", "--count-only")
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert err == "error: MVMLAB_CAP_ENUM_CHAIN must be an integer, " \
        "got 'abc'\n"


def test_phi_sigma_member_commands(algebra_file):
    f2 = algebra_file(ln_plus(2), "l2.json")
    f3 = algebra_file(ln_plus(3), "l3.json")
    assert run_json("phi", f2, "--n", "4")["holds"] is True
    assert run_json("phi", f3, "--n", "4")["holds"] is False
    doc = run_json("sigma", f3, "--set", "1,2,3")
    assert doc["holds"] and doc["equations"] == ["(((x + x) + x) + x) ≈ ((x + x) + x)"]
    assert run_json("member", f2, "--set", "1,2") == \
        {"set": [1, 2], "member": True}
    assert run_json("member", f3, "--set", "1,2")["member"] is False


def test_phi_command_names_the_tau_terms(algebra_file):
    doc = run_json("phi", algebra_file(ln_plus(3)), "--n", "2")
    assert doc["equations"] == ["tau(2,0) + tau(2,0) ≈ tau(2,0)",
                                "tau(2,0) * tau(2,0) ≈ tau(2,0)",
                                "tau(2,1) + tau(2,1) ≈ tau(2,1)",
                                "tau(2,1) * tau(2,1) ≈ tau(2,1)"]
    # 2x is not idempotent at x = 1/3
    assert doc["holds"] is False and doc["witness"] == {"x": 1}
    assert doc["failing_equation"] == "tau(2,0) + tau(2,0) ≈ tau(2,0)"
    # spelled out, the equations of Phi(16) take about 5 MB
    code, text = run("phi", algebra_file(ln_plus(4)), "--n", "16")
    assert code == 0 and len(text.encode()) < 100_000
    assert json.loads(text)["holds"] is True


def test_member_rejects_non_divisor_closed(algebra_file):
    assert run("member", algebra_file(ln_plus(2)), "--set", "2")[0] == 1


def test_classify_command(algebra_file):
    f = algebra_file(ln_plus(6))
    assert run_json("classify", f) == {"set": [1, 2, 3, 6]}
    assert run("classify", algebra_file(cn_delta(2), "c.json"))[0] == 1


def test_hsu_command(algebra_file):
    doc = run_json("hsu", algebra_file(ln_plus(4)))
    assert doc == {"classes": ["L1+", "L2+", "L4+", "trivial"]}


def test_poset_command(algebra_file):
    files = [algebra_file(ln_plus(n), f"l{n}.json") for n in (1, 2, 3)]
    doc = run_json("poset", *files)
    assert doc["nodes"] == ["L1+", "L2+", "L3+"]
    assert doc["covers"] == [["L1+", "L2+"], ["L1+", "L3+"]]


def test_poset_warns_in_one_line_without_the_source_location(
        algebra_file, capsys):
    # the library's UserWarning, as one line with no file path or source
    code, out = run("poset", algebra_file(trivial_algebra()))
    assert code == 0
    assert json.loads(out) == {"nodes": ["trivial"], "covers": []}
    assert capsys.readouterr().err == (
        "warning: si_poset input 0 (FiniteAlgebra(trivial, n=1)) is not "
        "subdirectly irreducible\n")


def test_poset_warns_once_per_unnamed_non_si_input(algebra_file, capsys):
    # unnamed algebras share a repr; the position tells the lines apart
    a = product(ln_plus(1), ln_plus(2)).rename("")
    b = product(ln_plus(1), cn_delta(2)).rename("")
    files = [algebra_file(a, "a.json"), algebra_file(ln_plus(2), "l2.json"),
             algebra_file(b, "b.json")]
    code, _ = run("poset", *files)
    assert code == 0
    assert capsys.readouterr().err == (
        "warning: si_poset input 0 (FiniteAlgebra(?, n=6)) is not "
        "subdirectly irreducible\n"
        "warning: si_poset input 2 (FiniteAlgebra(?, n=6)) is not "
        "subdirectly irreducible\n")


def test_poset_warning_line_ignores_the_process_warning_filters(
        algebra_file, capsys):
    # under an "error" filter the warning used to escape as a traceback
    path = algebra_file(lm_delta(3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run("poset", path)
    assert code == 0 and json.loads(out)["nodes"] == ["LM3d"]
    assert capsys.readouterr().err == (
        "warning: si_poset input 0 (FiniteAlgebra(LM3d, n=4)) is not "
        "subdirectly irreducible\n")


def test_downsets_command(tmp_path):
    p = tmp_path / "p.json"
    p.write_text(json.dumps({"nodes": ["a", "b"], "leq": [["a", "b"]]}))
    doc = run_json("downsets", str(p))
    assert sorted(doc["nodes"]) == sorted(["{}", "{a}", "{a,b}"])
    assert len(doc["covers"]) == 2


def test_downset_labels_are_distinct(tmp_path):
    # a node name with a comma used to print {a,b} for two downsets
    p = tmp_path / "p.json"
    p.write_text(json.dumps({"nodes": ["a", "b", "a,b", "c\\", "{d}"],
                             "leq": [["a", "b"]]}))
    doc = run_json("downsets", str(p))
    assert len(doc["nodes"]) == len(set(doc["nodes"])) == 24
    assert "{a,b}" in doc["nodes"] and "{a\\,b}" in doc["nodes"]
    assert "{a,a\\,b,b,c\\\\,\\{d\\}}" in doc["nodes"]
    covered = {b for _, b in doc["covers"]}
    assert covered == set(doc["nodes"]) - {"{}"}


def _chain_document(path, n, cycle=False):
    nodes = [f"n{i}" for i in range(n)]
    leq = [list(p) for p in zip(nodes, nodes[1:])]
    if cycle:
        leq.append([nodes[-1], nodes[0]])
    path.write_text(json.dumps({"nodes": nodes, "leq": leq}))
    return str(path)


def test_downsets_checks_the_cap_before_closing_the_order(tmp_path, capsys,
                                                         monkeypatch):
    # closing the order and testing every pair both ways used to take
    # seconds before a 2,000-node document met the cap
    monkeypatch.delenv("MVMLAB_CAP_DOWNSET", raising=False)
    path = _chain_document(tmp_path / "p.json", 2000)
    start = time.perf_counter()
    code, out = run("downsets", path)
    elapsed = time.perf_counter() - start
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == "error: poset size is 2000, above " \
        "the cap 12 (MVMLAB_CAP_DOWNSET)\n"
    assert elapsed < 0.1
    # over the cap and cyclic: the cap is reported; under it, the cycle
    run("downsets", _chain_document(tmp_path / "c.json", 13, cycle=True))
    assert capsys.readouterr().err.startswith("error: poset size is 13, ")
    run("downsets", _chain_document(tmp_path / "c.json", 3, cycle=True))
    assert capsys.readouterr().err == \
        "error: leq relates 'n0' and 'n1' both ways\n"


def test_dot_labels_are_escaped(tmp_path):
    p = tmp_path / "p.json"
    p.write_text(json.dumps({"nodes": ['a"b', "c\\d"],
                             "leq": [['a"b', "c\\d"]]}))
    code, text = run("downsets", str(p), "--dot")
    assert code == 0
    assert '  n1 [label="{a\\"b}"];' in text
    # the label names c\d with its backslash escaped, \\ in DOT
    assert '  n2 [label="{a\\"b,c\\\\\\\\d}"];' in text
    # every label is one DOT string: no quote left unescaped inside it
    labels = re.findall(r'\[label=(.*)\];$', text, re.M)
    assert len(labels) == 3
    assert all(re.fullmatch(r'"(?:[^"\\]|\\.)*"', s) for s in labels)


def test_unknown_file_and_target_exit_codes(tmp_path):
    assert run("axioms", str(tmp_path / "missing.json"))[0] == 1
    assert run("repro", "fig99")[0] == 1
    assert cli.run([], io.StringIO()) == 2  # no subcommand


# ---------------------------------------------------------------------------
# figure reproduction

def test_repro_counts():
    assert run_json("repro", "counts") == {
        "size3": 4, "size4_total": 19,
        "size4_siNecessary": 9, "size5_siNecessary": 35}


def test_repro_fig3_names():
    doc = run_json("repro", "fig3")
    assert [a["name"] for a in doc] == ["C2d", "L2", "L2+", "C2n"]


def test_repro_fig4_names():
    doc = run_json("repro", "fig4")
    assert sorted(a["name"] for a in doc) == \
        ["A3d", "A3n", "B3d", "B3n", "C3d", "C3n", "L3+", "LM3d", "LM3n"]


def test_repro_fig6_is_the_boolean_cube():
    doc = run_json("repro", "fig6")
    assert len(doc["nodes"]) == 8 and len(doc["covers"]) == 12


def test_repro_fig7_poset():
    doc = run_json("repro", "fig7")
    assert len(doc["nodes"]) == 11 and len(doc["covers"]) == 14


def test_repro_fig8_and_fig9_sizes():
    assert len(run_json("repro", "fig8")["nodes"]) == 14
    assert len(run_json("repro", "fig9")["nodes"]) == 9


def test_repro_fig1_fig2_variety_posets():
    doc = run_json("repro", "fig1")
    assert doc["continues"] is True
    assert "trivial" in doc["nodes"]
    doc = run_json("repro", "fig2", )
    assert "C2d" in doc["nodes"] and "C2n" in doc["nodes"]


def test_repro_depth_extends_fig1_and_fig2():
    for target, depth, gained in (("fig1", "7", {"L7+"}),
                                  ("fig2", "5", {"C5d", "C5n", "L5+"})):
        before = set(run_json("repro", target)["nodes"])
        after = set(run_json("repro", target, "--depth", depth)["nodes"])
        assert not gained & before and gained <= after
        assert before <= after


def test_repro_depth_below_one_is_a_bad_argument():
    # it used to fall back to the default depth (fig1 --depth 0) or draw a
    # two-node figure (fig2 --depth -2), exiting 0
    for target, depth in (("fig1", "0"), ("fig2", "-2")):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, text = run("repro", target, "--depth", depth)
        assert code == 1 and text == ""
        assert err.getvalue() == \
            f"error: --depth must be at least 1, got {depth}\n"
    assert "L2+" in run_json("repro", "fig1", "--depth", "2")["nodes"]
    # the other targets ignore --depth, as before
    assert run("repro", "fig7", "--depth", "0") == run("repro", "fig7")


def test_repro_dot_output_is_byte_stable():
    for target in ("fig6", "fig7", "fig9"):
        a = run("repro", target, "--dot")
        b = run("repro", target, "--dot")
        assert a == b and a[0] == 0
        assert a[1].startswith("digraph")


# SHA-256 digests of stdout, as JSON and as --dot: a digest fails when
# any byte of that output changes
_GOLDEN_REPRO = {
    "fig1": (
        "d54bbbe4ae8288ea6595121f086be2ccea88e380d5e8717ec6938fa4d55321e5",
        "28c2b9a60aceff52b95dce5df6308f6bb73e5cf1f4b39e6bf70ef30334bb333b"),
    "fig2": (
        "10352417fcba22d24d972db92cc718c31444f496821e1eea4c0cab152fedd6ef",
        "d3e5522dcc800353bad4a0beab0383ad2ccde632536fbbafb2c052349d29c05d"),
    "fig3": (
        "60e31ea9789f62ef59969949987b14e7fe87a16de95bf1af8799093431ca0c22",
        "60e31ea9789f62ef59969949987b14e7fe87a16de95bf1af8799093431ca0c22"),
    "fig4": (
        "6bb6ff1a64764b858456f74c55f924fa0b640422b161ca3eb5c26bad009a3565",
        "6bb6ff1a64764b858456f74c55f924fa0b640422b161ca3eb5c26bad009a3565"),
    "fig6": (
        "effe0e1deaf58ffd5462df8bb19a2c7139c54341d3e39bbc4a12a97a8bec0d1e",
        "7ec0f37fca6cff0732a3893afef5104f8d98eebebff6cae3e462b38c20cfd18a"),
    "fig7": (
        "357b17596cba9f773923e56963099c57e276fdc8e4ff25a580101dd36720ab3c",
        "b4bff9e3496f7508c9568a4d65f5abf7040f780a7dd28fbc59f5273d4078d68e"),
    "fig8": (
        "04f8fd86349d3ce83a72518e517756a6fed2420afa20451287a08980af0c5326",
        "85be62ff76b7a3a45cb0c352df3463b729c5057915193fd012625599904afe85"),
    "fig9": (
        "52c3745cfc81ce3b027915757c7b321aa5f98bd35b97eb62d3e1fb474f2eab45",
        "3630d5b1df2b76134c91c3256ba96ed0091e5aad4ff000b487b19bf78605fa49"),
    "counts": (
        "22ec0c86f180a069573e2d716c897543db9ae8bba6d908feb9705c055dd4eb0e",
        "22ec0c86f180a069573e2d716c897543db9ae8bba6d908feb9705c055dd4eb0e"),
}

_GOLDEN_CONGRUENCES = [
    # L1+^4
    ("96179488a1246d0db6500e25643a038c0e5ddcbd6d9d456c47c25b5bac20e695",
     "2d8defd574de27ea32152ea0bf8ab763e926c7e47cb6b7bc6f5b80bd75b39f96"),
    # L2+ x L3+ relabeled by shuffled(_, 5)
    ("7a731100fccb8853b1b2aa922be71a7d30d20f0fc9fe018ab874a3bfe3f8915b",
     "540ed500e0d729065be6bb2aa04da2acd00ed063389460401b4a7a039a10b646"),
    # the chain C4 delta
    ("7b2a0ddbaec3b3632daa1d216dc2326a6e4c8fb2fe0ae3bee8987ba98e668d90",
     "2eae13e3aa0b0ff92abc704660cd085071b2098df2f7ead727569ccbfcaba162"),
    # random_operations(L1+ x L2+, Random(28), 0.05): non-commutative, no
    # MV-monoid, five congruences
    ("9f80dbe1d5881613ef6eacad8114a91de92d4b5de3276b6388cf8dfcd1f708a4",
     "8c89ad0730c7e300d8e2837ac7fbc0164b0c4fd89e71db7f895c4452eb313e85"),
    # the trivial algebra
    ("108ab97ada3a0e864d69bfec0b1a6fed3cb5bdeacbb921f90585f0de558fea69",
     "eb85d52ee908fdc503362011769a96906afe6cb2350492818fc205c7a4e2f0af"),
]


# what `save` writes: `construct` of each catalog name, and the files of
# `enumerate --size 5 --filter si --out`, in name order, each digested as
# its name, a NUL byte and its contents
_GOLDEN_CONSTRUCT = {
    "A3d":
        "46bf402bbf737e02f7b995477b6a270f3e45a5d6ee23ccd6f58bd5e783a942f1",
    "A3n":
        "6dc1b7522f07a4f1c73c4d01f745989d7c87bef12222f5bbc55e48aa94eff78b",
    "B3d":
        "c7e77fe4c6aad25d9e99c15c99249ad094874f2db4f75e1281bd8d49736fadcd",
    "B3n":
        "4919b0b6590ba5beef2d4299214852b1496a3914b6e9b2ea82bbb4071995bed6",
    "C2d":
        "4d4f5fc69ecc9cd58cfcd9311f85290d2322d88de7036e5ac8c1f84c0e383a44",
    "C2n":
        "d6e2081e71ee7f4ede312fbf60fcfe5108c9afb82351e01e3028c0d1dbc7292d",
    "C3d":
        "89cca0e68c11bd43470f2fe1470185e8f6886bc223d26b9a23ed795cb6d06497",
    "C3n":
        "699184c8fa508b7f9ba0888684e800f9e741ed33be29ecb3a784a53278fb89fd",
    "L1+":
        "9021d31d09a5a8c37fcd1f3125c65eb1c00c94d6a521d75378de8495853e40be",
    "L2":
        "9edea1f47430255e6c83fc8fdbc1c18f1ed2f0b145de50a2e19560e13f678657",
    "L2+":
        "e46aee27c45c339ac7339596a9bcd67d9391370a983f1c301d7eda42bc32c954",
    "L3+":
        "f20511035217fb1f98881c08a55d73c6075c80666217140321337a821afbcded",
    "LM3d":
        "188b80392659ee71dc3f7624082731465889197c6825f0527018dae9933dd494",
    "LM3n":
        "d18e86ea45f06f045fe9eb19e85c0f810d39f0a81d1fe693aaa48cf268210ff8",
    "trivial":
        "458139eac589fc0b566fe0c6b4cdb82fb6dec5b31d900318e9d7de4dc0414dda",
}

_GOLDEN_ENUMERATE_FILES = (
    19,
    "92e49c9567c1dbe28951728521288fcaf7a7270ee42dba69d058db7edd0787ab")

# the same for `enumerate --size 6 --filter F --out`: they pin the chain6_k
# names, which count mirror images whose verdict is read off their twins
_GOLDEN_ENUMERATE_FILES_6 = {
    "si": (
        39,
        "04059ff590a05cbe57676051842985e975cb8208b290d00d15c275dba55807f4"),
    "si-necessary": (
        143,
        "692863b56f798fa0eaa918e17882b49f518f4aa1908c78de1ac30f196bab8462"),
    "positive": (
        16,
        "d0786a01468a11544396e2d76235f174a32b7f0052deb4eaf25cb27cff6d90c5"),
}


# the same for every other subcommand's stdout: an "@" argument names one of
# the documents below, written to a file first; stderr is empty except where
# _GOLDEN_STDERR says otherwise
_GOLDEN_INPUTS = {
    "LM3d": save(lm_delta(3)),
    "bad": {"size": 2, "zero": 0, "one": 1,
            "oplus": [[1, 1], [1, 1]], "odot": [[0, 0], [0, 1]]},
    "C2d": save(cn_delta(2)),
    "C2n": save(catalog("C2n")),
    "L2+": save(ln_plus(2)),
    "L3+": save(ln_plus(3)),
    "L4+": save(ln_plus(4)),
    "L6+": save(ln_plus(6)),
    "L1xL2": save(product(ln_plus(1), ln_plus(2))),
    "poset": {"nodes": ["a", "b", "c", "d"],
              "leq": [["a", "b"], ["a", "c"], ["c", "d"]]},
}

_GOLDEN_STDOUT = {
    "axioms": (
        ("axioms", "@LM3d"),
        "c0ac47fc7e3c18dd4d322d1af9ed42b84a24b963cf350db3af4d3aaa574175c3"),
    "axioms-failing": (
        ("axioms", "@bad"),
        "cd47f8e31aa0c586b7928fcee248066a903f078291f6bbfc0df40b2c164539ea"),
    "check-eq-holds": (
        ("check-eq", "@C2d", "--eq", "x + x ≈ x"),
        "90d4b1b72ab444eb85b1a9ef85176b7eb416eac2d552022a99eb8465d1b41d75"),
    "check-eq-fails": (
        ("check-eq", "@C2d", "--eq",
         "x + z ≈ y + z & x * z ≈ y * z => x ≈ y"),
        "35ff91b470a0fb75f0cf422c0eea41c43743921b577615ed47be0cd67379f4fa"),
    "phi": (
        ("phi", "@L3+", "--n", "2"),
        "f139a0636683e5a693b08f3edc1e5c85891ba1348222b2fab8d00cae8439c012"),
    "sigma": (
        ("sigma", "@L6+", "--set", "1,2,3,6"),
        "603c1ffc283a89eab18c053b7b5cce3e8a28fea8c0a321c7f64f6f35c9160f92"),
    "member": (
        ("member", "@L6+", "--set", "1,2,3"),
        "176104a10e5bfacb42a0b701e942b582e7e639082ec5fcd25a90df3804b539d4"),
    "classify": (
        ("classify", "@L2+", "@L3+"),
        "c4f37bda7e3c95ba5ba1f51b1d61b42f1e4c261099971cc4d63413703fa6dc52"),
    "hsu": (
        ("hsu", "@L4+", "@C2d"),
        "8b83a380788157d8f05ecd3df638abf3254c62b48c2f52719f4c85c88fe5b334"),
    "poset": (
        ("poset", "@L2+", "@L4+", "@C2d", "@C2n"),
        "184963a89227c832364420a2953794de0176cbd1f8ac76df90ef55f652cd1ee7"),
    "poset-dot": (
        ("poset", "@L2+", "@L4+", "@C2d", "@C2n", "--dot"),
        "3c60db7a4d91a969773236914c9367dedeef1f1ddaccc00d1db06faf8270176f"),
    "poset-non-si": (
        ("poset", "@L1xL2", "@L2+"),
        "45562f70489868d9557b470154ed56556b75581051fd827296ea91c21bba2f5c"),
    "downsets": (
        ("downsets", "@poset"),
        "e5f935d8541ad5debd3a8deb342cf8eba43758d289014fa56412e3d08eb95836"),
    "downsets-dot": (
        ("downsets", "@poset", "--dot"),
        "5508044ce1be74cf6bf585a566372c34bd4741957aae8305353c94bf55a5cc99"),
    "enumerate": (
        ("enumerate", "--size", "4", "--filter", "si"),
        "59406bbd521b0949626f849664f42a2c71ee6e316a74affb5403d73c88b5b3aa"),
    "enumerate-count-only": (
        ("enumerate", "--size", "5", "--count-only"),
        "08477c8f204bcd6364b09afc78eab9e7731dcef47489bb7bebdbde87ccc470ff"),
}

_GOLDEN_STDERR = {
    "poset-non-si": "warning: si_poset input 0 (FiniteAlgebra(L1+xL2+, n=6)) "
                    "is not subdirectly irreducible\n",
}


def _sha(*argv):
    code, text = run(*argv)
    assert code == 0, text
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", catalog_names())
def test_construct_output_matches_its_golden_digest(name):
    assert _sha("construct", name) == _GOLDEN_CONSTRUCT[name]


def _enumerate_files_digest(tmp_path, size, flt):
    run_json("enumerate", "--size", str(size), "--filter", flt, "--out",
             str(tmp_path))
    names = sorted(os.listdir(tmp_path))
    h = hashlib.sha256()
    for f in names:
        h.update(f.encode() + b"\0" + (tmp_path / f).read_bytes())
    return len(names), h.hexdigest()


def test_enumerate_files_match_their_golden_digest(tmp_path):
    assert _enumerate_files_digest(tmp_path, 5, "si") == \
        _GOLDEN_ENUMERATE_FILES


@pytest.mark.parametrize("flt", sorted(_GOLDEN_ENUMERATE_FILES_6))
def test_six_element_enumerate_files_match_their_golden_digest(tmp_path,
                                                               flt):
    assert _enumerate_files_digest(tmp_path, 6, flt) == \
        _GOLDEN_ENUMERATE_FILES_6[flt]


@pytest.mark.parametrize("target", sorted(_GOLDEN_REPRO))
def test_repro_output_matches_its_golden_digest(target):
    assert (_sha("repro", target), _sha("repro", target, "--dot")) == \
        _GOLDEN_REPRO[target]


@pytest.mark.parametrize("case", sorted(_GOLDEN_STDOUT))
def test_subcommand_output_matches_its_golden_digest(case, tmp_path, capsys):
    argv, digest = _GOLDEN_STDOUT[case]
    for name, obj in _GOLDEN_INPUTS.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    argv = [str(tmp_path / f"{a[1:]}.json") if a.startswith("@") else a
            for a in argv]
    assert _sha(*argv) == digest
    assert capsys.readouterr().err == _GOLDEN_STDERR.get(case, "")


def test_congruences_output_matches_its_golden_digest(algebra_file):
    L1 = ln_plus(1)
    algebras = [product(product(L1, L1), product(L1, L1)),
                shuffled(product(ln_plus(2), ln_plus(3)), 5), cn_delta(4),
                random_operations(product(L1, ln_plus(2)), random.Random(28),
                                  0.05),
                trivial_algebra()]
    assert len(algebras) == len(_GOLDEN_CONGRUENCES)
    for A, digests in zip(algebras, _GOLDEN_CONGRUENCES):
        path = algebra_file(A)
        assert (_sha("congruences", path),
                _sha("congruences", path, "--dot")) == digests


def test_repro_recomputes_instead_of_hardcoding():
    # the figure pipelines must derive their posets, not embed the answers:
    # no list/set/dict literal of edge pairs or node names inside the repro
    # helpers
    with open(cli.__file__) as fh:
        src = fh.read()
    tree = ast.parse(src)
    repro_funcs = [n for n in ast.walk(tree)
                   if isinstance(n, ast.FunctionDef)
                   and n.name.startswith("_repro_")]
    assert len(repro_funcs) >= 9
    for fn in repro_funcs:
        for node in ast.walk(fn):
            if isinstance(node, (ast.List, ast.Set, ast.Tuple)):
                consts = [e for e in node.elts if isinstance(e, ast.Constant)]
                strings = [e for e in consts if isinstance(e.value, str)]
                # generator seeds (a handful of names) are fine; edge lists
                # or full node rosters are not
                assert len(strings) <= 2, ast.dump(node)


# ---------------------------------------------------------------------------
# every subcommand on garbage input

_GARBAGE = [
    "{not json", "", "null", "[]", '{"size": 2}', '{"nodes": 5}',
    '{"size": 2, "zero": 0, "one": 1, "oplus": "x", "odot": [[0]]}',
    # a join table that is not a lattice
    json.dumps({"size": 2, "zero": 0, "one": 1, "oplus": [[0, 1], [1, 1]],
                "odot": [[0, 0], [0, 1]], "join": [[0, 0], [1, 1]],
                "meet": [[0, 0], [0, 1]]}),
    "[" * 100_000 + "]" * 100_000,
    # a poset whose leq closes to a <= b <= a
    json.dumps({"nodes": ["a", "b", "c"], "leq": [["a", "b"], ["b", "a"]]}),
]


def _subcommands():
    ap = cli._build_parser()
    sub = next(a for a in ap._actions
               if isinstance(a, argparse._SubParsersAction))
    return sorted(sub.choices.items())


def _garbage_argvs(tmp_path, algebra_file):
    """Per subcommand: no arguments; every positional a garbage file (or a
    missing one) with the required options set to 1; and, where options are
    required, garbage option values after a well-formed algebra file."""
    files = []
    for i, text in enumerate(_GARBAGE):
        p = tmp_path / f"garbage{i}.json"
        p.write_text(text)
        files.append(str(p))
    files.append(str(tmp_path / "missing.json"))
    good = algebra_file(ln_plus(2))
    for name, sp in _subcommands():
        positional = [a for a in sp._actions if not a.option_strings]
        required = [a.option_strings[0] for a in sp._actions
                    if a.option_strings and a.required]
        yield [name]
        if positional:
            for f in files:
                argv = [name] + [f] * len(positional)
                for opt in required:
                    argv += [opt, "1"]
                yield argv
        if required:
            argv = [name] + [good] * len(positional)
            for opt in required:
                argv += [opt, "garbage"]
            yield argv


def test_every_subcommand_rejects_garbage_without_a_traceback(
        tmp_path, algebra_file, capsys):
    seen = set()
    for argv in _garbage_argvs(tmp_path, algebra_file):
        code, out = run(*argv)
        err = capsys.readouterr().err
        assert code in (1, 2), argv
        assert "Traceback" not in err, argv
        seen.add(argv[0])
    assert seen == {name for name, _ in _subcommands()}
