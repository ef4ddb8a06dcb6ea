import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from toricjac import criterion, divisors, jacobian, linalg
from toricjac.divisors import canonical_divisor, pic_class
from toricjac.jacobian import JacobianSystem

import conftest
from conftest import (QUINTIC_55, TRIGONAL_D5, dense_section, lambda_section,
                      run_cli)

H1 = ["--surface", "hirzebruch:1"]
ROOT = Path(__file__).resolve().parents[1]

ETA_D5 = ("3*x2^3*x3^5 - 2*x1*x2^3*x3^4 - x2^2*x3^4*x4 + 3*x1^2*x2^3*x3^3"
          " + 3*x1*x2^2*x3^3*x4 - x2*x3^3*x4^2 + x1^3*x2^3*x3^2"
          " - x1^2*x2^2*x3^2*x4 + 3*x1*x2*x3^2*x4^2 - 2*x3^2*x4^3"
          " - 3*x1^4*x2^3*x3 + 2*x1^3*x2^2*x3*x4 - 2*x1^2*x2*x3*x4^2"
          " + x1^5*x2^3 - 3*x1^3*x2*x4^2 + 2*x1^2*x4^3")


def test_describe_surface_text():
    code, out, err = run_cli(["describe-surface"] + H1)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "surface: 4 rays, Picard rank 2"
    assert "  x2 = (0, 1)   self-intersection -1" in lines
    assert "maximal cones: (x3,x2) (x2,x1) (x1,x4) (x4,x3)" in lines
    assert "canonical class: (-1, -2)" in lines
    assert "K^2 = 8" in lines
    assert "Pic basis: classes of the rays x1, x4" in lines


def test_describe_surface_json():
    code, out, _ = run_cli(["describe-surface", "--json"] + H1)
    assert code == 0
    data = json.loads(out)
    assert data["labels"] == ["x3", "x2", "x1", "x4"]
    assert data["rays"] == [[1, 0], [0, 1], [-1, 1], [0, -1]]
    assert data["self_intersections"] == [0, -1, 0, 1]
    assert data["K2"] == 8
    assert data["canonical_class"] == [-1, -2]
    assert data["pic_basis_rays"] == ["x1", "x4"]
    assert sorted(data["irrelevant_generators"]) == [
        "x1*x2", "x1*x4", "x2*x3", "x3*x4"]


def test_paper_table_text():
    code, out, _ = run_cli(["paper-table"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "  d  S_beta  J1_beta  R1_beta    g  bound  verdict"
    assert lines[1] == "  5      18        7       11    5      1  certified"
    assert lines[6] == " 10      38        7       31   15     11  certified"
    assert len(lines) == 7


def test_paper_table_json():
    code, out, _ = run_cli(["paper-table", "--json"])
    assert code == 0
    rows = json.loads(out)
    assert [r["d"] for r in rows] == list(range(5, 11))
    assert [r["R1_beta"] for r in rows] == [11, 15, 19, 23, 27, 31]
    assert all(r["verdict"] == "certified" for r in rows)


def test_paper_table_range_validation():
    assert run_cli(["paper-table", "--dmin", "3"])[0] == 2
    assert run_cli(["paper-table", "--dmin", "8", "--dmax", "6"])[0] == 2


def test_criterion_text():
    code, out, _ = run_cli(
        ["criterion", "--class", "5,3", "--poly", TRIGONAL_D5] + H1)
    assert code == 0
    lines = out.splitlines()
    assert "beta divisor: (0, 3, 5, 0)  class (2, 3)" in lines
    assert "genus g = 5" in lines
    assert "bound value: 1  (must be < g-1 = 4)" in lines
    assert "verdict: certified" in lines
    assert "  beta+2K ample: no" in lines


def test_criterion_json():
    code, out, _ = run_cli(
        ["criterion", "--json", "--class", "5,3", "--poly", TRIGONAL_D5] + H1)
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "certified"
    assert data["bound_value"] == 1
    assert data["genus"] == 5
    assert data["dims"]["J1_beta"] == 7
    assert data["beta_class"] == [2, 3]
    assert data["beta_dot_K"] == -13
    assert data["failed_preconditions"] == []


def test_criterion_infers_beta_from_poly():
    with_class, out_a, _ = run_cli(
        ["criterion", "--class", "5,3", "--poly", TRIGONAL_D5] + H1)
    no_class, out_b, _ = run_cli(["criterion", "--poly", TRIGONAL_D5] + H1)
    assert with_class == no_class == 0
    # the inferred divisor is a different representative of the same class
    assert "class (2, 3)" in out_b
    assert out_a.splitlines()[3:] == out_b.splitlines()[3:]


def test_quick_criterion_text(p1xp1):
    code, out, _ = run_cli(
        ["quick-criterion", "--surface", "p1xp1",
         "--class", "5,5", "--poly", QUINTIC_55])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "mode: quick"
    assert "quick threshold: dim J1_beta <= 9" in lines
    assert "verdict: certified" in lines


def test_hilbert_class_of():
    code, out, _ = run_cli(
        ["hilbert", "--poly", TRIGONAL_D5, "--class-of", "2beta+2K"] + H1)
    assert code == 0
    assert out.splitlines() == [
        "divisor: (-2, -2, 2, 4)  class (2, 2)",
        "dim S  = 12",
        "dim J1 = 1",
        "dim R1 = 11",
    ]


def test_class_of_spellings_agree():
    base = run_cli(
        ["hilbert", "--poly", TRIGONAL_D5, "--class-of", "2beta+2K"] + H1)
    for expr in ("2*beta + 2*K", "2β+2K", "2beta+K+K"):
        assert run_cli(
            ["hilbert", "--poly", TRIGONAL_D5, "--class-of", expr] + H1) == base
    # a leading minus needs the = form so argparse does not read it as a flag
    assert run_cli(
        ["hilbert", "--poly", TRIGONAL_D5, "--class-of=-K+2beta+3K"] + H1) == base


def test_class_of_pure_K():
    code, out, _ = run_cli(["basis", "--class-of=-K"] + H1)
    assert code == 0
    assert "class (1, 2)" in out.splitlines()[0]
    code, out, _ = run_cli(["basis", "--class-of", "K"] + H1)
    assert code == 0
    assert "dimension: 0" in out
    code, out, _ = run_cli(["basis", "--surface", "p2", "--class-of=-K"])
    assert code == 0
    assert out.splitlines()[:2] == ["divisor: (1, 1, 1)  class (3,)", "dimension: 10"]
    # argparse reads a separate "-K" as an option, not as the value
    code, out, err = run_cli(["basis", "--surface", "p2", "--class-of", "-K"])
    assert (code, out) == (2, "")
    assert "argument --class-of: expected one argument" in err


def test_class_of_needs_beta():
    code, _, err = run_cli(["basis", "--class-of", "2beta"] + H1)
    assert code == 2
    assert "no beta is available" in err


def test_class_of_parse_error():
    code, _, err = run_cli(
        ["hilbert", "--poly", TRIGONAL_D5, "--class-of", "2gamma"] + H1)
    assert code == 2
    assert "cannot parse class expression" in err


def test_class_of_needs_sign_between_terms():
    for expr in ("2beta2K", "betaK"):
        code, out, err = run_cli(
            ["hilbert", "--poly", TRIGONAL_D5, "--class-of", expr] + H1)
        assert code == 2 and out == ""
        assert err.startswith("error: cannot parse class expression")


def test_class_of_only_on_commands_that_read_it():
    # criterion, quick-criterion and find-eta take beta from --class or f
    for cmd in ("criterion", "quick-criterion", "find-eta"):
        code, out, err = run_cli(
            [cmd, "--poly", TRIGONAL_D5, "--class-of", "2beta"] + H1)
        assert code == 2 and out == ""
        assert "unrecognized arguments: --class-of 2beta" in err


# Every option of every command, with a value that makes the command fail fast.
_OPTIONS = {
    "--surface": ["nosuch"], "--fan-file": ["no/such/fan.json"],
    "--class": ["5,3"], "--class-of": ["2beta"],
    "--poly": [TRIGONAL_D5], "--poly-file": ["no/such/f.txt"],
    "--max-dim": ["4"], "--kmax": ["9"], "--dump-subspaces": [],
    "--attempts": ["2"], "--seed": ["7"], "--dmin": ["3"], "--dmax": ["3"],
    "--json": [],
}
_SURFACE, _POLY = {"--surface", "--fan-file"}, {"--poly", "--poly-file"}
_ACCEPTS = {
    "describe-surface": _SURFACE | {"--json"},
    "basis": _SURFACE | _POLY | {"--class", "--class-of", "--json"},
    "nondegenerate": _SURFACE | _POLY | {"--kmax", "--json"},
    "hilbert": _SURFACE | _POLY | {"--class", "--class-of", "--dump-subspaces", "--json"},
    "criterion": _SURFACE | _POLY | {"--class", "--json"},
    "quick-criterion": _SURFACE | _POLY | {"--class", "--json"},
    "find-eta": _SURFACE | _POLY | {"--class", "--attempts", "--seed", "--json"},
    "paper-table": {"--dmin", "--dmax", "--json"},
}


def test_each_command_takes_exactly_its_options():
    # every argv fails fast (no surface, a missing file or a bad range), so
    # an accepted option shows as an input error, a foreign one as argparse's
    for cmd, accepted in _ACCEPTS.items():
        for option, values in _OPTIONS.items():
            argv = [cmd, option, *values]
            if cmd == "paper-table" and option == "--json":
                argv += ["--dmin", "3"]
            code, out, err = run_cli(argv)
            assert code == 2 and out == "", argv
            refused = f"unrecognized arguments: {' '.join([option, *values])}" in err
            assert refused == (option not in accepted), (argv, err)


def _fresh_process(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-m", "toricjac", *argv], cwd=ROOT,
                          env=env, capture_output=True, text=True)
    return done.returncode, done.stdout, done.stderr


def test_parser_is_built_once_and_reused(monkeypatch):
    run_cli(["paper-table", "--dmin", "3"])
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert run_cli(["basis", "--class", "2,1"] + H1)[0] == 0
    assert run_cli(["describe-surface"])[0] == 2
    assert built == []


def test_import_builds_no_parser():
    probe = ("import argparse\n"
             "built = []\n"
             "init = argparse.ArgumentParser.__init__\n"
             "def counting(self, *a, **k):\n"
             "    built.append(1)\n"
             "    init(self, *a, **k)\n"
             "argparse.ArgumentParser.__init__ = counting\n"
             "import toricjac.cli as cli\n"
             "after_import = len(built)\n"
             "cli.main(['paper-table', '--dmin', '3'])\n"
             "after_one = len(built)\n"
             "cli.main(['describe-surface'])\n"
             "print(after_import, after_one, len(built))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True)
    # one top-level parser and one per command, all on the first call
    assert done.stdout.split() == ["0", "9", "9"], done.stderr


def test_import_loads_no_dataclasses_or_inspect():
    # The modules a fresh interpreter's import of the CLI adds to those it
    # started with, which are those of `python -c pass`.  dataclasses and
    # the modules it imports cost about a third of the import, so they stay
    # out; the CLI's own imports stay at module level, so a command pays
    # no import the start-up time leaves out.
    probe = ("import sys\n"
             "before = set(sys.modules)\n"
             "import toricjac.cli\n"
             "print(*sorted(before))\n"
             "print(*sorted(sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True)
    before, after = (set(line.split()) for line in done.stdout.splitlines())
    added = after - before
    assert "toricjac.cli" in added, done.stderr
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize"}, added
    assert {"argparse", "json", "fractions", "random", "re"} <= after, added


def test_interleaved_commands_carry_no_state():
    pairs = [
        (["find-eta", "--class", "5,3", "--poly", TRIGONAL_D5] + H1, ["--seed", "7"]),
        (["hilbert", "--poly", TRIGONAL_D5, "--class-of", "2beta+2K"] + H1,
         ["--dump-subspaces"]),
        (["basis", "--class", "2,1"] + H1, ["--json"]),
        (["nondegenerate", "--poly", TRIGONAL_D5] + H1, ["--kmax", "9"]),
    ]
    argvs = [argv for base, extra in pairs for argv in (base + extra, base)]
    in_process = [run_cli(argv) for argv in argvs]
    for argv, result in zip(argvs, in_process):
        assert result == _fresh_process(argv), argv


def test_blank_class_is_refused():
    for cmd in ("basis", "hilbert"):
        for expr in ("", "  "):
            code, out, err = run_cli(
                [cmd, "--poly", TRIGONAL_D5, "--class-of", expr] + H1)
            assert code == 2 and out == ""
            assert err.startswith("error: cannot parse class expression")
    code, out, err = run_cli(["criterion", "--poly", TRIGONAL_D5, "--class", ""] + H1)
    assert code == 2 and out == ""
    assert err.startswith("error: --class needs 2 comma-separated integers")


def test_basis_text():
    code, out, _ = run_cli(["basis", "--class", "2,1"] + H1)
    assert code == 0
    assert out.splitlines() == [
        "divisor: (0, 1, 2, 0)  class (1, 1)",
        "dimension: 5",
        "  x1*x4",
        "  x1^2*x2",
        "  x3*x4",
        "  x1*x2*x3",
        "  x2*x3^2",
    ]


def test_basis_json():
    code, out, _ = run_cli(["basis", "--json", "--class", "2,1"] + H1)
    data = json.loads(out)
    assert code == 0
    assert data["dimension"] == 5
    assert data["monomials"][0] == "x1*x4"
    assert len(data["exponents"]) == 5


# the class of the first piece each command lists above
# divisors.MAX_BASIS_DIM: S_beta for the criterion commands, S_{120beta}
# for hilbert; the wide polygons have about 10^8 to 10^12 columns, and are
# refused once the columns counted so far pass the budget
P1XP1_400 = ["--surface", "p1xp1", "--class", "400,400",
             "--poly", "x1^400*x2^400 + x3^400*x4^400"]
_OVERSIZED = {
    "basis": (["basis", "--surface", "p1xp1", "--class", "2000,2000"],
              "(2000, 2000)"),
    "hilbert": (["hilbert", "--poly", TRIGONAL_D5, "--class-of", "120beta"] + H1,
                "(240, 360)"),
    "criterion": (["criterion"] + P1XP1_400, "(400, 400)"),
    "quick-criterion": (["quick-criterion"] + P1XP1_400, "(400, 400)"),
    "find-eta": (["find-eta"] + P1XP1_400, "(400, 400)"),
    "basis-wide": (["basis", "--surface", "p1xp1", "--class", "100000000,0"],
                   "(100000000, 0)"),
    "nondegenerate-wide": (["nondegenerate", "--surface", "p1xp1", "--poly", "x1*x2+x3*x4",
                            "--kmax", "1000000000000"], "(1000000000000, 1000000000000)"),
    "hilbert-wide": (["hilbert", "--surface", "p2", "--poly", "x1^3+x2^3+x3^3",
                      "--class-of", "30000000beta"], "(90000000,)"),
}


@pytest.mark.parametrize("argv, piece", _OVERSIZED.values(), ids=_OVERSIZED)
def test_oversized_piece_is_refused_quickly(monkeypatch, argv, piece):
    # every piece elimination, exact or mod P, starts from these rows
    monkeypatch.setattr(JacobianSystem, "_j0_rows", _must_not_run)
    start = time.perf_counter()
    code, out, err = run_cli(argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == f"error: the piece of class {piece} has more than 100000 monomials\n"


def test_basis_budget_is_inclusive(monkeypatch):
    argv = ["basis", "--class", "2,1"] + H1
    monkeypatch.setattr(divisors, "MAX_BASIS_DIM", 5)
    assert run_cli(argv)[0] == 0
    monkeypatch.setattr(divisors, "MAX_BASIS_DIM", 4)
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert err == "error: the piece of class (1, 1) has more than 4 monomials\n"


def test_nondegenerate_text(p1xp1):
    lam1 = lambda_section(p1xp1, 1).to_text()
    code, out, _ = run_cli(
        ["nondegenerate", "--surface", "p1xp1", "--poly", lam1])
    assert code == 0
    assert out == "chart decision: nondegenerate\n"
    lam0 = lambda_section(p1xp1, 0).to_text()
    code, out, _ = run_cli(
        ["nondegenerate", "--surface", "p1xp1", "--poly", lam0])
    assert code == 0
    assert out.splitlines() == [
        "chart decision: degenerate",
        "witness: chart 0: cone (x3, x2)",
    ]


def test_nondegenerate_certificate():
    code, out, _ = run_cli(
        ["nondegenerate", "--poly", TRIGONAL_D5, "--kmax", "9"] + H1)
    assert code == 0
    assert out.splitlines()[-1] == "saturation certificate: certified(9)"
    code, out, _ = run_cli(
        ["nondegenerate", "--poly", TRIGONAL_D5, "--kmax", "8"] + H1)
    assert code == 0
    assert out.splitlines()[-1] == "saturation certificate: undetermined(k_max=8)"
    assert run_cli(["nondegenerate", "--poly", TRIGONAL_D5,
                    "--kmax", "0"] + H1)[0] == 2


# a degenerate section: no power of the irrelevant ideal lies in its J0, so
# the certificate would try every k up to --kmax
DEGENERATE_22 = ["--surface", "p1xp1",
                 "--poly", "x1^2*x2^2 + x1^2*x4^2 + x3^2*x2^2 + x3^2*x4^2"]


def test_kmax_above_the_budget_is_refused_quickly(monkeypatch):
    # the 1000th power of an irrelevant generator has a piece of 1001^2
    # monomials: it is counted, and refused before any product is listed
    # and before the chart decision
    monkeypatch.setattr(JacobianSystem, "j0_piece", _must_not_run)
    monkeypatch.setattr(JacobianSystem, "nondegenerate_decide", _must_not_run)
    start = time.perf_counter()
    code, out, err = run_cli(["nondegenerate", "--kmax", "1000"] + DEGENERATE_22)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == ("error: the piece of class (1000, 1000) has more than 100000 "
                   "monomials\n")


def test_kmax_on_a_degenerate_section_skips_the_certificate(monkeypatch):
    # a certificate implies nondegeneracy, so after the chart decision says
    # degenerate no power of the irrelevant ideal is tried
    monkeypatch.setattr(JacobianSystem, "j0_piece", _must_not_run)
    monkeypatch.setattr(JacobianSystem, "saturation_certificate", _must_not_run)
    start = time.perf_counter()
    assert run_cli(["nondegenerate", "--kmax", "60"] + DEGENERATE_22) == (
        0, "chart decision: degenerate\n"
           "witness: chart 0: cone (x3, x2)\n"
           "saturation certificate: undetermined(k_max=60)\n", "")
    assert time.perf_counter() - start < 1


def test_kmax_budget_is_inclusive(monkeypatch):
    # at k_max = 9 on trigonal d=5 the largest piece the certificate reads is
    # the ninth power of a generator, of 145 monomials; at that budget the
    # README output is unchanged
    argv = ["nondegenerate", "--poly", TRIGONAL_D5, "--kmax", "9"] + H1
    monkeypatch.setattr(divisors, "MAX_BASIS_DIM", 145)
    assert run_cli(argv) == (0, "chart decision: nondegenerate\n"
                                "saturation certificate: certified(9)\n", "")
    monkeypatch.setattr(divisors, "MAX_BASIS_DIM", 144)
    monkeypatch.setattr(JacobianSystem, "j0_piece", _must_not_run)
    assert run_cli(argv) == (2, "", "error: the piece of class (9, 9) has more "
                                    "than 144 monomials\n")


def test_hilbert_j1_budget_is_inclusive(monkeypatch):
    # J1 at D is one elimination in the piece of class D - K, the largest
    # piece hilbert lists: h0(2beta + K) = 30 on the trigonal d=5 section
    argv = ["hilbert", "--poly", TRIGONAL_D5, "--class-of", "2beta+2K"] + H1
    monkeypatch.setattr(divisors, "MAX_BASIS_DIM", 30)
    assert run_cli(argv)[0] == 0
    monkeypatch.setattr(divisors, "MAX_BASIS_DIM", 29)
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert err == "error: the piece of class (3, 4) has more than 29 monomials\n"


def test_zero_section_without_a_class_is_refused_as_zero():
    zero = (2, "", "error: f must be nonzero\n")
    for cmd in ("criterion", "find-eta", "hilbert", "basis", "nondegenerate"):
        assert run_cli([cmd, "--poly", "0"] + H1) == zero
    for cmd in ("hilbert", "basis"):
        assert run_cli([cmd, "--poly", "0", "--class-of", "2beta+2K"] + H1) == zero
    # refused before the class is read, whether or not the class is valid
    for cmd in ("criterion", "quick-criterion", "find-eta", "hilbert", "basis"):
        for cls in ("5,3", "2,1", "7"):
            assert run_cli([cmd, "--poly", "0", "--class", cls] + H1) == zero


@pytest.mark.parametrize("argv, message", [
    (["basis", "--class", "1,0", "--poly", ""] + H1, "empty polynomial expression"),
    (["nondegenerate", "--surface", "p1xp1", "--poly", ""], "empty polynomial expression"),
    (["nondegenerate", "--surface", "p1xp1", "--poly-file", ""],
     "cannot read polynomial file"),
    (["nondegenerate", "--surface", "p1xp1", "--poly", "", "--poly-file", ""],
     "give either --poly or --poly-file, not both"),
    (["describe-surface", "--surface", ""], "unknown surface ''"),
    (["describe-surface", "--fan-file", ""], "cannot read fan file"),
    (["describe-surface", "--surface", "", "--fan-file", ""],
     "give either --surface or --fan-file, not both"),
], ids=["basis-poly", "poly", "poly-file", "poly-and-poly-file", "surface",
        "fan-file", "surface-and-fan-file"])
def test_an_empty_option_value_is_read_as_given(argv, message):
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}"), err


@pytest.mark.parametrize("terms", ["5", "null", '"x1"', "{}"])
def test_polynomial_json_without_a_terms_list_exits_2(tmp_path, terms):
    path = tmp_path / "f.json"
    path.write_text(f'{{"terms": {terms}}}')
    code, out, err = run_cli(["nondegenerate", "--surface", "p1xp1",
                              "--poly-file", str(path)])
    assert (code, out) == (2, "")
    assert err == "error: polynomial JSON must be an object with a 'terms' list\n"


def test_dangling_operator_in_a_polynomial_exits_2():
    code, out, err = run_cli(["nondegenerate", "--surface", "p1xp1", "--poly", "x1*"])
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot parse polynomial")


def _must_not_run(*args, **kwargs):
    raise AssertionError("a bad count must be refused before any computation")


def test_bad_counts_are_refused_before_computing(monkeypatch):
    monkeypatch.setattr(criterion, "_evaluate", _must_not_run)
    monkeypatch.setattr(JacobianSystem, "nondegenerate_decide", _must_not_run)
    code, out, err = run_cli(["find-eta", "--class", "5,3", "--poly", TRIGONAL_D5,
                              "--attempts", "0"] + H1)
    assert (code, out, err) == (2, "", "error: attempts must be at least 1\n")
    code, out, err = run_cli(["nondegenerate", "--poly", TRIGONAL_D5,
                              "--kmax", "0"] + H1)
    assert (code, out, err) == (2, "", "error: k_max must be at least 1\n")


def test_find_eta_text():
    code, out, _ = run_cli(
        ["find-eta", "--class", "5,3", "--poly", TRIGONAL_D5] + H1)
    assert code == 0
    assert out.splitlines() == [
        "genus g = 5",
        "seed = 1729",
        "attempts used = 1",
        "found: yes  (rank 5)",
        "eta = " + ETA_D5,
    ]


def test_find_eta_json():
    code, out, _ = run_cli(
        ["find-eta", "--json", "--class", "5,3", "--poly", TRIGONAL_D5] + H1)
    data = json.loads(out)
    assert code == 0
    assert data["found"] is True
    assert data["rank"] == data["genus"] == 5
    assert data["attempts_used"] == 1
    assert data["seed"] == 1729
    assert data["eta_text"] == ETA_D5
    assert len(data["matrix"]) == 5


# sha256 of `find-eta --json` on the seeded dense p1xp1 (6,6) section, the
# section CI checks too.  Its J1 piece at 2beta+K eliminates 147 rows to an
# RREF with entries of about 500 bits.
W4_6_SHA256 = "7649105abacc84194419b3a34b7c49199f8c165e91667b45b237285d86377074"


def test_find_eta_json_on_the_dense_6_6_section_is_pinned():
    workloads = conftest._perfbench_workloads()
    poly = workloads.dense_section_text(0, 6, 6, random.Random("w4:1"))
    code, out, err = run_cli(["find-eta", "--surface", "p1xp1", "--class", "6,6",
                              "--poly", poly, "--json"])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == W4_6_SHA256


def test_find_eta_reports_the_best_rank_when_it_finds_none(monkeypatch):
    # every seed finds rank g on this section, so the search is shown rank
    # g - 1 for every eta
    rank = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda rows, ncols: rank(rows, ncols) - 1)
    argv = ["find-eta", "--attempts", "2", "--class", "5,3", "--poly", TRIGONAL_D5] + H1
    assert run_cli(argv) == (0, "genus g = 5\nseed = 1729\nattempts used = 2\n"
                                "found: no  (best rank 4)\n", "")
    code, out, _ = run_cli(argv + ["--json"])
    assert code == 0
    assert json.loads(out) == {"found": False, "rank": 4, "genus": 5,
                               "attempts_used": 2, "seed": 1729, "best_rank": 4}


def test_find_eta_seed_changes_eta():
    a = run_cli(["find-eta", "--class", "5,3", "--poly", TRIGONAL_D5] + H1)
    b = run_cli(["find-eta", "--seed", "7", "--class", "5,3",
                 "--poly", TRIGONAL_D5] + H1)
    assert a[0] == b[0] == 0
    assert "found: yes" in b[1]
    assert a[1] != b[1]


def test_find_eta_refuses_uncertified(p1xp1):
    lam0 = lambda_section(p1xp1, 0).to_text()
    code, _, err = run_cli(
        ["find-eta", "--surface", "p1xp1", "--class", "2,2", "--poly", lam0])
    assert code == 2
    assert "refusing to search" in err


def test_fan_file_roundtrip(tmp_path, dp7_fan):
    path = tmp_path / "dp7.json"
    path.write_text(json.dumps(dp7_fan.to_json()))
    code, out, _ = run_cli(["describe-surface", "--fan-file", str(path)])
    assert code == 0
    assert out.splitlines()[0] == "surface: 5 rays, Picard rank 3"
    assert "K^2 = 7" in out


def test_fan_file_label_outside_the_grammar_is_refused(tmp_path):
    path = tmp_path / "fan.json"
    path.write_text(json.dumps({"rays": [[1, 0], [0, 1], [-1, -1]],
                                "labels": ["x 1", "x2", "x3"]}))
    code, out, err = run_cli(["describe-surface", "--fan-file", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: label 'x 1' is not a variable name")


def test_fan_file_criterion(tmp_path, dp7_fan):
    beta = -2 * canonical_divisor(dp7_fan)
    f = dense_section(dp7_fan, beta)
    path = tmp_path / "dp7.json"
    path.write_text(json.dumps(dp7_fan.to_json()))
    code, out, _ = run_cli(
        ["criterion", "--fan-file", str(path), "--poly", f.to_text(),
         "--class", ",".join(str(c) for c in pic_class(dp7_fan, beta).vec)])
    assert code == 0
    assert "verdict: certified" in out
    assert "genus g = 8" in out


def test_poly_file_text_and_json(tmp_path):
    from toricjac.cox import poly_from_text
    from toricjac.fan import builtin_surface
    fan = builtin_surface("hirzebruch:1")
    f = poly_from_text(fan, TRIGONAL_D5)
    ptxt = tmp_path / "f.txt"
    ptxt.write_text(TRIGONAL_D5 + "\n")
    pjson = tmp_path / "f.json"
    pjson.write_text(json.dumps(f.to_json()))
    base = run_cli(["criterion", "--poly", TRIGONAL_D5] + H1)
    assert run_cli(["criterion", "--poly-file", str(ptxt)] + H1) == base
    assert run_cli(["criterion", "--poly-file", str(pjson)] + H1) == base


def _no_elimination(*args):
    raise AssertionError("this piece must be proved full without an elimination")


def test_hilbert_full_and_empty_j1_pieces(monkeypatch):
    # J1 at 3beta + K is proved full through J0 at its target 3beta by the
    # rank test, and J1 at beta + 3K has no monomials; neither eliminates
    no_echelon = SimpleNamespace(**{**vars(linalg), "echelon": _no_elimination})
    monkeypatch.setattr(jacobian, "linalg", no_echelon)
    hilbert = ["hilbert", "--poly", TRIGONAL_D5] + H1
    assert run_cli(hilbert + ["--class-of", "3beta+K"]) == (
        0, "divisor: (-1, -1, 5, 8)  class (5, 7)\n"
           "dim S  = 76\ndim J1 = 76\ndim R1 = 0\n", "")
    assert run_cli(hilbert + ["--class-of", "beta+3K"]) == (
        0, "divisor: (-3, -3, -1, 0)  class (-1, -3)\n"
           "dim S  = 0\ndim J1 = 0\ndim R1 = 0\n", "")


def test_class_on_p2_is_one_degree():
    code, out, _ = run_cli(["basis", "--surface", "p2", "--class", "2"])
    assert code == 0
    assert out.splitlines()[:2] == ["divisor: (2, 0, 0)  class (2,)", "dimension: 6"]
    assert run_cli(["basis", "--surface", "p2", "--class", "2,1"])[0] == 2


def test_hilbert_dump_subspaces():
    code, out, _ = run_cli(
        ["hilbert", "--poly", TRIGONAL_D5, "--class-of", "2beta+2K",
         "--dump-subspaces"] + H1)
    assert code == 0
    assert "J1 echelon basis:" in out
    assert "ambient monomials:" in out
    code, out, _ = run_cli(
        ["hilbert", "--json", "--poly", TRIGONAL_D5, "--class-of", "2beta+2K",
         "--dump-subspaces"] + H1)
    data = json.loads(out)
    sub = data["J1_subspace"]
    assert set(sub) == {"ambient", "rows", "pivots"}
    assert len(sub["rows"]) == data["dim_J1"] == 1


def test_validation_exit_codes(tmp_path):
    bad = [
        ["describe-surface"],
        ["describe-surface", "--surface", "weird"],
        ["describe-surface", "--surface", "p2", "--fan-file", "x.json"],
        ["describe-surface", "--fan-file", str(tmp_path / "missing.json")],
        ["basis", "--class", "1,2,3"] + H1,
        ["basis", "--class", "a,b"] + H1,
        ["basis"] + H1,
        ["hilbert", "--class", "5,3"] + H1,
        ["hilbert", "--class", "6,3", "--poly", TRIGONAL_D5] + H1,
        ["criterion"] + H1,
        ["criterion", "--poly", "x9"] + H1,
        ["criterion", "--poly", TRIGONAL_D5, "--poly-file", "f.txt"] + H1,
        ["find-eta", "--class", "5,3", "--poly", TRIGONAL_D5,
         "--attempts", "0"] + H1,
    ]
    for argv in bad:
        code, _, err = run_cli(argv)
        assert code == 2, argv
        assert err, argv


def test_bad_fan_file_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(["describe-surface", "--fan-file", str(path)])
    assert code == 2
    assert "not valid JSON" in err


@pytest.mark.parametrize("argv, what", [
    (["describe-surface", "--fan-file"], "fan"),
    (["nondegenerate", "--surface", "p1xp1", "--poly-file"], "polynomial"),
], ids=["fan-file", "poly-file"])
def test_a_file_that_is_not_utf8_exits_2(tmp_path, argv, what):
    path = tmp_path / "input.json"
    path.write_bytes(b"\xff\xfe{")
    assert run_cli(argv + [str(path)]) == (
        2, "", f"error: cannot read {what} file: 'utf-8' codec can't decode byte "
               "0xff in position 0: invalid start byte\n")


def test_exponents_of_2_to_the_32_are_refused():
    # the chart decision codes x^i y^j as (i + j) * 2**32 + i; one exponent
    # more and it would run on codes out of graded lex order
    def section(n):
        return ["nondegenerate", "--surface", "p1xp1", "--poly",
                f"x1^{n}*x2 + x3^{n}*x4 + x1^{n}*x4 + x3^{n}*x2"]

    assert run_cli(section(2**32)) == (2, "", "error: exponents must stay below 2**32\n")
    assert run_cli(section(2**32 - 1)) == (
        0, "chart decision: degenerate\nwitness: chart 0: cone (x3, x2)\n", "")


def test_bad_polynomial_file_json(tmp_path):
    # a file starting with "{" is read as JSON, never as an expression
    path = tmp_path / "f.json"
    path.write_text('  {"terms": ')
    code, out, err = run_cli(["nondegenerate", "--surface", "p1xp1",
                              "--poly-file", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: polynomial file is not valid JSON: ")


def test_json_inputs_refuse_floats_and_booleans(tmp_path):
    good = {"exps": [5, 3, 0, 0], "coeff": 2}
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"terms": [good, dict(good, coeff="-3/4")]}))
    code, _, err = run_cli(["basis", "--poly-file", str(path)] + H1)
    assert code == 0 and err == ""
    bad_terms = [
        (dict(good, coeff=0.1), "bad coefficient 0.1"),
        (dict(good, coeff=2.0), "bad coefficient 2.0"),
        (dict(good, coeff=True), "bad coefficient True"),
        (dict(good, coeff=None), "bad coefficient None"),
        (dict(good, exps=[5, 3, True, 0]), "'exps' must be a list of integers"),
        (dict(good, exps=[5.0, 3, 0, 0]), "'exps' must be a list of integers"),
    ]
    for term, message in bad_terms:
        path.write_text(json.dumps({"terms": [term]}))
        code, out, err = run_cli(["basis", "--poly-file", str(path)] + H1)
        assert code == 2 and out == "", term
        assert message in err, term
    for rays in ([[True, 0], [0, 1], [-1, 0], [0, -1]],
                 [[1.0, 0], [0, 1], [-1, 0], [0, -1]]):
        path.write_text(json.dumps({"rays": rays}))
        code, out, err = run_cli(["describe-surface", "--fan-file", str(path)])
        assert code == 2 and out == "", rays
        assert "'rays' must be a list of integer pairs" in err


def test_unknown_subcommand_exits_2():
    code, _, _ = run_cli(["frobnicate"])
    assert code == 2


def test_repeat_runs_are_byte_identical():
    argv = ["criterion", "--json", "--class", "5,3",
            "--poly", TRIGONAL_D5] + H1
    assert run_cli(argv) == run_cli(argv)
    argv = ["find-eta", "--class", "5,3", "--poly", TRIGONAL_D5] + H1
    assert run_cli(argv) == run_cli(argv)
