"""CLI: argument handling, exit codes, output stability and schemas."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from torus_tails import cli, mult
from torus_tails.cli import main
from torus_tails.lie import get_root_system
from torus_tails.mult import lattice_hull


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_jones_json(capsys):
    code, out, err = run(capsys, "jones", "--algebra", "A2", "--knot", "2,3",
                         "--lambda", "1,0", "--n", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["version"]
    assert doc["config"]["knot"] == [2, 3]
    # delta* = f*(5*lambda2) = -(3/2)25 - (9/2)5
    assert doc["result"]["delta_star"] == "-60"


def test_jones_trivial_color(capsys):
    code, out, _ = run(capsys, "jones", "--algebra", "A2", "--knot", "2,3",
                       "--lambda", "1,0", "--n", "0")
    doc = json.loads(out)
    assert doc["result"]["polynomial"]["terms"] == [[0, "1"]]


def test_non_coprime_knot_exits_2(capsys):
    code, _, err = run(capsys, "jones", "--algebra", "A2", "--knot", "2,4",
                       "--lambda", "1,0", "--n", "1")
    assert code == 2
    assert "coprime" in err


@pytest.mark.parametrize("argv", [
    ("jones", "--lambda", "1,0", "--n", "1"),
    ("degree", "--lambda", "1,1"),
    ("tail",),
    ("tail", "--method", "stable-limit"),
    ("tail", "--method", "detect"),
    ("stable-coeffs",)], ids=" ".join)
def test_a_equal_to_one_is_refused_with_one_message(capsys, argv):
    # T(1,b) is the unknot: the knot itself refuses it, before any command
    # reaches a route of its own
    code, out, err = run(capsys, argv[0], "--algebra", "A2", "--knot", "1,2",
                         *argv[1:])
    assert (code, out) == (2, "")
    assert err == "error: torus knot needs a >= 2: T(1,b) is the unknot\n"


def test_bad_algebra_exits_2(capsys):
    code, _, err = run(capsys, "jones", "--algebra", "Z9", "--knot", "2,3",
                       "--lambda", "1,0", "--n", "1")
    assert code == 2


def test_csv_coefficient_dump(capsys):
    code, out, _ = run(capsys, "jones", "--algebra", "B2", "--knot", "2,3",
                       "--lambda", "0,1", "--n", "1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "exponent_numerator,denom,coefficient"
    assert all(len(line.split(",")) == 3 for line in lines[1:])


# sha256 of the whole stdout below, recorded when the document was written
# by json.dump to the stream
JONES_STDOUT_SHA256 = \
    "261fa3c968529933ca29cdb85289d549cbcc007495979cde2da8dc8f5fd66c1c"


JONES_ARGS = ("jones", "--algebra", "A2", "--knot", "3,4",
              "--lambda", "1,1", "--n", "2")


def test_output_byte_stable(capsys):
    _, out1, _ = run(capsys, *JONES_ARGS)
    _, out2, _ = run(capsys, *JONES_ARGS)
    assert out1 == out2
    assert hashlib.sha256(out1.encode()).hexdigest() == JONES_STDOUT_SHA256


@pytest.mark.parametrize("chunk", [1, 2, 7])
def test_output_bytes_do_not_depend_on_term_chunks(capsys, monkeypatch,
                                                  chunk):
    # the terms lists are written chunk by chunk; the pinned polynomial has
    # 58 terms, so it ends on a chunk boundary at 1 and 2 and off one at 7
    monkeypatch.setattr(cli, "TERMS_CHUNK", chunk)
    _, out, _ = run(capsys, *JONES_ARGS)
    assert hashlib.sha256(out.encode()).hexdigest() == JONES_STDOUT_SHA256
    args = ("A2", "--knot 2,7 --ray 1,0 --method closed --x-order 3 "
            "--q-order 60")
    _, out, _ = run(capsys, "tail", "--algebra", args[0], *args[1].split())
    payload = json.dumps(json.loads(out)["tail"], sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == TAIL_GOLDEN[args]


def test_python_m_runs_the_cli():
    # from a bare checkout: the package is not installed, src is on the path
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, (str(src),
                                         os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "torus_tails", *JONES_ARGS],
                          capture_output=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == JONES_STDOUT_SHA256


def test_kostant_command(capsys):
    code, out, _ = run(capsys, "kostant", "--algebra", "A2",
                       "--alpha", "2,3")
    doc = json.loads(out)
    assert doc["closed"] == 3 == doc["dp"]


def test_kostant_command_far_from_the_origin(capsys):
    # the DP oracle is a filled table, not a recursion, so its depth does not
    # grow with alpha
    code, out, _ = run(capsys, "kostant", "--algebra", "G2",
                       "--alpha", "300,300")
    assert code == 0
    doc = json.loads(out)
    assert doc["closed"] == doc["dp"] == 20029026


def test_kostant_command_above_the_dp_guard_exits_2(capsys):
    code, out, err = run(capsys, "kostant", "--algebra", "G2",
                         "--alpha", "1100,1000")
    assert code == 2
    assert not out
    assert "exceeds the oracle limit" in err


def test_a1_jones_at_a_large_color(capsys):
    # A1's weight multiplicities read the closed partition function; a
    # recursive partition count exceeded Python's recursion limit here
    code, out, _ = run(capsys, "jones", "--algebra", "A1", "--knot", "2,3",
                       "--lambda", "1", "--n", "1000")
    assert code == 0
    assert json.loads(out)["result"]["lambda"] == [1000]


# sha256 of stdout and of stderr, and the exit code, of A1 commands,
# recorded when the package ran A1 on rank-1 code; A1 now runs as A1 x A1
# with the CLI reading and writing its one-coordinate weights
A1_GOLDEN = {
    "jones --algebra A1 --knot 2,3 --lambda 1 --n 12": (
        0, "afaeca12ede4d39316177922397acf3d34bfb691b5b22c437504e30bb7c99af4"),
    "jones --algebra A1 --knot 3,4 --lambda 1 --n 7 --format csv": (
        0, "d43c3e54fe42051a225bb418a1b6dcbc18e60927add4adec662dbbaa90c586d5"),
    "degree --algebra A1 --knot 2,5 --lambda 1 --n-max 8": (
        0, "b407e41954c7a4cb4a76666023c68a695a339b21189e141f1ab08613b10fadc1"),
    "summation-set --algebra A1 --lambda 7 --a 3": (
        0, "f64c6cd3fb6606b06771a3a90f9fe28250c3fd47ecb6952abc7e2c8d1c53f08b"),
    "missing-points --algebra A1 --lambda 5 --a 2": (
        0, "069c0fa07ae6a7e36c7dc60acfc7255ba8cd2840f91cf7d9d3adfc59025db0d0"),
    "kostant --algebra A1 --alpha 5": (
        0, "ae5ee39c2309fef5bdd403ca87533cb5b866da9590f8b4e126b88dce118e8133"),
    "kostant --algebra A1 --alpha=-1": (
        0, "b4636fbfdaa6223bc00f5fbee87c40137367aee983919c8f7302637e5996316c"),
    "plethysm --algebra A1 --lambda 3 --a 2 --mu 2": (
        0, "16a6dd74429db7e6aacc7afb701aadd6a1b2e2d945ed7e8bacd901acbcd23b44"),
    "stable-coeffs --algebra A1 --knot 2,3 --ray 1 --n-max 6 --k-max 3": (
        0, "d08867b3a697c1829b99cf34340cf607ab07c9340ecbd18dc6eb28ac763de681"),
    "selftest --format json": (
        0, "856a65bfa958f48b2a1082a12ff309d7b350bff6c481aaf9351a9b9a35a55be4"),
}
EMPTY_SHA256 = hashlib.sha256(b"").hexdigest()


@pytest.mark.parametrize("argv", sorted(A1_GOLDEN))
def test_a1_output_golden(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert (code, hashlib.sha256(out.encode()).hexdigest(),
            hashlib.sha256(err.encode()).hexdigest()) == \
        (*A1_GOLDEN[argv], EMPTY_SHA256)


def test_a1_tail_routes_agree(capsys):
    # A1 reaches the stable limit and detection through the rank-2 code
    phis = []
    for method in ("stable-limit", "detect"):
        code, out, _ = run(capsys, "tail", "--algebra", "A1", "--knot",
                           "2,5", "--ray", "1", "--method", method,
                           "--n-max", "60", "--x-order", "1",
                           "--q-order", "12")
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["ray"] == [1]
        assert doc["tail"]["residue"] == [1, 4]
        phis.append(doc["tail"]["phi"])
    assert phis[0] == phis[1]


def test_a1_minimizer_and_rho_keep_one_coordinate(capsys):
    code, out, _ = run(capsys, "minimizer", "--algebra", "A1",
                       "--lambda", "5", "--a", "3")
    assert code == 0
    doc = json.loads(out)
    assert (doc["lambda"], doc["minimizer"]) == ([5], [1])
    # rho is (1,) on A1: the same table as the ray 1
    tables = []
    for ray in ("rho", "1"):
        code, out, _ = run(capsys, "stable-coeffs", "--algebra", "A1",
                           "--knot", "2,3", "--ray", ray, "--n-max", "4",
                           "--k-max", "2")
        assert code == 0
        tables.append(json.loads(out))
    assert tables[0] == tables[1]
    assert tables[0]["config"]["ray"] == [1]
    # the package's second coordinate is not an option on the command line
    code, out, err = run(capsys, "jones", "--algebra", "A1", "--knot", "2,3",
                         "--lambda", "1,0", "--n", "1")
    assert (code, out) == (2, "")
    assert "expected 1 coordinates" in err


def test_plethysm_command(capsys):
    code, out, _ = run(capsys, "plethysm", "--algebra", "A2",
                       "--lambda", "1,1", "--a", "4", "--mu", "0,0")
    doc = json.loads(out)
    assert doc["multiplicity"] == 2  # 1 + n at n = 1


def test_summation_set_command(capsys):
    code, out, _ = run(capsys, "summation-set", "--algebra", "B2",
                       "--lambda", "1,1", "--a", "2")
    doc = json.loads(out)
    got = {tuple(mu) for mu, _ in doc["set"]}
    assert got == {(2, 2), (0, 4), (3, 0), (2, 0), (0, 2), (1, 0), (0, 0)}
    # --drop-zero keeps the same members in the same order, less the zeros
    code, out, _ = run(capsys, "summation-set", "--algebra", "B2",
                       "--lambda", "3,2", "--a", "3")
    full = json.loads(out)["set"]
    assert any(m == 0 for _, m in full)
    # the library's set is unsorted; the command prints it sorted by mu
    assert [mu for mu, _ in full] == sorted(mu for mu, _ in full)
    code, out, _ = run(capsys, "summation-set", "--algebra", "B2",
                       "--lambda", "3,2", "--a", "3", "--drop-zero")
    assert code == 0
    assert json.loads(out)["set"] == [[mu, m] for mu, m in full if m]


def test_missing_points_command(capsys):
    code, out, _ = run(capsys, "missing-points", "--algebra", "B2",
                       "--lambda", "1,1", "--a", "2")
    doc = json.loads(out)
    assert [1, 2] in doc["missing"]
    # the hull size is |S| + |R|, read without scanning the hull again
    for algebra, lam, a in (("B2", (1, 1), 2), ("G2", (2, 1), 3)):
        code, out, _ = run(capsys, "missing-points", "--algebra", algebra,
                           "--lambda", ",".join(map(str, lam)), "--a", str(a))
        assert code == 0
        assert json.loads(out)["hull_size"] == \
            len(lattice_hull(get_root_system(algebra), lam, a).points())


def test_missing_points_command_builds_the_summation_set_once(
        capsys, monkeypatch):
    calls, summation_set = [], mult.summation_set

    def counted(*args):
        calls.append(args)
        return summation_set(*args)

    # the command's own name and the library's, which missing_points reads
    monkeypatch.setattr(cli, "summation_set", counted)
    monkeypatch.setattr(mult, "summation_set", counted)
    for algebra, lam, a in (("B2", "3,2", "2"), ("G2", "2,1", "3")):
        calls.clear()
        code, _, _ = run(capsys, "missing-points", "--algebra", algebra,
                         "--lambda", lam, "--a", a)
        assert code == 0
        assert len(calls) == 1


# sha256 of the missing-points stdout, recorded with the hull scanning a box
# of weights by a polytope test and a per-translate lattice test
MISSING_POINTS_GOLDEN = {
    ("B2", "3,2", "2"):
        "7a7f167f0cdd1b9db0c4a78134f79bf3ca800ae32682160925c81d6891b954fc",
    ("G2", "2,1", "3"):
        "4cef18a4d1ed9e6a30c8881729bf1678e28ebf3c4df523a8b0f17a41dd5cb45d",
}


@pytest.mark.parametrize("algebra, lam, a", sorted(MISSING_POINTS_GOLDEN),
                         ids=lambda v: v)
def test_missing_points_golden(capsys, algebra, lam, a):
    code, out, _ = run(capsys, "missing-points", "--algebra", algebra,
                       "--lambda", lam, "--a", a)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        MISSING_POINTS_GOLDEN[algebra, lam, a]


def test_minimizer_command(capsys):
    code, out, _ = run(capsys, "minimizer", "--algebra", "A2",
                       "--lambda", "5,2", "--a", "2")
    doc = json.loads(out)
    assert doc["minimizer"] == [0, 3]
    assert code == 0


def test_degree_command(capsys):
    code, out, _ = run(capsys, "degree", "--algebra", "A2", "--knot", "2,3",
                       "--lambda", "1,0", "--n-max", "4")
    doc = json.loads(out)
    assert doc["degrees"][3]["delta_star"] == "-27"


def test_tail_closed_command(capsys):
    # the closed T(2,b) tail is the even class's; --n0 picks the class, and
    # the odd class (the default n0 = 1) has -1 times it
    for n0, residue, lead in (("1", [1, 2], "-1"), ("0", [0, 2], "1"),
                              ("5", [1, 2], "-1")):
        code, out, _ = run(capsys, "tail", "--algebra", "A2", "--knot",
                           "2,3", "--ray", "1,0", "--method", "closed",
                           "--n0", n0, "--x-order", "1", "--q-order", "10")
        doc = json.loads(out)
        assert doc["tail"]["residue"] == residue
        assert doc["tail"]["phi"][0]["series_const"]["terms"][0] == [0, lead]


def test_selftest_filter(capsys):
    code, out, err = run(capsys, "selftest", "--filter", "kostant")
    assert code == 0
    assert "Kostant" in out and "PASS" in out


def test_selftest_qholonomic_json(capsys):
    code, out, _ = run(capsys, "selftest", "--filter", "qholonomic",
                       "--format", "json")
    doc = json.loads(out)
    assert code == 0
    assert doc["ok"] is True
    assert [r["name"][:2] for r in doc["reports"]] == ["9.", "9s"]


def test_selftest_unknown_filter(capsys):
    code, _, err = run(capsys, "selftest", "--filter", "nosuchcheck")
    assert code == 2


def test_stable_coeffs_command(capsys):
    code, out, _ = run(capsys, "stable-coeffs", "--algebra", "A2",
                       "--knot", "2,3", "--ray", "1,0", "--n-max", "6",
                       "--k-max", "2", "--format", "csv")
    lines = out.strip().splitlines()
    assert lines[0] == "k,n,a_k"
    table = {(int(k), int(n)): int(v) for k, n, v in
             (line.split(",") for line in lines[1:])}
    assert table[(0, 2)] == 1 and table[(0, 3)] == -1


def test_tail_closed_rejects_unsupported_inputs(capsys):
    # the closed forms are A2 T(2,b) on lambda1 and A2 T(4,b) on rho only
    for algebra, knot, ray in (("B2", "2,5", "0,1"), ("G2", "2,5", "1,0"),
                               ("A2", "2,5", "0,1"), ("A2", "2,5", "rho"),
                               ("A2", "4,5", "1,0"), ("B2", "4,5", "rho"),
                               ("A2", "3,5", "rho")):
        code, out, err = run(capsys, "tail", "--algebra", algebra, "--knot",
                             knot, "--ray", ray, "--method", "closed",
                             "--x-order", "1", "--q-order", "10")
        assert code == 2, (algebra, knot, ray)
        assert out == ""
        assert "no closed tail" in err


def test_tail_closed_accepts_supported_inputs(capsys):
    for knot, ray in (("2,5", "1,0"), ("4,5", "rho"), ("4,7", "1,1")):
        code, out, _ = run(capsys, "tail", "--algebra", "A2", "--knot", knot,
                           "--ray", ray, "--method", "closed",
                           "--x-order", "1", "--q-order", "10")
        assert code == 0
        assert json.loads(out)["tail"]["phi"]


def test_internal_inconsistency_exits_3(capsys, monkeypatch):
    from torus_tails import cli, mult
    from torus_tails.jones import JonesError
    from torus_tails.qseries import SeriesDivisionError
    for exc in (JonesError("minimizer inconsistency"),
                SeriesDivisionError("division remainder nonzero")):
        def fail(*args, exc=exc):
            raise exc
        monkeypatch.setattr(cli, "colored_jones", fail)
        code, out, err = run(capsys, "jones", "--algebra", "A2", "--knot",
                             "2,3", "--lambda", "1,0", "--n", "2")
        assert code == 3
        assert out == ""
        assert str(exc) in err
    # both stay ValueErrors for library callers
    assert issubclass(JonesError, ValueError)
    assert issubclass(SeriesDivisionError, ValueError)


@pytest.mark.parametrize("algebra,knot,ray,n_max,k_max",
                         [("A2", "4,5", "rho", 12, 5),
                          ("B2", "2,5", "0,1", 10, 6)])
def test_stable_coeffs_jets_match_whole_polynomials(capsys, monkeypatch,
                                                    algebra, knot, ray,
                                                    n_max, k_max):
    from torus_tails import cli, stability
    argv = ("stable-coeffs", "--algebra", algebra, "--knot", knot, "--ray",
            ray, "--n-max", str(n_max), "--k-max", str(k_max))
    orders = []

    def spy(rs, knot, ray, ns, order=None):
        orders.append(order)
        return stability.jones_family(rs, knot, ray, ns, order)

    def whole(rs, knot, ray, ns, order=None):
        return stability.jones_family(rs, knot, ray, ns)

    monkeypatch.setattr(cli, "jones_family", spy)
    code, jets, _ = run(capsys, *argv)
    assert orders == [k_max + 1]
    monkeypatch.setattr(cli, "jones_family", whole)
    code_whole, table, _ = run(capsys, *argv)
    assert code == code_whole == 0
    assert jets == table


# one minimal valid invocation per subcommand
SUBCOMMANDS = {
    "jones": ("--algebra", "A2", "--knot", "2,3", "--lambda", "1,0",
              "--n", "1"),
    "degree": ("--algebra", "A2", "--knot", "2,3", "--lambda", "1,0",
               "--n-max", "1"),
    "tail": ("--algebra", "A2", "--knot", "2,3", "--ray", "1,0",
             "--x-order", "0", "--q-order", "2"),
    "stable-coeffs": ("--algebra", "A2", "--knot", "2,3", "--ray", "1,0",
                      "--n-max", "2", "--k-max", "0"),
    "kostant": ("--algebra", "A2", "--alpha", "1,1"),
    "plethysm": ("--algebra", "A2", "--lambda", "1,0", "--a", "2",
                 "--mu", "2,0"),
    "summation-set": ("--algebra", "A2", "--lambda", "1,0", "--a", "2"),
    "missing-points": ("--algebra", "A2", "--lambda", "1,0", "--a", "2"),
    "minimizer": ("--algebra", "A2", "--lambda", "1,0", "--a", "2"),
    "selftest": ("--filter", "kostant"),
}


def argparse_exit(capsys, *argv):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    _, err = capsys.readouterr()
    return info.value.code, err


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_seed_option_is_gone(capsys, command):
    code, err = argparse_exit(capsys, command, *SUBCOMMANDS[command],
                              "--seed", "1")
    assert code == 2
    assert "--seed" in err


@pytest.mark.parametrize("command", ["jones", "degree", "tail",
                                     "stable-coeffs", "kostant"])
def test_config_has_no_seed(capsys, command):
    code, out, _ = run(capsys, command, *SUBCOMMANDS[command])
    assert code == 0
    assert "seed" not in json.loads(out)["config"]


@pytest.mark.parametrize("command,fmt", [("jones", "text"),
                                         ("degree", "csv"),
                                         ("degree", "text")])
def test_unimplemented_formats_are_rejected(capsys, command, fmt):
    code, err = argparse_exit(capsys, command, *SUBCOMMANDS[command],
                              "--format", fmt)
    assert code == 2
    assert "invalid choice" in err


# Every subcommand's (help, handler) and, in declaration order, each of its
# actions as (option strings, dest, default, required, choices, type name,
# help).  Unlike a hash of --help it reads no terminal width and no
# Python-version wording beyond argparse's own -h line.
HELP_ACTION = (("-h", "--help"), "help", "==SUPPRESS==", False, None, None,
               "show this help message and exit")
ALGEBRA_HELP = "A1, A2, B2 or G2 (case-insensitive)"
RAY_HELP = ("ray coefficients c1,c2, or c1 for A1 (the color is n times the "
            "ray)")
COLOR_HELP = "highest weight c1,c2, or c1 for A1"
KNOT_HELP = "a,b (2<=a<b coprime)"
PARSER_SURFACE = {
    "jones": (("one colored Jones polynomial", "cmd_jones"), [
        (("--algebra",), "algebra", None, True, None, None, ALGEBRA_HELP),
        (("--knot",), "knot", None, True, None, None, KNOT_HELP),
        (("--lambda",), "ray", None, True, None, None, RAY_HELP),
        (("--format",), "format", "json", False, ("json", "csv"), None, None),
        (("--n",), "n", None, True, None, "int", None)]),
    "degree": (("q-degrees along a ray", "cmd_degree"), [
        (("--algebra",), "algebra", None, True, None, None, ALGEBRA_HELP),
        (("--knot",), "knot", None, True, None, None, KNOT_HELP),
        (("--lambda",), "ray", None, True, None, None, RAY_HELP),
        (("--format",), "format", "json", False, ("json",), None, None),
        (("--n-max",), "n_max", 10, False, None, "int", None)]),
    "tail": (("tail of a colored Jones family", "cmd_tail"), [
        (("--algebra",), "algebra", None, True, None, None, None),
        (("--knot",), "knot", None, True, None, None, KNOT_HELP),
        (("--ray",), "ray", "rho", False, None, None,
         "'rho' or ray coefficients c1,c2, or c1 for A1"),
        (("--method",), "method", "closed", False,
         ("detect", "stable-limit", "closed"), None, None),
        (("--x-order",), "x_order", 2, False, None, "int", None),
        (("--q-order",), "q_order", 60, False, None, "int", None),
        (("--n-max",), "n_max", 30, False, None, "int", None),
        (("--n0",), "n0", 1, False, None, "int",
         "residue class representative"),
        (("--format",), "format", "json", False, ("json",), None, None)]),
    "stable-coeffs": (("a_k(n) table for a family", "cmd_stable_coeffs"), [
        (("--algebra",), "algebra", None, True, None, None, None),
        (("--knot",), "knot", None, True, None, None, KNOT_HELP),
        (("--ray",), "ray", "rho", False, None, None, None),
        (("--n-max",), "n_max", 20, False, None, "int", None),
        (("--k-max",), "k_max", 10, False, None, "int", None),
        (("--format",), "format", "json", False, ("json", "csv"), None,
         None)]),
    "kostant": (("Kostant partition function value", "cmd_kostant"), [
        (("--algebra",), "algebra", None, True, None, None, None),
        (("--alpha",), "alpha", None, True, None, None,
         "root coordinates u,v, or u for A1"),
        (("--format",), "format", "json", False, ("json",), None, None)]),
    "plethysm": (("one plethysm multiplicity", "cmd_plethysm"), [
        (("--algebra",), "algebra", None, True, None, None, None),
        (("--lambda",), "lam", None, True, None, None, COLOR_HELP),
        (("--a",), "a", None, True, None, "int", None),
        (("--mu",), "mu", None, True, None, None, None),
        (("--format",), "format", "json", False, ("json",), None, None)]),
    "summation-set": (("S_{lambda,a} with multiplicities",
                       "cmd_summation_set"), [
        (("--algebra",), "algebra", None, True, None, None, None),
        (("--lambda",), "lam", None, True, None, None, COLOR_HELP),
        (("--a",), "a", None, True, None, "int", None),
        (("--drop-zero",), "drop_zero", False, False, None, None, None),
        (("--format",), "format", "json", False, ("json",), None, None)]),
    "missing-points": (("hull points outside S", "cmd_missing_points"), [
        (("--algebra",), "algebra", None, True, None, None, None),
        (("--lambda",), "lam", None, True, None, None, COLOR_HELP),
        (("--a",), "a", None, True, None, "int", None),
        (("--format",), "format", "json", False, ("json",), None, None)]),
    "minimizer": (("closed-form vs brute-force minimizer", "cmd_minimizer"), [
        (("--algebra",), "algebra", None, True, None, None, None),
        (("--lambda",), "lam", None, True, None, None, COLOR_HELP),
        (("--a",), "a", None, True, None, "int", None),
        (("--format",), "format", "json", False, ("json",), None, None)]),
    "selftest": (("run the acceptance suite", "cmd_selftest"), [
        (("--filter",), "filter", None, False, None, None,
         "substring of a check key (e.g. 'kostant')"),
        (("--format",), "format", "text", False, ("json", "text"), None,
         None)]),
}


def test_parser_surface_is_pinned():
    parser = cli.build_parser()
    sub, = (a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction))
    helps = {c.dest: c.help for c in sub._choices_actions}
    surface = {
        name: ((helps[name], sp.get_default("fn").__name__),
               [(tuple(a.option_strings), a.dest, a.default, a.required,
                 a.choices and tuple(a.choices),
                 getattr(a.type, "__name__", None), a.help)
                for a in sp._actions])
        for name, sp in sub.choices.items()}
    assert list(surface) == list(PARSER_SURFACE)
    for name, (head, actions) in PARSER_SURFACE.items():
        assert surface[name] == (head, [HELP_ACTION, *actions]), name


# sha256 of json.dumps(doc["tail"], sort_keys=True) per (algebra, arguments).
# The A2 pins were recorded from the QPSeries implementation the generic
# TruncatedSeries replaced, the G2 pin from the Fraction box scan the integer
# stable limit replaced.  The closed T(2,7) pins were re-recorded when that
# tail gained its class: the --n0 0 payload is the old one with residue
# [0, 2] for [0, 1], and the default (--n0 1) one is its negative on [1, 2].
TAIL_GOLDEN = {
    ("A2", "--knot 2,7 --ray 1,0 --method closed --x-order 3 --q-order 60"):
        "c06f579f426803e76c0a5eb9d2fa5e92a754fbde4ad024c66da7bdd0a02a2a95",
    ("A2", "--knot 2,7 --ray 1,0 --method closed --n0 0 --x-order 3 "
     "--q-order 60"):
        "75dfd6dd86d3d9140ae7b0590479c4ba400b8640947cbb68fb981f2b8a58ff5c",
    ("A2", "--knot 4,5 --ray rho --method closed --x-order 2 --q-order 40"):
        "5e2e4ec46dd7f8185c5aec082db4c2db602ee0a75b47f619177fa2e9092b2783",
    ("A2", "--knot 2,3 --ray 1,0 --method stable-limit --n0 6 --x-order 2 "
     "--q-order 30 --n-max 36"):
        "a6dbb5cf60d9b34c3c6e2d8106d67afccb26ab43bcafaf1c692d6da6b32a373e",
    ("A2", "--knot 4,5 --ray rho --method stable-limit --n0 1 --x-order 1 "
     "--q-order 40 --n-max 30"):
        "eb394c44e1a9d65a1b31c4e825815d15e6b8938ec341a28f0fdcf0279d558f81",
    ("A2", "--knot 2,3 --ray 1,0 --method detect --n0 6 --n-max 48 "
     "--x-order 1 --q-order 5"):
        "c392bfedb93dc0cbc7a6b877e35c06e1be246e1a663cb0f5f16fc479f26360c7",
    ("A2", "--knot 4,5 --ray rho --method detect --n0 1 --n-max 30 "
     "--x-order 1 --q-order 4"):
        "8c9f8097e94a925ecdca5b43a07c7542569c77423eb27e5f5495a7c928387630",
    ("G2", "--knot 3,4 --ray rho --method stable-limit --n0 1 --x-order 1 "
     "--q-order 20 --n-max 30"):
        "fa3c7df71e2bef55d8856d6f40b6f27c8b228d5d92e2943cecb03f6e2777757d",
}


@pytest.mark.parametrize(
    "algebra, args", sorted(TAIL_GOLDEN),
    ids=[args if algebra == "A2" else f"{algebra} {args}"
         for algebra, args in sorted(TAIL_GOLDEN)])
def test_tail_payload_golden(capsys, algebra, args):
    code, out, _ = run(capsys, "tail", "--algebra", algebra, *args.split())
    assert code == 0
    payload = json.dumps(json.loads(out)["tail"], sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == \
        TAIL_GOLDEN[algebra, args]


def test_tail_stable_limit_b2_exits_2(capsys):
    # B2 tails live in q^(1/2), which the stable limit does not support
    code, out, err = run(capsys, "tail", "--algebra", "B2", "--knot", "2,5",
                         "--ray", "0,1", "--method", "stable-limit")
    assert code == 2
    assert not out
    assert "non-integral" in err


@pytest.mark.parametrize("method", ["closed", "stable-limit", "detect"])
@pytest.mark.parametrize("orders, name", [
    (("--x-order", "-1", "--q-order", "10"), "must be >= 0, got -1"),
    (("--x-order", "1", "--q-order", "0"), "q_order must be >= 1"),
    (("--x-order", "1", "--q-order", "-3"), "q_order must be >= 1"),
])
def test_tail_empty_or_negative_orders_exit_2(capsys, method, orders, name):
    # a tail with no x-term or no q-term is refused, not printed empty
    code, out, err = run(capsys, "tail", "--algebra", "A2", "--knot", "2,5",
                         "--ray", "1,0", "--method", method,
                         "--n-max", "36", *orders)
    assert code == 2
    assert out == ""
    assert name in err
