"""CLI: argument handling, exit codes, output stability and schemas."""

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
    code, out, _ = run(capsys, "tail", "--algebra", "A2", "--knot", "2,3",
                       "--ray", "1,0", "--method", "closed",
                       "--x-order", "1", "--q-order", "10")
    doc = json.loads(out)
    assert doc["tail"]["residue"] == [0, 1]
    assert doc["tail"]["phi"][0]["series_const"]["terms"][0] == [0, "1"]


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


# sha256 of json.dumps(doc["tail"], sort_keys=True) per (algebra, arguments).
# The A2 pins were recorded from the QPSeries implementation the generic
# TruncatedSeries replaced, the G2 pin from the Fraction box scan the integer
# stable limit replaced.
TAIL_GOLDEN = {
    ("A2", "--knot 2,7 --ray 1,0 --method closed --x-order 3 --q-order 60"):
        "9947df6617f4f0940e504a4a064731184d528b2a95009d2ab3b55c75a19e05d2",
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
