"""The benchmark's workloads: the operations ("ops") each one runs and the
check applied to every output.

Every op calls public functions of ``torus_tails`` and returns its output;
its check compares that output with an independent route or with a digest
recorded at the baseline commit (see ``bench/README.md``).  The ops come in
four groups (jones, detect, oracles, tails); a workload runs two of them.
Sizes are fixed; the seed only permutes the order of the ops in the groups
named in ``SHUFFLED``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any, Callable

# workload: its op groups.  "exact" computes whole exact objects (full Jones
# polynomials, multiplicities at every hull point); "tails" computes tails
# (detection from families, stable limits, closed forms).
WORKLOADS = {"exact": ("jones", "oracles"), "tails": ("detect", "tails")}
SIZES = ("full", "tiny")

# Returned by an op whose documented outcome is the data-horizon error.
HORIZON = "data-horizon"


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    # why the check fails at the baseline commit; such a failure is counted
    # in ``failed`` but does not make the run incorrect
    known_defect: str = ""


def encode_jones(result) -> bytes:
    """The JSON document a caller gets for one polynomial (sorted keys, as
    the CLI writes it)."""
    return json.dumps(result.to_json_obj(), sort_keys=True).encode()


def tail_values(tail, x_order: int) -> str:
    """Digest of phi_0..phi_x_order evaluated exactly at n = 0, 1, 2.

    The closed tails are linear in n on the single class n = 0 mod 1, so
    three evaluations determine them; unlike ``TailSeries.to_json_obj`` this
    loses nothing.
    """
    vals = []
    for k in range(x_order + 1):
        for n in (0, 1, 2):
            s = tail.phi(k).evaluate(n)
            vals.append((k, n, s.denom, s.order, s.terms))
    return hashlib.sha256(repr(vals).encode()).hexdigest()[:16]


# -- recorded outputs at the baseline commit ----------------------------------

# (algebra, knot, lambda): sha256 of encode_jones(colored_jones(...))
JONES_SHA256 = {
    ("A2", (4, 5), (20, 20)):
        "e701fa4ffb4c02a712663dd6543bb6d0144e01ecba4804fba17a7f5b52a9e549",
    ("A2", (4, 5), (40, 40)):
        "cd77d1618b630eebb1aab5cc2bdd1c9e9c0fe6c8c9dd06b923035c85e9045e74",
    ("A2", (4, 5), (80, 80)):
        "b88cd3b686ca4fb26e24a678d760177a874a9261a5468b1848ed0b8408010cf5",
    ("B2", (3, 5), (20, 20)):
        "04e8ecfca059d0d2f85b88aa197fc72d259091eba6708f7807fe07a5e8814d10",
    ("G2", (2, 5), (10, 10)):
        "ad29d607f834f1bb0cac4be5900f6b2224ef35400a42ed771c3e667a189fdfa5",
    ("A2", (4, 5), (3, 3)):
        "dabb35076fc8e8f5ea396556d0f5a8d96c3476fae5445f7ac5633ea347f2454c",
    ("B2", (3, 5), (2, 2)):
        "0bab4b543e9724bb7ce4f2fbe52173550ddfaaf50021c8b598bff94c46c7c2e3",
    ("G2", (2, 5), (1, 1)):
        "d86499fcbe1c240d22798b12fabb2f28edcf925447f3534240b6597771242f3e",
}

# (name, b, x_order, q_order): tail_values(tail_closed_...(b, x_order, q_order))
CLOSED_TAIL_DIGESTS = {
    ("T4b", 5, 2, 1000): "31bff16cf25edb98",
    ("T2b", 7, 3, 1000): "f2a097c846e5466e",
    ("T4b", 5, 2, 50): "1aa2ebe38725b06b",
    ("T2b", 7, 3, 50): "78265936a0edbb21",
}

# (algebra, lambda, a, n_max): per-n missing-point counts
MISSING_PER_N = {
    ("B2", (1, 1), 2, 12): {n: (n + 1) // 2 for n in range(1, 13)},
    ("G2", (1, 0), 2, 6): dict.fromkeys(range(1, 7), 0),
    ("A2", (1, 1), 2, 8): dict.fromkeys(range(1, 9), 0),
    ("B2", (0, 1), 3, 8): dict.fromkeys(range(1, 9), 0),
    ("B2", (1, 1), 2, 4): {n: (n + 1) // 2 for n in range(1, 5)},
}


# -- jones --------------------------------------------------------------------


def jones_ops(tt, size: str) -> list[Op]:
    if size == "full":
        cases = [("A2", (4, 5), (20, 20)), ("A2", (4, 5), (40, 40)),
                 ("A2", (4, 5), (80, 80)), ("B2", (3, 5), (20, 20)),
                 ("G2", (2, 5), (10, 10))]
    else:
        cases = [("A2", (4, 5), (3, 3)), ("B2", (3, 5), (2, 2)),
                 ("G2", (2, 5), (1, 1))]
    ops = []
    for alg, knot, lam in cases:
        rs = tt.get_root_system(alg)
        want = JONES_SHA256.get((alg, knot, lam))

        def run(rs=rs, knot=tt.TorusKnot(*knot), lam=lam):
            return encode_jones(tt.colored_jones(rs, knot, lam))

        def check(doc, want=want):
            return hashlib.sha256(doc).hexdigest() == want

        ops.append(Op(f"jones {alg} T{knot} {lam}", run, check))
    return ops


# -- detect -------------------------------------------------------------------


def _detect_op(tt, knot, ray, n0, n_max, q_order, closed, start_default,
               horizon_ok=False, known_defect=""):
    """detect_jones_tail to x^1/q^q_order, checked against the closed tail
    from the detected threshold on (as acceptance criterion 2 does)."""
    A2 = tt.get_root_system("A2")

    def run():
        try:
            return tt.detect_jones_tail(A2, tt.TorusKnot(*knot), ray, n0,
                                        n_max, 1, q_order)
        except tt.StabilityError as exc:
            if horizon_ok and "data horizon" in str(exc):
                return HORIZON
            raise

    def check(tail):
        if tail is HORIZON:
            return True
        ref = closed()
        start = tail.threshold or start_default
        return tail.agrees_with(ref, 1, q_order, start=start)

    name = f"detect T{knot} {ray} n0={n0} n_max={n_max} x^1/q^{q_order}"
    return Op(name, run, check, known_defect)


def detect_ops(tt, size: str) -> list[Op]:
    # T(4,5) cases are (n_max, q_order, whether the family is too short for
    # the order asked, so that the data-horizon error is the right answer)
    if size == "full":
        t23, t45 = (100, 30), ((49, 15, False), (40, 12, True))
    else:
        t23, t45 = (48, 5), ((24, 4, True),)
    ops = []
    for n0 in (6, 1):
        sign = 1 if n0 % 2 == 0 else -1   # the closed T(2,b) tail is for even n
        ops.append(_detect_op(
            tt, (2, 3), (1, 0), n0, *t23,
            lambda s=sign: tt.tail_closed_T2b(3, 1, t23[1]).scale(s), 12))
    for n_max, q, short in t45:
        # At n_max = 40, q^12 detection returns phi_1[q^10] = 52 where the
        # closed tail has 4n, instead of raising the data-horizon error.
        defect = ("returns a disagreeing tail instead of the data-horizon "
                  "error" if short else "")
        ops.append(_detect_op(
            tt, (4, 5), (1, 1), 1, n_max, q,
            lambda q=q: tt.tail_closed_T4b(5, 1, q), 9,
            horizon_ok=short, known_defect=defect))
    return ops


# -- oracles ------------------------------------------------------------------


def oracles_ops(tt, size: str) -> list[Op]:
    full = size == "full"
    ops = []
    # acceptance criterion 7 at max_m = 3: every hull point, both routes
    for alg in ("A2", "B2"):
        rs = tt.get_root_system(alg)
        for a in ((2, 3, 4, 5) if full else (2,)):
            for m1 in range(4 if full else 2):
                for m2 in range((4 if full else 2) - m1):
                    lam = (m1, m2)

                    def run(rs=rs, lam=lam, a=a):
                        pts = tt.lattice_hull(rs, lam, a).points()
                        return (
                            [tt.plethysm_mult(rs, lam, a, mu) for mu in pts],
                            [tt.plethysm_adams_oracle(rs, lam, a, mu)
                             for mu in pts])

                    ops.append(Op(
                        f"plethysm {alg} {lam} a={a}", run,
                        lambda out: out[0] == out[1] and bool(out[0])))
    # acceptance criterion 6: closed chamber formulas against the DP
    bound = 40 if full else 6
    for alg in ("A2", "B2", "G2"):
        rs = tt.get_root_system(alg)

        def run(rs=rs):
            closed = getattr(tt, f"kostant_closed_{rs.name}")
            grid = [(u, v) for u in range(bound + 1) for v in range(bound + 1)]
            return ([closed(p) for p in grid],
                    [tt.kostant_dp(rs, p) for p in grid])

        ops.append(Op(f"kostant {alg} 0..{bound}", run,
                      lambda out: out[0] == out[1]))
    # acceptance criterion 8: the quadratic missing-point bound
    cases = ([("B2", (1, 1), 2, 12), ("G2", (1, 0), 2, 6),
              ("A2", (1, 1), 2, 8), ("B2", (0, 1), 3, 8)] if full
             else [("B2", (1, 1), 2, 4)])
    for alg, lam, a, n_max in cases:
        rs = tt.get_root_system(alg)
        want = MISSING_PER_N.get((alg, lam, a, n_max))

        def run(rs=rs, lam=lam, a=a, n_max=n_max):
            return tt.missing_point_bound_check(rs, lam, a, range(1, n_max + 1))

        def check(rep, want=want):
            slack = rep["min_slack"]
            return rep["per_n"] == want and (slack is None or slack >= 0)

        ops.append(Op(f"missing-point bound {alg} {lam} a={a} n<={n_max}",
                      run, check))
    return ops


# -- tails --------------------------------------------------------------------


def tails_ops(tt, size: str) -> list[Op]:
    full = size == "full"
    A2 = tt.get_root_system("A2")
    ops = []

    def stable_limit(knot, ray, n0, x_order, q_order, n_max, closed):
        def run():
            return tt.tail_eval_stable_limit(A2, tt.TorusKnot(*knot), ray, n0,
                                             x_order, q_order, n_max)

        def check(tail):
            return tail.agrees_with(closed(), x_order, q_order)

        name = (f"stable-limit T{knot} {ray} n0={n0} "
                f"x^{x_order}/q^{q_order}")
        return Op(name, run, check)

    t23 = (3, 250) if full else (1, 20)
    for n0 in (6, 1):
        sign = 1 if n0 % 2 == 0 else -1   # the closed T(2,b) tail is for even n
        ops.append(stable_limit(
            (2, 3), (1, 0), n0, *t23, 36,
            lambda s=sign: tt.tail_closed_T2b(3, *t23).scale(s)))
    t45 = 250 if full else 30
    ops.append(stable_limit((4, 5), (1, 1), 1, 1, t45, 30,
                            lambda: tt.tail_closed_T4b(5, 1, t45)))
    if full:
        ops.append(stable_limit((2, 7), (1, 0), 6, 2, 60, 36,
                                lambda: tt.tail_closed_T2b(7, 2, 60)))

    order = 1000 if full else 50
    for name, b, x_order in (("T4b", 5, 2), ("T2b", 7, 3)):
        want = CLOSED_TAIL_DIGESTS.get((name, b, x_order, order))

        def run(name=name, b=b, x_order=x_order):
            return getattr(tt, f"tail_closed_{name}")(b, x_order, order)

        def check(tail, x_order=x_order, want=want):
            return tail_values(tail, x_order) == want

        ops.append(Op(f"closed {name}({b}) x^{x_order}/q^{order}", run, check))
    return ops


OP_GROUPS = {"jones": jones_ops, "detect": detect_ops, "oracles": oracles_ops,
             "tails": tails_ops}

# Groups whose op order the seed permutes.  Their ops leave little in the
# shared caches, so the order barely changes the work.  The jones and detect
# ops run in the order listed: they leave large caches behind, and permuting
# them changed the time of an `exact` pass by up to 20 %.
SHUFFLED = ("oracles", "tails")


def make_ops(tt, workload: str, size: str, seed: int) -> list[Op]:
    """The workload's ops, group by group, in the order the seed gives."""
    rng = random.Random(seed)
    ops = []
    for group in WORKLOADS[workload]:
        group_ops = OP_GROUPS[group](tt, size)
        if group in SHUFFLED:
            rng.shuffle(group_ops)
        ops += group_ops
    return ops
