"""Run one workload of the torus-tails benchmark and print its metrics.

    python3 bench/run.py --workload exact --seed 1 --seconds 55 --trace 0

Workloads: exact, tails (see ``bench/workloads.py`` and
``bench/README.md``).  Every pass of a workload runs in a fresh,
single-threaded Python process with ``TORUS_TAILS_THREADS`` unset, because
the ``lru_cache`` tables of ``torus_tails`` are process-global and a CLI
user always starts cold.

``--trace 0`` runs passes for about ``--seconds`` (at least one) and
reports ``wall_s`` and ``cpu_s`` as means over the passes (a pass lasts
seconds, so a run has only a few), ``peak_rss_mb`` as their median and
``setup_s`` as the median of many set-ups.  ``--trace
1`` runs one untraced and one traced pass with the same op order and
reports the per-layer metrics of the traced one.  The last line of stdout
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it repeat the metrics for a reader, with the
Python version and CPU count.  ``failed`` counts ops that raised or failed
their check; ``correct`` is false when any of them is not a known defect
listed in ``workloads.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUPS = 15             # set-up-only processes per run, besides the passes
PASS_TIMEOUT_S = 170

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"))


def spawn(workload: str, seed: int, size: str, *flags: str) -> dict:
    """Run one worker process; return its report plus ``setup_s``."""
    env = dict(os.environ)
    env.pop("TORUS_TAILS_THREADS", None)
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed),
           "--size", size, *flags]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with {proc.returncode}: "
                         f"{' '.join(cmd)}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    doc["setup_s"] = doc["ready"] - start
    return doc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=workloads.SIZES, default="full",
                    help="tiny: the smoke-test sizes")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "torus_tails" / "__init__.py").is_file():
        print(f"no torus_tails sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    def one(*flags: str) -> dict:
        return spawn(args.workload, args.seed, args.size, *flags)

    one("--setup-only")      # writes the bytecode caches; not measured
    passes, setups = [], []
    if args.trace:
        passes.append(one())
        traced = one("--trace")
        metrics = dict(traced["layers"])
        metrics["trace.overhead_ratio"] = \
            traced["wall_s"] / passes[0]["wall_s"]
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
        runs = passes + [traced]
    else:
        # stop where the run ends closest to --seconds: another pass would
        # overshoot by more than stopping now falls short
        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            passes.append(one())
            now = time.monotonic()
            if now - start + (now - t0) / 2 >= args.seconds:
                break
        setups = [one("--setup-only")["setup_s"] for _ in range(SETUPS)]
        metrics = {name: statistics.fmean(p[name] for p in passes)
                   for name in ("wall_s", "cpu_s")}
        metrics["peak_rss_mb"] = statistics.median(
            p["peak_rss_mb"] for p in passes)
        metrics["setup_s"] = statistics.median(
            setups + [p["setup_s"] for p in passes])
        units = dict(END_TO_END)
        runs = passes

    attempted = sum(r["attempted"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    correct = all(f["known_defect"] for f in failures)

    info = {"python": platform.python_version(), "nproc": os.cpu_count(),
            "workload": args.workload, "seed": args.seed, "size": args.size,
            "trace": args.trace, "passes": len(runs),
            "pass_wall_s": [r["wall_s"] for r in runs]}
    print(json.dumps({"info": info}))
    for f in failures:
        tag = f"known defect: {f['known_defect']}" if f["known_defect"] \
            else "UNEXPECTED"
        print(f"FAILED {f['op']}: {f['error']} ({tag})")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"ops_failed = {len(failures)}/{attempted} = "
          f"{len(failures) / attempted:.4g} ratio")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
