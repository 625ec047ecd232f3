"""One pass of one benchmark workload, in the process that runs this file.

    python3 bench/worker.py WORKLOAD SEED [--size tiny] [--trace]
    python3 bench/worker.py WORKLOAD SEED --setup-only

Set-up is the interpreter start, ``import torus_tails``, the root-system
lookup and the generation of the op list; its end is reported as a
``time.monotonic()`` stamp so that the parent can measure it from before
the spawn.  The pass then runs every op back to back with one caller,
checks each output outside the timed interval, and prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_ops(ops, tracer=None) -> dict:
    """Run ops in order; wall and CPU time cover the ops, not the checks."""
    wall = cpu = 0.0
    failures = []
    for op in ops:
        run = op.run if tracer is None else tracer.wrap(op.run, "bench.op")
        err = out = None
        c0, t0 = _cpu(), time.perf_counter()
        try:
            out = run()
        except Exception as exc:  # noqa: BLE001 - a raising op counts as failed
            err = exc
        wall += time.perf_counter() - t0
        cpu += _cpu() - c0
        ok = False
        if err is None:
            if tracer is not None:
                tracer.active = False
            try:
                ok = bool(op.check(out))
            except Exception as exc:  # noqa: BLE001 - a raising check fails
                err = exc
            finally:
                if tracer is not None:
                    tracer.active = True
        del out
        if not ok:
            failures.append({
                "op": op.name, "known_defect": op.known_defect,
                "error": f"{type(err).__name__}: {err}" if err
                else "check failed"})
    return {"wall_s": wall, "cpu_s": cpu, "attempted": len(ops),
            "failed": len(failures), "failures": failures}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("seed", type=int)
    ap.add_argument("--size", default="full")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import torus_tails as tt
    if Path(tt.__file__).resolve().parent != src / "torus_tails":
        print(f"imported torus_tails from {tt.__file__}, not {src}",
              file=sys.stderr)
        return 2
    for name in ("A1", "A2", "B2", "G2"):
        tt.get_root_system(name)
    import workloads
    ops = workloads.make_ops(tt, args.workload, args.size, args.seed)
    ready = time.monotonic()
    doc = {"ready": ready}
    if not args.setup_only:
        tracer = None
        if args.trace:
            import spans
            tracer = spans.Tracer()
            tracer.install()
        doc.update(run_ops(ops, tracer))
        doc["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            doc["layers"] = tracer.metrics(doc["wall_s"])
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
