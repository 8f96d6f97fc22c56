"""Benchmark for ``connmatch solve``: end-to-end time, memory and correctness.

Run from the repository root::

    python3 perfbench/run.py --workload tree-cli --seed 0 --seconds 40 --trace 0

The instance for ``--workload`` is generated from ``--seed`` before timing
and written as one ``.gr`` file. One operation is ``connmatch solve --cert``
followed by ``connmatch verify --k <golden>`` on that certificate, both
through ``connmatch.cli.main`` in this process; a verify shorter than
``VERIFY_MIN_S`` repeats within the operation. Operations repeat, in a
closed loop with one caller, until the next one would end after
``--seconds``. Each must print the golden optimum and pass verification;
anything else, an exit code other than 0 or an exception counts as failed.

``--trace 0`` reports the end-to-end metrics: solve_s, verify_s (medians),
setup_s (median seconds to import ``connmatch.cli`` in a fresh interpreter)
and peak_rss_mb. ``--trace 1`` alternates untraced and traced operations and
reports the per-layer metrics of ``layers.py`` (medians over traced
operations for times, per operation for counts) and ``trace.overhead_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details (environment, instance digest, samples). Exit status is 0
when a result was printed and 2 when the program could not be loaded.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import goldens
import instances
from layers import PER_LAYER, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7
# A verify that takes milliseconds is repeated within its operation until
# this much verifying is timed, so verify_s is a median of many samples.
VERIFY_MIN_S = 0.25

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import connmatch.cli; print(time.perf_counter() - t)"
)


def setup_seconds() -> list[float]:
    """Seconds to import ``connmatch.cli`` in fresh interpreters, after one
    untimed start that warms the file cache."""
    out = []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, check=True, cwd=ROOT, timeout=60,
        )
        if i:
            out.append(float(proc.stdout))
    return out


def golden_for(workload: str, seed: int, sha: str) -> tuple[int, str]:
    """The stored optimum for this seed, or the second path's, run in a child
    process so its memory stays out of peak_rss_mb."""
    entry = goldens.load().get(workload, {}).get(str(seed))
    if entry is not None:
        if entry["sha256"] != sha:
            raise RuntimeError(f"instance digest {sha} differs from the golden's {entry['sha256']}")
        return entry["optimum"], "stored"
    proc = subprocess.run(
        [sys.executable, str(HERE / "goldens.py"), "--check", workload, str(seed)],
        capture_output=True, text=True, check=True, cwd=ROOT, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    entry = json.loads(proc.stdout.splitlines()[-1])
    if entry["sha256"] != sha:
        raise RuntimeError("second path generated a different instance")
    return entry["optimum"], "second-path"


def run_op(cli, graph: Path, cert: Path, golden: int, verify_min_s: float) -> dict:
    """One solve, then verify until ``verify_min_s`` of verifying has been
    timed (at least once); returns the timings and the first wrong output."""
    with contextlib.suppress(FileNotFoundError):
        cert.unlink()
    solve_args = ["solve", "--graph", str(graph), "--cert", str(cert)]
    verify_args = ["verify", "--graph", str(graph), "--cert", str(cert), "--k", str(golden)]
    op = {"solve_s": 0.0, "verify_s": [], "error": None}
    gc.collect()
    try:
        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                rc = cli.main(solve_args)
        finally:
            op["solve_s"] = time.perf_counter() - t0
        if rc != 0 or out.getvalue() != f"w {golden}\n":
            op["error"] = f"solve exited {rc} printing {out.getvalue()!r}, golden w {golden}"
            return op
        gc.collect()  # a CLI verify starts in a fresh process, free of solve's garbage
        while not op["verify_s"] or sum(op["verify_s"]) < verify_min_s:
            out = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out):
                    rc = cli.main(verify_args)
            finally:
                op["verify_s"].append(time.perf_counter() - t0)
            if rc != 0 or out.getvalue() != "yes\n":
                op["error"] = f"verify exited {rc} printing {out.getvalue()!r}"
                return op
    except Exception as exc:  # any exception is a failed operation, not a crash
        op["error"] = f"{type(exc).__name__}: {exc}"
    return op


def measure(cli, graph: Path, cert: Path, golden: int, seconds: float, tracer) -> list[dict]:
    """Operations until the next one would end after ``seconds``. With a
    tracer, odd operations run traced, verify once, and carry their
    per-layer metrics."""
    ops: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(ops) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        try:
            op = run_op(cli, graph, cert, golden, 0.0 if traced else VERIFY_MIN_S)
        finally:
            if traced:
                tracer.uninstall()
        op["traced"] = traced
        if traced:
            op["layers"] = tracer.metrics()
        ops.append(op)
        elapsed = time.perf_counter() - start
        longest = max(o["solve_s"] + sum(o["verify_s"]) for o in ops[-2:])
        if len(ops) >= (2 if tracer else 1) and elapsed + longest > seconds:
            return ops


def distribution(values: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    xs = sorted(values)
    out = {"median": statistics.median(xs), "samples": len(xs)}
    if len(xs) > 10:
        k = len(xs) - 10
        out[f"p{math.floor(100 * k / len(xs))}"] = xs[k - 1]
    return out


def environment(args, inst, sha: str, golden_source: str) -> dict:
    # Also loads numpy before timing: tree_solver imports it on first use.
    import networkx
    import numpy

    sha_git = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
        sha_git = proc.stdout.strip() or None
    n, edges, parts = inst
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha_git,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "instance": {
            "n": n,
            "m": len(edges),
            "components": len(parts) if parts else 1,
            "sha256": sha,
            "golden_source": golden_source,
        },
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="connmatch solve benchmark")
    p.add_argument("--workload", required=True, choices=sorted(instances.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "connmatch" / "cli.py").is_file():
        print(f"error: no connmatch sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import connmatch.cli as cli
    except ImportError as exc:
        print(f"error: cannot import connmatch: {exc}", file=sys.stderr)
        return 2

    inst = instances.WORKLOADS[args.workload](args.seed)
    data = instances.graph_text(inst[0], inst[1])
    sha = instances.sha256(data)
    golden, golden_source = golden_for(args.workload, args.seed, sha)
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        graph, cert = work / "instance.gr", work / "instance.cert"
        graph.write_bytes(data)
        detail = environment(args, inst, sha, golden_source)
        del inst, data
        setup = [] if args.trace else setup_seconds()
        tracer = Tracer() if args.trace else None
        ops = measure(cli, graph, cert, golden, args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only if no other run is using it
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    plain = [o for o in ops if not o["traced"]]
    traced = [o for o in ops if o["traced"]]
    failed = [o["error"] for o in ops if o["error"]]
    solve = distribution([o["solve_s"] for o in plain])
    # no verify ran only if every solve failed, and then correct is false
    verify = distribution([v for o in plain for v in o["verify_s"]] or [0.0])
    correct = not failed

    print(f"workload {args.workload} seed {args.seed}: n={detail['instance']['n']} "
          f"m={detail['instance']['m']} components={detail['instance']['components']} "
          f"sha256={sha} golden={golden} ({golden_source})")
    for name, dist in (("solve_s", solve), ("verify_s", verify)):
        extra = "".join(f" {k} {v:.4f} s" for k, v in dist.items() if k[0] == "p")
        print(f"{name:<14} median {dist['median']:.4f} s{extra} ({dist['samples']} samples)")
    if setup:
        print(f"{'setup_s':<14} median {statistics.median(setup):.4f} s ({len(setup)} fresh interpreters)")
    print(f"{'peak_rss_mb':<14} {peak_rss_mb:.1f} MB")
    print(f"{'error_rate':<14} {len(failed)}/{len(ops)} = {len(failed) / len(ops):g}")
    for msg in failed:
        print(f"failed: {msg}")

    if args.trace:
        absent = tracer.absent_metrics()
        layers = {}
        for name in PER_LAYER:
            if name == "trace.overhead_s":
                continue
            values = [o["layers"][name] for o in traced]
            if PER_LAYER[name][0] == "s":
                layers[name] = statistics.median(values)
            else:
                if len(set(values)) != 1:
                    print(f"count {name} differs between identical operations: {values}")
                    correct = False
                layers[name] = values[0]
        # each traced operation against the untraced one just before it
        layers["trace.overhead_s"] = statistics.median(
            ops[i + 1]["solve_s"] - ops[i]["solve_s"] for i in range(0, len(ops) - 1, 2)
        )
        metrics = {}
        for name, (unit, _) in PER_LAYER.items():
            metrics[name] = {"value": layers[name], "unit": unit}
            if name in absent:
                metrics[name]["absent"] = True
            print(f"{name:<46} {layers[name]:.6g} {unit}{' (absent)' if name in absent else ''}")
    else:
        metrics = {
            "solve_s": {"value": solve["median"], "unit": "s"},
            "verify_s": {"value": verify["median"], "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    detail.update(
        solve_s=solve,
        verify_s=verify,
        setup_s=setup,
        error_rate=len(failed) / len(ops),
        samples=[{k: o[k] for k in ("solve_s", "verify_s", "traced")} for o in ops],
    )
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
