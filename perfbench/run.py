"""Run one benchmark workload against the dancegen sources of this checkout.

    python3 perfbench/run.py --workload generate --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1.  The lines before it give
the environment, the workload's own metrics, the output digest and, when
traced, the per-layer table and the tracing overhead.  Results, spans and
scratch files go to .perfbench_out/ in the checkout.  The exit code is 0 when
every output check passed, 1 when one failed and 2 when the checkout has no
dancegen sources.  `--workload all` runs each workload in its own process
and prints every workload's metrics together.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("generate", "train", "library")
NPROC = len(os.sched_getaffinity(0))


def cap_blas_threads() -> None:
    """Cap BLAS threads at the CPUs this process may use; numpy reads these
    variables when it loads, so this runs before the first numpy import."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 1 <= int(cur) <= NPROC:
            os.environ[var] = str(NPROC)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny shrinks the model shapes for the self-tests")
    return p.parse_args(argv)


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": NPROC, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(), "numpy": np.__version__,
            "python": platform.python_version(), "commit": git_commit(), "seed": seed}


def result_path(workload: str, seed: int, trace: int, scale: str) -> Path:
    suffix = "" if scale == "full" else f"-{scale}"
    return OUT / f"{workload}-seed{seed}-trace{trace}{suffix}.json"


def run_one(args, spec: dict) -> int:
    from perfbench import layers
    from perfbench.spans import SpanRecorder
    from perfbench.workloads import FULL, TINY, WORKLOADS

    scale = TINY if args.scale == "tiny" else FULL
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    spans = SpanRecorder()  # labels requests either way; records only once installed
    try:
        if args.trace:
            spans.install(layers.targets())
        try:
            outcome = WORKLOADS[args.workload](args.seed, args.seconds, scale, work, spans)
        finally:
            spans.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    e2e = outcome.end_to_end()
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, (value, unit) in outcome.detail.items():
        print(f"workload metric {name} = {value!r} {unit}")
    for name, value in sorted(outcome.facts.items()):
        print(f"fact {name} = {value}")
    digest = outcome.digest.hexdigest()
    print(f"digest sha256 {digest}")
    record = {"workload": args.workload, "scale": args.scale, "trace": args.trace, "env": env,
              "attempted": outcome.attempted, "failed": outcome.failed,
              "failures": outcome.failures, "digest": digest, "facts": outcome.facts,
              "end_to_end": e2e,
              "detail": {k: {"value": v, "unit": u} for k, (v, u) in outcome.detail.items()}}

    if not args.trace:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in units.items()}
    else:
        setup = spans.stats(lambda req: req.startswith("setup"))
        measured = spans.stats(lambda req: not req.startswith("setup"))
        values = layers.per_layer_values(setup, measured, outcome.forward_passes_per_clip)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
        print(f"{'layer (measured phase; set-up for io checkpoints, synth)':<58}"
              f"{'calls':>8}{'busy_s':>12}{'self_s':>12}")
        for name, *_ in layers.LAYERS:
            row = (setup if name in layers.SETUP_LAYERS else measured).get(name)
            if row:
                print(f"{name:<58}{row['calls']:>8}{row['busy_s']:>12.4f}{row['self_s']:>12.4f}")
        spans_file = result_path(args.workload, args.seed, 1, args.scale).with_suffix(".spans.jsonl")
        OUT.mkdir(exist_ok=True)
        spans.write(spans_file)
        print(f"spans {len(spans.spans)} written to {spans_file.relative_to(ROOT)}")
        record["per_layer"] = {"setup": setup, "measured": measured, "values": values,
                               "spans": len(spans.spans)}
        untraced = result_path(args.workload, args.seed, 0, args.scale)
        if untraced.is_file():
            base = json.loads(untraced.read_text())
            overhead = {k: e2e[k] - base["end_to_end"][k] for k in e2e}
            record["tracing_overhead"] = overhead
            for k, v in overhead.items():
                print(f"tracing overhead {k} = {v!r} {units.get(k, '')} (traced minus untraced)")
        else:
            print("tracing overhead: no untraced result for this seed; run with --trace 0 first")

    correct = outcome.failed == 0
    for message in outcome.failures:
        print(f"FAILED {message}")
    OUT.mkdir(exist_ok=True)
    result_path(args.workload, args.seed, args.trace, args.scale).write_text(
        json.dumps(record, indent=1, sort_keys=True, default=float))
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh process (peak RSS is per process), then one table."""
    codes, combined, attempted, failed = {}, {}, 0, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", "0", "--scale", args.scale]
        path = result_path(name, args.seed, 0, args.scale)
        path.unlink(missing_ok=True)
        codes[name] = subprocess.run(cmd, timeout=900).returncode
        if codes[name] not in (0, 1) or not path.is_file():
            print(f"workload {name}: exit code {codes[name]}, no result")
            continue
        rec = json.loads(path.read_text())
        attempted += rec["attempted"]
        failed += rec["failed"]
        print(f"workload {name}: attempted {rec['attempted']} failed {rec['failed']}")
        rows = dict(rec["detail"])
        rows["setup_s"] = {"value": rec["end_to_end"]["setup_s"], "unit": "s"}
        rows["peak_rss_mb"] = {"value": rec["end_to_end"]["peak_rss_mb"], "unit": "MB"}
        for metric, row in rows.items():
            combined[f"{name}.{metric}"] = row
            print(f"  {metric:<30}{row['value']:>14.4f} {row['unit']}")
    correct = all(code == 0 for code in codes.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "dancegen" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} holds no dancegen sources under src/ or no BENCHMARK.json",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    cap_blas_threads()
    # import this checkout's sources, and perfbench as a package rather than
    # its modules as top-level names
    sys.path[:] = [str(src), str(ROOT)] + [p for p in sys.path if Path(p or ".").resolve() != HERE]
    import dancegen

    if Path(dancegen.__file__).resolve().parent != src / "dancegen":
        print(f"error: imported dancegen from {dancegen.__file__}, not from {src}", file=sys.stderr)
        return 2
    return run_one(args, json.loads((ROOT / "BENCHMARK.json").read_text()))


if __name__ == "__main__":
    sys.exit(main())
