"""dectlink benchmark: run one seeded workload and print its metrics.

    python3 bench/run.py --workload plan|campaign|cli --seed N --seconds S --trace 0|1

Run from the repository root; dectlink is imported from ./src. The last
line of stdout is one JSON object with keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1, as listed in BENCHMARK.json. The lines before it repeat each
metric with its unit and sample count (0 for a layer the workload never
calls), record the machine, and (traced) name the span dump.

Workloads (all closed loops, one client, one process at a time):
  plan      in-process planning requests: config, six models, both criteria,
            solve, flags and predictions. Scalar model evaluation and the
            bisection solver do the work; no file I/O or numpy.
  campaign  in-process load_capture + summarize over a pool of capture files
            of 1e2-1e4 rows, plus reliability and a log-distance fit per batch.
            Parsing and summarising dominate; the solver is never called.
  cli       fresh `python -m dectlink.cli` processes over all six
            subcommands plus usage errors. Start-up and import dominate the
            short commands; sweeps and analyze make the tail.

Each run makes whole passes over a seeded pool of at least 100 distinct
ops; ops_per_s, op_p50_ms and op_p90_ms are taken over each op's fastest
repeat (see worker.py). setup_s is the time from starting a fresh
interpreter until the workload's dectlink imports are done: the median,
over rounds spread through the run, of the fastest of each round's fresh
interpreters. Input generation is never timed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from importlib import metadata
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
WORKLOADS = ("plan", "campaign", "cli")
WORKER_TIMEOUT_S = 160
OUT_DIR = ".bench_out"


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env.pop("DECTLINK_CONFIG", None)
    env["PYTHONPATH"] = str(src)
    return env


def machine(root: Path) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "cpu": cpu, "commit": commit}


def make_inputs(workload: str, seed: int, directory: Path) -> dict:
    if workload == "plan":
        return inputs.plan_inputs(seed)
    if workload == "campaign":
        return inputs.campaign_inputs(seed, directory)
    return inputs.cli_inputs(seed, directory)


def run(args, root: Path) -> dict:
    src = root / "src"
    env = child_env(src)
    out_dir = root / OUT_DIR
    run_dir = out_dir / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        manifest_path = run_dir / "manifest.json"
        manifest_path.write_text(json.dumps(make_inputs(args.workload, args.seed, run_dir)),
                                 encoding="utf-8")
        spans_out = out_dir / f"spans-{args.workload}.jsonl"
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--manifest", str(manifest_path), "--src", str(src),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--spans-out", str(spans_out)],
            capture_output=True, text=True, env=env, timeout=WORKER_TIMEOUT_S,
        )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if args.trace:
        result["notes"].append(f"spans in {spans_out.relative_to(root)}")
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")

    root = Path.cwd()
    if not (root / "src" / "dectlink" / "__init__.py").is_file():
        print(f"error: {root / 'src' / 'dectlink'} not found; run from the repository root",
              file=sys.stderr)
        return 2
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
        table = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
        result = run(args, root)
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics, samples = result["metrics"], result["samples"]
    if set(metrics) != set(table):
        print(f"error: metric set mismatch: {sorted(set(metrics) ^ set(table))}", file=sys.stderr)
        return 1
    attempted, failed = result["attempted"], result["failed"]
    w = args.workload
    print("env " + json.dumps({**machine(root), "workload": w, "seed": args.seed,
                               "seconds": args.seconds, "trace": args.trace}))
    for name, unit in table.items():
        n = samples[name]
        print(f"{w} {name} {metrics[name]!r} {unit} "
              + (f"(n={n})" if n else "(n=0: not exercised by this workload)"))
    print(f"{w} failed_frac {failed / attempted!r} fraction ({failed} of {attempted} ops)")
    if args.trace:
        print(f"{w} tracing overhead: traced {metrics['trace.ops_per_s']:.1f} ops/s vs untraced "
              f"{metrics['trace.untraced_ops_per_s']:.1f} ops/s "
              f"(ratio {metrics['trace.overhead_ratio']:.3f})")
    for note in result["notes"]:
        print(f"{w} {note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in table.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
