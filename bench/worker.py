"""Child process that runs one workload's ops and reports its metrics as JSON.

run.py writes the inputs, then starts this worker in a fresh interpreter so
that its peak RSS covers dectlink's work and not input generation. The
worker runs whole passes over the op pool (so every run sees the pool's
exact input mix), checks every op, and prints one JSON line.

Untraced run (--trace 0): passes until --seconds are used up; each op's
fastest repeat gives the end-to-end metrics. Rounds of fresh interpreters
that import dectlink run between ops, spread over the run, for setup_s.
Traced run (--trace 1): untraced passes for half of --seconds (for cli, one
pass of subprocesses, then two in-process passes, the first a warm-up),
then exactly one pass with the tracer installed, whose spans give the
per-layer metrics, then one pass that samples path_loss arguments for a
replay. The tracing overhead compares the traced pass with the last
untraced one.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from checks import CLI_SUBS
from spans import CALIBRATE_CALLS, Tracer, replay_ns_per_call
from workloads import (
    CampaignWorkload,
    CliWorkload,
    PlanWorkload,
    alloc_bytes_per_row,
    instrument,
)

MAX_FAILURES_SHOWN = 5
SETUP_ROUNDS = 8
SETUP_PER_ROUND = 3
SETUP_TRACED_ROUNDS = 2

_IMPORT_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import {module}\n"
    "print(time.perf_counter() - t, int('numpy' in sys.modules), flush=True)\n"
)


def run_pass(wl, tracer=None, idle=None) -> list[tuple[float, object]]:
    """Execute every op once; returns (seconds, result or exception) per op.

    idle(), if given, runs before each op, outside its timing.
    """
    outcomes = []
    for i, op in enumerate(wl.ops):
        if idle:
            idle()
        with tracer.region(wl.region(op), i) if tracer else nullcontext():
            t0 = perf_counter()
            try:
                out = wl.execute(op)
            except Exception as exc:  # recorded and judged by the checker
                out = exc
            outcomes.append((perf_counter() - t0, out))
    return outcomes


def check_pass(wl, outcomes, tally, failures: list[str]) -> set[int]:
    """Check every op's outcome; returns the indices of the ops that failed."""
    bad = set()
    for i, (op, (_, out)) in enumerate(zip(wl.ops, outcomes)):
        problem = wl.check(op, out, tally)
        if problem:
            bad.add(i)
            failures.append(f"op {i}: {problem}")
    return bad


class Phase:
    """Whole passes over the op pool: each op's fastest repeat, and the last pass's rate."""

    def __init__(self, wl) -> None:
        self.subs = [op.get("sub", "") for op in wl.ops]
        self.best = [math.inf] * len(wl.ops)
        self.failed_ops: set[int] = set()
        self.passes = 0
        self.last_pass_ops_per_s = 0.0

    def add(self, outcomes, bad: set[int]) -> None:
        self.passes += 1
        self.failed_ops |= bad
        for i, (dt, _) in enumerate(outcomes):
            self.best[i] = min(self.best[i], dt)
        self.last_pass_ops_per_s = (len(outcomes) - len(bad)) / sum(dt for dt, _ in outcomes)

    @property
    def attempted(self) -> int:
        return self.passes * len(self.best)

    @property
    def ops_per_s(self) -> float:
        """Successful distinct ops per second of their fastest repeats."""
        return (len(self.best) - len(self.failed_ops)) / sum(self.best)

    def by_sub_ms(self, sub: str) -> tuple[float, int]:
        """Median fastest repeat of the ops of one cli subcommand, and their number."""
        values = [dt for dt, s in zip(self.best, self.subs) if s == sub]
        return (1e3 * statistics.median(values) if values else 0.0), len(values)


def run_phase(wl, seconds: float, tally, failures, tracer=None, min_passes: int = 1,
              idle=None) -> Phase:
    """Run whole passes until one more would end past `seconds` (at least min_passes).

    With an installed tracer, runs exactly one pass and uninstalls it.
    """
    phase = Phase(wl)
    start = perf_counter()
    while True:
        try:
            outcomes = run_pass(wl, tracer, idle)
        finally:
            if tracer:  # checkers call the library too; keep them out of the trace
                tracer.uninstall()
        phase.add(outcomes, check_pass(wl, outcomes, tally, failures))
        elapsed = perf_counter() - start
        if tracer or (phase.passes >= min_passes and elapsed * (1 + 0.5 / phase.passes) >= seconds):
            return phase


class SetupProbe:
    """Fresh interpreters that import the workload's dectlink modules, in rounds.

    A round starts SETUP_PER_ROUND interpreters one after another and keeps
    the fastest; other tenants of a shared machine only ever add time, and
    their slow spells last seconds, so rounds are spread over the whole run.
    """

    def __init__(self, module: str) -> None:
        self.code = _IMPORT_PROBE.format(module=module)
        self.rounds: list[list[tuple[float, float, int]]] = []
        self.spawn()  # warm the bytecode cache; not counted

    def spawn(self) -> tuple[float, float, int]:
        """(spawn-to-imported s, in-process import s, numpy loaded) of one fresh interpreter."""
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, "-c", self.code], stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            setup_s = perf_counter() - t0
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"import probe exited {proc.returncode}")
        import_s, numpy_loaded = line.split()
        return setup_s, float(import_s), int(numpy_loaded)

    def round(self) -> None:
        self.rounds.append([self.spawn() for _ in range(SETUP_PER_ROUND)])

    def scheduled(self, seconds: float):
        """An idle hook that runs SETUP_ROUNDS rounds evenly over `seconds`, and a finisher."""
        start = perf_counter()
        due = [start + seconds * k / SETUP_ROUNDS for k in range(SETUP_ROUNDS)]

        def idle() -> None:
            if due and perf_counter() >= due[0]:
                due.pop(0)
                self.round()

        def finish() -> None:
            while due:
                due.pop(0)
                self.round()

        return idle, finish

    @property
    def setup_s(self) -> float:
        return statistics.median(min(p[0] for p in r) for r in self.rounds)

    @property
    def samples(self) -> list[tuple[float, float, int]]:
        return [p for r in self.rounds for p in r]


def timed_metrics(wl, seconds: float, failures,
                  probe: SetupProbe) -> tuple[dict, dict, int, list[str]]:
    """End-to-end metrics over each op's fastest repeat.

    Other tenants of a shared machine slow a pass by up to 2x for seconds at
    a time; that load only ever adds time, so the fastest repeat of an op is
    the steadiest estimate of what the program itself costs. A cli pass of
    100 fresh interpreters usually fills a run, so cli ops mostly run once.
    The set-up probe rounds run between ops, outside their timing.
    """
    idle, finish = probe.scheduled(seconds)
    phase = run_phase(wl, seconds, Counter(), failures, idle=idle)
    finish()
    best = phase.best
    # cli ops run in child processes: report the largest of them.
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": probe.setup_s,
        "ops_per_s": phase.ops_per_s,
        "op_p50_ms": 1e3 * statistics.median(best),
        "op_p90_ms": 1e3 * statistics.quantiles(best, n=10)[8],
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    samples = {name: f"{len(best)} ops, fastest of {phase.passes} passes" for name in metrics}
    samples["setup_s"] = (f"median of {len(probe.rounds)} rounds, "
                          f"fastest of {SETUP_PER_ROUND} fresh interpreters each")
    samples["peak_rss_mb"] = "largest child process" if wl.name == "cli" else "1 process"
    notes = ["setup_s round minima, s: "
             + json.dumps([round(min(p[0] for p in r), 4) for r in probe.rounds])]
    return metrics, samples, phase.attempted, notes


def traced_metrics(wl, dl, seconds: float, failures, spans_out: Path,
                   probe: SetupProbe) -> tuple[dict, dict, int, list[str]]:
    """Per-layer metrics, each with the number of calls (or ops) it rests on.

    A metric whose layer this workload never calls reads 0 with 0 samples.
    """
    metrics: dict[str, float] = {}
    samples: dict[str, int] = {}

    def put(name: str, value: float, n: int) -> None:
        metrics[name] = value
        samples[name] = n

    for _ in range(SETUP_TRACED_ROUNDS):
        probe.round()
    imports = probe.samples
    put("import.dectlink_s", statistics.median(p[1] for p in imports), len(imports))
    put("import.numpy_loaded", max(p[2] for p in imports), len(imports))

    attempted = 0
    if wl.name == "cli":
        wall = run_phase(wl, seconds / 2, Counter(), failures)
        attempted += wall.attempted
        wl.inproc = True
        untraced = run_phase(wl, 0.0, Counter(), failures, min_passes=2)  # first pass warms up
        for sub in CLI_SUBS:
            put(f"cli.{sub}.wall_ms", *wall.by_sub_ms(sub))
            put(f"cli.{sub}.inproc_ms", *untraced.by_sub_ms(sub))
    else:
        untraced = run_phase(wl, seconds / 2, Counter(), failures)
        for sub in CLI_SUBS:
            put(f"cli.{sub}.wall_ms", 0.0, 0)
            put(f"cli.{sub}.inproc_ms", 0.0, 0)

    tracer = Tracer()
    tracer.calibrate()
    instrument(tracer, dl, wl.refs)
    tally: Counter = Counter()
    traced = run_phase(wl, 0.0, tally, failures, tracer)
    attempted += untraced.attempted + traced.attempted
    tracer.dump(spans_out)

    layers = tracer.layers()
    empty = {"calls": 0, "self_ns": 0.0, "units": 0, "counted": 0, "correction_ns": 0.0}

    def layer(name):
        return layers.get(name, empty)

    def per(name, key="calls"):
        agg = layer(name)
        return agg["self_ns"] / 1e3 / agg[key] if agg[key] else 0.0

    for name, span in (("config.load", "config.load"), ("config.model", "config.model"),
                       ("propagation.flags", "propagation.flags"), ("budget.solve", "budget.solve"),
                       ("fixtures.load", "fixtures.load")):
        put(f"{name}_calls", layer(span)["calls"], layer(span)["calls"])
        put(f"{name}_us", per(span), layer(span)["calls"])

    path_loss_calls = tracer.ticks[0]
    put("propagation.path_loss_calls", path_loss_calls, path_loss_calls)
    path_loss_ns, replayed = 0.0, 0
    if path_loss_calls:
        path_loss_ns, replayed = replay_ns_per_call(
            dl.propagation.PathLossModel, "path_loss",
            lambda: run_phase(wl, 0.0, Counter(), failures), path_loss_calls)
        attempted += len(wl.ops)
    put("propagation.path_loss_us", path_loss_ns / 1e3, replayed)
    sweep = layer("propagation.sweep")
    put("propagation.sweep_points", sweep["units"], sweep["calls"])
    put("propagation.sweep_us_per_point", per("propagation.sweep", "units"), sweep["units"])

    solve = layer("budget.solve")
    put("budget.path_loss_per_solve", solve["counted"] / solve["calls"] if solve["calls"] else 0.0,
        solve["calls"])
    for outcome in ("reached", "unreachable", "capped"):
        put(f"budget.solve_{outcome}", tally[f"budget.solve_{outcome}"], solve["calls"])

    load, summ = layer("campaign.load"), layer("campaign.summarize")
    put("campaign.load_calls", load["calls"], load["calls"])
    put("campaign.rows", load["units"], load["calls"])
    put("campaign.load_us_per_row", per("campaign.load", "units"), load["units"])
    put("campaign.summarize_us_per_row", per("campaign.summarize", "units"), summ["units"])
    alloc = alloc_bytes_per_row(dl, wl.refs) if load["calls"] else 0.0
    put("campaign.alloc_bytes_per_row", alloc, len(wl.refs) if load["calls"] else 0)
    put("campaign.rejected", tally["campaign.rejected"], load["calls"])
    put("campaign.warnings", tally["campaign.warnings"], load["calls"])

    closed, iterative = layer("fitting.closed_form"), layer("fitting.iterative")
    put("fitting.closed_form_calls", closed["calls"], closed["calls"])
    put("fitting.closed_form_us_per_point", per("fitting.closed_form", "units"), closed["units"])
    put("fitting.iterative_calls", iterative["calls"], iterative["calls"])
    put("fitting.iterative_iterations", iterative["units"], iterative["calls"])
    put("fitting.iterative_us", per("fitting.iterative"), iterative["calls"])

    n_cli = len(wl.ops) if wl.name == "cli" else 0
    put("cli.stdout_bytes", tally["cli.stdout_bytes"] / len(wl.ops), n_cli)
    put("cli.expected_exit2", tally["cli.expected_exit2"], n_cli)

    n_ops = len(wl.ops)
    put("trace.ops_per_s", traced.last_pass_ops_per_s, n_ops)
    put("trace.untraced_ops_per_s", untraced.last_pass_ops_per_s, n_ops)
    put("trace.overhead_ratio", traced.last_pass_ops_per_s / untraced.last_pass_ops_per_s, n_ops)
    put("trace.count_wrapper_ns", tracer.wrapper_ns, CALIBRATE_CALLS)
    corrections = {name: agg["correction_ns"] / 1e3 / agg["calls"]
                   for name, agg in layers.items() if agg["correction_ns"]}
    notes = [
        f"path_loss count wrapper: {tracer.wrapper_ns:.1f} ns per call, subtracted from the self "
        "time of the span around each call; us per span call: "
        + json.dumps({k: round(v, 3) for k, v in sorted(corrections.items())}),
        f"propagation.path_loss_us: unwrapped replay of {replayed} of {path_loss_calls} calls",
    ]
    return metrics, samples, attempted, notes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=("plan", "campaign", "cli"))
    p.add_argument("--manifest", required=True, type=Path)
    p.add_argument("--src", required=True, type=Path)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans-out", type=Path)
    args = p.parse_args(argv)

    sys.path.insert(0, str(args.src))
    import dectlink

    if args.workload == "cli":
        import dectlink.cli  # noqa: F401  (in-process main and the checkers' library calls)
    src = args.src.resolve()
    if src not in Path(dectlink.__file__).resolve().parents:
        print(f"dectlink was imported from {dectlink.__file__}, not from {src}", file=sys.stderr)
        return 3

    manifest = json.loads(args.manifest.read_text(encoding="utf-8"))
    if args.workload == "plan":
        wl = PlanWorkload(manifest, dectlink)
    elif args.workload == "campaign":
        wl = CampaignWorkload(manifest, dectlink)
    else:
        wl = CliWorkload(manifest, dectlink, env=dict(os.environ))

    probe = SetupProbe("dectlink.cli" if args.workload == "cli" else "dectlink")
    failures: list[str] = []
    if args.trace:
        metrics, samples, attempted, notes = traced_metrics(wl, dectlink, args.seconds, failures,
                                                     args.spans_out, probe)
    else:
        metrics, samples, attempted, notes = timed_metrics(wl, args.seconds, failures, probe)
    for line in failures[:MAX_FAILURES_SHOWN]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({"attempted": attempted, "failed": len(failures),
                      "metrics": metrics, "samples": samples, "notes": notes}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
