"""The three workloads: what one op runs, how it is checked, what gets traced.

Every workload calls dectlink through attribute lookups on the package at
call time (dl.load_config, not a name bound at import), so the tracer's
wrappers see each call.
"""

from __future__ import annotations

import io
import subprocess
import sys
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from typing import NamedTuple

from checks import CRITERIA, KINDS, check_batch, check_capture, check_cli, check_plan

CLI_TIMEOUT_S = 60


class PlanWorkload:
    """One op: resolve a config, build all six models, solve both criteria, inspect each answer."""

    name = "plan"

    def __init__(self, manifest: dict, dl) -> None:
        self.dl = dl
        self.ops = manifest["ops"]
        self.refs: list[dict] = []

    def region(self, op: dict) -> str:
        return "op.plan"

    def execute(self, req: dict) -> list:
        dl = self.dl
        cfg = dl.load_config(None, req["overrides"])
        budget, thresholds = cfg.budget(), cfg.thresholds()
        env = req["environment"]
        out = []
        for kind in KINDS:
            model = cfg.model(kind)
            for criterion in CRITERIA:
                try:
                    d = dl.max_link_distance(budget, model, thresholds, env, criterion)
                except dl.ThresholdUnreachable:
                    out.append((kind, criterion, None, (), None, None))
                    continue
                out.append((
                    kind,
                    criterion,
                    d,
                    tuple(flag.code for flag in model.flags(d)),
                    dl.predict_rx_power_dbm(budget, model, d),
                    dl.predict_snr_db(budget, model, d),
                ))
        return out

    def check(self, req: dict, outcome, tally) -> str | None:
        return check_plan(req, outcome, tally)


class CampaignWorkload:
    """One op: load_capture + summarize of one capture, or the batch end over the last batch."""

    name = "campaign"

    def __init__(self, manifest: dict, dl) -> None:
        self.dl = dl
        self.ops = manifest["ops"]
        self.refs = manifest["captures"]
        self.budget = dl.LinkBudget()
        self.thresholds = dl.ReliabilityThresholds()
        self.records: dict[int, object] = {}

    def region(self, op: dict) -> str:
        return "op.campaign"

    def execute(self, op: dict):
        dl = self.dl
        if "capture" in op:
            k = op["capture"]
            self.records.pop(k, None)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                capture = dl.load_capture(self.refs[k]["csv"])
                record = dl.summarize(capture, self.budget, self.thresholds)
            self.records[k] = record
            return record, len(caught)
        loaded = [k for k in op["batch"] if k in self.records]
        records = [self.records[k] for k in loaded]
        try:
            best = dl.max_reliable_distance(records, self.thresholds)
        except ValueError as exc:
            best = exc
        points = [(r.distance_m, r.empirical_pl_pcc_db) for r in records
                  if r.empirical_pl_pcc_db is not None]
        try:
            fit = dl.fit_log_distance(points)
        except ValueError as exc:
            fit = exc
        return loaded, best, fit

    def check(self, op: dict, outcome, tally) -> str | None:
        if "capture" in op:
            return check_capture(self.refs[op["capture"]], outcome, tally)
        if isinstance(outcome, BaseException):
            return f"batch raised {type(outcome).__name__}: {outcome}"
        loaded, best, fit = outcome
        return check_batch([self.refs[k] for k in loaded], (best, fit))


class CliResult(NamedTuple):
    rc: int
    stdout: str
    stderr: str
    warnings: int


class CliWorkload:
    """One op: one `python -m dectlink.cli` run, or dectlink.cli.main(argv) when inproc is set."""

    name = "cli"

    def __init__(self, manifest: dict, dl, env: dict) -> None:
        self.dl = dl
        self.ops = manifest["ops"]
        self.lookup = manifest["refs"]
        self.refs = [r for r in self.lookup.values() if "csv" in r]
        self.env = env
        self.inproc = False

    def region(self, op: dict) -> str:
        return f"cli.{op['sub']}"

    def execute(self, op: dict) -> CliResult:
        if self.inproc:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rc = self.dl.cli.main(op["args"])
            return CliResult(rc, out.getvalue(), err.getvalue(), len(caught))
        proc = subprocess.run(
            [sys.executable, "-m", "dectlink.cli", *op["args"]],
            capture_output=True, text=True, env=self.env, timeout=CLI_TIMEOUT_S,
        )
        return CliResult(proc.returncode, proc.stdout, proc.stderr,
                         proc.stderr.count("UserWarning: "))

    def check(self, op: dict, outcome, tally) -> str | None:
        return check_cli(op, outcome, self.dl, self.lookup, tally)


def instrument(tracer, dl, refs: list[dict]) -> None:
    """Wrap the public entry points of every loaded dectlink module."""
    rows_by_path = {r["csv"]: r["rows"] for r in refs}
    rows_by_id = {r["location_id"]: r["rows"] for r in refs}
    config, propagation, budget = dl.config, dl.propagation, dl.budget
    campaign, fitting = dl.campaign, dl.fitting
    tracer.wrap_function(config.load_config, "config.load")
    tracer.wrap_method(config.RunConfig, "model", "config.model")
    tracer.count_method(propagation.PathLossModel, "path_loss", "propagation.path_loss")
    tracer.wrap_method(propagation.PathLossModel, "flags", "propagation.flags")
    tracer.wrap_function(propagation.evaluate_sweep, "propagation.sweep",
                         units=lambda args, result: len(result))
    tracer.wrap_function(budget.max_link_distance, "budget.solve")
    tracer.wrap_function(campaign.load_capture, "campaign.load",
                         units=lambda args, result: rows_by_path.get(str(args[0]), 0))
    tracer.wrap_function(campaign.summarize, "campaign.summarize",
                         units=lambda args, result: rows_by_id.get(args[0].location_id, 0))
    tracer.wrap_function(fitting.fit_log_distance, "fitting.closed_form",
                         units=lambda args, result: len(args[0]))
    tracer.wrap_function(fitting.fit_log_distance_iterative, "fitting.iterative",
                         units=lambda args, result: result.iterations)
    fixtures = sys.modules.get("dectlink.fixtures")
    if fixtures is not None:
        for fn in (fixtures.load_pathloss_comparison, fixtures.load_indoor_locations,
                   fixtures.load_outdoor_locations, fixtures.load_system_parameters):
            tracer.wrap_function(fn, "fixtures.load")


def alloc_bytes_per_row(dl, refs: list[dict]) -> float:
    """Traced bytes a loaded capture keeps alive, per row, over every capture that loads."""
    total_bytes = total_rows = 0
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for ref in refs:
                before = tracemalloc.get_traced_memory()[0]
                try:
                    capture = dl.load_capture(ref["csv"])
                except ValueError:
                    continue
                total_bytes += tracemalloc.get_traced_memory()[0] - before
                total_rows += ref["rows"]
                del capture
    finally:
        tracemalloc.stop()
    return total_bytes / total_rows if total_rows else 0.0
