"""Command-line interface.

Subcommands: `model eval`, `model sweep`, `analyze`, `fit`, `plan`,
`report`. Exit codes are script-friendly: 0 for success (including
"threshold unreachable" planning outcomes), 2 for usage and domain errors,
1 for unexpected internal failures.

Each subcommand imports only the modules it uses. Every one loads `config`,
`budget`, `propagation` and `tabular`; `analyze` adds `campaign`, `fit`
adds `fitting` and `report` adds `fixtures`, each inside its handler.

Each `cmd_*` handler computes its answer and returns it: the CSV header and
rows, and the table lines, with None where the subcommand has no such form.
`main` alone writes: CSV when `--format csv` is given or the subcommand has
no table (`model sweep`), else the lines, to stdout or to `--out`, which is
opened only after the handler has returned. A run that fails leaves no file.

Human-readable output rounds dB and meters to two decimals; CSV output
carries full precision so downstream plotting loses nothing: `csv.writer`
writes each float as its repr and None as an empty cell. CSV bytes are
deterministic for identical inputs and configuration.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import warnings
from array import array
from contextlib import contextmanager

from .budget import (
    ENVIRONMENTS,
    SOLVE_CAP_M,
    ThresholdUnreachable,
    allowed_path_loss_db,
    distance_for_path_loss,
)
from .config import CONFIG_ENV_VAR, RunConfig, load_config
from .propagation import (
    AREA_CLASSES, CITY_SIZES, GEOMETRY_KINDS, MODEL_KINDS, _require_finite, evaluate_sweep,
)
from .tabular import float_column, read_table

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable, Iterator, Sequence
    from typing import TextIO

    # The CSV header, the CSV rows and the table lines; None where a subcommand has no such form.
    Answer = tuple[Sequence[str] | None, Iterable[Iterable[object]] | None, Iterable[str] | None]

# One flag per RunConfig field, in --help order: (flag, metavar or choices, help).
_CONFIG_FLAGS = {
    "frequency_hz": ("--f", "HZ", "carrier frequency in Hz (e.g. 1.899e9)"),
    "bandwidth_hz": ("--bandwidth", "HZ", "channel bandwidth in Hz"),
    "tx_power_dbm": ("--tx-power", "DBM", "transmit power in dBm"),
    "correction_tx_db": ("--correction-tx", "DB", "TX-side gain-minus-loss correction in dB"),
    "correction_rx_db": ("--correction-rx", "DB", "RX-side gain-minus-loss correction in dB"),
    "noise_figure_db": ("--noise-figure", "DB", "receiver noise figure in dB"),
    "min_success_rate": ("--min-sr", "PCT", "success-rate floor in percent (strict)"),
    "rssi_floor_indoor_dbm": ("--rssi-floor-indoor", "DBM", "indoor RSSI floor in dBm"),
    "rssi_floor_outdoor_dbm": ("--rssi-floor-outdoor", "DBM", "outdoor RSSI floor in dBm"),
    "snr_floor_indoor_db": ("--snr-floor-indoor", "DB", "indoor SNR floor in dB"),
    "snr_floor_outdoor_db": ("--snr-floor-outdoor", "DB", "outdoor SNR floor in dB"),
    "h_tx_m": ("--h-tx", "M", "TX antenna height in m (required by two-ray and Hata models)"),
    "h_rx_m": ("--h-rx", "M", "RX antenna height in m (required by two-ray and Hata models)"),
    "antenna_gain": ("--antenna-gain", "G", "combined linear antenna gain for the two-ray model"),
    "city_size": ("--city-size", CITY_SIZES, "Hata mobile-height correction variant"),
    "area_class": ("--area-class", AREA_CLASSES, "COST-231 area term"),
}

_REPORT_MODEL_COLUMNS = (
    ("fspl", "fspl_db"),
    ("two-ray", "two_ray_db"),
    ("okumura-hata", "okumura_hata_db"),
    ("cost231-hata", "cost231_db"),
)


def _fmt2(value: float | None) -> str:
    return "-" if value is None else f"{value:.2f}"


@contextmanager
def _output(out: str | None) -> Iterator[TextIO]:
    """Yield stdout, or the --out file, closed on exit; main calls it after the handler returns."""
    if out is not None:
        with open(out, "w", encoding="utf-8", newline="") as stream:
            yield stream
        return
    yield sys.stdout
    # A reader that went away fails here, inside main's try, not at interpreter exit.
    sys.stdout.flush()


def _write_csv(out: str | None, header: Sequence[str], rows: Iterable[Iterable[object]]) -> None:
    """Write the header, then each row as the iterable yields it."""
    with _output(out) as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_lines(out: str | None, lines: Iterable[str]) -> None:
    with _output(out) as stream:
        stream.write("\n".join(lines) + "\n")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    g = parser.add_argument_group(
        "configuration",
        "Flags override the config file, which overrides built-in defaults. "
        f"The config file path may also come from ${CONFIG_ENV_VAR}.",
    )
    g.add_argument("--config", metavar="PATH", help="key=value config file")
    for name, (flag, shape, text) in _CONFIG_FLAGS.items():
        kind = {"choices": shape} if isinstance(shape, tuple) else {"type": float, "metavar": shape}
        g.add_argument(flag, dest=name, help=text, **kind)


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    path = args.config or os.environ.get(CONFIG_ENV_VAR) or None
    return load_config(path, {name: getattr(args, name) for name in _CONFIG_FLAGS})


def _parse_model_list(arg: str) -> tuple[str, ...]:
    if arg == "all":
        return MODEL_KINDS
    # Repeats are dropped, keeping the first-seen order.
    kinds = tuple(dict.fromkeys(k.strip() for k in arg.split(",") if k.strip()))
    if not kinds:
        raise ValueError("no models given")
    for kind in kinds:
        if kind not in MODEL_KINDS:
            raise ValueError(f"unknown model {kind!r}; expected one of {MODEL_KINDS} or 'all'")
    return kinds


def cmd_model_eval(args: argparse.Namespace) -> Answer:
    model = _resolve_config(args).model(args.model)
    return None, None, [f"{model.path_loss(args.d):.2f} dB",
                        *(f"flag {flag}" for flag in model.flags(args.d))]


def cmd_model_sweep(args: argparse.Namespace) -> Answer:
    cfg = _resolve_config(args)
    kinds = _parse_model_list(args.models)
    models = [cfg.model(kind) for kind in kinds]
    # The distances, then one loss column per model, as packed doubles: each sweep's pairs
    # are dropped before the next model runs, and rows are formatted only as they are written.
    columns: list[array] = []
    for model in models:
        pairs = evaluate_sweep(model, args.start, args.end, args.points, args.spacing)
        if not columns:
            columns.append(array("d", (d for d, _ in pairs)))
        columns.append(array("d", (pl for _, pl in pairs)))
        del pairs
    return ["distance_m"] + [f"{kind}_db" for kind in kinds], zip(*columns), None


def cmd_analyze(args: argparse.Namespace) -> Answer:
    from .campaign import CampaignRecord, load_capture, max_reliable_distance, summarize

    cfg = _resolve_config(args)
    budget = cfg.budget()
    thresholds = cfg.thresholds()
    records = []
    for path in args.captures:
        try:
            records.append(summarize(load_capture(path), budget, thresholds))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    records.sort(key=lambda r: (r.distance_m, r.location_id))
    rows = ({**vars(r), "reliable": int(r.reliable)}.values() for r in records)

    head = (
        f"{'location':<28} {'d (m)':>9} {'SR pcc':>7} {'SR pdc':>7} "
        f"{'RSSI (dBm)':>11} {'std':>6} {'PL (dB)':>8} {'ok':>3}"
    )
    lines = [head, "-" * len(head)]
    for r in records:
        lines.append(
            f"{r.location_id:<28} {r.distance_m:>9.2f} {r.sr_pcc_pct:>7.2f} "
            f"{r.sr_pdc_pct:>7.2f} {_fmt2(r.mean_pcc_rssi_dbm):>11} "
            f"{r.std_pcc_rssi_db:>6.2f} {_fmt2(r.empirical_pl_pcc_db):>8} "
            f"{'yes' if r.reliable else 'no':>3}"
        )
    try:
        best = max_reliable_distance(records, thresholds)
        lines.append(
            f"max reliable distance: {best.distance_m:.2f} m ({best.location_id})"
        )
    except ValueError:
        lines.append("max reliable distance: none (no location clears the threshold)")
    return CampaignRecord.__match_args__, rows, lines


def _read_points_csv(path: str) -> list[tuple[float, float]]:
    """Read (distance_m, pl_db) fit input; '#' comment lines are skipped."""
    numbers, (distances, losses) = read_table(path, ("distance_m", "pl_db"))
    return list(
        zip(float_column(distances, numbers, "distance_m"), float_column(losses, numbers, "pl_db"))
    )


def cmd_fit(args: argparse.Namespace) -> Answer:
    from .fitting import fit_log_distance, fit_log_distance_iterative

    points = _read_points_csv(args.input)
    if args.engine == "closed-form":
        result = fit_log_distance(points, d0_m=args.d0)
    else:
        result = fit_log_distance_iterative(points, d0_m=args.d0)
    pl0, exponent = result.params
    return None, None, (
        f"pl0_db: {pl0:.2f}",
        f"exponent: {exponent:.4f}",
        f"rmse_db: {result.rmse_db:.2f}",
        f"points: {len(points)}",
        f"engine: {args.engine}",
        f"iterations: {result.iterations}",
        f"converged: {'yes' if result.converged else 'no'}",
    )


def cmd_plan(args: argparse.Namespace) -> Answer:
    cfg = _resolve_config(args)
    budget = cfg.budget()
    thresholds = cfg.thresholds()
    kinds = _parse_model_list(args.models)
    criteria = ("rssi", "snr") if args.criterion == "both" else (args.criterion,)

    allowed_by_criterion = {
        criterion: allowed_path_loss_db(budget, thresholds, args.environment, criterion)
        for criterion in criteria
    }
    rows: list[list[object]] = []
    lines = [
        f"environment: {args.environment}   tx power: {budget.p_tx_dbm:.2f} dBm   "
        f"corrections: {budget.total_correction_db:+.2f} dB   "
        f"noise floor: {budget.noise_floor_dbm:.2f} dBm"
    ]
    for kind in kinds:
        model = cfg.model(kind)
        reaches: dict[str, float | None] = {}
        for criterion, allowed in allowed_by_criterion.items():
            try:
                reaches[criterion] = distance_for_path_loss(model, allowed)
            except ThresholdUnreachable:
                reaches[criterion] = None
        # Of two criteria, the one with the shortest reach binds, unreachable counting as 0 m and
        # ties going to the first; a capped reach never binds, nor does any if none is reachable.
        ranked = {c: d or 0.0 for c, d in reaches.items() if d is None or d < SOLVE_CAP_M}
        binding = None
        if len(criteria) > 1 and ranked and any(d is not None for d in reaches.values()):
            binding = min(ranked, key=ranked.get)
        lines.append(f"model {kind}:")
        for criterion, reach in reaches.items():
            allowed = allowed_by_criterion[criterion]
            if reach is None:
                cell = "unreachable"
                text = "unreachable (loss already above budget at minimum range)"
            elif reach >= SOLVE_CAP_M:
                cell, text = "capped", f"capped (beyond the solver's {SOLVE_CAP_M:.0f} m limit)"
            else:
                cell, text = reach, f"{reach:.2f} m"
            rows.append([kind, criterion, allowed, cell, int(criterion == binding)])
            mark = "  (binding)" if criterion == binding else ""
            lines.append(f"  {criterion}: allowed PL {allowed:.2f} dB -> {text}{mark}")
    return ["model", "criterion", "allowed_pl_db", "max_distance_m", "binding"], rows, lines


def cmd_report(args: argparse.Namespace) -> Answer:
    from .fixtures import load_pathloss_comparison

    # No delta meets a negative or NaN tolerance, and every delta meets an infinite one.
    if _require_finite("tolerance", args.tolerance) < 0.0:
        raise ValueError(f"tolerance must be >= 0, got {args.tolerance!r}")
    cfg = _resolve_config(args)
    geometry = cfg.geometry()
    models = {
        kind: cfg.model(kind)
        for kind, _ in _REPORT_MODEL_COLUMNS
        if kind not in GEOMETRY_KINDS or geometry is not None
    }
    header = ["scenario", "distance_m", "emp_pcc_db", "emp_pdc_db"] + [
        f"{kind.replace('-', '_')}_{column}"
        for kind, _ in _REPORT_MODEL_COLUMNS
        for column in ("published_db", "computed_db", "delta_db", "status")
    ]
    rows: list[list[str | float | None]] = []
    lines: list[str] = []
    for row in load_pathloss_comparison():
        out = [row.scenario, row.distance_m, row.emp_pcc_db, row.emp_pdc_db]
        lines.append(f"{row.scenario} at {row.distance_m:.2f} m:")
        for kind, attr in _REPORT_MODEL_COLUMNS:
            published = getattr(row, attr)
            computed = models[kind].path_loss(row.distance_m) if kind in models else None
            if computed is None or published is None:
                out += [published, computed, None, None]
                if published is not None:
                    lines.append(f"  {kind}: published {published:.2f} dB, not computed "
                                 "(set --h-tx/--h-rx to compare)")
                continue
            delta = computed - published
            ok = abs(delta) <= args.tolerance
            out += [published, computed, delta, "ok" if ok else "inconsistent"]
            lines.append(f"  {kind}: published {published:.2f} dB, computed {computed:.2f} dB, "
                         f"delta {delta:+.2f} dB{'' if ok else '  INCONSISTENT'}")
        rows.append(out)
    return header, rows, lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dectlink",
        description="Link-budget and link-distance planning for DECT-2020 NR class radios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_model = sub.add_parser("model", help="evaluate path-loss models")
    model_sub = p_model.add_subparsers(dest="model_command", required=True)

    p_eval = model_sub.add_parser("eval", help="evaluate one model at one distance")
    p_eval.add_argument("--model", required=True, choices=MODEL_KINDS)
    p_eval.add_argument("--d", type=float, required=True, metavar="M",
                        help="distance in meters")
    _add_config_flags(p_eval)
    p_eval.set_defaults(handler=cmd_model_eval)

    p_sweep = model_sub.add_parser("sweep", help="evaluate models over a distance grid")
    p_sweep.add_argument("--models", required=True, metavar="KINDS",
                         help="comma-separated model kinds, or 'all'")
    p_sweep.add_argument("--start", type=float, required=True, metavar="M")
    p_sweep.add_argument("--end", type=float, required=True, metavar="M")
    p_sweep.add_argument("--points", type=int, required=True)
    p_sweep.add_argument("--spacing", choices=("log", "linear"), default="log")
    p_sweep.add_argument("--out", metavar="PATH", help="write CSV here instead of stdout")
    _add_config_flags(p_sweep)
    p_sweep.set_defaults(handler=cmd_model_sweep)

    p_analyze = sub.add_parser("analyze", help="summarize measurement captures")
    p_analyze.add_argument("captures", nargs="+", metavar="CAPTURE.csv",
                           help="capture CSVs; each needs a matching .meta sidecar")
    p_analyze.add_argument("--format", choices=("table", "csv"), default="table")
    p_analyze.add_argument("--out", metavar="PATH")
    _add_config_flags(p_analyze)
    p_analyze.set_defaults(handler=cmd_analyze)

    p_fit = sub.add_parser("fit", help="fit a log-distance model to (distance, PL) points")
    p_fit.add_argument("--input", required=True, metavar="POINTS.csv",
                       help="CSV with header distance_m,pl_db")
    p_fit.add_argument("--d0", type=float, default=1.0, metavar="M",
                       help="reference distance (default 1 m)")
    p_fit.add_argument("--engine", choices=("closed-form", "iterative"),
                       default="closed-form")
    p_fit.set_defaults(handler=cmd_fit)

    p_plan = sub.add_parser("plan", help="solve maximum link distance per model and criterion")
    p_plan.add_argument("--environment", required=True, choices=ENVIRONMENTS)
    p_plan.add_argument("--models", default="fspl", metavar="KINDS",
                        help="comma-separated model kinds, or 'all' (default fspl)")
    p_plan.add_argument("--criterion", choices=("rssi", "snr", "both"), default="both")
    p_plan.add_argument("--format", choices=("table", "csv"), default="table")
    p_plan.add_argument("--out", metavar="PATH")
    _add_config_flags(p_plan)
    p_plan.set_defaults(handler=cmd_plan)

    p_report = sub.add_parser(
        "report", help="compare bundled reference path-loss values with computed models"
    )
    p_report.add_argument("--tolerance", type=float, default=0.25, metavar="DB",
                          help="flag rows whose |computed - published| exceeds this (default 0.25)")
    p_report.add_argument("--format", choices=("table", "csv"), default="table")
    p_report.add_argument("--out", metavar="PATH")
    _add_config_flags(p_report)
    p_report.set_defaults(handler=cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # A library warning prints as one line, with no source path or code line.
    formatwarning = warnings.formatwarning
    warnings.formatwarning = lambda message, category, *_: f"{category.__name__}: {message}\n"
    try:
        header, rows, lines = args.handler(args)
        # The subcommand's only form, or the one --format picks; model eval and fit have no --out.
        out = getattr(args, "out", None)
        if lines is None or getattr(args, "format", None) == "csv":
            _write_csv(out, header, rows)
        else:
            _write_lines(out, lines)
        return 0
    except BrokenPipeError:
        # A reader that went away, from stdout or an --out pipe, is not an error: as the docs of
        # Python's signal module show, point stdout at devnull so that the flush at exit does not
        # fail again, and stop quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
