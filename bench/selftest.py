"""Self-tests of the benchmark harness.

Seeded inputs must be reproducible, every checker must accept dectlink's
real output and reject a perturbed one, and the tracer's self times must
partition an op. Run from the repository root:

    python3 -m pytest -q bench/selftest.py

The file name keeps these tests out of the repository's default pytest run.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import dectlink  # noqa: E402
import dectlink.cli  # noqa: E402,F401

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------- inputs


def _snapshot(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(tmp_path, monkeypatch, workload):
    monkeypatch.setattr(inputs, "CAMPAIGN_ROWS", (1e2, 1e3))  # same code path, less to write
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    manifests = [run.make_inputs(workload, seed, d) for seed, d in zip((5, 5, 6), dirs)]
    texts = [json.dumps(m, sort_keys=True).replace(str(d), "<dir>") for m, d in zip(manifests, dirs)]
    assert texts[0] == texts[1]
    assert _snapshot(dirs[0]) == _snapshot(dirs[1])
    assert texts[0] != texts[2]


def test_campaign_pool_has_about_one_comma_comment_in_twenty(tmp_path, monkeypatch):
    monkeypatch.setattr(inputs, "CAMPAIGN_ROWS", (1e2, 1e3))
    manifest = inputs.campaign_inputs(1, tmp_path)
    comma = [c for c in manifest["captures"] if c["comma"]]
    assert 18 <= len(manifest["captures"]) / len(comma) <= 23
    assert len(manifest["ops"]) >= 100
    first_line = Path(comma[0]["csv"]).read_text().splitlines()[0]
    assert first_line.startswith("# site ") and "," in first_line


# ---------------------------------------------------------------- plan


def _plan(req):
    return workloads.PlanWorkload({"ops": [req]}, dectlink).execute(req)


def test_plan_checker_accepts_every_real_answer():
    tally = Counter()
    for req in inputs.plan_inputs(3, n=40)["ops"]:
        assert checks.check_plan(req, _plan(req), tally) is None
    assert tally["budget.solve_reached"] == 40 * 12


def test_plan_checker_rejects_perturbed_answers():
    req = inputs.plan_inputs(3, n=1)["ops"][0]
    out = _plan(req)
    kind, crit, d, codes, rx, snr = out[0]
    cases = {
        "1 % long": [(kind, crit, d * 1.01, codes, rx, snr)] + out[1:],
        "rx off": [(kind, crit, d, codes, rx + 0.01, snr)] + out[1:],
        "unreachable": [(kind, crit, None, (), None, None)] + out[1:],
        "missing pair": out[1:],
        "raised": ValueError("boom"),
    }
    for name, bad in cases.items():
        assert checks.check_plan(req, bad, Counter()) is not None, name


def test_plan_checker_flags_must_include_the_textbook_ones():
    req = {"overrides": {"tx_power_dbm": 0.0, "h_tx_m": 10.0, "h_rx_m": 1.5}, "environment": "indoor"}
    out = _plan(req)
    stripped = [(k, c, d, (), rx, snr) for k, c, d, _, rx, snr in out]
    assert checks.check_plan(req, out, Counter()) is None
    assert "flags" in checks.check_plan(req, stripped, Counter())


def test_plan_checker_counts_capped_and_unreachable_answers():
    geometry = {"h_tx_m": 10.0, "h_rx_m": 1.5}
    tally = Counter()
    for power in (200.0, -200.0):
        req = {"overrides": {"tx_power_dbm": power, **geometry}, "environment": "outdoor"}
        assert checks.check_plan(req, _plan(req), tally) is None
    assert tally["budget.solve_capped"] > 0
    assert tally["budget.solve_unreachable"] == 12


# ---------------------------------------------------------------- campaign


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    directory = tmp_path_factory.mktemp("captures")
    rng = inputs.rng_for("selftest", 1)
    refs = [
        inputs.write_capture(directory, rng, f"s{k}", 400, margin, False)
        for k, margin in enumerate((-62.0, -70.0, -84.0, -98.0))
    ]
    refs.append(inputs.write_capture(directory, rng, "comma", 300, -70.0, True))
    return workloads.CampaignWorkload({"ops": [], "captures": refs}, dectlink)


def _execute(wl, op):
    try:
        return wl.execute(op)
    except Exception as exc:
        return exc


def test_capture_checker_accepts_real_summaries(campaign):
    tally = Counter()
    for k in range(5):
        assert checks.check_capture(campaign.refs[k], _execute(campaign, {"capture": k}), tally) is None
    assert tally["campaign.rejected"] == 1
    assert tally["campaign.warnings"] == sum(r["glitch_values"] for r in campaign.refs[:4])


def test_capture_checker_rejects_perturbed_summaries(campaign):
    ref = campaign.refs[1]
    record, n_warnings = campaign.execute({"capture": 1})
    one_request = 100.0 / ref["request_count"]
    cases = {
        "sr off by one request": (dataclasses.replace(record, sr_pcc_pct=record.sr_pcc_pct + one_request), n_warnings),
        "mean off": (dataclasses.replace(record, mean_pcc_rssi_dbm=record.mean_pcc_rssi_dbm + 1e-6), n_warnings),
        "max off": (dataclasses.replace(record, max_pcc_rssi_dbm=record.max_pcc_rssi_dbm + 0.1), n_warnings),
        "extra warnings": (record, ref["glitch_values"] + 1),
        "rejected without a comma comment": ValueError("line 1: bad header"),
    }
    for name, bad in cases.items():
        assert checks.check_capture(ref, bad, Counter()) is not None, name


def test_batch_checker_accepts_real_and_rejects_perturbed(campaign):
    for k in range(5):
        _execute(campaign, {"capture": k})
    loaded, best, fit = campaign.execute({"batch": [0, 1, 2, 3, 4]})
    assert loaded == [0, 1, 2, 3]
    refs = [campaign.refs[k] for k in loaded]
    assert checks.check_batch(refs, (best, fit)) is None
    shifted = dataclasses.replace(fit, params=(fit.params[0] + 1e-5, fit.params[1]))
    assert checks.check_batch(refs, (best, shifted)) is not None
    assert checks.check_batch(refs, (dataclasses.replace(best, distance_m=best.distance_m * 1.01), fit)) is not None


# ---------------------------------------------------------------- cli


@pytest.fixture(scope="module")
def cli_runs(tmp_path_factory):
    """Every op of a cli pool run in-process, with its result."""
    manifest = inputs.cli_inputs(4, tmp_path_factory.mktemp("cli"))
    wl = workloads.CliWorkload(manifest, dectlink, env={})
    wl.inproc = True
    return wl, [(op, wl.execute(op)) for op in wl.ops]


def test_cli_checker_accepts_every_real_run(cli_runs):
    wl, runs = cli_runs
    tally = Counter()
    for op, result in runs:
        assert wl.check(op, result, tally) is None, op["args"]
    assert tally["cli.expected_exit2"] == dict(inputs.CLI_MIX)["usage"]


def _first(runs, sub, **match):
    return next((op, r) for op, r in runs
                if op["sub"] == sub and all(op.get(k) == v for k, v in match.items()))


def _edit_csv(text: str, row: int, col: int, edit) -> str:
    """Replace one CSV cell with edit(float(cell))."""
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(edit(float(cells[col])))
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _edit_after(text: str, marker: str, edit) -> str:
    """Replace the number that follows the first `marker` with edit(number)."""
    i = text.index(marker) + len(marker)
    number = text[i:].split()[0]
    return text[:i] + text[i:].replace(number, f"{edit(float(number)):.4f}", 1)


def test_cli_checker_rejects_perturbed_runs(cli_runs):
    wl, runs = cli_runs
    cases = []
    op, r = _first(runs, "plan", format="csv")
    cases.append(("plan distance 1 % long", op,
                  r._replace(stdout=_edit_csv(r.stdout, 1, 3, lambda d: d * 1.01))))
    op, r = _first(runs, "plan", format="table")
    cases.append(("plan table distance 1 % long", op,
                  r._replace(stdout=_edit_after(r.stdout, "-> ", lambda d: d * 1.01))))
    op, r = _first(runs, "analyze", format="csv")
    one_request = 100.0 / wl.lookup[r.stdout.splitlines()[1].split(",")[0]]["request_count"]
    cases.append(("analyze sr off by one request", op,
                  r._replace(stdout=_edit_csv(r.stdout, 1, 6, lambda sr: sr + one_request))))
    op, r = _first(runs, "fit")
    cases.append(("fit pl0", op, r._replace(stdout=_edit_after(r.stdout, "pl0_db: ", lambda v: v + 0.02))))
    op, r = _first(runs, "model-eval")
    cases.append(("model eval", op, r._replace(stdout=_edit_after(r.stdout, "", lambda v: v + 0.02))))
    cases.append(("internal error", op, r._replace(rc=1)))
    op, r = _first(runs, "report", format="csv")
    cases.append(("report fspl", op, r._replace(stdout=_edit_csv(r.stdout, 1, 5, lambda v: v + 1e-6))))
    op, r = _first(runs, "usage")
    cases.append(("usage error exits 0", op, r._replace(rc=0)))
    for name, op, bad in cases:
        assert wl.check(op, bad, Counter()) is not None, name


def test_cli_checker_rejects_a_perturbed_sweep_file(cli_runs):
    wl, runs = cli_runs
    op, r = _first(runs, "model-sweep")
    path = Path(op["out"])
    text = path.read_text()
    path.write_text(_edit_csv(text, len(text.splitlines()) - 1, 1, lambda v: v + 1e-6))
    try:
        assert wl.check(op, r, Counter()) is not None
    finally:
        path.write_text(text)


# ---------------------------------------------------------------- tracer


def test_tracer_self_times_partition_an_op_and_uninstall_restores():
    originals = (dectlink.load_config, dectlink.config.load_config, dectlink.PathLossModel.path_loss)
    tracer = spans.Tracer()
    assert tracer.calibrate() > 0
    workloads.instrument(tracer, dectlink, [])
    assert dectlink.load_config is not originals[0]
    assert dectlink.config.load_config is not originals[1]
    with tracer.region("op", 0):
        cfg = dectlink.load_config(None, {"h_tx_m": 10.0, "h_rx_m": 1.5})
        model = cfg.model("two-ray")
        dectlink.max_link_distance(cfg.budget(), model, cfg.thresholds(), "indoor")
    tracer.uninstall()
    assert (dectlink.load_config, dectlink.config.load_config, dectlink.PathLossModel.path_loss) == originals

    layers = tracer.layers()
    assert {name: agg["calls"] for name, agg in layers.items()} == {
        "op": 1, "config.load": 1, "config.model": 1, "budget.solve": 1,
    }
    root = tracer.spans[0]
    total = sum(agg["self_ns"] + agg["correction_ns"] for agg in layers.values())
    assert total == pytest.approx(root[2] - root[1])
    solve = layers["budget.solve"]
    assert solve["counted"] == tracer.ticks[0] > 10
    assert solve["correction_ns"] == pytest.approx(solve["counted"] * tracer.wrapper_ns)


def test_replay_times_the_unwrapped_method_over_sampled_arguments(monkeypatch):
    model = dectlink.load_config(None, {}).model("fspl")

    def run():
        for k in range(1, 1001):
            model.path_loss(float(k))

    original = dectlink.PathLossModel.path_loss
    ns, replayed = spans.replay_ns_per_call(dectlink.PathLossModel, "path_loss", run, 1000)
    assert dectlink.PathLossModel.path_loss is original
    assert ns > 0 and replayed == 1000
    monkeypatch.setattr(spans, "REPLAY_MAX_SAMPLES", 100)
    assert spans.replay_ns_per_call(dectlink.PathLossModel, "path_loss", run, 1000)[1] == 100
