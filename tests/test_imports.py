"""What a run loads, and the lazy `dectlink` namespace that lets it load little.

Each import-set test runs a fresh `python -S` interpreter, so no module
that other tests imported earlier can hide one that a run pulls in.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dectlink

from conftest import synth_capture_rows, write_capture, write_fit_points

SRC = str(Path(dectlink.__file__).resolve().parent.parent)
# Printed last by every child: the dectlink submodules it loaded, then the watched stdlib ones.
REPORT_LOADED = (
    "import sys\n"
    "print(*sorted(m for m in sys.modules if m.startswith('dectlink.')))\n"
    "print(*sorted(m for m in ('dataclasses', 'inspect', 'pathlib', 'typing')"
    " if m in sys.modules))\n"
)
# Every CLI run loads these; a subcommand adds at most the one module its handler imports.
CLI_BASE = ["dectlink.budget", "dectlink.cli", "dectlink.config", "dectlink.propagation",
            "dectlink.tabular"]
HEIGHTS = ["--h-tx", "10", "--h-rx", "1.5"]


def loaded_after(code: str, cwd: Path | None = None) -> tuple[list[str], list[str]]:
    """The dectlink submodules and watched stdlib modules that `code` loads in `python -S`."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "DECTLINK_CONFIG")}
    env["PYTHONPATH"] = SRC
    proc = subprocess.run([sys.executable, "-S", "-c", code + "\n" + REPORT_LOADED], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    *_, submodules, stdlib = proc.stdout.splitlines()
    return submodules.split(), stdlib.split()


def test_importing_the_package_loads_no_submodule():
    assert loaded_after("import dectlink") == ([], [])


def test_planning_through_the_package_loads_only_the_planning_modules():
    code = (
        "import dectlink\n"
        "cfg = dectlink.load_config(None, {'h_tx_m': 10.0, 'h_rx_m': 1.5})\n"
        "for kind in dectlink.MODEL_KINDS:\n"
        "    dectlink.max_link_distance(cfg.budget(), cfg.model(kind), cfg.thresholds(),"
        " 'outdoor')\n"
    )
    assert loaded_after(code) == (
        ["dectlink.budget", "dectlink.config", "dectlink.propagation", "dectlink.tabular"], [])


@pytest.mark.parametrize("argv, adds, stdlib", [
    (["plan", "--environment", "indoor", "--models", "all", *HEIGHTS], [], []),
    (["model", "eval", "--model", "okumura-hata", "--d", "500", *HEIGHTS], [], []),
    (["model", "sweep", "--models", "all", "--start", "1", "--end", "1000", "--points", "5",
      *HEIGHTS], [], []),
    (["fit", "--input", "points.csv", "--engine", "iterative"], ["dectlink.fitting"],
     ["dataclasses", "inspect"]),
    (["analyze", "site.csv", "--format", "csv"], ["dectlink.campaign"],
     ["dataclasses", "inspect", "typing"]),
    (["report", *HEIGHTS], ["dectlink.fixtures"], ["pathlib"]),
], ids=["plan", "model-eval", "model-sweep", "fit", "analyze", "report"])
def test_each_subcommand_loads_only_its_own_modules(tmp_path, argv, adds, stdlib):
    write_capture(tmp_path, "site", synth_capture_rows(1, n=50))
    write_fit_points(tmp_path, "points", 1)
    code = f"from dectlink.cli import main\nassert main({argv!r}) == 0"
    assert loaded_after(code, cwd=tmp_path) == (sorted(CLI_BASE + adds), stdlib)


def test_every_exported_name_is_its_submodules_object():
    for module, names in dectlink._EXPORTS.items():
        submodule = importlib.import_module(f"dectlink.{module}")
        for name in names:
            assert getattr(dectlink, name) is getattr(submodule, name), name


def test_star_import_binds_all_and_dir_lists_it():
    namespace: dict = {}
    exec("from dectlink import *", namespace)
    assert set(dectlink.__all__) <= set(namespace)
    listed = dir(dectlink)
    assert set(dectlink.__all__) <= set(listed)
    assert {"cli", "config", "fixtures", "tabular", "__version__"} <= set(listed)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'dectlink' has no attribute 'bogus'$"):
        dectlink.bogus  # noqa: B018
    assert not hasattr(dectlink, "_bogus")


def test_first_use_binds_every_name_of_its_submodule():
    code = (
        "import dectlink\n"
        "names = dectlink._EXPORTS['config']\n"
        "assert not set(names) & set(vars(dectlink))\n"
        "dectlink.load_config\n"
        "assert set(names) <= set(vars(dectlink))\n"
        "assert 'LinkBudget' not in vars(dectlink)\n"
        "dectlink.fixtures.load_pathloss_comparison\n"
    )
    assert loaded_after(code)[0] == ["dectlink.budget", "dectlink.config", "dectlink.fixtures",
                                     "dectlink.propagation", "dectlink.tabular"]
