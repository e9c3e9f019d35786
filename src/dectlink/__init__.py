"""dectlink: link-budget and link-distance planning for DECT-2020 NR class radios.

`import dectlink` loads no submodule. The first use of an exported name, or
of a submodule attribute such as `dectlink.config`, imports that submodule
and binds all of its exported names here, so later lookups are plain
attribute hits and a run loads only the modules it uses.
"""

__version__ = "0.1.0"

# Submodule -> the names the package exports from it.
_EXPORTS = {
    "budget": (
        "LinkBudget", "ReliabilityThresholds", "ThresholdUnreachable", "allowed_path_loss_db",
        "distance_for_path_loss", "empirical_pl", "is_reliable", "max_link_distance",
        "noise_floor_dbm", "predict_rx_power_dbm", "predict_snr_db",
    ),
    "campaign": (
        "CampaignRecord", "LocationCapture", "load_capture", "max_reliable_distance",
        "mean_power_db", "sample_std_db", "success_rate_pcc", "success_rate_pdc", "summarize",
    ),
    "config": ("CONFIG_ENV_VAR", "RunConfig", "load_config"),
    "fitting": ("FitResult", "fit_log_distance", "fit_log_distance_iterative"),
    "propagation": (
        "MODEL_KINDS", "AntennaGeometry", "Frequency", "HataEnvironment", "PathLossModel",
        "ValidityFlag", "cost231_hata", "evaluate_sweep", "fspl", "okumura_hata", "pl_inf_los",
        "pl_inh_los", "two_ray", "two_ray_crossover_m",
    ),
}
_SUBMODULES = (*_EXPORTS, "cli", "fixtures", "tabular")
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)


def __getattr__(name: str):
    source = _SOURCE.get(name, name if name in _SUBMODULES else None)
    if source is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f"{__name__}.{source}")
    namespace = globals()
    for export in _EXPORTS.get(source, ()):
        namespace[export] = getattr(module, export)
    return namespace[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
