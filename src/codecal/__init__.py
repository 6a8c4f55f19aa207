"""Calibration and group-conditional recalibration of code-generation confidences."""

import os as _os

# Set before numpy loads its BLAS: OpenBLAS splits a reduction over as
# many threads as there are CPUs, so fitted values would depend on the
# CPU count, and its threads would compete with forked workers.
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & _os.environ.keys():
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"

import importlib as _importlib

# Each public name and the module it comes from.  Modules load on first
# use (PEP 562), so ``import codecal`` loads no numpy and the command
# line loads it only in the commands that compute.
_EXPORTS = {
    "binning": ("BinGrid", "assign_bins", "round_to_grid_index"),
    "calibrators": (
        "GcurModel",
        "HistogramBinningModel",
        "IterativePatchModel",
        "PlattModel",
        "clamped_logit",
        "fit_gcur_linear",
        "fit_gcur_logistic",
        "fit_histogram_binning",
        "fit_ighb",
        "fit_iglb",
        "fit_platt",
        "model_from_json",
        "model_to_json",
        "sigmoid",
    ),
    "data": ("Sample", "SplitSpec", "load_records", "save_records"),
    "errors": ("CodecalError", "DataError"),
    "groups": ("GroupingConfig", "GroupingModel", "GroupSet"),
    "metrics": ("brier_skill_score", "evaluate"),
    "report": ("EvalReport",),
    "scoring": ("ConfidenceMethod", "score_sample"),
    "synthgen": ("Block", "SynthSpec", "generate"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:
        return _importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
