"""Calibration and group-conditional recalibration of code-generation confidences."""

import os as _os

# Set before numpy loads its BLAS: OpenBLAS splits a reduction over as
# many threads as there are CPUs, so fitted values would depend on the
# CPU count, and its threads would compete with forked workers.
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & _os.environ.keys():
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .binning import BinGrid, assign_bin, assign_bins, round_to_grid, round_to_grid_index
from .calibrators import (
    GcurModel,
    HistogramBinningModel,
    IterativePatchModel,
    PlattModel,
    clamped_logit,
    fit_gcur_linear,
    fit_gcur_logistic,
    fit_histogram_binning,
    fit_ighb,
    fit_iglb,
    fit_platt,
    model_from_json,
    model_to_json,
    sigmoid,
)
from .data import (
    Sample,
    SplitSpec,
    extract_code_span,
    load_records,
    save_records,
)
from .errors import CodecalError, DataError
from .groups import (
    GroupingConfig,
    GroupingModel,
    GroupSet,
    assemble,
    build_language_groups,
)
from .metrics import (
    EvalReport,
    accuracy_at_half,
    base_rate,
    brier,
    brier_reference,
    brier_skill_score,
    ece,
    evaluate,
    gasce,
    multicalibration_check,
    reliability_table,
)
from .scoring import ConfidenceMethod, score_sample
from .synthgen import Block, SynthSpec, generate

__version__ = "0.1.0"

__all__ = [
    "BinGrid",
    "Block",
    "CodecalError",
    "ConfidenceMethod",
    "DataError",
    "EvalReport",
    "GcurModel",
    "GroupSet",
    "GroupingConfig",
    "GroupingModel",
    "HistogramBinningModel",
    "IterativePatchModel",
    "PlattModel",
    "Sample",
    "SplitSpec",
    "SynthSpec",
    "accuracy_at_half",
    "assemble",
    "assign_bin",
    "assign_bins",
    "base_rate",
    "brier",
    "brier_reference",
    "brier_skill_score",
    "build_language_groups",
    "clamped_logit",
    "ece",
    "evaluate",
    "extract_code_span",
    "fit_gcur_linear",
    "fit_gcur_logistic",
    "fit_histogram_binning",
    "fit_ighb",
    "fit_iglb",
    "fit_platt",
    "gasce",
    "generate",
    "load_records",
    "model_from_json",
    "model_to_json",
    "multicalibration_check",
    "reliability_table",
    "round_to_grid",
    "round_to_grid_index",
    "save_records",
    "score_sample",
    "sigmoid",
]
