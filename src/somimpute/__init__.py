"""Self-organizing maps for incomplete data.

Train Kohonen maps on datasets with missing cells (distances and updates
restricted to observed components), classify incomplete rows against a
frozen map, estimate missing values from the winning code vectors, group
units into super-classes, and measure imputation error under controlled
random deletion.
"""

from .data import (
    DataMatrix,
    StandardizationParams,
    destandardize,
    fit_standardizer,
    standardize,
)
from .evaluation import (
    EvalReport,
    MaskingLedger,
    deletion_curve,
    mask_random,
    mean_impute_baseline,
    modality_proportions,
    pairwise_correlation,
    rmse_deleted,
)
from .imputation import (
    Fills,
    ImputationReport,
    apply_column_mean_fallback,
    impute,
    impute_ensemble,
    impute_multi,
)
from .metric import (
    UNCLASSIFIABLE,
    Assignment,
    CodeBook,
    assign,
)
from .superclass import (
    SuperClassing,
    hierarchical_codes,
    superclass_of_rows,
    ward_dendrogram,
)
from .topology import GridTopology
from .trainer import (
    ForgyResult,
    TrainingMode,
    TrainingSchedule,
    TrainResult,
    classify_supplementary,
    forgy_train,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "CodeBook",
    "DataMatrix",
    "EvalReport",
    "Fills",
    "ForgyResult",
    "GridTopology",
    "ImputationReport",
    "MaskingLedger",
    "StandardizationParams",
    "SuperClassing",
    "TrainResult",
    "TrainingMode",
    "TrainingSchedule",
    "UNCLASSIFIABLE",
    "apply_column_mean_fallback",
    "assign",
    "classify_supplementary",
    "deletion_curve",
    "destandardize",
    "fit_standardizer",
    "forgy_train",
    "hierarchical_codes",
    "impute",
    "impute_ensemble",
    "impute_multi",
    "mask_random",
    "mean_impute_baseline",
    "modality_proportions",
    "pairwise_correlation",
    "rmse_deleted",
    "standardize",
    "superclass_of_rows",
    "train",
    "ward_dendrogram",
]
