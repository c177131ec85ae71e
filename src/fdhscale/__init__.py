"""Free disposal hull efficiency analysis.

Radial efficiency under four scaling regimes, stepwise response functions,
incremental/decremental scale ratios, one-sided and global returns-to-scale
classification, and an exact rational brute-force verifier for all of it.
"""

from ._version import __version__
from .efficiency import (
    EfficiencyScores,
    Score,
    phi,
    radial,
    theta,
)
from .errors import (
    AnalysisError,
    DimensionMismatchError,
    DuplicateNameError,
    EmptyDatasetError,
    IndexOutOfRangeError,
    InefficientUnitError,
    NoInputColumnsError,
    NonpositiveValueError,
    NoOutputColumnsError,
    OutOfDomainError,
    ParseError,
    RaggedRowsError,
    ReportWriteError,
    ValueSpreadError,
)
from .io_cli import (
    build_classification_document,
    build_efficiency_document,
    build_ratios_document,
    build_report_document,
    main,
    read_csv,
    read_csv_text,
    response_csv,
    write_csv,
    write_report,
)
from .model import (
    Dataset,
    Delta,
    Numeric,
    Orientation,
    RatioTable,
    Tolerance,
    ratio_table,
    validate_dataset,
)
from .response import (
    ResponseFunction,
    StepDerivative,
    build_response,
    one_sided_step_derivatives,
)
from .rts import (
    GrsClass,
    InefficientUnit,
    LeftRts,
    OneSidedRts,
    RightRts,
    RtsReport,
    check_consistency,
    classify_all,
    classify_unit,
)
from .scale import (
    UNBOUNDED,
    ScaleRatios,
    UnboundedRatio,
    scale_ratios,
)
from .technology import Point, find_dominating, member

# The verifier's names, and ``oracle`` itself, load on first use (PEP 562): of
# the commands, only ``verify`` runs it.
_ORACLE_NAMES = frozenset(
    "CheckResult OracleConfig ScalingSystem oracle_phi oracle_response_value "
    "oracle_sigma_minus oracle_sigma_plus oracle_system_feasible oracle_theta "
    "random_dataset verify_dataset verify_random".split()
)


def __getattr__(name: str):
    if name == "oracle" or name in _ORACLE_NAMES:
        from importlib import import_module

        oracle = import_module(f"{__name__}.oracle")
        return oracle if name == "oracle" else getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_ORACLE_NAMES, "oracle"})


__all__ = [
    "__version__",
    "AnalysisError",
    "CheckResult",
    "Dataset",
    "Delta",
    "DimensionMismatchError",
    "DuplicateNameError",
    "EfficiencyScores",
    "EmptyDatasetError",
    "GrsClass",
    "IndexOutOfRangeError",
    "InefficientUnit",
    "InefficientUnitError",
    "LeftRts",
    "NoInputColumnsError",
    "NonpositiveValueError",
    "NoOutputColumnsError",
    "Numeric",
    "OneSidedRts",
    "OracleConfig",
    "Orientation",
    "OutOfDomainError",
    "ParseError",
    "Point",
    "RaggedRowsError",
    "RatioTable",
    "ReportWriteError",
    "ResponseFunction",
    "RightRts",
    "RtsReport",
    "ScaleRatios",
    "ScalingSystem",
    "Score",
    "StepDerivative",
    "Tolerance",
    "UnboundedRatio",
    "UNBOUNDED",
    "ValueSpreadError",
    "build_classification_document",
    "build_efficiency_document",
    "build_ratios_document",
    "build_report_document",
    "build_response",
    "check_consistency",
    "classify_all",
    "classify_unit",
    "find_dominating",
    "main",
    "member",
    "one_sided_step_derivatives",
    "oracle_phi",
    "oracle_response_value",
    "oracle_sigma_minus",
    "oracle_sigma_plus",
    "oracle_system_feasible",
    "oracle_theta",
    "phi",
    "radial",
    "random_dataset",
    "ratio_table",
    "read_csv",
    "read_csv_text",
    "response_csv",
    "scale_ratios",
    "theta",
    "validate_dataset",
    "verify_dataset",
    "verify_random",
    "write_csv",
    "write_report",
]
