"""Exact arithmetic for weighted binomial power-sum ratio sequences.

The package constructs, entirely in integer/rational arithmetic, the
sequences

    s(r) = sum_{i<=r} (C(m,i) a^i)^l / sum_{i<=r} (C(r,i) a^i)^l,
    r = 0..m,

decides their structural properties (unimodality, log-concavity, peak
location versus the conjectured window), builds the integer-polynomial
certificates behind those properties for the central l=2, a=1 case, takes
asymptotic measurements in log space, and sweeps parameter grids.
"""

from .asymptotics import (
    LogValue,
    RatioResult,
    SandwichBounds,
    TheoryViolation,
    central_ratio,
    conjectured_ratio,
    log_of_rational,
    sandwich_bounds,
)
from .exact_core import (
    ExactSequence,
    SeqParams,
    binomial,
    binomial_power_sums,
    central_binomial_sequence,
    full_sequence,
    parse_rational,
    scaled_prefix_sums,
    scaled_row_sums,
    sequence_entry,
    weighted_power_sum,
)
from .poly_certificates import (
    CertificateError,
    CertificateReport,
    CertTable,
    IntPoly,
    Verdict,
    build_cert_table,
    dump_polynomials,
    run_all,
    verify_closed_forms,
    verify_domination_bound,
    verify_equivalence_chain,
    verify_left_peak_inequality,
    verify_right_peak_inequality,
    verify_sign_certificate,
)
from .property_checks import (
    LogConcavity,
    Peaks,
    PropertyReport,
    SequenceScan,
    Unimodality,
    check_log_concave,
    check_unimodal,
    conjecture_report,
    conjectured_center,
    known_l1_exception,
    peak_indices,
    peak_window,
    scan,
)
from .sweep_harness import (
    CellResult,
    ColumnCheck,
    SweepGrid,
    SweepReport,
    ThresholdResult,
    check_column_monotonicity,
    check_l_threshold,
    evaluate_cell,
    export_csv,
    export_json,
    load_csv_table,
    load_json,
    report_from_json_dict,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # exact_core
    "SeqParams",
    "ExactSequence",
    "binomial",
    "parse_rational",
    "weighted_power_sum",
    "binomial_power_sums",
    "scaled_prefix_sums",
    "scaled_row_sums",
    "sequence_entry",
    "full_sequence",
    "central_binomial_sequence",
    # property_checks
    "Unimodality",
    "LogConcavity",
    "Peaks",
    "SequenceScan",
    "PropertyReport",
    "scan",
    "check_unimodal",
    "check_log_concave",
    "peak_indices",
    "conjectured_center",
    "peak_window",
    "known_l1_exception",
    "conjecture_report",
    # poly_certificates
    "IntPoly",
    "CertTable",
    "Verdict",
    "CertificateReport",
    "CertificateError",
    "build_cert_table",
    "verify_closed_forms",
    "verify_domination_bound",
    "verify_sign_certificate",
    "verify_equivalence_chain",
    "verify_left_peak_inequality",
    "verify_right_peak_inequality",
    "run_all",
    "dump_polynomials",
    # asymptotics
    "LogValue",
    "SandwichBounds",
    "RatioResult",
    "TheoryViolation",
    "log_of_rational",
    "sandwich_bounds",
    "central_ratio",
    "conjectured_ratio",
    # sweep_harness
    "SweepGrid",
    "CellResult",
    "SweepReport",
    "ThresholdResult",
    "ColumnCheck",
    "evaluate_cell",
    "run_sweep",
    "check_column_monotonicity",
    "check_l_threshold",
    "export_csv",
    "load_csv_table",
    "export_json",
    "load_json",
    "report_from_json_dict",
]
