"""Experiment harness: metrics, paper-format tables, and the drivers that
regenerate every table and figure of the paper's evaluation section."""

from repro.eval.metrics import SuiteResult
from repro.eval.tables import format_comparison_table
from repro.eval import experiments

__all__ = [
    "SuiteResult",
    "format_comparison_table",
    "experiments",
]
