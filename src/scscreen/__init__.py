"""Composition-based superconductor screening.

Subpackages by responsibility:

- formula: chemical-formula parsing and normalized compositions
- ptable: periodic-table geometry and the grid encoder
- dataset: ingestion, cleaning rules, synthetic negatives, rotating folds
- nn: a small from-scratch convolutional regressor/classifier
- metrics: thresholded confusion reports and related statistics
- baseline: element-statistics features plus a random-forest reference model
- screen: end-to-end batch screening and evaluation experiments
- cli: the `scscreen` command-line entry point
- errors: error classes shared by nn, metrics, baseline and screen
"""

from .formula import Composition, normalize, parse_composition, parse_formula
from .ptable import encode_ptable, encode_ptable_batch

__version__ = "0.1.0"

__all__ = [
    "Composition",
    "normalize",
    "parse_composition",
    "parse_formula",
    "encode_ptable",
    "encode_ptable_batch",
    "__version__",
]
