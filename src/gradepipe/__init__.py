"""gradepipe: a hybrid autograder for entry-level programming assignments.

Submissions (zip archives named ``First_Last_N.zip``) are collected from an
inbox, compiled, checked against instructor-written lexical rules, exercised
by black-box I/O tests, and scored by a weighted rubric. See the README for
the CLI and the assignment spec format. The stage modules (``ingest``,
``build``, ``lexcheck``, ``blackbox``, ``assess``) are importable directly;
the names below are the library API.
"""

from .assess import AssessmentReport, GradingLogError, ReportStatus
from .pipeline import BatchSummary, GradingSession
from .specfile import AssignmentSpec, SpecError, load_spec

__version__ = "0.1.0"

__all__ = [
    "AssessmentReport",
    "AssignmentSpec",
    "BatchSummary",
    "GradingLogError",
    "GradingSession",
    "ReportStatus",
    "SpecError",
    "__version__",
    "load_spec",
]
