"""Multi-level order-flow imbalance analytics for limit order book data.

Reconstructs the book from event streams, computes per-interval
multi-level order-flow imbalance vectors, and fits/evaluates the linear
relationship between those vectors and contemporaneous mid-price changes
via OLS and Ridge regression.
"""

from .book import (
    BookState,
    EventKind,
    LobEvent,
    Side,
    level_snapshot,
)
from .imbalance import FlowDelta, MlofiSample, flow_delta
from .inference import (
    CollinearityDiagnostics,
    LambdaSearch,
    RegressionFit,
    diagnose_collinearity,
    fit_ols,
    fit_ridge,
    select_lambda,
    significance_summary,
)
from .lobster import DaySlice, SessionConfig
from .sampling import GridSpec, RegressionProblem, assemble_problems, build_grid
from .synth import PlantedParams, ZiParams, generate_planted_regression, generate_zi_day

__version__ = "0.1.0"

__all__ = [
    "BookState",
    "CollinearityDiagnostics",
    "DaySlice",
    "EventKind",
    "FlowDelta",
    "GridSpec",
    "LambdaSearch",
    "LobEvent",
    "MlofiSample",
    "PlantedParams",
    "RegressionFit",
    "RegressionProblem",
    "SessionConfig",
    "Side",
    "ZiParams",
    "assemble_problems",
    "build_grid",
    "diagnose_collinearity",
    "fit_ols",
    "fit_ridge",
    "flow_delta",
    "generate_planted_regression",
    "generate_zi_day",
    "level_snapshot",
    "select_lambda",
    "significance_summary",
]
