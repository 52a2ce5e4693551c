"""Multi-level order-flow imbalance analytics for limit order book data.

Reconstructs the book from event streams, computes per-interval
multi-level order-flow imbalance vectors, and fits/evaluates the linear
relationship between those vectors and contemporaneous mid-price changes
via OLS and Ridge regression.
"""

__version__ = "0.1.0"
