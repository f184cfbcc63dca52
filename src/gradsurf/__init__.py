"""Gradient-only, function-only and gradient-enhanced RBF surrogates,
with a reproducible mini-batch loss-surface experiment harness."""

__version__ = "0.1.0"
