"""Deterministic simulator for layer-wise adaptive federated optimization."""

__version__ = "0.1.0"
