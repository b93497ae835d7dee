"""Confidence-aware cross-subject training with dual-network subject selection."""

__version__ = "0.1.0"
