"""Semantic communication over conceptual spaces: link-level simulator."""

__version__ = "0.1.0"
