"""Semantic communication over conceptual spaces: link-level simulator."""

__version__ = "0.1.0"

from .cspace import (
    Concept,
    SemanticPoint,
    circular_distance,
    decode_concept,
    gamma,
    polygon_ratio,
    semantic_loss,
    semantic_metric,
)

__all__ = [
    "Concept",
    "SemanticPoint",
    "circular_distance",
    "decode_concept",
    "gamma",
    "polygon_ratio",
    "semantic_loss",
    "semantic_metric",
]
