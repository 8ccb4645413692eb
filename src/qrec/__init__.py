"""Exact Q-system tables, minimal recurrence detection, and structural checks."""

from .cartan import LieType, cartan_data, growth_degree, predicted_order
from .linrec import RecurrencePoly, annihilates, berlekamp_massey, find_min_recurrence
from .qsystem import (CharacterPoint, DimensionMode, QTable, RawQ, generate,
                      required_depths)
from .weights import dimension, evaluate, weight_system

__all__ = [
    "LieType", "cartan_data", "growth_degree", "predicted_order",
    "RecurrencePoly", "annihilates", "berlekamp_massey", "find_min_recurrence",
    "RawQ", "CharacterPoint", "DimensionMode", "QTable", "generate",
    "required_depths",
    "dimension", "evaluate", "weight_system",
]
__version__ = "0.1.0"
