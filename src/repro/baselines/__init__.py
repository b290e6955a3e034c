"""Baseline systems the paper compares against: PLANET/MLlib-style
histogram training and XGBoost-style gradient boosting."""

from .planet import PlanetConfig, PlanetReport, PlanetTrainer
from .sketch import WeightedQuantileSketch
from .yggdrasil import YggdrasilConfig, YggdrasilReport, YggdrasilTrainer
from .xgboost_like import (
    XGBoostConfig,
    XGBoostModel,
    XGBoostReport,
    XGBoostTrainer,
)

__all__ = [
    "PlanetConfig",
    "PlanetReport",
    "PlanetTrainer",
    "WeightedQuantileSketch",
    "XGBoostConfig",
    "XGBoostModel",
    "XGBoostReport",
    "XGBoostTrainer",
    "YggdrasilConfig",
    "YggdrasilReport",
    "YggdrasilTrainer",
]
