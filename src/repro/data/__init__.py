"""Synthetic IoT data substrate: procedural images, drift, datasets, streams."""

from repro.data.datasets import Dataset, make_dataset
from repro.data.drift import (
    DriftModel,
    close_up,
    low_illumination,
    motion_blur,
    occlude,
    random_pose,
    sensor_noise,
)
from repro.data.images import NUM_SHAPE_CLASSES, ImageGenerator, ShapeParams
from repro.data.stream import PAPER_SCHEDULE_K, AcquisitionStage, IoTStream

__all__ = [
    "AcquisitionStage",
    "Dataset",
    "DriftModel",
    "ImageGenerator",
    "IoTStream",
    "NUM_SHAPE_CLASSES",
    "PAPER_SCHEDULE_K",
    "ShapeParams",
    "close_up",
    "low_illumination",
    "make_dataset",
    "motion_blur",
    "occlude",
    "random_pose",
    "sensor_noise",
]
