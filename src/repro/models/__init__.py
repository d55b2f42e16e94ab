"""Model zoo: trainable IoT-scale networks and full-size layer-shape specs."""

from repro.models.iot_models import (
    CONV_LAYER_NAMES,
    build_classifier,
    build_jigsaw_trunk,
    conv_trunk_layers,
    trunk_feature_size,
)
from repro.models.layer_specs import (
    LayerSpec,
    NetworkSpec,
    alexnet_spec,
    diagnosis_spec,
    vgg16_spec,
)
from repro.models.registry import MODEL_CONFIGS, ModelConfig, build_model

__all__ = [
    "CONV_LAYER_NAMES",
    "LayerSpec",
    "MODEL_CONFIGS",
    "ModelConfig",
    "NetworkSpec",
    "alexnet_spec",
    "build_classifier",
    "build_jigsaw_trunk",
    "build_model",
    "conv_trunk_layers",
    "diagnosis_spec",
    "trunk_feature_size",
    "vgg16_spec",
]
