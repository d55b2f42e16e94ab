"""Exact layer-shape tables for the networks the paper characterizes.

The analytical hardware models (Eqs. 1-14) need only layer *shapes* — the
number of filters ``M``, input feature maps ``N``, kernel side ``K``, and
output feature-map dims ``R x C`` — not trained weights.  This module records
the standard AlexNet and VGG-16 shapes (227x227 / 224x224 ImageNet inputs).

It also derives the *diagnosis-network* shapes.  The diagnosis task runs the
shared trunk on each of the 9 jigsaw patches; the paper states its per-patch
output maps are half the inference network's in each spatial dimension
(55x55 vs 27x27 in conv1), i.e. a quarter of the computational load per
patch.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = [
    "LayerSpec",
    "NetworkSpec",
    "alexnet_spec",
    "vgg16_spec",
    "diagnosis_spec",
]

BYTES_PER_VALUE = 4  # fp32 on both TX1 and the FPGA design


@dataclass(frozen=True)
class LayerSpec:
    """Shape of one CONV or FCN layer.

    ``kind`` is ``"conv"`` or ``"fc"``.  For FCN layers the paper's
    convention ``K = R = C = 1`` applies, so the same op/byte formulas hold.
    """

    name: str
    kind: str
    out_maps: int  # M
    in_maps: int  # N
    kernel: int  # K
    out_rows: int  # R
    out_cols: int  # C
    stride: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("conv", "fc"):
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if min(self.out_maps, self.in_maps, self.kernel, self.out_rows,
               self.out_cols, self.stride) < 1:
            raise ValueError(f"non-positive dimension in {self.name}")
        if self.kind == "fc" and (self.kernel, self.out_rows, self.out_cols) != (1, 1, 1):
            raise ValueError(f"FCN layer {self.name} must have K=R=C=1")

    @property
    def ops(self) -> int:
        """Eq. (1): 2*M*N*K^2*R*C multiply-accumulate ops/image."""
        return (
            2
            * self.out_maps
            * self.in_maps
            * self.kernel**2
            * self.out_rows
            * self.out_cols
        )

    @property
    def weight_count(self) -> int:
        return self.out_maps * self.in_maps * self.kernel**2

    @property
    def weight_bytes(self) -> int:
        return self.weight_count * BYTES_PER_VALUE

    def input_values(self, batch: int = 1) -> int:
        """Dm size: N*K^2 x R*C per image (im2col-expanded, Fig. 8)."""
        return self.in_maps * self.kernel**2 * self.out_rows * self.out_cols * batch

    def output_values(self, batch: int = 1) -> int:
        return self.out_maps * self.out_rows * self.out_cols * batch

    def input_bytes(self, batch: int = 1) -> int:
        return self.input_values(batch) * BYTES_PER_VALUE

    def output_bytes(self, batch: int = 1) -> int:
        return self.output_values(batch) * BYTES_PER_VALUE


@dataclass(frozen=True)
class NetworkSpec:
    """A named stack of CONV and FCN layer shapes."""

    name: str
    layers: tuple[LayerSpec, ...]

    @property
    def conv_layers(self) -> tuple[LayerSpec, ...]:
        return tuple(s for s in self.layers if s.kind == "conv")

    @property
    def fc_layers(self) -> tuple[LayerSpec, ...]:
        return tuple(s for s in self.layers if s.kind == "fc")

    @property
    def total_ops(self) -> int:
        return sum(s.ops for s in self.layers)

    @property
    def weight_bytes(self) -> int:
        return sum(s.weight_bytes for s in self.layers)

    def layer(self, name: str) -> LayerSpec:
        for spec in self.layers:
            if spec.name == name:
                return spec
        raise KeyError(f"{self.name} has no layer {name!r}")


def alexnet_spec() -> NetworkSpec:
    """AlexNet on 227x227 inputs.

    The single-tower CaffeNet variant: every conv sees all its input maps,
    as the repo's hardware experiments and node network assume.
    """
    return NetworkSpec(
        name="alexnet",
        layers=(
            LayerSpec("conv1", "conv", 96, 3, 11, 55, 55, stride=4),
            LayerSpec("conv2", "conv", 256, 96, 5, 27, 27),
            LayerSpec("conv3", "conv", 384, 256, 3, 13, 13),
            LayerSpec("conv4", "conv", 384, 384, 3, 13, 13),
            LayerSpec("conv5", "conv", 256, 384, 3, 13, 13),
            LayerSpec("fc6", "fc", 4096, 9216, 1, 1, 1),
            LayerSpec("fc7", "fc", 4096, 4096, 1, 1, 1),
            LayerSpec("fc8", "fc", 1000, 4096, 1, 1, 1),
        ),
    )


def vgg16_spec() -> NetworkSpec:
    """VGG-16 on 224x224 inputs."""
    return NetworkSpec(
        name="vgg16",
        layers=(
            LayerSpec("conv1_1", "conv", 64, 3, 3, 224, 224),
            LayerSpec("conv1_2", "conv", 64, 64, 3, 224, 224),
            LayerSpec("conv2_1", "conv", 128, 64, 3, 112, 112),
            LayerSpec("conv2_2", "conv", 128, 128, 3, 112, 112),
            LayerSpec("conv3_1", "conv", 256, 128, 3, 56, 56),
            LayerSpec("conv3_2", "conv", 256, 256, 3, 56, 56),
            LayerSpec("conv3_3", "conv", 256, 256, 3, 56, 56),
            LayerSpec("conv4_1", "conv", 512, 256, 3, 28, 28),
            LayerSpec("conv4_2", "conv", 512, 512, 3, 28, 28),
            LayerSpec("conv4_3", "conv", 512, 512, 3, 28, 28),
            LayerSpec("conv5_1", "conv", 512, 512, 3, 14, 14),
            LayerSpec("conv5_2", "conv", 512, 512, 3, 14, 14),
            LayerSpec("conv5_3", "conv", 512, 512, 3, 14, 14),
            LayerSpec("fc6", "fc", 4096, 25088, 1, 1, 1),
            LayerSpec("fc7", "fc", 4096, 4096, 1, 1, 1),
            LayerSpec("fc8", "fc", 1000, 4096, 1, 1, 1),
        ),
    )


def diagnosis_spec(inference: NetworkSpec) -> NetworkSpec:
    """Per-patch diagnosis-network shapes derived from an inference network.

    Each of the 9 jigsaw patches runs the shared conv trunk with output
    feature maps halved in each spatial dimension (quarter load per patch,
    Section IV-B2), and the FCN head predicts one of 100 permutation
    indices instead of the object class.
    """
    layers: list[LayerSpec] = []
    for spec in inference.conv_layers:
        layers.append(
            replace(
                spec,
                name=spec.name,
                out_rows=max(1, -(-spec.out_rows // 2)),
                out_cols=max(1, -(-spec.out_cols // 2)),
            )
        )
    fc_layers = inference.fc_layers
    if fc_layers:
        # Head: same hidden widths, final layer predicts permutation class.
        for spec in fc_layers[:-1]:
            layers.append(spec)
        last = fc_layers[-1]
        layers.append(replace(last, name=last.name, out_maps=100))
    return NetworkSpec(name=f"{inference.name}-diagnosis", layers=tuple(layers))
