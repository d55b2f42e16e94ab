"""Layer-shape specs: known op counts and derived diagnosis shapes."""

from __future__ import annotations

import pytest

from repro.models import alexnet_spec, diagnosis_spec, vgg16_spec
from repro.models.layer_specs import LayerSpec


class TestLayerSpec:
    def test_conv_ops_formula(self):
        # Eq. (1): 2*M*N*K^2*R*C
        spec = LayerSpec("x", "conv", 96, 3, 11, 55, 55, stride=4)
        assert spec.ops == 2 * 96 * 3 * 121 * 55 * 55

    def test_fc_constraints(self):
        with pytest.raises(ValueError):
            LayerSpec("bad", "fc", 10, 10, 3, 1, 1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            LayerSpec("bad", "pool", 1, 1, 1, 1, 1)

    def test_weight_and_data_bytes(self):
        spec = LayerSpec("fc", "fc", 4096, 9216, 1, 1, 1)
        assert spec.weight_count == 4096 * 9216
        assert spec.weight_bytes == 4096 * 9216 * 4
        assert spec.input_values(batch=2) == 9216 * 2
        assert spec.output_bytes(batch=3) == 4096 * 3 * 4


class TestAlexNet:
    def test_layer_names_and_depth(self):
        net = alexnet_spec()
        assert [s.name for s in net.conv_layers] == [
            "conv1", "conv2", "conv3", "conv4", "conv5",
        ]
        assert [s.name for s in net.fc_layers] == ["fc6", "fc7", "fc8"]

    def test_total_ops_matches_literature(self):
        """Single-tower (ungrouped) AlexNet is ~2.15 GOPs of conv
        (~1.07 GMACs; the grouped two-tower original is about half of
        conv2/4/5's ops) plus ~0.12 GOPs of FC."""
        net = alexnet_spec()
        assert 1.9e9 < sum(s.ops for s in net.conv_layers) < 2.4e9
        assert 0.1e9 < sum(s.ops for s in net.fc_layers) < 0.15e9

    def test_fc_weights_dominate(self):
        """The famous AlexNet imbalance: FC holds most weights."""
        net = alexnet_spec()
        fc_weights = sum(s.weight_count for s in net.fc_layers)
        conv_weights = sum(s.weight_count for s in net.conv_layers)
        assert fc_weights > 10 * conv_weights

    def test_layer_lookup(self):
        assert alexnet_spec().layer("conv3").out_maps == 384
        with pytest.raises(KeyError):
            alexnet_spec().layer("conv9")


class TestVGG16:
    def test_ops_scale(self):
        """VGG-16 is ~30 GOPs — about 20x AlexNet's conv load."""
        net = vgg16_spec()
        assert 28e9 < net.total_ops < 32e9

    def test_thirteen_convs(self):
        assert len(vgg16_spec().conv_layers) == 13


class TestDiagnosisSpec:
    def test_quarter_load_per_patch(self):
        inf = alexnet_spec()
        diag = diagnosis_spec(inf)
        c1_inf = inf.layer("conv1")
        c1_diag = diag.layer("conv1")
        # 55x55 -> 28x28: each spatial dim halved (paper quotes 27x27).
        assert c1_diag.out_rows == (c1_inf.out_rows + 1) // 2
        assert c1_diag.ops * 3.5 < c1_inf.ops  # roughly quarter load

    def test_same_filter_shapes(self):
        inf = alexnet_spec()
        diag = diagnosis_spec(inf)
        for a, b in zip(inf.conv_layers, diag.conv_layers):
            assert (a.out_maps, a.in_maps, a.kernel) == (
                b.out_maps, b.in_maps, b.kernel,
            )

    def test_head_predicts_permutations(self):
        diag = diagnosis_spec(alexnet_spec())
        assert diag.fc_layers[-1].out_maps == 100
