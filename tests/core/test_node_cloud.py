"""InSituNode and InSituCloud unit tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import InSituCloud, InSituNode
from repro.data import ImageGenerator, IoTStream, make_dataset
from repro.data.stream import AcquisitionStage
from repro.diagnosis import (
    InferenceConfidenceDiagnoser,
    JigsawDiagnoser,
    OracleDiagnoser,
)
from repro.hw import TX1
from repro.models import alexnet_spec, build_classifier, diagnosis_spec
from repro.nn import softmax
from repro.selfsup import JigsawSampler, PermutationSet, build_context_network


@pytest.fixture
def permset(rng):
    return PermutationSet.generate(4, rng=rng)


@pytest.fixture
def cloud(permset, rng):
    return InSituCloud(
        4,
        permset,
        cost_spec=alexnet_spec(),
        rng=np.random.default_rng(3),
    )


@pytest.fixture
def stage(generator, rng):
    stream = IoTStream(generator, scale=0.2, rng=rng)
    return stream.stages()[0]


class TestInSituNode:
    def make_node(self, rng, diagnoser=None, net=None):
        inf_spec = alexnet_spec()
        net = net if net is not None else build_classifier(4, rng)
        return InSituNode(
            net,
            diagnoser,
            inference_spec=inf_spec,
            diagnosis_spec=diagnosis_spec(inf_spec),
            gpu=TX1,
        )

    def test_no_diagnoser_uploads_everything(self, rng, stage):
        node = self.make_node(rng)
        report = node.process_stage(stage)
        assert report.flagged_images == report.acquired_images
        assert len(report.upload_data) == len(stage.new_data)

    def test_oracle_diagnoser_uploads_errors_only(self, rng, stage):
        net = build_classifier(4, rng)
        node = self.make_node(rng, OracleDiagnoser(net), net=net)
        report = node.process_stage(stage)
        preds = net.predict(stage.new_data.images).argmax(axis=1)
        wrong = int((preds != stage.new_data.labels).sum())
        assert report.flagged_images == wrong
        assert len(report.upload_data) == wrong

    def test_costs_modeled(self, rng, stage):
        net = build_classifier(4, rng)
        node = self.make_node(rng, OracleDiagnoser(net), net=net)
        report = node.process_stage(stage)
        assert report.inference_time_s > 0
        assert report.diagnosis_time_s > 0
        assert report.node_energy_j > 0

    def test_deploy_refreshes_model(self, rng, stage):
        net_a = build_classifier(4, np.random.default_rng(1))
        net_b = build_classifier(4, np.random.default_rng(2))
        node = self.make_node(rng, net=net_a)
        node.deploy(net_b.state_dict())
        x = stage.new_data.images[:2]
        assert np.allclose(node.inference_net.predict(x), net_b.predict(x))


def count_forwards(net) -> list:
    """Record every ``net.forward`` call's batch size from here on."""
    seen: list[int] = []
    forward = net.forward

    def counting(x, *, training=False):
        seen.append(len(x))
        return forward(x, training=training)

    net.forward = counting
    return seen


class TestSharedInferencePass:
    """One forward sweep per stage feeds both the accuracy and the flags."""

    make_node = TestInSituNode.make_node

    @pytest.fixture(scope="class")
    def pool(self):
        rng = np.random.default_rng(11)
        generator = ImageGenerator(image_size=48, num_classes=4, rng=rng)
        return make_dataset(300, generator=generator, rng=rng)

    @staticmethod
    def two_pass(net, data, kind, threshold):
        """Accuracy and flags as two separate 128-row sweeps computed them."""
        correct = 0
        for start in range(0, len(data), 128):
            idx = np.arange(start, min(start + 128, len(data)))
            preds = net.predict(data.images[idx]).argmax(axis=1)
            correct += int((preds == data.labels[idx]).sum())
        if kind == "oracle":
            flags = np.zeros(len(data), dtype=bool)
            for start in range(0, len(data), 128):
                stop = start + 128
                preds = net.predict(data.images[start:stop]).argmax(axis=1)
                flags[start:stop] = preds != data.labels[start:stop]
        else:
            scores = np.zeros(len(data))
            for start in range(0, len(data), 128):
                stop = start + 128
                probs = softmax(net.predict(data.images[start:stop]), axis=1)
                scores[start:stop] = probs.max(axis=1)
            flags = scores < threshold
        return correct / len(data), flags

    @pytest.mark.parametrize("kind", ["oracle", "confidence"])
    @pytest.mark.parametrize("count", [5, 130, 300])
    def test_stage_equals_the_two_pass_formulation(
        self, rng, pool, kind, count
    ):
        net = build_classifier(4, np.random.default_rng(4))
        data = pool.take(count)
        threshold = 0.2505  # splits this untrained net's scores
        accuracy, flags = self.two_pass(net, data, kind, threshold)
        diagnoser = (
            OracleDiagnoser(net)
            if kind == "oracle"
            else InferenceConfidenceDiagnoser(net, threshold=threshold)
        )
        node = self.make_node(rng, diagnoser, net=net)
        forwards = count_forwards(net)
        report = node.process_stage(AcquisitionStage(1, data, count, 0.0))
        assert forwards == [min(128, count - s) for s in range(0, count, 128)]
        assert report.accuracy_before_update == accuracy
        assert report.flagged_images == int(flags.sum())
        kept = np.flatnonzero(flags)
        assert np.array_equal(report.upload_data.images, data.images[kept])
        assert np.array_equal(report.upload_data.labels, data.labels[kept])
        # the modelled diagnosis cost is charged as before
        assert report.diagnosis_time_s > 0

    def test_oracle_on_another_network_runs_its_own_pass(self, rng, pool):
        net = build_classifier(4, np.random.default_rng(4))
        cloud_net = build_classifier(4, np.random.default_rng(5))
        data = pool.take(130)
        expected = OracleDiagnoser(cloud_net).flags(data)
        node = self.make_node(rng, OracleDiagnoser(cloud_net), net=net)
        own, foreign = count_forwards(net), count_forwards(cloud_net)
        report = node.process_stage(AcquisitionStage(1, data, 130, 0.0))
        assert own == [128, 2] and foreign == [128, 2]
        assert np.array_equal(
            report.upload_data.labels, data.labels[np.flatnonzero(expected)]
        )

    def test_jigsaw_diagnoser_is_untouched(self, rng, pool):
        net = build_classifier(4, np.random.default_rng(4))
        data = pool.take(12)

        def jigsaw():
            permset = PermutationSet.generate(4, rng=np.random.default_rng(1))
            sampler = JigsawSampler(permset, rng=np.random.default_rng(2))
            network = build_context_network(
                permset, rng=np.random.default_rng(5)
            )
            return JigsawDiagnoser(network, sampler, trials=2)

        expected = jigsaw().flags(data)
        node = self.make_node(rng, jigsaw(), net=net)
        forwards = count_forwards(net)
        report = node.process_stage(AcquisitionStage(1, data, 12, 0.0))
        assert forwards == [12]
        assert report.flagged_images == int(expected.sum())


class TestInSituCloud:
    def test_pretrain_returns_accuracy(self, cloud, generator, rng):
        raw = make_dataset(32, generator=generator, rng=rng).as_unlabeled()
        acc = cloud.unsupervised_pretrain(raw, epochs=1)
        assert 0.0 <= acc <= 1.0

    def test_initialize_trains_model(self, cloud, generator, rng):
        labeled = make_dataset(48, generator=generator, rng=rng)
        result = cloud.initialize_inference(labeled, epochs=2)
        assert result.sample_steps == 2 * 48

    def test_incremental_update_reports_costs(self, cloud, generator, rng):
        labeled = make_dataset(32, generator=generator, rng=rng)
        cloud.initialize_inference(labeled, epochs=1)
        new = make_dataset(16, generator=generator, rng=rng)
        report = cloud.incremental_update(new, weight_shared=True, epochs=1)
        assert report.images_used == 16
        assert report.modeled_time_s > 0
        assert report.modeled_energy_j > 0

    def test_weight_shared_update_cheaper(self, cloud):
        full_s, _ = cloud.modeled_update_cost(1000, 3, freeze_depth=0)
        shared_s, _ = cloud.modeled_update_cost(1000, 3, freeze_depth=3)
        assert shared_s < full_s

    def test_weight_shared_update_freezes_convs(self, cloud, generator, rng):
        labeled = make_dataset(32, generator=generator, rng=rng)
        cloud.initialize_inference(labeled, epochs=1)
        before = cloud.inference_net["conv1"].weight.data.copy()
        new = make_dataset(16, generator=generator, rng=rng)
        cloud.incremental_update(new, weight_shared=True, epochs=1)
        assert np.array_equal(cloud.inference_net["conv1"].weight.data, before)

    def test_replay_grows_archive(self, cloud, generator, rng):
        first = make_dataset(16, generator=generator, rng=rng)
        second = make_dataset(8, generator=generator, rng=rng)
        cloud.incremental_update(first, weight_shared=False, epochs=1)
        cloud.incremental_update(second, weight_shared=False, epochs=1)
        assert len(cloud.archive) == 24

    def test_empty_update_rejected(self, cloud, generator, rng):
        data = make_dataset(4, generator=generator, rng=rng)
        with pytest.raises(ValueError):
            cloud.incremental_update(data.take(0), weight_shared=True)

    def test_model_state_roundtrip(self, cloud, rng):
        state = cloud.model_state()
        other = build_classifier(4, np.random.default_rng(9))
        other.load_state_dict(state)
