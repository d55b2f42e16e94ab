"""Ablation: diagnosis-signal quality (DESIGN.md Section 5).

The paper deploys the unsupervised (jigsaw) network as the node's
diagnoser.  This ablation scores the deployable diagnosers against the
misclassification oracle on a mixed test set (half ideal, half heavily
drifted — where the errors concentrate).  Both the classifier and the
context network are trained on ideal data, as in the paper's bootstrap
stage, so drift is genuinely out-of-distribution for both.

Metrics: *enrichment* = recall / upload-fraction; 1.0 is random selection,
higher means the diagnoser concentrates its upload budget on actual
errors.
"""

from __future__ import annotations

import pytest

from repro.reports.claims import diagnosis_rows, diagnosis_table


@pytest.mark.slow
def bench_ablation_diagnosis(benchmark):
    reports = benchmark.pedantic(
        diagnosis_rows, args=(0,), rounds=1, iterations=1
    )
    print("\n" + diagnosis_table(reports))
    # Oracle is perfect by construction.
    assert reports["oracle"].recall == 1.0
    # Confidence-based diagnosis concentrates the budget on errors far
    # better than random selection at the same budget.
    conf = reports["confidence"]
    rand = reports["random"]
    assert conf.recall / conf.upload_fraction > 1.5
    assert (
        conf.recall / conf.upload_fraction
        > rand.recall / max(rand.upload_fraction, 1e-9)
    )
    # The jigsaw diagnoser is deployable without the inference model but
    # must at least not be worse than random selection.
    jig = reports["jigsaw"]
    assert jig.recall / max(jig.upload_fraction, 1e-9) > 0.9
