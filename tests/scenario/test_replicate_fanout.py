"""Scenario replicates on forked workers: same bytes at any worker count.

``build_summary`` hands its replicates to ``repro.fleet.pool.fork_map``
with ``fork_workers(replicates)`` workers.  Three replicates split
unevenly over two workers; the summary JSON and the trace JSONL must be
the bytes of the in-process run at 1, 2 and 3 workers.  A replicate that
raises surfaces with its own type, a worker that dies surfaces as a
``RuntimeError`` naming the replicates, and no child outlives either.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.fleet import pool
from repro.fleet.pool import fork_map, fork_workers
from repro.obs.trace import Tracer
from repro.scenario import build_summary, load_spec, summary_json
from repro.scenario import summary as summary_mod
from repro.scenario.summary import replicate_seed

FANOUT_YAML = """\
scenario:
  name: fanout-small
  seed: 5
  engine: event

fleet:
  nodes: 2
  stages: 2
  base:
    stream_scale: 0.02
    pretrain_images: 32
    pretrain_epochs: 1
    init_epochs: 1
    update_epochs: 1
    eval_images: 32

processes:
  churn:
    rate: 0.4

replicates:
  count: 3
  bootstrap_samples: 50
"""


@pytest.fixture(scope="module")
def spec():
    return load_spec(FANOUT_YAML, filename="fanout.yaml")


@pytest.fixture
def no_residue():
    """No worker process is alive before or after the test."""
    assert multiprocessing.active_children() == []
    yield
    assert multiprocessing.active_children() == []


def _run(spec, monkeypatch, workers: int) -> tuple[str, str]:
    monkeypatch.setattr(pool, "fork_workers", lambda jobs: workers)
    tracer = Tracer()
    summary = build_summary(spec, tracer=tracer)
    return summary_json(summary), tracer.to_jsonl()


class TestSameBytes:
    @pytest.fixture(scope="class")
    def serial(self, spec):
        with pytest.MonkeyPatch.context() as mp:
            return _run(spec, mp, 1)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_summary_and_trace_match_serial(
        self, spec, serial, workers, monkeypatch, no_residue
    ):
        summary, trace = _run(spec, monkeypatch, workers)
        assert summary == serial[0]
        assert trace == serial[1]

    def test_serial_run_is_traced(self, serial):
        assert serial[1].count("\n") > 0
        assert '"replicate": 2' in serial[0]


def _pin(monkeypatch, cores: int, **env: str) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    for name in pool._BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)


class TestWorkerCount:
    @pytest.mark.parametrize(
        "cores, env, jobs, expected",
        [
            (2, {}, 4, 1),
            (8, {}, 4, 1),
            (2, {"OPENBLAS_NUM_THREADS": "1"}, 4, 2),
            (4, {"OMP_NUM_THREADS": "2"}, 4, 2),
            (8, {"OPENBLAS_NUM_THREADS": "1"}, 3, 3),
            (2, {"GOTO_NUM_THREADS": "1"}, 4, 2),
            (4, {"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 4, 1),
            (4, {"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 4, 4),
            (2, {"OPENBLAS_NUM_THREADS": "8"}, 4, 1),
            (1, {"OPENBLAS_NUM_THREADS": "1"}, 4, 1),
        ],
        ids=[
            "unset-2-cores",
            "unset-8-cores",
            "openblas-1-on-2",
            "omp-2-on-4",
            "capped-by-jobs",
            "goto-1-on-2",
            "openblas-before-omp",
            "nonpositive-pin-skipped",
            "more-threads-than-cores",
            "one-core",
        ],
    )
    def test_rule(self, monkeypatch, cores, env, jobs, expected):
        _pin(monkeypatch, cores, **env)
        assert fork_workers(jobs) == expected

    def test_no_affinity_call_falls_back_to_cpu_count(self, monkeypatch):
        _pin(monkeypatch, 1, OPENBLAS_NUM_THREADS="1")
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert fork_workers(8) == 3


def _pid(_item) -> int:
    return os.getpid()


def _square(x: int) -> int:
    return x * x


class TestForkMap:
    def test_results_in_input_order(self, no_residue):
        assert fork_map(_square, range(7), 3) == [x * x for x in range(7)]

    def test_one_worker_runs_in_process(self, no_residue):
        assert fork_map(_pid, range(3), 1) == [os.getpid()] * 3

    def test_platform_without_fork_runs_in_process(
        self, monkeypatch, no_residue
    ):
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        assert fork_map(_pid, range(3), 3) == [os.getpid()] * 3


def _failing_replicate(failing_seed: int, fail):
    real = summary_mod.run_replicate

    def run_replicate(rep, **kwargs):
        if rep.seed == failing_seed:
            fail()
        return real(rep, **kwargs)

    return run_replicate


def _raise():
    raise ValueError("replicate exploded")


def _die():
    os._exit(9)


class TestWorkerFailure:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_exception_keeps_its_type(
        self, spec, monkeypatch, no_residue, workers
    ):
        # Patched before the fork: the workers inherit it.
        monkeypatch.setattr(
            summary_mod,
            "run_replicate",
            _failing_replicate(replicate_seed(spec, 1), _raise),
        )
        monkeypatch.setattr(pool, "fork_workers", lambda jobs: workers)
        with pytest.raises(ValueError, match="replicate exploded"):
            build_summary(spec)

    def test_killed_worker_names_the_replicates(
        self, spec, monkeypatch, no_residue
    ):
        monkeypatch.setattr(
            summary_mod,
            "run_replicate",
            _failing_replicate(replicate_seed(spec, 1), _die),
        )
        monkeypatch.setattr(pool, "fork_workers", lambda jobs: 2)
        with pytest.raises(
            RuntimeError,
            match=r"scenario replicate worker died \(replicates \[0, 1, 2\]\); "
            "results discarded",
        ) as caught:
            build_summary(spec)
        assert type(caught.value.__cause__).__name__ == "BrokenProcessPool"
