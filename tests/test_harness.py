"""Experiment harness: trials, aggregation, sweeps, CSV/manifest output."""

import json
import math
import os
from collections import Counter

import numpy as np
import pytest

from semcom import cspace, encoder, harness, phy, scenegen
from semcom.errors import DegenerateSceneError, InvalidParameterError


def set_cpus(monkeypatch, n):
    """Let this process run on CPUs 0..n-1, as os.sched_getaffinity reports
    where it exists and os.cpu_count() elsewhere."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: n)


@pytest.fixture
def pool_sizes(monkeypatch):
    """The max_workers of every process pool harness starts, in order.

    The process may run on 4 CPUs, so pool sizes do not depend on the machine.
    """
    set_cpus(monkeypatch, 4)
    sizes = []

    class Pool(harness.ProcessPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", Pool)
    return sizes


class TestTrialRng:
    def test_deterministic(self):
        a = harness.trial_rng(3, 17).integers(0, 1 << 30, size=8)
        b = harness.trial_rng(3, 17).integers(0, 1 << 30, size=8)
        assert np.array_equal(a, b)

    def test_streams_distinct(self):
        draws = {tuple(harness.trial_rng(0, i).integers(0, 1 << 30, size=4))
                 for i in range(64)}
        assert len(draws) == 64


class TestRunTrial:
    def test_noiseless_pipeline_identity(self):
        rec = harness.run_trial("yellow-square", 8, None, harness.trial_rng(0, 0))
        assert not rec.syntactic_error
        assert np.array_equal(rec.bits, rec.received_bits)
        # the received point is exactly the quantized-dequantized encoder point
        spec = phy.QuantizerSpec(8)
        expected = phy.dequantize(phy.quantize(rec.point, spec), spec)
        assert rec.received_point == expected

    def test_noiseless_decodes_correctly(self):
        for i, concept in enumerate(harness.CONCEPT_LABELS):
            rec = harness.run_trial(concept, 10, None, harness.trial_rng(5, i))
            assert rec.decoded == concept
            assert not rec.semantic_error
            assert rec.distortion >= 0.0

    def test_distortion_is_prototype_distance(self):
        rec = harness.run_trial("red-triangle", 8, None, harness.trial_rng(2, 0))
        proto = cspace.concept_by_label("red-triangle").prototype
        assert rec.distortion == pytest.approx(
            cspace.semantic_loss(proto, rec.received_point))

    def test_reproducible(self):
        a = harness.run_trial("blue-circle", 6, 10.0, harness.trial_rng(9, 4))
        b = harness.run_trial("blue-circle", 6, 10.0, harness.trial_rng(9, 4))
        assert a.point == b.point
        assert np.array_equal(a.bits, b.bits)
        assert np.array_equal(a.received_bits, b.received_bits)
        assert a.received_point == b.received_point
        assert a.decoded == b.decoded
        assert a.distortion == b.distortion


    def test_unencodable_scene_makes_no_channel_draws(self, monkeypatch):
        def give_up(img):
            raise DegenerateSceneError("no foreground")

        monkeypatch.setattr(encoder, "encode", give_up)
        rng = harness.trial_rng(4, 0)
        rec = harness.run_trial("red-octagon", 8, 10.0, rng)
        assert rec.degenerate and rec.decoded == "blue-circle"
        assert rec.bits is None and not rec.syntactic_error
        scene_only = harness.trial_rng(4, 0)
        scenegen.render(scenegen.sample_spec("red-octagon", scene_only), scene_only)
        assert rng.bit_generator.state == scene_only.bit_generator.state


class TestTraditionalTrial:
    def test_noiseless_decodes_correctly(self):
        rec = harness.run_traditional_trial("yellow-square", 8, None,
                                            harness.trial_rng(1, 0))
        assert rec.decoded == "yellow-square"
        assert not rec.semantic_error
        assert not rec.degenerate

    def test_packet_size(self):
        rec = harness.run_traditional_trial("red-circle", 2, None,
                                            harness.trial_rng(1, 1))
        assert rec.bits.size == 1875 * 2


class TestAggregate:
    def test_counts_and_rates(self):
        agg = harness.Aggregate()
        agg.add_outcome(True, False, False, 0.5)
        agg.add_outcome(False, True, False, 0.1)
        agg.add_outcome(False, False, True, math.nan)
        assert agg.trials == 3
        assert agg.p_syntactic == pytest.approx(1.0 / 3.0)
        assert agg.p_semantic == pytest.approx(1.0 / 3.0)
        assert agg.degenerate == 1
        assert agg.trials - agg.degenerate == 2
        assert agg.mean_distortion == pytest.approx(0.3)
        assert agg.distortion_se == pytest.approx(0.2 / math.sqrt(2))

    def test_proportion_se(self):
        agg = harness.Aggregate(trials=400)
        assert agg.proportion_se(0.5) == pytest.approx(0.025)

    def test_all_degenerate_gives_nan_distortion(self):
        agg = harness.Aggregate()
        for _ in range(3):
            agg.add_outcome(False, True, True, math.nan)
        assert agg.p_semantic == 1.0
        assert math.isnan(agg.mean_distortion)
        assert math.isnan(agg.distortion_se)


class TestRunTrials:
    def test_worker_count_invariance(self):
        one = harness.run_trials("semantic", 8, None, 30, 7, workers=1)
        three = harness.run_trials("semantic", 8, None, 30, 7, workers=3)
        assert one == three

    def test_rerun_identical(self):
        a = harness.run_trials("semantic", 4, 10.0, 20, 11, workers=1)
        b = harness.run_trials("semantic", 4, 10.0, 20, 11, workers=1)
        assert a == b

    def test_config_validation(self):
        with pytest.raises(InvalidParameterError):
            harness.ExperimentConfig(system="quantum")
        with pytest.raises(InvalidParameterError):
            harness.ExperimentConfig(trials=0)
        with pytest.raises(InvalidParameterError):
            harness.ExperimentConfig(n_b=0)
        for workers in (0, -3):
            with pytest.raises(InvalidParameterError):
                harness.ExperimentConfig(workers=workers)
        with pytest.raises(InvalidParameterError, match="no positive finite linear SNR"):
            harness.ExperimentConfig(snr_db_list=(0.0, None, math.nan))

    @pytest.mark.parametrize("snr_db", [math.nan, 1e6])
    def test_refuses_a_bad_snr_before_any_trial(self, snr_db, monkeypatch):
        def no_trial(*args):
            raise AssertionError("a trial ran")
        monkeypatch.setattr(harness, "draw_trial", no_trial)
        for system in ("semantic", "traditional"):
            with pytest.raises(InvalidParameterError, match="no positive finite"):
                harness.run_trials(system, 8, snr_db, 2, 0)
        with pytest.raises(InvalidParameterError, match="no positive finite"):
            harness.ExperimentConfig(snr_db_list=(0.0, snr_db))

    @pytest.mark.parametrize("system,n_b,trials", [
        ("quantum", 8, 2), ("semantic", 8, 0), ("traditional", 8, 0),
        ("traditional", 0, 2), ("traditional", 20, 2), ("semantic", 17, 2)])
    def test_rejects_a_batch_that_cannot_run(self, system, n_b, trials):
        with pytest.raises(InvalidParameterError):
            harness.run_trials(system, n_b, None, trials, 0)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_fewer_than_one_worker(self, workers):
        with pytest.raises(InvalidParameterError):
            harness.run_trials("semantic", 8, None, 2, 0, workers=workers)

    def test_pool_no_larger_than_the_trials(self, pool_sizes):
        agg = harness.run_trials("semantic", 8, None, 2, 5, workers=3)
        assert pool_sizes == [2]
        assert agg == harness.run_trials("semantic", 8, None, 2, 5, workers=1)
        harness.run_trials("semantic", 8, None, 1, 5, workers=3)
        assert pool_sizes == [2]  # a single trial runs in this process

    def test_pool_no_larger_than_the_cores(self, pool_sizes, monkeypatch):
        # the CPUs this process may run on, not all the machine's cores
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        agg = harness.run_trials("semantic", 8, None, 4, 5, workers=1000)
        assert pool_sizes == [2]
        assert agg == harness.run_trials("semantic", 8, None, 4, 5, workers=1)

    def test_one_allowed_cpu_starts_no_pool(self, pool_sizes, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        agg = harness.run_trials("semantic", 8, None, 4, 5, workers=8)
        assert pool_sizes == []
        assert agg == harness.run_trials("semantic", 8, None, 4, 5, workers=1)

    def test_pool_no_larger_than_cpu_count_without_affinity(self, pool_sizes,
                                                            monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        harness.run_trials("semantic", 8, None, 4, 5, workers=1000)
        assert pool_sizes == [2]


TRIAL_FNS = pytest.mark.parametrize("system,trial_fn", [
    ("semantic", harness.run_trial),
    ("traditional", harness.run_traditional_trial)], ids=["semantic", "traditional"])


class TestRunPoints:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @TRIAL_FNS
    def test_equals_run_trials_point_by_point(self, system, trial_fn, workers,
                                              pool_sizes):
        # 7 trials over 2 or 3 workers leave uneven chunks
        points = [(2, 5.0), (5, 5.0), (8, 5.0)]
        aggs = harness._run_points(trial_fn, points, 7, 2, workers)
        assert pool_sizes == ([workers] if workers > 1 else [])
        assert aggs == [harness.run_trials(system, n_b, snr_db, 7, 2)
                        for n_b, snr_db in points]

    @pytest.mark.parametrize("workers", [2, 3])
    @TRIAL_FNS
    def test_several_ragged_chunks_per_worker_equal_the_serial_run(
            self, system, trial_fn, workers, monkeypatch):
        set_cpus(monkeypatch, 4)
        chunks = []

        class Pool(harness.ProcessPoolExecutor):
            def map(self, fn, *iterables, chunksize=1, **kwargs):
                chunks.append(chunksize)
                return super().map(fn, *iterables, chunksize=chunksize, **kwargs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", Pool)
        points = [(8, 5.0), (2, 10.0)]
        aggs = harness._run_points(trial_fn, points, 17, 3, workers)
        [chunk] = chunks
        assert 17 % chunk and math.ceil(17 / chunk) >= 2 * workers
        assert aggs == harness._run_points(trial_fn, points, 17, 3, 1)

    @pytest.mark.parametrize("workers", [1, 2])
    @TRIAL_FNS
    def test_equals_fresh_trials_at_each_point(self, system, trial_fn, workers):
        # the reference draws and renders every (trial, point) from scratch
        points = [(8, 5.0), (2, 10.0), (8, 15.0)]
        aggs = harness._run_points(trial_fn, points, 6, 4, workers)
        for (n_b, snr_db), agg in zip(points, aggs):
            ref = harness.Aggregate()
            for i in range(6):
                concept, rng = harness.draw_trial(4, i)
                rec = trial_fn(concept, n_b, snr_db, rng)
                ref.add_outcome(rec.syntactic_error, rec.semantic_error,
                                rec.degenerate, rec.distortion)
            assert agg == ref
        assert sum(agg.syntactic_errors for agg in aggs) > 0  # the channel drew noise

    @TRIAL_FNS
    def test_renders_each_scene_once_and_encodes_it_at_each_point(
            self, system, trial_fn, monkeypatch):
        calls = Counter()

        def count(module, name):
            fn = getattr(module, name)

            def counted(*args):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(module, name, counted)

        count(scenegen, "render")
        count(encoder, "encode")
        harness._run_points(trial_fn, [(8, 10.0), (2, 10.0), (8, None)], 5, 1)
        assert calls == {"render": 5, "encode": 15}


class TestSweeps:
    def test_snr_sweep_rows(self):
        cfg = harness.ExperimentConfig(trials=15, snr_db_list=(0.0, 30.0),
                                       base_seed=1)
        rows = harness.sweep_snr(cfg)
        assert len(rows) == 2
        assert list(rows[0]) == harness.SNR_SWEEP_HEADER.split(",")
        assert rows[0]["p_syntactic"] >= rows[1]["p_syntactic"]

    def test_rate_sweep_is_one_pool_per_system(self, pool_sizes):
        rows = harness.sweep_rate(3, 1, workers=2)
        assert pool_sizes == [2, 2]
        assert rows == harness.sweep_rate(3, 1, workers=1)

    def test_rate_sweep_rows(self):
        rows = harness.sweep_rate(2, 1)
        rates = {(r["system"], r["nb"]): r["rate_bits"] for r in rows}
        assert list(rates) == [("semantic", 2), ("semantic", 5), ("semantic", 8),
                               ("traditional", 2), ("traditional", 5),
                               ("traditional", 8)]
        assert [rates[("semantic", n)] for n in (2, 5, 8)] == [8, 20, 32]
        assert [rates[("traditional", n)] for n in (2, 5, 8)] == [3750, 9375, 15000]


class TestEmit:
    def rows(self):
        return [{"snr_db": 0.0, "p_syntactic": 0.25, "p_syntactic_se": 0.01,
                 "p_semantic": 0.125, "p_semantic_se": 0.02,
                 "mean_distortion": 0.001234567, "distortion_se": 1e-05}]

    def test_csv_layout_and_manifest(self, tmp_path):
        path = str(tmp_path / "out.csv")
        harness.emit_csv(self.rows(), path, harness.SNR_SWEEP_HEADER,
                         {"trials": 1})
        with open(path) as f:
            lines = f.read().strip().split("\n")
        assert lines[0] == harness.SNR_SWEEP_HEADER
        assert lines[1] == "0,0.25,0.01,0.125,0.02,0.00123457,1e-05"
        with open(path + ".manifest.json") as f:
            manifest = json.load(f)
        assert manifest["config"] == {"trials": 1}
        assert manifest["version"] == harness.VERSION

    def test_plot_data_layout(self, tmp_path):
        path = str(tmp_path / "out.dat")
        harness.emit_csv(self.rows(), path, harness.SNR_SWEEP_HEADER, plot_data=True)
        with open(path) as f:
            lines = f.read().strip().split("\n")
        assert lines[0] == "# " + harness.SNR_SWEEP_HEADER.replace(",", " ")
        assert lines[1].split(" ")[1] == "0.25"

    def test_refuses_empty_rows(self, tmp_path):
        path = str(tmp_path / "empty.csv")
        with pytest.raises(InvalidParameterError):
            harness.emit_csv([], path, harness.SNR_SWEEP_HEADER)
        assert not os.path.exists(path)

    def test_unwritable_path_raises_ioerror(self):
        with pytest.raises(IOError):
            harness.emit_csv(self.rows(), "/nonexistent-dir/x.csv",
                             harness.SNR_SWEEP_HEADER)
