"""The benchmark's own tests: smoke runs at tiny sizes, and mutation cases.

Run from the root of the checkout with ``python3 -m pytest bench -q``.
Each mutation case feeds a check a result corrupted in one way and
requires the check to reject it; the smoke runs require the same checks
to pass every workload's real outputs.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

from bench.run import ROOT, counting_pool_memory, import_semcom, result_line

import_semcom()

from semcom import cspace, encoder, funcomp, harness, phy  # noqa: E402

from bench import checks, tracing, workloads  # noqa: E402

TINY = {
    "semantic_snr_sweep": dict(trials=5),
    "traditional_snr_sweep": dict(trials=5),
    "rate_search": dict(trials=5),
    "channel_ber": dict(block_bits=20_000),
}
SNRS = workloads.SWEEP_SNRS
SEED = 7


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


# -- smoke ---------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_round_passes_its_checks(name, tmp_path):
    wl = workloads.make(name, str(tmp_path), SEED, sizes=TINY[name], workers=1)
    [tally] = workloads.run(wl, seed=SEED, rounds=2)
    assert tally.problems == [] and tally.run_problems == []
    assert tally.attempted == 2 * wl.ops and tally.failed == 0
    assert tally.timed_s > 0 and tally.trials > 0 and tally.bits > 0
    assert len(tally.digests) == 2 and tally.digests[0] != tally.digests[1]


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_round_counts_exactly_and_restores(name, tmp_path):
    originals = (encoder.encode, encoder.fit_shape, phy.transmit_packet,
                 harness.cspace, funcomp.run_trial)
    tracer = tracing.Tracer()
    plain, traced = workloads.run(
        workloads.make(name, str(tmp_path), SEED, sizes=TINY[name], workers=1),
        workloads.make(name, str(tmp_path), SEED, tracer=tracer, sizes=TINY[name],
                       workers=1),
        seed=SEED, rounds=1)
    assert (encoder.encode, encoder.fit_shape, phy.transmit_packet,
            harness.cspace, funcomp.run_trial) == originals
    assert traced.digests == plain.digests and traced.failed == 0
    metrics = tracing.layer_metrics(tracer)
    names = {m["name"] for m in spec()["per_layer"]}
    assert set(metrics) | {"trace.overhead_pct"} == names
    assert metrics["phy.transmit_packet.mbit"][0] == pytest.approx(traced.bits / 1e6)
    calls = metrics["encoder.encode.calls"][0]
    if name == "channel_ber":
        assert calls == 0
    else:
        assert calls == traced.trials  # one encode per trial
        assert (metrics["encoder.fit_shape.round.calls"][0]
                + metrics["encoder.fit_shape.polygon.calls"][0]
                + metrics["encoder.encode.degenerate"][0]) >= calls
        assert metrics["encoder.encode.ms"][0] > 0


def test_rounds_draw_a_fixed_share_of_round_concepts():
    assert workloads.ROUND_CONCEPTS == {"blue-circle", "red-circle", "red-octagon"}
    for trials in (5, 10, 100):
        base = workloads.balanced_round_seed(SEED, 3, trials)
        draws = [harness.CONCEPT_LABELS[harness.trial_rng(base, i).integers(5)]
                 for i in range(trials)]
        assert sum(d in workloads.ROUND_CONCEPTS for d in draws) == 3 * trials // 5
    assert workloads.balanced_round_seed(SEED, 3, 10) != workloads.balanced_round_seed(
        SEED, 4, 10)
    with pytest.raises(ValueError):
        workloads.make("rate_search", ".", SEED, sizes=dict(trials=7))


def test_run_starts_a_round_only_if_half_of_it_fits(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(workloads, "perf_counter", lambda: clock[0])

    class Fixed(workloads.Workload):
        ops = 1

        def run_round(self, seed, index, tally):
            clock[0] += 0.3
            tally.record("round", [[]])

    # rounds end at 0.3, 0.6, 0.9: 0.9 + 0.15 > 1, so a fourth is not started
    [tally] = workloads.run(Fixed("."), seed=SEED, seconds=1.0)
    assert tally.rounds == 3 and tally.attempted == 3
    [tally] = workloads.run(Fixed("."), seed=SEED, seconds=1.1)
    assert tally.rounds == 4


def test_pool_workers_private_memory_is_noted_per_pool(monkeypatch):
    pools_kb = []
    monkeypatch.setattr(harness, "ProcessPoolExecutor",
                        counting_pool_memory(pools_kb))
    cfg = harness.ExperimentConfig(system="traditional", snr_db_list=(20.0, None),
                                   trials=4, base_seed=SEED, workers=2)
    harness.sweep_snr(cfg)
    assert len(pools_kb) == 2 and all(kb > 0 for kb in pools_kb)


def test_failed_operation_makes_the_run_incorrect(tmp_path, monkeypatch):
    wl = workloads.make("channel_ber", str(tmp_path), SEED,
                        sizes=TINY["channel_ber"])
    [good] = workloads.run(wl, seed=SEED, rounds=1)
    assert result_line([good], {})["correct"]
    # a channel that flips every bit fails each block's BER check
    transmit = phy.transmit_packet
    monkeypatch.setattr(phy, "transmit_packet", lambda bits, p: 1 - transmit(bits, p))
    wl = workloads.make("channel_ber", str(tmp_path), SEED,
                        sizes=TINY["channel_ber"])
    [bad] = workloads.run(wl, seed=SEED, rounds=1)
    line = result_line([bad], {})
    assert bad.failed == bad.attempted == wl.ops
    assert not line["correct"] and line["failed"] == wl.ops


def run_bench(args, cwd):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_every_metric(trace):
    out = run_bench(["--workload", "channel_ber", "--seed", "3", "--seconds", "1",
                     "--trace", trace], ROOT)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 5
    declared = spec()["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = run_bench(["--workload", "rate_search", "--seed", "1", "--seconds", "1",
                     "--trace", "0"], tmp_path)
    assert out.returncode != 0 and '"metrics"' not in out.stdout


# -- mutation cases --------------------------------------------------------

@pytest.fixture(scope="module")
def sweep():
    trials = 12
    cfg = harness.ExperimentConfig(n_b=8, snr_db_list=SNRS, trials=trials,
                                   base_seed=SEED)
    rows = harness.sweep_snr(cfg)
    scenes = workloads.encoded_scenes(SEED, trials)
    sent = sum(p is not None for _, p in scenes)
    return rows, trials, sent


def sweep_problems(rows, trials, sent):
    return checks.check_sweep(rows, SNRS, trials=trials, bits=32, sent=sent)


def test_sweep_passes_unmutated(sweep):
    assert not any(sweep_problems(*sweep))


def mutated(rows, snr, **values):
    return [dict(r, **values) if r["snr_db"] == snr else r for r in rows]


def test_sweep_rejects_syntactic_error_on_noiseless_channel(sweep):
    rows, trials, sent = sweep
    bad = sweep_problems(mutated(rows, None, p_syntactic=1 / trials), trials, sent)
    assert bad[SNRS.index(None)]


def test_sweep_rejects_flipped_semantic_count(sweep):
    rows, trials, sent = sweep
    noiseless = round(rows[SNRS.index(None)]["p_semantic"] * trials)
    row = rows[SNRS.index(30.0)]
    x = round(row["p_syntactic"] * trials) + noiseless + 1
    assert x <= trials
    bad = sweep_problems(mutated(rows, 30.0, p_semantic=x / trials), trials, sent)
    assert bad[SNRS.index(30.0)] and not any(bad[:SNRS.index(30.0)])


def test_sweep_rejects_implausible_syntactic_rate(sweep):
    rows, trials, sent = sweep
    # at 0 dB a 32-bit packet is hit with probability ~0.99
    bad = sweep_problems(mutated(rows, 0.0, p_syntactic=0.0), trials, sent)
    assert bad[0]


def test_sweep_rejects_non_count_and_missing_point(sweep):
    rows, trials, sent = sweep
    assert sweep_problems(mutated(rows, 5.0, p_semantic=0.123456), trials, sent)[1]
    assert all(checks.check_sweep(rows[:-1], SNRS, trials=trials, bits=32,
                                  sent=sent))


def test_sweep_rejects_nan_distortion(sweep):
    rows, trials, sent = sweep
    assert sweep_problems(mutated(rows, 10.0, mean_distortion=math.nan),
                          trials, sent)[2]


def test_csv_rejects_changed_value_and_header(sweep, tmp_path):
    rows = sweep[0]
    path = str(tmp_path / "s.csv")
    harness.emit_csv(rows, path, harness.SNR_SWEEP_HEADER)
    text = open(path).read()
    assert not any(checks.check_csv(rows, text, harness.SNR_SWEEP_HEADER))
    lines = text.splitlines()
    fields = lines[3].split(",")
    fields[1] = repr(float(fields[1]) + 0.01)
    lines[3] = ",".join(fields)
    bad = checks.check_csv(rows, "\n".join(lines) + "\n", harness.SNR_SWEEP_HEADER)
    assert bad[2] and not bad[0]
    assert all(checks.check_csv(rows, text.replace("snr_db", "snr"),
                                harness.SNR_SWEEP_HEADER))


def flipped(bits, rate, rng):
    return bits ^ (rng.random(bits.size) < rate).astype(np.uint8)


def test_channel_rejects_ber_of_wrong_formulas():
    rng = np.random.default_rng(SEED)
    bits = rng.integers(0, 2, size=200_000).astype(np.uint8)
    snr = 20.0
    right = checks.rayleigh_bpsk_ber(snr)
    gamma = 10.0 ** (snr / 10.0)
    wrong = {
        "awgn": 0.5 * math.erfc(math.sqrt(gamma)),
        "snr in dB used as linear": 0.5 * (1.0 - math.sqrt(snr / (1.0 + snr))),
        "amplitude fades, no sqrt": 0.5 * (1.0 - gamma / (1.0 + gamma)),
    }
    assert not checks.check_channel_block(bits, flipped(bits, right, rng), snr)
    for label, ber in wrong.items():
        assert checks.check_channel_block(bits, flipped(bits, ber, rng), snr), label


def test_channel_rejects_wrong_length_and_values():
    bits = np.zeros(1000, dtype=np.uint8)
    assert checks.check_channel_block(bits, bits[:-1], 20.0)
    assert checks.check_channel_block(bits, bits + 2, 20.0)


def test_real_channel_passes():
    rng = np.random.default_rng(SEED)
    bits = rng.integers(0, 2, size=200_000).astype(np.uint8)
    for snr in workloads.CHANNEL_SNRS:
        out = phy.transmit_packet(bits, phy.ChannelParams(snr, rng))
        assert not checks.check_channel_block(bits, out, snr)


@pytest.fixture(scope="module")
def search():
    trials = 3
    result = funcomp.semantic_rate_search(workloads.RATE_TAU, None, trials=trials,
                                          base_seed=SEED)
    pairs = [(proto, p) for proto, p in workloads.encoded_scenes(SEED, trials)
             if p is not None]
    floor, slack = checks.encoder_floor(pairs, 16)
    return result, floor, slack


def search_problems(result, floor, slack):
    return checks.check_rate_search(result, tau=workloads.RATE_TAU, max_n_b=16,
                                    floor=floor, slack=slack)


def with_points(result, points, minimal=None):
    return dataclasses.replace(result, points=points,
                               minimal_n_b=result.minimal_n_b if minimal is None
                               else minimal)


def test_rate_search_passes_unmutated(search):
    assert not any(search_problems(*search))


def test_rate_search_rejects_wrong_minimal_n_b(search):
    result, floor, slack = search
    wrong = 16 if result.minimal_n_b != 16 else 1
    assert all(search_problems(with_points(result, result.points, wrong),
                               floor, slack))


def test_rate_search_rejects_missing_point(search):
    result, floor, slack = search
    assert all(search_problems(with_points(result, result.points[:-1]), floor, slack))


def test_rate_search_rejects_distortion_off_the_floor(search):
    result, floor, slack = search
    top = result.points[-1]
    moved = dataclasses.replace(top, mean_distortion=top.mean_distortion + 10 * slack)
    bad = search_problems(with_points(result, result.points[:-1] + [moved]),
                          floor, slack)
    assert bad[-1] and not any(bad[:-1])


def test_rate_search_rejects_flipped_feasible_flag(search):
    result, floor, slack = search
    points = list(result.points)
    points[0] = dataclasses.replace(points[0], feasible=not points[0].feasible)
    assert search_problems(with_points(result, points), floor, slack)[0]


def test_floor_slack_bounds_real_quantization():
    rng = np.random.default_rng(SEED)
    proto = (1.0, 0.0, 1.0, 0.9714)
    spec16 = phy.QuantizerSpec(16)
    for _ in range(200):
        point = (float(rng.choice([1.0, 1.0823922, 1.4142136, 2.0])), rng.random(),
                 rng.random(), rng.random())
        q = phy.dequantize(phy.quantize(cspace.SemanticPoint(*point), spec16),
                           spec16).as_tuple()
        floor, slack = checks.encoder_floor([(proto, point)], 16)
        assert abs(checks.semantic_loss(proto, q) - floor) <= slack


def test_binomial_problem_edges():
    assert checks.binomial_problem("x", 0, 10, 0.0) is None
    assert checks.binomial_problem("x", 1, 10, 0.0)
    assert checks.binomial_problem("x", 10, 10, 1.0) is None
    assert checks.binomial_problem("x", 11, 10, 0.5)
