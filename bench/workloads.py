"""The four workloads: seeded rounds of semcom's public API, closed loop.

A round is a fixed list of operations (sweep points or channel blocks);
a run repeats rounds, each with inputs derived from (seed, round index),
so every run attempts whole rounds. Only the calls into semcom are timed;
the checks and the reference computations they need run outside the
timed region, and outside any tracing.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import os
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from semcom import cspace, encoder, funcomp, harness, phy, scenegen
from semcom.errors import SemcomError

from . import checks

SWEEP_SNRS = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, None)
CHANNEL_SNRS = (0.0, 5.0, 10.0, 15.0, 20.0)
SWEEP_N_B = 8
RATE_TAU = 0.002
RATE_MAX_N_B = 16


def round_seed(seed: int, index: int, candidate: int = 0) -> int:
    """Base seed of round ``index`` of a run seeded with ``seed``."""
    return int(np.random.SeedSequence((seed, index, candidate)).generate_state(1)[0])


#: Concepts whose scenes take the encoder's certificate path (circle, octagon).
ROUND_CONCEPTS = frozenset(label for label in harness.CONCEPT_LABELS
                           if label.endswith(("circle", "octagon")))


def balanced_round_seed(seed: int, index: int, trials: int) -> int:
    """Base seed of a round of ``trials`` trials with a fixed share of round shapes.

    Each trial draws its concept uniformly from its own stream. The encoder
    costs five to ten times more on circles and octagons than on squares and
    triangles, so with free draws the concept mix of a run would set much
    of its speed. The first candidate seed whose draws hold exactly the
    expected number of round concepts (3 of every 5 trials) is taken:
    inputs stay a function of (seed, index), and every round of every run
    costs the same in expectation.
    """
    labels = harness.CONCEPT_LABELS
    want = trials * len(ROUND_CONCEPTS) // len(labels)
    for candidate in itertools.count():
        base = round_seed(seed, index, candidate)
        drawn = sum(labels[harness.trial_rng(base, i).integers(len(labels))]
                    in ROUND_CONCEPTS for i in range(trials))
        if drawn == want:
            return base


def sha256_of(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def encoded_scenes(base_seed: int, trials: int) -> list:
    """(prototype, encoded point or None) of each trial's scene.

    Replays the draws every trial makes before its channel: the concept
    from the trial's own stream, then the scene and its render.
    """
    out = []
    for i in range(trials):
        rng = harness.trial_rng(base_seed, i)
        concept = harness.CONCEPT_LABELS[rng.integers(len(harness.CONCEPT_LABELS))]
        img = scenegen.render(scenegen.sample_spec(concept, rng), rng)
        try:
            point = encoder.encode(img).as_tuple()
        except SemcomError:
            point = None
        out.append((cspace.concept_by_label(concept).prototype.as_tuple(), point))
    return out


@dataclass
class Tally:
    """What a run did: operations, work, time in semcom, problems found."""

    attempted: int = 0
    failed: int = 0
    trials: int = 0
    bits: int = 0
    timed_s: float = 0.0
    rounds: int = 0
    samples: list = field(default_factory=list)  # (trials, bits, seconds) per timed unit
    problems: list = field(default_factory=list)  # of failed operations
    run_problems: list = field(default_factory=list)  # of the run's pooled checks
    digests: list = field(default_factory=list)

    def add(self, trials: int, bits: int, seconds: float) -> None:
        self.trials += trials
        self.bits += bits
        self.timed_s += seconds
        self.samples.append((trials, bits, seconds))

    def record(self, label: str, per_op: list[list[str]]) -> None:
        self.attempted += len(per_op)
        for problems in per_op:
            if problems:
                self.failed += 1
                self.problems.extend(f"{label}: {p}" for p in problems)


class Workload:
    """Base: a round runs ``ops`` operations; ``finish`` adds run-level checks."""

    ops: int

    def __init__(self, out_dir: str, tracer=None):
        self.out_dir = out_dir
        self.tracer = tracer

    def timed(self, call):
        """Run ``call()`` under the tracer, if any; return (result, seconds).

        ``call`` must look semcom's functions up when it runs, after the
        tracer has installed its wrappers.
        """
        with self.tracer or contextlib.nullcontext():
            t0 = perf_counter()
            result = call()
            return result, perf_counter() - t0

    def run_round(self, seed: int, index: int, tally: Tally) -> None:
        raise NotImplementedError

    def finish(self) -> list[str]:
        return []


class SnrSweep(Workload):
    """``harness.sweep_snr`` at n_b=8 over 0..30 dB and the noiseless channel."""

    ops = len(SWEEP_SNRS)

    def __init__(self, out_dir, tracer=None, *, system: str, trials: int,
                 workers: int):
        super().__init__(out_dir, tracer)
        self.system = system
        self.trials = trials
        self.workers = workers
        self.bits = (4 if system == "semantic" else 1875) * SWEEP_N_B
        self.pooled = {snr: [0, 0] for snr in SWEEP_SNRS if snr is not None}

    def run_round(self, seed, index, tally):
        base = balanced_round_seed(seed, index, self.trials)
        cfg = harness.ExperimentConfig(
            system=self.system, n_b=SWEEP_N_B, snr_db_list=SWEEP_SNRS,
            trials=self.trials, base_seed=base, workers=self.workers)
        path = os.path.join(self.out_dir, f"{self.system}-snr-{base}.csv")

        def sweep_and_write():
            rows = harness.sweep_snr(cfg)
            harness.emit_csv(rows, path, harness.SNR_SWEEP_HEADER,
                             {"experiment": "snr_sweep", "system": self.system,
                              "n_b": SWEEP_N_B, "trials": self.trials,
                              "base_seed": base})
            return rows

        label = f"round {index} (base seed {base})"
        try:
            rows, seconds = self.timed(sweep_and_write)
        except Exception as exc:  # a failed operation is counted, not fatal
            tally.record(label, [[f"raised {exc!r}"]] * self.ops)
            return
        if self.system == "semantic":
            degenerate = sum(p is None for _, p in encoded_scenes(base, self.trials))
        else:
            degenerate = 0  # pixel packets are sent before the encoder runs
        sent = self.trials - degenerate
        tally.add(self.ops * self.trials, self.ops * sent * self.bits, seconds)
        with open(path) as f:
            text = f.read()
        per_op = checks.check_sweep(rows, SWEEP_SNRS, trials=self.trials,
                                    bits=self.bits, sent=sent)
        for op, csv_problems in zip(per_op, checks.check_csv(
                rows, text, harness.SNR_SWEEP_HEADER)):
            op.extend(csv_problems)
        tally.record(label, per_op)
        tally.digests.append(sha256_of(path))
        for row, problems in zip(rows, per_op):
            if row["snr_db"] is not None and not problems:
                pooled = self.pooled[row["snr_db"]]
                pooled[0] += checks.exact_count(row["p_syntactic"], self.trials)
                pooled[1] += sent

    def finish(self):
        """Rounds are independent, so their syntactic counts pool per SNR."""
        out = []
        for snr, (x, n) in self.pooled.items():
            msg = checks.binomial_problem(f"pooled {snr} dB syntactic", x, n,
                                          checks.packet_error_prob(snr, self.bits))
            if msg:
                out.append(msg)
        return out


class RateSearch(Workload):
    """``funcomp.semantic_rate_search`` on the noiseless channel, n_b 1..16."""

    ops = RATE_MAX_N_B

    def __init__(self, out_dir, tracer=None, *, trials: int):
        super().__init__(out_dir, tracer)
        self.trials = trials

    def run_round(self, seed, index, tally):
        base = balanced_round_seed(seed, index, self.trials)
        label = f"round {index} (base seed {base})"
        try:
            result, seconds = self.timed(lambda: funcomp.semantic_rate_search(
                RATE_TAU, snr_db=None, trials=self.trials, base_seed=base,
                max_n_b=RATE_MAX_N_B))
        except Exception as exc:  # a failed operation is counted, not fatal
            tally.record(label, [[f"raised {exc!r}"]] * self.ops)
            return
        scenes = encoded_scenes(base, self.trials)
        pairs = [(proto, p) for proto, p in scenes if p is not None]
        tally.add(self.ops * self.trials,
                  len(pairs) * sum(4 * n for n in range(1, self.ops + 1)), seconds)
        floor, slack = checks.encoder_floor(pairs, RATE_MAX_N_B)
        tally.record(label, checks.check_rate_search(
            result, tau=RATE_TAU, max_n_b=RATE_MAX_N_B, floor=floor, slack=slack))
        table = "".join(f"{p.n_b},{p.mean_distortion!r},{p.stderr!r},{p.feasible}\n"
                        for p in result.points)
        table += f"minimal_n_b,{result.minimal_n_b}\n"
        tally.digests.append(hashlib.sha256(table.encode()).hexdigest())


class ChannelBer(Workload):
    """Random bits in large blocks through ``phy.transmit_packet``."""

    ops = len(CHANNEL_SNRS)

    def __init__(self, out_dir, tracer=None, *, block_bits: int, seed: int):
        super().__init__(out_dir, tracer)
        rng = np.random.default_rng(seed)
        self.blocks = [rng.integers(0, 2, size=block_bits).astype(np.uint8)
                       for _ in CHANNEL_SNRS]
        self.pooled = {snr: 0 for snr in CHANNEL_SNRS}
        self.sent = {snr: 0 for snr in CHANNEL_SNRS}

    def run_round(self, seed, index, tally):
        base = round_seed(seed, index)
        rng = np.random.default_rng(base)
        per_op = []
        digest = hashlib.sha256()
        for snr, bits in zip(CHANNEL_SNRS, self.blocks):
            try:
                params = phy.ChannelParams(snr, rng)
                out, seconds = self.timed(lambda: phy.transmit_packet(bits, params))
            except Exception as exc:  # a failed operation is counted, not fatal
                per_op.append([f"{snr} dB: raised {exc!r}"])
                continue
            tally.add(1, bits.size, seconds)
            problems = checks.check_channel_block(bits, out, snr)
            per_op.append(problems)
            if not problems:
                self.pooled[snr] += int((out != bits).sum())
                self.sent[snr] += bits.size
            digest.update(np.ascontiguousarray(out).tobytes())
        tally.record(f"round {index} (base seed {base})", per_op)
        tally.digests.append(digest.hexdigest())

    def finish(self):
        out = []
        for snr in CHANNEL_SNRS:
            msg = checks.binomial_problem(f"pooled {snr} dB BER", self.pooled[snr],
                                          self.sent[snr], checks.rayleigh_bpsk_ber(snr))
            if msg:
                out.append(msg)
        return out


#: Inputs of one round of each workload.
SIZES = {
    "semantic_snr_sweep": dict(trials=10),
    "traditional_snr_sweep": dict(trials=100),
    "rate_search": dict(trials=5),
    "channel_ber": dict(block_bits=1_000_000),
}
#: Pool size of untraced runs; every other workload, and traced runs, use one.
WORKERS = {"traditional_snr_sweep": 2}


def make(name: str, out_dir: str, seed: int, *, tracer=None, sizes=None,
         workers: int | None = None) -> Workload:
    """A fresh workload; ``workers`` overrides the pool size of the sweeps."""
    sizes = dict(SIZES[name], **(sizes or {}))
    if sizes.get("trials", 5) % len(harness.CONCEPT_LABELS):
        raise ValueError("trials per round must be a multiple of the concept count")
    if workers is None:
        workers = WORKERS.get(name, 1)
    if name in ("semantic_snr_sweep", "traditional_snr_sweep"):
        return SnrSweep(out_dir, tracer, system=name.split("_")[0],
                        workers=workers, **sizes)
    if name == "rate_search":
        return RateSearch(out_dir, tracer, **sizes)
    if name == "channel_ber":
        return ChannelBer(out_dir, tracer, seed=seed, **sizes)
    raise ValueError(f"unknown workload {name!r}")


def run(*runs: Workload, seed: int, seconds: float | None = None,
        rounds: int | None = None, after_round=None) -> list[Tally]:
    """Whole rounds for about ``seconds``, or exactly ``rounds``.

    A next round starts only if at least half of it, at the median length
    of the rounds so far, fits in ``seconds``; so a run ends within half a
    round of ``seconds``, early or late, and does not overrun by a whole
    round. Several workloads run round by round in turn, so that a slow
    spell of the machine falls on all of them alike. ``after_round(elapsed)``,
    if given, runs between rounds, inside the ``seconds`` budget.
    """
    tallies = [Tally() for _ in runs]
    start = perf_counter()
    ends = [0.0]
    for index in itertools.count():
        for workload, tally in zip(runs, tallies):
            workload.run_round(seed, index, tally)
            tally.rounds += 1
        if after_round is not None:
            after_round(perf_counter() - start)
        ends.append(perf_counter() - start)
        if rounds is not None and index + 1 >= rounds:
            break
        step = statistics.median(b - a for a, b in zip(ends, ends[1:]))
        if seconds is not None and ends[-1] + step / 2 > seconds:
            break
    for workload, tally in zip(runs, tallies):
        tally.run_problems.extend(workload.finish())
    return tallies
