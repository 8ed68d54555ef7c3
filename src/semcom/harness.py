"""Experiment orchestration: end-to-end trials, SNR and rate sweeps.

Every trial is sealed with its own random stream derived from the base
seed and trial index, so results are identical regardless of worker count
and reruns are byte-for-byte reproducible.
"""

from __future__ import annotations

import functools
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__ as VERSION
from . import baseline, cspace, encoder, phy, scenegen
from .errors import InvalidParameterError, SemcomError

CONCEPT_LABELS = tuple(c.label for c in cspace.CONCEPTS)

SNR_SWEEP_HEADER = ("snr_db,p_syntactic,p_syntactic_se,p_semantic,p_semantic_se,"
                    "mean_distortion,distortion_se")
RATE_SWEEP_HEADER = "system,nb,rate_bits,p_semantic,p_semantic_se"
#: Quantizer resolutions and SNR (dB) of the rate table.
RATE_SWEEP_NB = (2, 5, 8)
RATE_SWEEP_SNR_DB = 15.0


@dataclass
class TrialRecord:
    """Outcome of one end-to-end transmission."""

    concept: str
    point: cspace.SemanticPoint | None
    bits: np.ndarray | None
    received_bits: np.ndarray | None
    received_point: cspace.SemanticPoint | None
    decoded: str
    syntactic_error: bool
    semantic_error: bool
    distortion: float
    degenerate: bool = False


@dataclass
class ExperimentConfig:
    system: str = "semantic"
    n_b: int = 8
    snr_db_list: tuple = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    trials: int = 10_000
    base_seed: int = 0
    workers: int = 1

    def __post_init__(self):
        _check_batch(self.system, self.n_b, self.trials, self.workers)
        for snr_db in self.snr_db_list:  # the channel's own check, before any trial
            if snr_db is not None:
                phy._linear_snr(snr_db)


def _check_batch(system: str, n_b: int, trials: int, workers: int) -> None:
    """Raise InvalidParameterError unless a batch of trials can run as given."""
    if system not in ("semantic", "traditional"):
        raise InvalidParameterError(f"unknown system {system!r}")
    if trials < 1:
        raise InvalidParameterError("trials must be >= 1")
    phy.QuantizerSpec(n_b)
    if workers < 1:
        raise InvalidParameterError("workers must be >= 1")


def trial_rng(base_seed: int, index: int) -> np.random.Generator:
    """Independent stream for one trial: hash of (base_seed, index)."""
    return np.random.default_rng(np.random.SeedSequence(base_seed, spawn_key=(index,)))


def draw_trial(base_seed: int, index: int) -> tuple[str, np.random.Generator]:
    """A trial's concept, drawn uniformly from its stream, and the stream after it."""
    rng = trial_rng(base_seed, index)
    return CONCEPT_LABELS[rng.integers(len(CONCEPT_LABELS))], rng


def _encode(img: np.ndarray) -> cspace.SemanticPoint | None:
    """The encoder's point for an image; None when it cannot make one."""
    try:
        return encoder.encode(img)
    except SemcomError:
        return None


def _decode(concept: str, point, bits, received, received_point) -> TrialRecord:
    """Decode the receiver's point, score it against the prototype, record all.

    received_point None is a degenerate trial, counted and never aborting a
    sweep: it decodes as the first label and has no distortion.
    """
    if received_point is None:
        decoded, distortion = CONCEPT_LABELS[0], math.nan
    else:
        decoded = cspace.decode_concept(received_point).label
        distortion = cspace.semantic_loss(
            cspace.concept_by_label(concept).prototype, received_point)
    return TrialRecord(
        concept, point, bits, received, received_point, decoded,
        syntactic_error=bits is not None and bool((bits != received).any()),
        semantic_error=decoded != concept,
        distortion=distortion, degenerate=received_point is None)


def run_trial(concept: str, n_b: int, snr_db: float | None,
              rng: np.random.Generator) -> TrialRecord:
    """Scene -> encode -> quantize/pack -> channel -> decode, fully recorded."""
    point = _encode(scenegen.render(scenegen.sample_spec(concept, rng), rng))
    if point is None:  # nothing to send, so no channel draws
        return _decode(concept, None, None, None, None)
    qspec = phy.QuantizerSpec(n_b)
    bits = phy.pack(phy.quantize(point, qspec), n_b)
    received = phy.transmit_packet(bits, phy.ChannelParams(snr_db, rng))
    return _decode(concept, point, bits, received,
                   phy.dequantize(phy.unpack(received, n_b), qspec))


def run_traditional_trial(concept: str, n_b: int, snr_db: float | None,
                          rng: np.random.Generator) -> TrialRecord:
    """Pixel-transmission trial with the shared perception stack at the RX."""
    img = scenegen.render(scenegen.sample_spec(concept, rng), rng)
    bits = baseline.pixel_quantize(img, n_b)
    received = phy.transmit_packet(bits, phy.ChannelParams(snr_db, rng))
    point = _encode(baseline.pixel_dequantize(received, n_b))
    return _decode(concept, None, bits, received, point)


@dataclass
class Aggregate:
    """Order-independent sums over a batch of trials."""

    trials: int = 0
    syntactic_errors: int = 0
    semantic_errors: int = 0
    degenerate: int = 0
    distortion_sum: float = 0.0
    distortion_sq_sum: float = 0.0
    distortion_count: int = 0

    def add_outcome(self, syntactic: bool, semantic: bool, degenerate: bool,
                    distortion: float) -> None:
        self.trials += 1
        self.syntactic_errors += syntactic
        self.semantic_errors += semantic
        self.degenerate += degenerate
        if not math.isnan(distortion):
            self.distortion_sum += distortion
            self.distortion_sq_sum += distortion ** 2
            self.distortion_count += 1

    @property
    def p_syntactic(self) -> float:
        return self.syntactic_errors / self.trials

    @property
    def p_semantic(self) -> float:
        return self.semantic_errors / self.trials

    def proportion_se(self, p: float) -> float:
        return math.sqrt(p * (1.0 - p) / self.trials)

    @property
    def mean_distortion(self) -> float:
        """Mean over non-degenerate trials; nan when every trial was degenerate."""
        n = self.distortion_count
        return self.distortion_sum / n if n else math.nan

    @property
    def distortion_se(self) -> float:
        n = self.distortion_count
        if not n:
            return math.nan
        var = max(self.distortion_sq_sum / n - self.mean_distortion ** 2, 0.0)
        return math.sqrt(var / n)


def _trial_outcomes(trial_fn, points, base_seed: int, index: int) -> list[tuple]:
    """One trial's outcome at each point, each from a fresh draw of its stream."""
    out = []
    for n_b, snr_db in points:
        concept, rng = draw_trial(base_seed, index)
        rec = trial_fn(concept, n_b, snr_db, rng)
        out.append((rec.syntactic_error, rec.semantic_error,
                    rec.degenerate, rec.distortion))
    return out


def _run_points(trial_fn, points, trials: int, base_seed: int,
                workers: int = 1) -> list[Aggregate]:
    """One Aggregate per (n_b, snr_db) point, over the same trials.

    Trial-major, so a scene's later points find its fit in encoder's memo.
    Workers take contiguous runs of trial indices, so every point sums its
    outcomes in trial-index order whatever the worker count.
    """
    run = functools.partial(_trial_outcomes, trial_fn, points, base_seed)
    workers = min(workers, trials, os.cpu_count() or 1)  # more would not run faster
    if workers <= 1:
        rows = map(run, range(trials))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(run, range(trials),
                                 chunksize=math.ceil(trials / workers)))
    aggs = [Aggregate() for _ in points]
    for row in rows:
        for agg, outcome in zip(aggs, row):
            agg.add_outcome(*outcome)
    return aggs


def run_trials(system: str, n_b: int, snr_db: float | None, trials: int,
               base_seed: int, workers: int = 1) -> Aggregate:
    """Run a batch of trials with uniformly drawn concepts.

    Per-trial streams plus accumulation in trial-index order make the
    result bit-identical for every worker count; workers are separate
    processes since the trial loop is CPU-bound.
    """
    _check_batch(system, n_b, trials, workers)
    trial_fn = run_trial if system == "semantic" else run_traditional_trial
    return _run_points(trial_fn, [(n_b, snr_db)], trials, base_seed, workers)[0]


def sweep_snr(cfg: ExperimentConfig) -> list[dict]:
    """Error probabilities and mean distortion per SNR point, one run_trials batch each."""
    rows = []
    for snr_db in cfg.snr_db_list:
        agg = run_trials(cfg.system, cfg.n_b, snr_db, cfg.trials,
                         cfg.base_seed, cfg.workers)
        rows.append({
            "snr_db": snr_db,
            "p_syntactic": agg.p_syntactic,
            "p_syntactic_se": agg.proportion_se(agg.p_syntactic),
            "p_semantic": agg.p_semantic,
            "p_semantic_se": agg.proportion_se(agg.p_semantic),
            "mean_distortion": agg.mean_distortion,
            "distortion_se": agg.distortion_se,
        })
    return rows


def sweep_rate(trials: int, base_seed: int, workers: int = 1) -> list[dict]:
    """Rate-vs-semantic-error rows at RATE_SWEEP_SNR_DB, one _run_points batch per system."""
    _check_batch("semantic", RATE_SWEEP_NB[0], trials, workers)
    points = [(n_b, RATE_SWEEP_SNR_DB) for n_b in RATE_SWEEP_NB]
    rows = []
    for system, trial_fn, rate_fn in (
            ("semantic", run_trial, baseline.semantic_rate_bits),
            ("traditional", run_traditional_trial, baseline.traditional_rate_bits)):
        aggs = _run_points(trial_fn, points, trials, base_seed, workers)
        rows += [{"system": system, "nb": n_b, "rate_bits": rate_fn(n_b),
                  "p_semantic": agg.p_semantic,
                  "p_semantic_se": agg.proportion_se(agg.p_semantic)}
                 for n_b, agg in zip(RATE_SWEEP_NB, aggs)]
    return rows


def _format_value(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def format_rows(rows: list[dict], header: str, plot_data: bool = False) -> str:
    """Rows under the normative header as CSV, values to 6 significant digits.

    plot_data gives whitespace-delimited columns for gnuplot instead, the
    header a comment line.
    """
    columns = header.split(",")
    sep = " " if plot_data else ","
    lines = ["# " + sep.join(columns) if plot_data else header]
    lines += [sep.join(_format_value(row[c]) for c in columns) for row in rows]
    return "\n".join(lines) + "\n"


def emit_csv(rows: list[dict], path: str, header: str,
             config: dict | None = None, plot_data: bool = False) -> None:
    """Write format_rows's text to path, plus a manifest of the config."""
    if not rows:
        raise InvalidParameterError("refusing to write an output with no rows")
    text = format_rows(rows, header, plot_data)
    with open(path, "w", newline="") as f:
        f.write(text)
    manifest = {"config": config or {}, "version": VERSION}
    with open(path + ".manifest.json", "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
