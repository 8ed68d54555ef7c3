"""Per-layer timing spans, installed around semcom's functions from outside.

Each wrapper is placed where its caller looks the name up: a module
attribute for callers that write ``module.func(...)`` or that call a
global of their own module, and the importing module's own global where a
caller bound the function at import (``funcomp`` binds ``run_trial``).
``src/`` is never edited; ``Tracer.uninstall`` restores every original.

Spans nest on a stack, so each span knows how much of its interval its
child spans covered; a layer's self time is its duration minus that.
Spans do not cross processes, so traced runs use ``workers=1``.
"""

from __future__ import annotations

import types
from collections import Counter
from time import perf_counter

import numpy as np

from semcom import baseline, cspace, encoder, funcomp, harness, phy, scenegen
from semcom.errors import SemcomError

#: fit_shape results whose family is circle or octagon ran the certificate.
ROUND_FAMILIES = (None, 8)


class SpanStats:
    """Calls of one span name, their total duration and total self time."""

    __slots__ = ("calls", "busy_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Aggregated spans and counts of one traced phase."""

    def __init__(self):
        self.spans: dict[str, SpanStats] = {}
        self.counts: Counter = Counter()
        self._open: list[float] = []  # child time covered, per open span
        self._undo: list[tuple] = []

    def wrap(self, fn, name, name_of=None, on_call=None):
        """Time ``fn`` as span ``name`` (or ``name_of(result)``)."""
        open_spans = self._open

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            open_spans.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(name, t0)
                if isinstance(exc, SemcomError):
                    self.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            self._close(name if name_of is None else name_of(result), t0)
            return result

        return traced

    def _close(self, name: str, t0: float) -> None:
        duration = perf_counter() - t0
        children = self._open.pop()
        if self._open:
            self._open[-1] += duration
        stats = self.spans.get(name)
        if stats is None:
            stats = self.spans[name] = SpanStats()
        stats.calls += 1
        stats.busy_s += duration
        stats.self_s += duration - children

    def patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, owner, attr: str, name: str, **hooks) -> None:
        self.patch(owner, attr, self.wrap(getattr(owner, attr), name, **hooks))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        install_layers(self)
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def _fit_shape_span(result) -> str:
    family = "round" if result[0] in ROUND_FAMILIES else "polygon"
    return f"encoder.fit_shape.{family}"


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer function the workloads reach."""
    for attr in ("sample_spec", "render"):
        tracer.install(scenegen, attr, f"scenegen.{attr}")
    # encode and estimate_shape_ratio look their helpers up in encoder's globals
    for attr in ("encode", "segment", "estimate_color", "estimate_shape_ratio"):
        tracer.install(encoder, attr, f"encoder.{attr}")
    tracer.install(encoder, "fit_shape", "encoder.fit_shape", name_of=_fit_shape_span)
    for attr in ("quantize", "pack", "unpack", "dequantize"):
        tracer.install(phy, attr, f"phy.{attr}")

    def count_bits(args):
        tracer.counts["phy.transmit_packet.bits"] += int(np.size(args[0]))

    tracer.install(phy, "transmit_packet", "phy.transmit_packet", on_call=count_bits)
    for attr in ("pixel_quantize", "pixel_dequantize"):
        tracer.install(baseline, attr, f"baseline.{attr}")
    # decode_concept calls semantic_loss through cspace's globals; a private
    # view of cspace for harness times only the trial's own distortion call
    view = types.SimpleNamespace(**vars(cspace))
    for attr in ("decode_concept", "semantic_loss"):
        tracer.install(view, attr, f"cspace.{attr}")
    tracer.patch(harness, "cspace", view)
    for attr in ("run_trials", "run_trial", "run_traditional_trial", "emit_csv"):
        tracer.install(harness, attr, f"harness.{attr}")
    tracer.install(funcomp, "run_trial", "funcomp.run_trial")
    tracer.install(funcomp, "semantic_rate_search", "funcomp.semantic_rate_search")


#: Per-layer time metrics: (prefix, spans, statistic). "busy" reports the
#: mean span duration per call; "self" the self time per trial of the
#: layer below, for orchestration layers whose own calls are few.
TIME_METRICS = (
    ("scenegen.sample_spec", ("scenegen.sample_spec",), "busy"),
    ("scenegen.render", ("scenegen.render",), "busy"),
    ("encoder.encode", ("encoder.encode",), "busy"),
    ("encoder.segment", ("encoder.segment",), "busy"),
    ("encoder.estimate_color", ("encoder.estimate_color",), "busy"),
    ("encoder.sector_check", ("encoder.estimate_shape_ratio",), "self"),
    ("encoder.fit_shape.round", ("encoder.fit_shape.round",), "busy"),
    ("encoder.fit_shape.polygon", ("encoder.fit_shape.polygon",), "busy"),
    ("phy.quantize_pack", ("phy.quantize", "phy.pack"), "busy"),
    ("phy.unpack_dequantize", ("phy.unpack", "phy.dequantize"), "busy"),
    ("phy.transmit_packet", ("phy.transmit_packet",), "busy"),
    ("baseline.pixel_quantize", ("baseline.pixel_quantize",), "busy"),
    ("baseline.pixel_dequantize", ("baseline.pixel_dequantize",), "busy"),
    ("cspace.decode_concept", ("cspace.decode_concept",), "busy"),
    ("cspace.semantic_loss", ("cspace.semantic_loss",), "busy"),
    ("harness.emit_csv", ("harness.emit_csv",), "busy"),
    ("harness.run_trials", ("harness.run_trials",), "self"),
    ("harness.trial", ("harness.run_trial", "harness.run_traditional_trial",
                       "funcomp.run_trial"), "self"),
    ("funcomp.semantic_rate_search", ("funcomp.semantic_rate_search",), "self"),
)

#: Divisor of each "self" metric: the trials its self time is spread over.
SELF_PER = {
    "encoder.sector_check": ("encoder.estimate_shape_ratio",),
    "harness.run_trials": ("harness.run_trial", "harness.run_traditional_trial"),
    "harness.trial": ("harness.run_trial", "harness.run_traditional_trial",
                      "funcomp.run_trial"),
    "funcomp.semantic_rate_search": ("funcomp.run_trial",),
}

DEGENERATE_KINDS = (("scene", "DegenerateSceneError"),
                    ("shape", "DegenerateShapeError"),
                    ("hue", "DegenerateHueError"))


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, as name -> (value, unit)."""
    spans = tracer.spans

    def calls(names) -> list[int]:
        return [spans[n].calls for n in names if n in spans]

    out = {}
    for prefix, names, stat in TIME_METRICS:
        total = sum(getattr(spans[n], f"{stat}_s") for n in names if n in spans)
        # a busy group is one call of each function per use; self time is
        # spread over the trials of every trial function
        n = sum(calls(SELF_PER[prefix])) if stat == "self" else max(calls(names),
                                                                    default=0)
        mean_key = "self_ms" if stat == "self" else "ms"
        out[f"{prefix}.{mean_key}"] = (1e3 * total / n if n else 0.0, "ms")
        out[f"{prefix}.calls"] = (n, "count")
        out[f"{prefix}.{stat}_s"] = (total, "s")
    raised = {k.rsplit(".", 1)[1]: v for k, v in tracer.counts.items()
              if k.startswith("encoder.encode.raised.")}
    out["encoder.encode.degenerate"] = (sum(raised.values()), "count")
    for short, cls in DEGENERATE_KINDS:
        out[f"encoder.encode.degenerate.{short}"] = (raised.pop(cls, 0), "count")
    out["encoder.encode.degenerate.other"] = (sum(raised.values()), "count")
    out["phy.transmit_packet.mbit"] = (
        tracer.counts["phy.transmit_packet.bits"] / 1e6, "Mbit")
    return out
