"""Spans around calls into bunchlidar's public functions, and per-layer metrics.

The wrappers live here, in the benchmark, not in the program: ``Tracer.install``
replaces each listed function wherever a bunchlidar module holds a reference to
it, so ``cli``'s ``from .photonsim import simulate_ranging_scenario`` is traced
too. One span per call records name, start, end, parent span and op id, plus
counts taken from the call's arguments and result. With ``track_memory`` each
span also records its tracemalloc peak above the memory traced at its start.
Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import os
import sys
import time
import tracemalloc
from contextlib import contextmanager

MB = 1e6


def _stream_events(streams) -> int:
    return sum(len(s) for s in streams)


# (module, function) -> counts taken from (args, kwargs, result)
_COUNTS = {
    ("photonsim", "simulate_ranging_scenario"):
        lambda a, k, r: {"events_out": len(r[0]) + len(r[1])},
    ("photonsim", "dead_time_filter"):
        lambda a, k, r: {"events_in": int(a[0].size), "events_out": int(r.size)},
    ("tagio", "write_tags"): lambda a, k, r: {"events": _stream_events(a[0])},
    ("tagio", "read_tags"):
        lambda a, k, r: {"events": _stream_events(r[0]), "file_bytes": os.path.getsize(a[0])},
    ("correlator", "cross_correlate"):
        lambda a, k, r: {"events_in": r.n_a + r.n_b, "pairs": int(r.counts.sum())},
    ("correlator", "normalize_g2"): None,
    ("correlator", "write_histogram_csv"): None,
    ("correlator", "read_histogram_csv"): None,
    ("estimator", "fit_g2"):
        lambda a, k, r: {"iterations": r.n_iterations, "points": r.n_points,
                         "converged": r.converged},
    ("estimator", "estimate_range"): None,
    ("estimator", "dump_json"): None,
    ("presets", "load_preset"): None,
    ("presets", "load_config_file"): None,
    ("presets", "merge_documents"): None,
    ("presets", "apply_dotted_override"): None,
    ("presets", "validate_document"): None,
    ("presets", "scenario_from_document"): None,
    ("presets", "correlation_from_document"): None,
    ("presets", "fit_from_document"): None,
    ("presets", "output_from_document"): None,
    ("cli", "main"): lambda a, k, r: {"command": (a[0] if a else k["argv"])[0], "exit": r},
}


class Tracer:
    def __init__(self, track_memory: bool):
        self.track_memory = track_memory
        self.spans: list[dict] = []
        self.op = None
        self._open: list[dict] = []
        self._t0 = time.perf_counter_ns()

    @contextmanager
    def span(self, name: str):
        """Record one span; yields a dict the caller may add counts to."""
        parent = self._open[-1] if self._open else None
        record = {"id": len(self.spans), "name": name, "op": self.op,
                  "parent": parent["id"] if parent else None, "attrs": {}}
        self.spans.append(record)
        if self.track_memory:
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent["_max"] = max(parent["_max"], peak)
            tracemalloc.reset_peak()
            record["_base"] = record["_max"] = current
        self._open.append(record)
        record["start_s"] = (time.perf_counter_ns() - self._t0) / 1e9
        try:
            yield record["attrs"]
        except BaseException as exc:
            record["attrs"]["error"] = type(exc).__name__
            raise
        finally:
            record["end_s"] = (time.perf_counter_ns() - self._t0) / 1e9
            self._open.pop()
            if self.track_memory:
                peak = max(record.pop("_max"), tracemalloc.get_traced_memory()[1])
                record["peak_alloc_mb"] = (peak - record.pop("_base")) / MB
                if parent is not None:
                    parent["_max"] = max(parent["_max"], peak)

    def _wrap(self, name: str, fn, counts):
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
                if counts is not None:
                    attrs.update(counts(args, kwargs, result))
                return result
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every listed bunchlidar function in every module that refers to it."""
        import bunchlidar.cli  # noqa: F401  (loads every module listed above)

        modules = [m for key, m in sys.modules.items()
                   if key == "bunchlidar" or key.startswith("bunchlidar.")]
        for (module, func), counts in _COUNTS.items():
            original = getattr(sys.modules[f"bunchlidar.{module}"], func)
            traced = self._wrap(f"{module}.{func}", original, counts)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, traced)


def self_seconds(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    own = {s["id"]: s["end_s"] - s["start_s"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end_s"] - s["start_s"]
    return own


def self_seconds_by_module(spans: list[dict]) -> dict[str, float]:
    by_id = spans_by_id(spans)
    out: dict[str, float] = {}
    for span_id, seconds in self_seconds(spans).items():
        module = by_id[span_id]["name"].split(".")[0]
        out[module] = out.get(module, 0.0) + seconds
    return out


def spans_by_id(spans: list[dict]) -> dict[int, dict]:
    return {s["id"]: s for s in spans}


def layer_metrics(spans: list[dict], truth: dict | None) -> dict[str, float]:
    """Per-layer metrics of one op (or of set-up) from its spans.

    ``truth`` is the simulation's truth record; with it the computed metrics
    ``photonsim.candidates`` and ``photonsim.detector_loss_frac`` are added.
    Metrics of a layer the spans never entered are left out.
    """
    def named(name):
        return [s for s in spans if s["name"] == name]

    def seconds(group):
        return sum(s["end_s"] - s["start_s"] for s in group)

    def attr_sum(group, key):
        return sum(s["attrs"].get(key, 0) for s in group)

    def peak(group):
        return max((s.get("peak_alloc_mb", 0.0) for s in group), default=0.0)

    out: dict[str, float] = {}
    sim = named("photonsim.simulate_ranging_scenario")
    if sim:
        sim_s = seconds(sim)
        events_out = attr_sum(sim, "events_out")
        out["photonsim.simulate_s"] = sim_s
        out["photonsim.dead_time_s"] = seconds(named("photonsim.dead_time_filter"))
        out["photonsim.events_out"] = events_out
        out["photonsim.events_per_s"] = events_out / sim_s
        out["photonsim.peak_alloc_mb"] = peak(sim)
        if truth is not None:
            signal_hz = truth["signal_rate_reference_hz"] + truth["signal_rate_probe_hz"]
            incident_hz = (signal_hz + truth["background_rate_reference_hz"]
                           + truth["background_rate_probe_hz"])
            candidates = truth["intensity_cap"] * signal_hz * truth["duration_s"]
            out["photonsim.candidates"] = candidates
            out["photonsim.candidates_per_s"] = candidates / sim_s
            out["photonsim.detector_loss_frac"] = (
                1.0 - events_out / (incident_hz * truth["duration_s"]))
    write = named("tagio.write_tags")
    if write:
        out["tagio.write_s"] = seconds(write)
    read = named("tagio.read_tags")
    if read:
        read_s = seconds(read)
        file_mb = attr_sum(read, "file_bytes") / MB
        out["tagio.read_s"] = read_s
        out["tagio.file_mb"] = file_mb
        out["tagio.read_mb_per_s"] = file_mb / read_s
        out["tagio.read_peak_alloc_mb"] = peak(read)
    corr = named("correlator.cross_correlate")
    if corr:
        corr_s = seconds(corr)
        out["correlator.correlate_s"] = corr_s
        out["correlator.events_in"] = attr_sum(corr, "events_in")
        out["correlator.pairs"] = attr_sum(corr, "pairs")
        out["correlator.pairs_per_s"] = out["correlator.pairs"] / corr_s
        out["correlator.peak_alloc_mb"] = peak(corr)
        out["correlator.csv_write_s"] = seconds(named("correlator.write_histogram_csv"))
        out["correlator.csv_read_s"] = seconds(named("correlator.read_histogram_csv"))
    fit = named("estimator.fit_g2")
    if fit:
        out["estimator.fit_s"] = seconds(fit)
        out["estimator.iterations"] = attr_sum(fit, "iterations")
        out["estimator.points"] = attr_sum(fit, "points")
    by_id = spans_by_id(spans)
    top_presets = [s for s in spans if s["name"].startswith("presets.")
                   and not (s["parent"] is not None
                            and by_id[s["parent"]]["name"].startswith("presets."))]
    if top_presets:
        out["presets.resolve_s"] = seconds(top_presets)
    own = self_seconds(spans)
    cli_main = named("cli.main")
    if cli_main:
        out["cli.self_s"] = sum(own[s["id"]] for s in cli_main)
    return out


# Per-layer metrics that are computed from the configuration and the truth
# record rather than measured at a span.
COMPUTED = ("photonsim.candidates", "photonsim.candidates_per_s",
            "photonsim.detector_loss_frac")
