"""Span tracing for the traced benchmark run, and the per-layer metrics.

``Tracer.install`` replaces module attributes of the package with timing
wrappers, inside the benchmark process only; the package's source is not
touched.  Because the package's modules call one another through module
globals (``analytic.tail_ci`` calls ``invert_tail``, ``cli.cmd_tail`` calls
``empirical_tail_cin``), replacing the attribute puts every such call under
a span.  Each span records name, start, end and parent; spans stay in memory
and are written out once the run ends.  A span's self time is its duration
minus the time its child spans cover.

Counts that the wrappers take from arguments and results (omega points,
blocks, r_max) are exact and repeat run to run.  ``series_share`` and
``stations_per_row`` are computed from those counts, not read from inside
the package.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time

import numpy as np

import scsnet.analytic as analytic
import scsnet.cli as cli
import scsnet.montecarlo as montecarlo

SERIES_SWITCH = 30.0  # kummer_1f1_neg_a's default series/asymptotic switch
PILOT_STREAM_BASE = 1 << 48  # montecarlo draws pilot blocks from streams above this


class NullTracer:
    """Tracing off: spans cost one no-op context manager."""

    @staticmethod
    def span(name):
        return contextlib.nullcontext()


def _count_omega(info, omega):
    w = np.abs(np.asarray(omega, dtype=float))
    info["points"] = info.get("points", 0) + int(w.size)
    info["series"] = info.get("series", 0) + int(np.count_nonzero(w <= SERIES_SWITCH))


class Tracer:
    """Records spans in memory; ``overhead_s`` is its own bookkeeping time."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, info dict]
        self._stack = []
        self._restore = []
        self.overhead_s = 0.0

    @contextlib.contextmanager
    def span(self, name):
        rec = self._open(name)
        try:
            yield rec[4]
        finally:
            self._close(rec)

    def _open(self, name):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, {}]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, module, attr, name, before=None, after=None):
        """Replace module.attr by a wrapper that records a span per call.

        ``before(info, args, kwargs)`` may return replacement args;
        ``after(info, args, result)`` sees the result.  Their time counts as
        tracing overhead, not as the span's time.
        """
        fn = getattr(module, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_in = time.perf_counter()
            rec = tracer._open(name)
            if before is not None:
                args = before(rec[4], args, kwargs) or args
            rec[1] = t_out = time.perf_counter()
            tracer.overhead_s += t_out - t_in
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                tracer._close(rec)
                rec[4]["failed"] = type(e).__name__
                raise
            tracer._close(rec)
            if after is not None:
                t_in = time.perf_counter()
                after(rec[4], args, result)
                tracer.overhead_s += time.perf_counter() - t_in
            return result

        setattr(module, attr, wrapper)
        self._restore.append((module, attr, fn))

    def _counting_charfn(self, charfn, info):
        def counted(w):
            t_in = time.perf_counter()
            info["charfn_points"] = info.get("charfn_points", 0) + int(np.size(w))
            self.overhead_s += time.perf_counter() - t_in
            return charfn(w)
        return counted

    def install(self):
        def omega_arg(pos):
            def before(info, args, kwargs):
                _count_omega(info, args[pos] if len(args) > pos else kwargs["omega"])
            return before

        def invert_before(info, args, kwargs):
            return (self._counting_charfn(args[0], info),) + tuple(args[1:])

        def record_spec(info, args, kwargs):
            info["spec"] = args[0]

        def record_stream(info, args, kwargs):
            info["stream"] = int(args[1])

        def record_r_max(info, args, result):
            info["r_max"] = float(result)

        def record_tail(info, args, result):
            info["n"], info["rejected"] = result.n, result.n_rejected

        self.wrap(analytic, "kummer_1f1_neg_a", "numerics.kummer_1f1_neg_a",
                  before=omega_arg(1))
        self.wrap(analytic, "invert_tail", "numerics.invert_tail",
                  before=invert_before)
        self.wrap(analytic, "g_integral", "numerics.g_integral")
        self.wrap(analytic, "charfn_inv_ci", "analytic.charfn_inv_ci",
                  before=omega_arg(1))
        self.wrap(analytic, "charfn_inv_cin", "analytic.charfn_inv_cin",
                  before=omega_arg(1))
        for fn in ("tail_ci", "tail_ci2", "tail_ci_closed", "tail_cin", "lookup"):
            self.wrap(analytic, fn, f"analytic.{fn}")
        self.wrap(analytic, "canonicalize", "network.canonicalize")
        self.wrap(cli, "canonicalize", "network.canonicalize")
        self.wrap(cli, "load_spec", "network.load_spec")
        self.wrap(cli, "build_lookup_table", "analytic.build_lookup_table")
        self.wrap(cli, "empirical_tail_cin", "montecarlo.empirical_tail_cin",
                  before=record_spec, after=record_tail)
        self.wrap(montecarlo, "default_r_max", "montecarlo.default_r_max",
                  before=record_spec, after=record_r_max)
        self.wrap(montecarlo, "substream", "montecarlo.substream",
                  before=record_stream)

    def restore(self):
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def write(self, path):
        """Write the spans as JSON lines: name, start, end, parent, counts."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, info in self.spans:
                info = {k: v for k, v in info.items() if k != "spec"}
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, **info}) + "\n")

    def layer_metrics(self, extra):
        """Every per-layer metric; a layer that did not run reports 0."""
        dur = [end - start for _, start, end, _, _ in self.spans]
        child = [0.0] * len(self.spans)
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += dur[i]
        by = {}
        for i, (name, _, _, _, info) in enumerate(self.spans):
            by.setdefault(name, []).append((dur[i], dur[i] - child[i], info))

        def total(name):
            return sum(d for d, _, _ in by.get(name, ()))

        def self_s(name):
            return sum(s for _, s, _ in by.get(name, ()))

        def calls(name):
            return len(by.get(name, ()))

        def info_sum(name, key):
            return sum(i.get(key, 0) for _, _, i in by.get(name, ()))

        def ratio(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        def call_stats(name):
            d = [x for x, _, _ in by.get(name, ())]
            return (float(np.median(d)) if d else 0.0), (max(d) if d else 0.0)

        m = {}
        k = "numerics.kummer_1f1_neg_a"
        pts = info_sum(k, "points")
        m[f"{k}.points"] = pts
        m[f"{k}.series_share"] = ratio(info_sum(k, "series"), pts)
        m[f"{k}.self_s"] = self_s(k)
        m[f"{k}.us_per_point"] = ratio(total(k), pts, 1e6)

        k = "numerics.invert_tail"
        failed = [d for d, _, i in by.get(k, ()) if "failed" in i]
        m[f"{k}.calls"] = calls(k)
        m[f"{k}.charfn_points"] = info_sum(k, "charfn_points")
        m[f"{k}.self_s"] = self_s(k)
        m[f"{k}.failures"] = len(failed)
        m[f"{k}.failed_s"] = sum(failed)
        m[f"{k}.success_ratio"] = ratio(calls(k) - len(failed), calls(k))

        k = "numerics.g_integral"
        m[f"{k}.calls"] = calls(k)
        m[f"{k}.self_s"] = self_s(k)

        for k in ("analytic.charfn_inv_ci", "analytic.charfn_inv_cin"):
            m[f"{k}.points"] = info_sum(k, "points")
            m[f"{k}.self_s"] = self_s(k)
        k = "analytic.charfn_inv_cin"
        m[f"{k}.us_per_point"] = ratio(total(k), info_sum(k, "points"), 1e6)

        for k in ("analytic.tail_ci", "analytic.tail_cin"):
            p50, worst = call_stats(k)
            m[f"{k}.calls"] = calls(k)
            m[f"{k}.call_s.p50"] = p50
            m[f"{k}.call_s.max"] = worst

        m["analytic.build_lookup_table.s"] = total("analytic.build_lookup_table")
        m["analytic.lookup.us_per_call"] = ratio(total("analytic.lookup"),
                                                 calls("analytic.lookup"), 1e6)
        k = "network.canonicalize"
        m[f"{k}.calls"] = calls(k)
        m[f"{k}.us_per_call"] = ratio(total(k), calls(k), 1e6)

        m.update(self._montecarlo_metrics(by, total))
        m["cli.main.s"] = total("cli.main")
        m["cli.self_s"] = self_s("cli.main")
        m["lookups_per_s"] = extra.get("lookups_per_s", 0.0)
        m["realizations_per_s"] = extra.get("realizations_per_s", 0.0)
        m["trace.overhead_s"] = self.overhead_s
        return {name: float(v) for name, v in m.items()}

    @staticmethod
    def _montecarlo_metrics(by, total):
        r_spans = [i for _, _, i in by.get("montecarlo.default_r_max", ()) if "r_max" in i]
        streams = [i["stream"] for _, _, i in by.get("montecarlo.substream", ())]
        runs = [i for _, _, i in by.get("montecarlo.empirical_tail_cin", ()) if "n" in i]
        n = sum(i["n"] for i in runs)
        r_max = stations = 0.0
        if r_spans:  # means over the runs of the sampler
            spec = r_spans[-1]["spec"]
            l, b = spec.dim.l, spec.dim.b
            r_max = float(np.mean([i["r_max"] for i in r_spans]))
            stations = float(np.mean([spec.total_density * b * i["r_max"]**l / l
                                      for i in r_spans]))
        sample_s = total("montecarlo.empirical_tail_cin") - total("montecarlo.default_r_max")
        return {
            "montecarlo.default_r_max.s": total("montecarlo.default_r_max"),
            "montecarlo.r_max": r_max,
            "montecarlo.stations_per_row": stations,
            "montecarlo.blocks": sum(s < PILOT_STREAM_BASE for s in streams),
            "montecarlo.pilot_blocks": sum(s >= PILOT_STREAM_BASE for s in streams),
            "montecarlo.sample_s": sample_s if runs else 0.0,
            "montecarlo.us_per_realization": sample_s / n * 1e6 if n else 0.0,
            "montecarlo.ns_per_station": (sample_s / (n * stations) * 1e9
                                          if n and stations else 0.0),
            "montecarlo.acceptance_ratio": (
                n / (n + sum(i["rejected"] for i in runs)) if n else 0.0),
        }

