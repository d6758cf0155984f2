"""The traced run: every job of one pass in this process, with each public
function of every `quivercover` module wrapped from here.

Modules bind functions by name (`from .field import rref`), so a wrapper
replaces the binding in every `quivercover` namespace that holds the
original; methods listed in METHODS are replaced on their class.  A
wrapper counts calls, adds its duration minus the time of wrapped calls
made inside it (self time), and records a span for calls no deeper than
SPAN_DEPTH.  Spans of one job share its identifier; they stay in memory
until the pass ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import pkgutil
import sys
import time

from checks import CLAIMS

METHODS = (("cover", "CoverCarrier", "in_box"),)

# Deeper calls are counted and timed but get no span, which keeps a pass of
# cover-suite-wide (millions of wrapped calls) within a few MB of spans.
SPAN_DEPTH = 4

# The layer functions the benchmark reports, as <module>.<function>; see
# README.md for the end-to-end metric each should move.
REPORTED = (
    "field.rref", "field.kernel_basis", "field.solve_linear",
    "modules.hom_basis", "modules.projective_at", "modules.projective_cover",
    "modules.decompose", "modules.is_isomorphic", "modules.direct_sum",
    "homology.tau", "homology.transpose", "homology.syzygy", "homology.cosyzygy",
    "homology.ext_space",
    "cover.smash_cover", "cover.CoverCarrier.in_box",
    "covering.twisted_iso", "covering.push_down", "covering.hom_twist_sum",
    "covering.ext_twist_sum",
    "knitting.list_indecomposables",
    "tautilt.is_n_cluster_tilting", "tautilt.enumerate_support_tilting_pairs",
    "tautilt.is_support_tilting_pair",
    "precluster.compute_Z",
    "presentation.load_presentation",
)

# Counters that are not call counts; each is filled by a hook below.
COUNTERS = ("field.rref.entries", "knitting.classes")


def metric_units() -> dict:
    """Every per-layer metric name with its unit."""
    units = {}
    for name in REPORTED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in COUNTERS:
        units[name] = "count"
    for claim in CLAIMS:
        units[f"claim.{claim}.s"] = "s"
    units["trace.wall_s"] = "s"
    return units


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds]
        self.counters = {name: 0 for name in COUNTERS}
        self.claim_s = {claim: 0.0 for claim in CLAIMS}
        self.spans: list = []  # [job, name, start, end, parent span index]
        self.job = None
        self._child_time: list[float] = []
        self._span_ids: list[int] = []
        self._hooks = {
            "field.rref": self._count_entries,
            "knitting.list_indecomposables": self._count_classes,
            "cli.run_claim": self._time_claim,
        }

    def _count_entries(self, args, kwargs, result, duration):
        self.counters["field.rref.entries"] += args[0].rows * args[0].cols

    def _count_classes(self, args, kwargs, result, duration):
        self.counters["knitting.classes"] += len(result)

    def _time_claim(self, args, kwargs, result, duration):
        self.claim_s[args[1]] += duration

    def wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0])
        hook = self._hooks.get(name)
        child_time, span_ids, spans = self._child_time, self._span_ids, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            depth = len(child_time)
            sid = None
            if depth < SPAN_DEPTH:
                sid = len(spans)
                spans.append([self.job, name, None, None, span_ids[-1] if span_ids else None])
                span_ids.append(sid)
            child_time.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - t0
                stat[0] += 1
                stat[1] += duration - child_time.pop()
                if child_time:
                    child_time[-1] += duration
                if sid is not None:
                    spans[sid][2:4] = [t0, t0 + duration]
                    span_ids.pop()
            if hook is not None:
                hook(args, kwargs, result, duration)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap the package's public functions wherever they are bound."""
        mods = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        wrappers = {}
        for mod in mods:
            short = mod.__name__.rpartition(".")[2]
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    wrappers[id(obj)] = self.wrap(f"{short}.{name}", obj)
        for mod in mods:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    setattr(mod, name, wrappers[id(obj)])
        for short, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"{package.__name__}.{short}"), cls_name)
            setattr(cls, meth, self.wrap(f"{short}.{cls_name}.{meth}", getattr(cls, meth)))

    def metrics(self, wall_s: float) -> dict:
        units = metric_units()
        values = {}
        for name in REPORTED:
            calls, self_s = self.stats.get(name, (0, 0.0))
            values[f"{name}.calls"] = calls
            values[f"{name}.self_s"] = self_s
        values.update(self.counters)
        for claim, seconds in self.claim_s.items():
            values[f"claim.{claim}.s"] = seconds
        values["trace.wall_s"] = wall_s
        return {name: {"value": values[name], "unit": units[name]} for name in units}


def run_in_process(job_list, cli_main, tracer: Tracer | None = None):
    """Run each job through `cli_main(argv)` in this process.

    Returns (wall seconds, [(job, exit code, stdout text), ...]).
    """
    outcomes = []
    t0 = time.perf_counter()
    for job in job_list:
        if tracer is not None:
            tracer.job = job["id"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(job["argv"])
        outcomes.append((job, code, out.getvalue()))
    return time.perf_counter() - t0, outcomes


def import_package(src_dir: str):
    """The `quivercover` package under src_dir, with its CLI imported."""
    sys.path.insert(0, src_dir)
    importlib.import_module("quivercover.cli")
    return sys.modules["quivercover"]
