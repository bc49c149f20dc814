"""Outside-in span tracer: times calls into quasidiff's public functions.

The tracer replaces each target function by a timing wrapper at every place
the function object is bound -- its own module, every quasidiff module that
imported it by name, and the package namespace -- so that calls made from
inside the library (a scenario calling ``amplitude_spectrum``,
``singularity_diagnostic`` calling ``periodogram`` calling
``amplitude_spectrum``) are seen as well as the benchmark's own calls.

Each call becomes one span ``(name, start, end, parent, counts)``.  Counts
are derived from the call's arguments and result after the clock stops, so
they repeat exactly and are not part of the span's time.  Spans stay in
memory until :meth:`Tracer.write` is called.  Nothing is patched until
:meth:`Tracer.install`; untraced runs never create a tracer.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

import numpy as np

from names import SCENARIO_NAMES


def _spectrum_counts(a) -> dict:
    inside = np.square(a["x"].points).sum(axis=1) <= a["radius"] ** 2
    return {"phase_terms": int(inside.sum()) * a["grid"].node_count}


def _autocorrelation_counts(a) -> dict:
    mu = a["result"]
    pairs = float(np.real(mu.weights).sum()) * float(a["radius"]) ** mu.dim
    return {"pairs": int(round(pairs)), "atoms": len(mu)}


# module -> {function: counter(bound arguments incl. "result") -> counts}
TARGETS = {
    "quasidiff.spectral": {
        "amplitude_spectrum": _spectrum_counts,
        "analyze_peaks": lambda a: {"peaks_found": len(a["result"].peaks)},
        "singularity_diagnostic": None,
    },
    "quasidiff.metrics": {
        "rho_stat": None,
        "ratio_sup": None,
        "rho_gh": None,
        "hausdorff_distance": None,
    },
    "quasidiff.measures": {
        "autocorrelation": _autocorrelation_counts,
        "vague_gap": None,
    },
    "quasidiff.perturb": {
        "perturb": lambda a: {"points_displaced": len(a["x"].points)},
        "displacement_margin": None,
        "recovery_trial": None,
        "boundary_crossings": None,
        "char_fn_mc": None,
    },
    "quasidiff.pointset": {
        **{
            name: (lambda a: {"points_generated": len(a["result"].points)})
            for name in (
                "gen_lattice",
                "gen_fibonacci",
                "gen_visible",
                "gen_poisson",
                "gen_cut_project",
            )
        },
        "remove_near": None,
        "splice": None,
        "sparse_union": None,
        "window": None,
    },
    "quasidiff.scenarios": {
        "run_scenario": lambda a: {"scenario": a["cfg"].scenario},
    },
    "quasidiff.io": {
        "atomic_write_text": lambda a: {"bytes_written": len(a["text"].encode("utf-8"))},
    },
    "quasidiff.svg": {
        "plot_emit": None,
    },
}


class Tracer:
    """Collects spans from wrapped quasidiff functions."""

    def __init__(self):
        # span: [name, start, end, parent index or -1, counts dict]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, counter):
        sig = inspect.signature(fn) if counter else None
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span[4] = counter({**bound.arguments, "result": result})
            return result

        return traced

    def install(self) -> None:
        """Patch every binding of every target; missing targets are skipped."""
        # ``quasidiff.perturb`` is the function once the package is imported,
        # so submodules are looked up in sys.modules, never by attribute.
        library = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == "quasidiff" or key.startswith("quasidiff."))
        ]
        for module_name, functions in TARGETS.items():
            module = sys.modules.get(module_name)
            if module is None:
                continue
            short = module_name.rsplit(".", 1)[1]
            for fname, counter in functions.items():
                original = getattr(module, fname, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{short}.{fname}", original, counter)
                for mod in library:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle, separators=(",", ":"))


# ---------------------------------------------------------------------------
# per-layer metrics from spans

_GEN = tuple(
    f"pointset.{name}" for name in TARGETS["quasidiff.pointset"] if name.startswith("gen_")
)
_SURGERY = ("pointset.remove_near", "pointset.splice", "pointset.sparse_union", "pointset.window")

# name -> unit, for every per-layer metric the traced run reports
LAYER_UNITS = {
    "spectral.amplitude_spectrum.s": "s",
    "spectral.amplitude_spectrum.calls": "count",
    "spectral.phase_terms": "count",
    "spectral.phase_terms_per_s": "1/s",
    "spectral.analyze_peaks.s": "s",
    "spectral.analyze_peaks.calls": "count",
    "spectral.peaks_found": "count",
    "spectral.singularity_diagnostic.self_s": "s",
    "metrics.rho_stat.s": "s",
    "metrics.rho_stat.calls": "count",
    "metrics.ratio_sup.s": "s",
    "metrics.ratio_sup.calls": "count",
    "metrics.s_per_probe": "s",
    "metrics.rho_gh.self_s": "s",
    "metrics.hausdorff_distance.calls": "count",
    "measures.autocorrelation.s": "s",
    "measures.autocorrelation.calls": "count",
    "measures.pairs": "count",
    "measures.atoms": "count",
    "measures.vague_gap.s": "s",
    "perturb.perturb.s": "s",
    "perturb.perturb.calls": "count",
    "perturb.points_displaced": "count",
    "perturb.displacement_margin.s": "s",
    "perturb.displacement_margin.calls": "count",
    "perturb.recovery_trial.self_s": "s",
    "perturb.boundary_crossings.self_s": "s",
    "perturb.char_fn_mc.s": "s",
    "pointset.gen.s": "s",
    "pointset.gen_cut_project.s": "s",
    "pointset.points_generated": "count",
    "pointset.surgery.s": "s",
    **{f"scenarios.{name}.s": "s" for name in SCENARIO_NAMES},
    "io.atomic_write_text.s": "s",
    "io.bytes_written": "count",
    "svg.plot_emit.s": "s",
    "trace_overhead_frac": "ratio",
}


def _outermost(spans, names) -> list[int]:
    """Indices of spans in ``names`` with no ancestor in ``names``."""
    names = set(names)
    out = []
    for i, span in enumerate(spans):
        if span[0] not in names:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            out.append(i)
    return out


def _busy(spans, names) -> float:
    """Outermost busy seconds of the named functions."""
    return sum(spans[i][2] - spans[i][1] for i in _outermost(spans, names))


def _self(spans, names) -> float:
    """Busy seconds minus the time of traced calls made directly inside."""
    top = set(_outermost(spans, names))
    total = sum(spans[i][2] - spans[i][1] for i in top)
    for span in spans:
        if span[3] in top:
            total -= span[2] - span[1]
    return total


def _calls(spans, name) -> int:
    return sum(1 for span in spans if span[0] == name)


def _count(spans, key) -> int:
    return sum(span[4][key] for span in spans if span[4] and key in span[4])


def layer_metrics(spans) -> dict:
    """Every per-layer metric except ``trace_overhead_frac``."""
    m = {}
    spec_s = _busy(spans, ["spectral.amplitude_spectrum"])
    m["spectral.amplitude_spectrum.s"] = spec_s
    m["spectral.amplitude_spectrum.calls"] = _calls(spans, "spectral.amplitude_spectrum")
    m["spectral.phase_terms"] = _count(spans, "phase_terms")
    m["spectral.phase_terms_per_s"] = m["spectral.phase_terms"] / spec_s if spec_s else 0.0
    m["spectral.analyze_peaks.s"] = _busy(spans, ["spectral.analyze_peaks"])
    m["spectral.analyze_peaks.calls"] = _calls(spans, "spectral.analyze_peaks")
    m["spectral.peaks_found"] = _count(spans, "peaks_found")
    m["spectral.singularity_diagnostic.self_s"] = _self(spans, ["spectral.singularity_diagnostic"])

    m["metrics.rho_stat.s"] = _busy(spans, ["metrics.rho_stat"])
    m["metrics.rho_stat.calls"] = _calls(spans, "metrics.rho_stat")
    m["metrics.ratio_sup.s"] = _busy(spans, ["metrics.ratio_sup"])
    m["metrics.ratio_sup.calls"] = _calls(spans, "metrics.ratio_sup")
    stat_top = set(_outermost(spans, ["metrics.rho_stat"]))
    probes = sum(1 for s in spans if s[0] == "metrics.ratio_sup" and s[3] in stat_top)
    m["metrics.s_per_probe"] = m["metrics.rho_stat.s"] / probes if probes else 0.0
    m["metrics.rho_gh.self_s"] = _self(spans, ["metrics.rho_gh"])
    m["metrics.hausdorff_distance.calls"] = _calls(spans, "metrics.hausdorff_distance")

    m["measures.autocorrelation.s"] = _busy(spans, ["measures.autocorrelation"])
    m["measures.autocorrelation.calls"] = _calls(spans, "measures.autocorrelation")
    m["measures.pairs"] = _count(spans, "pairs")
    m["measures.atoms"] = _count(spans, "atoms")
    m["measures.vague_gap.s"] = _busy(spans, ["measures.vague_gap"])

    m["perturb.perturb.s"] = _busy(spans, ["perturb.perturb"])
    m["perturb.perturb.calls"] = _calls(spans, "perturb.perturb")
    m["perturb.points_displaced"] = _count(spans, "points_displaced")
    m["perturb.displacement_margin.s"] = _busy(spans, ["perturb.displacement_margin"])
    m["perturb.displacement_margin.calls"] = _calls(spans, "perturb.displacement_margin")
    m["perturb.recovery_trial.self_s"] = _self(spans, ["perturb.recovery_trial"])
    m["perturb.boundary_crossings.self_s"] = _self(spans, ["perturb.boundary_crossings"])
    m["perturb.char_fn_mc.s"] = _busy(spans, ["perturb.char_fn_mc"])

    m["pointset.gen.s"] = _busy(spans, _GEN)
    m["pointset.gen_cut_project.s"] = _busy(spans, ["pointset.gen_cut_project"])
    m["pointset.points_generated"] = _count(spans, "points_generated")
    m["pointset.surgery.s"] = _busy(spans, _SURGERY)

    for name in SCENARIO_NAMES:
        m[f"scenarios.{name}.s"] = sum(
            s[2] - s[1]
            for s in spans
            if s[0] == "scenarios.run_scenario" and (s[4] or {}).get("scenario") == name
        )

    m["io.atomic_write_text.s"] = _busy(spans, ["io.atomic_write_text"])
    m["io.bytes_written"] = _count(spans, "bytes_written")
    m["svg.plot_emit.s"] = _busy(spans, ["svg.plot_emit"])
    return m
