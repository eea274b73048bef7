"""Out-of-program tracing for the nsclab benchmark.

The tracer wraps public functions and methods of the nsclab modules at run
time, in the workload process, so that the library itself carries no
tracing code.  Every wrapped call becomes a span (name, start, end, parent
span, repetition id) held in memory; counters are bumped at the same
boundaries.  Functions imported by name into another module are wrapped
where that module resolves them (for example ``studies.besov_seminorm``),
because patching the defining module would not reach the importer's copy.

Self time of a span is its duration minus the durations of its direct
child spans.  Calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import math
import os
import statistics
import time
from collections import Counter

now = functools.partial(time.clock_gettime, time.CLOCK_MONOTONIC)


class Tracer:
    def __init__(self, rep_id: int):
        self.rep_id = rep_id
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []  # indices of open spans
        self.open_names = Counter()
        self.counters = Counter()
        self._restore = []

    # -- wrapping -----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, on_call=None, on_return=None) -> None:
        """Replace owner.attr by a span-recording wrapper."""
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, self._wrapped(fn, name, on_call, on_return))
        self._restore.append(lambda: setattr(owner, attr, fn))

    def wrap_item(self, mapping: dict, key, name: str) -> None:
        """Replace mapping[key] by a span-recording wrapper."""
        fn = mapping[key]
        mapping[key] = self._wrapped(fn, name, None, None)
        self._restore.append(lambda: mapping.__setitem__(key, fn))

    def _wrapped(self, fn, name: str, on_call, on_return):
        """A call made while a span of the same name is open (a function
        re-entering itself, or one artifact writer calling another) passes
        straight through, so its work is counted once."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.open_names[name]:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            tracer.spans.append([name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1])
            tracer.stack.append(idx)
            tracer.open_names[name] += 1
            if on_call is not None:
                on_call(tracer, args)
            t0 = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = now()
                tracer.open_names[name] -= 1
                tracer.stack.pop()
                span = tracer.spans[idx]
                span[1], span[2] = t0, t1
            if on_return is not None:
                on_return(tracer, args, result)
            return result

        return wrapper

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- summaries ----------------------------------------------------------

    def summary(self) -> dict:
        """Per-name call counts, total span time and self time."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for i, (name, t0, t1, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += (t1 - t0) - child[i]
            row["durations"].append(t1 - t0)
        return out

    def dump(self) -> dict:
        """Spans as [name, start, end, parent, rep_id] rows, and counters."""
        return {
            "spans": [[n, t0, t1, p, self.rep_id] for n, t0, t1, p in self.spans],
            "counters": dict(self.counters),
        }


def _count_matrices(tracer, args):
    tracer.counters["evolve.expm.matrices"] += math.prod(getattr(args[0], "shape", ())[:-2])


def _count_fft(tracer, args):
    tracer.counters["evolve.fft.calls"] += 1
    if tracer.open_names["evolve.source_terms"]:
        tracer.counters["evolve.fft.in_source"] += 1


def _count_snapshot_bytes(tracer, args, result):
    tracer.counters["spectral.snapshot.bytes"] += os.path.getsize(args[0])


def install(tracer: Tracer, nsclab) -> None:
    """Wrap the layer boundaries of an imported nsclab package."""
    besov, cli, diagnostics = nsclab.besov, nsclab.cli, nsclab.diagnostics
    evolve, spectral, studies = nsclab.evolve, nsclab.spectral, nsclab.studies

    tracer.wrap(evolve, "expm", "evolve.expm", on_call=_count_matrices)
    tracer.wrap(evolve.LinearPropagator, "__init__", "evolve.linear_propagator.build")
    tracer.wrap(evolve.LinearPropagator, "step", "evolve.linear_propagator.apply")
    tracer.wrap(evolve.RadialFlow, "__init__", "evolve.radial_flow.build")
    tracer.wrap(evolve.RadialFlow, "at", "evolve.radial_flow.sample")
    tracer.wrap(evolve, "imex_step", "evolve.imex_step")
    tracer.wrap(evolve, "source_terms", "evolve.source_terms")
    for attr in ("to_physical", "to_spectral"):
        tracer.wrap(evolve, attr, "evolve.fft", on_call=_count_fft)
    for module in (evolve, studies):
        tracer.wrap(module, "mode_matrices", "evolve.mode_matrices")

    for module in (studies, diagnostics):
        tracer.wrap(module, "besov_seminorm", "besov.seminorm")
    tracer.wrap(besov, "band_profile", "besov.band_profile")
    tracer.wrap(besov, "floor_log2", "besov.floor_log2")

    for module in (studies, diagnostics):
        tracer.wrap(module, "effective_unknowns", "diagnostics.effective_unknowns")

    tracer.wrap(spectral.SpectralField, "__post_init__", "spectral.field")
    tracer.wrap(spectral, "save_state", "spectral.snapshot.write", on_return=_count_snapshot_bytes)
    tracer.wrap(spectral, "load_state", "spectral.snapshot.read")

    tracer.wrap(evolve, "reduced_symbol", "model.reduced_symbol")

    tracer.wrap(studies, "error_functional", "studies.error_functional")
    tracer.wrap(studies, "sampled_linear_trajectory", "studies.trajectory")
    tracer.wrap(studies, "decay_fit", "studies.decay_fit")
    tracer.wrap(studies, "lyapunov_ode_compare", "studies.lyapunov_ode_compare")

    for study in list(cli._RUNNERS):
        tracer.wrap_item(cli._RUNNERS, study, "cli.study")
    for attr in ("write_csv", "write_dat", "write_json", "write_manifest"):
        tracer.wrap(cli, attr, "cli.artifacts")


def per_layer(summary: dict, counters: dict) -> dict:
    """The benchmark's per-layer metrics of one traced repetition."""

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def total(name):
        return summary.get(name, {}).get("total_s", 0.0)

    def self_s(name):
        return summary.get(name, {}).get("self_s", 0.0)

    steps = summary.get("evolve.imex_step", {}).get("durations", [])
    sources = calls("evolve.source_terms")
    return {
        "evolve.expm.calls": calls("evolve.expm"),
        "evolve.expm.matrices": counters.get("evolve.expm.matrices", 0),
        "evolve.expm.self_s": self_s("evolve.expm"),
        "evolve.linear_propagator.builds": calls("evolve.linear_propagator.build"),
        "evolve.linear_propagator.build_s": total("evolve.linear_propagator.build"),
        "evolve.linear_propagator.applies": calls("evolve.linear_propagator.apply"),
        "evolve.linear_propagator.apply_s": total("evolve.linear_propagator.apply"),
        "evolve.radial_flow.samples": calls("evolve.radial_flow.sample"),
        "evolve.radial_flow.sample_s": total("evolve.radial_flow.sample"),
        "evolve.radial_flow.build_s": total("evolve.radial_flow.build"),
        "evolve.imex_step.calls": len(steps),
        "evolve.imex_step.first_s": steps[0] if steps else 0.0,
        "evolve.imex_step.steady_s": statistics.median(steps[1:]) if len(steps) > 1 else 0.0,
        "evolve.source_terms.calls": sources,
        "evolve.source_terms.self_s": self_s("evolve.source_terms"),
        "evolve.fft.calls": counters.get("evolve.fft.calls", 0),
        "evolve.fft.per_source": counters.get("evolve.fft.in_source", 0) / sources if sources else 0.0,
        "evolve.mode_matrices.calls": calls("evolve.mode_matrices"),
        "besov.seminorm.calls": calls("besov.seminorm"),
        "besov.seminorm.self_s": self_s("besov.seminorm"),
        "besov.band_profile.s": total("besov.band_profile"),
        "besov.floor_log2.calls": calls("besov.floor_log2"),
        "diagnostics.effective_unknowns.calls": calls("diagnostics.effective_unknowns"),
        "diagnostics.effective_unknowns.s": total("diagnostics.effective_unknowns"),
        "spectral.field.constructions": calls("spectral.field"),
        "spectral.field.check_s": total("spectral.field"),
        "spectral.snapshot.writes": calls("spectral.snapshot.write"),
        "spectral.snapshot.write_s": total("spectral.snapshot.write"),
        "spectral.snapshot.bytes": counters.get("spectral.snapshot.bytes", 0),
        "spectral.snapshot.reads": calls("spectral.snapshot.read"),
        "spectral.snapshot.read_s": total("spectral.snapshot.read"),
        "model.reduced_symbol.calls": calls("model.reduced_symbol"),
        "model.reduced_symbol.s": total("model.reduced_symbol"),
        "studies.error_functional.calls": calls("studies.error_functional"),
        "studies.error_functional.self_s": self_s("studies.error_functional"),
        "studies.trajectory.s": total("studies.trajectory"),
        "studies.decay_fit.s": total("studies.decay_fit"),
        "studies.lyapunov_ode_compare.s": total("studies.lyapunov_ode_compare"),
        "cli.study.s": total("cli.study"),
        "cli.artifacts.s": total("cli.artifacts"),
        "cli.artifact_bytes": counters.get("cli.artifact_bytes", 0),
    }
