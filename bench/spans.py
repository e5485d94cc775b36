"""Span tracing for the benchmark's traced run.

The tracer replaces every listed npcc function, at every ``npcc.*``
module attribute and class attribute that binds it, with a wrapper
that records a span: name, start, end, parent span and operation id.
Self time is a span's duration minus the time covered by its child
spans; it is accumulated per span name while the run goes, and the
raw spans are kept in memory until the run writes them out.
``restore()`` puts every original object back.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time

# Span name -> (module, attribute path).  The names are the layer
# metrics' prefixes declared in BENCHMARK.json.
TARGETS = {
    "polygon.parse": ("npcc.polygon", "parse"),
    "polygon.NewtonPolygon.lies_on_or_above": (
        "npcc.polygon",
        "NewtonPolygon.lies_on_or_above",
    ),
    "monodromy.signature": ("npcc.monodromy", "signature"),
    "monodromy.genus": ("npcc.monodromy", "genus"),
    "orbits.decompose": ("npcc.orbits", "decompose"),
    "muord.mu_ordinary": ("npcc.muord", "mu_ordinary"),
    "strata.enumerate_orbit_component": ("npcc.strata", "enumerate_orbit_component"),
    "strata.KottwitzSet": ("npcc.strata", "KottwitzSet.__init__"),
    "strata.totals": ("npcc.strata", "KottwitzSet.totals"),
    "strata.codim_of_polygon": ("npcc.strata", "KottwitzSet.codim_of_polygon"),
    "strata.elements_with_total": ("npcc.strata", "KottwitzSet.elements_with_total"),
    "strata.length": ("npcc.strata", "KottwitzSet.length"),
    "strata.omega_count": ("npcc.strata", "omega_count"),
    "clutch.clutch_report": ("npcc.clutch", "clutch_report"),
    "clutch.check_balanced": ("npcc.clutch", "check_balanced"),
    "clutch.check_compatible": ("npcc.clutch", "check_compatible"),
    "clutch.epsilon_orbits": ("npcc.clutch", "epsilon_orbits"),
    "generators.base_case": ("npcc.generators", "base_case"),
    "generators.payload_base": ("npcc.generators", "payload_base"),
    "generators.pad_and_clutch": ("npcc.generators", "pad_and_clutch"),
    "generators.self_clutch": ("npcc.generators", "self_clutch"),
    "generators.extend_ord": ("npcc.generators", "extend_ord"),
    "generators.double_induction": ("npcc.generators", "double_induction"),
    "generators.replay": ("npcc.generators", "replay"),
    "generators.verify_family": ("npcc.generators", "verify_family"),
    "catalog.moonen_families": ("npcc.catalog", "moonen_families"),
    "cli.main": ("npcc.cli", "main"),
}

LAYERS = ("polygon", "monodromy", "orbits", "muord", "strata", "clutch",
          "generators", "catalog", "cli")

# Work counts taken from a traced call: span name -> (counter, size of
# the call given its arguments and result).
CALL_COUNTS = {
    "strata.enumerate_orbit_component": ("strata.candidates", lambda args, out: len(out)),
    "strata.KottwitzSet": ("strata.kottwitz.elements", lambda args, out: len(args[0])),
    "strata.totals": ("strata.kottwitz.distinct_totals", lambda args, out: len(out)),
}
# Counters the workloads' checks add from the outputs they inspect.
OUTPUT_COUNTS = ("generators.steps", "generators.certificate_bytes")
COUNTERS = tuple(counter for counter, _ in CALL_COUNTS.values()) + OUTPUT_COUNTS


def layer_metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in a fixed order."""
    names = [f"{span}.{kind}" for span in TARGETS for kind in ("calls", "self_s")]
    names += COUNTERS
    names += [f"{layer}.raised" for layer in LAYERS]
    names.append("trace_overhead_frac")
    return names


def _resolve(owner, path: str):
    """Return (object holding the last name, last name, current value)."""
    *head, last = path.split(".")
    for part in head:
        owner = getattr(owner, part)
    return owner, last, owner.__dict__[last] if isinstance(owner, type) else getattr(owner, last)


class Tracer:
    """Records spans of the listed npcc functions while installed."""

    def __init__(self, domain_error: type):
        self.domain_error = domain_error
        self.spans: list[tuple] = []  # (name, start, end, parent index, op id)
        self.calls: dict[str, int] = dict.fromkeys(TARGETS, 0)
        self.self_s: dict[str, float] = dict.fromkeys(TARGETS, 0.0)
        self.counts: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.raised: dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.op_id = -1
        self._stack: list[list] = []  # [span index, start, child seconds]
        self._saved: list[tuple] = []  # (owner, name, original)

    def count(self, name: str, value: int) -> None:
        self.counts[name] += value

    def _wrap(self, name: str, func):
        tracer = self
        clock = time.perf_counter
        layer = name.split(".", 1)[0]
        call_count = CALL_COUNTS.get(name)

        @functools.wraps(func)
        def span(*args, **kwargs):
            stack = tracer._stack
            index = len(tracer.spans)
            parent = stack[-1][0] if stack else -1
            tracer.spans.append(None)
            frame = [index, clock(), 0.0]
            stack.append(frame)
            try:
                result = func(*args, **kwargs)
            except tracer.domain_error:
                tracer.raised[layer] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[2]
                tracer.spans[index] = (name, frame[1], end, parent, tracer.op_id)
            if call_count is not None:
                tracer.count(call_count[0], call_count[1](args, result))
            return result

        return span

    def install(self) -> None:
        """Wrap every binding of every target in the loaded npcc modules."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        originals = {}
        for name, (module, path) in TARGETS.items():
            owner, attr, value = _resolve(sys.modules[module], path)
            originals[id(value)] = (name, value)
            if isinstance(owner, type):
                self._saved.append((owner, attr, value))
                setattr(owner, attr, self._wrap(name, value))
        wrappers = {}
        for mod_name, module in sorted(sys.modules.items()):
            if module is None or not (mod_name == "npcc" or mod_name.startswith("npcc.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is None or hit[1] is not value:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(*hit)
                self._saved.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])

    def restore(self) -> bool:
        """Put back every original object replaced by install().

        Returns whether each replaced attribute holds its original again.
        """
        saved, self._saved = self._saved, []
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
        return all(self.is_bound(*binding) for binding in saved)

    def bindings(self) -> list[tuple]:
        """The (owner, attribute, original) triples install() replaced."""
        return list(self._saved)

    @staticmethod
    def is_bound(owner, attr: str, value) -> bool:
        """Does owner.attr hold exactly `value`?"""
        held = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr)
        return held is value

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in TARGETS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out.update(self.counts)
        for layer in LAYERS:
            out[f"{layer}.raised"] = self.raised[layer]
        return out

    def write_spans(self, path) -> None:
        """Write the recorded spans as gzipped tab-separated lines."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("index\tname\tstart\tend\tparent\top\n")
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                handle.write(f"{index}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")
