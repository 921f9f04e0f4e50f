"""Per-layer spans for the mereo benchmark, installed from outside ``src/``.

Each span wraps one public name of a mereo module (or the constructor of a
public class) and accumulates a call count and self time: the span's wall
time minus the time covered by spans nested inside it.  A function bound
under its own name in several module namespaces (``cli`` and ``search``
import from ``holism`` directly) is replaced in every one of them, or calls
through the other bindings would escape the span.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import types
from collections import Counter
from time import perf_counter

# (module, public name, span name).  A class entry wraps ``__init__``, so its
# count is the number of constructions.  Every ``cli.cmd_*`` gets the span
# ``cli.cmd`` besides these.
SPANS = (
    ("mereo.properties", "Property", "properties.Property"),
    ("mereo.doubleket", "AmplitudeMatrix", "doubleket.AmplitudeMatrix"),
    ("mereo.holism", "make_holistic", "holism.make_holistic"),
    ("mereo.holism", "product_commutator_norm", "holism.product_commutator_norm"),
    ("mereo.holism", "certify_rank1", "holism.certify_rank1"),
    ("mereo.holism", "lattice_amplitudes", "holism.lattice_amplitudes"),
    ("mereo.search", "objective_value_and_grad", "search.objective_value_and_grad"),
    ("mereo.search", "minimize", "search.minimize"),
    ("mereo.search", "brute_force_grid_d2", "search.brute_force_grid_d2"),
    ("mereo.search", "density_scan", "search.density_scan"),
    ("mereo.io", "load_matrix", "io.load_matrix"),
    ("mereo.io", "matrix_to_json_dict", "io.matrix_to_json_dict"),
)

# Work counters derived from the arguments of a wrapped call.
_WORK = {
    # the d^2 x d^2 complex dyad that make_holistic materializes
    "holism.make_holistic": lambda a: ("holism.dyad_bytes", 16 * (a["amp"].dims[0] * a["amp"].dims[1]) ** 2),
    "search.brute_force_grid_d2": lambda a: ("search.grid_pairs", a["resolution"] ** 4),
    "search.density_scan": lambda a: ("search.density_samples", a["samples"]),
}

# Per-layer metric -> (unit, the end-to-end metric and workload it should move).
PER_LAYER = {
    "properties.Property.count": ("count", "ops_per_s, op_tail_s on certify-scale; ops_per_s on density-scan"),
    "properties.Property.self_s": ("s", "ops_per_s, op_tail_s on certify-scale; ops_per_s on density-scan"),
    "holism.product_commutator_norm.count": ("count", "ops_per_s on certify-scale and density-scan"),
    "holism.product_commutator_norm.self_s": ("s", "ops_per_s on certify-scale and density-scan"),
    "holism.certify_rank1.count": ("count", "ops_per_s on certify-scale and density-scan"),
    "holism.certify_rank1.self_s": ("s", "ops_per_s on certify-scale and density-scan"),
    "holism.make_holistic.count": ("count", "peak_rss_mb, ops_per_s on certify-scale"),
    "holism.dyad_bytes": ("bytes", "peak_rss_mb, ops_per_s on certify-scale"),
    "doubleket.AmplitudeMatrix.count": ("count", "ops_per_s on density-scan"),
    "doubleket.AmplitudeMatrix.self_s": ("s", "ops_per_s on density-scan"),
    "search.objective_value_and_grad.count": ("count", "ops_per_s on search-crosscheck"),
    "search.objective_value_and_grad.self_s": ("s", "ops_per_s on search-crosscheck"),
    "search.minimize.count": ("count", "ops_per_s on search-crosscheck"),
    "search.minimize.self_s": ("s", "ops_per_s on search-crosscheck"),
    "search.iterations": ("count", "ops_per_s on search-crosscheck"),
    "search.brute_force_grid_d2.count": ("count", "op_tail_s on search-crosscheck"),
    "search.brute_force_grid_d2.self_s": ("s", "op_tail_s on search-crosscheck"),
    "search.grid_pairs": ("count", "op_tail_s on search-crosscheck"),
    "search.density_scan.self_s": ("s", "ops_per_s on density-scan"),
    "search.density_samples": ("count", "ops_per_s on density-scan"),
    "holism.lattice_amplitudes.self_s": ("s", "ops_per_s on lattice-report"),
    "cli.cmd.self_s": ("s", "ops_per_s on lattice-report"),
    "cli.serialize_s": ("s", "ops_per_s on lattice-report"),
    "cli.report_bytes": ("bytes", "ops_per_s on lattice-report"),
    "io.load_matrix.count": ("count", "input cost on every workload"),
    "io.load_matrix.self_s": ("s", "input cost on every workload"),
    "io.matrix_to_json_dict.count": ("count", "output cost on every workload"),
    "io.matrix_to_json_dict.self_s": ("s", "output cost on every workload"),
    "trace.overhead_s": ("s", "none: cost of these spans"),
}


class Tracer:
    """Span counts, self times and work counters of one traced pass."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.self_s: Counter = Counter()
        self.work: Counter = Counter()
        self._open: list[list[float]] = []  # child time covered, per open span
        self._undo: list[tuple[object, str, object]] = []

    def _span(self, name, fn):
        signature = inspect.signature(fn)
        work = _WORK.get(name)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if work is not None:
                key, amount = work(signature.bind(*args, **kwargs).arguments)
                self.work[key] += amount
            children = [0.0]
            self._open.append(children)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._open.pop()
                self.counts[name] += 1
                self.self_s[name] += elapsed - children[0]
                if self._open:
                    self._open[-1][0] += elapsed

        return wrapped

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        mereo_modules = [m for n, m in sys.modules.items() if n == "mereo" or n.startswith("mereo.")]
        for module, attr, name in SPANS:
            original = getattr(sys.modules[module], attr)
            if isinstance(original, type):
                self._set(original, "__init__", self._span(name, original.__init__))
                continue
            wrapped = self._span(name, original)
            for mod in mereo_modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)

        cli = sys.modules["mereo.cli"]
        for attr in [a for a in vars(cli) if a.startswith("cmd_")]:
            self._set(cli, attr, self._span("cli.cmd", getattr(cli, attr)))
        dumps = self._span("cli.serialize", json.dumps)

        def counted_dumps(report, *args, **kwargs):
            text = dumps(report, *args, **kwargs)
            # the digits of the timing values differ from run to run; the rest repeats
            timing_digits = sum(len(repr(v)) for v in report.get("timings", {}).values())
            self.work["cli.report_bytes"] += len(text.encode("utf-8")) - timing_digits
            return text

        proxy = types.ModuleType("json")
        proxy.__dict__.update(vars(json))
        proxy.dumps = counted_dumps
        self._set(cli, "json", proxy)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def exact_counts(self) -> dict:
        """Counts that must repeat exactly for the same inputs."""
        return {**{f"{k}.count": v for k, v in self.counts.items()}, **self.work}

    def metrics(self, overhead_s: float) -> dict:
        values = {f"{k}.count": v for k, v in self.counts.items()}
        values.update({f"{k}.self_s": v for k, v in self.self_s.items()})
        values["cli.serialize_s"] = self.self_s["cli.serialize"]
        values.update(self.work)
        values["trace.overhead_s"] = overhead_s
        return {name: {"value": values.get(name, 0), "unit": unit} for name, (unit, _) in PER_LAYER.items()}
