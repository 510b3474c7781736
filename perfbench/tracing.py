"""In-memory span tracing of confgen's layers, done from outside the package.

`Tracer.install()` replaces each function in `TARGETS`, in every confgen
module that refers to it, with a wrapper that records a span (name, start,
end, parent, ok) and keeps a few fields of the value the function returned.
`Tracer.uninstall()` puts the originals back, so the program itself is never
edited. `layer_metrics()` turns the spans of one traced round into the
per-layer metrics; `write()` saves the spans when the benchmark ends.

Tracing assumes one thread: spans nest through a single stack, which holds
because the benchmark runs `generate --threads 1`.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import sys
import time

import numpy as np

# Levels tried for a distribution's tail, highest first. A level is used only
# when at least ten samples lie beyond it; with fewer samples the median is
# the tail and the reported level is 50.
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10

# Adam steps that edg.refine takes to move coordinates are counted, not
# spanned: there are up to 2000 per sample, and only the training steps are
# the per-batch latency that `nnet.Adam.step.ms_per_batch` reports.
COUNT_ONLY_UNDER = {"nnet.Adam.step": "edg.refine"}


def _chain(call, result):
    steps = call.arguments["steps"] + call.arguments.get("burn_in", 0)
    return {"steps": steps, "acceptance": result.acceptance_rate,
            "step_size": result.step_size}


def _refine(call, result):
    return {"converged": bool(result[1]), "iterations": int(result[3])}


def _estimate(call, result):
    return {"ess": result.ess, "n": result.n}


def _read(call, result):
    return {"records": len(result), "bytes": os.path.getsize(call.arguments["path"])}


def _write(call, result):
    return {"bytes": os.path.getsize(call.arguments["path"])}


# (module, attribute, observer of the returned value). The list covers the
# public functions the five CLI stages reach, down to the per-step and
# per-sample calls; element-wise autodiff ops stay untraced, since a wrapper
# on each of them would cost more than the op.
TARGETS = (
    ("boltzmann", "EnergyModel.energy_of", None),
    ("boltzmann", "metropolis_sample", _chain),
    ("boltzmann", "is_estimate", _estimate),
    ("nnet", "backward", None),
    ("nnet", "Adam.step", None),
    ("cvae", "train", None),
    ("cvae", "decode", None),
    ("cvae", "load_model", None),
    ("cvae", "save_model", None),
    ("edg", "embed_conformation", None),
    ("edg", "make_bounds", None),
    ("edg", "smooth_bounds", None),
    ("edg", "metrize", None),
    ("edg", "gram_embed", None),
    ("edg", "refine", _refine),
    ("evalmmd", "protocol_report", None),
    ("evalmmd", "median_bandwidth", None),
    ("evalmmd", "mmd2_unbiased", None),
    ("evalmmd", "write_marginal_histograms", None),
    ("dataio", "read_dataset", _read),
    ("dataio", "write_dataset", _write),
    ("dataio", "make_synthetic_benchmark", None),
    ("dataio", "initial_conformation", None),
    ("dataio", "training_pairs", None),
    ("dataio", "distance_matrix_by_molecule", None),
    ("molgraph", "build_extended_graph", None),
    ("molgraph", "extract_distances", None),
)


class Tracer:
    """Spans and returned values recorded while installed."""

    def __init__(self):
        # [name, start, end, parent index, ok, observed fields or None]
        self.spans: list[list] = []
        self.counted: dict[str, int] = {}
        self._open: list[int] = []
        self._restore: list[tuple] = []

    def call(self, name: str, fn, *args, observe=None, **kwargs):
        """Run fn inside a span named `name`; failures are recorded and re-raised.

        `observe(args, kwargs, result)` picks fields of a successful call to
        keep in the span.
        """
        record = [name, 0.0, 0.0, self._open[-1] if self._open else -1, False, None]
        self._open.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            record[4] = True
        finally:
            record[2] = time.perf_counter()
            self._open.pop()
        if observe is not None:
            record[5] = observe(args, kwargs, result)
        return result

    def _wrap(self, name: str, fn, observe):
        tracer = self
        count_under = COUNT_ONLY_UNDER.get(name)
        if observe is not None:
            signature = inspect.signature(fn)
            pick = observe

            def observe(args, kwargs, result):
                return pick(signature.bind(*args, **kwargs), result)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_under and tracer._open and \
                    tracer.spans[tracer._open[-1]][0] == count_under:
                tracer.counted[name] = tracer.counted.get(name, 0) + 1
                return fn(*args, **kwargs)
            return tracer.call(name, fn, *args, observe=observe, **kwargs)

        return traced

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "confgen" or n.startswith("confgen.")]
        for module_name, attr, observe in TARGETS:
            module = sys.modules[f"confgen.{module_name}"]
            name = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._restore.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original, observe))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original, observe)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, key, original))
                        setattr(m, key, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def write(self, path, meta: dict) -> None:
        """Save every span, with times in microseconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "meta": meta,
            "names": names,
            "fields": ["name", "start_us", "end_us", "parent", "ok"],
            "spans": [[index[n], round((a - t0) * 1e6, 1), round((b - t0) * 1e6, 1),
                       p, int(ok)] for n, a, b, p, ok, _ in self.spans],
            "counted": self.counted,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


class SpanIndex:
    """Durations, self times and ancestry of a finished trace.

    Every duration is multiplied by `scale`, the machine-speed factor of the
    traced round (see speed.py).
    """

    def __init__(self, tracer: Tracer, scale: float = 1.0):
        self.spans = tracer.spans
        self.scale = scale
        self.child_time = [0.0] * len(self.spans)
        self.by_name: dict[str, list[int]] = {}
        for i, (name, start, end, parent, _, _) in enumerate(self.spans):
            if parent >= 0:
                self.child_time[parent] += end - start
            self.by_name.setdefault(name, []).append(i)

    def _under(self, i: int, ancestor: str) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == ancestor:
                return True
            parent = self.spans[parent][3]
        return False

    def select(self, name: str, under: str | None = None) -> list[int]:
        return [i for i in self.by_name.get(name, [])
                if under is None or self._under(i, under)]

    def durations(self, name: str, under: str | None = None) -> list[float]:
        return [(self.spans[i][2] - self.spans[i][1]) * self.scale
                for i in self.select(name, under)]

    def total(self, name: str, under: str | None = None) -> float:
        return float(sum(self.durations(name, under)))

    def self_time(self, name: str) -> float:
        return self.scale * float(sum(self.spans[i][2] - self.spans[i][1]
                                      - self.child_time[i] for i in self.select(name)))

    def failed(self, name: str, under: str | None = None) -> int:
        return sum(1 for i in self.select(name, under) if not self.spans[i][4])

    def observed(self, name: str, under: str | None = None) -> list[dict]:
        return [self.spans[i][5] for i in self.select(name, under)
                if self.spans[i][5] is not None]


def tail_level(n: int) -> float:
    for level in TAIL_LEVELS:
        if n * (1.0 - level / 100.0) >= TAIL_MIN_BEYOND:
            return level
    return 50.0


def _per_call(total_s: float, calls: int, unit: float) -> float:
    """Mean seconds per call, times `unit` (1e3 for ms, 1e6 for us)."""
    return total_s * unit / calls if calls else 0.0


def _distribution(out: dict, prefix: str, values_s: list[float]) -> None:
    """Median and tail in ms, plus the tail's level; the sample count is `.calls`."""
    level = tail_level(len(values_s))
    ms = np.asarray(values_s) * 1e3
    out[f"{prefix}.p50"] = float(np.percentile(ms, 50)) if ms.size else 0.0
    out[f"{prefix}.tail"] = float(np.percentile(ms, level)) if ms.size else 0.0
    out[f"{prefix}.tail_pct"] = level


def layer_metrics(tracer: Tracer, scale: float = 1.0) -> dict:
    """Per-layer metrics of one traced round, with times multiplied by `scale`."""
    ix = SpanIndex(tracer, scale)
    out: dict = {}

    chains = ix.observed("boltzmann.metropolis_sample")
    steps = sum(c["steps"] for c in chains)
    out["boltzmann.metropolis_sample.calls"] = len(chains)
    out["boltzmann.metropolis_sample.steps"] = steps
    out["boltzmann.metropolis_sample.us_per_step"] = _per_call(
        ix.total("boltzmann.metropolis_sample"), steps, 1e6)
    # step-weighted over chains, so the base is `.steps`
    out["boltzmann.metropolis_sample.acceptance"] = (
        sum(c["acceptance"] * c["steps"] for c in chains) / steps if steps else 0.0)
    out["boltzmann.metropolis_sample.step_size"] = (
        statistics.fmean(c["step_size"] for c in chains) if chains else 0.0)
    energy = ix.durations("boltzmann.EnergyModel.energy_of")
    out["boltzmann.energy_of.calls"] = len(energy)
    out["boltzmann.energy_of.us_per_call"] = _per_call(sum(energy), len(energy), 1e6)
    estimates = ix.observed("boltzmann.is_estimate")
    out["boltzmann.is_estimate.calls"] = len(estimates)
    out["boltzmann.is_estimate.ms_per_molecule"] = _per_call(
        ix.total("boltzmann.is_estimate"), len(estimates), 1e3)
    out["boltzmann.is_estimate.ess_min"] = min((e["ess"] for e in estimates), default=0.0)

    for name in ("nnet.backward", "nnet.Adam.step"):
        durations = ix.durations(name)
        out[f"{name}.calls"] = len(durations)
        _distribution(out, f"{name}.ms_per_batch", durations)
    out["nnet.Adam.step.refine_calls"] = tracer.counted.get("nnet.Adam.step", 0)

    out["cvae.train.self_s"] = ix.self_time("cvae.train")
    decode = ix.durations("cvae.decode")
    out["cvae.decode.calls"] = len(decode)
    _distribution(out, "cvae.decode.ms", decode)
    out["cvae.load_model.s"] = ix.total("cvae.load_model")
    out["cvae.save_model.s"] = ix.total("cvae.save_model")

    # Geometry metrics cover the generate path only; make-data's own use of
    # smoothing and refine shows in dataio.initial_conformation.s.
    embed = "edg.embed_conformation"
    embeds = ix.durations(embed)
    out[f"{embed}.calls"] = len(embeds)
    _distribution(out, f"{embed}.ms", embeds)
    refines = ix.observed("edg.refine", embed)
    iterations = [r["iterations"] for r in refines]
    out["edg.refine.calls"] = len(refines)
    out["edg.refine.ms_per_call"] = _per_call(ix.total("edg.refine", embed),
                                              len(refines), 1e3)
    out["edg.refine.iterations.mean"] = statistics.fmean(iterations) if iterations else 0.0
    level = tail_level(len(iterations))
    out["edg.refine.iterations.tail"] = (
        float(np.percentile(iterations, level)) if iterations else 0.0)
    out["edg.refine.iterations.tail_pct"] = level
    out["edg.refine.converged_ratio"] = (
        sum(r["converged"] for r in refines) / len(refines) if refines else 0.0)
    smooth_calls = len(ix.select("edg.smooth_bounds", embed))
    out["edg.smooth_bounds.calls"] = smooth_calls
    out["edg.smooth_bounds.ms_per_call"] = _per_call(
        ix.total("edg.smooth_bounds", embed), smooth_calls, 1e3)
    out["edg.smooth_bounds.reject_ratio"] = (
        ix.failed("edg.smooth_bounds", embed) / smooth_calls if smooth_calls else 0.0)
    for name in ("edg.gram_embed", "edg.make_bounds", "edg.metrize"):
        durations = ix.durations(name, embed)
        out[f"{name}.ms_per_call"] = _per_call(sum(durations), len(durations), 1e3)

    out["evalmmd.protocol_report.s"] = ix.total("evalmmd.protocol_report")
    out["evalmmd.comparisons"] = len(ix.select("evalmmd.mmd2_unbiased",
                                               "evalmmd.protocol_report"))
    for name in ("evalmmd.median_bandwidth", "evalmmd.mmd2_unbiased"):
        durations = ix.durations(name)
        out[f"{name}.us_per_call"] = _per_call(sum(durations), len(durations), 1e6)
    out["evalmmd.write_marginal_histograms.s"] = ix.total(
        "evalmmd.write_marginal_histograms")

    reads = ix.observed("dataio.read_dataset")
    out["dataio.read_dataset.s"] = ix.total("dataio.read_dataset")
    out["dataio.read_dataset.records"] = sum(r["records"] for r in reads)
    out["dataio.read_dataset.bytes"] = sum(r["bytes"] for r in reads)
    out["dataio.write_dataset.s"] = ix.total("dataio.write_dataset")
    out["dataio.write_dataset.bytes"] = sum(
        w["bytes"] for w in ix.observed("dataio.write_dataset"))
    out["dataio.initial_conformation.calls"] = len(ix.select("dataio.initial_conformation"))
    for name in ("dataio.initial_conformation", "dataio.training_pairs",
                 "dataio.distance_matrix_by_molecule"):
        out[f"{name}.s"] = ix.total(name)

    graphs = ix.durations("molgraph.build_extended_graph")
    out["molgraph.build_extended_graph.calls"] = len(graphs)
    out["molgraph.build_extended_graph.ms"] = sum(graphs) * 1e3
    distances = ix.durations("molgraph.extract_distances")
    out["molgraph.extract_distances.calls"] = len(distances)
    out["molgraph.extract_distances.us_per_call"] = _per_call(
        sum(distances), len(distances), 1e6)

    for stage in ("make-data", "train", "generate", "evaluate", "estimate"):
        out[f"cli.{stage.replace('-', '_')}.self_s"] = ix.self_time(f"cli.{stage}")
    out["trace.spans"] = len(tracer.spans)
    return out
