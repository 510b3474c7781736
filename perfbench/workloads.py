"""The benchmark's workloads: set-up, measured stages, output checks, and why.

Every stage runs in-process through `confgen.cli.main(argv)`, reading and
writing files in one work directory. A failed check raises `CheckFailed`.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import time
from pathlib import Path
from typing import NamedTuple

import chainspec
import speed
from confgen import cli

# Training always uses this fixed seed. The sample workloads draw from one
# toy10 model: short-trained models from different seeds made generate cost
# anywhere from 3.4 to 10.9 ms per sample on a 2-vCPU Intel Xeon VM, a spread
# no bound could absorb. In toy10-fit the training seed picks the validation
# molecule, and with it 86 to 94 of the 100 atoms trained on per epoch. The
# workload seed still drives the Metropolis data, the latents, the
# metrization draws and the chain graphs.
MODEL_SEED = 1729
MODEL_SPEC = {"count": 20, "burn_in": 2000}  # 200 records
MODEL_EPOCHS = 2
FIT_SPEC = {"count": 30, "burn_in": 2000}  # 300 records, 26,000 steps
FIT_EPOCHS = 3
TOY_SAMPLES = 30  # per molecule: 300 samples per round
CHAIN_MOLECULES = 6  # 20, 24, 28, 31, 35 and 39 atoms
# 3,000 steps per molecule, so that Metropolis outweighs the initial
# conformations, whose refine cost varies 2.4x with the graph. Moving 20-39
# atoms at once needs a smaller first step than toy10's 0.07 for burn-in
# tuning to reach a usable acceptance rate.
CHAIN_DEFAULTS = {"count": 20, "burn_in": 1000, "thin": 100, "step": 0.01, "tune": True}
CHAIN_SAMPLES = 2  # per molecule


class CheckFailed(Exception):
    """A stage exited non-zero or wrote output that breaks an invariant."""


class StageRun(NamedTuple):
    stage: str
    seconds: float  # scaled to the reference machine speed, see speed.py
    raw_seconds: float
    work: int  # the stage's unit of work: steps, record-epochs, samples, ...


def _records(path) -> int:
    """Records in a dataset file: its non-blank lines after the header."""
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip()) - 1


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


class Pipeline:
    """Runs CLI stages in one work directory and logs a StageRun for each."""

    def __init__(self, root: Path, workdir: Path, seed: int):
        self.root = root
        self.dir = workdir
        self.seed = seed
        self.tracer = None
        self.log: list[StageRun] = []
        self.calibration = speed.Calibration()

    def file(self, name: str) -> str:
        return str(self.dir / name)

    def _timed(self, fn, *args) -> tuple:
        """Run fn(*args); returns (result, scaled seconds, raw seconds)."""
        before = self.calibration.current()
        start = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - start
        after = self.calibration.current()
        return result, speed.scaled(elapsed, before, after), elapsed

    def _stage(self, *argv: str) -> tuple[float, float]:
        """Run one CLI stage; returns its (scaled, raw) seconds."""
        stage = argv[0]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            if self.tracer is None:
                code, *seconds = self._timed(cli.main, list(argv))
            else:
                code, *seconds = self._timed(self.tracer.call, f"cli.{stage}",
                                             cli.main, list(argv))
        if code != 0:
            raise CheckFailed(f"{stage} exited {code}: {sink.getvalue()[-400:]}")
        return tuple(seconds)

    def write_spec(self, name: str, build, *args) -> str:
        """Write the spec that build(*args) returns; counts as set-up work."""
        path = self.file(name)

        def write():
            Path(path).write_text(json.dumps(build(*args)), encoding="utf-8")

        _, *seconds = self._timed(write)
        self.log.append(StageRun("write-spec", *seconds, 1))
        return path

    def toy_spec(self, name: str, defaults: dict) -> str:
        def build():
            spec = json.loads((self.root / "benchmarks" / "toy10.json").read_text("utf-8"))
            spec["defaults"].update(defaults)
            return spec

        return self.write_spec(name, build)

    def make_data(self, spec_path: str, out: str, seed: int) -> None:
        spec = json.loads(Path(spec_path).read_text("utf-8"))
        d = spec["defaults"]
        molecules = len(spec["molecules"])
        steps = molecules * (d["burn_in"] + d["count"] * d["thin"])
        seconds = self._stage("make-data", spec_path, out, "--seed", str(seed))
        if _records(out) != molecules * d["count"]:
            raise CheckFailed(f"make-data wrote {_records(out)} records, "
                              f"expected {molecules * d['count']}")
        self.log.append(StageRun("make-data", *seconds, steps))

    def train(self, data: str, model: str, seed: int, epochs: int) -> float:
        """Train; returns the best validation ELBO."""
        seconds = self._stage("train", data, model, "--epochs", str(epochs),
                              "--seed", str(seed))
        with open(f"{model}.metrics.jsonl", encoding="utf-8") as fh:
            history = [json.loads(line) for line in fh]
        best = max((e["val_elbo"] for e in history), default=math.nan)
        if len(history) != epochs or not _finite(best):
            raise CheckFailed(f"train logged {len(history)} epochs, best ELBO {best}")
        self.log.append(StageRun("train", *seconds, _records(data) * epochs))
        return best

    def generate(self, model: str, data: str, out: str, molecules: int,
                 n: int) -> float:
        """Generate n samples per molecule; returns converged / attempted."""
        seconds = self._stage("generate", model, data, out, "--n", str(n),
                              "--seed", str(self.seed), "--threads", "1")
        report = json.loads(Path(f"{out}.report.json").read_text("utf-8"))
        attempted = report["n_samples"]
        if not (report["n_converged"] <= report["n_smoothing_ok"] <= attempted
                == molecules * n == report["molecules"] * n):
            raise CheckFailed(f"generate report breaks n_converged <= "
                              f"n_smoothing_ok <= n_samples = {molecules} x {n}: "
                              f"{report}")
        if _records(out) != report["n_smoothing_ok"]:
            raise CheckFailed(f"generate wrote {_records(out)} records for "
                              f"{report['n_smoothing_ok']} smoothed samples")
        self.log.append(StageRun("generate", *seconds, attempted))
        return report["n_converged"] / attempted

    def evaluate(self, truth: str, generated: str, prefix: str) -> float:
        """Evaluate; returns the median joint MMD^2."""
        seconds = self._stage("evaluate", truth, f"gen={generated}", "--out", prefix)
        with open(f"{prefix}.tsv", encoding="utf-8") as fh:
            rows = [line.rstrip("\n").split("\t") for line in fh][1:]
        values = [float(r[5]) for r in rows]
        joint = [float(r[5]) for r in rows if r[2] == "joint"]
        if not joint or not all(math.isfinite(v) for v in values):
            raise CheckFailed(f"evaluate wrote {len(values)} rows, {len(joint)} "
                              f"joint, not all finite")
        self.log.append(StageRun("evaluate", *seconds, len(values)))
        return statistics.median(joint)

    def estimate(self, generated: str, spec: str, out: str) -> None:
        seconds = self._stage("estimate", generated, "--energy-model", spec,
                              "--observable", "rgyr", "--out", out)
        molecules = json.loads(Path(out).read_text("utf-8"))["molecules"]
        for name, e in molecules.items():
            if not (_finite(e["value"]) and _finite(e["standard_error"])
                    and _finite(e["ess"]) and e["ess"] >= 1.0 - 1e-9):
                raise CheckFailed(f"estimate for {name} is not finite or has "
                                  f"ESS < 1: {e}")
        self.log.append(StageRun("estimate", *seconds, len(molecules)))


def setup_model(p: Pipeline) -> None:
    spec = p.toy_spec("model-spec.json", MODEL_SPEC)
    p.make_data(spec, p.file("model-data.jsonl"), MODEL_SEED)
    p.train(p.file("model-data.jsonl"), p.file("model.json"), MODEL_SEED, MODEL_EPOCHS)


class Toy10Fit:
    name = "toy10-fit"
    why = ("model building: Metropolis make-data and CVAE training on 6-14 atom "
           "toy10 molecules; no decode, embedding or MMD runs")
    # Nearly all time goes to Python overhead per Metropolis step and to
    # nnet/cvae training, so lockstep chains and a faster training hot path
    # show here, and a generate-side change must show no change.

    def setup(self, p: Pipeline) -> None:
        p.toy_spec("fit-spec.json", FIT_SPEC)

    def round(self, p: Pipeline) -> dict:
        p.make_data(p.file("fit-spec.json"), p.file("fit-data.jsonl"), p.seed)
        elbo = p.train(p.file("fit-data.jsonl"), p.file("fit-model.json"), MODEL_SEED,
                       FIT_EPOCHS)
        return {"train.best_val_elbo": elbo}


def _sample_round(p: Pipeline, truth: str, spec: str, molecules: int, n: int) -> dict:
    out = p.file("generated.jsonl")
    rate = p.generate(p.file("model.json"), truth, out, molecules, n)
    mmd = p.evaluate(truth, out, p.file("mmd"))
    p.estimate(out, spec, p.file("estimate.json"))
    return {"generate.success_rate": rate, "evaluate.mmd2_joint_median": mmd}


class Toy10Sample:
    name = "toy10-sample"
    why = ("small-molecule sampling: generate, evaluate and estimate on toy10, "
           "where per-call overhead of decode and refine dominates")
    # nnet.backward and training Adam steps never run in the measured stages,
    # so a training change must show no change here.

    def setup(self, p: Pipeline) -> None:
        setup_model(p)

    def round(self, p: Pipeline) -> dict:
        return _sample_round(p, p.file("model-data.jsonl"), p.file("model-spec.json"),
                             10, TOY_SAMPLES)


class ChainsSample:
    name = "chains-sample"
    why = ("unseen 20-39 atom C/O chains: make-data, generate, evaluate and "
           "estimate where O(n^2) and O(n^3) array work outweighs call overhead")
    # The steric term of energy_of, refine at its iteration cap, smoothing
    # sweeps and eigh all grow with n here, so a batching change that trades
    # overhead for per-element work, or a new smoothing algorithm, shows its
    # cost or gain. Generalising to larger unseen graphs is the paper's use.

    def setup(self, p: Pipeline) -> None:
        setup_model(p)
        p.write_spec("chains-spec.json", chainspec.chain_spec, p.seed,
                     CHAIN_MOLECULES, CHAIN_DEFAULTS)

    def round(self, p: Pipeline) -> dict:
        spec = p.file("chains-spec.json")
        p.make_data(spec, p.file("chains-data.jsonl"), p.seed)
        return _sample_round(p, p.file("chains-data.jsonl"), spec, CHAIN_MOLECULES,
                             CHAIN_SAMPLES)


WORKLOADS = {w.name: w for w in (Toy10Fit(), Toy10Sample(), ChainsSample())}
