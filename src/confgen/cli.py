"""Command-line pipeline driver.

Subcommands: make-data, train, generate, evaluate, estimate. Every command is
deterministic under a fixed --seed. `generate` samples every molecule with
one `edg.generate` call, which refines the samples of all molecules in one
lockstep loop; the i-th molecule in sorted name order is rooted at
SeedSequence(seed, spawn_key=(i,)), so its sample k draws from
SeedSequence(seed, spawn_key=(i, k)). Its --threads flag is accepted (an
integer >= 1) and has no effect. Exit codes: 0 success,
1 domain failure, 2 usage or IO error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import cvae, dataio, edg, evalmmd
from .boltzmann import ISConfig, is_estimate, observable_by_name
from .errors import DomainError, UsageError

DEFAULT_SEED = 1729


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confgen",
        description="Sample molecular conformations from graphs via distance geometry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-data", help="generate a synthetic benchmark dataset")
    p.add_argument("spec", help="benchmark spec JSON")
    p.add_argument("out", help="output dataset path")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=_cmd_make_data)

    p = sub.add_parser("train", help="train the distance model")
    p.add_argument("data", help="training dataset")
    p.add_argument("out", help="output checkpoint path")
    p.add_argument("--config", help="JSON file with hyperparameter overrides")
    p.add_argument("--metrics", help="per-epoch metrics JSONL (default: OUT.metrics.jsonl)")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("generate", help="sample conformations for every molecule")
    p.add_argument("checkpoint")
    p.add_argument("data", help="dataset naming the molecules to generate for")
    p.add_argument("out", help="output dataset of generated conformations")
    p.add_argument("--n", type=int, default=50, help="samples per molecule (default 50)")
    p.add_argument("--report", help="embedding report JSON (default: OUT.report.json)")
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for old scripts (an integer >= 1); has no effect")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("evaluate", help="MMD comparison of generated vs ground truth")
    p.add_argument("truth", help="ground-truth dataset")
    p.add_argument("generated", nargs="+",
                   help="generated datasets, each as name=path or a bare path")
    p.add_argument("--out", required=True,
                   help="report prefix; writes PREFIX.tsv, PREFIX.txt, PREFIX.marginals.tsv")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("estimate", help="Boltzmann-weighted property estimate")
    p.add_argument("generated", help="dataset of proposal conformations")
    p.add_argument("--energy-model", required=True,
                   help="energy model JSON (single model, models map, or benchmark spec)")
    p.add_argument("--observable", default="one",
                   help='"one", "rgyr", or "distance:i-j" (default: one)')
    p.add_argument("--temperature", type=float, default=500.0)
    p.add_argument("--out", help="write the report JSON here as well")
    p.set_defaults(func=_cmd_estimate)

    return parser


def _cmd_make_data(args) -> int:
    spec = dataio.load_benchmark_spec(args.spec)
    records, report = dataio.make_synthetic_benchmark(spec, args.seed)
    dataio.write_dataset(args.out, records)
    Path(f"{args.out}.report.json").write_text(
        json.dumps({"molecules": report}, indent=2), encoding="utf-8")
    molecules = len({r.molecule for r in records})
    print(f"make-data: molecules={molecules} records={len(records)} out={args.out}")
    return 0


def _load_config(args) -> cvae.CvaeConfig:
    values: dict = {}
    if args.config:
        try:
            values = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except json.JSONDecodeError as e:
            raise UsageError(f"{args.config}: not valid JSON: {e}") from e
        if not isinstance(values, dict):
            raise UsageError(f"{args.config}: a training config must be a JSON object")
    if args.epochs is not None:
        values["epochs"] = args.epochs
    return _checked_config(values)


def _checked_config(values: dict) -> cvae.CvaeConfig:
    try:
        return cvae.CvaeConfig.from_dict(values)
    except (TypeError, ValueError) as e:
        raise UsageError(f"bad training config: {e}") from e


def _cmd_train(args) -> int:
    records = dataio.read_dataset(args.data)
    if not records:
        raise UsageError(f"{args.data}: dataset is empty")
    pairs = dataio.training_pairs(records)

    resume_state = None
    if args.resume:
        # a resumed run continues the checkpoint's own config; only the epoch
        # budget may change
        if args.config is not None:
            raise UsageError("--config cannot be combined with --resume, which keeps "
                             "the checkpoint's config")
        params, resume_state = cvae.load_model(args.resume)
        if resume_state is None:
            raise UsageError(f"{args.resume}: checkpoint has no training state")
        config = params.config
        if args.epochs is not None:
            config = _checked_config({**config.to_dict(), "epochs": args.epochs})
        if config.epochs < resume_state["epoch"]:
            raise UsageError(f"--epochs {config.epochs} is below the {resume_state['epoch']} "
                             f"epochs that {args.resume} has already run")
    else:
        config = _load_config(args)

    metrics_path = args.metrics or f"{args.out}.metrics.jsonl"
    with open(metrics_path, "w", encoding="utf-8") as metrics:
        def log_epoch(entry: dict) -> None:
            metrics.write(json.dumps(entry) + "\n")
            print(
                f"epoch {entry['epoch']}: train_elbo={entry['train_elbo']:.4f} "
                f"val_elbo={entry['val_elbo']:.4f}"
            )

        result = cvae.train(pairs, config, args.seed,
                            resume_state=resume_state, log_fn=log_epoch)

    cvae.save_model(args.out, result.params, train_state=result.state)
    print(
        f"train: best_epoch={result.best_epoch} "
        f"best_val_elbo={result.best_val_elbo:.4f} out={args.out}"
    )
    return 0


def _cmd_generate(args) -> int:
    if args.n < 1:
        raise UsageError(f"--n must be at least 1, got {args.n}")
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise UsageError(f"--tol must be a finite non-negative number, got {args.tol}")
    if args.threads < 1:
        raise UsageError(f"--threads must be at least 1, got {args.threads}")
    params, _ = cvae.load_model(args.checkpoint)
    records = dataio.read_dataset(args.data)
    if not records:
        raise UsageError(f"{args.data}: dataset is empty")
    grouped = dataio.group_records(records)
    graphs = dataio.extended_graphs(grouped)
    molecules = sorted(grouped)

    outcomes = dict(zip(molecules, edg.generate(
        params, [(graphs[mol], np.random.SeedSequence(args.seed, spawn_key=(i,)))
                 for i, mol in enumerate(molecules)], args.n, tol=args.tol)))

    out_records = [
        dataio.DatasetRecord(mol, grouped[mol][0], grouped[mol][1], r.conformation)
        for mol in molecules for r in outcomes[mol] if isinstance(r, edg.EmbedResult)
    ]
    dataio.write_dataset(args.out, out_records)

    # records follow the sorted stream order, the report the data file's order
    report = {"molecules": len(grouped), "requested_per_molecule": args.n,
              **edg.generate_report({mol: outcomes[mol] for mol in grouped})}
    report_path = args.report or f"{args.out}.report.json"
    Path(report_path).write_text(json.dumps(report, indent=2), encoding="utf-8")
    print(json.dumps(report))
    if not out_records:
        raise DomainError("no sample passed bound smoothing for any molecule")
    return 0


def _is_tsv_field(name: str) -> bool:
    """Whether `name` can be a field of `evaluate`'s TSV rows: non-empty,
    with no tab or line break."""
    return bool(name) and not any(c in name for c in "\t\n\r")


def _method_name(arg: str) -> tuple[str, str]:
    """(name, path) of a `name=path` or bare-path argument; the name is a
    field of PREFIX.tsv's rows (see _is_tsv_field)."""
    name, path = arg.split("=", 1) if "=" in arg else (Path(arg).stem, arg)
    if not _is_tsv_field(name):
        raise UsageError(f"method name {name!r} of argument {arg!r} is empty or holds "
                         f"a tab, newline or carriage return")
    return name, path


def _cmd_evaluate(args) -> int:
    paths: dict[str, str] = {}  # method name -> generated dataset
    for arg in args.generated:
        name, path = _method_name(arg)
        if name in paths:
            raise UsageError(f"method {name!r} is given twice: {paths[name]} and {path}")
        if name == evalmmd.TRUTH_SERIES:
            raise UsageError(f"method name {name!r} is reserved for the ground truth: {path}")
        paths[name] = path
    truth_records = dataio.read_dataset(args.truth)
    if not truth_records:
        raise UsageError(f"{args.truth}: dataset is empty")
    grouped = dataio.group_records(truth_records)
    for mol in grouped:  # a field of every report row
        if not _is_tsv_field(mol):
            raise UsageError(f"{args.truth}: molecule name {mol!r} is empty or holds "
                             f"a tab, newline or carriage return")
    graphs = dataio.extended_graphs(grouped)
    truth = dataio.distance_matrix_by_molecule(grouped, graphs)

    methods: dict[str, dict] = {}
    for name, path in paths.items():
        generated = dataio.group_records(dataio.read_dataset(path))
        for mol, (graph, seed, _) in generated.items():  # the seed picks the edges compared
            if mol in grouped and grouped[mol][:2] != (graph, seed):
                raise UsageError(f"{path}: molecule {mol!r} has another bond graph "
                                 f"or build seed than in {args.truth}")
        # the checked records share the truth's extended graphs
        methods[name] = dataio.distance_matrix_by_molecule(generated, graphs)

    report = evalmmd.protocol_report(graphs, truth, methods)
    if not report.rows:
        raise DomainError("no comparison could be computed (all instances "
                          "missing or degenerate)")
    evalmmd.write_report_tsv(report, f"{args.out}.tsv")
    text = evalmmd.format_report(report)
    Path(f"{args.out}.txt").write_text(text, encoding="utf-8")
    evalmmd.write_marginal_histograms(
        f"{args.out}.marginals.tsv", graphs, truth, methods
    )
    print(text, end="")
    return 0


def _load_energy_models(path, grouped) -> dict:
    """One checked energy model per dataset molecule of `grouped`, from a
    benchmark spec, a {"models": {name: model}} map or one bare model that
    applies to every molecule."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise UsageError(f"{path}: not valid JSON: {e}") from e
    if not (isinstance(doc, dict) and isinstance(doc.get("models", {}), dict)):
        raise UsageError(f"{path}: an energy model file must be a JSON object, "
                         f"with 'models', if present, an object")
    if "molecules" in doc:  # a benchmark spec
        docs = {entry.get("name"): entry.get("energy")
                for entry in dataio.spec_molecules(path, doc)}
    elif "models" in doc:
        docs = doc["models"]
    else:
        docs = dict.fromkeys(grouped, doc)
    models = {}
    for mol, (graph, _, _) in grouped.items():
        if mol not in docs:
            raise UsageError(f"no energy model for molecule {mol!r}")
        models[mol] = dataio.molecule_energy_model(mol, docs[mol], graph.n_atoms)
    return models


def _cmd_estimate(args) -> int:
    try:
        cfg = ISConfig(temperature=args.temperature)
    except ValueError as e:
        raise UsageError(f"--temperature: {e}") from e
    try:
        obs = observable_by_name(args.observable)
    except ValueError as e:
        raise UsageError(f"--observable: {e}") from e
    records = dataio.read_dataset(args.generated)
    if not records:
        raise UsageError(f"{args.generated}: dataset is empty")
    grouped = dataio.group_records(records)
    models = _load_energy_models(args.energy_model, grouped)
    for mol, (graph, _, conformations) in grouped.items():
        try:  # a distance pair beyond the molecule's atoms fails on any conformation
            obs(conformations[0])
        except IndexError as e:
            raise UsageError(f"observable {obs.name!r} names an atom beyond molecule "
                             f"{mol!r}, which has {graph.n_atoms} atoms") from e

    report = {mol: is_estimate(obs, conformations, models[mol], cfg).as_dict()
              for mol, (_, _, conformations) in grouped.items()}

    doc = {"observable": obs.name, "temperature": args.temperature,
           "molecules": report}
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=2, allow_nan=False),
                                  encoding="utf-8")
    print(json.dumps(doc, allow_nan=False))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # numpy's seeding would reject it without naming the flag, and after
        # `train` has opened its metrics log
        if getattr(args, "seed", 0) < 0:
            raise UsageError(f"--seed must be a non-negative integer, got {args.seed}")
        return args.func(args)
    except (UsageError, FileNotFoundError, IsADirectoryError, NotADirectoryError,
            PermissionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (DomainError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
