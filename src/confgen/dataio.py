"""Dataset serialization and synthetic benchmarks.

Datasets are line-delimited JSON: a header line carrying the schema version,
then one record per line holding a molecule id, its bond graph, the seed its
extended graph was built with, and one conformation. All conformations of a
molecule share one build seed so their distance sets stay index-aligned.
Floats are written with shortest round-trip precision, so read(write(x)) is
bit-identical. A record line is its head, the molecule, graph and build seed,
then its positions; a molecule's records repeat the head text, so the codec
writes and parses each distinct head once per file, and the reader checks the
positions of each head's lines as one stack.

The synthetic benchmark replaces an external quantum-chemistry dataset: toy
C/O/H molecules with harmonic bond/angle energies are sampled with the
Metropolis chain at a fixed temperature.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import edg
from .boltzmann import (
    AngleTerm,
    BondTerm,
    Chain,
    EnergyModel,
    ISConfig,
    StericTerm,
    metropolis_chains,
)
from .errors import DomainError, UsageError
from .molgraph import (
    Bond,
    Conformation,
    MolGraph,
    build_extended_graph,
    extract_distances,
)

DATASET_FORMAT = "confgen-dataset"
DATASET_VERSION = 1
BENCHMARK_FORMAT = "confgen-benchmark"
INITIAL_TOL = 1e-2  # refine tolerance of a chain's starting conformation
# Slack of the 1-3 bounds of an angle centred on an atom of a three-membered
# ring: next to a 60 degree ring no geometry meets tetrahedral exterior angles
# within the 0.05 A of other angles. Of 0.10-0.30 A, 0.15 A converged
# oxirane's starts in the fewest steps at worst (61 over init seeds 0-99).
RING3_ANGLE_SLACK = 0.15
# A chain's acceptance after burn-in below this fraction aborts make-data, once
# it has run 1/MIN_ACCEPTANCE kept steps, where one acceptance clears the bar.
MIN_ACCEPTANCE = 0.01
JUDGED_STEPS = 100


class ParseError(UsageError):
    """A dataset or spec file line could not be parsed."""


class GenerationError(DomainError):
    """Synthetic sampling failed (e.g. pathologically low MCMC acceptance)."""


@dataclass
class DatasetRecord:
    molecule: str
    graph: MolGraph
    build_seed: int
    conformation: Conformation


# --- json codecs -----------------------------------------------------------

def graph_to_dict(g: MolGraph) -> dict:
    return {
        "nodes": [{"element": e, "chiral": c} for e, c in g.nodes],
        "bonds": [
            {
                "i": b.i,
                "j": b.j,
                "type": b.bond_type,
                "stereo": b.stereo,
                "aromatic": b.is_aromatic,
                "conjugated": b.is_conjugated,
                "rings": list(b.ring_sizes),
            }
            for b in g.bonds
        ],
    }


def graph_from_dict(d: dict) -> MolGraph:
    nodes = tuple((n["element"], n.get("chiral", "None")) for n in d["nodes"])
    bonds = tuple(
        Bond(
            b["i"],
            b["j"],
            bond_type=b.get("type", "single"),
            stereo=b.get("stereo", "None"),
            is_aromatic=b.get("aromatic", False),
            is_conjugated=b.get("conjugated", False),
            ring_sizes=tuple(b.get("rings", ())),
        )
        for b in d["bonds"]
    )
    return MolGraph(nodes, bonds)


def _record_to_dict(r: DatasetRecord) -> dict:
    return {
        "molecule": r.molecule,
        "graph": graph_to_dict(r.graph),
        "build_seed": r.build_seed,
        "positions": r.conformation.positions.tolist(),
    }


def _head_from_dict(d: dict, graphs: dict) -> tuple:
    """The (molecule, graph, build seed) of record `d`; its graph is taken
    from `graphs`, keyed by the repr of the graph entry, or built and added
    there. The repr tells 1, 1.0 and true apart, which compare equal but are
    written back as they were read. The build seed must be a JSON integer
    >= 0: 1.5, "7" and true are not read as seeds."""
    key = repr(d["graph"])
    graph = graphs.get(key)
    if graph is None:
        graph = graphs[key] = graph_from_dict(d["graph"])
    seed = d["build_seed"]
    if type(seed) is not int or seed < 0:
        raise ValueError(f"build_seed must be a non-negative integer, got {seed!r}")
    return str(d["molecule"]), graph, seed


def _record_from_dict(d: dict, graphs: dict) -> DatasetRecord:
    head = _head_from_dict(d, graphs)
    return DatasetRecord(*head, Conformation(head[1].elements, np.asarray(d["positions"])))


# A record line is json.dumps(_record_to_dict(r)): its head, the object up to
# this separator, then the positions and the closing brace.
_POSITIONS = ', "positions": '
_BAD_RECORD = (json.JSONDecodeError, KeyError, TypeError, ValueError, DomainError)


def write_dataset(path, records) -> None:
    """Write the header and one line per record, each the bytes of
    json.dumps(_record_to_dict(r)); a head is serialised once per molecule
    graph object and build seed."""
    heads: dict[tuple, tuple] = {}  # head key -> (graph, head text)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"format": DATASET_FORMAT, "version": DATASET_VERSION}))
        fh.write("\n")
        for r in records:
            # types too: True, 1 and 1.0 are equal keys but are written apart;
            # the graph is held so that its id stays its own
            key = (type(r.molecule), r.molecule, id(r.graph),
                   type(r.build_seed), r.build_seed)
            entry = heads.get(key)
            if entry is None:
                entry = heads[key] = (r.graph, json.dumps({
                    "molecule": r.molecule, "graph": graph_to_dict(r.graph),
                    "build_seed": r.build_seed})[:-1] + _POSITIONS)
            fh.write(entry[1] + json.dumps(r.conformation.positions.tolist()) + "}\n")


def _fast_line(line: str, heads: dict, graphs: dict) -> tuple | None:
    """(head text, positions) of `line`: its head parsed once per
    distinct head text and kept in `heads`, and its coordinates as a float64
    array of the head's (atoms, 3) shape; None when the line does not end
    in a closing brace after a separator or its coordinates have another
    shape.

    Exact: when the text before the last separator, closed, is a JSON object
    and the text after it, less the closing brace, is one JSON value, the
    line is that object with `positions` set to that value. Anything else
    raises or gives None, and the caller then reads the whole line as before.
    """
    body = line.rstrip(" \t\r\n")  # the whitespace JSON allows after a value
    cut = body.rfind(_POSITIONS)
    if cut < 0 or not body.endswith("}"):
        return None
    text = body[:cut]
    head = heads.get(text)
    if head is None:
        head = heads[text] = _head_from_dict(json.loads(text + "}"), graphs)
    # the conversions of _record_from_dict and Conformation
    positions = np.asarray(np.asarray(json.loads(body[cut + len(_POSITIONS):-1])),
                           dtype=np.float64)
    if positions.shape != (head[1].n_atoms, 3):
        return None
    return text, positions


def read_dataset(path) -> list[DatasetRecord]:
    """Read records back; a file of blank lines is an empty dataset. Records whose
    graph entries are identical share one MolGraph. All records of a
    molecule must have equal graphs and one build seed: the first record
    whose graph differs, by value, from that of its molecule's first record,
    or else whose build seed differs from it, raises.

    The lines that the head fast path reads are grouped by head text, and
    each group's positions are checked as one stack (`Conformation.stack`).
    A line that the fast path cannot read is read whole, so it gives the
    record or the ParseError it always did; a fast line is its head plus
    its positions, so one that fails the stack check fails with the error
    that reading it whole gives. The first failing line in file order
    raises.
    """
    records: list = []  # DatasetRecords; fast lines hold their place until checked
    graphs: dict[str, MolGraph] = {}
    heads: dict[str, tuple] = {}
    groups: dict[str, list] = {}  # head text -> [(record index, line, positions)]
    firsts: dict[str, tuple] = {}  # molecule -> (graph, seed, line) of its first record
    failed = None  # (line number, error) of the first line that fails
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header.strip() and not any(line.strip() for line in fh):
            return records
        try:
            head = json.loads(header) if header.strip() else None
            if not isinstance(head, dict) or head.get("format") != DATASET_FORMAT:
                raise ValueError(f"expected format {DATASET_FORMAT!r}")
            if type(head.get("version")) is not int or head["version"] != DATASET_VERSION:
                raise ValueError(f"unsupported version {head.get('version')}")
        except (json.JSONDecodeError, ValueError) as e:
            raise ParseError(f"{path}:1: bad dataset header: {e}") from e
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                fast = _fast_line(line, heads, graphs)
            except _BAD_RECORD:
                fast = None
            if fast is None:
                try:
                    record = _record_from_dict(json.loads(line), graphs)
                except _BAD_RECORD as e:
                    failed = lineno, e  # no later line can fail first
                    break
                molecule, graph, seed = record.molecule, record.graph, record.build_seed
                records.append(record)
            else:
                text, positions = fast
                molecule, graph, seed = heads[text]
                groups.setdefault(text, []).append((len(records), lineno, positions))
                records.append(None)
            first = firsts.get(molecule)
            if first is None:
                firsts[molecule] = graph, seed, lineno
            elif graph is not first[0] and graph != first[0]:
                failed = lineno, ValueError(f"molecule {molecule!r} has another bond "
                                            f"graph than on line {first[2]}")
                break
            elif seed != first[1]:
                failed = lineno, ValueError(f"molecule {molecule!r} has another build "
                                            f"seed than on line {first[2]}")
                break
    for text, lines in groups.items():
        head = heads[text]
        slots, linenos, positions = zip(*lines)
        for slot, lineno, conformation in zip(
                slots, linenos, Conformation.stack(head[1].elements, np.stack(positions))):
            if isinstance(conformation, Conformation):
                records[slot] = DatasetRecord(*head, conformation)
            # <=: a line's own coordinates fail before its graph is compared
            elif failed is None or lineno <= failed[0]:
                failed = lineno, conformation
    if failed is not None:
        lineno, e = failed
        raise ParseError(f"{path}:{lineno}: bad record: {e}") from e
    return records


def group_records(records) -> dict:
    """molecule id -> (graph, build_seed, [conformations]), insertion-ordered."""
    grouped: dict[str, tuple] = {}
    for r in records:
        if r.molecule not in grouped:
            grouped[r.molecule] = (r.graph, r.build_seed, [])
        grouped[r.molecule][2].append(r.conformation)
    return grouped


def extended_graphs(grouped: dict) -> dict:
    """molecule id -> ExtendedGraph, built with each molecule's stored seed,
    from `group_records` output."""
    return {mol: build_extended_graph(graph, seed)
            for mol, (graph, seed, _) in grouped.items()}


def training_pairs(records) -> list[tuple]:
    """(molecule, ExtendedGraph, distance vector) per record; each vector is
    a row of its molecule's `distance_matrix_by_molecule` matrix."""
    grouped = group_records(records)
    graphs = extended_graphs(grouped)
    rows = {mol: iter(d) for mol, d in distance_matrix_by_molecule(grouped, graphs).items()}
    return [(r.molecule, graphs[r.molecule], next(rows[r.molecule])) for r in records]


def distance_matrix_by_molecule(grouped: dict, graphs: dict) -> dict:
    """molecule id -> (n_conformations x n_edges) distance matrix, one
    `extract_distances` call per molecule of `graphs` (molecule id ->
    ExtendedGraph), in its order, over that molecule's conformations in
    `grouped` (`group_records` output); molecules that either lacks are
    left out.
    """
    return {mol: extract_distances(eg, grouped[mol][2])
            for mol, eg in graphs.items() if mol in grouped}


# --- synthetic benchmark -----------------------------------------------------

def load_benchmark_spec(path) -> dict:
    try:
        spec = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: not valid JSON: {e}") from e
    if not isinstance(spec, dict) or spec.get("format") != BENCHMARK_FORMAT:
        raise ParseError(f"{path}: expected format {BENCHMARK_FORMAT!r}")
    if "molecules" not in spec or "temperature" not in spec:
        raise ParseError(f"{path}: benchmark spec needs molecules and temperature")
    if not isinstance(spec.get("defaults", {}), dict):
        raise ParseError(f"{path}: 'defaults' must be an object, "
                         f"got {spec['defaults']!r:.40}")
    spec_molecules(path, spec)
    return spec


def spec_molecules(path, spec: dict) -> list[dict]:
    """The `molecules` of the spec read from `path`; ParseError unless they
    are a list of objects."""
    molecules = spec["molecules"]
    if not isinstance(molecules, list):
        raise ParseError(f"{path}: 'molecules' must be a list of objects, "
                         f"got {type(molecules).__name__}")
    for index, entry in enumerate(molecules):
        if not isinstance(entry, dict):
            raise ParseError(f"{path}: molecules entry {index} must be an object, "
                             f"got {entry!r:.40}")
    return molecules


def _molecule_graph(entry: dict) -> MolGraph:
    bonds = tuple(
        Bond(b["i"], b["j"], ring_sizes=tuple(b.get("rings", ())))
        for b in entry["bonds"]
    )
    return MolGraph.from_elements(entry["elements"], bonds)


def _initial_job(graph: MolGraph, model: EnergyModel, seed: int) -> tuple:
    """The `edg.embed_bounds` job for one molecule's rest geometry: tight
    distance bounds from the bond and angle rest values, the default steric
    floor and ceiling everywhere else, and a generator seeded with `seed`.

    A bond's bounds are its rest length +- 0.01 A. An angle whose end atoms are
    not bonded bounds their distance to the law-of-cosines value +- 0.05 A, or
    +- RING3_ANGLE_SLACK when its centre is an atom of a three-membered ring
    (the angles inside such a ring join bonded atoms and set no bound)."""
    n = graph.n_atoms
    ring3 = {a for b in graph.bonds if 3 in b.ring_sizes for a in (b.i, b.j)}
    lower = np.full((n, n), edg.STERIC_FLOOR)
    upper = np.full((n, n), edg.DISTANCE_CEILING)

    def clamp(i: int, j: int, d: float, slack: float) -> None:
        lower[i, j] = lower[j, i] = max(d - slack, 0.1)
        upper[i, j] = upper[j, i] = d + slack

    rests = {}
    for t in model.bonds:
        clamp(t.i, t.j, t.rest_length, 0.01)
        rests[frozenset((t.i, t.j))] = t.rest_length
    for t in model.angles:
        a = rests.get(frozenset((t.i, t.j)))
        b = rests.get(frozenset((t.k, t.j)))
        if a is None or b is None:
            continue
        d13 = math.sqrt(a * a + b * b - 2 * a * b * math.cos(t.rest_angle))
        if frozenset((t.i, t.k)) not in rests:
            clamp(t.i, t.k, d13, RING3_ANGLE_SLACK if t.j in ring3 else 0.05)
    np.fill_diagonal(lower, 0.0)
    np.fill_diagonal(upper, 0.0)
    return graph.elements, edg.BoundsMatrix(lower, upper), np.random.default_rng(seed)


def initial_conformation(graph: MolGraph, model: EnergyModel, seed: int) -> Conformation:
    """Rough rest-geometry coordinates via the distance-geometry pipeline.

    Bond and angle rest values become tight distance bounds, embedded and
    refined to a tolerance of INITIAL_TOL. Residual strain is left for MCMC
    burn-in to relax.
    """
    # kept while the benchmark tracer (perfbench/tracing.py) wraps it by name
    [result] = edg.embed_bounds([_initial_job(graph, model, seed)], tol=INITIAL_TOL)
    return result.conformation


# energy term kind: its atom keys, then each value key and whether it must be > 0
# (EnergyModel's rule); every value must also be a finite number
_TERM_KEYS = {
    "bonds": ("ij", {"rest": True, "stiffness": True}),
    "angles": ("ijk", {"rest": False, "stiffness": True}),
}


def molecule_energy_model(name: str, d, n_atoms: int) -> EnergyModel:
    """Molecule `name`'s energy model from its JSON form `d`, checked for a
    molecule of `n_atoms` atoms; the one way from JSON to an EnergyModel.

    Every bond and angle term needs all its keys, each rest, stiffness and
    steric value must be a finite number, bond rest lengths and bond and
    angle stiffnesses must be above 0, and then each term must name distinct
    atoms of the molecule by integer index. Raises ParseError naming the
    molecule and the term.
    """
    def check(term: str, t, atoms: str, values: dict) -> None:
        if not isinstance(t, dict):
            raise ParseError(f"molecule {name!r}: {term} must be an object, got {t!r}")
        for key in [*atoms, *values]:
            if key not in t:
                raise ParseError(f"molecule {name!r}: {term} has no {key!r}")
        for key, positive in values.items():
            v = t[key]
            if not (_number(v) and math.isfinite(v) and (v > 0 or not positive)):
                rule = "a finite number" + (" > 0" if positive else "")
                raise ParseError(f"molecule {name!r}: {term} {key} must be {rule}, "
                                 f"got {v!r}")

    if not isinstance(d, dict):
        raise ParseError(f"molecule {name!r}: 'energy' must be an object of terms, "
                         f"got {d!r}")
    terms = {kind: d.get(kind, ()) for kind in _TERM_KEYS}
    for kind, (atoms, values) in _TERM_KEYS.items():
        if not isinstance(terms[kind], (list, tuple)):
            raise ParseError(f"molecule {name!r}: {kind} must be a list, "
                             f"got {terms[kind]!r}")
        for index, t in enumerate(terms[kind]):
            check(f"{kind[:-1]} {index}", t, atoms, values)
    steric = d.get("steric")
    if steric:
        check("steric term", steric, "", {"floor": False, "stiffness": False})
    for kind, (fields, _) in _TERM_KEYS.items():
        for index, t in enumerate(terms[kind]):
            atoms = [t[f] for f in fields]
            if not all(type(a) is int and 0 <= a < n_atoms for a in atoms) \
                    or len(set(atoms)) < len(atoms):
                raise ParseError(
                    f"molecule {name!r}: {kind[:-1]} {index} names atoms "
                    f"({', '.join(map(repr, atoms))}); each must be a distinct "
                    f"integer from 0 to {n_atoms - 1}")
    return EnergyModel(
        tuple(BondTerm(t["i"], t["j"], t["rest"], t["stiffness"]) for t in terms["bonds"]),
        tuple(AngleTerm(t["i"], t["j"], t["k"], t["rest"], t["stiffness"])
              for t in terms["angles"]),
        StericTerm(steric["floor"], steric["stiffness"]) if steric else None)


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _integer(value) -> bool:
    return _number(value) and math.isfinite(value) and float(value).is_integer()


# schedule field: (default, whose type a valid value is converted to;
# whether a value is valid; what a valid value is)
_SCHEDULE = {
    "count": (100, lambda v: _integer(v) and v >= 1, "an integer >= 1"),
    "burn_in": (2000, lambda v: _integer(v) and v >= 0, "an integer >= 0"),
    "thin": (10, lambda v: _integer(v) and v >= 1, "an integer >= 1"),
    "step": (0.07, lambda v: _number(v) and math.isfinite(v) and v > 0,
             "a finite number > 0"),
    "tune": (True, lambda v: isinstance(v, bool), "true or false"),
}


def _chain_schedule(entry: dict, defaults: dict) -> dict:
    """A molecule's chain settings, each from the entry, else the spec's
    defaults, else the built-in default; raises ParseError on a bad value.
    Integers may be written as integral floats."""
    name = entry.get("name")
    if not isinstance(name, str) or not name:
        raise ParseError(f"molecule name must be a non-empty string, got {name!r}")
    schedule = {}
    for key, (fallback, valid, rule) in _SCHEDULE.items():
        where = " (from defaults)" if key not in entry and key in defaults else ""
        value = entry.get(key, defaults.get(key, fallback))
        if not valid(value):
            raise ParseError(
                f"molecule {name!r}: {key} must be {rule}, got {value!r}{where}")
        schedule[key] = type(fallback)(value)
    return schedule


def make_synthetic_benchmark(spec: dict, seed: int) -> tuple[list, list]:
    """Sample every molecule of the spec with the Metropolis chain.

    Per molecule, a child seed stream drives the initial geometry, the
    extended-graph build seed, and the chain, so the whole dataset is a pure
    function of (spec, seed). Every molecule's name, topology, energy terms
    (with the atoms they name) and schedule, and the temperature, are checked
    before any chain starts (ParseError names the molecule and the field).
    The starting conformations come from `edg.embed_bounds` (one bound set
    per molecule through `generate`'s pipeline) and the chains then run in
    one lockstep loop (`boltzmann.metropolis_chains`), each exactly as alone.
    Acceptance below 1% over at least 100 post-burn-in steps aborts with a
    hint; a shorter kept phase is not judged.

    Returns the records, molecule by molecule in spec order, and one report
    per molecule: its name, post-burn-in acceptance rate, tuned step size,
    post-burn-in steps, burn-in steps and records, then its start's refine
    steps, whether it converged to INITIAL_TOL and its largest bound
    violation.
    """
    temperature = spec["temperature"]
    if not (_number(temperature) and math.isfinite(temperature) and temperature > 0):
        raise ParseError(f"temperature must be a finite number > 0, got {temperature!r}")
    cfg = ISConfig(temperature=float(temperature))
    defaults = spec.get("defaults", {})
    molecules = []  # (name, graph, model, schedule)
    for entry in spec["molecules"]:
        schedule = _chain_schedule(entry, defaults)
        name = entry["name"]
        if any(name == m[0] for m in molecules):
            raise ParseError(f"molecule {name!r} appears more than once")
        try:
            graph = _molecule_graph(entry)
        except (KeyError, TypeError) as e:
            raise ParseError(f"molecule {name!r}: bad topology "
                             f"({type(e).__name__}: {e})") from e
        model = molecule_energy_model(name, entry.get("energy"), graph.n_atoms)
        molecules.append((name, graph, model, schedule))

    seeds = [np.random.SeedSequence(seed, spawn_key=(index,)).generate_state(3)
             for index in range(len(molecules))]  # init, build, chain
    starts = edg.embed_bounds(
        [_initial_job(graph, model, int(init_seed))
         for (_, graph, model, _), (init_seed, _, _) in zip(molecules, seeds)],
        tol=INITIAL_TOL)
    chains = [
        Chain(model, start.conformation, steps=schedule["count"] * schedule["thin"],
              rng=np.random.default_rng(int(chain_seed)), step_size=schedule["step"],
              burn_in=schedule["burn_in"], thin=schedule["thin"], tune=schedule["tune"])
        for (_, _, model, schedule), (_, _, chain_seed), start in zip(
            molecules, seeds, starts)
    ]

    records: list[DatasetRecord] = []
    report = []
    for (name, graph, _, _), (_, build_seed, _), start, chain, result in zip(
            molecules, seeds, starts, chains, metropolis_chains(chains, cfg)):
        if chain.steps >= JUDGED_STEPS and result.acceptance_rate < MIN_ACCEPTANCE:
            raise GenerationError(
                f"molecule {name!r}: MCMC acceptance {result.acceptance_rate:.2%} "
                f"is pathologically low; adjust the proposal step size"
            )
        for conf in result.conformations():
            records.append(DatasetRecord(name, graph, int(build_seed), conf))
        report.append({"molecule": name, "acceptance_rate": result.acceptance_rate,
                       "step_size": result.step_size, "steps": chain.steps,
                       "burn_in": chain.burn_in, "records": len(result),
                       "start_iterations": start.iterations,
                       "start_converged": start.converged,
                       "start_max_violation": start.max_violation})
    return records, report
