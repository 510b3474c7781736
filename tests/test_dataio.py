import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st
from hypothesis.extra import numpy as hnp

from confgen import dataio, edg
from confgen.boltzmann import ISConfig, metropolis_sample
from confgen.dataio import (
    DatasetRecord,
    GenerationError,
    ParseError,
    make_synthetic_benchmark,
    read_dataset,
    write_dataset,
)
from confgen.errors import DomainError
from confgen.molgraph import (
    BOND_TYPES,
    CHIRAL_TAGS,
    RING_SIZES,
    STEREO_TAGS,
    Bond,
    Conformation,
    GraphStructureError,
    MolGraph,
)

from conftest import (
    random_conformation,
    random_tree,
    single_bond_quadrature,
    toy10_spec,
)


@st.composite
def dataset_records(draw):
    """A few molecules of distinct names (random trees with random
    attributes), each with a few conformations holding arbitrary finite,
    pairwise distinct positions.
    """
    records = []
    for molecule in draw(st.lists(st.text(max_size=6), max_size=3, unique=True)):
        n = draw(st.integers(1, 5))
        nodes = tuple(
            (draw(st.sampled_from(["H", "C", "N", "O", "F"])),
             draw(st.sampled_from(CHIRAL_TAGS)))
            for _ in range(n)
        )
        bonds = tuple(
            Bond(draw(st.integers(0, i - 1)), i,
                 bond_type=draw(st.sampled_from(BOND_TYPES[:-1])),
                 stereo=draw(st.sampled_from(STEREO_TAGS)),
                 is_aromatic=draw(st.booleans()),
                 is_conjugated=draw(st.booleans()),
                 ring_sizes=tuple(draw(st.lists(st.sampled_from(RING_SIZES),
                                                max_size=2))))
            for i in range(1, n)
        )
        graph = MolGraph(nodes, bonds)
        build_seed = draw(st.integers(0, 2**63))
        for _ in range(draw(st.integers(1, 3))):
            positions = draw(hnp.arrays(
                np.float64, (n, 3),
                elements=st.floats(-1e100, 1e100), unique=True))
            try:
                conformation = Conformation(graph.elements, positions)
            except GraphStructureError:
                reject()
            records.append(DatasetRecord(molecule, graph, build_seed, conformation))
    return records


finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


def integral(low):
    """An integer >= low, written as an int or as an integral float."""
    return st.integers(low, 10**6).flatmap(
        lambda v: st.sampled_from([v, float(v)]))


# each schedule field: a strategy for its valid values
SCHEDULE_VALUES = {
    "count": integral(1), "burn_in": integral(0), "thin": integral(1),
    "step": positive | st.integers(1, 100), "tune": st.booleans(),
}


@st.composite
def atoms_of(draw, n, k):
    """`k` distinct atoms of `n`."""
    return draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True))


@st.composite
def spec_entries(draw, name):
    """One valid molecule entry: a tree topology, energy terms on distinct
    atoms with valid values, an optional steric term, and some schedule
    fields."""
    n = draw(st.integers(1, 8))
    entry = {
        "name": name,
        "elements": draw(st.lists(st.sampled_from(["C", "O", "H"]),
                                  min_size=n, max_size=n)),
        "bonds": [{"i": draw(st.integers(0, i - 1)), "j": i} for i in range(1, n)],
    }
    bonds = [dict(zip("ij", draw(atoms_of(n, 2))), rest=draw(positive),
                  stiffness=draw(positive))
             for _ in range(draw(st.integers(0, 4) if n >= 2 else st.just(0)))]
    angles = [dict(zip("ijk", draw(atoms_of(n, 3))), rest=draw(finite),
                   stiffness=draw(positive))
              for _ in range(draw(st.integers(0, 4) if n >= 3 else st.just(0)))]
    energy = {"bonds": bonds, "angles": angles}
    if draw(st.booleans()):
        energy["steric"] = {"floor": draw(finite), "stiffness": draw(finite)}
    entry["energy"] = energy
    for key in draw(st.sets(st.sampled_from(sorted(SCHEDULE_VALUES)))):
        entry[key] = draw(SCHEDULE_VALUES[key])
    return entry


@st.composite
def benchmark_specs(draw):
    names = draw(st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=4,
                          unique=True))
    defaults = {key: draw(SCHEDULE_VALUES[key])
                for key in draw(st.sets(st.sampled_from(sorted(SCHEDULE_VALUES))))}
    return {"format": dataio.BENCHMARK_FORMAT, "temperature": draw(positive),
            "defaults": defaults, "molecules": [draw(spec_entries(n)) for n in names]}


def build_records(n_molecules=4, n_conf=5, seed=0):
    rng = np.random.default_rng(seed)
    records = []
    for m in range(n_molecules):
        g = random_tree(5, rng)
        for _ in range(n_conf):
            records.append(
                DatasetRecord(f"mol{m}", g, build_seed=m * 11,
                              conformation=random_conformation(g, rng))
            )
    return records


class TestRoundTrip:
    def test_hundred_records_bit_identical(self, tmp_path):
        records = build_records(n_molecules=10, n_conf=10)
        path = tmp_path / "data.jsonl"
        write_dataset(path, records)
        loaded = read_dataset(path)
        assert len(loaded) == 100
        for a, b in zip(records, loaded):
            assert a.molecule == b.molecule
            assert a.build_seed == b.build_seed
            assert a.graph == b.graph
            assert np.array_equal(a.conformation.positions, b.conformation.positions)

    def test_empty_file_is_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert read_dataset(path) == []

    def test_truncated_record_names_the_line(self, tmp_path):
        records = build_records(n_molecules=1, n_conf=2)
        path = tmp_path / "data.jsonl"
        write_dataset(path, records)
        lines = path.read_text().splitlines()
        lines[2] = lines[2][: len(lines[2]) // 2]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as info:
            read_dataset(path)
        assert ":3:" in str(info.value)

    @pytest.mark.parametrize("positions", [
        [[0.0, 0.0, 0.0]] * 5,  # coincident atoms
        [[float("nan"), 0.0, 0.0]] + [[float(i), 0.0, 0.0] for i in range(1, 5)],
    ])
    def test_invalid_record_names_the_line(self, tmp_path, positions):
        records = build_records(n_molecules=1, n_conf=2)
        path = tmp_path / "data.jsonl"
        write_dataset(path, records)
        lines = path.read_text().splitlines()
        doc = json.loads(lines[2])
        doc["positions"] = positions
        lines[2] = json.dumps(doc)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as info:
            read_dataset(path)
        assert ":3:" in str(info.value)

    @settings(max_examples=25, deadline=None)
    @given(records=dataset_records())
    def test_write_read_property(self, records):
        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "data.jsonl"
            write_dataset(path, records)
            loaded = read_dataset(path)
        assert len(loaded) == len(records)
        for a, b in zip(records, loaded):
            assert (a.molecule, a.graph, a.build_seed) == \
                   (b.molecule, b.graph, b.build_seed)
            assert a.conformation.elements == b.conformation.elements
            assert a.conformation.positions.tobytes() == \
                   b.conformation.positions.tobytes()

    def test_identical_graph_entries_share_one_graph(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_dataset(path, build_records(n_molecules=3, n_conf=4))
        loaded = read_dataset(path)
        graphs = {}
        for r in loaded:
            assert graphs.setdefault(r.molecule, r.graph) is r.graph
        assert len({id(g) for g in graphs.values()}) == 3

    def test_entries_equal_only_as_numbers_keep_their_own_graph(self, tmp_path):
        # true, 1 and 1.0 compare equal, but each is written back as it was read
        path = tmp_path / "data.jsonl"
        write_dataset(path, build_records(n_molecules=1, n_conf=1))
        header, line = path.read_text().splitlines()
        lines = [header]
        for flag in (True, 1, 1.0, True):
            doc = json.loads(line)
            doc["graph"]["bonds"][0]["aromatic"] = flag
            lines.append(json.dumps(doc))
        path.write_text("\n".join(lines) + "\n")
        loaded = read_dataset(path)
        assert loaded[0].graph == loaded[1].graph == loaded[2].graph
        assert len({id(r.graph) for r in loaded}) == 3
        assert loaded[3].graph is loaded[0].graph
        again = tmp_path / "again.jsonl"
        write_dataset(again, loaded)
        assert again.read_text() == path.read_text()

    def test_bad_graph_after_a_good_copy_names_its_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_dataset(path, build_records(n_molecules=1, n_conf=3))
        lines = path.read_text().splitlines()
        doc = json.loads(lines[3])
        doc["graph"]["bonds"][0]["j"] = doc["graph"]["bonds"][0]["i"]  # a self-loop
        lines[3] = json.dumps(doc)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=r":4: bad record: .*self-loop"):
            read_dataset(path)

    def test_second_bond_graph_of_a_molecule_names_its_line(self, tmp_path):
        # was read: `train` measured the second graph's conformations along
        # the first graph's extended edges, and `evaluate f f` reported that
        # the file differs from itself
        records = build_records(n_molecules=2, n_conf=2)
        assert records[2].graph != records[0].graph
        renamed = [DatasetRecord("mol0", r.graph, r.build_seed, r.conformation)
                   for r in records[2:]]
        path = tmp_path / "data.jsonl"
        write_dataset(path, records[:2] + renamed)
        with pytest.raises(ParseError, match=r":4: bad record: molecule 'mol0' has "
                                             r"another bond graph than on line 2$"):
            read_dataset(path)

    def test_second_build_seed_of_a_molecule_names_its_line(self, tmp_path):
        # was read: the seed picks the extended edges, and `train` measured
        # the second seed's conformations along the first seed's edges, while
        # `evaluate f f` reported that the file differs from itself
        records = build_records(n_molecules=1, n_conf=3)
        records[2].build_seed += 1
        path = tmp_path / "data.jsonl"
        write_dataset(path, records)
        with pytest.raises(ParseError, match=r":4: bad record: molecule 'mol0' has "
                                             r"another build seed than on line 2$"):
            read_dataset(path)

    @pytest.mark.parametrize("seed", [-3, 1.5, "7", True])
    def test_build_seed_must_be_a_non_negative_integer(self, tmp_path, seed):
        # was read: -3 failed later in build_extended_graph, naming no file,
        # and 1.5, "7" and true were read as 1, 7 and 1
        path = tmp_path / "data.jsonl"
        write_dataset(path, build_records(n_molecules=1, n_conf=3))
        lines = path.read_text().splitlines()
        doc = json.loads(lines[2])
        doc["build_seed"] = seed
        lines[2] = json.dumps(doc)
        path.write_text("\n".join(lines) + "\n")
        message = (r":3: bad record: build_seed must be a non-negative integer, "
                   f"got {re.escape(repr(seed))}$")
        with pytest.raises(ParseError, match=message):
            read_dataset(path)
        with pytest.raises(ParseError, match=message):
            oracle_read(path)

    def test_foreign_header_rejected(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"format": "something-else", "version": 1}\n')
        with pytest.raises(ParseError):
            read_dataset(path)

    @pytest.mark.parametrize("header", ["[1]", '"x"', "null"])
    def test_header_that_is_not_an_object_rejected(self, tmp_path, header):
        path = tmp_path / "data.jsonl"
        write_dataset(path, build_records(n_molecules=1, n_conf=1))
        path.write_text(header + "\n" + path.read_text().split("\n", 1)[1])
        with pytest.raises(ParseError, match=r":1: bad dataset header: expected format"):
            read_dataset(path)


# molecule-name pieces that JSON escapes or that look like record syntax
NAME_PIECES = ['"', "\\", "é", "分子", "\u00a0", "\u2028", ", \"positions\": ", "}", "a"]
# coordinates: arbitrary floats, integral floats and -0.0
COORDINATES = (st.floats(-1e4, 1e4) | st.integers(-1000, 1000).map(float)
               | st.just(-0.0))


@st.composite
def codec_records(draw):
    """Records of 1-40 atoms whose names, coordinates and build seeds stress
    the record codec. Each run of records draws its graph, its name and its
    build seed from pools of one or two, so graph objects are shared between
    molecules and two heads may differ only in their name or only in their
    seed. Names repeat often, and a name drawn with two graphs or two seeds
    breaks a rule that the reader enforces: in about 15% of draws each."""
    graphs = []
    for _ in range(draw(st.integers(1, 2))):
        n = draw(st.integers(1, 40))
        elements = draw(st.lists(st.sampled_from(["H", "C", "O"]), min_size=n,
                                 max_size=n))
        graphs.append(MolGraph.from_elements(
            elements, [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]))
    name = (st.lists(st.sampled_from(NAME_PIECES), max_size=4).map("".join)
            | st.text(max_size=4))
    names = draw(st.lists(name, min_size=1, max_size=2))
    seeds = draw(st.lists(st.integers(0, 2**32), min_size=1, max_size=2))
    records = []
    for _ in range(draw(st.integers(1, 4))):
        graph = draw(st.sampled_from(graphs))
        molecule = draw(st.sampled_from(names))
        seed = draw(st.sampled_from(seeds))
        for _ in range(draw(st.integers(1, 3))):
            positions = draw(hnp.arrays(np.float64, (graph.n_atoms, 3),
                                        elements=COORDINATES, unique=True))
            try:
                conformation = Conformation(graph.elements, positions)
            except GraphStructureError:
                reject()
            records.append(DatasetRecord(molecule, graph, seed, conformation))
    return records


def oracle_read(path):
    """The reference for read_dataset: each record line parsed whole, as
    before the head fast path, its graph shared by the repr of its entry, and
    each molecule's graph compared, by value, and then its build seed with
    those of its first record."""
    records, graphs, firsts = [], {}, {}
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header.strip():
            return records
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                d = json.loads(line)
                key = repr(d["graph"])
                graph = graphs.get(key)
                if graph is None:
                    graph = graphs[key] = dataio.graph_from_dict(d["graph"])
                seed = d["build_seed"]
                if type(seed) is not int or seed < 0:
                    raise ValueError("build_seed must be a non-negative integer, "
                                     f"got {seed!r}")
                record = DatasetRecord(
                    molecule=str(d["molecule"]), graph=graph, build_seed=seed,
                    conformation=Conformation(graph.elements,
                                              np.asarray(d["positions"])))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError,
                    DomainError) as e:
                raise ParseError(f"{path}:{lineno}: bad record: {e}") from e
            first_graph, first_seed, first_line = firsts.setdefault(
                record.molecule, (graph, record.build_seed, lineno))
            if graph != first_graph:
                raise ParseError(f"{path}:{lineno}: bad record: molecule "
                                 f"{record.molecule!r} has another bond graph than on "
                                 f"line {first_line}")
            if record.build_seed != first_seed:
                raise ParseError(f"{path}:{lineno}: bad record: molecule "
                                 f"{record.molecule!r} has another build seed than on "
                                 f"line {first_line}")
            records.append(record)
    return records


def broken_rule(records):
    """None, or the one-per-molecule rule that the first record to break one
    breaks: "bond graph" or "build seed", the graph compared first."""
    firsts: dict = {}
    for r in records:
        graph, seed = firsts.setdefault(r.molecule, (r.graph, r.build_seed))
        if r.graph != graph:
            return "bond graph"
        if r.build_seed != seed:
            return "build seed"
    return None


def assert_same_records(a, b):
    """Same molecules, seeds, graph entries (as JSON, with 1, 1.0 and true
    apart), graph sharing, elements and position bits."""
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert (type(x.molecule), x.molecule, type(x.build_seed), x.build_seed) == \
               (type(y.molecule), y.molecule, type(y.build_seed), y.build_seed)
        assert repr(dataio.graph_to_dict(x.graph)) == repr(dataio.graph_to_dict(y.graph))
        assert x.conformation.elements == y.conformation.elements
        assert x.conformation.positions.tobytes() == y.conformation.positions.tobytes()
    assert [[x.graph is z.graph for z in a] for x in a] == \
           [[y.graph is z.graph for z in b] for y in b]


def outcome(read, path):
    """The records `read` gives for `path`, or its ParseError's text."""
    try:
        return read(path), None
    except ParseError as e:
        return None, str(e)


def _reordered(line):
    d = json.loads(line)
    return json.dumps({k: d[k] for k in ["positions", "build_seed", "molecule", "graph"]})


def _nan_coordinate(line):
    d = json.loads(line)
    d["positions"][0][0] = float("nan")
    return json.dumps(d)


def _short_row(line):
    d = json.loads(line)
    d["positions"][-1] = d["positions"][-1][:2]
    return json.dumps(d)


def _one_atom_short(line):
    d = json.loads(line)
    d["positions"].pop()
    return json.dumps(d)


def _coincident(line):
    d = json.loads(line)
    d["positions"][-1] = d["positions"][0]
    return json.dumps(d)


def _bad_graph(line):
    d = json.loads(line)
    d["graph"]["nodes"][0]["chiral"] = "sideways"
    return json.dumps(d)


# line -> mutated line; each gives the whole-line reader's record or error
LINE_MUTATIONS = {
    "reordered keys": _reordered,
    "compact separators": lambda line: json.dumps(json.loads(line), separators=(",", ":")),
    "CRLF end": lambda line: line + "\r",
    "trailing blanks": lambda line: line + " \t ",
    "form feed after": lambda line: line + "\f",
    "duplicate positions": lambda line: line[:-1] + ', "positions": [[0.0, 0.0, 0.0]]}',
    "brace after": lambda line: line + "}",
    "object after": lambda line: line + ' {"a": 1}',
    "text after coordinates": lambda line: line[:-1] + " 5}",
    "key after coordinates": lambda line: line[:-1] + ', "note": "x"}',
    "no closing brace": lambda line: line[:-1],
    "non-finite coordinate": _nan_coordinate,
    "coincident atoms": _coincident,
    "overflowing coordinate": lambda line: line.replace(", \"positions\": [[",
                                                        ", \"positions\": [[1e999, "),
    "short row": _short_row,
    "unbalanced brackets": lambda line: line.replace(", \"positions\": [[",
                                                     ", \"positions\": [[[", 1),
    "one atom short": _one_atom_short,
    "positions a string": lambda line: line[:line.rindex(", \"positions\": ")]
    + ', "positions": "x"}',
    "bad graph": _bad_graph,
    "graph a number": lambda line: line.replace('"graph": {', '"graph": 5, "g": {', 1),
    "empty head": lambda line: '{' + line[line.rindex(", \"positions\": "):],
}


class TestRecordCodec:
    @settings(max_examples=60, deadline=None)
    @given(records=codec_records())
    def test_lines_are_json_dumps_and_read_back(self, records):
        """Each line is json.dumps of its record object, and the file reads
        back as the records, where writing what was read gives the same
        bytes; or, when a name has two graphs or two build seeds, it fails
        as the oracle does, naming the rule."""
        rule = broken_rule(records)
        with tempfile.TemporaryDirectory() as root:
            path, again = Path(root) / "a.jsonl", Path(root) / "b.jsonl"
            write_dataset(path, records)
            lines = path.read_text(encoding="utf-8").split("\n")
            assert lines[1:] == [json.dumps(dataio._record_to_dict(r))
                                 for r in records] + [""]
            loaded, error = outcome(read_dataset, path)
            want, want_error = outcome(oracle_read, path)
            assert error == want_error
            assert (error is None) == (rule is None)
            if rule is not None:
                assert f"has another {rule} than on line" in error
            if loaded is not None:
                for a, b in zip(records, loaded):
                    assert (a.molecule, a.graph, a.build_seed) == \
                           (b.molecule, b.graph, b.build_seed)
                assert_same_records(loaded, want)
                write_dataset(again, loaded)
                assert again.read_bytes() == path.read_bytes()

    @settings(max_examples=80, deadline=None)
    @given(records=codec_records(), data=st.data())
    def test_mutated_lines_read_as_whole_lines(self, records, data):
        """Lines changed in ways that the head fast path does not fit give
        the whole-line reader's records, or its ParseError text."""
        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "a.jsonl"
            write_dataset(path, records)
            header, *lines = path.read_text(encoding="utf-8").splitlines()
            for index in data.draw(st.sets(st.integers(0, len(lines) - 1), min_size=1)):
                mutation = data.draw(st.sampled_from(sorted(LINE_MUTATIONS)))
                lines[index] = LINE_MUTATIONS[mutation](lines[index])
            path.write_bytes("\n".join([header, *lines, ""]).encode("utf-8"))
            got, error = outcome(read_dataset, path)
            want, want_error = outcome(oracle_read, path)
        assert error == want_error
        if want is not None:
            assert_same_records(got, want)

    @pytest.mark.parametrize("mutation", sorted(LINE_MUTATIONS))
    def test_each_mutation_on_the_second_line(self, tmp_path, mutation):
        """Every mutation once, on a line whose head the first line has
        already parsed."""
        path = tmp_path / "data.jsonl"
        write_dataset(path, build_records(n_molecules=1, n_conf=3))
        header, *lines = path.read_text(encoding="utf-8").splitlines()
        lines[1] = LINE_MUTATIONS[mutation](lines[1])
        path.write_bytes("\n".join([header, *lines, ""]).encode("utf-8"))
        got, error = outcome(read_dataset, path)
        want, want_error = outcome(oracle_read, path)
        assert error == want_error
        if want is not None:
            assert_same_records(got, want)

    @pytest.mark.parametrize("mutation", ["non-finite coordinate", "coincident atoms",
                                          "one atom short"])
    def test_bad_line_in_the_middle_of_a_head_group(self, tmp_path, mutation):
        """The third of five lines of one head fails: the whole-line reader's
        ParseError, naming line 4."""
        path = tmp_path / "data.jsonl"
        write_dataset(path, build_records(n_molecules=1, n_conf=5))
        header, *lines = path.read_text(encoding="utf-8").splitlines()
        lines[2] = LINE_MUTATIONS[mutation](lines[2])
        path.write_text("\n".join([header, *lines, ""]), encoding="utf-8")
        _, error = outcome(read_dataset, path)
        assert error == outcome(oracle_read, path)[1]
        assert error.startswith(f"{path}:4: bad record: ")

    @pytest.mark.parametrize("whole_first", [True, False])
    def test_first_bad_line_in_file_order_raises(self, tmp_path, whole_first):
        """A line that the stack check rejects and a line that is read whole
        and fails, in two interleaved head groups: the earlier one raises."""
        path = tmp_path / "data.jsonl"
        write_dataset(path, build_records(n_molecules=2, n_conf=3))
        header, *lines = path.read_text(encoding="utf-8").splitlines()
        lines = [lines[k] for k in (0, 3, 1, 4, 2, 5)]  # A B A B A B
        stacked, whole = (3, 2) if whole_first else (1, 4)
        lines[stacked] = _coincident(lines[stacked])
        lines[whole] = lines[whole][:-1]  # no closing brace
        path.write_text("\n".join([header, *lines, ""]), encoding="utf-8")
        _, error = outcome(read_dataset, path)
        assert error == outcome(oracle_read, path)[1]
        assert error.startswith(f"{path}:{min(stacked, whole) + 2}: bad record: ")

    def test_interleaved_heads_keep_file_order(self, tmp_path):
        path = tmp_path / "data.jsonl"
        records = build_records(n_molecules=3, n_conf=4)
        write_dataset(path, [records[4 * (k % 3) + k // 3] for k in range(12)])
        loaded = read_dataset(path)
        assert [r.molecule for r in loaded] == [records[4 * (k % 3)].molecule
                                                for k in range(12)]
        assert_same_records(loaded, oracle_read(path))

    def test_coordinates_valid_only_when_joined_raise_at_the_first(self, tmp_path):
        """Each line's coordinates are parsed alone: these two texts are each
        invalid, though joined by a comma they read as two 2-atom records."""
        graph = MolGraph.from_elements(["C", "O"], [(0, 1)])
        path = tmp_path / "data.jsonl"
        write_dataset(path, [DatasetRecord("co", graph, 1, Conformation(
            graph.elements, [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]))])
        header, line = path.read_text(encoding="utf-8").splitlines()
        head = line[:line.rindex(", \"positions\": ") + len(", \"positions\": ")]
        path.write_text("\n".join([header, head + "[[0,0,0],[1,1,1]],[[2,2,2]}",
                                   head + "[3,3,3]]}", ""]), encoding="utf-8")
        _, error = outcome(read_dataset, path)
        assert error == outcome(oracle_read, path)[1]
        assert error.startswith(f"{path}:2: bad record: ")

    def test_seed_alone_tells_heads_apart(self, tmp_path):
        """One molecule and graph under two build seeds: the writer gives
        each record its own seed, and the reader rejects the second seed,
        as it does when reading the lines whole."""
        [a, b] = build_records(n_molecules=1, n_conf=2)
        b.build_seed = a.build_seed + 1
        path = tmp_path / "data.jsonl"
        write_dataset(path, [a, b, a])
        _, *lines = path.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["build_seed"] for line in lines] == \
               [a.build_seed, b.build_seed, a.build_seed]
        _, error = outcome(read_dataset, path)
        assert error == outcome(oracle_read, path)[1]
        assert error.endswith(":3: bad record: molecule 'mol0' has another build "
                              "seed than on line 2")


class TestSyntheticBenchmark:
    def test_record_counting(self):
        spec = toy10_spec(30)
        spec["molecules"] = spec["molecules"][:2]
        records, _ = make_synthetic_benchmark(spec, seed=5)
        assert len(records) == 60
        by_mol = dataio.group_records(records)
        assert all(len(confs) == 30 for _, _, confs in by_mol.values())

    def test_same_seed_identical_dataset(self, tmp_path):
        spec = toy10_spec(15)
        spec["molecules"] = spec["molecules"][:2]
        a, _ = make_synthetic_benchmark(spec, seed=9)
        b, _ = make_synthetic_benchmark(spec, seed=9)
        for ra, rb in zip(a, b):
            assert ra.molecule == rb.molecule
            assert ra.build_seed == rb.build_seed
            assert np.array_equal(ra.conformation.positions, rb.conformation.positions)
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_dataset(pa, a)
        write_dataset(pb, b)
        assert pa.read_bytes() == pb.read_bytes()

    def test_single_bond_marginal_matches_quadrature(self):
        spec = {
            "format": dataio.BENCHMARK_FORMAT,
            "version": 1,
            "temperature": 500.0,
            "defaults": {"count": 4000, "burn_in": 3000, "thin": 15,
                         "step": 0.06, "tune": True},
            "molecules": [{
                "name": "bond",
                "elements": ["O", "H"],
                "bonds": [{"i": 0, "j": 1}],
                "energy": {"bonds": [{"i": 0, "j": 1, "rest": 0.96,
                                      "stiffness": 1700.0}]},
            }],
        }
        records, _ = make_synthetic_benchmark(spec, seed=3)
        d = np.array([
            np.linalg.norm(r.conformation.positions[0] - r.conformation.positions[1])
            for r in records
        ])
        kbt = 8.314462618e-3 * 500.0
        mean_q, var_q = single_bond_quadrature(0.96, 1700.0, kbt)
        assert abs(d.mean() - mean_q) / mean_q < 0.05
        assert abs(d.var() - var_q) / var_q < 0.05

    def test_chains_are_stationary(self):
        # ethanol's free hydroxyl torsion is the slowest mode (thousands of
        # steps), so the chain must cover many correlation times and standard
        # errors must account for the remaining autocorrelation
        spec = toy10_spec(2000)
        spec["molecules"] = [m for m in spec["molecules"] if m["name"] == "ethanol"]
        spec["defaults"]["thin"] = 250
        records, _ = make_synthetic_benchmark(spec, seed=21)
        graph, seed, confs = next(iter(dataio.group_records(records).values()))
        eg = dataio.build_extended_graph(graph, seed)
        rows = dataio.extract_distances(eg, confs)

        def tau_int(x):
            n = len(x)
            x = x - x.mean()
            if x.var() == 0:
                return 1.0
            acf = np.correlate(x, x, "full")[n - 1:] / (x.var() * n)
            tau = 1.0
            for w in range(1, n // 3):
                tau = 1.0 + 2.0 * acf[1 : w + 1].sum()
                if w >= 5 * tau:
                    break
            return max(tau, 1.0)

        half = len(rows) // 2
        for k in range(rows.shape[1]):
            a, b = rows[:half, k], rows[half:, k]
            se = np.sqrt(a.var() * tau_int(a) / len(a)
                         + b.var() * tau_int(b) / len(b))
            assert abs(a.mean() - b.mean()) < 3 * se, k

    def test_pathological_step_raises_generation_error(self):
        spec = toy10_spec(20)
        spec["molecules"] = spec["molecules"][:1]
        spec["defaults"].update({"step": 150.0, "tune": False, "burn_in": 50})
        with pytest.raises(GenerationError):
            make_synthetic_benchmark(spec, seed=0)

    @pytest.mark.parametrize("count", [1, dataio.JUDGED_STEPS - 1])
    def test_short_kept_phase_is_not_judged(self, count):
        """With fewer kept steps than it takes one acceptance to reach 1%,
        a chain that accepts nothing still writes its records."""
        spec = toy10_spec(count)
        spec["molecules"] = spec["molecules"][:1]
        spec["defaults"].update({"thin": 1, "step": 150.0, "tune": False, "burn_in": 50})
        records, report = make_synthetic_benchmark(spec, seed=0)
        assert len(records) == count
        assert (report[0]["acceptance_rate"], report[0]["steps"]) == (0.0, count)

    def test_stuck_for_the_judged_steps_raises(self):
        spec = toy10_spec(dataio.JUDGED_STEPS)
        spec["molecules"] = spec["molecules"][:1]
        spec["defaults"].update({"thin": 1, "step": 150.0, "tune": False, "burn_in": 50})
        with pytest.raises(GenerationError, match="acceptance 0.00% is pathologically low"):
            make_synthetic_benchmark(spec, seed=0)

    def test_lockstep_records_match_chains_run_alone(self):
        """Each molecule's records and report are those of its own chain,
        run alone with its child seeds, under per-molecule overrides."""
        spec = toy10_spec(10)
        spec["molecules"] = spec["molecules"][:4]
        spec["defaults"].update({"burn_in": 400, "thin": 5})
        spec["molecules"][0].update({"count": 17, "thin": 3})
        spec["molecules"][1].update({"burn_in": 0, "step": 0.02, "tune": False})
        spec["molecules"][3].update({"count": 8, "burn_in": 633, "step": 0.05})
        records, report = make_synthetic_benchmark(spec, seed=17)
        grouped = dataio.group_records(records)
        assert list(grouped) == [m["name"] for m in spec["molecules"]]
        assert [r["molecule"] for r in report] == list(grouped)
        cfg = ISConfig(temperature=spec["temperature"])
        for index, entry in enumerate(spec["molecules"]):
            sched = {**spec["defaults"], **entry}
            model = dataio.molecule_energy_model(
                entry["name"], entry["energy"], len(entry["elements"]))
            graph = dataio._molecule_graph(entry)
            init_seed, build_seed, chain_seed = np.random.SeedSequence(
                17, spawn_key=(index,)).generate_state(3)
            [start] = edg.embed_bounds([dataio._initial_job(graph, model, int(init_seed))],
                                       tol=dataio.INITIAL_TOL)
            alone = metropolis_sample(
                model, start.conformation,
                steps=sched["count"] * sched["thin"], cfg=cfg,
                rng=np.random.default_rng(int(chain_seed)), step_size=sched["step"],
                burn_in=sched["burn_in"], thin=sched["thin"], tune=sched["tune"])
            _, seed, confs = grouped[entry["name"]]
            assert seed == int(build_seed)
            assert np.stack([c.positions for c in confs]).tobytes() == \
                alone.positions.tobytes()
            assert report[index] == {
                "molecule": entry["name"], "acceptance_rate": alone.acceptance_rate,
                "step_size": alone.step_size, "steps": sched["count"] * sched["thin"],
                "burn_in": sched["burn_in"], "records": sched["count"],
                "start_iterations": start.iterations, "start_converged": start.converged,
                "start_max_violation": start.max_violation}

    @pytest.mark.parametrize("field, value", [
        ("count", 0), ("count", -3), ("count", 1.5), ("count", "20"), ("count", True),
        ("thin", 0), ("thin", 2.5), ("burn_in", -1), ("burn_in", 0.5),
        ("step", 0), ("step", -0.07), ("step", float("nan")), ("step", float("inf")),
        ("step", "0.07"), ("tune", "false"), ("tune", 1),
    ])
    @pytest.mark.parametrize("where", ["entry", "defaults"])
    def test_bad_schedule_named_before_any_chain(self, monkeypatch, field, value,
                                                 where):
        spec = toy10_spec(5)
        spec["molecules"] = spec["molecules"][:3]
        if where == "entry":
            spec["molecules"][2][field] = value
        else:
            spec["defaults"][field] = value

        def no_chain_may_start(*args, **kwargs):
            raise AssertionError("a chain started before the spec was checked")

        monkeypatch.setattr(dataio.edg, "embed_bounds", no_chain_may_start)
        monkeypatch.setattr(dataio, "metropolis_chains", no_chain_may_start)
        with pytest.raises(ParseError) as info:
            make_synthetic_benchmark(spec, seed=0)
        name = spec["molecules"][2 if where == "entry" else 0]["name"]
        assert f"molecule {name!r}: {field} must be" in str(info.value)
        assert ("(from defaults)" in str(info.value)) == (where == "defaults")

    def test_starts_match_per_molecule_initial_conformation(self, monkeypatch):
        """The starts are refined in one loop, each exactly as alone."""
        spec = toy10_spec(5)
        chains = []

        class Captured(Exception):
            pass

        def capture(given, cfg):
            chains.extend(given)
            raise Captured

        monkeypatch.setattr(dataio, "metropolis_chains", capture)
        with pytest.raises(Captured):
            make_synthetic_benchmark(spec, seed=23)
        assert len(chains) == len(spec["molecules"])
        for index, (entry, chain) in enumerate(zip(spec["molecules"], chains)):
            init_seed = np.random.SeedSequence(23, spawn_key=(index,)).generate_state(3)[0]
            alone = dataio.initial_conformation(
                dataio._molecule_graph(entry),
                dataio.molecule_energy_model(entry["name"], entry["energy"],
                                             len(entry["elements"])),
                int(init_seed))
            assert chain.x0.elements == alone.elements
            assert chain.x0.positions.tobytes() == alone.positions.tobytes(), entry["name"]

    def test_duplicate_molecule_name(self):
        # two molecules under one id would share one extended graph downstream
        spec = toy10_spec(5)
        spec["molecules"][3]["name"] = spec["molecules"][1]["name"]
        with pytest.raises(ParseError, match="molecule 'ethanol' appears more than once"):
            make_synthetic_benchmark(spec, seed=0)

    @pytest.mark.parametrize("key", ["elements", "bonds", "energy"])
    def test_missing_topology_or_energy(self, key):
        spec = toy10_spec(5)
        del spec["molecules"][2][key]
        with pytest.raises(ParseError, match=f"molecule 'propane': .*'{key}'"):
            make_synthetic_benchmark(spec, seed=0)

    def test_integral_floats_are_integers(self):
        spec = toy10_spec(4)
        spec["molecules"] = spec["molecules"][:1]
        as_ints, _ = make_synthetic_benchmark(spec, seed=2)
        spec["defaults"].update({"count": 4.0, "burn_in": 5000.0, "thin": 20.0})
        as_floats, _ = make_synthetic_benchmark(spec, seed=2)
        assert [r.conformation.positions.tobytes() for r in as_ints] == \
            [r.conformation.positions.tobytes() for r in as_floats]

    @pytest.mark.parametrize("value", [0, -500.0, float("nan"), float("inf"), "500"])
    def test_bad_temperature(self, value):
        spec = toy10_spec(5)
        spec["temperature"] = value
        with pytest.raises(ParseError, match="temperature must be"):
            make_synthetic_benchmark(spec, seed=0)

    @pytest.mark.parametrize("name", [None, "", 7])
    def test_bad_molecule_name(self, name):
        spec = toy10_spec(5)
        spec["molecules"][1]["name"] = name
        with pytest.raises(ParseError, match="molecule name"):
            make_synthetic_benchmark(spec, seed=0)

    @pytest.mark.parametrize("later, message", [
        (("angles", "rest", "x"), "angle 0 rest must be a finite number, got 'x'"),
        (("steric", "floor", None), "steric term floor must be a finite number, got None"),
        (None, "bond 0 names atoms (0, 99)"),
    ])
    def test_term_values_are_checked_before_atoms(self, later, message):
        """Bond 0 names a missing atom; a bad value in any term, even a later
        one, is the error reported."""
        entry = toy10_spec(5)["molecules"][1]
        energy = entry["energy"]
        energy["bonds"][0]["j"] = 99
        energy.setdefault("steric", {"floor": 1.5, "stiffness": 10.0})
        if later is not None:
            kind, key, value = later
            (energy[kind][0] if kind == "angles" else energy[kind])[key] = value
        with pytest.raises(ParseError) as raised:
            dataio.molecule_energy_model("ethanol", energy, len(entry["elements"]))
        assert str(raised.value) == f"molecule 'ethanol': {message}" + (
            "; each must be a distinct integer from 0 to 8" if later is None else "")

    def test_default_spec_loads_from_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(toy10_spec(5)))
        spec = dataio.load_benchmark_spec(path)
        assert len(spec["molecules"]) == 10

    @settings(max_examples=60, deadline=None)
    @given(spec=benchmark_specs())
    def test_spec_round_trip_property(self, spec):
        """A valid spec written as JSON reads back as drawn: the spec, each
        molecule's topology and energy model, and its schedule (entry, else
        defaults, else the built-in default, integral floats as integers)."""
        from confgen.boltzmann import AngleTerm, BondTerm, EnergyModel, StericTerm

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "spec.json"
            path.write_text(json.dumps(spec), encoding="utf-8")
            loaded = dataio.load_benchmark_spec(path)
        assert loaded == spec
        for entry in loaded["molecules"]:
            n = len(entry["elements"])
            graph = dataio._molecule_graph(entry)
            assert graph.elements == tuple(entry["elements"])
            assert [(b.i, b.j) for b in graph.bonds] == \
                [(b["i"], b["j"]) for b in entry["bonds"]]
            energy, steric = entry["energy"], entry["energy"].get("steric")
            expected = EnergyModel(
                [BondTerm(t["i"], t["j"], t["rest"], t["stiffness"])
                 for t in energy["bonds"]],
                [AngleTerm(t["i"], t["j"], t["k"], t["rest"], t["stiffness"])
                 for t in energy["angles"]],
                StericTerm(steric["floor"], steric["stiffness"]) if steric else None)
            model = dataio.molecule_energy_model(entry["name"], energy, n)
            assert repr(model) == repr(expected)
            schedule = dataio._chain_schedule(entry, loaded["defaults"])
            for key, (fallback, _, _) in dataio._SCHEDULE.items():
                drawn = entry.get(key, loaded["defaults"].get(key, fallback))
                assert schedule[key] == drawn
                assert type(schedule[key]) is type(fallback)

    def test_training_pairs_share_one_extended_graph(self, tiny_benchmark_records):
        records, _ = tiny_benchmark_records
        pairs = dataio.training_pairs(records)
        by_mol = {}
        for mol, eg, d in pairs:
            by_mol.setdefault(mol, set()).add(id(eg))
            assert d.shape == (eg.n_edges,)
        assert all(len(ids) == 1 for ids in by_mol.values())


def uniform_slack_bounds(graph, model):
    """Start bounds with one slack for every angle: bonds at rest +- 0.01 A
    and every angle's 1-3 distance at its law-of-cosines value +- 0.05 A; the
    oracle for molecules without a three-membered ring."""
    n = graph.n_atoms
    lower = np.full((n, n), edg.STERIC_FLOOR)
    upper = np.full((n, n), edg.DISTANCE_CEILING)

    def clamp(i, j, d, slack):
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
            clamp(t.i, t.k, d13, 0.05)
    np.fill_diagonal(lower, 0.0)
    np.fill_diagonal(upper, 0.0)
    return lower, upper


# toy10's rest lengths per element pair
_REST = {frozenset("CC"): 1.526, frozenset("CO"): 1.43, frozenset("CH"): 1.09}


def ring3_entry(name, elements, ring, bonds):
    """A spec entry built by toy10's rules for a molecule with the one
    three-membered ring `ring`: inside the ring the law-of-cosines angles of
    its bond rest lengths, every other angle tetrahedral."""
    rest = {frozenset((i, j)): _REST[frozenset(elements[i] + elements[j])]
            for i, j in bonds}
    angles = []
    for j in range(len(elements)):
        around = sorted(a for i, k in bonds for a in (i, k) if j in (i, k) and a != j)
        for x, i in enumerate(around):
            for k in around[x + 1:]:
                a, b = rest[frozenset((i, j))], rest[frozenset((k, j))]
                c = rest.get(frozenset((i, k)))
                angle = (math.acos(-1 / 3) if c is None
                         else math.acos((a * a + b * b - c * c) / (2 * a * b)))
                angles.append({"i": i, "j": j, "k": k, "rest": angle, "stiffness": 250.0})
    return {"name": name, "elements": list(elements),
            "bonds": [{"i": i, "j": j, "rings": [3] if {i, j} <= ring else []}
                      for i, j in bonds],
            "energy": {"bonds": [{"i": i, "j": j, "rest": rest[frozenset((i, j))],
                                  "stiffness": 1500.0} for i, j in bonds],
                       "angles": angles, "steric": {"floor": 1.5, "stiffness": 100.0}}}


def graph_and_model(entry):
    graph = dataio._molecule_graph(entry)
    return graph, dataio.molecule_energy_model(entry["name"], entry["energy"],
                                               graph.n_atoms)


class TestInitialBounds:
    def test_toy10_starts_converge_well_inside_the_cap(self):
        """Molecule i's start on init seed 1000 + i converges to INITIAL_TOL in
        under a tenth of the refine cap, and every molecule's start converges
        on each init seed 1000-1009."""
        seeds = range(1000, 1010)
        for index, entry in enumerate(toy10_spec(1)["molecules"]):
            graph, model = graph_and_model(entry)
            starts = edg.embed_bounds([dataio._initial_job(graph, model, seed)
                                       for seed in seeds], tol=dataio.INITIAL_TOL)
            for seed, start in zip(seeds, starts):
                assert start.converged, (entry["name"], seed, start.max_violation)
                assert start.max_violation <= dataio.INITIAL_TOL
            assert starts[index].iterations < edg.REFINE_MAX_ITER // 10, entry["name"]

    def test_bounds_without_a_three_ring_use_uniform_slack(self):
        molecules = toy10_spec(1)["molecules"]
        plain = [e for e in molecules
                 if not any(3 in b.get("rings", ()) for b in e["bonds"])]
        assert len(plain) == 9 and "oxirane" not in [e["name"] for e in plain]
        for entry in plain:
            graph, model = graph_and_model(entry)
            elements, bounds, rng = dataio._initial_job(graph, model, 7)
            lower, upper = uniform_slack_bounds(graph, model)
            assert elements == graph.elements
            assert bounds.lower.tobytes() == lower.tobytes(), entry["name"]
            assert bounds.upper.tobytes() == upper.tobytes(), entry["name"]
            assert rng.random() == np.random.default_rng(7).random()

    def test_only_angles_at_ring_atoms_widen(self):
        """Oxirane's bounds differ from the uniform-slack ones at the 1-3 pairs
        of angles centred on its ring atoms alone, by the ring slack."""
        [entry] = [e for e in toy10_spec(1)["molecules"] if e["name"] == "oxirane"]
        graph, model = graph_and_model(entry)
        _, bounds, _ = dataio._initial_job(graph, model, 0)
        lower, upper = uniform_slack_bounds(graph, model)
        widened = {frozenset((t.i, t.k)) for t in model.angles if t.j in (0, 1, 2)
                   and not {t.i, t.k} <= {0, 1, 2}}
        assert len(widened) == 10
        extra = dataio.RING3_ANGLE_SLACK - 0.05
        for i in range(graph.n_atoms):
            for j in range(graph.n_atoms):
                if frozenset((i, j)) in widened:
                    assert bounds.lower[i, j] == pytest.approx(lower[i, j] - extra)
                    assert bounds.upper[i, j] == pytest.approx(upper[i, j] + extra)
                else:
                    assert (bounds.lower[i, j], bounds.upper[i, j]) == \
                        (lower[i, j], upper[i, j])

    def test_substituted_three_ring_converges(self):
        """Methyloxirane, built by toy10's rules, starts within INITIAL_TOL;
        with uniform-slack bounds it ends at the cap."""
        entry = ring3_entry(
            "methyloxirane", "CCOCHHHHHH", {0, 1, 2},
            [(0, 1), (0, 2), (1, 2), (1, 3), (0, 4), (0, 5), (1, 6), (3, 7), (3, 8),
             (3, 9)])
        graph, model = graph_and_model(entry)
        starts = edg.embed_bounds([dataio._initial_job(graph, model, seed)
                                   for seed in range(10)], tol=dataio.INITIAL_TOL)
        for start in starts:
            assert start.converged and start.iterations < edg.REFINE_MAX_ITER // 10
        [uniform] = edg.embed_bounds(
            [(graph.elements, edg.BoundsMatrix(*uniform_slack_bounds(graph, model)),
              np.random.default_rng(0))], tol=dataio.INITIAL_TOL)
        assert not uniform.converged and uniform.iterations == edg.REFINE_MAX_ITER
