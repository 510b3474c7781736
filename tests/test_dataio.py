import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st
from hypothesis.extra import numpy as hnp

from confgen import dataio
from confgen.boltzmann import ISConfig, metropolis_sample
from confgen.dataio import (
    DatasetRecord,
    GenerationError,
    ParseError,
    make_synthetic_benchmark,
    read_dataset,
    split_disjoint,
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
    """A few molecules (random trees with random attributes), each with a
    few conformations holding arbitrary finite, pairwise distinct positions.
    """
    records = []
    for _ in range(draw(st.integers(0, 3))):
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
        molecule = draw(st.text(max_size=6))
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
    the record codec. Graph objects are shared between molecules, and one
    molecule may carry a second build seed, so that two heads differ only in
    their name or only in their seed."""
    graphs = []
    for _ in range(draw(st.integers(1, 2))):
        n = draw(st.integers(1, 40))
        elements = draw(st.lists(st.sampled_from(["H", "C", "O"]), min_size=n,
                                 max_size=n))
        graphs.append(MolGraph.from_elements(
            elements, [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]))
    name = (st.lists(st.sampled_from(NAME_PIECES), max_size=4).map("".join)
            | st.text(max_size=4))
    records = []
    for _ in range(draw(st.integers(1, 3))):
        graph = draw(st.sampled_from(graphs))
        molecule = draw(name)
        seeds = draw(st.lists(st.integers(0, 2**32), min_size=1, max_size=2))
        for _ in range(draw(st.integers(1, 3))):
            positions = draw(hnp.arrays(np.float64, (graph.n_atoms, 3),
                                        elements=COORDINATES, unique=True))
            try:
                conformation = Conformation(graph.elements, positions)
            except GraphStructureError:
                reject()
            records.append(DatasetRecord(molecule, graph, draw(st.sampled_from(seeds)),
                                         conformation))
    return records


def oracle_read(path):
    """read_dataset as written before the head fast path: each record line
    parsed whole, its graph shared by the repr of its entry."""
    records, graphs = [], {}
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
                records.append(DatasetRecord(
                    molecule=str(d["molecule"]), graph=graph,
                    build_seed=int(d["build_seed"]),
                    conformation=Conformation(graph.elements,
                                              np.asarray(d["positions"]))))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError,
                    DomainError) as e:
                raise ParseError(f"{path}:{lineno}: bad record: {e}") from e
    return records


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
        """Each line is json.dumps of its record object, the file reads back
        as the records, and writing what was read gives the same bytes."""
        with tempfile.TemporaryDirectory() as root:
            path, again = Path(root) / "a.jsonl", Path(root) / "b.jsonl"
            write_dataset(path, records)
            lines = path.read_text(encoding="utf-8").split("\n")
            assert lines[1:] == [json.dumps(dataio._record_to_dict(r))
                                 for r in records] + [""]
            loaded = read_dataset(path)
            for a, b in zip(records, loaded):
                assert (a.molecule, a.graph, a.build_seed) == \
                       (b.molecule, b.graph, b.build_seed)
            assert_same_records(loaded, oracle_read(path))
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
        """One molecule and graph under two build seeds: each record keeps
        its own seed through write and read."""
        [a, b] = build_records(n_molecules=1, n_conf=2)
        b.build_seed = a.build_seed + 1
        path = tmp_path / "data.jsonl"
        write_dataset(path, [a, b, a])
        assert [r.build_seed for r in read_dataset(path)] == \
               [a.build_seed, b.build_seed, a.build_seed]


class TestSplitDisjoint:
    def test_ten_molecules_80_10_10(self):
        records = build_records(n_molecules=10, n_conf=3)
        manifest = split_disjoint(records, (0.8, 0.1, 0.1), seed=1)
        assert len(manifest.train) == 8
        assert len(manifest.validation) == 1
        assert len(manifest.test) == 1

    def test_every_molecule_in_exactly_one_split(self):
        records = build_records(n_molecules=7, n_conf=4)
        manifest = split_disjoint(records, (0.6, 0.2, 0.2), seed=2)
        all_ids = {r.molecule for r in records}
        seen = list(manifest.train) + list(manifest.validation) + list(manifest.test)
        assert sorted(seen) == sorted(all_ids)
        for r in records:
            assert sum(r.molecule in s for s in
                       (manifest.train, manifest.validation, manifest.test)) == 1

    def test_three_seeds_three_distinct_manifests(self):
        records = build_records(n_molecules=12, n_conf=2)
        manifests = {split_disjoint(records, seed=s).train for s in (1, 2, 3)}
        assert len(manifests) == 3

    def test_too_few_molecules_rejected(self):
        records = build_records(n_molecules=2, n_conf=3)
        with pytest.raises(ValueError):
            split_disjoint(records, (0.8, 0.1, 0.1), seed=0)

    def test_bad_fractions_rejected(self):
        records = build_records(n_molecules=5, n_conf=1)
        with pytest.raises(ValueError):
            split_disjoint(records, (0.5, 0.2, 0.2), seed=0)


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
        rows = np.stack([dataio.extract_distances(eg, c).values for c in confs])

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
            alone = metropolis_sample(
                model, dataio.initial_conformation(graph, model, int(init_seed)),
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
                "burn_in": sched["burn_in"], "records": sched["count"]}

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
