import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from confgen import molgraph
from confgen.molgraph import (
    Bond,
    Conformation,
    FeaturizationError,
    GraphStructureError,
    MolGraph,
    UnsupportedElementError,
    build_extended_graph,
    extract_distances,
    featurize_edge,
    featurize_node,
    graph_hop_distances,
)

from conftest import random_conformation, random_tree


def edge_pairs(eg):
    return list(zip(eg.src.tolist(), eg.dst.tolist()))


def edge_sets(eg):
    by_kind = {"bond": set(), "angle": set(), "dihedral": set()}
    for kind, (i, j) in zip(eg.edge_kinds, edge_pairs(eg)):
        by_kind[kind].add(frozenset((i, j)))
    return by_kind


def brute_force_shells(g):
    """Independent hop-shell oracle: bond pairs and distance-2 pairs."""
    adj = g.neighbors()
    n = g.n_atoms
    hops = np.full((n, n), n + 10)
    for s in range(n):
        hops[s, s] = 0
        frontier = {s}
        d = 0
        while frontier:
            d += 1
            frontier = {u for v in frontier for u in adj[v] if hops[s, u] > n}
            for u in frontier:
                hops[s, u] = d
    bonds = {frozenset((i, j)) for i in range(n) for j in range(i + 1, n)
             if hops[i, j] == 1}
    angles = {frozenset((i, j)) for i in range(n) for j in range(i + 1, n)
              if hops[i, j] == 2}
    return hops, bonds, angles


class TestMolGraph:
    def test_rejects_disconnected(self):
        with pytest.raises(GraphStructureError):
            MolGraph.from_elements(["C", "C", "C"], [(0, 1)])

    def test_rejects_self_loop(self):
        with pytest.raises(GraphStructureError):
            MolGraph.from_elements(["C", "C"], [(0, 0), (0, 1)])

    def test_rejects_duplicate_bond(self):
        with pytest.raises(GraphStructureError):
            MolGraph.from_elements(["C", "C"], [(0, 1), (1, 0)])

    def test_rejects_bad_index(self):
        with pytest.raises(GraphStructureError):
            MolGraph.from_elements(["C", "C"], [(0, 5)])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_accepts_exactly_the_connected_bond_lists(self, data):
        n = data.draw(st.integers(1, 12))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        bonds = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs
                          else st.just([]))
        bonds = [(j, i) if data.draw(st.booleans()) else (i, j) for i, j in bonds]
        parent = list(range(n))  # union-find oracle

        def root(v):
            while parent[v] != v:
                v = parent[v]
            return v

        for i, j in bonds:
            parent[root(i)] = root(j)
        if len({root(v) for v in range(n)}) == 1:
            assert MolGraph.from_elements(["C"] * n, bonds).n_atoms == n
        else:
            with pytest.raises(GraphStructureError, match="^bond graph is disconnected$"):
                MolGraph.from_elements(["C"] * n, bonds)


class TestFeaturizeNode:
    def test_hydrogen_no_chirality(self):
        vec = featurize_node("H", "None")
        assert vec[0] == 1.0
        assert vec[9 + 2] == 1.0
        assert vec.sum() == 2.0

    def test_fluorine_last_element_slot(self):
        vec = featurize_node("F", "None")
        assert vec[8] == 1.0

    def test_carbon_with_r_tag(self):
        vec = featurize_node("C", "R")
        assert vec[molgraph.ELEMENTS.index("C")] == 1.0
        assert vec[9 + 0] == 1.0

    def test_exactly_two_ones(self):
        for element in molgraph.ELEMENTS:
            for tag in molgraph.CHIRAL_TAGS:
                vec = featurize_node(element, tag)
                assert sorted(vec.tolist()).count(1.0) == 2
                assert vec.shape == (12,)

    def test_unsupported_element(self):
        with pytest.raises(UnsupportedElementError):
            featurize_node("Na")


class TestFeaturizeEdge:
    def test_single_bond(self):
        vec = featurize_edge("bond", Bond(0, 1))
        assert vec[0] == 1.0  # kind slot 0
        type_off = 3 + 4
        assert vec[type_off + molgraph.BOND_TYPES.index("single")] == 1.0
        assert vec.shape == (21,)

    def test_angle_encodes_none_slots(self):
        vec = featurize_edge("angle")
        assert vec[1] == 1.0
        assert vec[3 + molgraph.STEREO_TAGS.index("None")] == 1.0
        assert vec[7 + molgraph.BOND_TYPES.index("None")] == 1.0
        assert vec[12] == 0.0 and vec[13] == 0.0  # flags
        assert vec[14:].sum() == 0.0  # ring block

    def test_aromatic_ring6(self):
        vec = featurize_edge("bond", Bond(0, 1, bond_type="aromatic",
                                          is_aromatic=True, ring_sizes=(6,)))
        assert vec[12] == 1.0
        assert vec[14 + molgraph.RING_SIZES.index(6)] == 1.0

    def test_bond_attrs_on_auxiliary_edge(self):
        with pytest.raises(FeaturizationError):
            featurize_edge("dihedral", Bond(0, 1))
        with pytest.raises(FeaturizationError):
            featurize_edge("bond", None)


class TestBuildExtendedGraph:
    def test_water_shape(self, water_graph):
        eg = build_extended_graph(water_graph, seed=0)
        sets = edge_sets(eg)
        assert sets["bond"] == {frozenset((0, 1)), frozenset((0, 2))}
        assert sets["angle"] == {frozenset((1, 2))}
        assert sets["dihedral"] == set()
        assert eg.n_edges == 3

    def test_chain4_gains_one_dihedral(self, chain4_graph):
        eg = build_extended_graph(chain4_graph, seed=0)
        sets = edge_sets(eg)
        assert sets["bond"] == {frozenset(p) for p in [(0, 1), (1, 2), (2, 3)]}
        assert sets["angle"] == {frozenset((0, 2)), frozenset((1, 3))}
        assert sets["dihedral"] == {frozenset((0, 3))}
        assert eg.n_edges == 6

    def test_propane_matches_brute_force(self, propane_graph):
        hops, bonds, angles = brute_force_shells(propane_graph)
        eg = build_extended_graph(propane_graph, seed=4)
        sets = edge_sets(eg)
        assert sets["bond"] == bonds
        assert sets["angle"] == angles
        # oracle: after bonds and angles every node already has three or more
        # incident edges, so the dihedral stage is a no-op
        degree = np.zeros(propane_graph.n_atoms, dtype=int)
        for pair in bonds | angles:
            for v in pair:
                degree[v] += 1
        assert (degree >= 3).all()
        assert sets["dihedral"] == set()
        assert eg.n_edges == len(bonds) + len(angles) == 28

    def test_random_trees_match_shell_oracle(self):
        rng = np.random.default_rng(1234)
        for _ in range(25):
            g = random_tree(int(rng.integers(3, 11)), rng)
            hops, bonds, angles = brute_force_shells(g)
            eg = build_extended_graph(g, seed=9)
            sets = edge_sets(eg)
            assert sets["bond"] == bonds
            assert sets["angle"] == angles
            for pair in sets["dihedral"]:
                i, j = sorted(pair)
                assert hops[i, j] == 3
            # edge-count lower bound and pair uniqueness
            assert eg.n_edges >= len(bonds) + len(angles)
            all_pairs = [frozenset(p) for p in edge_pairs(eg)]
            assert len(all_pairs) == len(set(all_pairs))

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(5)
        g = random_tree(9, rng)
        a = build_extended_graph(g, seed=123)
        b = build_extended_graph(g, seed=123)
        assert np.array_equal(a.src, b.src) and np.array_equal(a.dst, b.dst)
        assert np.array_equal(a.node_features, b.node_features)
        assert np.array_equal(a.edge_features, b.edge_features)
        assert a.edge_kinds == b.edge_kinds

    def test_feature_dimensions(self, propane_graph):
        eg = build_extended_graph(propane_graph, seed=0)
        assert eg.node_features.shape == (11, 12)
        assert eg.edge_features.shape == (eg.n_edges, 21)

    def test_bond_and_angle_sets_are_permutation_consistent(self):
        # the deterministic bond/angle part must commute with relabeling;
        # dihedral draws are checked on a forced-choice instance below
        rng = np.random.default_rng(21)
        for _ in range(10):
            g = random_tree(8, rng)
            perm = rng.permutation(8)
            relabeled = MolGraph.from_elements(
                [g.elements[i] for i in np.argsort(perm)],
                [(int(perm[b.i]), int(perm[b.j])) for b in g.bonds],
            )
            orig = edge_sets(build_extended_graph(g, seed=3))
            new = edge_sets(build_extended_graph(relabeled, seed=3))
            for kind in ("bond", "angle"):
                mapped = {frozenset(int(perm[v]) for v in pair)
                          for pair in orig[kind]}
                assert new[kind] == mapped

    def test_forced_dihedral_is_permutation_consistent(self, chain4_graph):
        perm = np.array([2, 0, 3, 1])  # arbitrary relabeling of the 4-chain
        relabeled = MolGraph.from_elements(
            ["C"] * 4,
            [(int(perm[b.i]), int(perm[b.j])) for b in chain4_graph.bonds],
        )
        orig = edge_sets(build_extended_graph(chain4_graph, seed=11))
        new = edge_sets(build_extended_graph(relabeled, seed=11))
        for kind in ("bond", "angle", "dihedral"):
            mapped = {frozenset(int(perm[v]) for v in pair) for pair in orig[kind]}
            assert new[kind] == mapped


def oracle_has_coincident_atoms(positions) -> bool:
    """The coincidence check over the upper-triangle pairs (triu_indices)."""
    n = len(positions)
    diff = positions[:, None, :] - positions[None, :, :]
    dist2 = (diff**2).sum(axis=2)
    iu = np.triu_indices(n, k=1)
    return not (dist2[iu] > 0.0).all()


@st.composite
def near_duplicate_positions(draw):
    """1-8 atoms; each after the first keeps its drawn row, copies an
    earlier row, or copies one and moves a coordinate by up to 1e-150."""
    n = draw(st.integers(1, 8))
    coords = st.one_of(st.just(0.0), st.floats(-10, 10), st.floats(-1e-150, 1e-150))
    x = draw(hnp.arrays(np.float64, (n, 3), elements=coords))
    for i in range(1, n):
        how = draw(st.sampled_from(["keep", "copy", "nudge"]))
        if how != "keep":
            x[i] = x[draw(st.integers(0, i - 1))]
        if how == "nudge":
            x[i, draw(st.integers(0, 2))] += draw(st.floats(-1e-150, 1e-150))
    return x


class TestExtractDistances:
    def test_axis_aligned_pair(self):
        g = MolGraph.from_elements(["C", "C"], [(0, 1)])
        eg = build_extended_graph(g, seed=0)
        x = Conformation(g.elements, [[0, 0, 0], [1.5, 0, 0]])
        assert extract_distances(eg, [x]).tolist() == [[1.5]]

    def test_isometry_invariance(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            g = random_tree(7, rng)
            eg = build_extended_graph(g, seed=1)
            x = random_conformation(g, rng)
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            moved = Conformation(g.elements, x.positions @ q.T + rng.normal(size=3))
            d0, d1 = extract_distances(eg, [x, moved])
            assert np.abs(d0 - d1).max() < 1e-9

    def test_matches_direct_norms(self):
        rng = np.random.default_rng(3)
        g = random_tree(5, rng)
        eg = build_extended_graph(g, seed=2)
        x = random_conformation(g, rng)
        [d] = extract_distances(eg, [x])
        for k, (i, j) in enumerate(edge_pairs(eg)):
            expected = np.linalg.norm(x.positions[i] - x.positions[j])
            assert d[k] == pytest.approx(expected, abs=0)

    def test_element_mismatch_rejected(self, water_graph):
        eg = build_extended_graph(water_graph, seed=0)
        x = Conformation(("C", "H", "H"), np.eye(3))
        with pytest.raises(GraphStructureError):
            extract_distances(eg, [x])

    def test_coincident_atoms_rejected(self):
        with pytest.raises(GraphStructureError):
            Conformation(("C", "C"), [[0, 0, 0], [0, 0, 0]])

    @settings(max_examples=300, deadline=None)
    @given(positions=near_duplicate_positions())
    def test_coincidence_check_matches_pair_oracle(self, positions):
        """Rows that are copies, or copies nudged by about 1e-160 (whose
        squared gaps may underflow to 0), are coincident exactly when the
        check over the upper-triangle pairs says so."""
        elements = ("C",) * len(positions)
        if oracle_has_coincident_atoms(positions):
            with pytest.raises(GraphStructureError, match="coincident atoms"):
                Conformation(elements, positions)
        else:
            Conformation(elements, positions)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_positions_rejected(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GraphStructureError, match="non-finite"):
                Conformation(("C", "O"), [[0, 0, 0], [bad, 0, 0]])


# what a drawn slice may do to one of its atoms
SLICE_EDITS = ("copy", "underflow", "subnormal", "tiny", "nan", "inf", "-inf")


@st.composite
def position_stacks(draw):
    """Stacks of 0-6 slices of 1-40 atoms with distinct coordinates. An atom
    of a slice may take a NaN or an infinity, copy another atom, or copy it
    with one coordinate moved off 0.0 by a gap that squares to 0.0 (1e-170),
    to a subnormal (1e-160) or to a normal number (1e-150)."""
    n = draw(st.integers(1, 40))
    stack = draw(hnp.arrays(np.float64, (draw(st.integers(0, 6)), n, 3),
                            elements=st.floats(-10, 10), unique=True))
    for x in stack:
        for edit in draw(st.lists(st.sampled_from(SLICE_EDITS), max_size=2)):
            i, j, c = (draw(st.integers(0, n - 1)) for _ in range(3))
            if edit in ("nan", "inf", "-inf"):
                x[i, c % 3] = float(edit)
                continue
            x[i] = x[j]
            if edit != "copy":
                x[j, c % 3] = 0.0
                x[i, c % 3] = {"underflow": 1e-170, "subnormal": 1e-160, "tiny": 1e-150}[edit]
    return stack


class TestConformationStack:
    @settings(max_examples=200, deadline=None)
    @given(stack=position_stacks())
    def test_each_slice_as_alone(self, stack):
        """Each slice gives what Conformation gives it alone, and what the
        oracles judge: the same position bits, as a view of the stack, or
        the same error text; and no RuntimeWarning."""
        elements = ("C",) * stack.shape[1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stacked = Conformation.stack(elements, stack)
            assert len(stacked) == len(stack)
            for x, got in zip(stack, stacked):
                oracle = ("non-finite positions" if not np.isfinite(x).all() else
                          "coincident atoms" if oracle_has_coincident_atoms(x) else None)
                try:
                    want = Conformation(elements, x)
                except GraphStructureError as e:
                    assert type(got) is GraphStructureError and str(got) == str(e)
                    assert str(e) == f"conformation has {oracle}"
                    continue
                assert oracle is None
                assert type(got) is Conformation and got.elements == want.elements
                assert got.positions.tobytes() == want.positions.tobytes()
                assert np.shares_memory(got.positions, stack)

    def test_underflowing_gap_is_coincident(self):
        x = np.array([[[0.0, 0.0, 0.0], [1e-170, 0.0, 0.0]],
                      [[0.0, 0.0, 0.0], [1e-160, 0.0, 0.0]]])
        coincident, apart = Conformation.stack(("C", "C"), x)
        assert str(coincident) == "conformation has coincident atoms"
        assert apart.positions[1, 0] == 1e-160

    def test_wrong_shape_fails_every_slice(self):
        errors = Conformation.stack(("C", "O", "H"), np.zeros((2, 2, 3)))
        assert [str(e) for e in errors] == \
               ["positions shape (2, 3) does not match 3 atoms"] * 2

    def test_stacked_distances_are_the_rows_of_one_at_a_time(self):
        rng = np.random.default_rng(5)
        g = random_tree(9, rng)
        eg = build_extended_graph(g, seed=3)
        confs = [random_conformation(g, rng) for _ in range(4)]
        d = extract_distances(eg, confs)
        assert d.shape == (4, eg.n_edges)
        for row, x in zip(d, confs):
            diff = x.positions[eg.src] - x.positions[eg.dst]
            assert row.tobytes() == np.sqrt((diff**2).sum(axis=1)).tobytes()
        assert extract_distances(eg, []).shape == (0, eg.n_edges)

    def test_graph_elements_are_built_once(self, propane_graph):
        assert propane_graph.elements is propane_graph.elements


def test_hop_distances_match_oracle(propane_graph):
    hops, _, _ = brute_force_shells(propane_graph)
    assert np.array_equal(graph_hop_distances(propane_graph), hops)


def test_hop_matrix_is_computed_once_per_graph(propane_graph, monkeypatch):
    """The connectivity check and build_extended_graph share one read-only
    hop matrix per graph; no further BFS runs."""
    hops = propane_graph.hops
    assert hops is propane_graph.hops and not hops.flags.writeable
    assert np.array_equal(hops, graph_hop_distances(propane_graph))
    expected = edge_pairs(build_extended_graph(
        MolGraph(propane_graph.nodes, propane_graph.bonds), seed=4))

    def no_second_bfs(g):
        raise AssertionError("hop matrix computed again")

    monkeypatch.setattr(molgraph, "graph_hop_distances", no_second_bfs)
    assert edge_pairs(build_extended_graph(propane_graph, seed=4)) == expected
