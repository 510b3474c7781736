"""Molecular graphs, auxiliary-edge extension, and per-edge distance extraction.

A molecule enters as a plain bond graph. For geometry learning the graph is
extended with angle edges between atoms that are two bonds apart and, where a
node is still loosely constrained, one dihedral edge to an atom three bonds
apart. Node and edge attributes are encoded as fixed-width one-hot blocks so
every graph shares a single feature layout.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

ELEMENTS = ("H", "He", "Li", "Be", "B", "C", "N", "O", "F")
CHIRAL_TAGS = ("R", "S", "None")
EDGE_KINDS = ("bond", "angle", "dihedral")
STEREO_TAGS = ("E", "Z", "Any", "None")
BOND_TYPES = ("single", "double", "triple", "aromatic", "None")
RING_SIZES = (3, 4, 5, 6, 7, 8, 9)

NODE_FEATURE_DIM = len(ELEMENTS) + len(CHIRAL_TAGS)  # 12
EDGE_FEATURE_DIM = (
    len(EDGE_KINDS) + len(STEREO_TAGS) + len(BOND_TYPES) + 2 + len(RING_SIZES)
)  # 21


class GraphStructureError(DomainError):
    """The bond graph violates a structural invariant."""


class UnsupportedElementError(DomainError):
    """Chemical element outside the supported H..F range."""


class FeaturizationError(DomainError):
    """Edge attributes inconsistent with the edge kind."""


@dataclass(frozen=True)
class Bond:
    """One molecular bond with the attributes the edge featurizer encodes.

    `ring_sizes` lists the sizes (3..9) of rings the bond belongs to; a bond
    in several fused rings carries all applicable sizes.
    """

    i: int
    j: int
    bond_type: str = "single"
    stereo: str = "None"
    is_aromatic: bool = False
    is_conjugated: bool = False
    ring_sizes: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "ring_sizes", tuple(sorted(set(self.ring_sizes))))
        if self.bond_type not in BOND_TYPES[:-1]:
            raise GraphStructureError(f"unknown bond type {self.bond_type!r}")
        if self.stereo not in STEREO_TAGS:
            raise GraphStructureError(f"unknown stereo tag {self.stereo!r}")
        for size in self.ring_sizes:
            if size not in RING_SIZES:
                raise GraphStructureError(f"ring size {size} outside 3..9")

    @property
    def pair(self) -> frozenset[int]:
        return frozenset((self.i, self.j))


@dataclass(frozen=True)
class MolGraph:
    """A molecule as nodes (element, chiral tag) plus a connected bond list."""

    nodes: tuple[tuple[str, str], ...]
    bonds: tuple[Bond, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "nodes", tuple((str(e), str(c)) for e, c in self.nodes)
        )
        object.__setattr__(self, "bonds", tuple(self.bonds))
        n = len(self.nodes)
        if n == 0:
            raise GraphStructureError("molecule has no atoms")
        for element, chiral in self.nodes:
            if chiral not in CHIRAL_TAGS:
                raise GraphStructureError(f"unknown chiral tag {chiral!r}")
        seen: set[frozenset[int]] = set()
        for b in self.bonds:
            if not (0 <= b.i < n and 0 <= b.j < n):
                raise GraphStructureError(f"bond ({b.i}, {b.j}) references a missing atom")
            if b.i == b.j:
                raise GraphStructureError(f"bond ({b.i}, {b.j}) is a self-loop")
            if b.pair in seen:
                raise GraphStructureError(f"duplicate bond between {b.i} and {b.j}")
            seen.add(b.pair)
        if n > 1 and not self._connected():
            raise GraphStructureError("bond graph is disconnected")

    def _connected(self) -> bool:
        adj = self.neighbors()
        reached = {0}
        queue = deque([0])
        while queue:
            v = queue.popleft()
            for u in adj[v]:
                if u not in reached:
                    reached.add(u)
                    queue.append(u)
        return len(reached) == len(self.nodes)

    @classmethod
    def from_elements(cls, elements, bonds) -> "MolGraph":
        """Build a graph from element symbols and (i, j) pairs or Bond objects."""
        nodes = tuple((e, "None") for e in elements)
        normalized = tuple(
            b if isinstance(b, Bond) else Bond(int(b[0]), int(b[1])) for b in bonds
        )
        return cls(nodes, normalized)

    @property
    def n_atoms(self) -> int:
        return len(self.nodes)

    @property
    def elements(self) -> tuple[str, ...]:
        return tuple(e for e, _ in self.nodes)

    def neighbors(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in self.nodes]
        for b in self.bonds:
            adj[b.i].add(b.j)
            adj[b.j].add(b.i)
        return adj


def graph_hop_distances(g: MolGraph) -> np.ndarray:
    """All-pairs path lengths in bond steps (BFS from every node)."""
    n = g.n_atoms
    adj = g.neighbors()
    hops = np.full((n, n), -1, dtype=np.int64)
    for start in range(n):
        hops[start, start] = 0
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for u in adj[v]:
                if hops[start, u] < 0:
                    hops[start, u] = hops[start, v] + 1
                    queue.append(u)
    return hops


def featurize_node(element: str, chiral_tag: str = "None") -> np.ndarray:
    """One-hot element (9 slots, H..F) followed by one-hot chiral tag (R, S, None)."""
    if element not in ELEMENTS:
        raise UnsupportedElementError(
            f"element {element!r} outside the supported range {ELEMENTS[0]}..{ELEMENTS[-1]}"
        )
    if chiral_tag not in CHIRAL_TAGS:
        raise GraphStructureError(f"unknown chiral tag {chiral_tag!r}")
    vec = np.zeros(NODE_FEATURE_DIM)
    vec[ELEMENTS.index(element)] = 1.0
    vec[len(ELEMENTS) + CHIRAL_TAGS.index(chiral_tag)] = 1.0
    return vec


def featurize_edge(kind: str, bond: Bond | None = None) -> np.ndarray:
    """Encode one edge: kind(3) | stereo(4) | type(5) | aromatic | conjugated | ring(7).

    Bond attributes are required for bond edges and rejected for auxiliary
    edges, which encode stereo=None, type=None, flags 0 and an empty ring block.
    """
    if kind not in EDGE_KINDS:
        raise FeaturizationError(f"unknown edge kind {kind!r}")
    if kind == "bond" and bond is None:
        raise FeaturizationError("bond edges need bond attributes")
    if kind != "bond" and bond is not None:
        raise FeaturizationError(f"{kind} edges carry no bond attributes")

    vec = np.zeros(EDGE_FEATURE_DIM)
    vec[EDGE_KINDS.index(kind)] = 1.0
    stereo_off = len(EDGE_KINDS)
    type_off = stereo_off + len(STEREO_TAGS)
    flag_off = type_off + len(BOND_TYPES)
    ring_off = flag_off + 2
    if bond is None:
        vec[stereo_off + STEREO_TAGS.index("None")] = 1.0
        vec[type_off + BOND_TYPES.index("None")] = 1.0
    else:
        vec[stereo_off + STEREO_TAGS.index(bond.stereo)] = 1.0
        vec[type_off + BOND_TYPES.index(bond.bond_type)] = 1.0
        vec[flag_off] = 1.0 if bond.is_aromatic else 0.0
        vec[flag_off + 1] = 1.0 if bond.is_conjugated else 0.0
        for size in bond.ring_sizes:
            vec[ring_off + RING_SIZES.index(size)] = 1.0
    return vec


@dataclass
class ExtendedGraph:
    """Featurized graph with bond, angle, and dihedral edges.

    Edges are undirected and unique as unordered pairs; `src`/`dst` store the
    endpoints with src < dst. Edge order is bonds (input order), then angle
    edges in lexicographic order, then dihedral edges in the order their
    anchor nodes were processed.
    """

    node_features: np.ndarray
    edge_features: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    edge_kinds: tuple[str, ...]
    source_graph: MolGraph
    build_seed: int

    @property
    def n_nodes(self) -> int:
        return self.node_features.shape[0]

    @property
    def n_edges(self) -> int:
        return self.src.shape[0]


def build_extended_graph(g: MolGraph, seed: int) -> ExtendedGraph:
    """Extend a bond graph with angle and dihedral edges and featurize it.

    Angle edges join every pair of atoms at bond distance exactly 2. Dihedral
    edges are then added one node at a time in ascending index order: a node
    with fewer than three incident edges so far gains one edge to a third
    neighbor (bond distance exactly 3), drawn by the seeded RNG from the
    ascending list of third neighbors not already connected to it. Because of
    that draw the same molecule can yield different extended graphs, so the
    seed is part of the result.
    """
    n = g.n_atoms
    hops = graph_hop_distances(g)

    edges: list[tuple[str, int, int, Bond | None]] = []
    present: set[frozenset[int]] = set()
    incident = np.zeros(n, dtype=np.int64)

    def push(kind: str, i: int, j: int, bond: Bond | None) -> None:
        i, j = (i, j) if i < j else (j, i)
        edges.append((kind, i, j, bond))
        present.add(frozenset((i, j)))
        incident[i] += 1
        incident[j] += 1

    for b in g.bonds:
        push("bond", b.i, b.j, b)
    for i in range(n):
        for j in range(i + 1, n):
            if hops[i, j] == 2:
                push("angle", i, j, None)

    rng = np.random.default_rng(seed)
    for v in range(n):
        if incident[v] >= 3:
            continue
        candidates = [
            u for u in range(n) if hops[v, u] == 3 and frozenset((v, u)) not in present
        ]
        if not candidates:
            continue
        push("dihedral", v, candidates[int(rng.integers(len(candidates)))], None)

    node_features = np.stack([featurize_node(e, c) for e, c in g.nodes])
    edge_features = (
        np.stack([featurize_edge(kind, bond) for kind, _, _, bond in edges])
        if edges
        else np.zeros((0, EDGE_FEATURE_DIM))
    )
    return ExtendedGraph(
        node_features=node_features,
        edge_features=edge_features,
        src=np.array([i for _, i, _, _ in edges], dtype=np.int64),
        dst=np.array([j for _, _, j, _ in edges], dtype=np.int64),
        edge_kinds=tuple(kind for kind, _, _, _ in edges),
        source_graph=g,
        build_seed=int(seed),
    )


@dataclass
class Conformation:
    """Chemical elements plus Cartesian coordinates in ångström."""

    elements: tuple[str, ...]
    positions: np.ndarray

    def __post_init__(self):
        self.elements = tuple(str(e) for e in self.elements)
        self.positions = np.asarray(self.positions, dtype=np.float64)
        if self.positions.shape != (len(self.elements), 3):
            raise GraphStructureError(
                f"positions shape {self.positions.shape} does not match "
                f"{len(self.elements)} atoms"
            )
        if not np.isfinite(self.positions).all():
            raise GraphStructureError("conformation has non-finite positions")
        n = len(self.elements)
        if n > 1:
            diff = self.positions[:, None, :] - self.positions[None, :, :]
            dist2 = (diff**2).sum(axis=2)
            # exactly symmetric, so every off-diagonal entry is each pair's test
            np.fill_diagonal(dist2, 1.0)
            if not (dist2 > 0.0).all():
                raise GraphStructureError("conformation has coincident atoms")


@dataclass
class DistanceSet:
    """Per-edge Euclidean distances, index-aligned with an ExtendedGraph."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise GraphStructureError("distances must form a flat vector")
        if not (self.values > 0.0).all():
            raise GraphStructureError("distances must be strictly positive")


def extract_distances(eg: ExtendedGraph, x: Conformation) -> DistanceSet:
    """Euclidean distance between the endpoints of every edge of `eg`."""
    if x.elements != eg.source_graph.elements:
        raise GraphStructureError(
            "conformation elements do not match the graph the edges were built from"
        )
    diff = x.positions[eg.src] - x.positions[eg.dst]
    return DistanceSet(np.sqrt((diff**2).sum(axis=1)))
