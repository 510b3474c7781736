"""Seeded generator of acyclic, H-saturated C/O chain molecules.

The spec it writes is in the `confgen-benchmark` format that `confgen
make-data` reads. Each molecule is a random heavy-atom tree of 6-13 C and O
atoms, saturated with hydrogens to 20-39 atoms, with harmonic bond and angle
terms and a steric floor of the same form and constants as the `toy10` spec.
"""

from __future__ import annotations

import math

import numpy as np

VALENCE = {"C": 4, "O": 2}
BOND_REST = {("C", "C"): 1.526, ("C", "O"): 1.43, ("C", "H"): 1.09, ("H", "O"): 0.96}
BOND_STIFF = {("C", "C"): 1300.0, ("C", "O"): 1500.0, ("C", "H"): 1500.0,
              ("H", "O"): 1700.0}
TETRAHEDRAL = math.acos(-1.0 / 3.0)
ANGLE_STIFF = 250.0
STERIC = {"floor": 1.5, "stiffness": 100.0}
MIN_HEAVY, MAX_HEAVY = 6, 13
MIN_ATOMS, MAX_ATOMS = 20, 39


def _compositions(n_atoms: int) -> list[tuple[int, int]]:
    """(heavy atoms, oxygens) pairs whose saturated tree has `n_atoms` atoms.

    A saturated acyclic C/O molecule with h heavy atoms of which o are oxygen
    has 2h - 2o + 2 hydrogens, so n = 3h - 2o + 2. Oxygens stay a minority so
    that the skeleton remains carbon-backed.
    """
    out = []
    for h in range(MIN_HEAVY, MAX_HEAVY + 1):
        twice_o = 3 * h + 2 - n_atoms
        if twice_o >= 0 and twice_o % 2 == 0 and twice_o // 2 <= h // 3:
            out.append((h, twice_o // 2))
    return out


def _skeleton(heavy: int, oxygens: int, rng: np.random.Generator):
    """Random tree over heavy atoms, with no O-O bond and at most two per O.

    Atoms join in a shuffled order, each bonded to an earlier atom with a
    free valence; an order that leaves an oxygen nowhere to go is redrawn.
    """
    while True:
        # atom 0 is a carbon, so the first oxygen has somewhere to bond
        tail = ["C"] * (heavy - oxygens - 1) + ["O"] * oxygens
        rng.shuffle(tail)
        elements = ["C"] + tail
        degree = [0] * heavy
        bonds = []
        for i in range(1, heavy):
            free = [j for j in range(i) if degree[j] < VALENCE[elements[j]]
                    and "C" in (elements[i], elements[j])]
            if not free:
                break
            j = free[int(rng.integers(len(free)))]
            bonds.append((j, i))
            degree[i] += 1
            degree[j] += 1
        else:
            return elements, bonds, degree


def _molecule(name: str, n_atoms: int, rng: np.random.Generator) -> dict:
    options = _compositions(n_atoms)
    heavy, oxygens = options[int(rng.integers(len(options)))]
    elements, bonds, degree = _skeleton(heavy, oxygens, rng)
    for i in range(heavy):
        for _ in range(VALENCE[elements[i]] - degree[i]):
            elements.append("H")
            bonds.append((i, len(elements) - 1))

    def key(i, j):
        return tuple(sorted((elements[i], elements[j])))

    neighbors: dict[int, list[int]] = {i: [] for i in range(n_atoms)}
    for i, j in bonds:
        neighbors[i].append(j)
        neighbors[j].append(i)
    angles = [
        {"i": nb[a], "j": center, "k": nb[b], "rest": TETRAHEDRAL,
         "stiffness": ANGLE_STIFF}
        for center, nb in neighbors.items()
        for a in range(len(nb)) for b in range(a + 1, len(nb))
    ]
    return {
        "name": name,
        "elements": elements,
        "bonds": [{"i": i, "j": j} for i, j in bonds],
        "energy": {
            "bonds": [{"i": i, "j": j, "rest": BOND_REST[key(i, j)],
                       "stiffness": BOND_STIFF[key(i, j)]} for i, j in bonds],
            "angles": angles,
            "steric": dict(STERIC),
        },
    }


def chain_spec(seed: int, n_molecules: int, defaults: dict) -> dict:
    """Spec of `n_molecules` chains with sizes spread evenly over 20-39 atoms.

    Sizes are fixed by `n_molecules` alone and topologies by `seed`, so runs
    with different seeds do comparable work on different graphs.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(7,)))
    sizes = np.linspace(MIN_ATOMS, MAX_ATOMS, n_molecules).round().astype(int)
    molecules = [_molecule(f"chain{k:02d}-{int(n)}", int(n), rng)
                 for k, n in enumerate(sizes)]
    return {
        "format": "confgen-benchmark",
        "version": 1,
        "temperature": 500.0,
        "defaults": dict(defaults),
        "molecules": molecules,
    }
