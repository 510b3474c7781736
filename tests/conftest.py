import json
from pathlib import Path

import numpy as np
import pytest

from confgen import boltzmann, dataio, molgraph


TOY10_SPEC = Path(__file__).resolve().parent.parent / "benchmarks" / "toy10.json"


def toy10_spec(count: int) -> dict:
    """The toy10 benchmark spec with `count` records per molecule."""
    spec = json.loads(TOY10_SPEC.read_text(encoding="utf-8"))
    spec["defaults"]["count"] = count
    return spec


@pytest.fixture
def water_graph():
    return molgraph.MolGraph.from_elements(["O", "H", "H"], [(0, 1), (0, 2)])


@pytest.fixture
def chain4_graph():
    return molgraph.MolGraph.from_elements(["C", "C", "C", "C"],
                                           [(0, 1), (1, 2), (2, 3)])


@pytest.fixture
def propane_graph():
    bonds = [(0, 1), (1, 2), (0, 3), (0, 4), (0, 5), (1, 6), (1, 7),
             (2, 8), (2, 9), (2, 10)]
    return molgraph.MolGraph.from_elements("CCCHHHHHHHH", bonds)


def random_tree(n: int, rng: np.random.Generator) -> molgraph.MolGraph:
    """Random labeled tree by attaching each node to an earlier one."""
    elements = rng.choice(["C", "O", "H"], size=n)
    bonds = [(int(rng.integers(i)), i) for i in range(1, n)]
    return molgraph.MolGraph.from_elements(elements, bonds)


def random_conformation(g: molgraph.MolGraph, rng: np.random.Generator,
                        scale: float = 2.0) -> molgraph.Conformation:
    return molgraph.Conformation(g.elements, rng.normal(0.0, scale, (g.n_atoms, 3)))


@pytest.fixture(scope="session")
def single_bond_system():
    """A two-atom harmonic bond: model, start conformation, temperature."""
    model = boltzmann.EnergyModel(bonds=(boltzmann.BondTerm(0, 1, 0.96, 1700.0),))
    x0 = molgraph.Conformation(("O", "H"), [[0.0, 0.0, 0.0], [0.96, 0.0, 0.0]])
    cfg = boltzmann.ISConfig(temperature=500.0)
    return model, x0, cfg


@pytest.fixture(scope="session")
def long_single_bond_chain(single_bond_system):
    """A million-step Metropolis chain on the single-bond system."""
    model, x0, cfg = single_bond_system
    return boltzmann.metropolis_sample(
        model, x0, steps=1_000_000, cfg=cfg,
        rng=np.random.default_rng(42), burn_in=5000, thin=25,
    )


def single_bond_quadrature(rest: float, stiffness: float, kbt: float):
    """Mean and variance of the bond length under the radial Boltzmann law.

    The three-dimensional relative coordinate contributes a d^2 volume factor,
    so p(d) is proportional to d^2 exp(-stiffness (d - rest)^2 / kbt).
    """
    grid = np.linspace(1e-6, rest + 12.0 * np.sqrt(kbt / (2 * stiffness)), 400001)
    weight = grid**2 * np.exp(-stiffness * (grid - rest) ** 2 / kbt)
    z = np.trapezoid(weight, grid)
    mean = np.trapezoid(grid * weight, grid) / z
    var = np.trapezoid((grid - mean) ** 2 * weight, grid) / z
    return float(mean), float(var)


@pytest.fixture(scope="session")
def tiny_benchmark_records():
    """A small two-molecule synthetic dataset shared across IO/CLI tests."""
    spec = toy10_spec(60)
    spec["molecules"] = [m for m in spec["molecules"]
                         if m["name"] in ("methanol", "ethanol")]
    return dataio.make_synthetic_benchmark(spec, seed=7)[0], spec
