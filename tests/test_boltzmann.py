import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confgen import boltzmann
from confgen.boltzmann import (
    AngleTerm,
    BondTerm,
    Chain,
    DegenerateWeightsError,
    EnergyModel,
    ISConfig,
    StericTerm,
    is_estimate,
    metropolis_chains,
    metropolis_sample,
    observable_by_name,
)
from confgen.molgraph import Conformation

from conftest import single_bond_quadrature, toy10_spec


def water_model():
    return EnergyModel(
        bonds=(BondTerm(0, 1, 0.96, 1700.0), BondTerm(0, 2, 0.96, 1700.0)),
        angles=(AngleTerm(1, 0, 2, math.radians(104.5), 250.0),),
        steric=StericTerm(1.5, 100.0),
    )


def water_at_rest():
    theta = math.radians(104.5)
    return Conformation(
        ("O", "H", "H"),
        [[0, 0, 0], [0.96, 0, 0],
         [0.96 * math.cos(theta), 0.96 * math.sin(theta), 0]],
    )


class TestEnergy:
    def test_zero_at_rest_geometry(self):
        # steric floor 1.5 is below the H..H separation, so nothing engages
        energy = water_model().energy_of(water_at_rest().positions)
        assert energy == pytest.approx(0.0, abs=1e-20)

    def test_single_stretched_bond(self):
        m = EnergyModel(bonds=(BondTerm(0, 1, 1.0, 300.0),))
        x = Conformation(("C", "C"), [[0, 0, 0], [1.25, 0, 0]])
        assert m.energy_of(x.positions) == pytest.approx(300.0 * 0.25**2)

    def test_matches_term_by_term_recomputation(self):
        rng = np.random.default_rng(0)
        m = water_model()
        for _ in range(10):
            pos = water_at_rest().positions + 0.3 * rng.standard_normal((3, 3))
            x = Conformation(("O", "H", "H"), pos)

            expected = 0.0
            for t in m.bonds:
                d = np.linalg.norm(pos[t.i] - pos[t.j])
                expected += t.stiffness * (d - t.rest_length) ** 2
            for t in m.angles:
                va, vb = pos[t.i] - pos[t.j], pos[t.k] - pos[t.j]
                cosv = va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb))
                expected += t.stiffness * (math.acos(np.clip(cosv, -1, 1))
                                           - t.rest_angle) ** 2
            d_hh = np.linalg.norm(pos[1] - pos[2])
            expected += m.steric.stiffness * max(m.steric.floor - d_hh, 0.0) ** 2

            assert m.energy_of(x.positions) == pytest.approx(expected, rel=1e-12)

    def test_invalid_terms_rejected(self):
        with pytest.raises(ValueError):
            EnergyModel(bonds=(BondTerm(0, 1, -1.0, 300.0),))
        m = EnergyModel(bonds=(BondTerm(0, 5, 1.0, 300.0),))
        with pytest.raises(ValueError):
            m.energy_of(Conformation(("C", "C"), [[0, 0, 0], [1, 0, 0]]).positions)


class TestMetropolis:
    def test_high_temperature_accepts_everything(self, single_bond_system):
        model, x0, _ = single_bond_system
        hot = ISConfig(temperature=1e9)
        res = metropolis_sample(model, x0, steps=2000, cfg=hot,
                                rng=np.random.default_rng(0), tune=False)
        assert res.acceptance_rate > 0.999

    def test_fixed_seed_reproduces_chain(self, single_bond_system):
        model, x0, cfg = single_bond_system
        a = metropolis_sample(model, x0, steps=3000, cfg=cfg,
                              rng=np.random.default_rng(5), burn_in=200, thin=5)
        b = metropolis_sample(model, x0, steps=3000, cfg=cfg,
                              rng=np.random.default_rng(5), burn_in=200, thin=5)
        assert np.array_equal(a.positions, b.positions)
        assert a.acceptance_rate == b.acceptance_rate

    def test_thinning_controls_chain_length(self, single_bond_system):
        model, x0, cfg = single_bond_system
        res = metropolis_sample(model, x0, steps=1000, cfg=cfg,
                                rng=np.random.default_rng(1), thin=10)
        assert len(res) == 100

    def test_long_chain_matches_quadrature_moments(self, single_bond_system,
                                                   long_single_bond_chain):
        model, _, cfg = single_bond_system
        bond = model.bonds[0]
        mean_q, var_q = single_bond_quadrature(bond.rest_length, bond.stiffness,
                                               cfg.kbt)
        pos = long_single_bond_chain.positions
        d = np.sqrt(((pos[:, 0] - pos[:, 1]) ** 2).sum(axis=1))
        assert abs(d.mean() - mean_q) / mean_q < 0.05
        assert abs(d.var() - var_q) / var_q < 0.05


def left_to_right(terms):
    """The sum of `terms` from 0.0, one at a time: not ndarray.sum, which
    sums in blocks, nor the built-in sum, which is compensated on Python
    3.12 and later."""
    total = 0.0
    for t in terms.tolist():
        total += t
    return total


def oracle_energy(m, positions):
    """EnergyModel.energy_of as written before the term stack (with a boolean
    steric mask, so that a lone atom has no pairs), each kind of term summed
    left to right in term order."""
    positions = np.asarray(positions, dtype=np.float64)
    n = positions.shape[0]
    bi = np.array([t.i for t in m.bonds], dtype=np.int64)
    bj = np.array([t.j for t in m.bonds], dtype=np.int64)
    br = np.array([t.rest_length for t in m.bonds])
    bk = np.array([t.stiffness for t in m.bonds])
    ai = np.array([t.i for t in m.angles], dtype=np.int64)
    aj = np.array([t.j for t in m.angles], dtype=np.int64)
    ak = np.array([t.k for t in m.angles], dtype=np.int64)
    ar = np.array([t.rest_angle for t in m.angles])
    astiff = np.array([t.stiffness for t in m.angles])
    bonded = {frozenset((t.i, t.j)) for t in m.bonds}
    iu = np.triu_indices(n, k=1)
    mask = np.array([frozenset((int(a), int(b))) not in bonded for a, b in zip(*iu)],
                    dtype=bool)
    si, sj = iu[0][mask], iu[1][mask]
    e = 0.0
    if bi.size:
        d = np.sqrt(((positions[bi] - positions[bj]) ** 2).sum(axis=1))
        e += left_to_right(bk * (d - br) ** 2)
    if ai.size:
        va = positions[ai] - positions[aj]
        vb = positions[ak] - positions[aj]
        cosang = (va * vb).sum(axis=1) / (
            np.linalg.norm(va, axis=1) * np.linalg.norm(vb, axis=1)
        )
        theta = np.arccos(np.clip(cosang, -1.0, 1.0))
        e += left_to_right(astiff * (theta - ar) ** 2)
    if m.steric is not None and si.size:
        d = np.sqrt(((positions[si] - positions[sj]) ** 2).sum(axis=1))
        gap = np.maximum(m.steric.floor - d, 0.0)
        e += m.steric.stiffness * left_to_right(gap**2)
    return e


def oracle_metropolis(m, x0, steps, cfg, rng, *, step_size=0.05, burn_in=0,
                      thin=1, tune=True, block=boltzmann.BLOCK):
    """metropolis_sample as a plain one-chain loop: the old energy formula,
    and each block's noise, then its uniforms, drawn as two whole arrays."""
    pos = x0.positions.copy()
    kbt = cfg.kbt
    e = oracle_energy(m, pos)
    n_atoms = pos.shape[0]
    kept = []
    accepted_main = 0
    window_accepted = 0
    window_size = 50
    total = burn_in + steps
    noise = logu = None
    for i in range(total):
        j = i % block
        if j == 0:
            noise = rng.standard_normal((min(block, total - i), n_atoms, 3))
            logu = np.log(rng.random(min(block, total - i)))
        prop = pos + step_size * noise[j]
        e_prop = oracle_energy(m, prop)
        if logu[j] < -(e_prop - e) / kbt:
            pos = prop
            e = e_prop
            if i >= burn_in:
                accepted_main += 1
            else:
                window_accepted += 1
        if tune and i < burn_in and (i + 1) % window_size == 0:
            rate = window_accepted / window_size
            if rate > 0.5:
                step_size *= 1.1
            elif rate < 0.4:
                step_size *= 0.9
            window_accepted = 0
        if i >= burn_in and (i - burn_in + 1) % thin == 0:
            kept.append(pos.copy())
    positions = np.asarray(kept) if kept else np.empty((0, n_atoms, 3))
    return positions, accepted_main / steps, step_size


def random_model(n, rng, steric=True, angles=True):
    """A random tree of `n` atoms with harmonic bonds, angles at every
    branch point unless `angles` is false, and maybe a steric floor."""
    bonds = [(int(rng.integers(i)), i) for i in range(1, n)]
    neighbors = {a: [] for a in range(n)}
    for i, j in bonds:
        neighbors[i].append(j)
        neighbors[j].append(i)
    angle_terms = [
        AngleTerm(nb[a], c, nb[b], float(rng.uniform(1.6, 2.2)),
                  float(rng.uniform(100.0, 400.0)))
        for c, nb in neighbors.items()
        for a in range(len(nb)) for b in range(a + 1, len(nb))
    ] if angles else []
    return EnergyModel(
        bonds=[BondTerm(i, j, float(rng.uniform(0.9, 1.6)),
                        float(rng.uniform(200.0, 2000.0))) for i, j in bonds],
        angles=angle_terms,
        steric=StericTerm(float(rng.uniform(1.0, 2.5)), float(rng.uniform(20.0, 200.0)))
        if steric else None,
    )


def random_start(n, rng):
    """Atoms about one bond length apart along a random walk."""
    steps = rng.normal(0.0, 1.0, (n, 3))
    steps /= np.linalg.norm(steps, axis=1, keepdims=True)
    return Conformation(["C"] * n, np.cumsum(1.3 * steps, axis=0))


class TestTermStack:
    @settings(max_examples=60, deadline=None)
    @given(sizes=st.lists(st.integers(1, 16), min_size=1, max_size=7),
           seed=st.integers(0, 2**32 - 1))
    def test_stacked_energies_match_energy_of(self, sizes, seed):
        """Bit for bit, molecule by molecule, whatever else is stacked:
        with and without steric terms and angles, lone atoms and a
        two-atom bond, and far and near geometries."""
        rng = np.random.default_rng(seed)
        models, positions = [], []
        for k, n in enumerate(sizes):
            models.append(random_model(n, rng, steric=k % 3 != 1, angles=k % 4 != 2))
            positions.append(rng.normal(0.0, float(rng.choice([0.3, 1.5, 4.0])),
                                        (n, 3)))
        stack = boltzmann._TermStack.join(m._terms(n) for m, n in zip(models, sizes))
        stacked = stack.energies(np.concatenate(positions))
        alone = [m.energy_of(p) for m, p in zip(models, positions)]
        expected = [oracle_energy(m, p) for m, p in zip(models, positions)]
        assert np.array(stacked).tobytes() == np.array(expected).tobytes()
        assert np.array(alone).tobytes() == np.array(expected).tobytes()

    def test_toy10_energies_match_energy_of(self):
        from confgen import dataio

        rng = np.random.default_rng(3)
        models, positions = [], []
        for entry in toy10_spec(2000)["molecules"]:
            models.append(dataio.molecule_energy_model(
                entry["name"], entry["energy"], len(entry["elements"])))
            positions.append(rng.normal(0.0, 1.2, (len(entry["elements"]), 3)))
        stack = boltzmann._TermStack.join(
            m._terms(len(p)) for m, p in zip(models, positions))
        stacked = stack.energies(np.concatenate(positions))
        expected = [oracle_energy(m, p) for m, p in zip(models, positions)]
        assert np.array(stacked).tobytes() == np.array(expected).tobytes()


class TestLockstep:
    @settings(max_examples=40, deadline=None)
    @given(n_chains=st.integers(1, 4),
           sizes=st.lists(st.integers(2, 9), min_size=4, max_size=4),
           block=st.sampled_from([256, 16, 97, 1]),
           temperature=st.sampled_from([300.0, 500.0, 5000.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_per_chain_oracle(self, n_chains, sizes, block,
                                      temperature, seed):
        """Each chain bit for bit as it runs alone, with per-chain steps,
        burn-in, thinning, step size and tuning; small patched block sizes
        put block edges, and chains leaving, mid-run."""
        rng = np.random.default_rng(seed)
        cfg = ISConfig(temperature=temperature)
        chains, seeds = [], []
        for k in range(n_chains):
            n = 2 if k == 1 else sizes[k]  # chain 1: an angle-less two-atom bond
            model = random_model(n, rng, steric=k % 2 == 0)
            seeds.append(int(rng.integers(2**32)))
            chains.append(Chain(
                model, random_start(n, rng), steps=int(rng.integers(1, 250)),
                rng=np.random.default_rng(seeds[-1]),
                step_size=float(rng.uniform(0.005, 0.2)),
                burn_in=int(rng.integers(0, 250)), thin=int(rng.integers(1, 8)),
                tune=bool(rng.integers(2)),
            ))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(boltzmann, "BLOCK", block)
            results = metropolis_chains(chains, cfg)
        for c, s, r in zip(chains, seeds, results):
            rng = np.random.default_rng(s)
            positions, acceptance, step_size = oracle_metropolis(
                c.model, c.x0, c.steps, cfg, rng, step_size=c.step_size,
                burn_in=c.burn_in, thin=c.thin, tune=c.tune, block=block)
            assert r.positions.tobytes() == positions.tobytes()
            assert r.positions.shape == positions.shape
            assert (r.acceptance_rate, r.step_size) == (acceptance, step_size)
            assert c.rng.bit_generator.state == rng.bit_generator.state

    def test_crosses_many_blocks(self):
        """The real block size: two chains cross sixteen or more block edges
        while a third leaves mid-block, the two-atom bond among them."""
        rng = np.random.default_rng(8)
        cfg = ISConfig(temperature=500.0)
        bond = EnergyModel(bonds=(BondTerm(0, 1, 0.96, 1700.0),))
        x_bond = Conformation(("O", "H"), [[0.0, 0.0, 0.0], [0.96, 0.0, 0.0]])
        water = random_model(3, rng)
        chains = [
            Chain(bond, x_bond, 4000, np.random.default_rng(1), 0.06, 300, 7),
            Chain(water, random_start(3, rng), 4290, np.random.default_rng(2), 0.05,
                  100, 3, tune=False),
            Chain(random_model(6, rng), random_start(6, rng), 1000,
                  np.random.default_rng(3), 0.04, 123, 5),
        ]
        results = metropolis_chains(chains, cfg)
        for k, (c, r) in enumerate(zip(chains, results)):
            rng = np.random.default_rng(k + 1)
            positions, acceptance, step_size = oracle_metropolis(
                c.model, c.x0, c.steps, cfg, rng, step_size=c.step_size,
                burn_in=c.burn_in, thin=c.thin, tune=c.tune)
            assert r.positions.tobytes() == positions.tobytes(), k
            assert (r.acceptance_rate, r.step_size) == (acceptance, step_size), k
            assert c.rng.bit_generator.state == rng.bit_generator.state, k

    def test_sample_is_one_chain(self, single_bond_system):
        model, x0, cfg = single_bond_system
        res = metropolis_sample(model, x0, steps=1500, cfg=cfg,
                                rng=np.random.default_rng(4), burn_in=400, thin=3)
        positions, acceptance, step_size = oracle_metropolis(
            model, x0, 1500, cfg, np.random.default_rng(4), burn_in=400, thin=3)
        assert res.positions.tobytes() == positions.tobytes()
        assert (res.acceptance_rate, res.step_size) == (acceptance, step_size)

    def test_noise_is_held_a_block_at_a_time(self):
        # the noise of all 4096 steps for 40 atoms would be 3.9 MB
        rng = np.random.default_rng(5)
        n = 40
        chain = Chain(random_model(n, rng, steric=False), random_start(n, rng), 4096,
                      np.random.default_rng(6), thin=4096)
        tracemalloc.start()
        try:
            metropolis_chains([chain], ISConfig(temperature=500.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6

    @pytest.mark.parametrize("field, value", [
        ("steps", 0), ("burn_in", -1), ("thin", 0), ("step_size", 0.0),
        ("step_size", -0.05), ("step_size", math.nan), ("step_size", math.inf),
    ])
    def test_bad_schedule_rejected(self, single_bond_system, field, value):
        model, x0, _ = single_bond_system
        args = {"steps": 10, "burn_in": 0, "thin": 1, "step_size": 0.05}
        args[field] = value
        with pytest.raises(ValueError):
            Chain(model, x0, rng=np.random.default_rng(0), **args)

    def test_no_chains(self):
        assert metropolis_chains([], ISConfig(temperature=500.0)) == []


def straddling_model(n, rng, skin):
    """random_model with its steric floor set so that the steric pairs of
    a random start sit around floor + `skin`, one of them within 1e-12 A;
    returns the model and the start."""
    start = random_start(n, rng)
    model = random_model(n, rng, steric=n > 2)
    if model.steric is None:
        return model, start
    si, sj = model._terms(n).steric[:2]
    d = np.sqrt(((start.positions[si] - start.positions[sj]) ** 2).sum(axis=1))
    floor = float(rng.choice(d)) - skin + float(rng.choice([-1e-12, 0.0, 1e-12]))
    steric = StericTerm(max(floor, 0.05), model.steric.stiffness)
    return EnergyModel(model.bonds, model.angles, steric), start


class TestNeighbourList:
    @settings(max_examples=40, deadline=None)
    @given(n_chains=st.integers(1, 3),
           sizes=st.lists(st.integers(2, 12), min_size=3, max_size=3),
           skin=st.sampled_from([0.05, 0.2, boltzmann.STERIC_SKIN, 1.0]),
           temperature=st.sampled_from([500.0, 5000.0, 50000.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_full_energy_oracle(self, n_chains, sizes, skin, temperature,
                                        seed):
        """Chains on the neighbour list match the one-chain oracle, which
        sums every steric pair, bit for bit, and every proposal energy
        equals the full stack's: steric pairs straddle floor + skin at the
        start, and steps of 0.05-0.5 skin per coordinate cross the relisting
        distance, skin/2, many times in a run."""
        rng = np.random.default_rng(seed)
        cfg = ISConfig(temperature=temperature)
        chains, seeds = [], []
        for n in sizes[:n_chains]:
            model, start = straddling_model(n, rng, skin)
            seeds.append(int(rng.integers(2**32)))
            chains.append(Chain(
                model, start, steps=int(rng.integers(50, 300)),
                rng=np.random.default_rng(seeds[-1]),
                step_size=skin * float(rng.uniform(0.05, 0.5)),
                burn_in=int(rng.integers(0, 200)), thin=int(rng.integers(1, 5)),
                tune=bool(rng.integers(2)),
            ))
        near, energies = boltzmann._TermStack.near, boltzmann._TermStack.energies

        def listed(stack, positions, skin):
            out = near(stack, positions, skin)
            out.full = stack
            return out

        def checked(stack, positions):
            out = energies(stack, positions)
            if hasattr(stack, "full"):
                assert out.tobytes() == energies(stack.full, positions).tobytes()
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(boltzmann, "STERIC_SKIN", skin)
            mp.setattr(boltzmann._TermStack, "near", listed)
            mp.setattr(boltzmann._TermStack, "energies", checked)
            results = metropolis_chains(chains, cfg)
        for c, s, r in zip(chains, seeds, results):
            positions, acceptance, step_size = oracle_metropolis(
                c.model, c.x0, c.steps, cfg, np.random.default_rng(s),
                step_size=c.step_size, burn_in=c.burn_in, thin=c.thin, tune=c.tune)
            assert r.positions.tobytes() == positions.tobytes()
            assert (r.acceptance_rate, r.step_size) == (acceptance, step_size)

    def test_lists_again_mid_stretch(self, monkeypatch):
        """One chain that crosses the relisting distance: it is listed more
        than once, keeps fewer steric pairs than the full stack, and matches
        the oracle bit for bit."""
        rng = np.random.default_rng(11)
        model, start = straddling_model(10, rng, boltzmann.STERIC_SKIN)
        near = boltzmann._TermStack.near
        listed = []

        def spy(stack, positions, skin):
            out = near(stack, positions, skin)
            listed.append((stack.steric[0].size, out.steric[0].size))
            return out

        monkeypatch.setattr(boltzmann._TermStack, "near", spy)
        cfg = ISConfig(temperature=5000.0)
        chain = Chain(model, start, 400, np.random.default_rng(12), 0.1, 100)
        [result] = metropolis_chains([chain], cfg)
        positions, acceptance, step_size = oracle_metropolis(
            model, start, 400, cfg, np.random.default_rng(12), step_size=0.1,
            burn_in=100)
        assert len(listed) > 3
        assert all(kept < full for full, kept in listed)
        assert result.positions.tobytes() == positions.tobytes()
        assert (result.acceptance_rate, result.step_size) == (acceptance, step_size)

    def test_without_steric_pairs_lists_once_per_stretch(self, monkeypatch,
                                                         single_bond_system):
        """Chains whose stacks have no steric pairs, the two-atom bond and
        a water without a steric term, drift far past the relisting
        distance but are listed once per stretch, at its start, and match
        the oracle bit for bit."""
        bond, x0, cfg = single_bond_system
        water = EnergyModel(water_model().bonds, water_model().angles)
        near = boltzmann._TermStack.near
        listed = []

        def spy(stack, positions, skin):
            listed.append(positions.shape[0])
            return near(stack, positions, skin)

        monkeypatch.setattr(boltzmann._TermStack, "near", spy)
        chains = [Chain(bond, x0, 6000, np.random.default_rng(3), burn_in=1000),
                  Chain(water, water_at_rest(), 3000, np.random.default_rng(4),
                        burn_in=500, thin=3)]
        results = metropolis_chains(chains, cfg)
        assert listed == [5, 2]  # both chains, then the bond alone
        for c, seed, r in zip(chains, (3, 4), results):
            positions, acceptance, step_size = oracle_metropolis(
                c.model, c.x0, c.steps, cfg, np.random.default_rng(seed),
                burn_in=c.burn_in, thin=c.thin)
            drift = np.abs(r.positions[-1] - c.x0.positions).max()
            assert drift > 2 * boltzmann.STERIC_SKIN
            assert r.positions.tobytes() == positions.tobytes()
            assert (r.acceptance_rate, r.step_size) == (acceptance, step_size)

    def test_stiffness_without_pairs_is_kept(self):
        """A stack whose steric pairs were all dropped still multiplies its
        stiffness by the zero gap sum, so an infinite stiffness gives NaN
        as the full stack does."""
        model = EnergyModel(water_model().bonds, water_model().angles,
                            StericTerm(0.5, math.inf))
        full = model._terms(3)
        near = full.near(water_at_rest().positions, 0.05)
        assert near.floor.size == 0 < full.floor.size
        with np.errstate(invalid="ignore"):
            energy = near.energies(water_at_rest().positions)
            assert np.isnan(energy).all()
            assert energy.tobytes() == full.energies(water_at_rest().positions).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 14), skin=st.sampled_from([0.05, 0.5, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_near_stack_energies_are_exact(self, n, skin, seed):
        """Moved less than skin/2 per atom from where it was listed, the
        near stack gives the full stack's energies bit for bit."""
        rng = np.random.default_rng(seed)
        model, start = straddling_model(n, rng, skin)
        full = model._terms(n)
        near = full.near(start.positions, skin)
        for scale in (0.0, 0.5, 0.999):
            move = rng.normal(size=(n, 3))
            move *= scale * skin / 2 / np.linalg.norm(move, axis=1, keepdims=True)
            moved = start.positions + move
            assert near.energies(moved).tobytes() == full.energies(moved).tobytes()
            assert near.energies(moved).tobytes() == \
                np.array([oracle_energy(model, moved)]).tobytes()


class TestStackedEnergyOf:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 14), k=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
    def test_stack_equals_one_at_a_time(self, n, k, seed):
        rng = np.random.default_rng(seed)
        model = random_model(n, rng, steric=bool(rng.integers(2)))
        positions = rng.normal(0.0, float(rng.choice([0.3, 1.5, 4.0])), (k, n, 3))
        stacked = model.energy_of(positions)
        alone = [model.energy_of(p) for p in positions]
        assert all(type(e) is float for e in alone)
        assert stacked.shape == (k,)
        assert stacked.tobytes() == np.array(alone).tobytes()
        assert stacked.tobytes() == np.array(
            [oracle_energy(model, p) for p in positions]).tobytes()

    def test_is_estimate_uses_the_per_proposal_energies(self):
        rng = np.random.default_rng(6)
        model = random_model(7, rng)
        proposals = [Conformation(["C"] * 7, random_start(7, rng).positions
                                  + rng.normal(0.0, 0.05, (7, 3))) for _ in range(12)]
        cfg = ISConfig(temperature=500.0)
        obs = observable_by_name("rgyr")
        stacked = is_estimate(obs, proposals, model, cfg)
        given_energies = is_estimate(
            obs, proposals, model, cfg,
            energies=[model.energy_of(x.positions) for x in proposals])
        assert stacked.as_dict() == given_energies.as_dict()
        assert stacked.weights.tobytes() == given_energies.weights.tobytes()


def oracle_observable(spec):
    """The one-conformation formulas of the built-in observables."""
    if spec == "one":
        return lambda x: 1.0
    if spec == "rgyr":
        def rgyr(x):
            centered = x.positions - x.positions.mean(axis=0)
            return math.sqrt(float((centered**2).sum(axis=1).mean()))
        return rgyr
    i, j = map(int, spec.split(":")[1].split("-"))
    return lambda x: float(np.linalg.norm(x.positions[i] - x.positions[j]))


def oracle_min_pairwise_distance(proposals):
    """The overlap diagnostic with one distance row per proposal, stacked."""
    if len(proposals) < 2:
        return None
    n = proposals[0].positions.shape[0]
    iu = np.triu_indices(n, k=1)
    rows = np.stack(
        [np.sqrt(((x.positions[iu[0]] - x.positions[iu[1]]) ** 2).sum(axis=1))
         for x in proposals])
    sq = (rows**2).sum(axis=1)
    pair_sq = np.maximum(sq[:, None] + sq[None, :] - 2.0 * rows @ rows.T, 0.0)
    ku = np.triu_indices(len(proposals), k=1)
    return float(np.sqrt(pair_sq[ku].min()))


class TestObservables:
    @settings(max_examples=80, deadline=None)
    @given(k=st.integers(1, 30), n=st.integers(1, 40), distinct=st.integers(1, 30),
           log_scale=st.floats(-3.0, 3.0), seed=st.integers(0, 2**32 - 1))
    def test_stacked_values_match_one_at_a_time(self, k, n, distinct, log_scale, seed):
        """Each built-in observable's stacked values, and the overlap
        diagnostic of the stack, bit for bit those of the one-conformation
        formulas, on stacks with repeated conformations and coordinates
        from 1e-3 to 1e3 angstrom. A squared norm summed as (x0^2 + x1^2)
        + x2^2 misses np.linalg.norm's dot product on about one row in ten;
        distance rows gathered by `positions[:, idx]` are laid out pairs
        first, which moves the diagnostic's later sums."""
        rng = np.random.default_rng(seed)
        scale = 10.0**log_scale
        base = rng.normal(0.0, scale, (min(k, distinct), n, 3)) + rng.normal(0.0, scale, 3)
        positions = base[rng.integers(0, len(base), k)]
        proposals = [Conformation(["C"] * n, p) for p in positions]
        i, j = (int(a) for a in rng.integers(0, n, 2))
        for spec in ("one", "rgyr", f"distance:{i}-{j}"):
            obs = observable_by_name(spec)
            stacked = obs.stacked(positions)
            oracle = np.array([oracle_observable(spec)(x) for x in proposals])
            assert stacked.dtype == np.float64 and stacked.shape == (k,)
            assert stacked.tobytes() == oracle.tobytes()
            assert np.array([obs(x) for x in proposals]).tobytes() == oracle.tobytes()
        assert boltzmann._min_pairwise_conformation_distance(positions) == \
            oracle_min_pairwise_distance(proposals)

    def test_builtins(self):
        x = Conformation(("C", "C"), [[0, 0, 0], [2.0, 0, 0]])
        assert observable_by_name("one")(x) == 1.0
        assert observable_by_name("distance:0-1")(x) == pytest.approx(2.0)
        assert observable_by_name("rgyr")(x) == pytest.approx(1.0)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            observable_by_name("entropy")


class TestIsEstimate:
    def _proposals(self, rng, n=20):
        return [
            Conformation(("O", "H"), [[0, 0, 0], [0.96 + dx, 0, 0]])
            for dx in rng.normal(0, 0.05, size=n)
        ]

    @pytest.mark.parametrize("temperature", [0.0, -5.0, float("inf"), float("nan")])
    def test_temperature_must_be_finite_and_positive(self, temperature):
        with pytest.raises(ValueError, match="temperature must be a finite number"):
            ISConfig(temperature=temperature)

    def test_constant_observable_is_exactly_one(self, single_bond_system):
        model, _, cfg = single_bond_system
        proposals = self._proposals(np.random.default_rng(0))
        est = is_estimate(observable_by_name("one"), proposals, model, cfg)
        assert est.value == 1.0

    def test_identical_proposals_return_observable(self, single_bond_system):
        model, _, cfg = single_bond_system
        x = Conformation(("O", "H"), [[0, 0, 0], [1.10, 0, 0]])
        est = is_estimate(observable_by_name("distance:0-1"), [x] * 7, model, cfg)
        assert est.value == pytest.approx(1.10)
        assert est.ess == pytest.approx(7.0)

    def test_constant_energy_shift_is_exact(self, single_bond_system):
        # dyadic energies make the shifted subtraction exact in floating point
        model, _, cfg = single_bond_system
        rng = np.random.default_rng(1)
        proposals = self._proposals(rng)
        obs = observable_by_name("distance:0-1")
        energies = rng.integers(0, 64, size=len(proposals)) * 0.25
        base = is_estimate(obs, proposals, model, cfg, energies=energies)
        shifted = is_estimate(obs, proposals, model, cfg, energies=energies + 13.5)
        assert shifted.value == base.value
        assert shifted.ess == base.ess

    def test_rigid_motion_invariance(self, single_bond_system):
        model, _, cfg = single_bond_system
        rng = np.random.default_rng(2)
        proposals = self._proposals(rng)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        moved = [Conformation(x.elements, x.positions @ q.T + [1.0, -2.0, 0.5])
                 for x in proposals]
        obs = observable_by_name("distance:0-1")
        a = is_estimate(obs, proposals, model, cfg)
        b = is_estimate(obs, moved, model, cfg)
        assert b.value == pytest.approx(a.value, rel=1e-9)
        assert b.ess == pytest.approx(a.ess, rel=1e-9)

    def test_ess_bounds(self, single_bond_system):
        model, _, cfg = single_bond_system
        proposals = self._proposals(np.random.default_rng(3), n=30)
        est = is_estimate(observable_by_name("one"), proposals, model, cfg)
        assert est.ess <= est.n
        flat = is_estimate(observable_by_name("one"), proposals, model, cfg,
                           energies=np.zeros(30))
        assert flat.ess == pytest.approx(30.0)

    def test_degenerate_weights(self, single_bond_system):
        model, _, cfg = single_bond_system
        proposals = self._proposals(np.random.default_rng(4), n=3)
        with pytest.raises(DegenerateWeightsError):
            is_estimate(observable_by_name("one"), proposals, model, cfg,
                        energies=np.array([np.inf, np.nan, np.inf]))

    def test_one_proposal_has_no_overlap_diagnostic(self, single_bond_system):
        model, _, cfg = single_bond_system
        [x] = self._proposals(np.random.default_rng(6), n=1)
        est = is_estimate(observable_by_name("one"), [x], model, cfg)
        assert est.min_pairwise_distance is None
        assert est.as_dict()["min_pairwise_distance"] is None

    def test_overlap_diagnostic_reported(self, single_bond_system):
        model, _, cfg = single_bond_system
        proposals = self._proposals(np.random.default_rng(5))
        est = is_estimate(observable_by_name("one"), proposals, model, cfg)
        assert est.min_pairwise_distance > 0.0
        assert math.isfinite(est.min_pairwise_distance)
