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


def oracle_energy(m, positions):
    """EnergyModel.energy_of as written before the term stack (with a boolean
    steric mask, so that a lone atom has no pairs)."""
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
        e += float((bk * (d - br) ** 2).sum())
    if ai.size:
        va = positions[ai] - positions[aj]
        vb = positions[ak] - positions[aj]
        cosang = (va * vb).sum(axis=1) / (
            np.linalg.norm(va, axis=1) * np.linalg.norm(vb, axis=1)
        )
        theta = np.arccos(np.clip(cosang, -1.0, 1.0))
        e += float((astiff * (theta - ar) ** 2).sum())
    if m.steric is not None and si.size:
        d = np.sqrt(((positions[si] - positions[sj]) ** 2).sum(axis=1))
        gap = np.maximum(m.steric.floor - d, 0.0)
        e += float(m.steric.stiffness * (gap**2).sum())
    return e


def oracle_metropolis(m, x0, steps, cfg, rng, *, step_size=0.05, burn_in=0,
                      thin=1, tune=True, chunk=4096):
    """metropolis_sample as written before the lockstep loop: one chain, the
    old energy formula, and each chunk's noise drawn and held whole."""
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
        j = i % chunk
        if j == 0:
            noise = rng.standard_normal((min(chunk, total - i), n_atoms, 3))
            logu = np.log(rng.random(min(chunk, total - i)))
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
           constants=st.sampled_from([(4096, 256), (64, 16), (97, 5), (40, 1)]),
           temperature=st.sampled_from([300.0, 500.0, 5000.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_per_chain_oracle(self, n_chains, sizes, constants,
                                      temperature, seed):
        """Each chain bit for bit as it runs alone, with per-chain steps,
        burn-in, thinning, step size and tuning; small patched block sizes
        put chunk and replay edges, and chains leaving, mid-run."""
        rng = np.random.default_rng(seed)
        cfg = ISConfig(temperature=temperature)
        chunk, replay = constants
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
            mp.setattr(boltzmann, "CHUNK", chunk)
            mp.setattr(boltzmann, "REPLAY", replay)
            results = metropolis_chains(chains, cfg)
        for c, s, r in zip(chains, seeds, results):
            rng = np.random.default_rng(s)
            positions, acceptance, step_size = oracle_metropolis(
                c.model, c.x0, c.steps, cfg, rng, step_size=c.step_size,
                burn_in=c.burn_in, thin=c.thin, tune=c.tune, chunk=chunk)
            assert r.positions.tobytes() == positions.tobytes()
            assert r.positions.shape == positions.shape
            assert (r.acceptance_rate, r.step_size) == (acceptance, step_size)
            assert c.rng.bit_generator.state == rng.bit_generator.state

    def test_crosses_the_4096_step_chunk(self):
        """Real block sizes: two chains run past the first chunk while a
        third leaves mid-block, the two-atom bond among them."""
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

    def test_noise_is_held_a_replay_block_at_a_time(self):
        # a whole 4096-step chunk of noise for 40 atoms would be 3.9 MB
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


class TestObservables:
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

    def test_overlap_diagnostic_reported(self, single_bond_system):
        model, _, cfg = single_bond_system
        proposals = self._proposals(np.random.default_rng(5))
        est = is_estimate(observable_by_name("one"), proposals, model, cfg)
        assert est.min_pairwise_distance > 0.0
        assert math.isfinite(est.min_pairwise_distance)
