import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confgen import cvae, molgraph, nnet
from confgen.errors import NumericalError
from confgen.molgraph import MolGraph, build_extended_graph, extract_distances
from confgen.nnet import ShapeError

from conftest import random_conformation, random_tree
from test_nnet import SPECIAL_BITS

SMALL = cvae.CvaeConfig(hidden=12, readout_hidden=12, node_state=5, edge_state=5)


@pytest.fixture
def small_instance():
    rng = np.random.default_rng(42)
    g = random_tree(5, rng)
    eg = build_extended_graph(g, seed=1)
    d = extract_distances(eg, [random_conformation(g, rng)])[0]
    return cvae.ModelParams(SMALL, seed=2), eg, d


def permute_extended_graph(eg, perm):
    """Relabel nodes of an already-built extended graph (edge order kept)."""
    inv = np.argsort(perm)
    return molgraph.ExtendedGraph(
        node_features=eg.node_features[inv],
        edge_features=eg.edge_features.copy(),
        src=perm[eg.src],
        dst=perm[eg.dst],
        edge_kinds=eg.edge_kinds,
        source_graph=eg.source_graph,
        build_seed=eg.build_seed,
    )


def elbo_gradient_check(p, eg, d, noise, rng, h=1e-5, n_directions=3,
                        n_coords=24):
    """Worst relative error between analytic and central-difference gradients.

    Checks random directional derivatives through the full parameter vector
    plus individual coordinates. Two numerical realities of central
    differences are respected: differences below the roundoff of
    (up - down) / 2h carry no signal, and probes whose interval straddles a
    ReLU kink (detected by a second difference of order h instead of h^2)
    are not valid derivative estimates and are skipped.
    """
    res = cvae.elbo(p, eg, d, noise=noise)
    named = p.named_parameters()
    names = sorted(named)
    noise_atol = max(1.0, abs(res.value)) * 2.2e-16 / h * 50.0

    def value():
        return cvae.elbo(p, eg, d, noise=noise).value

    def rel_error(fd, fd_half, an):
        # a probe is only trusted where the finite difference is itself
        # h-converged; ReLU-kink straddles and extreme-curvature regions
        # cannot adjudicate a 1e-4 comparison at h=1e-5
        scale = max(abs(fd), abs(an))
        uncertainty = 2.0 * abs(fd - fd_half) + noise_atol
        if scale == 0.0 or uncertainty >= 1e-4 * scale:
            return 0.0
        return max(abs(fd - an) - uncertainty, 0.0) / scale

    def central_pair(add_offset):
        """Central differences at h and h/2 for a parameter offset setter."""
        estimates = []
        for step in (h, h / 2.0):
            add_offset(step)
            up = value()
            add_offset(-2.0 * step)
            down = value()
            add_offset(step)
            estimates.append((up - down) / (2.0 * step))
        return estimates

    worst = 0.0
    for _ in range(n_directions):
        direction = {n: rng.standard_normal(named[n].data.shape) for n in names}
        norm = np.sqrt(sum((u**2).sum() for u in direction.values()))

        def offset_direction(t):
            for n in names:
                named[n].data += (t / norm) * direction[n]

        fd, fd_half = central_pair(offset_direction)
        an = sum((res.gradients[n] * direction[n]).sum() for n in names) / norm
        worst = max(worst, rel_error(fd, fd_half, an))

    for name in rng.choice(names, size=min(n_coords, len(names)), replace=False):
        flat = named[name].data.ravel()
        idx = int(rng.integers(flat.size))

        def offset_coord(t):
            flat[idx] += t

        fd, fd_half = central_pair(offset_coord)
        an = res.gradients[name].ravel()[idx]
        worst = max(worst, rel_error(fd, fd_half, an))
    return worst


def hops_within_extended(eg):
    """BFS hop counts over the extended graph's own edges."""
    n = eg.n_nodes
    adj = [[] for _ in range(n)]
    for i, j in zip(eg.src.tolist(), eg.dst.tolist()):
        adj[i].append(j)
        adj[j].append(i)
    hops = np.full((n, n), 10 * n)
    for s in range(n):
        hops[s, s] = 0
        frontier = [s]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for v in frontier:
                for u in adj[v]:
                    if hops[s, u] > 5 * n:
                        hops[s, u] = d
                        nxt.append(u)
            frontier = nxt
    return hops


class TestEncode:
    def test_shapes_and_positive_variance(self, small_instance):
        p, eg, d = small_instance
        ng = cvae.encode(p, eg, d)
        assert ng.mean.shape == (eg.n_nodes,)
        assert (ng.var > 0).all()

    def test_misaligned_distances_rejected(self, small_instance):
        p, eg, d = small_instance
        with pytest.raises(ShapeError):
            cvae.encode(p, eg, d[:-1])

    def test_permutation_equivariance(self, small_instance):
        p, eg, d = small_instance
        rng = np.random.default_rng(0)
        perm = rng.permutation(eg.n_nodes)
        ng = cvae.encode(p, eg, d)
        ng_p = cvae.encode(p, permute_extended_graph(eg, perm), d)
        assert np.abs(ng_p.mean[perm] - ng.mean).max() <= 1e-10
        assert np.abs(ng_p.var[perm] - ng.var).max() <= 1e-10

    def test_receptive_field_on_path_graph(self):
        g = MolGraph.from_elements(["C"] * 12, [(i, i + 1) for i in range(11)])
        eg = build_extended_graph(g, seed=0)
        rng = np.random.default_rng(1)
        d = extract_distances(eg, [random_conformation(g, rng)])[0]
        p = cvae.ModelParams(SMALL, seed=3)
        hops = hops_within_extended(eg)
        t = SMALL.message_passes

        k = 0  # perturb the first bond edge
        d2 = d.copy()
        d2[k] += 0.25
        mu_a = cvae.encode(p, eg, d).mean
        mu_b = cvae.encode(p, eg, d2).mean
        node_dist = np.minimum(hops[eg.src[k]], hops[eg.dst[k]])
        far = node_dist > t
        near = ~far
        assert far.any(), "graph too small to exercise the horizon"
        assert np.array_equal(mu_a[far], mu_b[far])  # bit-identical beyond T hops
        assert np.abs(mu_a[near] - mu_b[near]).max() > 0


class TestDecode:
    def test_shapes_and_positive_variance(self, small_instance):
        p, eg, d = small_instance
        ged = cvae.decode(p, eg, np.zeros(eg.n_nodes))
        assert len(ged) == eg.n_edges
        assert (ged.var > 0).all()

    def test_latent_length_checked(self, small_instance):
        p, eg, _ = small_instance
        with pytest.raises(ShapeError):
            cvae.decode(p, eg, np.zeros(eg.n_nodes + 1))

    def test_permutation_equivariance(self, small_instance):
        p, eg, _ = small_instance
        rng = np.random.default_rng(2)
        z = rng.standard_normal(eg.n_nodes)
        perm = rng.permutation(eg.n_nodes)
        ged = cvae.decode(p, eg, z)
        ged_p = cvae.decode(p, permute_extended_graph(eg, perm), z[np.argsort(perm)])
        assert np.abs(ged_p.mean - ged.mean).max() <= 1e-10
        assert np.abs(ged_p.var - ged.var).max() <= 1e-10

    def test_receptive_field_on_path_graph(self):
        g = MolGraph.from_elements(["C"] * 12, [(i, i + 1) for i in range(11)])
        eg = build_extended_graph(g, seed=0)
        p = cvae.ModelParams(SMALL, seed=3)
        hops = hops_within_extended(eg)
        t = SMALL.message_passes

        z = np.zeros(eg.n_nodes)
        z2 = z.copy()
        z2[0] = 1.5
        mu_a = cvae.decode(p, eg, z).mean
        mu_b = cvae.decode(p, eg, z2).mean
        edge_dist = np.minimum(hops[0][eg.src], hops[0][eg.dst])
        far = edge_dist > t
        assert far.any()
        assert np.array_equal(mu_a[far], mu_b[far])
        assert np.abs(mu_a[~far] - mu_b[~far]).max() > 0


class TestStackedDecode:
    @settings(max_examples=30, deadline=None)
    @given(n_atoms=st.integers(1, 16), samples=st.integers(1, 8),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_single_decodes_without_tape(self, n_atoms, samples, seed):
        """Bit for bit per sample, and not one op records parents or a
        backward closure."""
        rng = np.random.default_rng(seed)
        eg = build_extended_graph(random_tree(n_atoms, rng), seed=1)
        p = cvae.ModelParams(SMALL, seed=seed % 1000)
        z = rng.standard_normal((samples, eg.n_nodes))
        results = []
        real_result = nnet._result

        def spy(data, parents, grad_fn):
            out = real_result(data, parents, grad_fn)
            results.append(out)
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nnet, "_result", spy)
            stacked = cvae.decode(p, eg, z)
        assert results and all(t._parents == () and t._grad_fn is None
                                for t in results)
        assert stacked.mean.shape == stacked.var.shape == (samples, eg.n_edges)
        for s in range(samples):
            alone = cvae.decode(p, eg, z[s])
            assert stacked.mean[s].tobytes() == alone.mean.tobytes(), s
            assert stacked.var[s].tobytes() == alone.var.tobytes(), s

    def test_single_decode_equals_taped_forward_pass(self, small_instance):
        p, eg, _ = small_instance
        z = np.random.default_rng(3).standard_normal(eg.n_nodes)
        mean, logvar = p.dec(
            nnet.concat([nnet.constant(eg.node_features), nnet.constant(z[:, None])],
                        axis=-1),
            nnet.constant(eg.edge_features), eg.src, eg.dst, eg.n_nodes)
        assert mean.requires_grad
        ged = cvae.decode(p, eg, z)
        assert ged.mean.tobytes() == mean.data[:, 0].tobytes()
        assert ged.var.tobytes() == np.exp(logvar.data[:, 0]).tobytes()

    def test_latent_shape_checked(self, small_instance):
        p, eg, _ = small_instance
        for shape in [(2, eg.n_nodes + 1), (1, 2, eg.n_nodes)]:
            with pytest.raises(ShapeError):
                cvae.decode(p, eg, np.zeros(shape))


class TestElbo:
    def test_kl_is_zero_at_the_prior(self):
        assert cvae.kl_standard_normal(np.zeros(4), np.ones(4)) == 0.0

    def test_kl_closed_form_matches_monte_carlo(self):
        rng = np.random.default_rng(5)
        n = 100_000
        for _ in range(5):
            mean = rng.uniform(-2, 2)
            var = rng.uniform(0.1, 4.0)
            closed = cvae.kl_standard_normal([mean], [var])
            z = mean + math.sqrt(var) * rng.standard_normal(n)
            log_q = -0.5 * (math.log(2 * math.pi * var) + (z - mean) ** 2 / var)
            log_p = -0.5 * (math.log(2 * math.pi) + z**2)
            samples = log_q - log_p
            se = samples.std() / math.sqrt(n)
            assert abs(samples.mean() - closed) < 3 * se

    def test_value_decomposition_and_gradients_exist(self, small_instance):
        p, eg, d = small_instance
        res = cvae.elbo(p, eg, d, np.random.default_rng(0).standard_normal(eg.n_nodes))
        assert res.value == pytest.approx(res.reconstruction - res.kl)
        assert set(res.gradients) == set(p.named_parameters())
        # the tensor-path KL agrees with the closed form on the same encoding
        ng = cvae.encode(p, eg, d)
        assert res.kl == pytest.approx(cvae.kl_standard_normal(ng.mean, ng.var),
                                       rel=1e-12)

    def test_decoder_last_node_update_is_dead(self, small_instance):
        """The decoder reads out on edges, so its last pass's node update
        feeds nothing: perturbing those weights moves no decode, no ELBO
        and no gradient, and they get a zero gradient themselves."""
        p, eg, d = small_instance
        last = f"dec.pass{SMALL.message_passes - 1}.node."
        dead = [name for name in p.named_parameters() if name.startswith(last)]
        assert len(dead) == 6  # three layers, a weight and a bias each
        z = np.random.default_rng(1).standard_normal((3, eg.n_nodes))
        noise = np.random.default_rng(0).standard_normal(eg.n_nodes)

        def outputs():
            ged = cvae.decode(p, eg, z)
            res = cvae.elbo(p, eg, d, noise)
            return ged.mean.copy(), ged.var.copy(), res

        mean, var, res = outputs()
        rng = np.random.default_rng(9)
        for name in dead:
            t = p.named_parameters()[name]
            t.data = t.data + rng.normal(0.0, 1.0, t.data.shape)
        mean2, var2, res2 = outputs()
        assert mean.tobytes() == mean2.tobytes() and var.tobytes() == var2.tobytes()
        assert (res.value, res.reconstruction, res.kl) == \
               (res2.value, res2.reconstruction, res2.kl)
        for name, g in res.gradients.items():
            assert g.tobytes() == res2.gradients[name].tobytes(), name
            if name in dead:
                assert not g.any(), name

    def test_gradients_match_finite_differences(self, small_instance):
        p, eg, d = small_instance
        noise = np.random.default_rng(3).standard_normal(eg.n_nodes)
        worst = elbo_gradient_check(p, eg, d, noise, np.random.default_rng(4))
        assert worst < 1e-4

    def test_float32_training_pass_matches_the_float64_elbo(self):
        """`train` runs its passes on float32 copies of the weights; on
        random trees of 3-8 atoms drawn as criterion 1 draws them, with the
        full-width model, that pass gives `cvae.elbo`'s float64 value and
        every parameter gradient within a float32 tolerance. Criterion 1
        checks the float64 pass against central differences.

        Tolerance: float32 rounds to 2**-24 (6e-8) of a value, and a pass
        accumulates rounding through about ten layers and the edge sums, so
        the value may differ by FLOAT32_RTOL relative and each gradient entry
        by FLOAT32_RTOL times the largest float64 gradient entry of the
        model; observed worst: 8e-8 and 1.6e-7. A gradient entry is not held
        to its own size, which cancellation makes tiny for some weights; nor
        is the KL term, a sum of mean**2 + var - log(var) - 1 near 0 at the
        prior, so both terms are held to FLOAT32_RTOL times the value."""
        FLOAT32_RTOL = 1e-5
        rng = np.random.default_rng(101)
        config = cvae.CvaeConfig()
        for case in range(20):
            g = random_tree(int(rng.integers(3, 9)), rng)
            eg = build_extended_graph(g, seed=case)
            d = extract_distances(eg, [random_conformation(g, rng)])[0]
            noise = rng.standard_normal(eg.n_nodes)
            want = cvae.elbo(cvae.ModelParams(config, seed=case % 3), eg, d, noise)

            p = cvae.ModelParams(config, seed=case % 3)
            for t in p.parameters():
                t.data = t.data.astype(np.float32)
            value, recon, kl = cvae._batch_terms(p, [(eg, d)], noise)
            nnet.backward(value)
            for got, expected in ((value, want.value), (recon, want.reconstruction),
                                  (kl, want.kl)):
                assert got.data.dtype == np.float64
                assert abs(got.item() - expected) <= FLOAT32_RTOL * abs(want.value)
            scale = max(np.abs(a).max() for a in want.gradients.values())
            for name, t in p.named_parameters().items():
                assert t.grad is None or t.grad.dtype == np.float32, name
                got = np.zeros(t.data.shape) if t.grad is None else t.grad
                assert np.abs(got - want.gradients[name]).max(initial=0.0) <= \
                    FLOAT32_RTOL * scale, (case, name)

    def test_nonfinite_loss_raises_with_term(self, small_instance):
        p, eg, d = small_instance
        p.dec.mean.layers[-1].bias.data[:] = 1e200
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError) as info:
                cvae.elbo(p, eg, d, np.random.default_rng(0).standard_normal(eg.n_nodes))
        assert info.value.term == "reconstruction"


def toy_records(n_molecules=5, n_conf=30, seed=0):
    rng = np.random.default_rng(seed)
    records = []
    for m in range(n_molecules):
        g = random_tree(5, rng)
        eg = build_extended_graph(g, seed=m)
        base = random_conformation(g, rng)
        base_d = extract_distances(eg, [base])[0]
        for _ in range(n_conf):
            d = base_d * rng.uniform(0.95, 1.05, size=base_d.shape)
            records.append((f"mol{m}", eg, d))
    return records


class TestTrain:
    def test_elbo_improves_and_best_selected(self):
        records = toy_records()
        config = cvae.CvaeConfig(hidden=12, readout_hidden=12, node_state=5,
                                 edge_state=5, epochs=10, batch_size=16)
        result = cvae.train(records, config, seed=1)
        history = result.history
        assert history[9]["train_elbo"] > history[0]["train_elbo"]
        best = max(h["val_elbo"] for h in history)
        assert result.best_val_elbo == best
        assert history[result.best_epoch - 1]["val_elbo"] == best

    def test_empty_dataset_rejected(self):
        with pytest.raises(ShapeError):
            cvae.train([], cvae.CvaeConfig(), seed=0)

    def test_log_gets_reconstruction_and_kl_means(self, monkeypatch):
        records = toy_records(n_molecules=3, n_conf=10)
        config = cvae.CvaeConfig(hidden=8, readout_hidden=8, node_state=4,
                                 edge_state=4, epochs=2, batch_size=8)
        logged, norms = [], []
        step = nnet.Adam.step

        def recorded_step(adam):
            norms.append(step(adam))
            return norms[-1]

        monkeypatch.setattr(nnet.Adam, "step", recorded_step)
        result = cvae.train(records, config, seed=9, log_fn=logged.append)
        assert [list(e) for e in logged] == [
            ["epoch", "train_elbo", "val_elbo", "train_reconstruction", "train_kl",
             "train_grad_norm"]] * 2
        batches = len(norms) // 2
        assert len(norms) == 2 * batches and batches > 1
        for epoch, entry in enumerate(logged):
            # the mean over the epoch's minibatches of the norm Adam applied
            epoch_norms = norms[epoch * batches:(epoch + 1) * batches]
            assert entry["train_grad_norm"] == sum(epoch_norms) / batches > 0
        for entry, kept in zip(logged, result.history):
            assert kept == {k: entry[k] for k in ("epoch", "train_elbo", "val_elbo")}
            assert entry["train_kl"] > 0
            assert entry["train_reconstruction"] - entry["train_kl"] == \
                pytest.approx(entry["train_elbo"], rel=1e-12)

    def test_training_passes_are_float32_up_to_the_loss_sums(self, monkeypatch):
        """A dtype guard on one epoch of one minibatch and its validation
        pass: every taped activation and every parameter gradient is
        float32, and only the scalar loss sums are float64. A float64
        operand, even a 0-d constant, promotes a float32 layer to float64,
        which would lose the float32 speed without failing anything else."""
        records = toy_records(n_molecules=3, n_conf=4)
        config = cvae.CvaeConfig(hidden=8, readout_hidden=8, node_state=4,
                                 edge_state=4, epochs=1, batch_size=len(records))
        results, steps = [], []
        real_result, real_step = nnet._result, nnet.Adam.step

        def spy_result(data, parents, grad_fn):
            results.append(real_result(data, parents, grad_fn))
            return results[-1]

        def spy_step(adam):
            steps.append({(p.data.dtype.name, None if p.grad is None else p.grad.dtype.name)
                          for p in adam.params})
            return real_step(adam)

        monkeypatch.setattr(nnet, "_result", spy_result)
        monkeypatch.setattr(nnet.Adam, "step", spy_step)
        cvae.train(records, config, seed=3)
        assert len(steps) == 1
        # a parameter the loss does not reach (the decoder's last node
        # update) has no gradient
        assert steps[0] == {("float32", "float32"), ("float32", None)}
        assert {(t.data.ndim == 0, t.data.dtype.name) for t in results} == \
               {(False, "float32"), (True, "float64")}

    def test_trained_weights_and_state_are_float64(self):
        records = toy_records(n_molecules=3, n_conf=4)
        config = cvae.CvaeConfig(hidden=8, readout_hidden=8, node_state=4,
                                 edge_state=4, epochs=2, batch_size=4)
        result = cvae.train(records, config, seed=3)
        assert result.params.dtype == np.float64
        assert {t.data.dtype.name for t in result.params.parameters()} == {"float64"}
        for arrays in (result.state["current"].values(), result.state["best"].values(),
                       result.state["adam"]["m"], result.state["adam"]["v"]):
            assert {a.dtype.name for a in arrays} == {"float64"}
        # the returned weights are the best epoch's masters, which the
        # float32 copies of the passes round
        assert any(a.astype(np.float32).astype(np.float64).tobytes() != a.tobytes()
                   for a in result.params.values().values())

    def test_validation_records_no_tape(self):
        records = toy_records(n_molecules=2, n_conf=3)
        p = cvae.ModelParams(SMALL, seed=5)
        items = [(eg, d) for _, eg, d in records]
        results = []
        real_result = nnet._result

        def spy(data, parents, grad_fn):
            results.append(real_result(data, parents, grad_fn))
            return results[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nnet, "_result", spy)
            value = cvae._dataset_elbo(p, items, np.random.default_rng(0), 4)
        assert math.isfinite(value)
        assert results and not any(t.requires_grad or t._parents for t in results)

    def test_resume_matches_uninterrupted_run(self):
        records = toy_records(n_molecules=3, n_conf=10)
        config = cvae.CvaeConfig(hidden=8, readout_hidden=8, node_state=4,
                                 edge_state=4, epochs=4, batch_size=8)
        full = cvae.train(records, config, seed=9)

        half_config = cvae.CvaeConfig(**{**config.to_dict(), "epochs": 2})
        half = cvae.train(records, half_config, seed=9)
        resumed = cvae.train(records, config, seed=9, resume_state=half.state)

        for name, a in full.state["current"].items():
            assert np.array_equal(a, resumed.state["current"][name]), name
        assert full.best_epoch == resumed.best_epoch
        assert [h["val_elbo"] for h in full.history] == \
               [h["val_elbo"] for h in resumed.history]

    def test_batched_elbo_equals_sum_of_singles(self):
        records = toy_records(n_molecules=2, n_conf=1)
        p = cvae.ModelParams(SMALL, seed=5)
        items = [(eg, d) for _, eg, d in records]
        sizes = [eg.n_nodes for eg, _ in items]
        noise = np.random.default_rng(0).standard_normal(sum(sizes))
        batched = cvae._batch_terms(p, items, noise)[0].item()
        parts = []
        offset = 0
        for (eg, d), n in zip(items, sizes):
            parts.append(cvae.elbo(p, eg, d, noise=noise[offset:offset + n]).value)
            offset += n
        assert batched == pytest.approx(sum(parts), rel=1e-12)


class TestModelParams:
    def test_checkpoint_roundtrip(self, tmp_path, small_instance):
        p, eg, d = small_instance
        path = tmp_path / "model.json"
        cvae.save_model(path, p)
        loaded, state = cvae.load_model(path)
        assert state is None
        for name, t in p.named_parameters().items():
            assert np.array_equal(loaded.named_parameters()[name].data, t.data)
        ng_a = cvae.encode(p, eg, d)
        ng_b = cvae.encode(loaded, eg, d)
        assert np.array_equal(ng_a.mean, ng_b.mean)

    @settings(max_examples=15, deadline=None)
    @given(data=st.data(), with_state=st.booleans())
    def test_save_load_property(self, data, with_state):
        config = cvae.CvaeConfig(
            message_passes=data.draw(st.integers(0, 2)),
            node_state=data.draw(st.integers(1, 3)),
            edge_state=data.draw(st.integers(1, 3)),
            hidden=data.draw(st.integers(1, 4)),
            readout_hidden=data.draw(st.integers(1, 4)),
        )
        seed = data.draw(st.integers(0, 2**32 - 1))
        scale = data.draw(st.floats(1e-300, 1e300))
        rng = np.random.default_rng(seed)
        params = cvae.ModelParams(config, seed=seed)
        params.set_values({k: v * scale for k, v in params.values().items()})

        def random_values():
            return {k: rng.standard_normal(v.shape) * scale
                    for k, v in params.values().items()}

        state = None
        if with_state:
            adam = nnet.Adam(params.parameters())
            adam.load_state_dict({
                "t": data.draw(st.integers(0, 10**6)),
                "m": [rng.standard_normal(t.data.shape) for t in params.parameters()],
                "v": [rng.random(t.data.shape) for t in params.parameters()],
            })
            elbos = st.floats(allow_nan=False)
            state = {
                "epoch": data.draw(st.integers(0, 10**4)),
                "current": random_values(),
                "adam": adam.state_dict(),
                "rng": rng.bit_generator.state,
                "history": [{"epoch": i + 1, "train_elbo": data.draw(elbos),
                             "val_elbo": data.draw(elbos)}
                            for i in range(data.draw(st.integers(0, 3)))],
                "best": params.values(),
                # load_model rejects a best_val_elbo that is not finite
                "best_val_elbo": data.draw(st.floats(allow_nan=False,
                                                     allow_infinity=False)),
                "best_epoch": data.draw(st.integers(0, 10**4)),
            }

        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "model.json"
            again = Path(root) / "again.json"
            cvae.save_model(path, params, train_state=state)
            loaded, loaded_state = cvae.load_model(path)
            cvae.save_model(again, loaded, train_state=loaded_state)
            assert again.read_bytes() == path.read_bytes()
            if state is not None:
                # only params holds the best weights, so they must be its bits
                wrong = params.values()
                bias = next(name for name in wrong if name.endswith("bias"))
                wrong[bias] = -wrong[bias]  # zeros: -0.0 equals 0.0 in value only
                with pytest.raises(ValueError, match="best weights"):
                    cvae.save_model(again, params, train_state={**state, "best": wrong})

        assert loaded.config == config
        for name, t in params.named_parameters().items():
            assert loaded.named_parameters()[name].data.tobytes() == t.data.tobytes()
        if state is None:
            assert loaded_state is None
            return
        assert loaded_state.keys() == state.keys()
        for key in ("current", "best"):
            assert loaded_state[key].keys() == state[key].keys()
            for name, a in state[key].items():
                assert loaded_state[key][name].tobytes() == a.tobytes()
        assert loaded_state["adam"]["t"] == state["adam"]["t"]
        for key in ("m", "v"):
            for a, b in zip(state["adam"][key], loaded_state["adam"][key]):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
        for key in ("epoch", "rng", "history", "best_val_elbo", "best_epoch"):
            assert loaded_state[key] == state[key]

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_save_load_save_keeps_every_bit_pattern(self, seed):
        """Weights, current weights and Adam moments of random 64 bits, half
        of them special (NaN payloads, -0.0, subnormals, infinities): save,
        load and save again write the same bytes, and every array comes back
        bit for bit."""
        params = cvae.ModelParams(cvae.CvaeConfig(hidden=2, readout_hidden=2,
                                                  node_state=1, edge_state=1), seed=0)
        rng = np.random.default_rng(seed)

        def draw_values():
            values = {}
            for name, t in params.named_parameters().items():
                bits = rng.integers(0, 2**64 - 1, t.data.shape, dtype=np.uint64,
                                    endpoint=True)
                special = rng.random(t.data.shape) < 0.5
                bits[special] = rng.choice(SPECIAL_BITS, special.sum())
                values[name] = bits.view(np.float64)
            return values

        params.set_values(draw_values())
        adam = nnet.Adam(params.parameters())
        adam.load_state_dict({"t": 3, "m": list(draw_values().values()),
                              "v": list(draw_values().values())})
        state = {"epoch": 1, "current": draw_values(), "adam": adam.state_dict(),
                 "rng": np.random.default_rng(0).bit_generator.state, "history": [],
                 "best": params.values(), "best_val_elbo": -1.0, "best_epoch": 1}
        with tempfile.TemporaryDirectory() as root:
            path, again = Path(root) / "model.json", Path(root) / "again.json"
            cvae.save_model(path, params, train_state=state)
            loaded, loaded_state = cvae.load_model(path)
            cvae.save_model(again, loaded, train_state=loaded_state)
            assert again.read_bytes() == path.read_bytes()
        for name, t in params.named_parameters().items():
            assert loaded.named_parameters()[name].data.tobytes() == t.data.tobytes()
        for name, a in state["current"].items():
            assert loaded_state["current"][name].tobytes() == a.tobytes()
        for key in "mv":
            assert [a.tobytes() for a in loaded_state["adam"][key]] == \
                   [a.tobytes() for a in state["adam"][key]]

    @pytest.mark.parametrize("weight_bits, best_bits", [
        (0x7FF8000000000000, 0x7FF8DEADBEEF0001),
        (0x0000000000000000, 0x8000000000000000),
    ], ids=["nan-payload", "zero-sign"])
    def test_best_weights_must_be_the_weights_bit_for_bit(
            self, tmp_path, small_instance, weight_bits, best_bits):
        """The state's best weights are not stored, so save_model rejects
        best weights that differ from the weights in one bit pattern only,
        though they compare equal (zeros) or both NaN."""
        p, _, _ = small_instance
        values = p.values()
        name = next(n for n in values if n.endswith("weight"))
        values[name].view(np.uint64).flat[0] = weight_bits
        p.set_values(values)
        best = p.values()
        best[name].view(np.uint64).flat[0] = best_bits
        state = {"epoch": 1, "current": p.values(),
                 "adam": nnet.Adam(p.parameters()).state_dict(),
                 "rng": np.random.default_rng(0).bit_generator.state, "history": [],
                 "best": best, "best_val_elbo": -1.0, "best_epoch": 1}
        with pytest.raises(ValueError, match="best weights"):
            cvae.save_model(tmp_path / "model.json", p, train_state=state)
        cvae.save_model(tmp_path / "model.json", p, train_state={**state, "best": values})
        _, loaded = cvae.load_model(tmp_path / "model.json")
        assert loaded["best"][name].tobytes() == values[name].tobytes()

    def test_copy_is_independent(self, small_instance):
        p, _, _ = small_instance
        clone = cvae.ModelParams(p.config, seed=0)
        clone.set_values(p.values())
        first = next(iter(p.named_parameters().values()))
        first.data += 1.0
        assert not np.array_equal(
            first.data, next(iter(clone.named_parameters().values())).data
        )

    def test_parameter_names_order_and_init_draws(self):
        """Checkpoints store parameters by name, and one generator draws
        every weight in this order, so a reordered construction would stop
        old checkpoints loading and change every trained model."""
        c = cvae.CvaeConfig(message_passes=2, node_state=5, edge_state=4,
                            hidden=12, readout_hidden=7)
        fv, fe = molgraph.NODE_FEATURE_DIM, molgraph.EDGE_FEATURE_DIM
        h, r, nv, ne = c.hidden, c.readout_hidden, c.node_state, c.edge_state
        edge_pass, node_pass = (ne + 2 * nv, h, h, ne), (nv + ne, h, h, nv)
        # (MLP name, layer sizes, gain of the output layer), in draw order
        mlps = [
            ("enc.node_embed", (fv, h, h, nv), 1.0),
            ("enc.edge_embed", (fe + 1, h, h, ne), 1.0),
            ("enc.pass0.edge", edge_pass, 0.1),
            ("enc.pass0.node", node_pass, 0.1),
            ("enc.pass1.edge", edge_pass, 0.1),
            ("enc.pass1.node", node_pass, 0.1),
            ("enc.mean", (nv, r, r, 1), 0.01),
            ("enc.logvar", (nv, r, r, 1), 0.01),
            ("dec.node_embed", (fv + 1, h, h, nv), 1.0),
            ("dec.edge_embed", (fe, h, h, ne), 1.0),
            ("dec.pass0.edge", edge_pass, 0.1),
            ("dec.pass0.node", node_pass, 0.1),
            ("dec.pass1.edge", edge_pass, 0.1),
            ("dec.pass1.node", node_pass, 0.1),
            ("dec.mean", (ne, r, r, 1), 0.01),
            ("dec.logvar", (ne, r, r, 1), 0.01),
        ]
        rng = np.random.default_rng(11)
        expected = {}
        for name, sizes, out_gain in mlps:
            for li, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
                gain = out_gain if li == len(sizes) - 2 else 1.0
                limit = gain * math.sqrt(6.0 / fan_in)
                expected[f"{name}.{li}.weight"] = rng.uniform(-limit, limit,
                                                              (fan_in, fan_out))
                expected[f"{name}.{li}.bias"] = np.zeros(fan_out)

        got = cvae.ModelParams(c, seed=11).named_parameters()
        assert list(got) == list(expected)
        for name, t in got.items():
            assert t.data.tobytes() == expected[name].tobytes(), name

    def test_config_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            cvae.CvaeConfig.from_dict({"message_passes": 2, "bogus": 1})

    @pytest.mark.parametrize("field, value", [
        ("node_state", 0), ("edge_state", 2.0), ("hidden", True),
        ("readout_hidden", -1), ("batch_size", "8"), ("epochs", 0),
        ("message_passes", -1), ("learning_rate", 0.0),
        ("learning_rate", float("inf")), ("variance_floor", 0.0),
        ("variance_floor", float("nan")), ("variance_ceiling", 1e-6),
        ("variance_ceiling", float("inf")), ("validation_fraction", 1.0),
        ("validation_fraction", -0.1), ("validation_fraction", None),
    ])
    def test_config_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be "):
            cvae.CvaeConfig.from_dict({field: value})

    def test_config_accepts_edge_values(self):
        cvae.CvaeConfig(message_passes=0, validation_fraction=0.0, learning_rate=1,
                        variance_floor=1e-300, variance_ceiling=1e300)
