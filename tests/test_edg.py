import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.sparse.csgraph import shortest_path

from confgen import cvae, edg, nnet
from confgen.cvae import GaussianEdgeDist
from confgen.errors import DomainError
from confgen.nnet import ADAM_BETA1, ADAM_BETA2, ADAM_EPS
from confgen.edg import (
    BoundsMatrix,
    InconsistentBoundsError,
    embed_conformation,
    gram_embed,
    make_bounds,
    metrize,
    refine,
    smooth_bounds,
)
from confgen.molgraph import (
    Conformation,
    GraphStructureError,
    MolGraph,
    build_extended_graph,
    extract_distances,
)

from conftest import random_tree

SMALL = cvae.CvaeConfig(hidden=12, readout_hidden=12, node_state=5, edge_state=5)


def point_distance_matrix(points: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


def random_bounds(n: int, rng: np.random.Generator, points=None) -> BoundsMatrix:
    """Euclidean-realizable bounds: a point set (random if not given) widened
    both ways."""
    if points is None:
        points = rng.normal(0.0, 2.0, (n, 3))
    d = point_distance_matrix(points)
    slack = rng.uniform(0.02, 0.4, size=(n, n))
    slack = (slack + slack.T) / 2
    lower = np.maximum(d - slack, 0.01)
    upper = d + slack
    np.fill_diagonal(lower, 0.0)
    np.fill_diagonal(upper, 0.0)
    return BoundsMatrix(lower, upper)


@pytest.fixture
def triangle_graph():
    g = MolGraph.from_elements(["C", "C", "C"], [(0, 1), (1, 2), (0, 2)])
    return build_extended_graph(g, seed=0)


class TestMakeBounds:
    def test_direct_formula(self, triangle_graph):
        ged = GaussianEdgeDist(np.full(3, 1.5), np.full(3, 0.01))
        b = make_bounds(triangle_graph, ged)
        i, j = triangle_graph.src[0], triangle_graph.dst[0]
        assert b.lower[i, j] == pytest.approx(1.4)
        assert b.upper[i, j] == pytest.approx(1.6)

    def test_non_edge_pair_gets_defaults(self):
        g = MolGraph.from_elements(["C"] * 5, [(i, i + 1) for i in range(4)])
        eg = build_extended_graph(g, seed=0)
        ged = GaussianEdgeDist(np.full(eg.n_edges, 1.5), np.full(eg.n_edges, 0.01))
        b = make_bounds(eg, ged)
        connected = {frozenset(p) for p in zip(eg.src.tolist(), eg.dst.tolist())}
        loose = [(i, j) for i in range(5) for j in range(i + 1, 5)
                 if frozenset((i, j)) not in connected]
        assert loose, "fixture should leave at least one unconstrained pair"
        for i, j in loose:
            assert b.lower[i, j] == edg.STERIC_FLOOR
            assert b.upper[i, j] == edg.DISTANCE_CEILING

    def test_lower_clamped_at_floor(self, triangle_graph):
        ged = GaussianEdgeDist(np.full(3, 0.6), np.full(3, 0.09))
        b = make_bounds(triangle_graph, ged)
        i, j = triangle_graph.src[0], triangle_graph.dst[0]
        assert b.lower[i, j] == pytest.approx(0.5)
        assert b.upper[i, j] == pytest.approx(0.9)

    def test_nan_rejected(self, triangle_graph):
        ged = GaussianEdgeDist(np.full(3, 1.5), np.full(3, 0.01))
        ged.mean[0] = np.nan
        from confgen.errors import NumericalError
        with pytest.raises(NumericalError):
            make_bounds(triangle_graph, ged)

    def test_lower_never_exceeds_upper(self, triangle_graph):
        # even means far below the floor cannot cross the bounds
        ged = GaussianEdgeDist(np.full(3, 0.05), np.full(3, 0.0001))
        b = make_bounds(triangle_graph, ged)
        off = ~np.eye(3, dtype=bool)
        assert (b.lower[off] <= b.upper[off]).all()


class TestSmoothBounds:
    def test_exact_metric_unchanged(self):
        rng = np.random.default_rng(0)
        d = point_distance_matrix(rng.normal(0, 2, (6, 3)))
        b = BoundsMatrix(d.copy(), d.copy())
        s = smooth_bounds(b)
        assert np.allclose(s.lower, d, atol=1e-12)
        assert np.allclose(s.upper, d, atol=1e-12)

    def test_single_triangle(self):
        upper = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
        lower = np.full((3, 3), 0.1)
        np.fill_diagonal(lower, 0.0)
        s = smooth_bounds(BoundsMatrix(lower, upper))
        assert s.upper[0, 2] == pytest.approx(2.0)

    def test_uppers_equal_shortest_paths(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            b = random_bounds(6, rng)
            s = smooth_bounds(b)
            sp = shortest_path(b.upper, method="FW", directed=False)
            assert np.array_equal(s.upper, sp)

    def test_idempotent_and_never_widens(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            b = random_bounds(7, rng)
            s1 = smooth_bounds(b)
            s2 = smooth_bounds(s1)
            assert np.array_equal(s1.lower, s2.lower)
            assert np.array_equal(s1.upper, s2.upper)
            assert (s1.upper <= b.upper + 1e-15).all()
            assert (s1.lower >= b.lower - 1e-15).all()

    def test_inconsistency_names_the_pair(self):
        lower = np.array([[0.0, 0.5, 4.0], [0.5, 0.0, 0.5], [4.0, 0.5, 0.0]])
        upper = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
        with pytest.raises(InconsistentBoundsError) as info:
            smooth_bounds(BoundsMatrix(lower, upper))
        # the contradiction surfaces either directly on (0,2) or through the
        # propagated lower bound on (1,2); both identify real violations
        assert set(info.value.pair) in ({0, 2}, {1, 2})


class TestBoundsMatrix:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_non_finite_entry_rejected_with_its_pair(self, value, side):
        b = random_bounds(4, np.random.default_rng(3))
        bounds = {"lower": b.lower.copy(), "upper": b.upper.copy()}
        bounds[side][1, 3] = bounds[side][3, 1] = value
        with pytest.raises(DomainError, match=r"atom pair \(1, 3\) are not finite"):
            BoundsMatrix(**bounds)

    def test_non_finite_diagonal_rejected(self):
        lower = np.zeros((2, 2))
        upper = np.array([[np.nan, 1.0], [1.0, 0.0]])
        with pytest.raises(DomainError, match=r"\(0, 0\)"):
            BoundsMatrix(lower, upper)


def oracle_smooth(b):
    """Per-set smoothing as written before the stack: in-place sweeps on one
    pair of matrices, raising at the first crossing."""
    lower, upper = b.lower.copy(), b.upper.copy()

    def raise_if_crossed():
        bad = lower - upper > 1e-9
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise InconsistentBoundsError(int(i), int(j), float(lower[i, j]),
                                          float(upper[i, j]))

    raise_if_crossed()
    for _ in range(b.n + 1):
        changed = False
        for k in range(b.n):
            shrunk = np.minimum(upper, upper[:, k, None] + upper[None, k, :])
            changed |= bool((shrunk < upper).any())
            upper[...] = shrunk
            grown = np.maximum(lower, np.maximum(lower[:, k, None] - upper[None, k, :],
                                                 lower[None, k, :] - upper[:, k, None]))
            np.fill_diagonal(grown, 0.0)
            changed |= bool((grown > lower).any())
            lower[...] = grown
            raise_if_crossed()
        if not changed:
            break
    return BoundsMatrix(lower, upper)


def crossing_bounds(n, rng, kind):
    """Random bounds, made inconsistent in one of three ways (kind 0-2): a
    lower bound above its own loose upper bound, found before any sweep; a
    lower bound (i, j) above the upper path i-k-j; or a pair (k, j) pinned
    longer than the path k-i-j allows. The last two are found mid-sweep."""
    b = random_bounds(n, rng)
    lower, upper = b.lower, b.upper
    i, j, k = rng.choice(n, size=3, replace=False)
    if kind == 0:  # loose, so that a sweep would have moved it
        upper[i, j] = upper[j, i] = 10.0 * upper[i, j]
        lower[i, j] = lower[j, i] = upper[i, j] + rng.uniform(0.01, 1.0)
    elif kind == 1:
        lower[i, j] = lower[j, i] = upper[i, k] + upper[k, j] + rng.uniform(0.01, 1.0)
        upper[i, j] = upper[j, i] = max(upper[i, j], lower[i, j])
    else:
        upper[i, k] = upper[k, i] = lower[i, k]
        lower[k, j] = lower[j, k] = upper[k, j] = upper[j, k] = \
            upper[i, j] + upper[i, k] + rng.uniform(0.01, 1.0)
    return BoundsMatrix(lower, upper)


class TestSmoothStack:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(3, 12), kinds=st.lists(st.integers(0, 3), min_size=1,
                                                max_size=8),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_per_set_oracle(self, n, kinds, seed):
        """Bit for bit, set by set, on stacks mixing consistent sets (kind 3)
        with sets that cross; rejected sets and their first crossing agree."""
        rng = np.random.default_rng(seed)
        stack = [random_bounds(n, rng) if kind == 3 else crossing_bounds(n, rng, kind)
                 for kind in kinds]
        lower, upper, errors = edg._smooth_stack(np.stack([b.lower for b in stack]),
                                                 np.stack([b.upper for b in stack]))
        for s, b in enumerate(stack):
            try:
                expected = oracle_smooth(b)
            except InconsistentBoundsError as e:
                assert errors[s] is not None, s
                assert (errors[s].pair, str(errors[s])) == (e.pair, str(e)), s
                with pytest.raises(InconsistentBoundsError) as info:
                    smooth_bounds(b)
                assert (info.value.pair, str(info.value)) == (e.pair, str(e))
                continue
            assert errors[s] is None, s
            assert lower[s].tobytes() == expected.lower.tobytes(), s
            assert upper[s].tobytes() == expected.upper.tobytes(), s
            alone = smooth_bounds(b)
            assert alone.lower.tobytes() == expected.lower.tobytes()
            assert alone.upper.tobytes() == expected.upper.tobytes()

    def test_all_kinds_cross(self):
        rng = np.random.default_rng(21)
        for kind in range(3):
            for _ in range(5):
                with pytest.raises(InconsistentBoundsError):
                    oracle_smooth(crossing_bounds(6, rng, kind))


class TestMetrize:
    def test_degenerate_interval_returns_exact(self):
        rng = np.random.default_rng(0)
        d = point_distance_matrix(rng.normal(0, 2, (5, 3)))
        b = BoundsMatrix(d.copy(), d.copy())
        assert np.array_equal(metrize(b, rng), d)

    def test_reproducible_under_seed(self):
        b = random_bounds(6, np.random.default_rng(1))
        a = metrize(b, np.random.default_rng(5))
        c = metrize(b, np.random.default_rng(5))
        assert np.array_equal(a, c)
        assert np.array_equal(a, a.T)
        assert np.all(np.diag(a) == 0.0)

    def test_uniform_over_interval(self):
        lower = np.array([[0.0, 1.0], [1.0, 0.0]])
        upper = np.array([[0.0, 3.0], [3.0, 0.0]])
        b = BoundsMatrix(lower, upper)
        rng = np.random.default_rng(2)
        draws = np.array([metrize(b, rng)[0, 1] for _ in range(10_000)])
        se = (3.0 - 1.0) / np.sqrt(12.0) / np.sqrt(draws.size)
        assert abs(draws.mean() - 2.0) < 3.0 * se
        assert draws.min() >= 1.0 and draws.max() <= 3.0

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_draws_are_symmetric_hollow_and_within_bounds(self, n, seed):
        rng = np.random.default_rng(seed)
        b = smooth_bounds(random_bounds(n, rng))
        d = metrize(b, rng)
        assert d.shape == (n, n)
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0.0)
        iu = np.triu_indices(n, k=1)
        assert np.all(d[iu] >= b.lower[iu])
        # lower + (upper - lower) * u, u < 1, may round up by one unit
        assert np.all(d[iu] - b.upper[iu] <= np.spacing(b.upper[iu]))


def oracle_metrize(b: BoundsMatrix, rng, fixed_per_atom: int) -> np.ndarray:
    """Partial metrization of one smoothed set, a pair at a time: draw the
    pair order, then the fixed pairs' uniforms, then an (n, n) block."""
    n = b.n
    lower, upper = b.lower.copy(), b.upper.copy()
    pairs = list(zip(*np.triu_indices(n, k=1)))
    fixed = min(fixed_per_atom * n, len(pairs))
    order = rng.permutation(len(pairs))[:fixed]
    draws = rng.random(fixed)
    for index, u in zip(order, draws):
        a, b_ = pairs[index]
        d = lower[a, b_] + (upper[a, b_] - lower[a, b_]) * u
        lower[a, b_] = lower[b_, a] = upper[a, b_] = upper[b_, a] = d
        # shortest paths i-a-b-j and j-a-b-i through the fixed pair
        path = (upper[:, a] + d)[:, None] + upper[b_][None, :]
        upper = np.minimum(upper, np.minimum(path, path.T))
        for k in (a, b_):  # Floyd-Warshall lower steps through a, then b
            grown = lower[:, k, None] - upper[None, k, :]
            lower = np.maximum(lower, np.maximum(grown, grown.T))
    u = rng.random((n, n))
    out = np.zeros((n, n))
    for i, j in pairs:
        d = lower[i, j] + (upper[i, j] - lower[i, j]) * u[i, j]
        out[i, j] = out[j, i] = min(max(d, b.lower[i, j]), b.upper[i, j])
    return out


def metrize_set(n: int, kind: int, rng: np.random.Generator) -> BoundsMatrix:
    """A smoothed set: realizable bounds (kind 0), every distance pinned to a
    point set's (kind 1), or a point set's distances pinned on a random third
    of the pairs and about STERIC_FLOOR to DISTANCE_CEILING elsewhere, as the
    decoder's bounds are (kind 2)."""
    if kind == 0:
        return smooth_bounds(random_bounds(n, rng))
    d = point_distance_matrix(rng.normal(0.0, 2.0, (n, 3)))
    pinned = np.triu(rng.random((n, n)) < (1.0 if kind == 1 else 1 / 3), k=1)
    pinned |= pinned.T
    lower = np.where(pinned, d, np.minimum(edg.STERIC_FLOOR, d))
    upper = np.where(pinned, d, edg.DISTANCE_CEILING)
    np.fill_diagonal(upper, 0.0)
    return smooth_bounds(BoundsMatrix(lower, upper))


class TestMetrizeStack:
    @settings(max_examples=40, deadline=None)
    @example(n=2, kinds=[0, 1], fixed_per_atom=2, seed=0)
    @example(n=20, kinds=[2, 0, 1, 2], fixed_per_atom=2, seed=1)
    @given(n=st.integers(2, 20), kinds=st.lists(st.integers(0, 2), min_size=1,
                                                max_size=8),
           fixed_per_atom=st.sampled_from([0, 1, 2, 4, 100]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_one_set_oracle(self, n, kinds, fixed_per_atom, seed):
        """Bit for bit, set by set, each set on its own stream; every
        distance lies within its set's smoothed bounds."""
        rng = np.random.default_rng(seed)
        stack = [metrize_set(n, kind, rng) for kind in kinds]

        def streams():
            return [np.random.default_rng([seed, k]) for k in range(len(stack))]

        lower = np.stack([b.lower for b in stack])
        upper = np.stack([b.upper for b in stack])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(edg, "METRIZE_FIXED_PER_ATOM", fixed_per_atom)
            d = edg._metrize_stack(lower, upper, streams())
            alone = [metrize(b, stream) for b, stream in zip(stack, streams())]
        assert d.shape == (len(stack), n, n)
        assert lower.tobytes() == np.stack([b.lower for b in stack]).tobytes()
        iu = np.triu_indices(n, k=1)
        for k, (b, stream) in enumerate(zip(stack, streams())):
            expected = oracle_metrize(b, stream, fixed_per_atom)
            assert d[k].tobytes() == expected.tobytes(), k
            assert alone[k].tobytes() == expected.tobytes(), k
            assert np.array_equal(d[k], d[k].T) and not np.diag(d[k]).any()
            assert np.all(b.lower[iu] <= d[k][iu]) and np.all(d[k][iu] <= b.upper[iu])

    def test_pinned_pairs_stay_pinned(self):
        """A fixed pair's bounds close on its draw, so pairs pinned by the
        bounds come out exactly, however many pairs are fixed."""
        rng = np.random.default_rng(8)
        for fixed_per_atom in (0, 2, 100):
            b = metrize_set(12, 2, rng)
            pinned = b.lower == b.upper
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(edg, "METRIZE_FIXED_PER_ATOM", fixed_per_atom)
                d = metrize(b, rng)
            assert np.array_equal(d[pinned], b.lower[pinned])

    def test_no_sets(self):
        d = edg._metrize_stack(np.zeros((0, 5, 5)), np.zeros((0, 5, 5)), [])
        assert d.shape == (0, 5, 5)


def oracle_gram_embed(d):
    """The embedding of one distance matrix, written per matrix."""
    n = d.shape[0]
    d2 = d**2
    d0_sq = d2.mean(axis=1) - d2.sum() / (2.0 * n * n)
    evals, evecs = np.linalg.eigh(0.5 * (d0_sq[:, None] + d0_sq[None, :] - d2))
    order = np.argsort(evals)[::-1][: min(3, n)]
    coords = np.zeros((n, 3))
    coords[:, : len(order)] = evecs[:, order] * np.sqrt(np.clip(evals[order], 0.0, None))
    return coords


class TestGramEmbed:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 40), count=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
    def test_stack_matches_each_matrix_alone(self, n, count, seed):
        """Each set of a stack, metrized within random bounds, embeds bit for
        bit as the per-matrix oracle embeds it."""
        rng = np.random.default_rng(seed)
        bounds = [oracle_smooth(random_bounds(n, rng)) for _ in range(count)]
        d = np.reshape([metrize(b, rng) for b in bounds], (count, n, n))
        coords = edg._gram_stack(d)
        assert coords.shape == (count, n, 3)
        for x, dk in zip(coords, d):
            assert x.tobytes() == oracle_gram_embed(dk).tobytes()

    def test_equilateral_triangle(self):
        d = np.ones((3, 3)) - np.eye(3)
        x = gram_embed(d)
        assert np.abs(point_distance_matrix(x) - d).max() < 1e-9

    def test_random_3d_configuration_roundtrip(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            d = point_distance_matrix(rng.normal(0, 2, (8, 3)))
            x = gram_embed(d)
            err = point_distance_matrix(x) - d
            assert np.sqrt((err**2).mean()) < 1e-6

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 40), spread=st.floats(0.1, 10.0),
           seed=st.integers(0, 2**32 - 1))
    def test_reproduces_distances_of_3d_points(self, n, spread, seed):
        points = np.random.default_rng(seed).normal(0.0, spread, (n, 3))
        d = point_distance_matrix(points)
        x = gram_embed(d)
        assert x.shape == (n, 3)
        assert np.abs(point_distance_matrix(x) - d).max() <= 1e-9 * max(1.0, d.max())

    def test_four_dimensional_simplex_is_flattened(self):
        d = np.ones((5, 5)) - np.eye(5)  # regular 4-simplex, not 3-embeddable
        x = gram_embed(d)
        assert x.shape == (5, 3)
        assert np.abs(point_distance_matrix(x) - d).max() > 1e-3


class TestRefine:
    def test_satisfying_coords_converge_immediately(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(0, 2, (6, 3))
        b = random_bounds(6, rng)
        # widen around the actual points so they satisfy everything
        d = point_distance_matrix(pts)
        b = BoundsMatrix(np.maximum(d - 0.1, 0.0), d + 0.1)
        np.fill_diagonal(b.lower, 0.0)
        np.fill_diagonal(b.upper, 0.0)
        coords, converged, violation, iterations = refine(pts, b)
        assert converged and iterations == 0 and violation == 0.0
        assert np.array_equal(coords, pts)

    def test_perturbed_triangle_recovery(self):
        d = 1.5 * (np.ones((3, 3)) - np.eye(3))
        b = BoundsMatrix(d.copy(), d.copy())
        rng = np.random.default_rng(5)
        start = gram_embed(d) + 0.1 * rng.standard_normal((3, 3))
        coords, converged, violation, _ = refine(start, b, tol=1e-3)
        assert converged
        assert violation < 1e-3

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        iu = np.triu_indices(5, k=1)
        stack = [random_bounds(5, rng) for _ in range(2)]
        lo2 = np.stack([b.lower[iu] ** 2 for b in stack])
        hi2 = np.stack([b.upper[iu] ** 2 for b in stack])
        x = rng.normal(0, 2, (2, 5, 3))

        def energy(p, s):
            sq = ((p[iu[0]] - p[iu[1]]) ** 2).sum(axis=1)
            over = np.maximum(sq - hi2[s], 0.0)
            under = np.maximum(lo2[s] - sq, 0.0)
            return float((over**2 + under**2).sum())

        i, j = edg._pair_layout([5], [2])
        e, grad, sq = edg._hinge_energy_grad(x.reshape(-1, 3).T.copy(), i, j,
                                             lo2.ravel(), hi2.ravel(), [(2, 10)])
        grad, sq = grad.T.reshape(x.shape), sq.reshape(2, 10)
        for s in range(2):
            assert e[s] == pytest.approx(energy(x[s], s), rel=1e-12)
            assert np.allclose(sq[s], point_distance_matrix(x[s])[iu] ** 2)

        h = 1e-6
        worst = 0.0
        gf = grad.ravel()
        for idx in range(x.size):
            s = idx // 15
            flat = x[s].ravel()  # a view, so edits move x[s]
            orig = flat[idx % 15]
            flat[idx % 15] = orig + h
            up = energy(x[s], s)
            flat[idx % 15] = orig - h
            down = energy(x[s], s)
            flat[idx % 15] = orig
            fd = (up - down) / (2 * h)
            worst = max(worst, abs(fd - gf[idx]) / max(abs(fd), abs(gf[idx]), 1e-6))
        assert worst < 1e-4

    def test_accepted_energy_never_increases(self):
        rng = np.random.default_rng(9)
        b = random_bounds(6, rng)
        d = metrize(smooth_bounds(b), rng)
        start = gram_embed(d) + 0.5 * rng.standard_normal((6, 3))
        iu = np.triu_indices(6, k=1)
        lo2, hi2 = b.lower[iu] ** 2, b.upper[iu] ** 2

        energies = []
        import confgen.nnet as nnet

        x = nnet.param(start.copy())
        adam = nnet.Adam([x], lr=0.05)
        best = np.inf
        for _ in range(300):
            diff = x.data[iu[0]] - x.data[iu[1]]
            sq = (diff**2).sum(axis=1)
            over = np.maximum(sq - hi2, 0.0)
            under = np.maximum(lo2 - sq, 0.0)
            e = float((over**2 + under**2).sum())
            if e <= best + 1e-12:
                best = e
                energies.append(e)
            coef = 4.0 * (over - under)
            g = np.zeros_like(x.data)
            np.add.at(g, iu[0], coef[:, None] * diff)
            np.add.at(g, iu[1], -coef[:, None] * diff)
            x.grad = g
            adam.step()
        diffs = np.diff(energies)
        assert (diffs <= 1e-12).all()


def uniform_metrize(b: BoundsMatrix, rng) -> np.ndarray:
    """Every distance drawn uniformly within the bounds at once, as `metrize`
    drew before partial metrization: a start that refine has work to do on."""
    d = np.triu(b.lower + (b.upper - b.lower) * rng.random((b.n, b.n)), k=1)
    return d + d.T


def oracle_refine(coords, b, tol):
    """Per-sample refinement as written before the stack: np.add.at gradients,
    a separate distance pass for the violation and Adam written out per sample."""
    coords = np.asarray(coords, dtype=np.float64).copy()
    iu = np.triu_indices(coords.shape[0], k=1)
    lo2 = b.lower[iu] ** 2
    hi2 = b.upper[iu] ** 2

    def energy_grad(x):
        diff = x[iu[0]] - x[iu[1]]
        sq = (diff**2).sum(axis=1)
        over = np.maximum(sq - hi2, 0.0)
        under = np.maximum(lo2 - sq, 0.0)
        e = float((over**2 + under**2).sum())
        contrib = (4.0 * (over - under))[:, None] * diff
        g = np.zeros_like(x)
        np.add.at(g, iu[0], contrib)
        np.add.at(g, iu[1], -contrib)
        return e, g

    def pair_violation(x):
        diff = x[iu[0]] - x[iu[1]]
        dist = np.sqrt((diff**2).sum(axis=1))
        worst = max((dist - b.upper[iu]).max(initial=0.0),
                    (b.lower[iu] - dist).max(initial=0.0))
        return max(worst, 0.0)

    best = coords.copy()
    best_energy, _ = energy_grad(coords)
    violation = pair_violation(best)
    if violation <= tol:
        return best, True, violation, 0
    x = coords.copy()
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    iterations = 0
    for step in range(1, edg.REFINE_MAX_ITER + 1):
        e, g = energy_grad(x)
        if e <= best_energy + 1e-12:
            best_energy = e
            best = x.copy()
            violation = pair_violation(best)
            if violation <= tol:
                break
        # Adam with bias correction, written out so that refine's shared
        # update is checked against the rule, not against itself
        c1 = 1.0 - ADAM_BETA1**step
        c2 = 1.0 - ADAM_BETA2**step
        m = m * ADAM_BETA1 + (1.0 - ADAM_BETA1) * g
        v = v * ADAM_BETA2 + (1.0 - ADAM_BETA2) * g * g
        x -= edg.REFINE_LR * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
        iterations = step
    violation = pair_violation(best)
    return best, bool(violation <= tol), violation, iterations


class TestRefineStack:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(3, 15), samples=st.integers(1, 6),
           cap=st.integers(0, 120), tol=st.sampled_from([1e-3, 1e-2, 0.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_per_sample_oracle(self, n, samples, cap, tol, seed):
        """Bit for bit, sample by sample; every stack holds a start that
        satisfies its bounds, an all-zero start that cannot move, and
        embedded draws that stop at assorted steps."""
        rng = np.random.default_rng(seed)
        starts, stack = [], []
        for k in range(samples):
            points = rng.normal(0.0, 2.0, (n, 3))
            b = smooth_bounds(random_bounds(n, rng, points))
            if k % 3 == 0:
                start = points
            elif k % 3 == 1:
                start = np.zeros((n, 3))
            else:
                start = gram_embed(metrize(b, rng)) + rng.normal(0.0, 0.2, (n, 3))
            starts.append(start)
            stack.append(b)
        iu = np.triu_indices(n, k=1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(edg, "REFINE_MAX_ITER", cap)
            [(coords, converged, violation, iterations)] = edg._refine_ragged(
                [(np.stack(starts), np.stack([b.lower[iu] for b in stack]),
                  np.stack([b.upper[iu] for b in stack]))], tol)
            expected = [oracle_refine(x, b, tol) for x, b in zip(starts, stack)]
        for k, (x, ok, worst, steps) in enumerate(expected):
            assert coords[k].tobytes() == x.tobytes(), k
            assert (bool(converged[k]), violation[k], iterations[k]) == \
                   (ok, worst, steps), k
            if k % 3 == 1:  # zero gradient: stays put until the cap
                assert steps == cap or (ok and steps == 0)

    def test_refine_is_one_sample_stack(self):
        rng = np.random.default_rng(13)
        b = smooth_bounds(random_bounds(7, rng))
        start = gram_embed(uniform_metrize(b, rng))
        coords, converged, violation, iterations = refine(start, b)
        x, ok, worst, steps = oracle_refine(start, b, 1e-3)
        assert coords.tobytes() == x.tobytes()
        assert (converged, violation, iterations) == (ok, worst, steps)
        assert steps > 0
        assert (type(converged), type(violation), type(iterations)) == (bool, float, int)


def oracle_case(n: int, samples: int, rng: np.random.Generator) -> tuple:
    """Starts and smoothed bounds of one graph: sample k starts on a point set
    that satisfies its bounds (k % 3 == 0), at the all-zero start that
    cannot move (k % 3 == 1), or at an embedded draw (k % 3 == 2)."""
    starts, stack = [], []
    for k in range(samples):
        points = rng.normal(0.0, 2.0, (n, 3))
        b = smooth_bounds(random_bounds(n, rng, points))
        if k % 3 == 0:
            start = points
        elif k % 3 == 1:
            start = np.zeros((n, 3))
        else:
            start = gram_embed(metrize(b, rng)) + rng.normal(0.0, 0.2, (n, 3))
        starts.append(start)
        stack.append(b)
    return starts, stack


class TestRefineRagged:
    @settings(max_examples=30, deadline=None)
    @example(graphs=[(40, 6), (1, 2), (2, 3), (23, 4)], cap=120, tol=0.0, seed=7)
    @given(graphs=st.lists(st.tuples(st.one_of(st.integers(1, 2), st.integers(1, 40)),
                                     st.integers(1, 6)), min_size=1, max_size=6),
           cap=st.integers(0, 120), tol=st.sampled_from([1e-3, 1e-2, 0.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_per_sample_oracle(self, graphs, cap, tol, seed):
        """Graphs of 1-40 atoms in one stack, bit for bit, sample by sample."""
        rng = np.random.default_rng(seed)
        cases = [oracle_case(n, samples, rng) for n, samples in graphs]
        blocks = []
        for (n, _), (starts, stack) in zip(graphs, cases):
            iu = np.triu_indices(n, k=1)
            blocks.append((np.stack(starts), np.stack([b.lower[iu] for b in stack]),
                           np.stack([b.upper[iu] for b in stack])))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(edg, "REFINE_MAX_ITER", cap)
            refined = edg._refine_ragged(blocks, tol)
            expected = [[oracle_refine(x, b, tol) for x, b in zip(*case)]
                        for case in cases]
        assert len(refined) == len(graphs)
        for g, ((coords, converged, violation, iterations), alone) in enumerate(
                zip(refined, expected)):
            assert coords.shape == blocks[g][0].shape
            for k, (x, ok, worst, steps) in enumerate(alone):
                assert coords[k].tobytes() == x.tobytes(), (g, k)
                assert (bool(converged[k]), violation[k], iterations[k]) == \
                       (ok, worst, steps), (g, k)
                if k % 3 == 1:  # zero gradient: stays put until the cap
                    assert steps == cap or (ok and steps == 0)

    def test_no_blocks_and_empty_blocks(self):
        assert edg._refine_ragged([], 1e-3) == []
        rng = np.random.default_rng(3)
        starts, stack = oracle_case(4, 2, rng)
        iu = np.triu_indices(4, k=1)
        empty = (np.zeros((0, 5, 3)), np.zeros((0, 10)), np.zeros((0, 10)))
        [none, (coords, _, _, _), none_again] = edg._refine_ragged(
            [empty, (np.stack(starts), np.stack([b.lower[iu] for b in stack]),
                     np.stack([b.upper[iu] for b in stack])), empty], 1e-3)
        assert none[0].shape == none_again[0].shape == (0, 5, 3)
        for k in range(2):
            assert coords[k].tobytes() == oracle_refine(starts[k], stack[k],
                                                        1e-3)[0].tobytes()


def pipeline_set(n: int, kind: int, rng: np.random.Generator) -> BoundsMatrix:
    """One bound set of a pipeline stack: kinds 0-2 cross (`crossing_bounds`,
    at least 3 atoms), kind 3 is consistent, and kind 4 (at least 2 atoms)
    pins every distance to 0, so that refine leaves all atoms on one point."""
    if kind == 4 and n >= 2:
        return BoundsMatrix(np.zeros((n, n)), np.zeros((n, n)))
    if kind < 3 and n >= 3:
        return crossing_bounds(n, rng, kind)
    return random_bounds(n, rng)


def oracle_embed(elements, b: BoundsMatrix, rng, tol):
    """One set alone, through the per-set oracles of smoothing and refine:
    the InconsistentBoundsError or GraphStructureError it ends in, or
    (coords, converged, max_violation, iterations)."""
    try:
        bounds = oracle_smooth(b)
    except InconsistentBoundsError as e:
        return e
    coords, converged, violation, iterations = oracle_refine(
        oracle_gram_embed(metrize(bounds, rng)), bounds, tol)
    try:
        Conformation(elements, coords)
    except GraphStructureError as e:
        return e
    return coords, converged, violation, iterations


def assert_same_outcome(outcome, expected, where):
    if isinstance(expected, Exception):
        assert type(outcome) is type(expected), where
        assert str(outcome) == str(expected), where
        assert getattr(outcome, "pair", None) == getattr(expected, "pair", None), where
        return
    assert isinstance(outcome, edg.EmbedResult), where
    coords, converged, violation, iterations = expected
    assert outcome.conformation.positions.tobytes() == coords.tobytes(), where
    assert (outcome.converged, outcome.max_violation, outcome.iterations) == \
           (converged, violation, iterations), where
    assert (type(outcome.converged), type(outcome.max_violation),
            type(outcome.iterations)) == (bool, float, int), where


class TestEmbedStacks:
    @settings(max_examples=25, deadline=None)
    @example(graphs=[(1, [3, 3]), (2, [4, 3]), (5, [0, 3, 4, 1, 2]), (20, [3, 2])],
             cap=120, tol=1e-3, seed=5)
    @given(graphs=st.lists(st.tuples(st.one_of(st.integers(1, 3), st.integers(1, 20)),
                                     st.lists(st.integers(0, 4), min_size=1, max_size=5)),
                           min_size=1, max_size=5),
           cap=st.integers(0, 120), tol=st.sampled_from([1e-3, 1e-2, 0.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_one_set_oracle(self, graphs, cap, tol, seed):
        """Each set of every stack gets exactly the outcome it gets alone;
        `embed_bounds` over all sets raises the first smoothing rejection,
        else the first degenerate set, else returns every result. In the
        example a degenerate set comes before the first crossing one."""
        rng = np.random.default_rng(seed)
        stacks = [(("C",) * n, [pipeline_set(n, kind, rng) for kind in kinds])
                  for n, kinds in graphs]

        def streams(g):
            return [np.random.default_rng([seed, g, k]) for k in range(len(stacks[g][1]))]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(edg, "REFINE_MAX_ITER", cap)
            outcomes = edg._embed_stacks(
                ((elements, np.stack([b.lower for b in sets]),
                  np.stack([b.upper for b in sets]), streams(g))
                 for g, (elements, sets) in enumerate(stacks)), tol)
            expected = [[oracle_embed(elements, b, stream, tol)
                         for b, stream in zip(sets, streams(g))]
                        for g, (elements, sets) in enumerate(stacks)]
            jobs = [(elements, b, stream) for g, (elements, sets) in enumerate(stacks)
                    for b, stream in zip(sets, streams(g))]
            try:
                embedded = edg.embed_bounds(jobs, tol)
            except (InconsistentBoundsError, GraphStructureError) as e:
                embedded = e
        assert [len(o) for o in outcomes] == [len(kinds) for _, kinds in graphs]
        for g, (got, alone) in enumerate(zip(outcomes, expected)):
            for k, (outcome, oracle) in enumerate(zip(got, alone)):
                assert_same_outcome(outcome, oracle, (g, k))

        flat = [oracle for alone in expected for oracle in alone]
        failed = ([e for e in flat if isinstance(e, InconsistentBoundsError)]
                  + [e for e in flat if isinstance(e, GraphStructureError)])
        if failed:
            assert_same_outcome(embedded, failed[0], "embed_bounds")
        else:
            assert len(embedded) == len(flat)
            for k, (outcome, oracle) in enumerate(zip(embedded, flat)):
                assert_same_outcome(outcome, oracle, k)


class TestEmbedConformation:
    def test_planted_conformation_roundtrip(self):
        rng = np.random.default_rng(10)
        g = MolGraph.from_elements("CCCCO", [(0, 1), (1, 2), (2, 3), (3, 4)])
        eg = build_extended_graph(g, seed=1)
        x = Conformation(g.elements, rng.normal(0, 1.5, (5, 3)))
        d = extract_distances(eg, x).values
        sigma = 0.02
        ged = GaussianEdgeDist(d, np.full(eg.n_edges, sigma**2))
        result = embed_conformation(eg, ged, np.random.default_rng(11))
        assert result.converged
        recovered = extract_distances(eg, result.conformation).values
        assert np.abs(recovered - d).max() < 2 * sigma

    def test_inconsistent_bounds_error_path(self, triangle_graph):
        # a 0.9/0.9/5.0 triangle cannot close
        ged = GaussianEdgeDist(np.array([0.9, 0.9, 5.0]), np.full(3, 1e-6))
        with pytest.raises(InconsistentBoundsError):
            embed_conformation(triangle_graph, ged, np.random.default_rng(0))

    def test_batch_report_counts(self, monkeypatch):
        g = MolGraph.from_elements("CCC", [(0, 1), (1, 2)])
        eg = build_extended_graph(g, seed=0)
        good = GaussianEdgeDist(np.array([1.5, 1.5, 2.4]), np.full(3, 1e-4))
        bad = GaussianEdgeDist(np.array([0.9, 0.9, 5.0]), np.full(3, 1e-6))
        stack = [good, bad, good]
        decoded = GaussianEdgeDist(np.stack([d.mean for d in stack]),
                                   np.stack([d.var for d in stack]))
        monkeypatch.setattr(cvae, "decode", lambda p, eg, z: decoded)
        [(results, report)] = edg.generate(None, [(eg, np.random.SeedSequence(1))], 3)
        assert report.n_samples == 3
        assert report.n_smoothing_ok == 2
        assert report.smoothing_rate == pytest.approx(2 / 3)
        assert len(results) == 2
        assert report.as_dict()["n_converged"] == 2
        assert type(report.n_converged) is int
        both = edg.EmbedBatchReport.merged([report, report])
        assert (both.n_samples, both.n_smoothing_ok, both.n_converged) == (6, 4, 4)
        assert both.violations == report.violations * 2


class TestGenerate:
    def test_reproducible_and_valid(self):
        rng = np.random.default_rng(42)
        eg = build_extended_graph(random_tree(5, rng), seed=1)
        params = cvae.ModelParams(SMALL, seed=2)
        seed = np.random.SeedSequence(9, spawn_key=(2,))
        [(a, report)] = edg.generate(params, [(eg, seed)], 4)
        [(b, _)] = edg.generate(params, [(eg, seed)], 4)
        assert seed.n_children_spawned == 0
        assert 0 < len(a) == report.n_smoothing_ok
        for x, y in zip(a, b):
            assert x.conformation.elements == eg.source_graph.elements
            assert np.array_equal(x.conformation.positions, y.conformation.positions)

        # sample k follows the stream SeedSequence(9, spawn_key=(2, k))
        expected = []
        for k in range(4):
            stream = np.random.default_rng(np.random.SeedSequence(9, spawn_key=(2, k)))
            ged = cvae.decode(params, eg, stream.standard_normal(eg.n_nodes))
            try:
                expected.append(embed_conformation(eg, ged, stream))
            except InconsistentBoundsError:
                continue
        assert [r.conformation.positions.tobytes() for r in a] == \
               [r.conformation.positions.tobytes() for r in expected]

    def test_sample_does_not_depend_on_stack_size(self):
        rng = np.random.default_rng(43)
        eg = build_extended_graph(random_tree(9, rng), seed=1)
        params = cvae.ModelParams(SMALL, seed=4)
        seed = np.random.SeedSequence(17, spawn_key=(1,))
        [(small, small_report)] = edg.generate(params, [(eg, seed)], 3)
        [(large, large_report)] = edg.generate(params, [(eg, seed)], 7)
        assert small_report.n_smoothing_ok == 3 and large_report.n_smoothing_ok == 7
        for a, b in zip(small, large[:3]):
            assert a.conformation.positions.tobytes() == \
                   b.conformation.positions.tobytes()
            assert (a.converged, a.max_violation, a.iterations) == \
                   (b.converged, b.max_violation, b.iterations)

    def test_report_counts_refine_steps_and_rejected_pairs(self, monkeypatch):
        g = MolGraph.from_elements("CCC", [(0, 1), (1, 2)])
        eg = build_extended_graph(g, seed=0)
        good = GaussianEdgeDist(np.array([1.5, 1.5, 2.4]), np.full(3, 1e-4))
        bad = GaussianEdgeDist(np.array([0.9, 0.9, 5.0]), np.full(3, 1e-6))
        stack = [bad, good, bad, good]
        decoded = GaussianEdgeDist(np.stack([d.mean for d in stack]),
                                   np.stack([d.var for d in stack]))
        monkeypatch.setattr(cvae, "decode", lambda p, eg, z: decoded)
        pair = edg._smooth_stack(*edg._bounds_stack(eg, bad))[2][0].pair
        key = f"{min(pair)}-{max(pair)}"
        [(results, report)] = edg.generate(None, [(eg, np.random.SeedSequence(2))], 4)
        assert report.smoothing_rejections == {key: 2}
        assert report.iterations == [r.iterations for r in results]
        d = report.as_dict()
        assert d["mean_refine_iterations"] == np.mean(report.iterations)
        assert d["n_iteration_capped"] == 0
        assert d["smoothing_rejections"] == {key: 2}

        # squeezed starts that two refine steps cannot fix
        embed = edg._gram_stack
        monkeypatch.setattr(edg, "_gram_stack", lambda d: 0.5 * embed(d))
        monkeypatch.setattr(edg, "REFINE_MAX_ITER", 2)
        [(_, capped)] = edg.generate(None, [(eg, np.random.SeedSequence(2))], 4)
        assert capped.n_iteration_capped == 2 and capped.n_converged == 0
        assert capped.iterations == [2, 2]
        both = edg.EmbedBatchReport.merged([report, capped])
        assert both.smoothing_rejections == {key: 4}
        assert both.n_iteration_capped == 2
        assert both.iterations == report.iterations + capped.iterations

    @settings(max_examples=10, deadline=None)
    @given(sizes=st.lists(st.one_of(st.integers(1, 2), st.integers(1, 20)),
                          min_size=1, max_size=5),
           n=st.integers(1, 4), cap=st.integers(0, 120),
           seed=st.integers(0, 2**32 - 1))
    def test_several_graphs_match_one_graph_calls(self, sizes, n, cap, seed):
        rng = np.random.default_rng(seed)
        jobs = [(build_extended_graph(random_tree(size, rng), seed=g),
                 np.random.SeedSequence(seed, spawn_key=(g,)))
                for g, size in enumerate(sizes)]
        params = cvae.ModelParams(SMALL, seed=3)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(edg, "REFINE_MAX_ITER", cap)
            together = edg.generate(params, jobs, n)
            alone = [edg.generate(params, [job], n)[0] for job in jobs]
        assert len(together) == len(jobs)
        for (results, report), (results_alone, report_alone) in zip(together, alone):
            assert report == report_alone
            assert [(r.conformation.positions.tobytes(), r.converged,
                     r.max_violation, r.iterations) for r in results] == \
                   [(r.conformation.positions.tobytes(), r.converged,
                     r.max_violation, r.iterations) for r in results_alone]

    def test_one_atom_graph_next_to_a_bond(self):
        lone = build_extended_graph(MolGraph.from_elements(["C"], []), seed=0)
        bond = build_extended_graph(MolGraph.from_elements(["C", "O"], [(0, 1)]), seed=0)
        assert lone.n_edges == 0
        b = make_bounds(lone, GaussianEdgeDist(np.zeros(0), np.zeros(0)))
        assert b.lower.shape == (1, 1) and b.upper[0, 0] == 0.0
        params = cvae.ModelParams(SMALL, seed=1)
        jobs = [(lone, np.random.SeedSequence(1, spawn_key=(0,))),
                (bond, np.random.SeedSequence(1, spawn_key=(1,)))]
        [(single, single_report), (pair, pair_report)] = edg.generate(params, jobs, 3)
        assert single_report.n_converged == 3 and single_report.iterations == [0] * 3
        assert [r.conformation.positions.shape for r in single] == [(1, 3)] * 3
        assert pair_report.n_samples == 3
        assert all(r.conformation.elements == ("C", "O") for r in pair)

    def test_no_samples(self):
        eg = build_extended_graph(random_tree(4, np.random.default_rng(5)), seed=1)
        [(results, report)] = edg.generate(cvae.ModelParams(SMALL, seed=1),
                                           [(eg, np.random.SeedSequence(1))], 0)
        assert results == [] and report.as_dict()["n_samples"] == 0

    def test_trained_model_samples_near_training_support(self):
        rng = np.random.default_rng(12)
        g = MolGraph.from_elements(["O", "H"], [(0, 1)])
        eg = build_extended_graph(g, seed=0)
        lengths = rng.normal(0.96, 0.03, size=300)
        records = [("bond", eg, np.array([abs(l)])) for l in lengths]
        config = cvae.CvaeConfig(hidden=12, readout_hidden=12, node_state=5,
                                 edge_state=5, epochs=20, batch_size=32)
        result = cvae.train(records, config, seed=2)
        [(sampled, report)] = edg.generate(result.params,
                                           [(eg, np.random.SeedSequence(3))], 20)
        assert report.n_smoothing_ok == 20
        bond = np.array([extract_distances(eg, r.conformation).values[0]
                         for r in sampled])
        assert bond.min() > lengths.min() - 0.2
        assert bond.max() < lengths.max() + 0.2
