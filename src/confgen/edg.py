"""Euclidean distance geometry: bounds, smoothing, metrization, embedding.

Per-edge Gaussian distance predictions become lower/upper bounds (mean minus
and plus one standard deviation), every unconstrained atom pair gets a steric
floor and a large ceiling, and the classical three-step procedure follows:
triangle-inequality bound smoothing, drawing a random distance matrix from
within the bounds by partial metrization, and a spectral best-fit embedding
refined against a hinge penalty on bound violations. One function,
`_embed_stacks`, runs these steps for `generate` and for `embed_bounds`
(make-data's starting conformations).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import cvae, nnet
from .cvae import GaussianEdgeDist
from .errors import DomainError, NumericalError
from .molgraph import Conformation, ExtendedGraph, GraphStructureError

STERIC_FLOOR = 1.0
DISTANCE_CEILING = 1000.0
EDGE_LOWER_FLOOR = 0.5
REFINE_MAX_ITER = 2000
# refine's Adam step, chosen among 0.05, 0.1, 0.2, 0.3 and a 0.2-to-0.05 decay
# by convergence on 26-98-atom chains, MMD and refine CPU time (README)
REFINE_LR = 0.3
METRIZE_FIXED_PER_ATOM = 2  # partial metrization fixes this many pairs per atom


class InconsistentBoundsError(DomainError):
    """A lower bound exceeds the matching upper bound; `pair` names the atoms."""

    def __init__(self, i: int, j: int, lower: float, upper: float):
        super().__init__(
            f"bounds for atom pair ({i}, {j}) are inconsistent: "
            f"lower {lower:.6g} > upper {upper:.6g}"
        )
        self.pair = (i, j)


@dataclass
class BoundsMatrix:
    """Symmetric per-pair lower/upper distance bounds with a zero diagonal."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.lower = np.asarray(self.lower, dtype=np.float64)
        self.upper = np.asarray(self.upper, dtype=np.float64)
        n = self.lower.shape[0]
        if self.lower.shape != (n, n) or self.upper.shape != (n, n):
            raise ValueError("bounds must be square matrices of equal size")
        finite = np.isfinite(self.lower) & np.isfinite(self.upper)
        if not finite.all():
            i, j = np.argwhere(~finite)[0]
            raise DomainError(
                f"bounds for atom pair ({i}, {j}) are not finite: "
                f"lower {self.lower[i, j]:.6g}, upper {self.upper[i, j]:.6g}"
            )

    @property
    def n(self) -> int:
        return self.lower.shape[0]


def _bounds_stack(eg: ExtendedGraph, ged: GaussianEdgeDist) -> tuple:
    """`make_bounds` for a stacked GaussianEdgeDist: (S, n, n) lower and upper."""
    if len(ged) != eg.n_edges:
        raise nnet.ShapeError(
            f"{len(ged)} edge distributions for a graph with {eg.n_edges} edges"
        )
    if not (np.isfinite(ged.mean).all() and np.isfinite(ged.var).all()):
        raise NumericalError("edge distribution contains non-finite values",
                             term="bounds")
    # by the sample count, which a graph without edges cannot infer
    mean = ged.mean.reshape(len(ged.mean) if ged.mean.ndim == 2 else 1, eg.n_edges)
    sigma = ged.std.reshape(mean.shape)
    s, n = mean.shape[0], eg.n_nodes
    lower = np.full((s, n, n), STERIC_FLOOR)
    upper = np.full((s, n, n), DISTANCE_CEILING)
    lo = np.maximum(mean - sigma, EDGE_LOWER_FLOOR)
    hi = np.maximum(mean + sigma, EDGE_LOWER_FLOOR)
    lower[:, eg.src, eg.dst] = lo
    lower[:, eg.dst, eg.src] = lo
    upper[:, eg.src, eg.dst] = hi
    upper[:, eg.dst, eg.src] = hi
    diagonal = np.arange(n)
    lower[:, diagonal, diagonal] = 0.0
    upper[:, diagonal, diagonal] = 0.0
    return lower, upper


def make_bounds(eg: ExtendedGraph, ged: GaussianEdgeDist) -> BoundsMatrix:
    """Bounds mean-minus-sigma to mean-plus-sigma per edge; STERIC_FLOOR and
    DISTANCE_CEILING elsewhere.

    Both edge bounds are floored at EDGE_LOWER_FLOOR, which keeps
    lower <= upper even for overdispersed predictions.
    """
    # kept while the benchmark tracer (perfbench/tracing.py) wraps it by name
    if ged.mean.ndim != 1:
        raise nnet.ShapeError("make_bounds takes the edge distributions of one sample")
    lower, upper = _bounds_stack(eg, ged)
    return BoundsMatrix(lower[0], upper[0])


def _crossings(lower: np.ndarray, upper: np.ndarray) -> list:
    """Per (n, n) set of a stack: None, or an InconsistentBoundsError naming
    its first pair (in row-major order) whose lower bound exceeds the upper."""
    bad = lower - upper > 1e-9
    found = [None] * len(bad)
    for s in np.flatnonzero(bad.any(axis=(1, 2))):
        i, j = np.argwhere(bad[s])[0]
        found[s] = InconsistentBoundsError(int(i), int(j), float(lower[s, i, j]),
                                           float(upper[s, i, j]))
    return found


def _smooth_stack(lower: np.ndarray, upper: np.ndarray) -> tuple:
    """`smooth_bounds` for a stack of S bound sets of one size, (S, n, n),
    in one pass (Dress & Havel, Discrete Appl. Math. 19, 1988).

    One Floyd-Warshall pass turns the uppers into shortest paths U. The
    lowers take the closed form L(i, j) = max(l(i, j), max over (a, b) of
    (l(a, b) - U(i, a)) - U(b, j)) of the input lowers l, as two max-plus
    passes: reach(i, b) = max over a of l(a, b) - U(i, a), then L(i, j) =
    max(l(i, j), max over b of reach(i, b) - U(b, j)); the diagonal is zero.
    Each set gets exactly what it gets alone.

    Returns (lower, upper, errors): every set's smoothed bounds and, per
    set, None or the `_crossings` error of its smoothed bounds.
    """
    lo = np.array(lower, dtype=np.float64)
    up = np.array(upper, dtype=np.float64)
    n = up.shape[-1]
    step = np.empty_like(up)
    for k in range(n):
        np.add(up[:, :, k, None], up[:, None, k, :], out=step)
        np.minimum(up, step, out=up)
    reach = np.full_like(up, -np.inf)
    for a in range(n):
        np.subtract(lo[:, None, a, :], up[:, :, a, None], out=step)
        np.maximum(reach, step, out=reach)
    for b in range(n):
        np.subtract(reach[:, :, b, None], up[:, None, b, :], out=step)
        np.maximum(lo, step, out=lo)
    diagonal = np.arange(n)
    lo[:, diagonal, diagonal] = 0.0
    return lo, up, _crossings(lo, up)


def smooth_bounds(b: BoundsMatrix) -> BoundsMatrix:
    """Tighten bounds to triangle-inequality consistency.

    Upper bounds become the all-pairs shortest paths over the upper matrix;
    each lower bound grows to the largest lower(a, b) minus the smoothed
    uppers from i to a and from b to j. A second application is a no-op. A
    smoothed lower bound above its upper bound raises the
    InconsistentBoundsError naming the first such pair in row-major order.
    A one-set `_smooth_stack`.
    """
    # kept while the benchmark tracer (perfbench/tracing.py) wraps it by name
    lower, upper, errors = _smooth_stack(b.lower[None], b.upper[None])
    if errors[0] is not None:
        raise errors[0]
    return BoundsMatrix(lower[0], upper[0])


def _metrize_stack(lower: np.ndarray, upper: np.ndarray, rngs) -> np.ndarray:
    """Partial metrization of a stack of S smoothed bound sets of one size,
    (S, n, n), after Kuszewski, Nilges & Brünger (J. Biomol. NMR 2, 1992).

    Set s draws from rngs[s] alone: a random order of its atom pairs
    (i < j), one uniform per fixed pair, then an (n, n) block of uniforms.
    Its first min(METRIZE_FIXED_PER_ATOM * n, pairs) pairs, in that order,
    are fixed one at a time to lower + (upper - lower) * u within their
    current bounds. After fixing (a, b) at d, each upper(i, j) takes the
    shorter of the paths (upper(i, a) + d) + upper(b, j) and
    (upper(j, a) + d) + upper(b, i), which is exact for shortest-path-closed
    uppers; the lowers then grow through atom a and then atom b: each
    lower(i, j) takes the largest of itself, lower(i, k) - upper(k, j) and
    lower(j, k) - upper(k, i) for k = a, then for k = b.
    The other pairs are drawn the same way within the bounds that result.
    A crossing left by rounding is clamped, not rejected: every distance is
    clipped into its set's smoothed [lower, upper].

    Returns (S, n, n) symmetric distance matrices with zero diagonals. Every
    step is elementwise per set, so each set gets exactly what it gets alone.
    """
    lo = np.array(lower, dtype=np.float64)
    up = np.array(upper, dtype=np.float64)
    count, n = lo.shape[0], lo.shape[-1]
    iu = np.triu_indices(n, k=1)
    fixed = min(METRIZE_FIXED_PER_ATOM * n, len(iu[0]))
    order = np.array([rng.permutation(len(iu[0]))[:fixed] for rng in rngs],
                     dtype=np.int64).reshape(count, fixed)
    draws = np.reshape([rng.random(fixed) for rng in rngs], (count, fixed))
    rows = np.arange(count)
    for t in range(fixed):
        a, b = iu[0][order[:, t]], iu[1][order[:, t]]
        d = lo[rows, a, b] + (up[rows, a, b] - lo[rows, a, b]) * draws[:, t]
        lo[rows, a, b] = lo[rows, b, a] = up[rows, a, b] = up[rows, b, a] = d
        path = (up[rows, a] + d[:, None])[:, :, None] + up[rows, b][:, None, :]
        np.minimum(up, path, out=up)
        np.minimum(up, path.transpose(0, 2, 1), out=up)
        for k in (a, b):
            grown = lo[rows, k][:, :, None] - up[rows, k][:, None, :]
            np.maximum(lo, grown, out=lo)
            np.maximum(lo, grown.transpose(0, 2, 1), out=lo)
    u = np.reshape([rng.random((n, n)) for rng in rngs], (count, n, n))
    d = np.triu(np.clip(lo + (up - lo) * u, lower, upper), k=1)
    return d + d.transpose(0, 2, 1)


def metrize(b: BoundsMatrix, rng: np.random.Generator) -> np.ndarray:
    """Draw one symmetric distance matrix from within smoothed bounds by
    partial metrization: a one-set `_metrize_stack`."""
    # kept while the benchmark tracer (perfbench/tracing.py) wraps it by name
    return _metrize_stack(b.lower[None], b.upper[None], [rng])[0]


def _gram_stack(d: np.ndarray) -> np.ndarray:
    """Classical best-fit embedding of a stack of S distance matrices of one
    size, (S, n, n), into three dimensions: (S, n, 3).

    Squared distances to the centroid give the Gram matrix
    g(i,j) = (d0(i)^2 + d0(j)^2 - d(i,j)^2) / 2, whose top three eigenpairs
    (negative eigenvalues clamped to zero) provide the coordinates. One
    stacked eigh serves every set, and each set gets exactly what it gets
    alone.
    """
    d = np.asarray(d, dtype=np.float64)
    count, n = d.shape[0], d.shape[-1]
    d2 = d**2
    d0_sq = d2.mean(axis=2) - d2.reshape(count, n * n).sum(axis=1)[:, None] / (2.0 * n * n)
    gram = 0.5 * (d0_sq[:, :, None] + d0_sq[:, None, :] - d2)
    try:
        evals, evecs = np.linalg.eigh(gram)
    except np.linalg.LinAlgError as e:
        raise NumericalError(f"eigendecomposition failed: {e}", term="gram") from e
    order = np.argsort(evals, axis=1)[:, ::-1][:, : min(3, n)]
    lam = np.clip(np.take_along_axis(evals, order, axis=1), 0.0, None)
    coords = np.zeros((count, n, 3))
    coords[:, :, : order.shape[1]] = (np.take_along_axis(evecs, order[:, None, :], axis=2)
                                      * np.sqrt(lam)[:, None, :])
    return coords


def gram_embed(d: np.ndarray) -> np.ndarray:
    """Classical best-fit embedding of one distance matrix into three
    dimensions: a one-set `_gram_stack`."""
    # kept while the benchmark tracer (perfbench/tracing.py) wraps it by name
    return _gram_stack(np.asarray(d)[None])[0]


@dataclass
class EmbedResult:
    conformation: Conformation
    converged: bool
    max_violation: float
    iterations: int


def _pair_layout(sizes, counts) -> tuple:
    """Atom pairs of a ragged stack: `counts[g]` samples of `sizes[g]` atoms
    for each graph g, with the atoms numbered sample after sample.

    Returns (i, j), every sample's np.triu_indices(n, k=1) offset by the
    number of its first atom, laid end to end in sample order.
    """
    i_parts, j_parts = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    first = 0
    for n, count in zip(sizes, counts):
        iu = np.triu_indices(n, k=1)
        offsets = first + n * np.arange(count)[:, None]
        i_parts.append((iu[0] + offsets).ravel())
        j_parts.append((iu[1] + offsets).ravel())
        first += n * count
    return np.concatenate(i_parts), np.concatenate(j_parts)


def _hinge_energy_grad(x: np.ndarray, i: np.ndarray, j: np.ndarray,
                       lo2: np.ndarray, hi2: np.ndarray, runs) -> tuple:
    """Squared-hinge violation energy of each conformation in a ragged stack.

    `x` is (3, A), the A atoms of every sample; `lo2` and `hi2` are the
    squared bounds over the atom pairs (i, j), which run sample after
    sample. `runs` lists (samples, pairs per sample) for consecutive runs of
    samples, covering every sample in order. Returns the energies (S,), their
    gradients (3, A) and the squared pair distances.

    Each energy is the row sum of its run's (samples, pairs) block, so it
    adds its terms in the order a stack of that one graph would. The
    gradient is one bincount over the slots axis * A + atom, which adds the
    terms of each slot in the order of np.add.at(g, i, c) followed by
    np.add.at(g, j, -c). It skips the pairs within their bounds: their terms
    are +-0.0, and adding +-0.0 leaves a sum that starts at 0.0 unchanged.
    """
    a = x.shape[1]
    diff = np.take(x, i, axis=1)
    diff -= np.take(x, j, axis=1)
    sq = diff[0] ** 2 + diff[1] ** 2 + diff[2] ** 2
    over = np.maximum(sq - hi2, 0.0)
    under = np.maximum(lo2 - sq, 0.0)
    terms = over**2 + under**2
    energy = np.empty(sum(count for count, _ in runs))
    sample = pair = 0
    for count, pairs in runs:
        end = pair + count * pairs
        energy[sample:sample + count] = terms[pair:end].reshape(count, pairs).sum(axis=1)
        sample, pair = sample + count, end
    coef = 4.0 * (over - under)
    hit = np.flatnonzero(coef != 0.0)
    contrib = np.empty((3, 2, len(hit)))
    np.multiply(coef[hit], diff[:, hit], out=contrib[:, 0])
    np.negative(contrib[:, 0], out=contrib[:, 1])
    slots = np.concatenate((i[hit], j[hit])) + (np.arange(3) * a)[:, None]
    grad = np.bincount(slots.ravel(), contrib.ravel(), minlength=3 * a)
    return energy, grad.reshape(3, a), sq


def _refine_ragged(blocks, tol: float) -> list:
    """`refine` for the samples of several graphs, run in one lockstep loop.

    `blocks` holds one (coords, lower, upper) per graph, float64 arrays:
    coords (S, n, 3), lower and upper (S, P) bounds over the pairs
    np.triu_indices(n, k=1); S, n and P may differ from block to block.
    Every sample accepts steps, keeps its best iterate and stops on its own,
    exactly as `refine` would alone; the samples still running share one
    Adam step count. Their coordinates are one (3, atoms) array and their
    pairs one flat run, so a step costs the same few numpy calls, plus one
    row sum per block, however many graphs take part; stopped samples are
    masked out of both.

    Returns one (coords, converged, max_violation, iterations) per block,
    indexed by sample.
    """
    counts = np.array([len(c) for c, _, _ in blocks], dtype=np.int64)
    sizes = np.array([c.shape[1] for c, _, _ in blocks], dtype=np.int64)
    per_sample = sizes * (sizes - 1) // 2
    graph = np.repeat(np.arange(len(blocks)), counts)  # of each sample
    atoms, pairs = sizes[graph], per_sample[graph]
    i, j = _pair_layout(sizes, counts)
    lower = np.concatenate([lo.ravel() for _, lo, _ in blocks] + [np.zeros(0)])
    upper = np.concatenate([up.ravel() for _, _, up in blocks] + [np.zeros(0)])
    best = np.concatenate([c.reshape(-1, 3) for c, _, _ in blocks]
                          + [np.zeros((0, 3))]).T.copy()
    x = best.copy()
    kept = best.copy()  # best iterate of the running samples, laid out as x
    lo2 = lower**2
    hi2 = upper**2
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    active = np.arange(len(graph))  # samples still running
    placed = np.arange(x.shape[1])  # where their atoms sit in `best`
    iterations = np.zeros(len(graph), dtype=np.int64)

    def layout():
        """Runs of running samples per block, and the first pair of each
        running sample that has pairs (one without cannot violate a bound)."""
        live = np.bincount(graph[active], minlength=len(blocks))
        filled = pairs > 0
        return ([(int(c), int(p)) for c, p in zip(live, per_sample) if c], filled,
                (np.cumsum(pairs) - pairs)[filled])

    def evaluate():
        energy, grad, sq = _hinge_energy_grad(x, i, j, lo2, hi2, runs)
        if not np.isfinite(energy).all():
            raise NumericalError("violation energy is not finite", term="refine")
        dist = np.sqrt(sq)
        worst = np.zeros(len(active))
        if dist.size:
            gap = np.maximum(dist - upper, lower - dist)
            worst[filled] = np.maximum(np.maximum.reduceat(gap, starts), 0.0)
        return energy, grad, worst

    runs, filled, starts = layout()
    best_energy, _, violation = evaluate()
    going = ~(violation <= tol)
    for step in range(1, REFINE_MAX_ITER + 1):
        if not going.all():
            # drop the samples that stopped, and their atoms and pairs
            keep_atoms = np.repeat(going, atoms)
            keep_pairs = np.repeat(going, pairs)
            renumber = np.cumsum(keep_atoms) - 1
            i, j = renumber[i[keep_pairs]], renumber[j[keep_pairs]]
            lower, upper, lo2, hi2 = (a[keep_pairs] for a in (lower, upper, lo2, hi2))
            best[:, placed[~keep_atoms]] = kept[:, ~keep_atoms]
            x, m, v, kept = (a[:, keep_atoms] for a in (x, m, v, kept))
            placed = placed[keep_atoms]
            active, atoms, pairs, best_energy = (
                a[going] for a in (active, atoms, pairs, best_energy))
            runs, filled, starts = layout()
        if not active.size:
            break
        energy, grad, worst = evaluate()
        accepted = energy <= best_energy + 1e-12
        best_energy[accepted] = energy[accepted]
        if accepted.all():
            np.copyto(kept, x)
        else:
            np.copyto(kept, x, where=np.repeat(accepted, atoms))
        violation[active[accepted]] = worst[accepted]
        going = ~(accepted & (worst <= tol))
        # samples that just stopped are dropped before their moved
        # coordinates are used
        nnet.adam_update(x, grad, m, v, step, REFINE_LR)
        iterations[active[going]] = step
    best[:, placed] = kept

    coords = best.T
    out = []
    sample = atom = 0
    for count, n in zip(counts, sizes):
        end = sample + count
        out.append((coords[atom:atom + count * n].reshape(count, n, 3).copy(),
                    violation[sample:end] <= tol, violation[sample:end],
                    iterations[sample:end]))
        sample, atom = end, atom + count * n
    return out


def refine(coords: np.ndarray, b: BoundsMatrix, tol: float = 1e-3):
    """Minimize the squared-hinge violation energy with Adam.

    E = sum over pairs of max(0, |ri-rj|^2 - upper^2)^2
                       + max(0, lower^2 - |ri-rj|^2)^2.
    Only steps that do not increase E (beyond 1e-12) are accepted; the best
    iterate is returned. Stops once its largest per-pair distance violation
    drops to `tol`, or after REFINE_MAX_ITER steps of rate REFINE_LR. A
    one-sample `_refine_ragged`.

    Returns (coords, converged, max_violation, iterations).
    """
    # kept while the benchmark tracer (perfbench/tracing.py) wraps it by name
    iu = np.triu_indices(b.n, k=1)
    [(coords, converged, violation, iterations)] = _refine_ragged(
        [(np.asarray(coords, dtype=np.float64)[None], b.lower[iu][None],
          b.upper[iu][None])], tol)
    return coords[0], bool(converged[0]), float(violation[0]), int(iterations[0])


def _embed_stacks(stacks, tol: float) -> list:
    """The distance-geometry pipeline of `generate` and `embed_bounds`.

    `stacks` yields, one graph at a time, (elements, lower, upper, rngs):
    (S, n, n) bounds and one generator per set. Each stack is smoothed as
    one `_smooth_stack`, the sets that pass are metrized as one
    `_metrize_stack`, each on its own generator, and embedded as one
    `_gram_stack`, the survivors of all graphs are refined in one
    `_refine_ragged` loop, and each graph's refined sets are checked as one
    `Conformation.stack`, each set exactly as it would be alone.
    Returns one list per graph of one outcome per set: an EmbedResult, the
    InconsistentBoundsError that rejected the set, or the GraphStructureError
    of a set whose refined atoms coincide.
    """
    graphs, blocks = [], []
    for elements, lower, upper, rngs in stacks:
        lower, upper, outcomes = _smooth_stack(lower, upper)
        passed = [k for k, error in enumerate(outcomes) if error is None]
        lower, upper = lower[passed], upper[passed]
        starts = _gram_stack(_metrize_stack(lower, upper, [rngs[k] for k in passed]))
        iu = np.triu_indices(lower.shape[-1], k=1)
        blocks.append((starts, lower[:, iu[0], iu[1]], upper[:, iu[0], iu[1]]))
        graphs.append((elements, outcomes, passed))
    for (elements, outcomes, passed), (coords, converged, violation, iterations) in zip(
            graphs, _refine_ragged(blocks, tol)):
        stacked = Conformation.stack(elements, coords)
        for k, conformation, ok, worst, steps in zip(passed, stacked, converged,
                                                      violation, iterations):
            outcomes[k] = (EmbedResult(conformation, bool(ok), float(worst), int(steps))
                           if isinstance(conformation, Conformation) else conformation)
    return [outcomes for _, outcomes, _ in graphs]


def embed_bounds(jobs, tol: float = 1e-3) -> list:
    """One EmbedResult per (elements, bounds, rng) job, each a one-set
    `_embed_stacks` stack and exactly as it would be alone. The first job
    rejected by bound smoothing raises its InconsistentBoundsError, else the
    first degenerate job its GraphStructureError; refinement that stops
    short of `tol` is reported through the `converged` flag instead.
    """
    outcomes = [outcome for [outcome] in _embed_stacks(
        ((elements, b.lower[None], b.upper[None], [rng]) for elements, b, rng in jobs),
        tol)]
    failed = ([o for o in outcomes if isinstance(o, InconsistentBoundsError)]
              + [o for o in outcomes if isinstance(o, GraphStructureError)])
    if failed:
        raise failed[0]
    return outcomes


def embed_conformation(eg: ExtendedGraph, ged: GaussianEdgeDist,
                       rng: np.random.Generator, tol: float = 1e-3) -> EmbedResult:
    """Full pipeline from predicted edge Gaussians to one conformation."""
    # kept while the benchmark tracer (perfbench/tracing.py) wraps it by name
    [result] = embed_bounds([(eg.source_graph.elements, make_bounds(eg, ged), rng)], tol)
    return result


def generate(params: cvae.ModelParams, jobs, n: int, tol: float = 1e-3) -> list:
    """Draw `n` independent conformations of each graph from the model's prior.

    `jobs` lists (ExtendedGraph, SeedSequence) pairs. Sample k of a job draws
    from its own stream, SeedSequence(seed.entropy, spawn_key=(*seed.spawn_key,
    k)): first a standard-normal latent per node, then the metrization of its
    bounds (pair order, fixed-pair draws, remaining draws; `_metrize_stack`).
    The seeds themselves are left untouched, so output does not depend on how
    samples or graphs are grouped or scheduled.

    Each graph's samples move through the pipeline as one stack: one
    tape-free `cvae.decode` of all n latents and one bound construction,
    handed to `_embed_stacks` one graph at a time. Each stacked step gives
    every sample exactly the values it would get alone, so sample k of a
    graph depends neither on n nor on the other jobs.

    Returns one list of n outcomes per job, in order, one per sample in
    sample order: an EmbedResult for a sample that passed smoothing and kept
    its atoms apart, else the InconsistentBoundsError or GraphStructureError
    that dropped it (`generate_report` sums them up).
    """
    def stacks():
        for eg, seed in jobs:
            rngs = [np.random.default_rng(np.random.SeedSequence(
                seed.entropy, spawn_key=(*seed.spawn_key, k))) for k in range(n)]
            latents = np.array([rng.standard_normal(eg.n_nodes) for rng in rngs])
            ged = cvae.decode(params, eg, latents.reshape(n, eg.n_nodes))  # n may be 0
            yield (eg.source_graph.elements, *_bounds_stack(eg, ged), rngs)

    return _embed_stacks(stacks(), tol)


def generate_report(outcomes: dict) -> dict:
    """The report body over {molecule: outcomes of `generate`}, whose order
    the lists and per-molecule entries keep.

    Kept samples are the EmbedResults; `n_degenerate` counts the samples
    that passed smoothing but whose refined atoms coincide, and
    `n_iteration_capped` the kept samples that used all REFINE_MAX_ITER
    steps without converging. Rejected atom pairs are counted per molecule,
    as "i-j" (i < j) keys, since atom numbers are per graph.
    """
    kept = {mol: [o for o in samples if isinstance(o, EmbedResult)]
            for mol, samples in outcomes.items()}
    results = [r for rs in kept.values() for r in rs]
    n_samples = sum(len(samples) for samples in outcomes.values())
    n_converged = sum(r.converged for r in results)
    v = np.asarray([r.max_violation for r in results], dtype=np.float64)
    return {
        "n_samples": n_samples,
        "n_smoothing_ok": len(results),
        "n_degenerate": sum(isinstance(o, GraphStructureError)
                            for samples in outcomes.values() for o in samples),
        "n_converged": n_converged,
        "smoothing_rate": len(results) / n_samples if n_samples else 0.0,
        "convergence_rate": n_converged / n_samples if n_samples else 0.0,
        "mean_max_violation": float(v.mean()) if v.size else 0.0,
        "worst_violation": float(v.max()) if v.size else 0.0,
        "mean_refine_iterations":
            float(np.mean([r.iterations for r in results])) if results else 0.0,
        "n_iteration_capped": sum(not r.converged and r.iterations >= REFINE_MAX_ITER
                                  for r in results),
        "smoothing_rejections": {
            mol: dict(Counter("-".join(map(str, sorted(o.pair))) for o in samples
                              if isinstance(o, InconsistentBoundsError)))
            for mol, samples in outcomes.items()},
        "per_molecule_success": {mol: sum(r.converged for r in rs)
                                 for mol, rs in kept.items()},
    }
