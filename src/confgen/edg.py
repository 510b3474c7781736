"""Euclidean distance geometry: bounds, smoothing, metrization, embedding.

Per-edge Gaussian distance predictions become lower/upper bounds (mean minus
and plus one standard deviation), every unconstrained atom pair gets a steric
floor and a large ceiling, and the classical three-step procedure follows:
triangle-inequality bound smoothing, drawing a random distance matrix from
within the bounds, and a spectral best-fit embedding refined against a hinge
penalty on bound violations.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import cvae, nnet
from .cvae import GaussianEdgeDist
from .errors import DomainError, NumericalError
from .molgraph import Conformation, ExtendedGraph, GraphStructureError
from .nnet import ADAM_BETA1, ADAM_BETA2, ADAM_EPS

STERIC_FLOOR = 1.0
DISTANCE_CEILING = 1000.0
EDGE_LOWER_FLOOR = 0.5
REFINE_MAX_ITER = 2000
REFINE_LR = 0.05


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

    def copy(self) -> "BoundsMatrix":
        return BoundsMatrix(self.lower.copy(), self.upper.copy())

    @classmethod
    def from_distance_matrix(cls, d: np.ndarray) -> "BoundsMatrix":
        d = np.asarray(d, dtype=np.float64)
        return cls(d.copy(), d.copy())


def _bounds_stack(eg: ExtendedGraph, ged: GaussianEdgeDist) -> tuple:
    """`make_bounds` for a stacked GaussianEdgeDist: (S, n, n) lower and upper."""
    if len(ged) != eg.n_edges:
        raise nnet.ShapeError(
            f"{len(ged)} edge distributions for a graph with {eg.n_edges} edges"
        )
    if not (np.isfinite(ged.mean).all() and np.isfinite(ged.var).all()):
        raise NumericalError("edge distribution contains non-finite values",
                             term="bounds")
    mean = ged.mean.reshape(-1, eg.n_edges)
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
    """`smooth_bounds` for a stack of S bound sets of one size, (S, n, n).

    Each Floyd-Warshall sweep shrinks uppers and then grows lowers through
    every atom k in turn; both matrices stay symmetric, since the upper
    update is symmetric in (i, j) and the two lower candidates map onto each
    other under transposition. Every set sweeps until its own fixed point (at
    most n + 1 sweeps) and is rejected at the first crossing it hits, exactly
    as it would be alone: the sets still running share each step.

    Returns (lower, upper, errors): the smoothed bounds and, per set, None or
    the InconsistentBoundsError that rejected it (whose rows of the bounds
    are then not smoothed).
    """
    lower = np.array(lower, dtype=np.float64)
    upper = np.array(upper, dtype=np.float64)
    n = lower.shape[1]
    diagonal = np.arange(n)
    errors = _crossings(lower, upper)
    active = np.flatnonzero([e is None for e in errors])
    for _ in range(n + 1):
        if not active.size:
            break
        lo, up = lower[active], upper[active]
        changed = np.zeros(active.size, dtype=bool)
        for k in range(n):
            shrunk = np.minimum(up, up[:, :, k, None] + up[:, None, k, :])
            changed |= (shrunk < up).any(axis=(1, 2))
            up = shrunk
            grown = np.maximum(
                lo,
                np.maximum(lo[:, :, k, None] - up[:, None, k, :],
                           lo[:, None, k, :] - up[:, :, k, None]),
            )
            grown[:, diagonal, diagonal] = 0.0
            changed |= (grown > lo).any(axis=(1, 2))
            lo = grown
            crossed = _crossings(lo, up)
            if any(crossed):
                for s, error in zip(active, crossed):
                    errors[s] = error
                keep = np.array([e is None for e in crossed], dtype=bool)
                active, lo, up, changed = (a[keep] for a in (active, lo, up, changed))
        lower[active], upper[active] = lo, up
        active = active[changed]
    return lower, upper, errors


def smooth_bounds(b: BoundsMatrix) -> BoundsMatrix:
    """Tighten bounds to triangle-inequality consistency.

    Upper bounds relax to all-pairs shortest paths over the upper matrix;
    lower bounds grow from lower(i,k) - upper(k,j) differences, one
    Floyd-Warshall sweep at a time. Sweeps repeat until a fixed point, so a
    second application is a no-op; a lower bound that ends up above its
    upper bound raises InconsistentBoundsError naming the pair. A one-set
    `_smooth_stack`.
    """
    lower, upper, errors = _smooth_stack(b.lower[None], b.upper[None])
    if errors[0] is not None:
        raise errors[0]
    return BoundsMatrix(lower[0], upper[0])


def metrize(b: BoundsMatrix, rng: np.random.Generator) -> np.ndarray:
    """Draw one symmetric distance matrix uniformly from within the bounds."""
    n = b.n
    u = rng.random((n, n))
    d = b.lower + (b.upper - b.lower) * u
    d = np.triu(d, k=1)
    return d + d.T


def gram_embed(d: np.ndarray) -> np.ndarray:
    """Classical best-fit embedding of a distance matrix into three dimensions.

    Squared distances to the centroid give the Gram matrix
    g(i,j) = (d0(i)^2 + d0(j)^2 - d(i,j)^2) / 2, whose top three eigenpairs
    (negative eigenvalues clamped to zero) provide the coordinates.
    """
    d = np.asarray(d, dtype=np.float64)
    n = d.shape[0]
    d2 = d**2
    d0_sq = d2.mean(axis=1) - d2.sum() / (2.0 * n * n)
    gram = 0.5 * (d0_sq[:, None] + d0_sq[None, :] - d2)
    try:
        evals, evecs = np.linalg.eigh(gram)
    except np.linalg.LinAlgError as e:
        raise NumericalError(f"eigendecomposition failed: {e}", term="gram") from e
    order = np.argsort(evals)[::-1][: min(3, n)]
    lam = np.clip(evals[order], 0.0, None)
    coords = np.zeros((n, 3))
    coords[:, : order.shape[0]] = evecs[:, order] * np.sqrt(lam)
    return coords


@dataclass
class EmbedResult:
    conformation: Conformation
    converged: bool
    max_violation: float
    iterations: int


def _gradient_slots(iu: tuple, n: int, s: int) -> np.ndarray:
    """Flat (sample, atom, axis) slot of every term of a stack's hinge gradient.

    For each of `s` samples of `n` atoms: pair p's term goes to atom iu[0][p],
    then its negation to atom iu[1][p]. Shape (s, 2P, 3).
    """
    slots = np.concatenate(iu)[:, None] * 3 + np.arange(3)
    return slots + (np.arange(s) * (3 * n))[:, None, None]


def _hinge_energy_grad(x: np.ndarray, iu: tuple, slots: np.ndarray,
                       lo2: np.ndarray, hi2: np.ndarray) -> tuple:
    """Squared-hinge violation energy of each conformation in a stack.

    `x` is (S, n, 3); `lo2` and `hi2` are (S, P) squared bounds over the P
    atom pairs `iu`; `slots` is `_gradient_slots` for at least S samples.
    Returns the energies (S,), their gradients (S, n, 3) and the squared pair
    distances (S, P). The gradient is one bincount, which adds the terms in
    the order of np.add.at(g, iu[0], c) followed by np.add.at(g, iu[1], -c).
    """
    s, n, _ = x.shape
    diff = x[:, iu[0]] - x[:, iu[1]]
    sq = (diff**2).sum(axis=2)
    over = np.maximum(sq - hi2, 0.0)
    under = np.maximum(lo2 - sq, 0.0)
    energy = (over**2 + under**2).sum(axis=1)
    contrib = (4.0 * (over - under))[:, :, None] * diff
    grad = np.bincount(slots[:s].ravel(),
                       np.concatenate((contrib, -contrib), axis=1).ravel(),
                       minlength=s * n * 3)
    return energy, grad.reshape(s, n, 3), sq


def _refine_stack(coords: np.ndarray, lower: np.ndarray, upper: np.ndarray,
                  tol: float) -> tuple:
    """`refine` for a stack of conformations of one graph, run in lockstep.

    `coords` is (S, n, 3); `lower` and `upper` are (S, P) bounds over the
    pairs np.triu_indices(n, k=1). Every sample accepts steps, keeps its best
    iterate and stops on its own, exactly as `refine` would alone; the
    samples still running share one Adam step count.

    Returns (coords, converged, max_violation, iterations), indexed by sample.
    """
    # the energy sums run along memory, so their order must not depend on
    # the layout the caller's bounds happen to have
    lower = np.ascontiguousarray(lower, dtype=np.float64)
    upper = np.ascontiguousarray(upper, dtype=np.float64)
    best = np.array(coords, dtype=np.float64)
    n = best.shape[1]
    iu = np.triu_indices(n, k=1)
    active = np.arange(best.shape[0])
    slots = _gradient_slots(iu, n, len(active))
    x = best.copy()
    lo2 = lower**2
    hi2 = upper**2
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    iterations = np.zeros(len(active), dtype=np.int64)

    def evaluate():
        energy, grad, sq = _hinge_energy_grad(x, iu, slots, lo2, hi2)
        if not np.isfinite(energy).all():
            raise NumericalError("violation energy is not finite", term="refine")
        dist = np.sqrt(sq)
        worst = np.maximum((dist - upper).max(axis=1, initial=0.0),
                           (lower - dist).max(axis=1, initial=0.0))
        return energy, grad, worst

    best_energy, _, violation = evaluate()
    going = ~(violation <= tol)
    for step in range(1, REFINE_MAX_ITER + 1):
        if not going.all():
            active, x, m, v, best_energy, lower, upper, lo2, hi2 = (
                a[going] for a in (active, x, m, v, best_energy, lower, upper,
                                   lo2, hi2))
        if not active.size:
            break
        energy, grad, worst = evaluate()
        accepted = energy <= best_energy + 1e-12
        best_energy[accepted] = energy[accepted]
        best[active[accepted]] = x[accepted]
        violation[active[accepted]] = worst[accepted]
        going = ~(accepted & (worst <= tol))
        # nnet.Adam.step with t = step; rows that just stopped are dropped
        # before their moved coordinates are used
        c1 = 1.0 - ADAM_BETA1**step
        c2 = 1.0 - ADAM_BETA2**step
        m = m * ADAM_BETA1 + (1.0 - ADAM_BETA1) * grad
        v = v * ADAM_BETA2 + (1.0 - ADAM_BETA2) * grad * grad
        x -= REFINE_LR * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
        iterations[active[going]] = step
    return best, violation <= tol, violation, iterations


def refine(coords: np.ndarray, b: BoundsMatrix, tol: float = 1e-3):
    """Minimize the squared-hinge violation energy with Adam.

    E = sum over pairs of max(0, |ri-rj|^2 - upper^2)^2
                       + max(0, lower^2 - |ri-rj|^2)^2.
    Only steps that do not increase E (beyond 1e-12) are accepted; the best
    iterate is returned. Stops once its largest per-pair distance violation
    drops to `tol`, or after REFINE_MAX_ITER steps of rate REFINE_LR.

    Returns (coords, converged, max_violation, iterations).
    """
    iu = np.triu_indices(b.n, k=1)
    coords, converged, violation, iterations = _refine_stack(
        np.asarray(coords, dtype=np.float64)[None], b.lower[iu][None],
        b.upper[iu][None], tol)
    return coords[0], bool(converged[0]), float(violation[0]), int(iterations[0])


def embed_bounds(elements, b: BoundsMatrix, rng: np.random.Generator,
                 tol: float = 1e-3) -> EmbedResult:
    """Smooth, metrize, embed and refine one set of bounds into a conformation.

    Bound smoothing failures raise InconsistentBoundsError; refinement that
    stops short of `tol` is reported through the `converged` flag instead.
    """
    bounds = smooth_bounds(b)
    coords, converged, violation, iterations = refine(
        gram_embed(metrize(bounds, rng)), bounds, tol=tol
    )
    return EmbedResult(Conformation(elements, coords), converged, violation,
                       iterations)


def embed_conformation(eg: ExtendedGraph, ged: GaussianEdgeDist,
                       rng: np.random.Generator, tol: float = 1e-3) -> EmbedResult:
    """Full pipeline from predicted edge Gaussians to one conformation."""
    return embed_bounds(eg.source_graph.elements, make_bounds(eg, ged), rng, tol)


@dataclass
class EmbedBatchReport:
    """Outcome statistics for a batch of embedding attempts.

    `n_smoothing_ok` counts the samples kept; `n_degenerate` those that passed
    smoothing but were dropped because refinement left two atoms on one point.
    `violations` and `iterations` list the kept samples' final largest bound
    violation and refine step count; `n_iteration_capped` counts the kept
    samples that used all REFINE_MAX_ITER steps without converging.
    `smoothing_rejections` counts, per atom pair "i-j" (i < j), the samples
    that smoothing rejected at that pair.
    """

    n_samples: int
    n_smoothing_ok: int
    n_degenerate: int
    n_converged: int
    violations: list
    iterations: list = field(default_factory=list)
    n_iteration_capped: int = 0
    smoothing_rejections: dict = field(default_factory=dict)

    @classmethod
    def merged(cls, reports) -> "EmbedBatchReport":
        """One report over several batches; lists keep the given order and
        rejection counts of equally named pairs add up."""
        reports = list(reports)
        rejections = Counter()
        for r in reports:
            rejections.update(r.smoothing_rejections)
        return cls(
            n_samples=sum(r.n_samples for r in reports),
            n_smoothing_ok=sum(r.n_smoothing_ok for r in reports),
            n_degenerate=sum(r.n_degenerate for r in reports),
            n_converged=sum(r.n_converged for r in reports),
            violations=[v for r in reports for v in r.violations],
            iterations=[i for r in reports for i in r.iterations],
            n_iteration_capped=sum(r.n_iteration_capped for r in reports),
            smoothing_rejections=dict(rejections),
        )

    @property
    def smoothing_rate(self) -> float:
        return self.n_smoothing_ok / self.n_samples if self.n_samples else 0.0

    @property
    def convergence_rate(self) -> float:
        return self.n_converged / self.n_samples if self.n_samples else 0.0

    def as_dict(self) -> dict:
        v = np.asarray(self.violations, dtype=np.float64)
        return {
            "n_samples": self.n_samples,
            "n_smoothing_ok": self.n_smoothing_ok,
            "n_degenerate": self.n_degenerate,
            "n_converged": self.n_converged,
            "smoothing_rate": self.smoothing_rate,
            "convergence_rate": self.convergence_rate,
            "mean_max_violation": float(v.mean()) if v.size else 0.0,
            "worst_violation": float(v.max()) if v.size else 0.0,
            "mean_refine_iterations":
                float(np.mean(self.iterations)) if self.iterations else 0.0,
            "n_iteration_capped": self.n_iteration_capped,
            "smoothing_rejections": dict(self.smoothing_rejections),
        }


def generate(params: cvae.ModelParams, eg: ExtendedGraph, n: int,
             seed: np.random.SeedSequence, tol: float = 1e-3) -> tuple:
    """Draw `n` independent conformations from the model's prior.

    Sample k draws from its own stream,
    SeedSequence(seed.entropy, spawn_key=(*seed.spawn_key, k)): first a
    standard-normal latent per node, then the metrization of its bounds.
    `seed` itself is left untouched, so output does not depend on how samples
    are grouped or scheduled.

    The samples move through the pipeline as one stack: one tape-free
    `cvae.decode` of all n latents, one bound construction and smoothing of
    all n bound sets (`_smooth_stack`), then metrization and embedding per
    sample, then one lockstep refine of the samples that passed smoothing
    (`_refine_stack`). Each stacked step gives every sample exactly the
    values it would get alone, so sample k does not depend on n.

    Returns (results, report) where `results` holds an EmbedResult for every
    sample that passed smoothing and kept its atoms apart, in sample order.
    """
    elements = eg.source_graph.elements
    rngs = [np.random.default_rng(np.random.SeedSequence(
        seed.entropy, spawn_key=(*seed.spawn_key, k))) for k in range(n)]
    latents = np.array([rng.standard_normal(eg.n_nodes) for rng in rngs])
    ged = cvae.decode(params, eg, latents.reshape(n, eg.n_nodes))  # n may be 0
    lower, upper, errors = _smooth_stack(*_bounds_stack(eg, ged))
    passed = [k for k in range(n) if errors[k] is None]
    rejections = Counter("-".join(map(str, sorted(errors[k].pair)))
                         for k in range(n) if errors[k] is not None)
    results = []
    n_degenerate = 0
    if passed:
        starts = [gram_embed(metrize(BoundsMatrix(lower[k], upper[k]), rngs[k]))
                  for k in passed]
        iu = np.triu_indices(eg.n_nodes, k=1)
        refined = _refine_stack(np.stack(starts), lower[passed][:, iu[0], iu[1]],
                                upper[passed][:, iu[0], iu[1]], tol)
        for coords, converged, violation, iterations in zip(*refined):
            try:
                conformation = Conformation(elements, coords)
            except GraphStructureError:
                n_degenerate += 1
                continue
            results.append(EmbedResult(conformation, bool(converged),
                                       float(violation), int(iterations)))
    report = EmbedBatchReport(
        n_samples=n,
        n_smoothing_ok=len(results),
        n_degenerate=n_degenerate,
        n_converged=sum(r.converged for r in results),
        violations=[r.max_violation for r in results],
        iterations=[r.iterations for r in results],
        n_iteration_capped=sum(not r.converged and r.iterations >= REFINE_MAX_ITER
                               for r in results),
        smoothing_rejections=dict(rejections),
    )
    return results, report
