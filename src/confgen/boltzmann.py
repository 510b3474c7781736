"""Classical energy surrogate, Metropolis reference sampler, and the
self-normalized importance-sampling estimator of Boltzmann-averaged
properties.

The energy model is harmonic in bond lengths and bond angles with an optional
soft steric floor; energies are in kJ/mol, so k_B enters through the gas
constant (k_B*T at 500 K is 8.314*500/1000 kJ/mol).

The estimator works on each molecule's (K, n, 3) stack of proposals: their
energies (one molecule's terms broadcast over the stack), the observable's
values and the overlap diagnostic are each one pass over the stack, bit for
bit what the conformations give one at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .molgraph import Conformation
from .nnet import ShapeError

GAS_CONSTANT_KJ_PER_MOL_K = 8.314462618e-3


class DegenerateWeightsError(DomainError):
    """All importance weights vanished or became non-finite."""


@dataclass(frozen=True)
class BondTerm:
    i: int
    j: int
    rest_length: float  # ångström
    stiffness: float  # kJ/mol/Å^2


@dataclass(frozen=True)
class AngleTerm:
    """Harmonic angle at atom `j` between the i-j and k-j directions."""

    i: int
    j: int
    k: int
    rest_angle: float  # radians
    stiffness: float  # kJ/mol/rad^2


@dataclass(frozen=True)
class StericTerm:
    """Soft repulsion pushing every non-bonded pair above `floor`."""

    floor: float  # ångström
    stiffness: float  # kJ/mol/Å^2


@dataclass
class EnergyModel:
    bonds: tuple = ()
    angles: tuple = ()
    steric: StericTerm | None = None

    def __post_init__(self):
        self.bonds = tuple(self.bonds)
        self.angles = tuple(self.angles)
        for t in self.bonds:
            if t.rest_length <= 0 or t.stiffness <= 0:
                raise ValueError("bond terms need positive rest length and stiffness")
        for t in self.angles:
            if t.stiffness <= 0:
                raise ValueError("angle terms need positive stiffness")
        self._compiled: dict[int, _TermStack] = {}

    def _terms(self, n: int) -> _TermStack:
        """This model's terms for `n` atoms as a one-molecule stack, cached per n."""
        cached = self._compiled.get(n)
        if cached is not None:
            return cached
        bi = np.array([t.i for t in self.bonds], dtype=np.int64)
        bj = np.array([t.j for t in self.bonds], dtype=np.int64)
        br = np.array([t.rest_length for t in self.bonds])
        bk = np.array([t.stiffness for t in self.bonds])
        ai = np.array([t.i for t in self.angles], dtype=np.int64)
        aj = np.array([t.j for t in self.angles], dtype=np.int64)
        ak = np.array([t.k for t in self.angles], dtype=np.int64)
        ar = np.array([t.rest_angle for t in self.angles])
        astiff = np.array([t.stiffness for t in self.angles])
        for idx in (bi, bj, ai, aj, ak):
            if idx.size and (idx.min() < 0 or idx.max() >= n):
                raise ValueError("energy term references a missing atom")
        si = sj = np.empty(0, dtype=np.int64)
        floor, stiffness = np.empty(0), 0.0
        if self.steric is not None:
            bonded = {frozenset((t.i, t.j)) for t in self.bonds}
            iu = np.triu_indices(n, k=1)
            mask = np.array(
                [frozenset((int(a), int(b))) not in bonded for a, b in zip(*iu)],
                dtype=bool,
            )
            si, sj = iu[0][mask], iu[1][mask]
            floor = np.full(si.size, self.steric.floor)
            stiffness = self.steric.stiffness if si.size else 0.0
        cached = _TermStack(
            n, np.array([stiffness]),
            (bi, bj, br, bk, np.zeros(bi.size, dtype=np.int64)),
            (ai, aj, ak, ar, astiff, np.zeros(ai.size, dtype=np.int64)),
            (si, sj, floor, np.zeros(si.size, dtype=np.int64)),
        )
        self._compiled[n] = cached
        return cached

    def energy_of(self, positions: np.ndarray) -> float | np.ndarray:
        """The energy at `positions` (n, 3), a float; or, for a stack of K
        conformations (K, n, 3), a (K,) array, bit for bit what K calls on
        the conformations one at a time give: the one-molecule terms
        broadcast over the stack (see `_TermStack.energies`)."""
        positions = np.asarray(positions, dtype=np.float64)
        energies = self._terms(positions.shape[-2]).energies(positions)
        if positions.ndim == 2:
            return float(energies[0])
        return energies[:, 0]


class _TermStack:
    """The energy terms of several molecules, laid end to end.

    Bond, angle and steric terms are each concatenated in molecule order,
    and each term carries its molecule's index. One row list (`row_i`,
    `row_j`) holds every atom pair the terms need: the bond pairs, the i-j
    leg of each angle, its k-j leg, then the steric pairs. So one pass makes one
    difference, one squared norm and one square root per row, and every term
    comes from slices of them. A molecule's energy sums each kind of its own
    terms left to right, in term order (`np.bincount` by molecule index),
    as bonds + angles + steric stiffness * steric gaps: it does not depend
    on what else is in the stack, and dropping a steric pair whose squared
    gap is exactly +0.0 does not change it (see `near`).
    `EnergyModel.energy_of` is the one-molecule case, at one position set or
    at a stack of them.
    """

    # per kind: its atom index fields, then its values, then molecule indices
    _ATOM_FIELDS = {"bonds": 2, "angles": 3, "steric": 2}

    def __init__(self, n_atoms: int, stiffness: np.ndarray, bonds: tuple,
                 angles: tuple, steric: tuple):
        self.n_atoms = n_atoms
        self.stiffness = stiffness  # steric stiffness per molecule
        self.bonds, self.angles, self.steric = bonds, angles, steric
        bi, bj, self.br, self.bk, self.bmol = bonds
        ai, aj, ak, self.ar, self.astiff, self.amol = angles
        si, sj, self.floor, self.smol = steric
        self.nb, self.na = bi.size, ai.size
        # without pairs the steric kind adds stiffness * 0.0, which is
        # exactly 0.0 unless a stiffness is not finite
        self.adds_steric = si.size > 0 or not np.isfinite(stiffness).all()
        self.row_i = np.concatenate([bi, ai, ak, si])
        self.row_j = np.concatenate([bj, aj, aj, sj])

    @classmethod
    def join(cls, stacks) -> _TermStack:
        """One stack of `stacks` in order, atom and molecule indices offset
        to match."""
        stacks = list(stacks)
        atom = np.cumsum([0] + [s.n_atoms for s in stacks[:-1]])
        mol = np.cumsum([0] + [s.stiffness.size for s in stacks[:-1]])

        def cat(kind: str) -> tuple:
            fields = [np.concatenate(parts)
                      for parts in zip(*(getattr(s, kind) for s in stacks))]
            sizes = [getattr(s, kind)[0].size for s in stacks]
            atom_shift = np.repeat(atom, sizes)
            for f in range(cls._ATOM_FIELDS[kind]):
                fields[f] += atom_shift
            fields[-1] += np.repeat(mol, sizes)
            return tuple(fields)

        return cls(sum(s.n_atoms for s in stacks),
                   np.concatenate([s.stiffness for s in stacks]),
                   cat("bonds"), cat("angles"), cat("steric"))

    def near(self, positions: np.ndarray, skin: float) -> _TermStack:
        """This stack with only the steric pairs closer than their floor plus
        `skin` at `positions`. While no atom moves `skin`/2 from `positions`,
        every dropped pair stays above its floor, its squared gap is exactly
        +0.0, and the energies equal this stack's bit for bit."""
        si, sj, floor, _ = self.steric
        d = np.sqrt(_row_dots(positions.take(si, axis=0) - positions.take(sj, axis=0)))
        keep = d < floor + skin
        return _TermStack(self.n_atoms, self.stiffness, self.bonds, self.angles,
                          tuple(a[keep] for a in self.steric))

    def energies(self, positions: np.ndarray) -> np.ndarray:
        """Energy of each molecule in the stack at `positions` (n_atoms, 3).

        At a stack of K position sets (K, n_atoms, 3), a (K, molecules)
        array whose row k is bit for bit the energies at positions[k]: the
        term arrays broadcast over the K sets, every term is computed
        elementwise, and each row sums its own terms in term order.

        An angle or steric kind without terms is skipped: it would add
        exactly +0.0 (see `adds_steric`), and bond and angle sums, of terms
        that are never negative, are never -0.0, so the bits are the same.
        """
        nb, na, m = self.nb, self.na, self.stiffness.size
        diff = positions.take(self.row_i, axis=-2) - positions.take(self.row_j, axis=-2)
        d = np.sqrt(_row_dots(diff))
        energy = _sum_by(self.bmol, self.bk * (d[..., :nb] - self.br) ** 2, m)
        if na:
            # the norms and the clip of np.linalg.norm and np.clip, without
            # their call overhead
            cosang = _row_dots(diff[..., nb:nb + na, :], diff[..., nb + na:nb + 2 * na, :]) / (
                d[..., nb:nb + na] * d[..., nb + na:nb + 2 * na])
            theta = np.arccos(np.minimum(np.maximum(cosang, -1.0), 1.0))
            energy = energy + _sum_by(self.amol, self.astiff * (theta - self.ar) ** 2, m)
        if self.adds_steric:
            gap2 = np.maximum(self.floor - d[..., nb + 2 * na:], 0.0) ** 2
            energy = energy + self.stiffness * _sum_by(self.smol, gap2, m)
        return energy


def _sum_by(mol: np.ndarray, values: np.ndarray, m: int) -> np.ndarray:
    """Sums of term `values` by molecule index `mol` over `m` molecules, each
    in term order from +0.0 (`np.bincount`); for (K, terms) values, a (K, m)
    array with one row of sums per row of values."""
    if values.ndim == 1:
        return np.bincount(mol, values, m)
    k = values.shape[0]
    rows = (mol + m * np.arange(k)[:, None]).ravel()
    return np.bincount(rows, values.ravel(), k * m).reshape(k, m)


def _row_dots(u: np.ndarray, v: np.ndarray | None = None) -> np.ndarray:
    """Row-wise dot products of (..., 3) arrays (squared norms without `v`).

    Summed left to right, as `(u * v).sum(axis=-1)` sums rows of three, so
    the results are the same; only the sign of a zero can differ, and no
    energy depends on it.
    """
    p = u * (u if v is None else v)
    return (p[..., 0] + p[..., 1]) + p[..., 2]


@dataclass
class ISConfig:
    """Temperature for Boltzmann weights and Metropolis acceptance."""

    temperature: float  # kelvin

    def __post_init__(self):
        if not (math.isfinite(self.temperature) and self.temperature > 0):
            raise ValueError(
                f"temperature must be a finite number > 0, got {self.temperature!r}")

    @property
    def kbt(self) -> float:
        """k_B*T in kJ/mol."""
        return GAS_CONSTANT_KJ_PER_MOL_K * self.temperature


@dataclass
class MetropolisResult:
    elements: tuple
    positions: np.ndarray  # (n_kept, n_atoms, 3)
    acceptance_rate: float
    step_size: float

    def conformations(self) -> list[Conformation]:
        """The kept conformations, checked as one stack; the first that fails
        raises its GraphStructureError."""
        out = Conformation.stack(self.elements, self.positions)
        for conformation in out:
            if not isinstance(conformation, Conformation):
                raise conformation
        return out

    def __len__(self) -> int:
        return self.positions.shape[0]


# A chain's generator is drawn one block of BLOCK steps at a time (fewer at
# its end): the block's proposal normals, then its acceptance uniforms.
BLOCK = 256
TUNE_WINDOW = 50
# The steric pairs of a lockstep stretch are listed afresh (Verlet 1967)
# whenever an atom of a proposal lies STERIC_SKIN/2 from where it was at the
# last listing, less a margin far above the rounding of a distance; the list
# keeps the pairs closer than floor + STERIC_SKIN (see metropolis_chains).
STERIC_SKIN = 0.5  # ångström
_SKIN_MARGIN = 1e-9  # ångström


@dataclass
class Chain:
    """One Metropolis chain: its model, start, schedule and generator."""

    model: EnergyModel
    x0: Conformation
    steps: int  # kept-phase steps, after burn-in
    rng: np.random.Generator
    step_size: float = 0.05  # ångström
    burn_in: int = 0
    thin: int = 1
    tune: bool = True

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("need at least one step")
        if self.burn_in < 0:
            raise ValueError("burn-in must not be negative")
        if self.thin < 1:
            raise ValueError("thin must be at least 1")
        if not (math.isfinite(self.step_size) and self.step_size > 0):
            raise ValueError("step size must be finite and positive")


class _ChainState:
    """A chain's place in the lockstep loop."""

    def __init__(self, chain: Chain):
        self.chain = chain
        self.total = chain.burn_in + chain.steps
        self.pos = chain.x0.positions.copy()
        self.n_atoms = self.pos.shape[0]
        self.step_size = chain.step_size
        self.accepted = 0  # after burn-in
        self.window = 0  # accepted in the current tuning window
        self.kept = np.empty((chain.steps // chain.thin, self.n_atoms, 3))
        self.n_kept = 0
        self.logu = np.empty(0)
        self.block = np.empty((BLOCK, self.n_atoms, 3))
        self.noise = self.block[:0]  # the rows of `block` drawn last

    def draw(self, i: int) -> None:
        """Draw the block of steps from `i`: its proposal normals into
        `block`, then its acceptance uniforms."""
        length = min(BLOCK, self.total - i)
        self.noise = self.block[:length]
        self.chain.rng.standard_normal(out=self.noise)
        self.logu = np.log(self.chain.rng.random(length))

    def result(self) -> MetropolisResult:
        return MetropolisResult(
            elements=self.chain.x0.elements,
            positions=self.kept,
            acceptance_rate=self.accepted / self.chain.steps,
            step_size=self.step_size,
        )


def metropolis_chains(chains, cfg: ISConfig) -> list[MetropolisResult]:
    """Run several Metropolis chains in one lockstep loop.

    Each step moves every unfinished chain: one pass of `_TermStack`
    computes all their proposal energies, and accepted chains take their
    proposals. A chain keeps its own generator, drawn a block at a time
    (see BLOCK), its own step size, tuning window and schedule, and leaves
    the loop when its own steps are done; so each chain's result is bit for
    bit the one it gets alone.

    The energies come from a steric neighbour list: the stack with only the
    steric pairs closer than floor + STERIC_SKIN, listed afresh at each
    stretch's start and whenever an atom of the proposal has moved
    STERIC_SKIN/2 (less _SKIN_MARGIN) from where it was at the last listing.
    Until then every pair left out stays above its floor and adds exactly
    +0.0, so the energies are the full stack's bit for bit. A stretch
    whose stack has no steric pairs is listed once, at its start.
    """
    kbt = cfg.kbt
    reach2 = (STERIC_SKIN / 2 - _SKIN_MARGIN) ** 2
    states = [_ChainState(c) for c in chains]
    active, start = states, 0
    while active:
        # one stretch of steps with a fixed set of chains, until one is done
        full = _TermStack.join(s.chain.model._terms(s.n_atoms) for s in active)
        bounds = np.cumsum([0] + [s.n_atoms for s in active]).tolist()
        spans = list(zip(active, bounds[:-1], bounds[1:]))
        pos = np.concatenate([s.pos for s in active])
        stack, listed_at = full.near(pos, STERIC_SKIN), pos.copy()
        relist = full.floor.size > 0
        step_rows = np.concatenate(
            [np.full((s.n_atoms, 1), s.step_size) for s in active])
        # the bits each chain had at the end of the last stretch: the full
        # stack's, and a molecule's energy does not depend on the others
        energies = stack.energies(pos).tolist()
        end = min(s.total for s in active)
        noise = None
        for i in range(start, end):
            j = i % BLOCK
            if j == 0:
                for s in active:
                    s.draw(i)
                noise = None
            if noise is None:
                # stacked at each block edge, and mid-block after a chain left
                rows = min(len(s.noise) for s in active)
                noise = np.concatenate([s.noise[:rows] for s in active], axis=1)
            proposal = pos + step_rows * noise[j]
            if relist and _row_dots(proposal - listed_at).max() >= reach2:
                stack, listed_at = full.near(proposal, STERIC_SKIN), proposal
            proposed = stack.energies(proposal).tolist()
            for k, (s, a0, a1) in enumerate(spans):
                chain = s.chain
                e_prop = proposed[k]
                if s.logu[j] < -(e_prop - energies[k]) / kbt:
                    pos[a0:a1] = proposal[a0:a1]
                    energies[k] = e_prop
                    if i >= chain.burn_in:
                        s.accepted += 1
                    else:
                        s.window += 1
                if chain.tune and i < chain.burn_in and (i + 1) % TUNE_WINDOW == 0:
                    rate = s.window / TUNE_WINDOW
                    if rate > 0.5:
                        s.step_size *= 1.1
                    elif rate < 0.4:
                        s.step_size *= 0.9
                    s.window = 0
                    step_rows[a0:a1] = s.step_size
                if i >= chain.burn_in and (i - chain.burn_in + 1) % chain.thin == 0:
                    s.kept[s.n_kept] = pos[a0:a1]
                    s.n_kept += 1
        for s, a0, a1 in spans:
            s.pos = pos[a0:a1].copy()
        active, start = [s for s in active if s.total > end], end
    return [s.result() for s in states]


def metropolis_sample(m: EnergyModel, x0: Conformation, steps: int, cfg: ISConfig,
                      rng: np.random.Generator, *, step_size: float = 0.05,
                      burn_in: int = 0, thin: int = 1,
                      tune: bool = True) -> MetropolisResult:
    """Random-walk Metropolis in Cartesian coordinates.

    Every atom receives an isotropic Gaussian displacement per proposal and
    the move is accepted with probability min(1, exp(-dE / k_B T)). During
    burn-in the step size is nudged toward a 40-50% acceptance rate; it is
    frozen afterwards so the retained chain targets the Boltzmann
    distribution. Keeps every `thin`-th of the `steps` post-burn-in states.
    A one-chain `metropolis_chains`.
    """
    # kept while the benchmark tracer (perfbench/tracing.py) wraps it by name
    chain = Chain(m, x0, steps, rng, step_size, burn_in, thin, tune)
    return metropolis_chains([chain], cfg)[0]


@dataclass
class Observable:
    """A named scalar function of a conformation, computed on a stack:
    `stacked` maps positions (K, n, 3) to the (K,) values of the K
    conformations."""

    name: str
    stacked: object

    def __call__(self, x: Conformation) -> float:
        return float(self.stacked(x.positions[None])[0])


def observable_by_name(spec: str) -> Observable:
    """Built-ins: "one", "rgyr", and "distance:i-j" for an atom pair.

    Each value is bit for bit the one-conformation formula's: the radius of
    gyration `sqrt(mean(sum((x - mean(x))**2)))` over atoms, and the
    distance `np.linalg.norm(x[i] - x[j])`, whose dot product `np.vecdot`
    computes as it does (a sum of three squares in another order is not).
    """
    if spec == "one":
        return Observable("one", lambda positions: np.ones(len(positions)))
    if spec == "rgyr":
        def rgyr(positions: np.ndarray) -> np.ndarray:
            centered = positions - positions.mean(axis=1, keepdims=True)
            return np.sqrt((centered**2).sum(axis=2).mean(axis=1))
        return Observable("rgyr", rgyr)
    if spec.startswith("distance:"):
        try:
            i_str, j_str = spec.split(":", 1)[1].split("-")
            i, j = int(i_str), int(j_str)
        except ValueError as e:
            raise ValueError(f"bad distance observable {spec!r}; use distance:i-j") from e

        def distance(positions: np.ndarray) -> np.ndarray:
            diff = positions[:, i] - positions[:, j]
            return np.sqrt(np.vecdot(diff, diff))
        return Observable(spec, distance)
    raise ValueError(f"unknown observable {spec!r}")


def _min_pairwise_conformation_distance(positions: np.ndarray) -> float | None:
    """Smallest distance between the interatomic-distance vectors of a
    (K, n, 3) stack of proposals, None for fewer than two proposals.

    An isometry-invariant overlap diagnostic: tiny values mean near-duplicate
    conformations. `take` keeps the (K, pairs) rows C-contiguous, as one row
    per proposal stacked is, which fixes the order of the later sums.
    """
    if len(positions) < 2:
        return None
    iu = np.triu_indices(positions.shape[1], k=1)
    diff = positions.take(iu[0], axis=1) - positions.take(iu[1], axis=1)
    rows = np.sqrt((diff**2).sum(axis=2))
    sq = (rows**2).sum(axis=1)
    pair_sq = np.maximum(sq[:, None] + sq[None, :] - 2.0 * rows @ rows.T, 0.0)
    ku = np.triu_indices(len(positions), k=1)
    return float(np.sqrt(pair_sq[ku].min()))


@dataclass
class IsEstimate:
    value: float
    ess: float
    n: int
    weights: np.ndarray = field(repr=False)
    standard_error: float
    min_pairwise_distance: float | None  # None for fewer than two proposals

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "ess": self.ess,
            "n": self.n,
            "standard_error": self.standard_error,
            "min_pairwise_distance": self.min_pairwise_distance,
            "max_weight": float(self.weights.max()),
        }


def is_estimate(obs: Observable, proposals, m: EnergyModel, cfg: ISConfig, *,
                energies=None) -> IsEstimate:
    """Self-normalized Boltzmann reweighting of proposal conformations.

    Every proposal is weighted by its unnormalized Boltzmann factor
    exp(-E / k_B T) (shifted by the minimum energy for stability) and the
    observable average is normalized by the weight sum, which makes the
    estimate independent of any constant added to all energies. Precomputed
    `energies` may be supplied to skip the model evaluation. The proposals'
    energies, observable values and overlap diagnostic come from their one
    (K, n, 3) stack of positions.
    """
    proposals = list(proposals)
    if not proposals:
        raise ShapeError("need at least one proposal")
    positions = np.stack([x.positions for x in proposals])
    if energies is None:
        energies = m.energy_of(positions)
    else:
        energies = np.asarray(energies, dtype=np.float64)
        if energies.shape != (len(proposals),):
            raise ShapeError("one energy per proposal required")

    finite = np.isfinite(energies)
    if not finite.any():
        raise DegenerateWeightsError("no proposal has a finite energy")
    shift = energies[finite].min()
    with np.errstate(over="ignore"):
        weights = np.exp(-(energies - shift) / cfg.kbt)
    weights[~np.isfinite(weights)] = 0.0
    total = weights.sum()
    if not (np.isfinite(total) and total > 0.0):
        raise DegenerateWeightsError("importance weights vanished after shifting")

    values = obs.stacked(positions)
    estimate = float((values * weights).sum() / total)
    normalized = weights / total
    ess = float(1.0 / (normalized**2).sum())
    se = float(np.sqrt((normalized**2 * (values - estimate) ** 2).sum()))
    return IsEstimate(
        value=estimate,
        ess=ess,
        n=len(proposals),
        weights=normalized,
        standard_error=se,
        min_pairwise_distance=_min_pairwise_conformation_distance(positions),
    )
