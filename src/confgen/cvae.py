"""Conditional VAE over the per-edge distances of an extended molecular graph.

The encoder turns (graph, distances) into one Gaussian latent per node; the
decoder turns (graph, latent) back into one Gaussian per edge. Both are
instances of one message-passing network class, `_MessagePassingNet`, which
reads out on the nodes for the encoder and on the edges for the decoder; its
weights are shared across graphs of any size.
Training maximizes the evidence lower bound, i.e. a single-sample
reparameterized reconstruction log-likelihood minus the closed-form KL
divergence from the per-node posterior to a standard-normal prior; the latent
draw z = mean + std * noise is part of the taped pass (`_batch_terms`).
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass, field, fields

import numpy as np

from . import molgraph, nnet
from .errors import NumericalError, UsageError
from .molgraph import ExtendedGraph
from .nnet import ShapeError, Tensor

LOG_TWO_PI = math.log(2.0 * math.pi)

# Sum aggregation over incident edges grows activations multiplicatively with
# the message passes; small output gains on the message MLPs keep the state
# scale near one, and the read-out heads start with near-zero outputs.
MESSAGE_GAIN = 0.1
READOUT_GAIN = 0.01


def _integer_rule(low: int):
    return (lambda v, c: type(v) is int and v >= low), f"an integer >= {low}"


def _real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


# config field: (whether a value is valid, given the whole config; what a valid
# value is)
_CONFIG_RULES = {
    "message_passes": _integer_rule(0),
    **dict.fromkeys(("node_state", "edge_state", "hidden", "readout_hidden",
                     "batch_size", "epochs"), _integer_rule(1)),
    "variance_floor": (lambda v, c: _real(v) and v > 0, "a finite number > 0"),
    "variance_ceiling": (lambda v, c: _real(v) and v > c.variance_floor,
                         "a finite number above variance_floor"),
    "learning_rate": (lambda v, c: _real(v) and v > 0, "a finite number > 0"),
    "validation_fraction": (lambda v, c: _real(v) and 0 <= v < 1,
                            "a number >= 0 and < 1"),
}


@dataclass
class CvaeConfig:
    """Model and training hyperparameters, checked on construction
    (ValueError names the first bad field).

    Defaults: three message passes, state width 10, hidden layers of 50,
    minibatches of 32 at learning rate 0.001.
    """

    message_passes: int = 3
    node_state: int = 10
    edge_state: int = 10
    hidden: int = 50
    readout_hidden: int = 50
    variance_floor: float = 1e-6
    variance_ceiling: float = 1e6
    batch_size: int = 32
    learning_rate: float = 0.001
    epochs: int = 30
    validation_fraction: float = 0.1

    def __post_init__(self):
        for name, (valid, rule) in _CONFIG_RULES.items():
            value = getattr(self, name)
            if not valid(value, self):
                raise ValueError(f"{name} must be {rule}, got {value!r}")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "CvaeConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)


class MessageBlock:
    """One message pass: a symmetric edge update followed by a node update.

    The edge MLP sees (edge state, endpoint states) in both endpoint orders
    and the two results are summed, so the update cannot depend on which
    endpoint was stored first. Node states are updated from the sum of their
    incident updated edge states. States may carry a leading sample axis.
    The two updates are separate steps, so that a network that reads out on
    the edges can skip the node update of its last pass.
    """

    def __init__(self, node_state: int, edge_state: int, hidden: int,
                 rng: np.random.Generator):
        self.edge_update = nnet.Mlp(
            (edge_state + 2 * node_state, hidden, hidden, edge_state), rng,
            out_gain=MESSAGE_GAIN,
        )
        self.node_update = nnet.Mlp(
            (node_state + edge_state, hidden, hidden, node_state), rng,
            out_gain=MESSAGE_GAIN,
        )

    def edge_step(self, v: Tensor, e: Tensor, src, dst) -> Tensor:
        h_src = nnet.rows(v, src)
        h_dst = nnet.rows(v, dst)
        return nnet.add(
            self.edge_update(nnet.concat([e, h_src, h_dst], axis=-1)),
            self.edge_update(nnet.concat([e, h_dst, h_src], axis=-1)),
        )

    def node_step(self, v: Tensor, e_new: Tensor, src, dst, n_nodes: int) -> Tensor:
        agg = nnet.add(
            nnet.scatter_sum(e_new, src, n_nodes),
            nnet.scatter_sum(e_new, dst, n_nodes),
        )
        return self.node_update(nnet.concat([v, agg], axis=-1))


class _MessagePassingNet:
    """Node and edge embeddings, message passes and a Gaussian read-out.

    The encoder and the decoder are both one of these: they differ in the
    widths of their node and edge inputs and in whether the mean and
    log-variance heads read the final node states (encoder, one latent per
    node) or the final edge states (decoder, one distance per edge). Weights
    are drawn from `rng` in parameter order.
    """

    def __init__(self, config: CvaeConfig, node_in: int, edge_in: int,
                 rng: np.random.Generator, on_edges: bool):
        c = self.config = config
        self.on_edges = on_edges
        self.node_embed = nnet.Mlp((node_in, c.hidden, c.hidden, c.node_state), rng)
        self.edge_embed = nnet.Mlp((edge_in, c.hidden, c.hidden, c.edge_state), rng)
        self.passes = [MessageBlock(c.node_state, c.edge_state, c.hidden, rng)
                       for _ in range(c.message_passes)]
        head = (c.edge_state if on_edges else c.node_state, c.readout_hidden,
                c.readout_hidden, 1)
        self.mean = nnet.Mlp(head, rng, out_gain=READOUT_GAIN)
        self.logvar = nnet.Mlp(head, rng, out_gain=READOUT_GAIN)

    def named_parameters(self, prefix: str) -> dict[str, Tensor]:
        mlps = [("node_embed", self.node_embed), ("edge_embed", self.edge_embed)]
        for t, block in enumerate(self.passes):
            mlps += [(f"pass{t}.edge", block.edge_update),
                     (f"pass{t}.node", block.node_update)]
        mlps += [("mean", self.mean), ("logvar", self.logvar)]
        return {f"{prefix}.{name}.{li}.{kind}": getattr(layer, kind)
                for name, mlp in mlps for li, layer in enumerate(mlp.layers)
                for kind in ("weight", "bias")}

    def __call__(self, v_in: Tensor, e_in: Tensor, src, dst, n_nodes: int):
        """(mean, clipped log-variance) per node or per edge.

        `v_in` may be a (S, n_nodes, width) stack; an unstacked `e_in` is
        then shared by all S samples, so the edge embedding runs once.
        """
        v = self.node_embed(v_in)
        e = self.edge_embed(e_in)
        for t, block in enumerate(self.passes):
            e = block.edge_step(v, e, src, dst)
            # an edge read-out never reads the last pass's node states, so
            # that node update is skipped; its weights stay in the model
            if not (self.on_edges and t == len(self.passes) - 1):
                v = block.node_step(v, e, src, dst, n_nodes)
        out = e if self.on_edges else v
        mean = self.mean(out)
        logvar = nnet.clip(self.logvar(out), math.log(self.config.variance_floor),
                           math.log(self.config.variance_ceiling))
        return mean, logvar


class ModelParams:
    """All trainable weights: the encoder `enc` and the decoder `dec`."""

    def __init__(self, config: CvaeConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)
        fv, fe = molgraph.NODE_FEATURE_DIM, molgraph.EDGE_FEATURE_DIM
        # the encoder sees each edge's distance, the decoder each node's latent
        self.enc = _MessagePassingNet(config, fv, fe + 1, rng, on_edges=False)
        self.dec = _MessagePassingNet(config, fv + 1, fe, rng, on_edges=True)
        self._named = {**self.enc.named_parameters("enc"),
                       **self.dec.named_parameters("dec")}

    def named_parameters(self) -> dict[str, Tensor]:
        return dict(self._named)

    @property
    def dtype(self) -> np.dtype:
        """The dtype of the weights: float64, except in `train`'s passes,
        which run on float32 copies."""
        return next(iter(self._named.values())).data.dtype

    def parameters(self) -> list[Tensor]:
        return list(self._named.values())

    def values(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self._named.items()}

    def checked(self, arrays: dict, what: str = "weights") -> dict[str, np.ndarray]:
        """The entry of `arrays` for each parameter, in parameter order;
        ShapeError names `what` if one is missing or of the wrong shape."""
        missing = [name for name in self._named if name not in arrays]
        if missing:
            raise ShapeError(f"{what} lack parameters: {missing[:3]}...")
        out = {name: np.asarray(arrays[name], dtype=np.float64) for name in self._named}
        for name, t in self._named.items():
            if out[name].shape != t.data.shape:
                raise ShapeError(f"{what}: parameter {name}: stored shape "
                                 f"{out[name].shape} != expected {t.data.shape}")
        return out

    def set_values(self, arrays: dict) -> None:
        for t, a in zip(self._named.values(), self.checked(arrays).values()):
            t.data = a.copy()


@dataclass
class NodeGaussians:
    """Per-node posterior mean and variance over the latent code."""

    mean: np.ndarray
    var: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.var = np.asarray(self.var, dtype=np.float64)
        if self.mean.shape != self.var.shape or self.mean.ndim != 1:
            raise ShapeError("mean and variance must be equal-length vectors")
        if not (self.var > 0.0).all():
            raise ShapeError("latent variances must be positive")


@dataclass
class GaussianEdgeDist:
    """Per-edge Gaussian over distance, aligned with the graph's edge list.

    `mean` and `var` are (n_edges,), or (S, n_edges) for a stack of S samples.
    """

    mean: np.ndarray
    var: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.var = np.asarray(self.var, dtype=np.float64)
        if self.mean.shape != self.var.shape or self.mean.ndim not in (1, 2):
            raise ShapeError("mean and variance must be equal-length vectors "
                             "or equal stacks of them")
        if not (self.var > 0.0).all():
            raise ShapeError("distance variances must be positive")

    def __len__(self) -> int:
        """Edges per sample."""
        return self.mean.shape[-1]

    @property
    def std(self) -> np.ndarray:
        return np.sqrt(self.var)


def _distance_values(distances, eg: ExtendedGraph) -> np.ndarray:
    d = np.asarray(distances, dtype=np.float64)
    if d.shape != (eg.n_edges,):
        raise ShapeError(
            f"{d.shape[0] if d.ndim == 1 else d.shape} distances for a graph "
            f"with {eg.n_edges} edges"
        )
    return d


def encode(p: ModelParams, eg: ExtendedGraph, distances) -> NodeGaussians:
    """Posterior Gaussians for the latent code given the (n_edges,) vector of
    observed edge distances."""
    d = _distance_values(distances, eg)
    e_in = nnet.concat([nnet.constant(eg.edge_features), nnet.constant(d[:, None])],
                       axis=1)
    mean, logvar = p.enc(nnet.constant(eg.node_features), e_in, eg.src, eg.dst,
                         eg.n_nodes)
    return NodeGaussians(mean.data[:, 0], np.exp(logvar.data[:, 0]))


def decode(p: ModelParams, eg: ExtendedGraph, z) -> GaussianEdgeDist:
    """Per-edge distance Gaussians given a latent code.

    `z` is one latent, (n_nodes,), or a stack of S latents, (S, n_nodes),
    which gives a stacked GaussianEdgeDist. A stack runs through the decoder
    that training uses as one pass along a leading sample axis; sample s gets
    exactly the values that decoding z[s] alone gives, whatever S is. No
    autodiff tape is recorded.
    """
    zv = np.asarray(z, dtype=np.float64)
    if zv.ndim not in (1, 2) or zv.shape[-1] != eg.n_nodes:
        raise ShapeError(f"latent shape {zv.shape} does not match {eg.n_nodes} nodes")
    with nnet.inference():
        v_in = nnet.concat([nnet.constant(eg.node_features),
                            nnet.constant(zv[..., None])], axis=-1)
        mean, logvar = p.dec(v_in, nnet.constant(eg.edge_features), eg.src, eg.dst,
                             eg.n_nodes)
    return GaussianEdgeDist(mean.data[..., 0], np.exp(logvar.data[..., 0]))


@dataclass
class ElboResult:
    value: float
    reconstruction: float
    kl: float
    gradients: dict


def elbo(p: ModelParams, eg: ExtendedGraph, distances, noise) -> ElboResult:
    """Single-sample ELBO and its gradients with respect to all parameters.

    `noise` is the reparameterization draw: one standard-normal value per node.
    """
    d = _distance_values(distances, eg)
    noise = np.asarray(noise, dtype=np.float64)
    if noise.shape != (eg.n_nodes,):
        raise ShapeError("noise must hold one value per node")

    value, recon, kl = _batch_terms(p, [(eg, d)], noise)
    nnet.zero_grads(p.parameters())
    nnet.backward(value)
    grads = {
        name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
        for name, t in p.named_parameters().items()
    }
    return ElboResult(value.item(), recon.item(), kl.item(), grads)


def kl_standard_normal(mean, var) -> float:
    """Closed-form KL( N(mean, var) || N(0, 1) ), summed over components."""
    mean = np.asarray(mean, dtype=np.float64)
    var = np.asarray(var, dtype=np.float64)
    return float(0.5 * np.sum(mean**2 + var - np.log(var) - 1.0))


# --- training -------------------------------------------------------------

def _stack_batch(items, dtype):
    """Merge graphs into one disjoint-union graph, its features and distances
    in `dtype`; per-graph terms just add."""
    node_feat, edge_feat, src, dst, dists = [], [], [], [], []
    offset = 0
    for eg, d in items:
        node_feat.append(eg.node_features)
        edge_feat.append(eg.edge_features)
        src.append(eg.src + offset)
        dst.append(eg.dst + offset)
        dists.append(d)
        offset += eg.n_nodes
    return (
        np.concatenate(node_feat, axis=0, dtype=dtype),
        np.concatenate(edge_feat, axis=0, dtype=dtype),
        np.concatenate(src),
        np.concatenate(dst),
        offset,
        np.concatenate(dists, dtype=dtype),
    )


def _batch_terms(p: ModelParams, items, noise: np.ndarray):
    """(elbo, recon, kl) tensors of a minibatch, each summed over its records.

    The pass runs in the dtype of `p`'s weights, every input and constant
    cast to it, so a float32 model promotes no layer to float64; the three
    sums are float64 scalars."""
    dtype = p.dtype

    def constant(a):
        return nnet.constant(np.asarray(a, dtype=dtype))

    node_feat, edge_feat, src, dst, n_nodes, d = _stack_batch(items, dtype)
    v_const = nnet.constant(node_feat)
    e_const = nnet.constant(edge_feat)
    d_col = nnet.constant(d[:, None])

    mean_z, logvar_z = p.enc(v_const, nnet.concat([e_const, d_col], axis=1),
                             src, dst, n_nodes)
    sigma_z = nnet.exp(nnet.scale(logvar_z, 0.5))
    z = nnet.add(mean_z, nnet.mul(sigma_z, constant(noise[:, None])))
    mean_d, logvar_d = p.dec(nnet.concat([v_const, z], axis=-1), e_const,
                             src, dst, n_nodes)

    var_d = nnet.exp(logvar_d)
    diff = nnet.sub(d_col, mean_d)
    per_edge = nnet.add(
        nnet.add(constant(LOG_TWO_PI), logvar_d),
        nnet.div(nnet.square(diff), var_d),
    )
    recon = nnet.scale(nnet.tsum(per_edge), -0.5)

    var_z = nnet.exp(logvar_z)
    per_node = nnet.sub(
        nnet.add(nnet.square(mean_z), var_z),
        nnet.add(logvar_z, constant(1.0)),
    )
    kl = nnet.scale(nnet.tsum(per_node), 0.5)
    if not np.isfinite(recon.data):
        raise NumericalError("reconstruction log-likelihood is not finite",
                             term="reconstruction")
    if not np.isfinite(kl.data):
        raise NumericalError("KL term is not finite", term="kl")
    return nnet.sub(recon, kl), recon, kl


def _dataset_elbo(p: ModelParams, items, rng: np.random.Generator,
                  batch_size: int) -> float:
    """Mean per-record single-sample ELBO over a dataset; records no tape."""
    total = 0.0
    for lo in range(0, len(items), batch_size):
        chunk = items[lo : lo + batch_size]
        n_nodes = sum(eg.n_nodes for eg, _ in chunk)
        with nnet.inference():
            total += _batch_terms(p, chunk, rng.standard_normal(n_nodes))[0].item()
    return total / len(items)


@dataclass
class TrainResult:
    params: ModelParams
    history: list
    best_epoch: int
    best_val_elbo: float
    state: dict = field(repr=False, default_factory=dict)


def _validation_split(molecules: list[str], fraction: float, seed: int):
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(101,)))
    if len(molecules) < 2 or fraction <= 0.0:
        return set()
    n_val = max(1, round(fraction * len(molecules)))
    n_val = min(n_val, len(molecules) - 1)
    picked = rng.choice(len(molecules), size=n_val, replace=False)
    return {molecules[i] for i in picked}


def train(records, config: CvaeConfig, seed: int, resume_state: dict | None = None,
          log_fn=None) -> TrainResult:
    """Minibatch Adam ascent on the ELBO; returns the best-validation weights.

    Every minibatch's forward and backward pass, and the validation ELBO,
    run in float32, on float32 copies of the float64 master weights that
    Adam updates (mixed precision); the loss sums are float64. The returned
    weights, `state["current"]` and the Adam moments are the float64 masters.
    `records` is a list of (molecule_id, ExtendedGraph, distances) tuples.
    Validation holds out a fraction of molecules (by molecular graph, at least
    one when two or more exist); with a single molecule the training set
    doubles as the validation set. `resume_state` restores the exact state a
    previous run saved, so a resumed run is bit-identical to an uninterrupted
    one. `log_fn` receives each epoch's history entry plus the per-record
    means of the training reconstruction and KL terms, `train_reconstruction`
    and `train_kl`, and the mean over the epoch's minibatches of the loss
    gradient's L2 norm, `train_grad_norm`, which the history does not keep.
    """
    records = list(records)
    if not records:
        raise ShapeError("training needs a non-empty dataset")

    molecules = sorted({m for m, _, _ in records})
    val_molecules = _validation_split(molecules, config.validation_fraction, seed)
    train_items = [(eg, np.asarray(d, dtype=np.float64))
                   for m, eg, d in records if m not in val_molecules]
    val_items = [(eg, np.asarray(d, dtype=np.float64))
                 for m, eg, d in records if m in val_molecules]
    if not val_items:
        val_items = train_items

    init_seed = int(np.random.SeedSequence(seed, spawn_key=(102,)).generate_state(1)[0])
    params = ModelParams(config, seed=init_seed)
    if resume_state is not None:
        params.set_values(resume_state["current"])
    adam = nnet.Adam(params.parameters(), lr=config.learning_rate)
    for t in params.parameters():
        t.data = t.data.astype(np.float32)
    masters = dict(zip(params.named_parameters(), adam.masters))

    def master_values():
        return {name: a.copy() for name, a in masters.items()}

    train_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(103,)))

    start_epoch = 0
    history: list[dict] = []
    best_val = -math.inf
    best_epoch = 0
    best_values = master_values()

    if resume_state is not None:
        adam.load_state_dict(resume_state["adam"])
        train_rng.bit_generator.state = resume_state["rng"]
        start_epoch = int(resume_state["epoch"])
        history = list(resume_state["history"])
        best_val = float(resume_state["best_val_elbo"])
        best_epoch = int(resume_state["best_epoch"])
        best_values = resume_state["best"]

    for epoch in range(start_epoch + 1, config.epochs + 1):
        order = train_rng.permutation(len(train_items))
        elbo_sum = recon_sum = kl_sum = grad_norm_sum = 0.0
        batches = range(0, len(order), config.batch_size)
        for lo in batches:
            batch = [train_items[i] for i in order[lo : lo + config.batch_size]]
            n_nodes = sum(eg.n_nodes for eg, _ in batch)
            noise = train_rng.standard_normal(n_nodes)
            value, recon, kl = _batch_terms(params, batch, noise)
            loss = nnet.scale(value, -1.0 / len(batch))
            nnet.zero_grads(params.parameters())
            nnet.backward(loss)
            grad_norm_sum += adam.step()
            elbo_sum += value.item()
            recon_sum += recon.item()
            kl_sum += kl.item()
        val_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(104, epoch)))
        entry = {
            "epoch": epoch,
            "train_elbo": elbo_sum / len(train_items),
            "val_elbo": _dataset_elbo(params, val_items, val_rng, config.batch_size),
        }
        history.append(entry)
        if entry["val_elbo"] > best_val:
            best_val = entry["val_elbo"]
            best_epoch = epoch
            best_values = master_values()
        if log_fn is not None:
            log_fn({**entry, "train_reconstruction": recon_sum / len(train_items),
                    "train_kl": kl_sum / len(train_items),
                    "train_grad_norm": grad_norm_sum / len(batches)})

    best_params = ModelParams(config, seed=0)
    best_params.set_values(best_values)
    state = {
        "epoch": config.epochs,
        "current": master_values(),
        "adam": adam.state_dict(),
        "rng": train_rng.bit_generator.state,
        "history": history,
        "best": best_values,
        "best_val_elbo": best_val,
        "best_epoch": best_epoch,
    }
    return TrainResult(best_params, history, best_epoch, best_val, state)


# --- checkpoint io ---------------------------------------------------------

def _pcg64_state(value) -> bool:
    try:
        np.random.PCG64(0).state = value
    except (KeyError, TypeError, ValueError):
        return False
    return True


# train-state field besides the arrays: (whether a value is valid, given the
# whole state; what a valid value is)
_STATE_RULES = {
    "epoch": _integer_rule(0),
    "adam.t": _integer_rule(0),
    "rng": (lambda v, s: _pcg64_state(v), "a PCG64 generator state"),
    "history": (lambda v, s: type(v) is list and all(type(e) is dict for e in v),
                "a list of objects"),
    "best_val_elbo": (lambda v, s: _real(v), "a finite number"),
    "best_epoch": _integer_rule(0),
}


def save_model(path, params: ModelParams, train_state: dict | None = None) -> None:
    """Write the weights plus optional resumable training state (version 2).
    The state's `best` weights must be bitwise `params` (ValueError otherwise)
    and are not stored again; Adam moments are stored by parameter name."""
    values = params.values()
    extra = {"config": params.config.to_dict()}
    if train_state is not None:
        state = extra["train_state"] = dict(train_state)
        best = state.pop("best")
        # bitwise, so a NaN payload or the sign of a zero counts
        if best.keys() != values.keys() or any(
                np.shape(best[name]) != a.shape or
                np.asarray(best[name], dtype=np.float64).tobytes() != a.tobytes()
                for name, a in values.items()):
            raise ValueError("the training state's best weights are not the weights saved")
        state["current"] = nnet.encode_arrays(state["current"])
        state["adam"] = {"t": state["adam"]["t"], **{
            key: nnet.encode_arrays(dict(zip(values, state["adam"][key]))) for key in "mv"}}
    nnet.save_checkpoint(path, values, extra=extra)


def load_model(path) -> tuple[ModelParams, dict | None]:
    """Load a version 2 checkpoint; returns (params, train_state or None),
    where the state's `best` weights are `params`. UsageError names `path`
    when the file is not a checkpoint of this model."""
    try:
        arrays, extra = nnet.load_checkpoint(path)
        params = ModelParams(CvaeConfig.from_dict(extra["config"]), seed=0)
        params.set_values(arrays)
        state = extra.get("train_state")
        if state is not None:
            state, adam = dict(state), state["adam"]
            state["current"] = params.checked(nnet.decode_arrays(state["current"]),
                                              "current weights")
            state["adam"] = {"t": adam["t"], **{
                key: list(params.checked(nnet.decode_arrays(adam[key]),
                                         "Adam moments").values()) for key in "mv"}}
            state["best"] = params.values()
            scalars = {**state, "adam.t": adam["t"]}
            for key, (valid, rule) in _STATE_RULES.items():
                if not valid(scalars[key], state):
                    raise ValueError(f"train_state.{key} must be {rule}, "
                                     f"got {reprlib.repr(scalars[key])}")
    except (KeyError, TypeError, ValueError, ShapeError) as e:
        detail = f"no {e}" if isinstance(e, KeyError) else e
        raise UsageError(f"{path}: not a usable checkpoint: {detail}") from e
    return params, state
