"""Fused node scorer: diffusion encoder + role-significance encoder + gate.

The model is trained unsupervised on the target network itself. A diffusion
encoder assigns every directed edge an adaptive weight (softmax over each
node's out-edges) and aggregates incoming weighted messages; a standard
graph convolution runs on the role graph. Two affine+ReLU heads turn the
embeddings into per-node scores which a sigmoid gate fuses into the final
dismantling score. The loss rewards score mass on nodes whose removal
influences many egonets while penalizing total score mass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from dismantler import autodiff as ad
from dismantler.autodiff import ParamStore, Tensor, adam_step
from dismantler.graph import Graph
from dismantler.roles import RoleGraph, discover_role_graph

ABLATIONS = ("full", "no_rs", "no_dc")

LEAKY_SLOPE = 0.2
HEAD_BIAS_INIT = 1.0


@dataclass
class DcrsConfig:
    """Hyper-parameters for one training run.

    The `no_rs` ablation forces lam = 1 (role branch ignored by the gate);
    `no_dc` forces lam = 0.
    """

    hidden_dim: int = 32
    gdn_layers: int = 2
    gcn_layers: int = 2
    lam: float = 0.5
    # gamma = 1 drives homogeneous graphs to the degenerate corner where no
    # node is worth attacking (scores never leave the 0.5 floor); 0.1 keeps
    # the optimum interior so the full ranking stays informative
    gamma: float = 0.1
    role_k: int = 10
    role_levels: int = 1
    epochs: int = 500
    lr: float = 0.01
    seed: int = 0
    ablation: str = "full"

    def __post_init__(self):
        if self.ablation not in ABLATIONS:
            raise ValueError(f"ablation must be one of {ABLATIONS}")
        if self.ablation == "no_rs":
            self.lam = 1.0
        elif self.ablation == "no_dc":
            self.lam = 0.0
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lam must be in [0, 1]")
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if min(self.hidden_dim, self.gdn_layers, self.gcn_layers, self.epochs) < 1:
            raise ValueError("hidden_dim, layer counts and epochs must be >= 1")


@dataclass
class DcrsOutput:
    """Final per-node scores, embeddings and the training loss trace."""

    s_dc: np.ndarray
    s_rs: np.ndarray
    s_dis: np.ndarray
    H: np.ndarray
    Z: np.ndarray
    loss_history: list[float] = field(repr=False, default_factory=list)


def init_params(config: DcrsConfig) -> ParamStore:
    d = config.hidden_dim
    store = ParamStore(seed=config.seed)
    # diffusion layer 0 is attention-free: see gdn_forward
    store.glorot("gdn0.w3", d, d)
    store.zeros("gdn0.b3", 1, d)
    for layer in range(1, config.gdn_layers):
        store.glorot(f"gdn{layer}.w1", d, d)
        store.glorot(f"gdn{layer}.w2", d, d)
        store.glorot(f"gdn{layer}.beta", d, 1)
        store.glorot(f"gdn{layer}.w3", d, d)
        store.zeros(f"gdn{layer}.b3", 1, d)
    for layer in range(config.gcn_layers):
        store.glorot(f"gcn{layer}.w", d, d)
    # the all-ones inputs keep embeddings rank-1 (one scalar per node times a
    # shared direction), so a random head risks starting with every ReLU off;
    # zero weights plus a positive bias keep both heads alive at init and
    # leave the optimizer real score mass to prune
    store.zeros("score_dc.w", d, 1)
    store.zeros("score_dc.b", 1, 1)
    store["score_dc.b"].values[:] = HEAD_BIAS_INIT
    store.zeros("score_rs.w", d, 1)
    store.zeros("score_rs.b", 1, 1)
    store["score_rs.b"].values[:] = HEAD_BIAS_INIT
    return store


def _all_ones_propagation(weights: np.ndarray, dst: np.ndarray, n: int,
                          width: int) -> Tensor:
    """Edge weights summed into their destinations, repeated to `width` columns.

    This is one propagation step of an all-ones input: every column is the
    same weighted sum, so it is summed once and repeated.
    """
    column = ad.scatter_rows(weights, dst, n)
    return ad.constant(np.repeat(column, width, axis=1))


def gdn_forward(g: Graph, store: ParamStore, num_layers: int,
                weights_out: list[np.ndarray] | None = None) -> Tensor:
    """Diffusion encoding of the original graph.

    Embeddings start as all-ones. Per layer, every directed edge (i -> j)
    gets a logit beta . LeakyReLU(h_i W1 + h_j W2), normalized by softmax
    over i's out-edges; node i then aggregates the weights of its in-edges
    times the senders' embeddings, followed by an affine map and ReLU.
    Isolated nodes aggregate the empty sum (zero vector). `weights_out`
    receives each layer's (E, 1) edge weights.

    On the all-ones input of layer 0 every logit of a node's out-edges is
    the same, so the softmax is exactly 1/deg(i) and layer 0 is the closed
    form agg_i = sum over j in N(i) of 1/deg(j), in every column, followed
    by the affine map and ReLU. Attention (W1, W2, beta) starts at layer 1.
    """
    n = g.num_nodes
    src, dst = g.edge_src, g.neighbors
    uniform = (1.0 / g.degrees[src]).reshape(-1, 1)
    if weights_out is not None:
        weights_out.append(uniform)
    w0 = store["gdn0.w3"]
    aggregated = _all_ones_propagation(uniform, dst, n, w0.shape[0])
    h = ad.relu(ad.add_bias(ad.matmul(aggregated, w0), store["gdn0.b3"]))
    for layer in range(1, num_layers):
        w1 = store[f"gdn{layer}.w1"]
        w2 = store[f"gdn{layer}.w2"]
        beta = store[f"gdn{layer}.beta"]
        w3 = store[f"gdn{layer}.w3"]
        b3 = store[f"gdn{layer}.b3"]
        hi = ad.row_gather(h, src)
        hj = ad.row_gather(h, dst)
        logits = ad.matmul(ad.leaky_relu(ad.add(ad.matmul(hi, w1), ad.matmul(hj, w2)),
                                         LEAKY_SLOPE), beta)
        weights = ad.segment_softmax(logits, src, n)
        if weights_out is not None:
            weights_out.append(weights.values.copy())
        messages = ad.mul(weights, ad.row_gather(h, src))
        aggregated = ad.segment_sum(messages, dst, n)
        h = ad.relu(ad.add_bias(ad.matmul(aggregated, w3), b3))
    return h


def gcn_forward(role_graph: RoleGraph, store: ParamStore, num_layers: int) -> Tensor:
    """Symmetric-normalized convolution over the role graph, all-ones input.

    Self-loops are added, so a node without role-graph neighbors keeps
    propagating its own embedding. Layer 0 propagates the all-ones input,
    a constant column of coefficient sums repeated to every column.
    """
    rg = role_graph.graph
    n = rg.num_nodes
    loops = np.arange(n, dtype=np.int64)
    src = np.concatenate([rg.edge_src, loops])
    dst = np.concatenate([rg.neighbors, loops])
    deg_tilde = rg.degrees + 1.0
    coeff = (1.0 / np.sqrt(deg_tilde[src] * deg_tilde[dst])).reshape(-1, 1)
    w0 = store["gcn0.w"]
    z = ad.relu(ad.matmul(_all_ones_propagation(coeff, dst, n, w0.shape[0]), w0))
    for layer in range(1, num_layers):
        propagated = ad.segment_sum(
            ad.mul(ad.constant(coeff), ad.row_gather(z, src)), dst, n)
        z = ad.relu(ad.matmul(propagated, store[f"gcn{layer}.w"]))
    return z


def score_and_fuse(h: Tensor, z: Tensor, store: ParamStore,
                   lam: float) -> tuple[Tensor, Tensor, Tensor]:
    """Per-node scores from each branch plus the fused dismantling score.

    s_dis = sigmoid(lam * s_dc + (1 - lam) * s_rs); both branch scores are
    ReLU outputs, so s_dis always lands in [0.5, 1).
    """
    s_dc = ad.relu(ad.add_bias(ad.matmul(h, store["score_dc.w"]), store["score_dc.b"]))
    s_rs = ad.relu(ad.add_bias(ad.matmul(z, store["score_rs.w"]), store["score_rs.b"]))
    fused = ad.add(ad.mul(ad.constant([[lam]]), s_dc),
                   ad.mul(ad.constant([[1.0 - lam]]), s_rs))
    return s_dc, s_rs, ad.sigmoid(fused)


def dismantling_loss(g: Graph, s_dis, gamma: float = 1.0) -> Tensor:
    """Sum over nodes of prod_{j in N(i)} 1/(1+s_j), plus gamma * sum(s).

    The per-node product is the chance the node's egonet stays uninfluenced;
    isolated nodes contribute the empty product 1. Accepts a Tensor or a
    plain array of scores.
    """
    if not isinstance(s_dis, Tensor):
        s_dis = ad.constant(np.asarray(s_dis, dtype=np.float64).reshape(-1, 1))
    n = g.num_nodes
    damping = ad.reciprocal_1p(s_dis)
    neighbor_damping = ad.row_gather(damping, g.neighbors)
    uninfluenced = ad.segment_prod(neighbor_damping, g.edge_src, n)
    return ad.add(ad.reduce_sum(uninfluenced),
                  ad.mul(ad.constant([[gamma]]), ad.reduce_sum(s_dis)))


def forward(g: Graph, role_graph: RoleGraph, store: ParamStore,
            config: DcrsConfig) -> tuple[Tensor, Tensor, Tensor, Tensor, Tensor]:
    h = gdn_forward(g, store, config.gdn_layers)
    z = gcn_forward(role_graph, store, config.gcn_layers)
    s_dc, s_rs, s_dis = score_and_fuse(h, z, store, config.lam)
    return s_dc, s_rs, s_dis, h, z


def train(g: Graph, role_graph: RoleGraph, config: DcrsConfig) -> DcrsOutput:
    """Full-batch training loop.

    Deterministic for a fixed config.seed and BLAS thread count: the thread
    count changes how BLAS splits its sums, and so the last digits.
    """
    if role_graph.graph.num_nodes != g.num_nodes:
        raise ValueError("role graph must cover the same node set")
    store = init_params(config)
    history: list[float] = []
    for epoch in range(config.epochs):
        _, _, s_dis, _, _ = forward(g, role_graph, store, config)
        loss = dismantling_loss(g, s_dis, config.gamma)
        value = loss.item()
        if not np.isfinite(value):
            raise FloatingPointError(f"non-finite loss at epoch {epoch}")
        history.append(value)
        loss.backward()
        adam_step(store, lr=config.lr)
    s_dc, s_rs, s_dis, h, z = forward(g, role_graph, store, config)
    return DcrsOutput(
        s_dc=s_dc.values[:, 0].copy(),
        s_rs=s_rs.values[:, 0].copy(),
        s_dis=s_dis.values[:, 0].copy(),
        H=h.values.copy(),
        Z=z.values.copy(),
        loss_history=history,
    )


def run_dcrs(g: Graph, config: DcrsConfig,
             role_graph: RoleGraph | None = None) -> DcrsOutput:
    """Role discovery plus training in one call.

    Pass a prebuilt role_graph to reuse it across ablation variants.
    """
    if role_graph is None:
        _, role_graph = discover_role_graph(
            g, k=config.role_k, levels=config.role_levels, seed=config.seed)
    return train(g, role_graph, config)
