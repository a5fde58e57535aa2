"""The two-Gaussian toy generator and the adversarial bad-split experiment.

Data comes from an equal mixture of two independent bivariate Gaussians:

    0.5 * N_X(-0.5, 1) x N_Y(-2, 0.2)  +  0.5 * N_X(0.5, 1) x N_Y(2, 0.2)

The adversarial experiment injects a deliberately bad first sum-node split
along the vertical line X = 0 and lets each learner continue from there:
the hard learner then fits its leaves on the truncated half-planes, while
the soft learner spreads every point over both children and can still
recover leaf means near +-0.5.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import clustering, learner
from .circuit import Circuit, LeafNode, ProductNode, SumNode
from .estimators import Gaussian
from .schema import Schema

TRUE_WEIGHTS = (0.5, 0.5)
TRUE_X = ((-0.5, 1.0), (0.5, 1.0))
TRUE_Y = ((-2.0, 0.2), (2.0, 0.2))

# sharpness of the injected soft membership; kept gentler than the learner
# default so border points genuinely reach both children
ADVERSARIAL_BETA = 1.0


def true_circuit() -> Circuit:
    """The generating circuit: a balanced sum over two Gaussian products."""
    nodes = [
        LeafNode(0, Gaussian(*TRUE_X[0])),
        LeafNode(1, Gaussian(*TRUE_Y[0])),
        LeafNode(0, Gaussian(*TRUE_X[1])),
        LeafNode(1, Gaussian(*TRUE_Y[1])),
        ProductNode((0, 1)),
        ProductNode((2, 3)),
        SumNode((4, 5), TRUE_WEIGHTS),
    ]
    return Circuit(nodes, 6, Schema.continuous(2))


def generate(n_per_component: int, rng) -> np.ndarray:
    """Sample ``n_per_component`` points from each mixture component."""
    parts = []
    for (mx, sx), (my, sy) in zip(TRUE_X, TRUE_Y):
        x = mx + sx * rng.standard_normal(n_per_component)
        y = my + sy * rng.standard_normal(n_per_component)
        parts.append(np.column_stack([x, y]))
    return np.vstack(parts)


def adversarial_membership(matrix, schema, soft: bool):
    """Membership for the bad X=0 split.

    Hard: one-hot by the sign of X.  Soft: the softmax distance weighting
    against the centroids of the two half-planes, so points keep partial
    membership on both sides of the line.
    """
    matrix = np.asarray(matrix, dtype=float)
    left = matrix[:, 0] < 0
    if not soft:
        m = np.zeros((matrix.shape[0], 2))
        m[left, 0] = 1.0
        m[~left, 1] = 1.0
        return m
    weights = np.ones(matrix.shape[0])
    encoded = clustering.encode_rows(matrix, weights, (0, 1), schema)
    centroids = np.stack([encoded[left].mean(axis=0), encoded[~left].mean(axis=0)])
    resp = clustering.softmax_memberships(encoded.T, centroids, ADVERSARIAL_BETA)
    return np.ascontiguousarray(resp.T)


@dataclass
class ToyResult:
    method: str
    matrix: np.ndarray  # the generated points the circuit was learned on
    circuit: Circuit
    x_leaves: list  # (mu, sigma) per Gaussian leaf over X
    y_leaves: list  # (mu, sigma) per Gaussian leaf over Y


def gaussian_leaves(circuit: Circuit, var: int):
    return [
        (node.dist.mu, node.dist.sigma)
        for node in circuit.nodes
        if isinstance(node, LeafNode) and node.var == var and isinstance(node.dist, Gaussian)
    ]


def run_toy(
    n_per_component: int = 1000,
    adversarial: bool = True,
    method: str = "softlearn",
    seed: int = 0,
    clusterer: str = "em",
) -> ToyResult:
    """Generate toy data, optionally inject the bad first split, and learn
    with ``method``, a key of ``learner.METHODS``."""
    if method not in learner.METHODS:
        raise ValueError(f"unknown method {method!r}")
    rng = np.random.default_rng(seed)
    schema = Schema.continuous(2)
    matrix = generate(n_per_component, rng)
    hp = learner.Hyperparams(p_threshold=0.001, clusterer=clusterer, seed=seed)
    data = learner.WeightedDataset(matrix, None, schema)

    first_split = None
    if adversarial:
        first_split = adversarial_membership(matrix, schema, soft=method == "softlearn")
    circuit, _ = getattr(learner, learner.METHODS[method])(data, hp, first_split=first_split)
    return ToyResult(method, matrix, circuit, gaussian_leaves(circuit, 0), gaussian_leaves(circuit, 1))


def x_mean_deviation(result: ToyResult) -> float:
    """Mean absolute deviation of learned X-leaf means from +-0.5."""
    devs = [abs(abs(mu) - 0.5) for mu, _ in result.x_leaves]
    return float(np.mean(devs))
