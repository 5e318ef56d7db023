"""Synthetic flow data from a path-choice model on a small benchmark network.

Each sample draws an input uniformly from the unit hypercube, scores every
source-sink path by a linear utility plus Gumbel noise, and splits the unit
source mass across paths by a softmax at temperature tau.  Arc flows are
the path-weight sums, so conservation holds by construction.  Sampling is
keyed per (seed, sample index), which makes datasets reproducible bit for
bit and independent of any sharding of the generation loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flow_opt import enumerate_st_paths
from .spaces import FlowNetwork, OutputSpace, flow_space

_THETA_STREAM = 0
_SAMPLE_STREAM = 1
_CONDITIONAL_STREAM = 2


def default_flow_network() -> FlowNetwork:
    """The bundled 6-node benchmark network: unit source 0, unit sink 5,
    ten arcs, nine source-sink paths."""
    arcs = [
        (0, 1), (0, 2),
        (1, 2), (1, 3),
        (2, 4), (1, 4), (2, 3),
        (3, 4),
        (3, 5), (4, 5),
    ]
    b = [1.0, 0.0, 0.0, 0.0, 0.0, -1.0]
    return FlowNetwork(n_nodes=6, arcs=arcs, b=b)


@dataclass(frozen=True)
class Dataset:
    """Inputs X (m, p) and labels Y (m, d) of the output space ``space``."""

    X: np.ndarray
    Y: np.ndarray
    space: OutputSpace


@dataclass(frozen=True)
class FlowGeneratorSpec:
    """Path-choice generator: utility coefficients theta (paths x features),
    noise temperature tau, and the seed that fixes both theta and sampling."""

    network: FlowNetwork
    p: int
    theta: np.ndarray
    tau: float
    seed: int

    @classmethod
    def create(cls, seed: int, network: FlowNetwork | None = None, p: int = 20,
               tau: float = 1.0) -> "FlowGeneratorSpec":
        network = network or default_flow_network()
        if p < 1:
            raise ValueError("p must be at least 1")
        if not tau >= 0:
            raise ValueError("tau must be nonnegative")
        if not network.is_acyclic:
            raise ValueError("flow generator requires an acyclic network")
        network.unit_endpoints()
        K = enumerate_st_paths(network).shape[0]
        rng = np.random.default_rng([seed, _THETA_STREAM])
        theta = rng.standard_normal((K, p))
        return cls(network=network, p=p, theta=theta, tau=tau, seed=seed)


def _path_weights(spec: FlowGeneratorSpec, x, gumbel) -> np.ndarray:
    """Softmax path shares; tau == 0 degenerates to the argmax path."""
    util = spec.theta @ x
    if spec.tau == 0.0:
        w = np.zeros(util.shape[0])
        w[int(np.argmax(util))] = 1.0
        return w
    z = util / spec.tau + gumbel
    z -= np.max(z)
    e = np.exp(z)
    return e / np.sum(e)


def simulate_flow_data(spec: FlowGeneratorSpec, m: int, stream: int = 0) -> Dataset:
    """Draw ``m`` (input, arc-flow) samples from the generator.

    ``stream`` selects an independent replication with the same conditional
    law (the utility matrix stays fixed by the generator seed).  Sampling is
    keyed per (seed, stream, index), so prefixes and sharding are stable.
    """
    if m < 1:
        raise ValueError("need m >= 1 samples")
    P = enumerate_st_paths(spec.network)
    K = P.shape[0]
    X = np.empty((m, spec.p))
    Y = np.empty((m, spec.network.n_arcs))
    for i in range(m):
        rng = np.random.default_rng([spec.seed, _SAMPLE_STREAM, stream, i])
        x = rng.uniform(size=spec.p)
        g = rng.gumbel(size=K)
        w = _path_weights(spec, x, g)
        X[i] = x
        Y[i] = w @ P
    return Dataset(X=X, Y=Y, space=flow_space(spec.network))


def sample_conditional(spec: FlowGeneratorSpec, x, n: int, stream: int = 0) -> np.ndarray:
    """Draw ``n`` arc-flow labels from the conditional law at a fixed input."""
    x = np.asarray(x, dtype=float).ravel()
    if x.shape[0] != spec.p:
        raise ValueError(f"input has {x.shape[0]} features, generator expects {spec.p}")
    P = enumerate_st_paths(spec.network)
    K = P.shape[0]
    rng = np.random.default_rng([spec.seed, _CONDITIONAL_STREAM, stream])
    G = rng.gumbel(size=(n, K))
    out = np.empty((n, spec.network.n_arcs))
    for i in range(n):
        out[i] = _path_weights(spec, x, G[i]) @ P
    return out
