"""Ready-made models: a two-step linear dynamical system, a nonlinear
dynamic Bayesian network with Bernoulli emissions, and a small generative
multilayer network with a noiseless top layer."""

from __future__ import annotations

import math

from .errors import ShapeError, ZeroScale
from .graph import build_model, random_params


def build_lds_model(sigma_x, sigma_z):
    """Two latent, two observed scalar nodes with identity links.

    z1 ~ N(0, 1), x1 ~ N(z1, sigma_x^2), z2 ~ N(z1, sigma_z^2),
    x2 ~ N(z2, sigma_x^2).  No free parameters.
    """
    if not (0.0 < sigma_x < math.inf and 0.0 < sigma_z < math.inf):
        raise ZeroScale("both scales must be positive and finite")
    return build_model({"nodes": [
        {"id": "z1", "dim": 1, "family": "gaussian", "scale": 1.0},
        {"id": "x1", "kind": "observed", "dim": 1, "family": "gaussian",
         "parents": ["z1"], "link": {"weights": {"z1": "identity"}},
         "scale": float(sigma_x)},
        {"id": "z2", "dim": 1, "family": "gaussian", "parents": ["z1"],
         "link": {"weights": {"z1": "identity"}}, "scale": float(sigma_z)},
        {"id": "x2", "kind": "observed", "dim": 1, "family": "gaussian",
         "parents": ["z2"], "link": {"weights": {"z2": "identity"}},
         "scale": float(sigma_x)},
    ]})


def build_dbn_model(T, latent_dim, obs_dim, sigma_z, rng,
                    emission_on_previous=False):
    """Nonlinear state-space chain with shared weights, plus initial params.

    z_1 ~ N(0, I); z_t | z_{t-1} ~ N(tanh(W_z z_{t-1} + b_z), sigma_z^2 I);
    x_t | z_t ~ Bernoulli with logits W_x z_t.  W_z, b_z, W_x are shared
    across timesteps.  Returns the model and a standard-normal draw of the
    flat parameter vector.

    ``emission_on_previous`` conditions x_t on z_{t-1} instead (x_1 stays
    on z_1, which has no predecessor).
    """
    T = int(T)
    if T < 2:
        raise ShapeError("need at least two timesteps")
    if not 0.0 < sigma_z < math.inf:
        raise ZeroScale("sigma_z must be positive and finite")
    nodes = [{"id": "z1", "dim": latent_dim, "family": "gaussian",
              "scale": 1.0}]
    for t in range(2, T + 1):
        nodes.append({
            "id": f"z{t}", "dim": latent_dim, "family": "gaussian",
            "parents": [f"z{t - 1}"],
            "link": {"activation": "tanh",
                     "weights": {f"z{t - 1}": {"param": "W_z"}},
                     "bias": {"param": "b_z"}},
            "scale": float(sigma_z)})
    for t in range(1, T + 1):
        source = f"z{max(t - 1, 1)}" if emission_on_previous else f"z{t}"
        nodes.append({
            "id": f"x{t}", "kind": "observed", "dim": obs_dim,
            "family": "bernoulli", "parents": [source],
            "link": {"weights": {source: {"param": "W_x"}}}})
    model = build_model({"nodes": nodes})
    theta0 = random_params(model, rng)
    return model, theta0


def build_generative_mlp(dims=(3, 3, 100), obs_dim=784,
                         sigmas=(1.0, 1.0, 0.0)):
    """Stochastic-or-deterministic latent layers over a Bernoulli leaf.

    One layer per entry of ``dims``: z1 ~ N(0, sigmas[0]^2 I); each later
    z_k follows a tanh-affine Gaussian of z_{k-1}; the leaf x is Bernoulli
    with logits W_x z_K + b_x on the last layer z_K.  A zero entry in
    ``sigmas`` makes that layer conditionally deterministic (the default
    gives the wide top layer zero noise, so only the two narrow layers are
    sampled).
    """
    if not dims or len(dims) != len(sigmas):
        raise ShapeError("dims and sigmas must be non-empty and of one length")
    if not 0.0 < sigmas[0] < math.inf:
        raise ZeroScale("the root layer needs a positive finite scale")
    nodes = [{"id": "z1", "dim": int(dims[0]), "family": "gaussian",
              "scale": float(sigmas[0])}]
    for i in range(1, len(dims)):
        nodes.append({
            "id": f"z{i + 1}", "dim": int(dims[i]), "family": "gaussian",
            "parents": [f"z{i}"],
            "link": {"activation": "tanh",
                     "weights": {f"z{i}": "param"}, "bias": "param"},
            "scale": float(sigmas[i])})
    top = f"z{len(dims)}"
    nodes.append({
        "id": "x", "kind": "observed", "dim": int(obs_dim),
        "family": "bernoulli", "parents": [top],
        "link": {"weights": {top: "param"}, "bias": "param"}})
    return build_model({"nodes": nodes})
