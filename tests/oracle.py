"""Naive reference implementation used as an oracle by the tests.

Where the library keeps one running scalar per node and relies on the
closed-form weight characterization, this implementation stores the full
per-round estimate history of every node (children receive a literal copy
of the parent's history at a split, alongside the 1/|children| weight
division), and recomputes log-weights and confidence sums from scratch
every round by explicit summation.  It shares nothing with the library
except the counter-based selection stream and the cube geometry; parameters
are recomputed locally from the schedule formula.
"""

from __future__ import annotations

import math

import numpy as np

from advzoom.metric import cube_children, cube_root
from advzoom.rng import stream_key, uniform


class Node:
    def __init__(self, cube, c_prod, ghat_hist, conf_hist, tau0):
        self.cube = cube
        self.c_prod = c_prod
        self.ghat_hist = list(ghat_hist)  # ghat_tau(act_tau(u)) for tau=1..t
        self.conf_hist = list(conf_hist)  # beta_tau / pi_tau(act_tau(u))
        self.tau0 = tau0

    @property
    def arm(self):
        return self.cube.center

    @property
    def scale(self):
        return self.cube.scale


def params(t, n_active, T, n_dbl, d, prev_beta):
    """Schedule formula, clamped into (0, 1/2] with a running minimum."""
    if T < 2:
        raw = 0.5
    else:
        raw = math.sqrt(
            2.0 * math.log(n_active * T**3)
            * math.log(max(2.0, n_dbl * n_active))
            / (t * n_active * d * math.log(T) ** 2)
        )
    beta = min(0.5, raw, prev_beta)
    gamma = min(0.5, (2.0 + 4.0 * math.log2(T)) * n_active * beta)
    return beta, beta, gamma, beta  # beta, beta_tilde, gamma, eta


def run_naive(d, T, env, seed):
    """Explicit-table run.

    Returns one dict per round with: arm (the selected node's center),
    reward, zoomed (centers of nodes split this round), log_weights and pi
    (center -> value maps over the round's active set).
    """
    select_key = stream_key(seed, "algo.select")
    nodes = [Node(cube_root(d), 1, [], [], 1)]
    prev_beta = math.inf
    cc = 1.0 + 4.0 * math.log2(T) if T > 1 else 1.0
    log = []
    for t in range(1, T + 1):
        n = len(nodes)
        beta, beta_tilde, gamma, eta = params(t, n, T, 2**d, d, prev_beta)
        prev_beta = beta
        lw = np.array(
            [eta * math.fsum(u.ghat_hist) - math.log(u.c_prod) for u in nodes]
        )
        p = np.exp(lw - lw.max())
        p /= p.sum()
        pi = (1.0 - gamma) * p + gamma / n
        draw = float(uniform(select_key, t))
        chosen = min(int(np.searchsorted(np.cumsum(pi), draw, side="right")),
                     n - 1)
        reward = float(env.reward(t, nodes[chosen].arm))
        for i, u in enumerate(nodes):
            ghat = (reward * (i == chosen) + cc * beta) / pi[i]
            u.ghat_hist.append(ghat)
            u.conf_hist.append(beta / pi[i])
        # log-weights after this round's update, at eta_t (Lemma-1 target)
        lw_post = {
            u.arm: eta * math.fsum(u.ghat_hist) - math.log(u.c_prod)
            for u in nodes
        }
        zoomed = []
        survivors = []
        additions = []
        for i, u in enumerate(nodes):
            inst = beta_tilde + beta / pi[i] <= math.expm1(u.scale)
            tot = 1.0 / beta + math.fsum(u.conf_hist) <= t * u.scale
            if inst and tot:
                zoomed.append(u.arm)
                kids = cube_children(u.cube)
                for kid in kids:
                    additions.append(Node(kid, u.c_prod * len(kids),
                                          u.ghat_hist, u.conf_hist, t + 1))
            else:
                survivors.append(u)
        log.append({
            "arm": nodes[chosen].arm,
            "reward": reward,
            "zoomed": zoomed,
            "log_weights": lw_post,
            "pi": {u.arm: float(pi[i]) for i, u in enumerate(nodes)},
            "params": (beta, beta_tilde, gamma, eta),
        })
        nodes = survivors + additions
    return log
