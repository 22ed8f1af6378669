"""Run traces: per-round records, the node table, and CSV serialization.

A Trace is the complete evidence of one run: enough to recompute regret by
replaying the environment, to audit every structural invariant offline, and
to compare against an independent reimplementation round for round.  CSV
output uses repr() for floats (shortest round-trip form), so identical runs
serialize to identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np


@dataclass
class NodeMeta:
    """Static facts about a node, recorded at activation."""

    node_id: int
    parent_id: Optional[int]
    height: int
    scale: float  # L(u): cube diameter, DAG ball radius, 0 for a fixed arm
    tau0: int  # activation round
    arm: tuple  # representative arm actually played for this node
    log_c_prod: float
    tau1: Optional[int] = None  # deactivation (zoom-in) round
    n_children: int = 0  # child count at split time


@dataclass
class RoundRecord:
    """One round: selection, reward, parameters, zoom events.

    pi / g_hat / active_ids snapshots are kept only when the run records
    state (needed by the invariant monitor and the oracle-equivalence test);
    they are not part of the CSV schema.
    """

    t: int
    node_id: int
    arm: tuple
    reward: float
    beta: float
    beta_tilde: float
    gamma: float
    eta: float
    n_active: int
    zoomed: tuple = ()
    active_ids: Optional[tuple] = None
    pi: Optional[np.ndarray] = None
    g_hat: Optional[np.ndarray] = None


TRACE_COLUMNS = [
    "t",
    "node_id",
    "arm",
    "reward",
    "beta",
    "beta_tilde",
    "gamma",
    "eta",
    "n_active",
    "zoomed",
]


@dataclass
class Trace:
    """Full record of a single run."""

    algorithm: str
    T: int
    d: int
    n_dbl: int
    seed: int
    space_kind: str = "cube"
    rounds: list = field(default_factory=list)
    node_table: dict = field(default_factory=dict)  # node_id -> NodeMeta

    def add_node(self, meta: NodeMeta) -> None:
        self.node_table[meta.node_id] = meta

    def append(self, rec: RoundRecord) -> None:
        self.rounds.append(rec)

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)

    def rewards(self) -> np.ndarray:
        return np.array([r.reward for r in self.rounds], dtype=np.float64)

    def n_active_curve(self) -> np.ndarray:
        return np.array([r.n_active for r in self.rounds], dtype=np.int64)

    def zoom_events(self):
        """(round, node_id) pairs in order of occurrence."""
        out = []
        for rec in self.rounds:
            for nid in rec.zoomed:
                out.append((rec.t, nid))
        return out

    # -- CSV ---------------------------------------------------------------

    def write_csv(self, path) -> None:
        # each arm's field is made once: keyed by the tuple's id, which the
        # rounds keep alive, since 0.0 == -0.0 would merge their tuples
        arms: dict = {}

        def lines():
            for r in self.rounds:
                arm = arms.get(id(r.arm))
                if arm is None:
                    arm = arms[id(r.arm)] = ";".join([
                        repr(float(x)) if isinstance(x, (int, float))
                        else str(x) for x in r.arm])
                yield (f"{r.t},{r.node_id},{arm},{float(r.reward)!r},"
                       f"{float(r.beta)!r},{float(r.beta_tilde)!r},"
                       f"{float(r.gamma)!r},{float(r.eta)!r},{r.n_active},"
                       f"{'|'.join(map(str, r.zoomed))}")
        _write_csv(path, TRACE_COLUMNS, lines())


def write_curves_csv(path, cum_reward, cum_best, regret, n_active) -> None:
    """Per-round curves: t (from 1), cum_reward, cum_best, regret, n_active."""
    # a memoryview yields Python floats and ints, with no list of them made
    cols = [memoryview(np.ascontiguousarray(c, dtype=np.float64))
            for c in (cum_reward, cum_best, regret)]
    _write_csv(path, ["t", "cum_reward", "cum_best", "regret", "n_active"], (
        f"{t},{a!r},{b!r},{c!r},{int(k)}" for t, a, b, c, k in zip(
            range(1, len(cum_reward) + 1), *cols,
            memoryview(np.ascontiguousarray(n_active)))))


def _write_csv(path, header, lines) -> None:
    """The header and lines as csv.writer's default dialect writes them: no
    field holds a comma, quote or line break, so none is quoted, and each
    row ends in CRLF.  Lines are written as they are made."""
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\r\n")
        f.writelines(f"{line}\r\n" for line in lines)
