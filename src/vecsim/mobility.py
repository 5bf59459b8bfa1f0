"""Road-graph Markov jump mobility.

Vehicles live on a discrete road graph (cells with 2-D centers, directed
adjacency). Per slot, a vehicle jumps to an adjacent cell according to the
transition row of its current cell, selected by its velocity class. Discrete
cells keep the downstream Bayesian filter exact.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from vecsim.rng import RngStream

ROW_SUM_TOL = 1e-12

DrawRow = tuple[list[int], list[float]]     # sorted targets and their cumulative probabilities


@dataclass(frozen=True, eq=False, repr=False)
class RoadGraph:
    """Road cells with center coordinates (meters) and directed adjacency."""

    centers: dict[int, tuple[float, float]]
    adjacency: dict[int, tuple[int, ...]]

    def problems(self) -> list[str]:
        """Every broken invariant, as "centers[cell]: problem" or "adjacency[cell]: problem" strings."""
        out = [f"centers[{cell}]: must be finite, got {xy!r}" for cell, xy in self.centers.items()
               if not all(map(math.isfinite, xy))]
        for cell, neighbors in self.adjacency.items():
            if cell not in self.centers:
                out.append(f"adjacency[{cell}]: unknown cell {cell}")
            if not neighbors:
                out.append(f"adjacency[{cell}]: no outgoing edge (self-loop required at minimum)")
            for nb in neighbors:
                if nb not in self.centers:
                    out.append(f"adjacency[{cell}]: edge to unknown cell {nb}")
        out += [f"adjacency[{cell}]: missing" for cell in self.centers if cell not in self.adjacency]
        return out

    @property
    def cells(self) -> list[int]:
        return sorted(self.centers)


@dataclass(frozen=True, eq=False, repr=False)
class MarkovJumpModel:
    """Per-(velocity class, cell) transition rows over adjacent cells.

    rows[velocity_class][cell] is a mapping target-cell -> probability.
    Rows must sum to 1 and put zero mass on non-adjacent cells; the
    scenario check reports every row that does not, so draws never see one.
    """

    rows: dict[str, dict[int, dict[int, float]]]

    def problems(self, graph: RoadGraph) -> list[str]:
        """Every broken invariant of the rows over a valid `graph`, as
        "rows[class][cell]: problem" strings."""
        out = []
        for vclass, per_cell in self.rows.items():
            for cell in graph.cells:
                if cell not in per_cell:
                    out.append(f"rows[{vclass}][{cell}]: no transition row")
                    continue
                row = per_cell[cell]
                # floats add left to right here: Python 3.12's sum() compensates and moves bits
                total = functools.reduce(operator.add, row.values(), 0)
                if not abs(total - 1.0) <= ROW_SUM_TOL:     # NaN too
                    out.append(f"rows[{vclass}][{cell}]: row sums to {total!r}, expected 1")
                allowed = graph.adjacency[cell]
                for target, p in row.items():
                    if p < 0:
                        out.append(f"rows[{vclass}][{cell}]: negative probability for target {target}")
                    elif p > 0 and target not in allowed:
                        out.append(f"rows[{vclass}][{cell}]: positive mass on non-adjacent cell {target}")
        return out

    def transition_matrix(self, vclass: str, cells: list[int]) -> tuple[list[DrawRow], SparseTransition]:
        """Each cell's draw row, for `draw_from_row`, and the row-stochastic
        transition over `cells`, from one walk of each row.

        (b @ op)[j] = sum_i b[i] * P(cells[j] | cells[i]); see SparseTransition.
        """
        index = {c: i for i, c in enumerate(cells)}
        fill = [0] * len(cells)     # edges into each target so far
        edges = []                  # (k, target, source, probability): the k-th edge into the target
        draws = []
        for i, cell in enumerate(cells):
            row = self.rows[vclass][cell]
            targets = sorted(row)
            cum, total = [], 0.0
            # floats add left to right here: Python 3.12's sum() compensates and moves bits
            norm = functools.reduce(operator.add, row.values(), 0)
            for target in targets:
                p = row[target]
                total += p / norm
                cum.append(total)
                if p:
                    j = index[target]
                    edges.append((fill[j], j, i, p))
                    fill[j] += 1
            cum[-1] = 1.0
            draws.append((targets, cum))
        ks, js, sources, probs = zip(*edges)
        src, w = np.zeros((max(fill), len(cells)), dtype=np.intp), np.zeros((max(fill), len(cells)))
        src[ks, js], w[ks, js] = sources, probs
        return draws, SparseTransition(src, w)


class SparseTransition:
    """Row-stochastic transition stored per target cell as its incoming edges.

    src[k, j] and w[k, j] are the k-th source index and probability into
    target j, in ascending source order, padded with zero weight up to the
    largest in-degree. `b @ op` costs O(cells x in-degree) instead of the
    O(cells^2) of a dense matrix. `b` may also stack one belief per row;
    every row is computed as it would be alone.
    """

    __array_ufunc__ = None      # make `ndarray @ op` defer to __rmatmul__

    def __init__(self, src: np.ndarray, w: np.ndarray):
        self.src = src
        self.w = w
        self._shape: tuple | None = None    # the shape of the last b, which _idx and _w fit

    def __rmatmul__(self, b: np.ndarray) -> np.ndarray:
        if b.shape != self._shape:
            # src[k] as flat indices into each stacked row of b, and w[k] to broadcast over them
            offsets = self.src.shape[1] * np.arange(b.size // self.src.shape[1])
            self._idx = (self.src[:, None, :] + offsets[:, None]).reshape(len(self.src), *b.shape)
            self._w = self.w.reshape(len(self.w), *[1] * (b.ndim - 1), -1)
            self._shape = b.shape
        terms = b.take(self._idx)           # terms[k] = b[..., src[k]], then times w[k]
        terms *= self._w
        return functools.reduce(operator.iadd, terms)      # a running sum over k, into terms[0]


def draw_from_row(targets: list[int], cum: list[float], rng: RngStream) -> int:
    u = rng.random()
    idx = bisect.bisect_right(cum, u)
    return targets[min(idx, len(targets) - 1)]


def line_graph(n_cells: int, spacing_m: float = 100.0, forward_prob: float = 0.8) -> tuple[RoadGraph, MarkovJumpModel]:
    """Convenience builder: a one-way road of n cells with stay/advance dynamics.

    Used by bundled scenarios and tests; the last cell wraps to the first so
    every cell keeps an outgoing edge.
    """
    centers = {i: (i * spacing_m, 0.0) for i in range(n_cells)}
    adjacency = {i: (i, (i + 1) % n_cells) for i in range(n_cells)}
    rows: dict[int, dict[int, float]] = {}
    for i in range(n_cells):
        nxt = (i + 1) % n_cells
        if nxt == i:
            rows[i] = {i: 1.0}
        else:
            rows[i] = {i: 1.0 - forward_prob, nxt: forward_prob}
    return RoadGraph(centers=centers, adjacency=adjacency), MarkovJumpModel(rows={"default": rows})
