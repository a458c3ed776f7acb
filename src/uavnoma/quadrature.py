"""Tensor Gauss-Legendre cells that estimate their own error.

Every closed-form coverage in this package is an integral of the conditional
kernel over one axis (user-centric) or two (UAV-centric). ``integrate``
evaluates such an integral on boxes, the cells, with a tensor Gauss-Legendre
rule of n nodes per axis and again with 2n nodes per axis, all nodes of all
cells in one call of the integrand. The difference |Q_n - Q_2n| of a cell
estimates the error of Q_n, and so bounds that of the Q_2n value it returns
(the doubled rule of QUADPACK: Piessens et al., 1983).

Each cell may spend its share of the tolerance in proportion to its volume.
A cell over its share is bisected along every axis and its children are
evaluated in the next pass, again all in one call; the others are final, and
their estimates sum to at most the tolerance. Cells still over their share
after ``_MAX_DEPTH`` bisections are kept as they are; if the estimates of all
cells then sum to more than the tolerance, or a pass would exceed
``_MAX_PASS_NODES`` nodes, ``integrate`` raises ``NumericalError``.

The estimate presumes an integrand smooth within each cell: a jump halfway
between the same two nodes of both rules goes unseen. The closed forms put
their one jump, the decode coefficient's switch at r = r_k, on a cell edge.
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple

import numpy as np

from .errors import NumericalError

# absolute tolerance of every closed-form value; figure-level resolution
# is ~1e-2 and the Monte Carlo cross-checks resolve ~1e-3
TOLERANCE = 1e-7
# bisections of one cell; 2^-10 of a panel along each axis
_MAX_DEPTH = 10
# bounds the memory of one pass (about 100 MB of kernel temporaries)
_MAX_PASS_NODES = 500_000


class Quadrature(NamedTuple):
    """An integral and the estimate of its absolute error."""

    value: float
    estimate: float


@functools.cache
def _tensor_rule(counts: tuple[int, ...]) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Nodes per axis and weights of the tensor Gauss-Legendre rule on the unit
    box, flattened and read-only; ``leggauss`` recomputes its nodes on every
    call, so each rule is built once."""
    rules = [np.polynomial.legendre.leggauss(n) for n in counts]
    nodes = np.meshgrid(*[0.5 * (1.0 + x) for x, _ in rules], indexing="ij")
    weights = functools.reduce(np.multiply.outer, [0.5 * w for _, w in rules])
    out = tuple(axis.ravel() for axis in nodes), weights.ravel()
    for array in (*out[0], out[1]):
        array.flags.writeable = False
    return out


class _Pass(NamedTuple):
    """Cells that share one base rule: lower corners, upper corners, depth."""

    lo: np.ndarray
    hi: np.ndarray
    depth: int


def integrate(
    integrand: Callable[..., np.ndarray],
    lo,
    hi,
    counts,
) -> Quadrature:
    """Integral of ``integrand`` over the union of boxes, to ``TOLERANCE``.

    Box i spans ``lo[i]`` to ``hi[i]`` (one entry per axis) and carries the
    base rule ``counts[i]`` (nodes per axis; the check rule doubles each).
    ``integrand(*axes)`` receives one array of coordinates per axis and
    returns the values at those points, elementwise.
    """
    lo = np.atleast_2d(np.asarray(lo, dtype=float))
    hi = np.atleast_2d(np.asarray(hi, dtype=float))
    counts = [tuple(int(n) for n in row) for row in np.atleast_2d(counts)]
    tol = TOLERANCE
    volume = float(np.prod(hi - lo, axis=1).sum())
    groups = {}
    for key in dict.fromkeys(counts):
        rows = [i for i, row in enumerate(counts) if row == key]
        groups[key] = _Pass(lo[rows], hi[rows], 0)
    value = estimate = 0.0
    while groups:
        axes, weights = [], []
        for key, cells in groups.items():
            width = cells.hi - cells.lo
            for rule in (key, tuple(2 * n for n in key)):
                unit_nodes, unit_weights = _tensor_rule(rule)
                axes.append(
                    [cells.lo[:, a, None] + width[:, a, None] * unit_nodes[a]
                     for a in range(len(key))]
                )
                weights.append(np.prod(width, axis=1)[:, None] * unit_weights)
        sizes = [w.size for w in weights]
        if sum(sizes) > _MAX_PASS_NODES:
            raise NumericalError(
                f"quadrature refinement needs more than {_MAX_PASS_NODES} nodes "
                "in one pass",
                estimate,
            )
        flat = [np.concatenate([block[a].ravel() for block in axes])
                for a in range(lo.shape[1])]
        values = np.split(np.asarray(integrand(*flat)), np.cumsum(sizes)[:-1])
        refined: dict[tuple[int, ...], _Pass] = {}
        for j, (key, cells) in enumerate(groups.items()):
            coarse, fine = (
                np.sum(w * f.reshape(w.shape), axis=1)
                for w, f in zip(weights[2 * j : 2 * j + 2], values[2 * j : 2 * j + 2])
            )
            error = np.abs(coarse - fine)
            share = tol * np.prod(cells.hi - cells.lo, axis=1) / volume
            final = (error <= share) | (cells.depth == _MAX_DEPTH)
            value += float(fine[final].sum())
            estimate += float(error[final].sum())
            if not np.all(final):
                refined[key] = _bisect(
                    cells.lo[~final], cells.hi[~final], cells.depth + 1
                )
        groups = refined
    if not estimate <= tol:
        raise NumericalError(
            f"quadrature misses {tol:.0e} after {_MAX_DEPTH} bisections", estimate
        )
    return Quadrature(value, estimate)


def _bisect(lo: np.ndarray, hi: np.ndarray, depth: int) -> _Pass:
    """The 2^dim children of each box, halved along every axis."""
    mid = 0.5 * (lo + hi)
    dim = lo.shape[1]
    child_lo, child_hi = [], []
    for corner in range(2**dim):
        upper = np.array([(corner >> a) & 1 for a in range(dim)], dtype=bool)
        child_lo.append(np.where(upper, mid, lo))
        child_hi.append(np.where(upper, hi, mid))
    return _Pass(np.concatenate(child_lo), np.concatenate(child_hi), depth)
