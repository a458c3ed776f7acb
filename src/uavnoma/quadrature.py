"""Tensor Gauss-Legendre cells that estimate their own error.

Every closed-form coverage in this package is an integral of the conditional
kernel over one axis (user-centric) or two (UAV-centric). ``integrate_many``
evaluates many such integrals, each on its own boxes, the cells, with a
tensor Gauss-Legendre rule of n nodes per axis and again with 2n nodes per
axis. The difference |Q_n - Q_2n| of a cell estimates the error of Q_n, and
so bounds that of the Q_2n value it returns (the doubled rule of QUADPACK:
Piessens et al., 1983).

Each integral may spend ``TOLERANCE``, and each of its cells a share of that
in proportion to the cell's volume within the integral's own volume. A cell
over its share is bisected along every axis and its children are evaluated
in the next pass; the others are final, and their estimates sum to at most
the tolerance. Cells still over their share after ``_MAX_DEPTH`` bisections
are kept as they are; if the estimates of an integral's cells then sum to
more than the tolerance, or its cells would take more than
``_MAX_PASS_NODES`` nodes in one pass, that integral fails with
``NumericalError``.

One call of the integrand, a pass, evaluates the cells of many integrals:
the cell sets of the integrals still refining, whole and in order, up to
``_PASS_NODES`` nodes; a cell set larger than that takes a pass of its own.
So a sweep's closed forms cost a few large numpy calls instead of one small
call per value, whose fixed cost dominates at a few hundred nodes. The budget
bounds the kernel's temporaries to about a megabyte; a whole UAV-centric
sweep in one pass would take ten times that. Each integral keeps its
own cells, tolerance share, bisection and sums, so its value and estimate
equal, bit for bit, the ones it gets alone.

The estimate presumes an integrand smooth within each cell: a jump halfway
between the same two nodes of both rules goes unseen. The closed forms put
their one jump, the decode coefficient's switch at r = r_k, on a cell edge.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import NumericalError

# absolute tolerance of every closed-form value; figure-level resolution
# is ~1e-2 and the Monte Carlo cross-checks resolve ~1e-3
TOLERANCE = 1e-7
# bisections of one cell; 2^-10 of a panel along each axis
_MAX_DEPTH = 10
# bounds the memory of one integral's pass (about 100 MB of kernel temporaries)
_MAX_PASS_NODES = 500_000
# nodes (Q_n plus Q_2n) that integrals share in one pass. One UAV-centric
# kernel call (``coverage_cond_pair``) raised peak RSS by 0.7 MB at 3,840
# nodes, 1.0 MB at 7,680, 2.6 MB at 16,384 and 10.6 MB at 61,440, while
# perfbench bounds peak RSS growth to 10% of the CLI's ~56 MB: a whole
# UAV-centric sweep in one pass would break that bound. 8,192 holds an
# 8-point user-centric sweep (16 values of 384 nodes) or a UAV-centric
# point's near and far values (2 x 3,840).
_PASS_NODES = 8_192


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


def _rules(key: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The base rule and its check rule, which doubles every count."""
    return key, tuple(2 * n for n in key)


class _Integral:
    """One integral: its cells still to evaluate, grouped by base rule, the
    sums of its final cells, and the error that ended it, if any."""

    def __init__(self, lo, hi, counts):
        lo = np.atleast_2d(np.asarray(lo, dtype=float))
        hi = np.atleast_2d(np.asarray(hi, dtype=float))
        counts = [tuple(int(n) for n in row) for row in np.atleast_2d(counts)]
        self.volume = float((hi - lo).prod(axis=1).sum())
        self.groups: dict[tuple[int, ...], _Pass] = {}
        for key in dict.fromkeys(counts):
            rows = [i for i, row in enumerate(counts) if row == key]
            self.groups[key] = _Pass(lo[rows], hi[rows], 0)
        self.value = self.estimate = 0.0
        self.error: NumericalError | None = None

    def nodes(self) -> int:
        """Nodes of the next pass over this integral's cells."""
        return sum(
            len(cells.lo) * math.prod(rule)
            for key, cells in self.groups.items()
            for rule in _rules(key)
        )

    def fail(self, error: NumericalError) -> None:
        self.error = error
        self.groups = {}

    def blocks(self) -> list[tuple[list[np.ndarray], np.ndarray]]:
        """Node coordinates per axis and weights, (cells, nodes) each, of
        every group under its base and its check rule, in that order."""
        out = []
        for key, cells in self.groups.items():
            width = cells.hi - cells.lo
            volume = width.prod(axis=1)[:, None]
            for rule in _rules(key):
                unit_nodes, unit_weights = _tensor_rule(rule)
                axes = [
                    cells.lo[:, a, None] + width[:, a, None] * unit_nodes[a]
                    for a in range(len(key))
                ]
                out.append((axes, volume * unit_weights))
        return out

    def update(self, weights: list[np.ndarray], values: list[np.ndarray], tol: float):
        """Sum the cells that meet their share and bisect the others, given
        the integrand's values on ``blocks()``."""
        refined: dict[tuple[int, ...], _Pass] = {}
        for j, (key, cells) in enumerate(self.groups.items()):
            coarse, fine = (
                (w * f.reshape(w.shape)).sum(axis=1)
                for w, f in zip(weights[2 * j : 2 * j + 2], values[2 * j : 2 * j + 2])
            )
            error = np.abs(coarse - fine)
            share = tol * (cells.hi - cells.lo).prod(axis=1) / self.volume
            final = (error <= share) | (cells.depth == _MAX_DEPTH)
            self.value += float(fine[final].sum())
            self.estimate += float(error[final].sum())
            if not final.all():
                refined[key] = _bisect(
                    cells.lo[~final], cells.hi[~final], cells.depth + 1
                )
        self.groups = refined
        if not refined and not self.estimate <= tol:
            self.error = NumericalError(
                f"quadrature misses {tol:.0e} after {_MAX_DEPTH} bisections",
                self.estimate,
            )


def integrate_many(
    integrand: Callable[..., np.ndarray],
    boxes: Sequence[tuple],
) -> list[Quadrature]:
    """Integrals of ``integrand`` over unions of boxes, each to ``TOLERANCE``.

    ``boxes`` holds one ``(lo, hi, counts)`` per integral: its box i spans
    ``lo[i]`` to ``hi[i]`` (one entry per axis, the same axes for every
    integral) and carries the base rule ``counts[i]`` (nodes per axis; the
    check rule doubles each). ``integrand(owner, *axes)`` receives, for every
    node, the index in ``boxes`` of the integral it belongs to and one array
    of coordinates per axis, and returns the values at those nodes,
    elementwise. Each integral's value and estimate are those it gets alone;
    if any integral fails, the ``NumericalError`` of the first one in order is
    raised once every integral has finished.
    """
    tol = TOLERANCE
    integrals = [_Integral(*box) for box in boxes]
    pending = list(enumerate(integrals))
    while pending:
        for batch in _passes(pending):
            _evaluate(integrand, batch, tol)
        pending = [(i, integral) for i, integral in pending if integral.groups]
    for integral in integrals:
        if integral.error is not None:
            raise integral.error
    return [Quadrature(integral.value, integral.estimate) for integral in integrals]


class NodeFields:
    """Fields of each integral of an ``integrate_many`` call, read per node.

    ``rows`` holds one NamedTuple per integral, all of one type. ``at(owner)``
    gives, for the nodes of one pass, the fields of the integral each node
    belongs to: that integral's own row, of scalars, when every node belongs
    to it (the nodes of a pass come in integral order), otherwise the same
    NamedTuple with one array per field.
    """

    def __init__(self, rows: Sequence[tuple]):
        self.rows = rows

    @functools.cached_property
    def columns(self) -> list[np.ndarray]:
        return [np.array(column) for column in zip(*self.rows)]

    def at(self, owner: np.ndarray):
        if owner[0] == owner[-1]:
            return self.rows[owner[0]]
        return type(self.rows[0])(*(column[owner] for column in self.columns))


def integrate(
    integrand: Callable[..., np.ndarray],
    lo,
    hi,
    counts,
) -> Quadrature:
    """Integral of ``integrand(*axes)`` over the union of boxes ``lo[i]`` to
    ``hi[i]`` with base rules ``counts[i]``: one integral of
    ``integrate_many``."""
    return integrate_many(lambda owner, *axes: integrand(*axes), [(lo, hi, counts)])[0]


def _passes(pending: list[tuple[int, _Integral]]) -> list[list]:
    """The passes of one round: consecutive whole cell sets, up to
    ``_PASS_NODES`` nodes each; a set over ``_MAX_PASS_NODES`` fails."""
    passes, batch, nodes = [], [], 0
    for index, integral in pending:
        size = integral.nodes()
        if size > _MAX_PASS_NODES:
            integral.fail(
                NumericalError(
                    f"quadrature refinement needs more than {_MAX_PASS_NODES} "
                    "nodes in one pass",
                    integral.estimate,
                )
            )
            continue
        if batch and nodes + size > _PASS_NODES:
            passes.append(batch)
            batch, nodes = [], 0
        batch.append((index, integral))
        nodes += size
    return passes + [batch] if batch else passes


def _evaluate(integrand, batch: list[tuple[int, _Integral]], tol: float) -> None:
    """One call of ``integrand`` over the cells of every integral in ``batch``."""
    blocks = [integral.blocks() for _, integral in batch]
    weights = [[w for _, w in own] for own in blocks]
    owner = np.repeat(
        [index for index, _ in batch], [sum(w.size for w in own) for own in weights]
    )
    dim = len(blocks[0][0][0])
    flat = [
        np.concatenate([axes[a].ravel() for own in blocks for axes, _ in own])
        for a in range(dim)
    ]
    values = np.asarray(integrand(owner, *flat))
    start = 0
    for (_, integral), own in zip(batch, weights):
        pieces = []
        for w in own:
            pieces.append(values[start : start + w.size])
            start += w.size
        integral.update(own, pieces, tol)


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
