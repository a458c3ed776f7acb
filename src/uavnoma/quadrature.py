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
in the next round; the others are final, and their estimates sum to at most
the tolerance. Cells still over their share after ``_MAX_DEPTH`` bisections
are kept as they are; if the estimates of an integral's cells then sum to
more than the tolerance, or its cells would take more than
``_MAX_PASS_NODES`` nodes in one pass, that integral fails with
``NumericalError``. Its error estimate sums its final cells and, on the
pass budget, the last estimates of the cells it was still refining.

All the cells of one call form one flat table, integral by integral, each
integral's cells in the order of its boxes and, once bisected, corner by
corner; each cell carries its integral and its base rule. So a round of
refinement takes a fixed number of whole-array steps however many integrals
the call holds, and calls the integrand once per pass: the cell sets of the
integrals still refining, whole and in order, up to ``_PASS_NODES`` nodes; a
larger set takes a pass of its own. A sweep's closed forms thus cost a few
large numpy calls instead of one small call per value, whose fixed cost
dominates at a few hundred nodes; the budget bounds the kernel's temporaries
to about a megabyte, where a whole UAV-centric sweep would take ten times
that. A pass lays out its nodes rule by rule, each cell's base nodes before
its check nodes, so one integral's nodes need not be contiguous.

Each value and estimate is, bit for bit, the one its integral gets alone:
a cell's Q_n and Q_2n are row sums over its own nodes; each round adds an
integral's final cells one by one in table order (``np.bincount``), and that
sum into its value and estimate; its volume adds its boxes the same way.
Company moves an integral's cells within the table, never their order.

``coverage_quadratures`` is the one integration routine of both
strategies' closed forms, each handed to it as a ``ClosedForm``.

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
from .laplace import check_probability
from .scenario import ROLES, sweep_config

# absolute tolerance of every closed-form value; figure-level resolution
# is ~1e-2 and the Monte Carlo cross-checks resolve ~1e-3
TOLERANCE = 1e-7
# the closed forms' radial cutoff in t = sqrt(u): beyond u = 46, e^(-u) < 1e-20
T_CUTOFF = math.sqrt(46.0)
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


@functools.cache
def _cell_rule(key: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, int]:
    """Nodes, (axes, nodes), and weights of base rule ``key`` followed by its
    check rule, which doubles every count; and the number of base nodes."""
    rules = _tensor_rule(key), _tensor_rule(tuple(2 * n for n in key))
    nodes = np.concatenate([np.array(axes) for axes, _ in rules], axis=1)
    return nodes, np.concatenate([w for _, w in rules]), rules[0][1].size


def integrate_many(
    integrand: Callable[..., np.ndarray], boxes: Sequence[tuple]
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
    if not boxes:
        return []
    tol = TOLERANCE
    corners, owner, rule, rules = _table(boxes)
    size = np.multiply.reduce(corners[1] - corners[0], axis=0)
    volume = np.bincount(owner, size, len(boxes))
    rule_nodes = np.array([_cell_rule(key)[1].size for key in rules])
    totals = np.zeros((2, len(boxes)))  # value and estimate of each integral
    failed = []  # integrals whose cells outgrew _MAX_PASS_NODES
    pending = np.zeros(len(boxes))  # estimates of the cells bisected last round
    for depth in range(_MAX_DEPTH + 1):
        nodes = np.bincount(owner, rule_nodes[rule], len(boxes))
        if nodes.max() > _MAX_PASS_NODES:
            over = np.flatnonzero(nodes > _MAX_PASS_NODES)
            # a failing integral reports its final cells and the last
            # estimates of the cells it was still refining
            totals[1, over] += pending[over]
            failed += over.tolist()
            keep = nodes[owner] <= _MAX_PASS_NODES
            corners, owner, rule = corners[..., keep], owner[keep], rule[keep]
            nodes[over] = 0
        width = corners[1] - corners[0]
        size = np.multiply.reduce(width, axis=0)
        sums = np.empty((2, len(size)))  # Q_2n and |Q_n - Q_2n| of each cell
        bounds = owner.searchsorted(_passes(nodes.tolist())).tolist()
        for span in map(slice, bounds, bounds[1:]):
            _evaluate(
                integrand, corners[0, :, span], width[:, span], size[span],
                owner[span], rule[span], rules, sums[:, span],
            )
        final = (sums[1] <= tol * size / volume[owner]) | (depth == _MAX_DEPTH)
        for total, cells in zip(totals, sums[:, final]):
            total += np.bincount(owner[final], cells, len(boxes))
        if final.all():
            break
        pending = np.bincount(owner[~final], sums[1, ~final], len(boxes))
        corners, owner, rule = _bisect(corners[..., ~final], owner[~final], rule[~final])
    if failed or np.count_nonzero(totals[1] <= tol) < len(boxes):
        i = min(failed + (~(totals[1] <= tol)).nonzero()[0].tolist())
        problem = f"refinement needs more than {_MAX_PASS_NODES} nodes in one pass"
        if i not in failed:
            problem = f"misses {tol:.0e} after {_MAX_DEPTH} bisections"
        raise NumericalError(f"quadrature {problem}", totals[1, i].item())
    return [Quadrature(*q) for q in zip(*totals.tolist())]


class NodeFields:
    """Fields of each integral of an ``integrate_many`` call, read per node.

    ``rows`` holds one NamedTuple per integral, all of one type. ``at(owner)``
    gives, for the nodes of one pass, the fields of the integral each node
    belongs to: that integral's own row, of scalars, when every node belongs
    to it, otherwise the same NamedTuple with one array per field that
    differs among the pass's integrals and a scalar for each field they
    share. Elementwise arithmetic gives the same bits either way.
    """

    def __init__(self, rows: Sequence[tuple]):
        self.rows = rows

    @functools.cached_property
    def columns(self) -> list[np.ndarray]:
        return [np.array(column) for column in zip(*self.rows)]

    def at(self, owner: np.ndarray):
        if (owner == owner[0]).all():
            return self.rows[owner[0]]
        present = np.zeros(len(self.rows), dtype=bool)
        present[owner] = True
        fields = []
        for column in self.columns:
            own = column[present]
            # a field the pass's integrals share stays a scalar
            fields.append(own[0] if (own == own[0]).all() else column[owner])
        return type(self.rows[0])(*fields)


class ClosedForm(NamedTuple):
    """What ``coverage_quadratures`` reads of one strategy's closed form.

    strategy    its name in ``scenario``
    row         ``row(user, cfg, link, access)``: what the kernel and the
                integrand read of one value, a NamedTuple of hashable fields
    cells       ``cells(row)``: the ``(lo, hi, counts)`` of its integral
    integrand   ``integrand(shared, rows)``: the integrand of those rows, the
                config ``shared`` holding the fields their configs share
    integrated  ``integrated(row)``: false for a value that is exactly 0
                without an integral
    """

    strategy: str
    row: Callable
    cells: Callable
    integrand: Callable
    integrated: Callable


def coverage_quadratures(
    form: ClosedForm, values: Sequence[tuple], access: str
) -> list[Quadrature]:
    """The coverage of each ``(user, cfg, link)`` of ``form``'s strategy,
    with its error estimate.

    The configs may differ in ``scenario.SWEPT_FIELDS`` alone. Rows compare
    field by field, floats exactly, and each distinct row the form
    integrates is one integral of one ``integrate_many`` call, in order of
    first appearance: a value is its integral alone, so the values share
    passes and a repeated row needs no integral of its own. Each value must
    lie in [0, 1] up to its error estimate.
    """
    shared = sweep_config([cfg for _, cfg, _ in values])
    rows = [form.row(user, cfg, link, access) for user, cfg, link in values]
    distinct = list(dict.fromkeys(row for row in rows if form.integrated(row)))
    boxes = [form.cells(row) for row in distinct]
    found = dict(zip(distinct, integrate_many(form.integrand(shared, distinct), boxes)))
    results = [found.get(row, Quadrature(0.0, 0.0)) for row in rows]
    value, estimate = zip(*results)
    check_probability(value, f"{form.strategy} coverage", shared.m_desired, estimate)
    return results


def coverage_sweep(
    form: ClosedForm, points: Sequence[tuple], access: str
) -> list[tuple[float, float]]:
    """The coverage of both users, in ``scenario.ROLES`` order, of every
    ``(cfg, link)`` point of a sweep, all values integrated together."""
    values = [(u, cfg, link) for cfg, link in points for u in ROLES[form.strategy]]
    found = [result.value for result in coverage_quadratures(form, values, access)]
    return list(zip(found[::2], found[1::2]))


def integrate(integrand: Callable[..., np.ndarray], lo, hi, counts) -> Quadrature:
    """Integral of ``integrand(*axes)`` over the union of boxes ``lo[i]`` to
    ``hi[i]`` with base rules ``counts[i]``: one integral of
    ``integrate_many``."""
    return integrate_many(lambda owner, *axes: integrand(*axes), [(lo, hi, counts)])[0]


def _table(boxes: Sequence[tuple]):
    """The cell table of ``boxes``, integral by integral and each one's boxes
    in the order given: corners, (lo and hi, axes, cells), integral and base
    rule of each cell; and the base rules."""
    corners, owner, rule = [], [], []
    rules: dict[tuple[int, ...], int] = {}
    for i, (lo, hi, counts) in enumerate(boxes):
        corners += zip(lo, hi)
        owner += [i] * len(counts)
        rule += [rules.setdefault(tuple(map(int, row)), len(rules)) for row in counts]
    corners = np.array(corners, dtype=float).transpose(1, 2, 0)
    return corners, np.array(owner), np.array(rule), list(rules)


def _passes(nodes: list) -> list[int]:
    """Bounds, as integral indices, of the passes of one round over integrals
    of ``nodes`` nodes each: whole cell sets, up to ``_PASS_NODES`` nodes."""
    bounds, load = [0], 0
    for i, size in enumerate(nodes):
        if load and size and load + size > _PASS_NODES:
            bounds.append(i)
            load = 0
        load += size
    return bounds + [len(nodes)] if load else []


def _evaluate(integrand, lo, width, size, owner, rule, rules, out) -> None:
    """Q_2n and |Q_n - Q_2n| into ``out``, (2, cells), of cells ``lo`` to ``lo
    + width`` (volumes ``size``, integrals ``owner``, base rules ``rule``) from
    one call of ``integrand``."""
    blocks = []
    for k, key in enumerate(rules):
        cells = (rule == k).nonzero()[0] if len(rules) > 1 else slice(None)
        nodes, weights, base = _cell_rule(key)
        axes = lo[:, cells, None] + width[:, cells, None] * nodes[:, None, :]
        at = owner[cells].repeat(weights.size)
        blocks.append((cells, base, size[cells, None] * weights, axes, at))
    if len(blocks) == 1:
        flat, at = blocks[0][3].reshape(len(lo), -1), blocks[0][4]
    else:
        flat = np.concatenate([b[3].reshape(len(lo), -1) for b in blocks], axis=1)
        at = np.concatenate([b[4] for b in blocks])
    values = np.asarray(integrand(at, *flat))
    offset = 0
    for cells, base, weights, _, _ in blocks:
        terms = weights * values[offset : offset + weights.size].reshape(weights.shape)
        offset += weights.size
        out[0, cells] = fine = np.add.reduce(terms[:, base:], axis=1)
        out[1, cells] = np.abs(np.add.reduce(terms[:, :base], axis=1) - fine)


def _bisect(corners: np.ndarray, owner: np.ndarray, rule: np.ndarray):
    """The 2^dim children of each cell, halved along every axis, integral by
    integral and within an integral corner by corner; and their integrals
    and base rules."""
    lo, hi = corners[:, :, None]
    mid = 0.5 * (lo + hi)
    dim = len(lo)
    upper = (np.arange(2**dim) >> np.arange(dim)[:, None] & 1).astype(bool)[..., None]
    children = np.array([np.where(upper, mid, lo), np.where(upper, hi, mid)])
    children, (owner, rule) = children.reshape(2, dim, -1), np.tile([owner, rule], 2**dim)
    if owner[0] == owner[-1]:  # one integral, already in order
        return children, owner, rule
    order = np.argsort(owner, kind="stable")
    return children[..., order], owner[order], rule[order]
