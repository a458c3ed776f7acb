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
the tolerance. A cell whose estimate is NaN is final too, and so is every
cell after ``_MAX_DEPTH`` bisections. An integral whose final cells'
estimates then sum to more than the tolerance, or to NaN, fails with
``NumericalError``, its error estimate that sum.

All the cells of one call form one flat table, integral by integral, each
integral's cells in the order of its boxes and, once bisected, corner by
corner; each cell carries its integral and its base rule. So a round of
refinement takes a fixed number of whole-array steps however many integrals
the call holds, and a pass takes the cell sets of the integrals still
refining, whole and in order, up to ``_PASS_NODES`` nodes. A larger set
takes passes of its own, cut at whole cells, every as many cells as its
largest fits in the budget; no cell of the closed forms has more than
3,840 nodes, so none of their passes exceeds it. A sweep's closed forms
thus cost a few large numpy calls instead of one small call per value,
whose fixed cost dominates at a few hundred nodes; the budget bounds the
kernel's temporaries to about a megabyte, where a whole UAV-centric sweep
would take ten times that. A call lays out its nodes rule by rule, each
cell's base nodes before its check nodes, so one integral's nodes need not
be contiguous.

Integrals come in groups, whose integrands share a part; by default each
integral is a group of its own. A pass is one call of the integrand, which
gets each node once with one row per integral that takes a value there:
cells of one group that coincide in the pass (equal corners and base rule)
are evaluated together, their nodes counting once toward ``_PASS_NODES``
and once per row toward ``_PASS_ROW_NODES``. Every node of a pass takes
as many rows as its most shared one: a node of fewer coinciding cells
repeats its first cell's row, which gives that cell's value again. The
closed forms group the values that differ in N/P alone, whose kernel forms
everything but its noise stage once per node.

Each value and estimate is, bit for bit, the one its integral gets alone:
a cell's Q_n and Q_2n are row sums over its own values at its own nodes,
shared or not; each round adds an integral's final cells one by one in
table order (``np.bincount``), and that sum into its value and estimate; its
volume adds its boxes the same way. Company moves an integral's cells
within the table, never their order, and an integral's set is cut across
passes alone or in company at the same cells.

``coverage_quadratures`` is the one integration routine of both
strategies' closed forms, each handed to it as a ``ClosedForm``: one row
per value, the row's cells and the integrand at one node of a row. It
alone turns values into integrals, and the integrand reads each node's row
through ``NodeFields``. Each distinct row is one integral, so a row that
repeats along a sweep (the far user's along a ``rate_near`` sweep, the
user-centric fixed user's under OMA) is integrated once. The rows that
differ in N/P alone form one group, and the table lists the rows group by
group, groups in order of first appearance, so a user's values along a
power sweep lie side by side and form the kernel's exponents once per node
for all its powers. All the values share the passes: an 8-point
user-centric sweep takes one pass, while a UAV-centric point's near and far
values take one pass each, as does each user of a UAV-centric power sweep.

The estimate presumes an integrand smooth within each cell: a jump halfway
between the same two nodes of both rules goes unseen. The closed forms put
their one jump, the decode coefficient's switch at r = r_k, on a cell edge.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, NumericalError, shown
from .laplace import check_probability
from .scenario import ROLES, sweep_config

# absolute tolerance of every closed-form value; figure-level resolution
# is ~1e-2 and the Monte Carlo cross-checks resolve ~1e-3
TOLERANCE = 1e-7
# the closed forms' radial cutoff in t = sqrt(u): beyond u = 46, e^(-u) < 1e-20
T_CUTOFF = math.sqrt(46.0)
# bisections of one cell, 2^-10 of a panel along each axis, and the one
# bound on a refinement's work, since every pass keeps to _PASS_NODES. On a
# 2-core x86 host an integrand that fails every cell of a 2-D box,
# sin(1e12 (x + 2y)) on a 12 x 12 base rule, takes 4^10 cells of 720 nodes
# in its last round and raises after 92 s at 210 MB peak RSS; sin(3e3 x y)
# converges in 0.4 s, 8.9 million nodes in its largest round. A NaN
# estimate ends a cell's refinement: a 2-D box half NaN raises in 2 ms,
# against 6.2 s refined to this depth
_MAX_DEPTH = 10
# highest fading orders the closed forms are run at, each the highest the
# tests take the closed forms to. The serving link's: from about 171 on,
# scipy's hyp2f1 returns NaN at some of the exponent's top orders. The
# interferers': the order a tier-1 test checks both exponents' Taylor
# coefficients at against mpmath; the radial tail's recurrences take m_I
# array steps, and from about m_I = 18 its order-0 coefficient loses every
# digit at large z
MAX_CLOSED_FORM_ORDERS = {"m_desired": 100, "m_interf": 10}
# nodes (Q_n plus Q_2n) of one pass, a node of coinciding cells counted
# once: the kernel forms its exponents on at most this many. One UAV-centric
# kernel call (``coverage_cond_pair``) raised peak RSS by 0.7 MB at 3,840
# nodes, 1.0 MB at 7,680, 2.6 MB at 16,384 and 10.6 MB at 61,440, while
# perfbench bounds peak RSS growth to 10% of the CLI's ~56 MB: a whole
# UAV-centric sweep in one pass would break that bound. 6,144 is the least
# that holds every shipped user-centric sweep in one pass (the largest,
# ``user_centric_fixed_distance``, takes 16 values of 384 nodes), and it
# holds no UAV-centric point's near and far values (2 x 3,840) together: on
# a 2-core x86 host a lone UAV-centric point took 1.3x as long in one pass
# of 7,680 nodes (the budget at 8,192) as in two of 3,840, while the 7
# user-centric sweeps took the same time at 4,096, 6,144 and 8,192 within
# 1% (the minimum of 25 rounds each, the budgets alternating in one process)
_PASS_NODES = 6_144
# nodes of one pass counted once per row: the kernel's noise stage, the
# integrand's products and the weighted terms are (rows, nodes), so this
# bounds them as _PASS_NODES bounds the exponents. It holds the 8 rows of
# the 3,840 nodes one user's values share along an 8-point UAV-centric
# power sweep; a longer power sweep takes a pass per 12 points of each user
_PASS_ROW_NODES = 8 * _PASS_NODES


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
    integrand: Callable[..., np.ndarray],
    boxes: Sequence[tuple],
    groups: Sequence[int] | None = None,
) -> list[Quadrature]:
    """Integrals of ``integrand`` over unions of boxes, each to ``TOLERANCE``.

    ``boxes`` holds one ``(lo, hi, counts)`` per integral: its box i spans
    ``lo[i]`` to ``hi[i]`` (one entry per axis, the same axes for every
    integral) and carries the base rule ``counts[i]`` (nodes per axis; the
    check rule doubles each). ``groups`` gives each integral a group, by
    default one of its own. ``integrand(owner, *axes)`` receives one array
    of coordinates per axis and ``owner``, of shape (k, nodes): for every
    node, the indices in ``boxes`` of the integrals that take a value there,
    one row each, the first repeated where fewer than k do; it returns
    those values, elementwise, in that shape (or one that broadcasts to it).
    A node comes once with several integrals where the cells of integrals
    of one group coincide, so the integrand can form once what the group's
    integrals have in common. Each integral's value and estimate are those
    it gets alone; if any integral fails, the ``NumericalError`` of the
    first one in order is raised once every integral has finished.
    """
    if not boxes:
        return []
    tol = TOLERANCE
    corners, owner, rule, rules = _table(boxes)
    groups = list(range(len(boxes))) if groups is None else list(groups)
    width = corners[1] - corners[0]
    size = np.multiply.reduce(width, axis=0)
    volume = np.bincount(owner, size, len(boxes))
    rule_nodes = np.array([_cell_rule(key)[1].size for key in rules])
    totals = np.zeros((2, len(boxes)))  # value and estimate of each integral
    deepest = np.zeros(len(boxes), dtype=int)  # bisections each integral took
    for depth in range(_MAX_DEPTH + 1):
        cell_nodes = rule_nodes[rule]
        nodes = np.bincount(owner, cell_nodes, len(boxes))
        sums = np.empty((2, len(size)))  # Q_2n and |Q_n - Q_2n| of each cell
        prev, shared = _coinciding(corners, owner, groups, rule, cell_nodes)
        bounds = owner.searchsorted(_passes(nodes.tolist(), groups, shared)).tolist()
        for span in _cut(bounds, owner, nodes, cell_nodes):
            _evaluate(
                integrand, corners[0, :, span], width[:, span], size[span], owner[span],
                rule[span], rules, _members(prev[span] - span.start), sums[:, span],
            )
        # a NaN estimate is final, and fails its integral
        final = ~(sums[1] > tol * size / volume[owner]) | (depth == _MAX_DEPTH)
        deepest[owner] = depth
        done = owner[final]
        for total, cells in zip(totals, sums[:, final]):
            total += np.bincount(done, cells, len(boxes))
        if final.all():
            break
        corners, owner, rule = _bisect(corners[..., ~final], owner[~final], rule[~final])
        width = corners[1] - corners[0]
        size = np.multiply.reduce(width, axis=0)
    if not (totals[1] <= tol).all():
        i = np.argmin(totals[1] <= tol)  # the first integral that fails
        problem = f"misses {tol:.0e} after {deepest[i]} bisections"
        raise NumericalError(f"quadrature {problem}", totals[1, i].item())
    return [Quadrature(*q) for q in zip(*totals.tolist())]


class NodeFields:
    """Fields of each integral of an ``integrate_many`` call, read per node.

    ``rows`` holds one NamedTuple per integral, all of one type. ``at(owner)``
    gives, for the nodes of one integrand call, the fields of the integral
    each node belongs to, read at the first row of ``owner``: that
    integral's own row, of scalars, when every node belongs to it, otherwise
    the same NamedTuple with one array per field that differs among the
    call's integrals and a scalar for each field they share. Elementwise
    arithmetic gives the same bits either way. Integrals that share a node
    (k > 1 rows of ``owner``) differ in their ``noise`` alone, which then
    holds one row per integral: a leading axis of k noises.
    """

    def __init__(self, rows: Sequence[tuple]):
        self.rows = rows

    @functools.cached_property
    def columns(self) -> list[np.ndarray]:
        return [np.array(column) for column in zip(*self.rows)]

    def at(self, owner: np.ndarray):
        first = owner[0]
        if (first == first[0]).all():
            fields = self.rows[first[0]]
        else:
            present = np.zeros(len(self.rows), dtype=bool)
            present[first] = True
            own = [column[present] for column in self.columns]
            # a field the call's integrals share stays a scalar
            fields = type(self.rows[0])(*[
                o[0] if (o == o[0]).all() else column[first]
                for o, column in zip(own, self.columns)
            ])
        if len(owner) > 1:
            noise = self.columns[type(fields)._fields.index("noise")]
            fields = fields._replace(noise=noise[owner])
        return fields


class ClosedForm(NamedTuple):
    """What ``coverage_quadratures`` reads of one strategy's closed form.

    strategy    its name in ``scenario``
    row         ``row(user, cfg, link, access)``: what the kernel and the
                integrand read of one value, a NamedTuple of hashable fields,
                its N/P among them as ``noise``
    cells       ``cells(row)``: the ``(lo, hi, counts)`` of its integral
    integrand   ``integrand(shared, v, *axes)``: the integrand at the nodes
                ``axes``, the config ``shared`` holding the fields the
                values' configs share and ``v`` the row of each node's value
                (``NodeFields.at``)
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

    The configs may differ in ``scenario.SWEPT_FIELDS`` alone, and their
    fading orders may not pass ``MAX_CLOSED_FORM_ORDERS`` (``DomainError``).
    Rows compare field by field, floats exactly, and each distinct row the
    form integrates is one integral of one ``integrate_many`` call: a value
    is its integral alone, so the values share passes and a repeated row
    needs no integral of its own. Rows equal but for their noise form one
    group, whose coinciding cells the integrand evaluates once: the kernel's
    noise-free part runs once for all of a power sweep's values of one
    user. The integrals come group by group, groups in order of first
    appearance and each group's rows in order too, so that a group's rows
    share passes; their order changes no bit of any value. Each value must
    lie in [0, 1] up to its error estimate.
    """
    shared = sweep_config([cfg for _, cfg, _ in values])
    check_orders(shared)
    rows = [form.row(user, cfg, link, access) for user, cfg, link in values]
    # each distinct row once, group by group: a group's rows differ in noise alone
    members: dict = {}
    for row in dict.fromkeys(row for row in rows if form.integrated(row)):
        members.setdefault(row._replace(noise=0.0), []).append(row)
    distinct = [row for group in members.values() for row in group]
    groups = [g for g, group in enumerate(members.values()) for _ in group]
    boxes = [form.cells(row) for row in distinct]
    fields = NodeFields(distinct)

    def integrand(owner, *axes):
        return form.integrand(shared, fields.at(owner), *axes)

    found = dict(zip(distinct, integrate_many(integrand, boxes, groups)))
    results = [found.get(row, Quadrature(0.0, 0.0)) for row in rows]
    value, estimate = zip(*results)
    check_probability(value, f"{form.strategy} coverage", shared.m_desired, estimate)
    return results


def check_orders(cfg) -> None:
    """Raise ``DomainError`` if ``cfg``'s fading orders pass
    ``MAX_CLOSED_FORM_ORDERS``."""
    for field, top in MAX_CLOSED_FORM_ORDERS.items():
        if getattr(cfg, field) > top:
            raise DomainError(
                f"{field}: the closed forms take orders up to {top}, "
                f"got {shown(getattr(cfg, field))}"
            )


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


def _coinciding(corners, owner, groups: list, rule, cell_nodes):
    """For each cell, the last cell before it in the table that coincides with
    it (its integral's group ``groups[owner]``, equal corners and base rule),
    or -1; and for each integral with such cells, the integral of the
    earlier cell and the nodes of each. Cells of one integral never
    coincide, so without a group of two integrals none do."""
    prev, shared = np.full(len(rule), -1), {}
    if len(set(groups)) == len(groups):
        return prev, shared
    key = np.vstack([np.array(groups)[owner], rule, *corners])
    order = np.lexsort(key)
    same = (key[:, order[1:]] == key[:, order[:-1]]).all(axis=0)
    prev[order[1:][same]] = order[:-1][same]
    copies = np.flatnonzero(prev >= 0)
    pairs = owner[copies], owner[prev[copies]], cell_nodes[copies]
    for i, j, n in zip(*(a.tolist() for a in pairs)):
        shared.setdefault(i, []).append((j, n))
    return prev, shared


def _passes(nodes: list, group: list, shared: dict) -> list[int]:
    """Bounds, as integral indices, of the passes of one round over integrals
    of ``nodes`` nodes each and groups ``group``: whole cell sets, in order,
    while a pass holds at most ``_PASS_NODES`` nodes, those of a cell that
    coincides with one already in the pass counted once (``shared``, of
    ``_coinciding``), and at most ``_PASS_ROW_NODES`` once each node counts
    as many times as the pass holds integrals of its most frequent group,
    the most rows a node can take; a larger set takes a pass of its own,
    which ``_cut`` cuts."""
    bounds, load, k, rows = [0], 0, 0, {}  # rows: integrals of each group in the pass
    for i, size in enumerate(nodes):
        if not size:
            continue
        new = size - sum(n for j, n in shared.get(i, ()) if j >= bounds[-1])
        count = rows.get(group[i], 0) + 1
        if load and (load + new > _PASS_NODES or (load + new) * max(k, count) > _PASS_ROW_NODES):
            bounds.append(i)
            load, k, rows, new, count = 0, 0, {}, size, 1
        load, k, rows[group[i]] = load + new, max(k, count), count
    return bounds + [len(nodes)] if load else []


def _cut(bounds: list, owner, nodes, cell_nodes):
    """The spans of cells of the passes ``bounds`` (cell indices, of
    ``_passes``). A pass over ``_PASS_NODES`` nodes holds the cells of one
    integral (``nodes``), and is cut into runs of as many whole cells as
    fit in ``_PASS_NODES`` at the size of its largest (at least one): the
    cuts depend on its own cells alone, so they fall at the same cells
    alone and in company."""
    for start, stop in zip(bounds, bounds[1:]):
        step = stop - start
        if nodes[owner[start]] > _PASS_NODES:
            step = max(1, _PASS_NODES // cell_nodes[start:stop].max())
        for lo in range(start, stop, step):
            yield slice(lo, min(lo + step, stop))


def _members(prev) -> np.ndarray:
    """The (k, columns) cell indices of one integrand call over the cells of
    one pass, whose earlier coinciding cells are ``prev`` (indices within the
    pass; negative for none): each column the cells that coincide, in table
    order, padded to the longest column with repeats of its first cell; one
    row of every cell when none coincide."""
    copies = (prev >= 0).nonzero()[0]
    if not copies.size:
        return np.arange(len(prev))[None]
    head, rank = np.arange(len(prev)), np.zeros(len(prev), dtype=int)
    for c, p in zip(copies.tolist(), prev[copies].tolist()):
        head[c], rank[c] = head[p], rank[p] + 1
    first = rank == 0
    members = np.repeat(head[first][None], rank.max() + 1, axis=0)
    members[rank, (np.cumsum(first) - 1)[head]] = np.arange(len(prev))
    return members


def _evaluate(integrand, lo, width, size, owner, rule, rules, members, out) -> None:
    """Q_2n and |Q_n - Q_2n| into ``out``, (2, cells), of cells ``lo`` to
    ``lo + width`` (volumes ``size``, integrals ``owner``, base rules
    ``rule``) from one call of ``integrand`` on the first row of
    ``members`` (``_members``), with one row of owners per row of it. A
    padding row repeats its column's first cell, value for value."""
    blocks = []
    for k, key in enumerate(rules):
        stack = members[:, rule[members[0]] == k] if len(rules) > 1 else members
        head = stack[0]
        nodes, weights, base = _cell_rule(key)
        corner, span = lo.take(head, axis=1)[..., None], width.take(head, axis=1)[..., None]
        axes = corner + span * nodes[:, None, :]
        at = owner.take(stack).repeat(weights.size, axis=1)
        blocks.append((stack, base, size.take(head)[:, None] * weights, axes, at))
    if len(blocks) == 1:
        flat, at, weights = blocks[0][3].reshape(len(lo), -1), blocks[0][4], blocks[0][2]
    else:
        flat = np.concatenate([b[3].reshape(len(lo), -1) for b in blocks], axis=1)
        at = np.concatenate([b[4] for b in blocks], axis=1)
        weights = np.concatenate([b[2].ravel() for b in blocks])
    # each node's weight times its value in every row
    terms = weights.ravel() * np.asarray(integrand(at, *flat)).reshape(len(at), -1)
    offset = 0
    for stack, base, weights, _, _ in blocks:
        # one row per cell, as the cell alone gives it
        block = terms[:, offset : offset + weights.size].reshape(-1, weights.shape[1])
        offset += weights.size
        fine = np.add.reduce(block[:, base:], axis=1)
        out[0].put(stack, fine)
        out[1].put(stack, np.abs(np.add.reduce(block[:, :base], axis=1) - fine))


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
