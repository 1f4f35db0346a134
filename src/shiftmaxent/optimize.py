"""Finite-depth constrained maximum-entropy solver.

Maximizes the depth-n conditional entropy h^(n) over truncated invariant
measures subject to interval constraints on cylinder masses. The
variables are the 2^n top-level masses x_w; lower levels are their
marginal sums, so consistency holds by construction and invariance is a
set of linear equalities on the top level.

The objective splits over sibling pairs,
    h^(n)(x) = sum over |v| = n-1 of f(x_{v0}, x_{v1}),
    f(s, t) = -s log s - t log t + (s + t) log(s + t),
each f being a perspective of the binary entropy and hence concave.
Each interval lo <= m.x <= hi gets two slacks, m.x - s_lo = lo and
m.x + s_hi = hi, so the polytope is {z = (x, s_lo, s_hi) >= 0 : G z = g}.

A solve at depth n runs at k = max(2, length of the longest constrained
word) and returns the depth-k optimum extended to depth n as an
order-(k-1) Markov measure (markov_extend). This is exact: every
depth-n table has h^(n) <= h^(k) of its depth-k restriction, which
meets the same constraints, and the extension keeps every level <= k
and has h^(n) = h^(k). By the same extension, feasibility does not
depend on n >= k. The reported KKT residual and iteration count are
those of the depth-k problem; by h^(n) <= h^(k), a depth-k optimum
they certify is a depth-n optimum as well. Where the maximizer is not
unique (mu([01]) = 0 leaves every mixture of the two fixed points), the
extended table may differ from the one a barrier at depth n would pick;
the objective does not. At depth k the solver runs one path:

1. max-support LP (HiGHS): over the homogenized cone {(z, tau) >= 0 :
   G z = g tau}, maximize sum_i min(z_i, 1), written with z = u + w as
   max sum u over 0 <= u <= 1, w >= 0, tau >= 0 and
   [G, G, -g] (u, w, tau) = 0. The coordinates where u_i = 1 are the
   support of the feasible face; all others are 0 on the whole polytope
   and are dropped (an interval side whose slack is never open becomes
   an equality), and z / tau is a strictly feasible start. An empty
   support means the polytope is empty, and only then an elastic LP
   runs on the same depth-k system, to produce a separating certificate
   whose rows are named at depth k (see solve for why it holds at n);
2. barrier Newton: on the support, Newton steps in the null space of
   G, from one SVD that also absorbs dependent rows, maximize
   h^(k) + mu sum_i log z_i for mu = 1e-2, 1e-3, ..., 1e-13; each stage
   after the first starts with a tangent step along the central path;
3. residual: the bound multipliers are zeta = -(grad h + G^T y), with y
   from the last Newton step, and the reported KKT residual is the
   largest of the dual infeasibility max(-zeta), the complementarity
   max |z_i zeta_i|, the primal residual |G z - g| and mu.

Any convergent concave maximizer would do; the contract is the reported
KKT residual and constraint satisfaction.

scipy (HiGHS) is imported inside the function that calls it, so it
loads on the first solve: importing this module, or running any CLI
command but optimize and compare, does not. Both LPs are passed as
dense arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConstraintError
from .measures import (FLOAT, CylinderTable, _integer, conditional_entropy,
                       markov_extend, max_abs_deviation, parse_mass,
                       table_from_top_level)
from .words import check_word
from .zeroblock import build_max_entropy_table

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_MAX_ITER = "max_iter"

_MU_STAGES = 10.0 ** -np.arange(2, 14)   # barrier weights 1e-2 ... 1e-13


@dataclass(frozen=True)
class Constraint:
    """lo <= mu([word]) <= hi; equality when lo == hi."""

    word: str
    lo: float
    hi: float

    def __post_init__(self):
        check_word(self.word)
        try:
            lo, hi = parse_mass(self.lo), parse_mass(self.hi)
        except (TypeError, ValueError) as exc:
            raise ConstraintError(f"bad bound for {self.word!r}: {exc}") from None
        # range-checked before float(), so that "1e400" is out of range
        if not (0 <= lo <= 1 and 0 <= hi <= 1 and float(lo) <= float(hi)):
            raise ConstraintError(
                f"need 0 <= lo <= hi <= 1 for {self.word!r}, "
                f"got [{self.lo!r}, {self.hi!r}]")
        object.__setattr__(self, "lo", float(lo))
        object.__setattr__(self, "hi", float(hi))

    @property
    def is_equality(self):
        return self.lo == self.hi


@dataclass(frozen=True)
class ConstraintSet:
    entries: tuple = ()

    def __post_init__(self):
        entries = tuple(e if isinstance(e, Constraint) else Constraint(*e)
                        for e in self.entries)
        seen = set()
        for e in entries:
            if e.word in seen:
                raise ConstraintError(f"duplicate constrained word {e.word!r}")
            seen.add(e.word)
        object.__setattr__(self, "entries", entries)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    @classmethod
    def equalities(cls, values):
        """Constraint set mu([w]) = value for each (w, value) pair."""
        return cls(tuple(Constraint(w, v, v) for w, v in values.items()))

    @classmethod
    def from_json(cls, obj):
        try:
            return cls(tuple(Constraint(e["word"], e["lo"], e["hi"]) for e in obj))
        except (KeyError, TypeError) as exc:
            raise ConstraintError(f"malformed constraint JSON: {exc}") from exc


@dataclass(frozen=True)
class OptimizationResult:
    status: str
    table: Optional[CylinderTable]
    objective: Optional[float]
    kkt_residual: float
    iterations: int
    certificate: Optional[dict] = None

    def summary(self):
        obj = "nan" if self.objective is None else format(self.objective, ".12g")
        return f"objective={obj} kkt={self.kkt_residual:.3g} status={self.status}"


# ---------------------------------------------------------------------------
# Linear system assembly
# ---------------------------------------------------------------------------

def _marginal_row(word, depth, nv):
    """Top-level coefficient row of the marginal mu([word])."""
    row = np.zeros(nv)
    gap = depth - len(word)
    base = (int(word, 2) << gap) if word else 0
    row[base:base + (1 << gap)] = 1.0
    return row


def _slack_form(depth, cset):
    """(G, g, row names): the polytope is {z = (x, s_lo, s_hi) >= 0 : G z = g}.

    The rows are the equalities, then the lower and then the upper side
    of each interval, which names both of its rows.
    """
    nv = 1 << depth
    half = nv >> 1
    # invariance of the (n-1)-word v: x_{0v} + x_{1v} = x_{v0} + x_{v1}
    v = np.arange(half)
    invariance = np.zeros((half, nv))
    for cols, sign in ((v, 1.0), (v + half, 1.0), (2 * v, -1.0),
                       (2 * v + 1, -1.0)):
        invariance[v, cols] += sign
    eq_rows, eq_b = [np.ones(nv), *invariance], [1.0] + [0.0] * half
    eq_names = ["normalization"] + [
        f"invariance[{u:0{depth - 1}b}]" for u in range(half)]
    iv_rows, iv_lo, iv_hi, iv_names = [], [], [], []
    for e in cset:
        if len(e.word) > depth:
            raise ConstraintError(
                f"constrained word {e.word!r} longer than depth {depth}")
        row = _marginal_row(e.word, depth, nv)
        if e.is_equality:
            eq_rows.append(row)
            eq_b.append(e.lo)
            eq_names.append(f"mass[{e.word}]")
        else:
            iv_rows.append(row)
            iv_lo.append(e.lo)
            iv_hi.append(e.hi)
            iv_names.append(f"mass[{e.word}]")
    ne, ni = len(eq_rows), len(iv_rows)
    M = np.array(iv_rows).reshape(ni, nv)
    eye, zero = np.eye(ni), np.zeros((ni, ni))
    G = np.block([[np.array(eq_rows), np.zeros((ne, 2 * ni))],
                  [M, -eye, zero],
                  [M, zero, eye]])
    return G, np.array(eq_b + iv_lo + iv_hi), eq_names + 2 * iv_names


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on the first LP. Every LP calls
    this module-level name, so a caller can wrap or replace it."""
    from scipy.optimize import linprog as highs_linprog
    return highs_linprog(*args, **kwargs)


def _elastic_certificate(G, g, names):
    """Separating certificate of an empty polytope {z >= 0 : G z = g}.

    The elastic LP min sum(p + q) s.t. G z + p - q = g, (z, p, q) >= 0
    has equality multipliers y with G^T y <= 0 and g^T y equal to its
    optimum, the total violation. Each constraint gets the sum of its
    rows' multipliers; for an interval that is the net of its two sides.
    """
    m, nz = G.shape
    eye = np.eye(m)
    res = linprog(np.concatenate([np.zeros(nz), np.ones(2 * m)]),
                  A_eq=np.hstack([G, eye, -eye]), b_eq=g,
                  bounds=(0.0, None), method="highs")
    duals = dict.fromkeys(names, 0.0)
    for name, y in zip(names, res.eqlin.marginals):
        duals[name] += float(y)
    return {"total_violation": float(res.fun), "separating_duals": duals}


# ---------------------------------------------------------------------------
# Facial reduction and barrier Newton
# ---------------------------------------------------------------------------

def _max_support(G, g):
    """Support of the feasible face of {z >= 0 : G z = g} and a point on it.

    Over the homogenized cone {(z, tau) >= 0 : G z = g tau}, one LP
    maximizes sum_i u_i with 0 <= u_i <= min(z_i, 1). Substituting
    z = u + w, the bound u <= z is w >= 0, so the LP has the variables
    (u, w, tau), with 0 <= u <= 1 and w, tau >= 0, one row block
    [G, G, -g] (u, w, tau) = 0 and no coupling rows. The cone is closed
    under addition, so the optimum sets u_i = 1 exactly on the largest
    support, where z_i >= 1; every other z_i is 0 on the whole polytope.
    On an empty polytope the cone is {0} (the normalization row forces
    x = 0 and then every slack is 0), so the support is empty.
    Returns (support mask, z / tau on the support).
    """
    m, nz = G.shape
    bounds = np.zeros((2 * nz + 1, 2))
    bounds[:nz, 1] = 1.0
    bounds[nz:, 1] = np.inf
    res = linprog(np.concatenate([-np.ones(nz), np.zeros(nz + 1)]),
                  A_eq=np.hstack([G, G, -g[:, None]]), b_eq=np.zeros(m),
                  bounds=bounds, method="highs")
    u, w, tau = res.x[:nz], res.x[nz:-1], res.x[-1]
    support = u > 0.5
    return support, (u + w)[support] / tau


def _entropy(x, xs):
    """(h^(n), its gradient on xs, sibling-pair sums on xs) at the top
    level x, whose support is the index array xs."""
    s = x[xs] + x[xs ^ 1]
    grad = np.log(s / x[xs])
    return x[xs] @ grad, grad, s


def _to_boundary(z, dz):
    """Step length along dz: 1, or 0.99 of the way to the nearest z_i = 0."""
    shrink = dz < 0.0
    return min(1.0, 0.99 * np.min(-z[shrink] / dz[shrink], initial=np.inf))


def _barrier_newton(G, g, z, xs, nv):
    """Maximize h^(n)(x) + mu sum log z subject to G z = g, for each mu
    in _MU_STAGES.

    z > 0 is the start; its first xs.size entries are the top-level
    masses at indices xs, the rest are interval slacks. One SVD of G,
    cut at a relative rank tolerance, gives an orthonormal basis N of
    its null space and G^+, so dependent rows need no removal. A Newton
    step is dz = p + N w, where p = G^+ (g - G z) pulls a start off
    G z = g onto it as fast as the fraction-to-boundary rule allows, and
    (N^T H N) w = -N^T (grad phi + H p). Each stage runs Newton steps
    until the decrement falls to 1e-6 mu: an absolute stop would skip
    the last stages, and 1e-6 mu^2 sits below the rounding floor (~1e-30
    at depth 8) for mu <= 1e-12. At most 50 steps per stage keep the
    time bounded.

    Each stage after the first starts with a tangent step along the
    central path, (mu - mu_prev) N (N^T H N)^-1 N^T (1 / z) with H from
    the previous stage's last Newton step. Without it, the first Newton
    step of a stage overshoots each coordinate that vanishes like mu (an
    active interval slack, a dead chain) past 0, the fraction-to-boundary
    cut leaves it at a tenth of its target, and the stage spends about 9
    steps climbing back. Returns (z, y, steps) with y = G^+T (grad phi +
    H dz) the equality multipliers of the last Newton step and steps the
    number of Newton and tangent steps.
    """
    U, sv, Vt = np.linalg.svd(G)
    rank = int((sv > max(G.shape) * np.finfo(float).eps * sv[0]).sum())
    N = Vt[rank:].T
    pinv = Vt[:rank].T @ (U[:, :rank].T / sv[:rank, None])
    k = xs.size
    x = np.zeros(nv)

    def merit(z, mu):
        x[xs] = z[:k]
        return -_entropy(x, xs)[0] - mu * np.log(z).sum()

    steps, mu_prev = 0, None
    for mu in _MU_STAGES:
        if mu_prev is not None:
            dz = (mu - mu_prev) * (N @ np.linalg.solve(NHN, N.T @ (1.0 / z)))
            z = z + _to_boundary(z, dz) * dz
            steps += 1
        for _ in range(50):
            x[xs] = z[:k]
            h, grad, s = _entropy(x, xs)
            gphi = -mu / z
            gphi[:k] -= grad
            p = pinv @ (g - G @ z)
            # H [N, p] for the barrier Hessian H: mu / z^2 + 1 / x on the
            # diagonal, less 1 / s on each sibling pair's block
            V = np.column_stack([N, p])
            Vx = np.zeros((nv, V.shape[1]))
            Vx[xs] = V[:k]
            HV = (mu / z ** 2)[:, None] * V
            HV[:k] += V[:k] / z[:k, None] - (Vx[xs] + Vx[xs ^ 1]) / s[:, None]
            NHN = N.T @ HV[:, :-1]
            w = np.linalg.solve(NHN, -N.T @ (gphi + HV[:, -1]))
            dz = p + N @ w
            H_dz = HV @ np.append(w, 1.0)
            decrement = dz @ H_dz
            steps += 1
            alpha = _to_boundary(z, dz)
            phi = -h - mu * np.log(z).sum()
            # Armijo with an allowance for rounding in phi, which the
            # last stages' decrease falls below
            allowance = 1e-13 * (1.0 + abs(phi))
            while merit(z + alpha * dz, mu) > \
                    phi + 0.25 * alpha * (gphi @ dz) + allowance:
                alpha *= 0.5
            z = z + alpha * dz
            if decrement <= 1e-6 * mu:
                break
        mu_prev = mu
    return z, pinv.T @ (gphi + H_dz), steps


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------

def _normalize_constraints(constraints):
    if constraints is None:
        return ConstraintSet()
    if isinstance(constraints, ConstraintSet):
        return constraints
    if isinstance(constraints, dict):
        return ConstraintSet.equalities(constraints)
    return ConstraintSet(tuple(constraints))


def _interior_optimum(G_all, g_all, support, z, depth):
    """(top level, KKT residual, steps) of the barrier solve at `depth`
    on the feasible face `support` of {z >= 0 : G_all z = g_all}, from
    the strictly feasible start z on it."""
    G = G_all[:, support]
    nv = 1 << depth
    xs = np.flatnonzero(support[:nv])
    z, y, steps = _barrier_newton(G, g_all, z, xs, nv)

    z_all = np.zeros(support.size)
    z_all[support] = z
    x = z_all[:nv]
    zeta = -(G.T @ y)
    zeta[:xs.size] -= _entropy(x, xs)[1]
    kkt_residual = float(max(np.max(-zeta, initial=0.0),
                             np.abs(z * zeta).max(),
                             np.abs(G_all @ z_all - g_all).max(),
                             _MU_STAGES[-1]))
    return x, kkt_residual, steps


def solve(depth, constraints=None):
    """Maximize h^(depth) over invariant tables meeting the constraints.

    The solve runs at k = max(2, length of the longest constrained
    word) and extends the depth-k optimum as an order-(k-1) Markov
    measure. That is exact: every depth-n table has h^(n) <= h^(k) of
    its depth-k restriction, which meets the same constraints, and the
    extension keeps every level <= k and has h^(n) = h^(k). Where the
    maximizer is not unique (mu([01]) = 0 leaves every mixture of the
    two fixed points), the extended table may differ from the one a
    barrier at depth n would pick; the objective does not.

    Returns an :class:`OptimizationResult`; on feasible instances the
    table is float-mode, of depth `depth`, and passes validation, and
    `objective` is its h^(depth). `kkt_residual` and `iterations` are
    those of the depth-k problem, whose optimum bounds every depth-n
    table by the inequality above; `iterations` counts Newton steps and
    the tangent step that starts each barrier stage after the first.
    An empty polytope, detected by the max-support LP at depth k, is
    reported with a separating certificate from an elastic LP on the
    same depth-k system, whose rows are named at depth k. It certifies
    every depth n >= k: the mass and normalization rows are the same at
    every depth, and the depth-k row invariance[v] is the sum of the
    depth-n rows invariance[v s] over the words s of length n - k, so
    giving each invariance[v s] the dual of invariance[v] lifts it.
    """
    depth = _integer(depth, "depth")
    if depth < 2:
        raise ValueError("depth must be >= 2")
    cset = _normalize_constraints(constraints)
    # a word longer than depth leaves k = depth, where _slack_form rejects it
    k = min(depth, max([2] + [len(e.word) for e in cset]))
    G_all, g_all, names = _slack_form(k, cset)
    support, z = _max_support(G_all, g_all)
    if not support.any():
        return OptimizationResult(
            STATUS_INFEASIBLE, None, None, kkt_residual=math.inf, iterations=0,
            certificate=_elastic_certificate(G_all, g_all, names))

    x, kkt_residual, steps = _interior_optimum(G_all, g_all, support, z, k)
    table = markov_extend(table_from_top_level(x, mode=FLOAT), depth)
    objective = conditional_entropy(table, depth)
    status = STATUS_OPTIMAL if kkt_residual <= 1e-9 else STATUS_MAX_ITER
    return OptimizationResult(status, table, objective,
                              kkt_residual=kkt_residual, iterations=steps)


# ---------------------------------------------------------------------------
# Cross-check against the explicit zero-block construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonReport:
    depth: int
    max_cylinder_deviation: float
    objective_deviation: float
    solver_objective: float
    built_objective: float
    result: OptimizationResult

    def describe(self):
        return (f"depth={self.depth} max_cylinder_deviation="
                f"{self.max_cylinder_deviation:.3g} objective_deviation="
                f"{self.objective_deviation:.3g} status={self.result.status}")


def compare_with_closed_form(spec, depth):
    """Solve with equalities mu([0^k]) = a_k (k <= depth) and compare
    against the explicit maximal-entropy table truncated to `depth`.
    """
    if depth < 2:
        raise ValueError("depth must be >= 2")
    built = build_max_entropy_table(spec, depth)
    cset = ConstraintSet.equalities({"0" * k: float(built.prob("0" * k))
                                     for k in range(1, depth + 1)})
    result = solve(depth, cset)
    if result.table is None:
        raise ConstraintError(
            f"solver reported {result.status} for a feasible spec")
    built_obj = conditional_entropy(built, depth)
    return ComparisonReport(
        depth=depth,
        max_cylinder_deviation=max_abs_deviation(built, result.table),
        objective_deviation=abs(result.objective - built_obj),
        solver_objective=result.objective,
        built_objective=built_obj,
        result=result)
