"""Finite-depth constrained maximum-entropy solver.

Maximizes the depth-n conditional entropy h^(n) over truncated invariant
measures subject to interval constraints on cylinder masses. The
variables are the 2^n top-level masses x_w; lower levels are their
marginal sums, so consistency holds by construction and invariance is a
set of linear equalities on the top level.

The objective splits over sibling pairs,
    h^(n)(x) = sum over |v| = n-1 of f(x_{v0}, x_{v1}),
    f(s, t) = -s log s - t log t + (s + t) log(s + t),
each f being a perspective of the binary entropy and hence concave. The
solver runs in three phases:

1. phase-1 LPs (HiGHS): feasibility of the constraint polytope, with an
   elastic re-solve producing a separating certificate when empty;
2. structural-zero elimination: variables whose maximum over the
   polytope is 0 are fixed to exact zeros (the entropy gradient is
   singular there, and the eliminated coordinates are forced anyway);
3. an equality-constrained damped Newton method on the remaining
   coordinates, wrapped in an active-set loop for interval constraints,
   iterated until the KKT residual is small.

Any convergent concave maximizer would do; the contract is the reported
KKT residual and constraint satisfaction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np
from scipy.optimize import linprog

from .errors import ConstraintError
from .measures import (FLOAT, CylinderTable, conditional_entropy,
                       max_abs_deviation, table_from_top_level)
from .words import all_words, check_word
from .zeroblock import build_max_entropy_table, extend_spec

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_MAX_ITER = "max_iter"

_FLOOR = 1e-15          # variable floor during iterations
_ZERO_TOL = 1e-11       # LP threshold for structurally-zero variables
_NEWTON_TOL = 1e-13     # target residual of the inner Newton solve


def _as_bound(value):
    if isinstance(value, str):
        return float(Fraction(value))
    return float(value)


@dataclass(frozen=True)
class Constraint:
    """lo <= mu([word]) <= hi; equality when lo == hi."""

    word: str
    lo: float
    hi: float

    def __post_init__(self):
        check_word(self.word)
        object.__setattr__(self, "lo", _as_bound(self.lo))
        object.__setattr__(self, "hi", _as_bound(self.hi))
        if not 0.0 <= self.lo <= self.hi <= 1.0:
            raise ConstraintError(
                f"need 0 <= lo <= hi <= 1 for {self.word!r}, "
                f"got [{self.lo}, {self.hi}]")

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

    def to_json(self):
        return [{"word": e.word, "lo": e.lo, "hi": e.hi} for e in self.entries]


def cell_maximize(a, b, c):
    """Maximizer (t, u, v, w) of h(t)+h(u)+h(v)+h(w) subject to
    t+v = a, u+w = b, t+u = c.

    This is the independence split of a 2x2 cell with row sums (a, b)
    and first-column sum c; it satisfies the cross-product identity
    t*w = u*v. Returns all zeros when a + b = 0. Exact for Fraction
    inputs.
    """
    for name, val in (("a", a), ("b", b), ("c", c)):
        if val < -1e-12:
            raise ConstraintError(f"{name} must be nonnegative, got {val}")
    zero = (a + b + c) * 0
    a = a if a > 0 else zero
    b = b if b > 0 else zero
    c = c if c > 0 else zero
    s = a + b
    if s < c - 1e-12:
        raise ConstraintError(f"need a + b >= c, got a+b={s}, c={c}")
    if s == 0:
        return (zero, zero, zero, zero)
    c = c if c <= s else s
    r = s - c
    return (a * c / s, b * c / s, a * r / s, b * r / s)


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


class _System:
    def __init__(self, depth, cset):
        nv = 1 << depth
        self.depth = depth
        self.nv = nv
        eq_rows, eq_b, eq_names = [np.ones(nv)], [1.0], ["normalization"]
        for v in all_words(depth - 1):
            row = np.zeros(nv)
            for eps in "01":
                row[int(eps + v, 2)] += 1.0
                row[int(v + eps, 2)] -= 1.0
            if np.any(row):
                eq_rows.append(row)
                eq_b.append(0.0)
                eq_names.append(f"invariance[{v}]")
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
        self.A_eq = np.array(eq_rows)
        self.b_eq = np.array(eq_b)
        self.eq_names = eq_names
        self.M_iv = np.array(iv_rows) if iv_rows else np.zeros((0, nv))
        self.lo = np.array(iv_lo)
        self.hi = np.array(iv_hi)
        self.iv_names = iv_names

    def ub_matrices(self):
        """Interval rows as A_ub x <= b_ub."""
        if self.M_iv.shape[0] == 0:
            return None, None
        return (np.vstack([self.M_iv, -self.M_iv]),
                np.concatenate([self.hi, -self.lo]))


def _phase1(sys_):
    """Feasibility of the polytope; on failure, an elastic certificate."""
    A_ub, b_ub = sys_.ub_matrices()
    res = linprog(np.zeros(sys_.nv), A_ub=A_ub, b_ub=b_ub,
                  A_eq=sys_.A_eq, b_eq=sys_.b_eq, bounds=(0, 1),
                  method="highs")
    if res.status == 0:
        return True, None
    ne = sys_.A_eq.shape[0]
    ni = sys_.M_iv.shape[0]
    nv = sys_.nv
    nslack = ne + ni
    rows, rhs = [], []
    for k in range(ne):
        slack = np.zeros(nslack)
        slack[k] = -1.0
        rows.append(np.concatenate([sys_.A_eq[k], slack]))
        rhs.append(sys_.b_eq[k])
        rows.append(np.concatenate([-sys_.A_eq[k], slack]))
        rhs.append(-sys_.b_eq[k])
    for k in range(ni):
        slack = np.zeros(nslack)
        slack[ne + k] = -1.0
        rows.append(np.concatenate([sys_.M_iv[k], slack]))
        rhs.append(sys_.hi[k])
        rows.append(np.concatenate([-sys_.M_iv[k], slack]))
        rhs.append(-sys_.lo[k])
    cost = np.concatenate([np.zeros(nv), np.ones(nslack)])
    bounds = [(0.0, 1.0)] * nv + [(0.0, None)] * nslack
    res2 = linprog(cost, A_ub=np.array(rows), b_ub=np.array(rhs),
                   bounds=bounds, method="highs")
    names = sys_.eq_names + sys_.iv_names
    certificate = {"total_violation": float(res2.fun) if res2.status == 0 else math.inf}
    if res2.status == 0:
        duals = np.asarray(res2.ineqlin.marginals)
        per = {}
        for k, name in enumerate(names):
            per[name] = float(duals[2 * k] - duals[2 * k + 1])
        certificate["separating_duals"] = per
    return False, certificate


def _interior_point(sys_, free):
    """LP max of t subject to x[free] >= t inside the polytope."""
    nv = sys_.nv
    rows, rhs = [], []
    for i in np.flatnonzero(free):
        row = np.zeros(nv + 1)
        row[i] = -1.0
        row[nv] = 1.0
        rows.append(row)
        rhs.append(0.0)
    A_ub, b_ub = sys_.ub_matrices()
    if A_ub is not None:
        rows.extend(np.concatenate([r, [0.0]]) for r in A_ub)
        rhs.extend(b_ub)
    A_eq = np.hstack([sys_.A_eq, np.zeros((sys_.A_eq.shape[0], 1))])
    fixed = np.flatnonzero(~free)
    if fixed.size:
        pin = np.zeros((fixed.size, nv + 1))
        pin[np.arange(fixed.size), fixed] = 1.0
        A_eq = np.vstack([A_eq, pin])
        b_eq = np.concatenate([sys_.b_eq, np.zeros(fixed.size)])
    else:
        b_eq = sys_.b_eq
    cost = np.zeros(nv + 1)
    cost[nv] = -1.0
    bounds = [(0.0, 1.0)] * nv + [(0.0, 1.0)]
    res = linprog(cost, A_ub=np.array(rows), b_ub=np.array(rhs),
                  A_eq=A_eq, b_eq=b_eq, bounds=bounds, method="highs")
    if res.status != 0:
        return None, 0.0
    return res.x[:nv], float(res.x[nv])


def _forced_zero_mask(sys_):
    """Variables whose maximum over the polytope is (numerically) zero."""
    nv = sys_.nv
    free_all = np.ones(nv, dtype=bool)
    _, t_star = _interior_point(sys_, free_all)
    mask = np.zeros(nv, dtype=bool)
    if t_star > 10 * _ZERO_TOL:
        return mask
    A_ub, b_ub = sys_.ub_matrices()
    for i in range(nv):
        cost = np.zeros(nv)
        cost[i] = -1.0
        res = linprog(cost, A_ub=A_ub, b_ub=b_ub, A_eq=sys_.A_eq,
                      b_eq=sys_.b_eq, bounds=(0, 1), method="highs")
        if res.status == 0 and -res.fun <= _ZERO_TOL:
            mask[i] = True
    return mask


# ---------------------------------------------------------------------------
# Entropy objective on the top level
# ---------------------------------------------------------------------------

def _objective_parts(x_full):
    """(gradient, sibling sums); gradient entries are log(s_v / x_i)."""
    pairs = x_full.reshape(-1, 2)
    s = pairs.sum(axis=1)
    s_rep = np.repeat(s, 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        grad = np.where(x_full > 0.0,
                        np.log(np.where(s_rep > 0.0, s_rep, 1.0))
                        - np.log(np.where(x_full > 0.0, x_full, 1.0)),
                        0.0)
    return grad, s_rep


def _hessian(x_full, free_idx):
    """Dense Hessian of h^(n) restricted to the free coordinates."""
    nf = free_idx.size
    H = np.zeros((nf, nf))
    pos = -np.ones(x_full.size, dtype=int)
    pos[free_idx] = np.arange(nf)
    pairs = x_full.reshape(-1, 2)
    s = pairs.sum(axis=1)
    for v in range(pairs.shape[0]):
        if s[v] <= 0.0:
            continue
        inv_s = 1.0 / s[v]
        i0, i1 = 2 * v, 2 * v + 1
        p0, p1 = pos[i0], pos[i1]
        if p0 >= 0:
            H[p0, p0] = inv_s - 1.0 / x_full[i0]
        if p1 >= 0:
            H[p1, p1] = inv_s - 1.0 / x_full[i1]
        if p0 >= 0 and p1 >= 0:
            H[p0, p1] = inv_s
            H[p1, p0] = inv_s
    return H


def _newton_equalities(A, b, x0, x_full, free_idx, max_steps, floor):
    """Damped Newton for: maximize h^(n) s.t. A x_free = b, x_free > 0.

    Multipliers are re-estimated at every point by least squares (they
    minimize the stationarity residual), so the merit is a function of
    x alone. Returns (x_free, multipliers, residual, steps).
    """
    nf = free_idx.size
    ne = A.shape[0]
    At = A.T

    def evaluate(xf):
        x_full[free_idx] = xf
        grad, _ = _objective_parts(x_full)
        g = grad[free_idx]
        if ne:
            y = np.linalg.lstsq(At, g, rcond=None)[0]
            r1 = g - At @ y
            r2 = A @ xf - b
        else:
            y = np.zeros(0)
            r1 = g
            r2 = np.zeros(0)
        merit = math.hypot(np.linalg.norm(r1), np.linalg.norm(r2))
        return y, r1, r2, merit

    x = np.maximum(x0, floor)
    y, r1, r2, merit = evaluate(x)
    steps = 0
    reg = 0.0
    stalled = 0
    for _ in range(max_steps):
        res_inf = max(np.abs(r1).max(initial=0.0), np.abs(r2).max(initial=0.0))
        if res_inf <= _NEWTON_TOL:
            break
        if stalled >= 8 and (x <= 1e-10).any():
            break  # plateau with coordinates crawling to the floor
        x_full[free_idx] = x
        H = _hessian(x_full, free_idx)
        if reg:
            H = H - reg * np.eye(nf)
        kkt = np.zeros((nf + ne, nf + ne))
        kkt[:nf, :nf] = H
        if ne:
            kkt[:nf, nf:] = At
            kkt[nf:, :nf] = A
        rhs = np.concatenate([-r1, -r2])
        try:
            delta = np.linalg.solve(kkt, rhs)
            if not np.all(np.isfinite(delta)):
                raise np.linalg.LinAlgError
        except np.linalg.LinAlgError:
            delta = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
        dx = delta[:nf]
        alpha = 1.0
        negative = dx < 0.0
        if negative.any():
            alpha = min(1.0, 0.995 * np.min(-x[negative] / dx[negative]))
        accepted = False
        while alpha > 1e-14:
            x_t = np.maximum(x + alpha * dx, floor)
            y_t, r1_t, r2_t, merit_t = evaluate(x_t)
            if merit_t <= (1.0 - 1e-4 * alpha) * merit or merit_t < _NEWTON_TOL:
                stalled = stalled + 1 if merit_t > 0.99 * merit else 0
                x, y, r1, r2, merit = x_t, y_t, r1_t, r2_t, merit_t
                accepted = True
                break
            alpha *= 0.5
        steps += 1
        if accepted:
            reg = 0.0
        else:
            reg = 1e-8 if reg == 0.0 else reg * 100.0
            if reg > 1e2:
                break
    res_inf = max(np.abs(r1).max(initial=0.0), np.abs(r2).max(initial=0.0))
    return x, y, res_inf, steps


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


def _reduce(sys_, fixed):
    """Drop fixed (zero) columns and keep an independent equality row set.

    Returns (free_idx, A_eq reduced, b_eq, kept row indices into
    sys_.A_eq). Rows touching only fixed variables are vacuous because
    phase 1 proved the full system consistent.
    """
    free_idx = np.flatnonzero(~fixed)
    cols = sys_.A_eq[:, free_idx]
    keep = np.flatnonzero((np.abs(cols).sum(axis=1) > 1e-14)
                          | (np.abs(sys_.b_eq) > 1e-9))
    A = cols[keep]
    b = sys_.b_eq[keep]
    if A.shape[0]:
        from scipy.linalg import qr
        _, r, piv = qr(A.T, mode="economic", pivoting=True)
        diag = np.abs(np.diag(r))
        tol = max(A.shape) * np.finfo(float).eps * (diag[0] if diag.size else 0.0)
        rank = int((diag > tol).sum())
        sel = np.sort(piv[:rank])
        A, b, keep = A[sel], b[sel], keep[sel]
    return free_idx, A, b, keep


def _dead_pair_rates(sys_, fixed, structural, eq_rows, act_rows, mults):
    """First-order gain of re-injecting mass into fixed coordinates.

    With the free coordinates stationary, constraint prices are
    q_i = (A^T mults)_i. Re-opening the sibling pair of a parent v at
    split c gains H2(c) - c q_{v0} - (1-c) q_{v1}, maximized at
    log(exp(-q0) + exp(-q1)); a single coordinate (its sibling staying
    structurally closed) gains -q_i. Returns {parent index: rate} for
    pairs containing a non-structural fixed coordinate.
    """
    rows = [sys_.A_eq[eq_rows]]
    if act_rows:
        rows.append(sys_.M_iv[act_rows])
    A_full = np.vstack(rows)
    prices = np.clip(A_full.T @ mults, -700.0, 700.0)
    rates = {}
    for i in np.flatnonzero(fixed & ~structural):
        v, sib = i >> 1, i ^ 1
        if not fixed[sib]:
            rates[v] = math.inf  # open sibling: infinite marginal gain
        elif structural[sib]:
            rates[v] = max(rates.get(v, -math.inf), -prices[i])
        else:
            rates[v] = math.log(math.exp(-prices[i]) + math.exp(-prices[sib]))
    return rates


def solve(depth, constraints=None, *, kkt_tol=1e-9, max_iterations=100_000,
          floor=_FLOOR):
    """Maximize h^(depth) over invariant tables meeting the constraints.

    Returns an :class:`OptimizationResult`; on feasible instances the
    table is float-mode, passes validation, and the KKT residual of the
    reported point is included. Infeasible polytopes are detected by a
    phase-1 LP and reported with a separating certificate.
    """
    if depth < 2:
        raise ValueError("depth must be >= 2")
    cset = _normalize_constraints(constraints)
    sys_ = _System(depth, cset)

    feasible, certificate = _phase1(sys_)
    if not feasible:
        return OptimizationResult(STATUS_INFEASIBLE, None, None,
                                  kkt_residual=math.inf, iterations=0,
                                  certificate=certificate)

    structural = _forced_zero_mask(sys_)
    fixed = structural.copy()
    x_start, _ = _interior_point(sys_, ~fixed)
    if x_start is None:
        x_start = np.full(sys_.nv, 1.0 / sys_.nv)
    x_full = np.where(fixed, 0.0, np.maximum(x_start, floor))

    active = {}          # interval row index -> "lo" | "hi"
    never_refix = np.zeros(sys_.nv, dtype=bool)
    total_steps = 0
    res_inf = math.inf
    free_idx = np.flatnonzero(~fixed)
    A_eq = b_eq = eq_rows = None
    mults = np.zeros(0)
    have_iv = sys_.M_iv.shape[0] > 0
    for _ in range(120):
        free_idx, A_eq, b_eq, eq_rows = _reduce(sys_, fixed)
        M_iv = sys_.M_iv[:, free_idx] if have_iv else np.zeros((0, free_idx.size))
        act_sorted = sorted(active)
        act_rows = [M_iv[j] for j in act_sorted]
        act_b = [sys_.lo[j] if active[j] == "lo" else sys_.hi[j]
                 for j in act_sorted]
        A_act = np.vstack([A_eq] + [r[None, :] for r in act_rows]) \
            if act_rows else A_eq
        b_act = np.concatenate([b_eq, np.array(act_b)]) if act_rows else b_eq
        budget = min(200, max(1, max_iterations - total_steps))
        x = np.maximum(x_full[free_idx], floor)
        x, y, res_inf, steps = _newton_equalities(
            A_act, b_act, x, x_full, free_idx, budget, floor)
        total_steps += steps
        x_full[:] = 0.0
        x_full[free_idx] = x
        if total_steps >= max_iterations:
            break
        # 1) most violated inactive interval joins the active set
        if have_iv:
            vals = M_iv @ x
            worst_j, worst_v, worst_side = -1, 1e-10, ""
            for j in range(M_iv.shape[0]):
                if j in active:
                    continue
                if sys_.lo[j] - vals[j] > worst_v:
                    worst_j, worst_v, worst_side = j, sys_.lo[j] - vals[j], "lo"
                if vals[j] - sys_.hi[j] > worst_v:
                    worst_j, worst_v, worst_side = j, vals[j] - sys_.hi[j], "hi"
            if worst_j >= 0:
                active[worst_j] = worst_side
                continue
        # 2) coordinates driven to the floor leave the problem
        stuck = (x <= 1e-10) & ~never_refix[free_idx]
        if stuck.any() and res_inf > _NEWTON_TOL:
            fixed[free_idx[stuck]] = True
            continue
        if res_inf > 1e-11:
            break  # Newton is genuinely stuck; report the residual
        # 3) wrong-sign multiplier: release that interval
        if active:
            ne_base = A_eq.shape[0]
            drop, drop_val = -1, 1e-9
            for pos, j in enumerate(act_sorted):
                theta = y[ne_base + pos]
                bad = -theta if active[j] == "hi" else theta
                if bad > drop_val:
                    drop, drop_val = j, bad
            if drop >= 0:
                del active[drop]
                continue
        # 4) fixed coordinates whose re-opening would gain entropy
        rates = _dead_pair_rates(sys_, fixed, structural, eq_rows,
                                 [j for j in act_sorted], y)
        reopen = [v for v, rate in rates.items() if rate > 1e-9]
        if reopen:
            for v in reopen:
                for i in (2 * v, 2 * v + 1):
                    if fixed[i] and not structural[i]:
                        fixed[i] = False
                        never_refix[i] = True
            continue
        mults = y
        break

    # KKT residual of the reported point
    grad, _ = _objective_parts(x_full)
    g = grad[free_idx]
    act_sorted = sorted(active)
    M_iv = sys_.M_iv[:, free_idx] if have_iv else np.zeros((0, free_idx.size))
    A_all = np.vstack([A_eq] + [M_iv[j][None, :] for j in act_sorted]) \
        if act_sorted else A_eq
    if A_all.shape[0]:
        mults = np.linalg.lstsq(A_all.T, g, rcond=None)[0]
        r_stat = float(np.abs(g - A_all.T @ mults).max(initial=0.0))
    else:
        mults = np.zeros(0)
        r_stat = float(np.abs(g).max(initial=0.0))
    xf = x_full[free_idx]
    r_eq = float(np.abs(A_eq @ xf - b_eq).max(initial=0.0)) if A_eq.shape[0] else 0.0
    r_iv = 0.0
    r_comp = 0.0
    if have_iv:
        vals = M_iv @ xf
        r_iv = float(max(np.max(np.maximum(sys_.lo - vals, 0.0), initial=0.0),
                         np.max(np.maximum(vals - sys_.hi, 0.0), initial=0.0)))
        for pos, j in enumerate(act_sorted):
            theta = mults[A_eq.shape[0] + pos]
            slack = min(abs(vals[j] - sys_.lo[j]), abs(vals[j] - sys_.hi[j]))
            r_comp = max(r_comp, abs(theta) * slack)
            wrong = -theta if active[j] == "hi" else theta
            r_comp = max(r_comp, max(wrong, 0.0))
    r_bound = 0.0
    rates = _dead_pair_rates(sys_, fixed, structural, eq_rows,
                             act_sorted, mults)
    for rate in rates.values():
        if math.isfinite(rate):
            r_bound = max(r_bound, max(rate, 0.0))
        else:
            r_bound = max(r_bound, 1.0)
    kkt_residual = max(r_stat, r_eq, r_iv, r_comp, r_bound,
                       float(max(-x_full.min(initial=0.0), 0.0)))

    x_full[free_idx] = np.where(xf <= 2 * floor, 0.0, xf)
    table = table_from_top_level(x_full, mode=FLOAT)
    objective = conditional_entropy(table, depth)
    status = STATUS_OPTIMAL if kkt_residual <= kkt_tol else STATUS_MAX_ITER
    return OptimizationResult(status, table, objective,
                              kkt_residual=kkt_residual,
                              iterations=total_steps)


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
    a = extend_spec(spec, max(len(spec.prefix), depth))
    cset = ConstraintSet.equalities({"0" * k: float(a[k])
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
