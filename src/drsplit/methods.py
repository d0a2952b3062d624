"""Iteration drivers for two-set convex feasibility.

Four methods over a pair of sets (A, B):

* DRA  -- governing step z -> z - P_A(z) + P_B(2 P_A(z) - z)
* MAP  -- alternating projections z -> P_A(P_B(z))
* MRP  -- reflection-projection z -> P_A(2 P_B(z) - z)
* SPINGARN -- the partial-inverse update on pairs (a, b) in A x A-perp,
  equivalent to the DRA applied to z = a - b when A is a linear subspace

Two drivers, ``run`` on one point and ``run_rows`` on a stack of starts,
share the trace's stopping rules and the one definition of each update
rule (``_step``, ``_Spingarn``); runs share nothing mutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Tuple

import numpy as np

from .sets import ConvexSet, DimensionMismatchError, _norm, _norms, _read_only, as_rows, as_vector
from .trace import IterationTrace, Monitor, Reason, Termination, _exact_step, normalize_rules


class MethodKind(Enum):
    DRA = "DRA"
    MAP = "MAP"
    MRP = "MRP"
    SPINGARN = "SPINGARN"


class InvalidSubspaceError(ValueError):
    """Spingarn's method needs a linear (or translatable affine) subspace."""


def _step(method, project_a, project_b, z, a=None, pbz=None, pbr=None):
    """The next DRA, MAP or MRP iterate from z, given a = P_A z for DRA and
    pbr = P_B(2a - z) or None to project it here, and for MAP and MRP
    pbz = P_B z or None.  Callers pass their own projectors, on one point or
    on a stack of rows."""
    if method is MethodKind.DRA:
        return z - a + (project_b(2.0 * a - z) if pbr is None else pbr)
    if method is MethodKind.MAP:
        return project_a(project_b(z) if pbz is None else pbz)
    if method is MethodKind.MRP:
        return project_a(2.0 * (project_b(z) if pbz is None else pbz) - z)
    raise ValueError(f"unknown method {method!r}")


def _pair_step(project_a, project_b, a, b, shift=None):
    """Spingarn's partial-inverse update of the pair (a, b):

        a' = P_B(a + b),  b' = a + b - a'
        a+ = P_A(a'),     b+ = b' - P_A(b')

    with B moved by -shift when a shift is given: P_B(y + shift) - shift.
    """
    s = a + b
    a_mid = project_b(s) if shift is None else project_b(s + shift) - shift
    b_mid = s - a_mid
    return project_a(a_mid), b_mid - project_a(b_mid)


def dra_step(set_a: ConvexSet, set_b: ConvexSet, z) -> Tuple[np.ndarray, ...]:
    """One governing step; returns (z_next, a, r, pbr) with a = P_A z,
    r = 2a - z, pbr = P_B r and z_next = z - a + pbr."""
    z = as_vector(z, set_a.dim)
    a = set_a._project(z)
    r = 2.0 * a - z
    pbr = set_b.project(r)
    return _step(MethodKind.DRA, None, None, z, a, pbr=pbr), a, r, pbr


def map_step(set_a: ConvexSet, set_b: ConvexSet, z) -> np.ndarray:
    """Alternating projections: P_A(P_B z)."""
    return _step(MethodKind.MAP, set_a.project, set_b.project, as_vector(z, set_a.dim))


def mrp_step(set_a: ConvexSet, set_b: ConvexSet, z) -> np.ndarray:
    """Reflection-projection: P_A(2 P_B z - z)."""
    return _step(MethodKind.MRP, set_a.project, set_b.project, as_vector(z, set_a.dim))


@dataclass(frozen=True)
class SpingarnState:
    """A pair (a, b) with a in the subspace and b in its orthogonal
    complement."""

    a: np.ndarray
    b: np.ndarray


def spingarn_step(
    set_a: ConvexSet, set_b: ConvexSet, state: SpingarnState
) -> SpingarnState:
    """One partial-inverse update of the pair (see ``_pair_step``)."""
    if not set_a.is_linear():
        raise InvalidSubspaceError(
            "spingarn_step requires a linear-subspace descriptor for the first set"
        )
    return SpingarnState(*_pair_step(set_a.project, set_b.project, state.a, state.b))


def _linearize(set_a: ConvexSet):
    """Spingarn's first set through the origin: (A, None) for a linear A,
    else the subspace and the shift s = P_A 0 that an affine set keeps."""
    if set_a.is_linear():
        return set_a, None
    if set_a._through_origin is None:
        raise InvalidSubspaceError(
            "Spingarn's method requires the first set to be a linear or affine subspace"
        )
    return set_a._through_origin


class _Spingarn:
    """Spingarn's pair (a, b) of one point z or of each row of a stack, on
    the first set through the origin and B - shift, from a = P_A w and
    b = a - w with w = z - shift."""

    def __init__(self, set_a: ConvexSet, set_b: ConvexSet, z: np.ndarray):
        lin_a, self.shift = _linearize(set_a)
        self.project_a, self.project_b = ((lin_a._project_rows, set_b._project_rows)
                                          if z.ndim == 2 else (lin_a._project, set_b._project))
        w = z - self.shift if self.shift is not None else z
        self.a = self.project_a(w)
        self.b = self.a - w

    def step(self):
        """Step the pair by ``_pair_step``; return the iterate a - b + shift."""
        self.a, self.b = _pair_step(self.project_a, self.project_b, self.a, self.b, self.shift)
        return self.a - self.b if self.shift is None else self.a - self.b + self.shift


_ROWS = 16   # rows of a run's first iterate array: every epigraph run fits


def run(
    set_a: ConvexSet,
    set_b: ConvexSet,
    method: MethodKind,
    z0,
    stop=None,
    trace_type=None,
) -> IterationTrace:
    """Iterate the chosen method from z0 until a stopping rule fires.

    ``stop`` is a rule, a sequence of rules or None, read by
    ``normalize_rules``.  At each record (z0 included) the feasibility rule
    tests its monitored point w, z_n or a_n = P_A z_n: d_B(w) < tol, then
    d_A(w) < tol only where that passes, so a nan never passes.  The run
    ends at the first record where a rule fires; feasibility wins over
    exactness and exactness over the cap, which is recorded as the reason,
    not raised.  ``exact`` is the last step's ``_exact_step`` flag, taken at
    the stop from the last two iterates unless an ExactFixedPoint rule reads
    it at every step.  z0 is checked once; an iterate that is not finite
    raises ValueError, and an error that a projector raises on the way
    propagates as it is.  A step makes only the projections its update and
    the active rules read: DRA's P_A z_n and P_B(2 P_A z_n - z_n),
    MAP's and MRP's P_B z_n and P_A, SPINGARN's pair update; a rule on the
    iterate adds P_B z_n (the step reuses it), a rule on the shadow P_A z_n
    and P_B(a_n), and either one P_A of its point where d_B < tol.  Each
    iterate is written once, into one float (rows, dim) array that doubles
    when full and is trimmed at the stop; the trace keeps it read-only,
    owning its data, and derives the shadows from it, as it derives P_B
    r_n.  The trace is an IterationTrace, or a ``trace_type`` if given.
    """
    if set_a.dim != set_b.dim:
        raise DimensionMismatchError(
            f"sets have dimensions {set_a.dim} and {set_b.dim}"
        )
    z = as_vector(z0, set_a.dim)
    eta, feas, n_max = normalize_rules(stop)

    project_a, project_b = set_a._project, set_b._project
    pair = _Spingarn(set_a, set_b, z) if method is MethodKind.SPINGARN else None

    # P_A z is needed at every record only by DRA's update and a rule on
    # the shadow; P_B z only by a rule on the iterate, and MAP and MRP
    # otherwise project it when they step
    shadow_rule = feas is not None and feas.monitor is Monitor.SHADOW
    needs_a = method is MethodKind.DRA or shadow_rule
    # resized in place with refcheck=False: no view of it exists before it is returned
    z_all = np.empty((_ROWS, set_a.dim))
    n = 0
    hit = False
    residual = None
    while True:
        a = project_a(z) if needs_a else None
        pbz = None
        if feas is None:
            feasible = False
        elif shadow_rule:
            feasible = (_norm(a - project_b(a)) < feas.tol
                        and _norm(a - project_a(a)) < feas.tol)
        else:
            pbz = project_b(z)
            feasible = (_norm(z - pbz) < feas.tol
                        and _norm(z - (project_a(z) if a is None else a)) < feas.tol)
        if feasible:
            reason = Reason.FEASIBILITY
        elif hit:
            reason = Reason.EXACT_FIXED_POINT
        elif n >= n_max:
            reason = Reason.MAX_ITER
        else:
            reason = None
        if n == len(z_all):
            z_all.resize((2 * n, set_a.dim), refcheck=False)
        z_all[n] = z
        if reason is not None:
            break

        z_next = pair.step() if pair else _step(method, project_a, project_b, z, a, pbz)

        # z0 was checked once and the projectors take unchecked input, so an
        # overflow shows up here; z is finite, so a finite residual (or
        # squared norm) means a finite z_next
        if eta is not None:
            residual = _norm(z_next - z)
            finite = math.isfinite(residual)
            hit = _exact_step(residual, 1.0 + _norm(z), eta)
        else:
            finite = math.isfinite(z_next.dot(z_next))
        if not finite and not np.isfinite(z_next).all():
            raise ValueError("vector coordinates must be finite")
        z = z_next
        n += 1

    if eta is None and n:   # the flag no rule read, from the last step alone
        residual = _norm(z - z_all[n - 1])
        hit = _exact_step(residual, 1.0 + _norm(z_all[n - 1]), None)
    z_all.resize((n + 1, set_a.dim), refcheck=False)
    return (trace_type or IterationTrace)(
        z=_read_only(z_all),
        set_a=set_a,
        set_b=set_b,
        termination=Termination(reason=reason, exact=hit, step_residual=residual),
        translation=pair.shift if pair else None,
    )


FIRST_N_TOLS = (1e-2, 1e-4)   # decreasing: a row below the last one is below all
NOT_REACHED = -1
_SHADOW_METHODS = (MethodKind.DRA, MethodKind.SPINGARN)  # their point is P_A z_n
_BLOCKS = (*_SHADOW_METHODS, MethodKind.MAP, MethodKind.MRP)  # the batch's block order
_NO_ROWS = np.arange(0)


def _finite(X) -> bool:
    """As ``run`` tests iterates stepped from finite ones: by their squared norm, else np.isfinite."""
    return math.isfinite(np.vdot(X, X)) or np.isfinite(X).all()


def _exact_rows(Z, Z_prev, i, eta) -> np.ndarray:
    """The exactness flag of the last step of the rows i of Z."""
    Zp = Z_prev.take(i, axis=0)
    return _exact_step(_norms(Z.take(i, axis=0) - Zp), 1.0 + _norms(Zp), eta)


def run_rows(set_a: ConvexSet, set_b: ConvexSet, plans: dict, Z, record_at=()) -> dict:
    """Run each method of ``plans`` from every row of Z, as ``run`` would
    with ``stop=plans[method]`` from each row alone: ``plans`` maps each
    MethodKind, in the caller's order, to a rule, a list of rules or None.

    The rows of all methods step together, a block per method in the order
    of _BLOCKS.  Each row records d_B of its method's point (P_A z_n for DRA
    and SPINGARN, z_n for MAP and MRP) at each index in ``record_at`` and
    the first index where it falls below each of FIRST_N_TOLS; it steps on
    after its rules fire until both are known or n reaches its cap.  A row
    so finished then steps on until the next removal, never tested, recorded
    or written again; a removal drops all finished rows once they are an
    eighth of the batch, n reaches the least cap of the blocks with rows (so
    a capped row never waits) or one of them nears the edge of the float
    range.  A step makes one call onto B, on every row's point and the DRA
    rows' reflections 2 P_A z_n - z_n, and one onto A, the update's: P_A of
    the MAP and MRP rows and of the next DRA and SPINGARN iterates, which
    gives the shadows of the next step (the first ones are taken before the
    loop).  So a DRA row that stops at n has its reflection projected once,
    where ``run`` does not project it.  The feasibility test adds d_A(w), and
    d_B and d_A of the other point where a rule monitors it; SPINGARN's pair
    update makes its own calls.  Each rule is tested at every step on the
    running rows that carry it, and computes only what it reads: the
    exactness flag of the running rows under an ExactFixedPoint rule, else of
    the rows that stop; as in ``run``, d_B(w) at the monitored point w, then
    d_A(w) only where d_B(w) < tol, which a nan never passes.  A rule that no
    block with rows left carries, and a cap or record index that no row has
    reached, cost a step nothing.  No set is projected on zero rows, and zero
    rows give empty columns.  Sets of different dimensions raise
    DimensionMismatchError, and an empty ``plans``, a key that is no
    MethodKind, a plan that ``normalize_rules`` refuses or a ``record_at``
    entry that is no integer of at least 0 (a bool is none) raise ValueError,
    before any projection.  Z is checked once; as in ``run``, an iterate that
    is not finite raises ValueError (a DRA or SPINGARN one before it goes
    onto A) and an error that a projector raises propagates as it is.

    Returns per-row arrays iterations, exact, final, d_b_at (a column per
    record_at index), first_n (per FIRST_N_TOLS) and reason (Reason
    members); row i * len(plans) + k holds start i and the k-th method.
    """
    if set_a.dim != set_b.dim:   # as run refuses the pair
        raise DimensionMismatchError(f"sets have dimensions {set_a.dim} and {set_b.dim}")
    Z = as_rows(Z, set_a.dim)
    if not plans:
        raise ValueError("plans must name at least one method")
    for method in plans:
        if method not in _BLOCKS:
            raise ValueError(f"unknown method {method!r}")
    if any(isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 0 for m in record_at):
        raise ValueError(f"record_at must hold integers of at least 0, got {record_at!r}")
    count, width = Z.shape[0], len(plans)
    # per block: each row's output index, the block's end in the batch, and
    # its (cap, last record, eta, tol at its method's point, tol at the
    # other point), with nan for a rule that its plan does not give
    rows, rules, bounds = [], {}, [0]
    for b, kind in enumerate(_BLOCKS):
        if kind in plans:
            eta, feas, cap = normalize_rules(plans[kind])
            cap = min(cap, 2**53)   # a count no row reaches, which packs as an exact float
            tol = [math.nan, math.nan]
            if feas is not None:
                tol[(feas.monitor is Monitor.SHADOW) != (kind in _SHADOW_METHODS)] = feas.tol
            rules[b] = (cap, max((n for n in record_at if n <= cap), default=0),
                        math.nan if eta is None else eta, *tol)
            rows.append(np.arange(count) * width + list(plans).index(kind))
        bounds.append(bounds[-1] + count * (kind in plans))
    _, s1, s2, s3, s4 = bounds           # DRA | SPINGARN | MAP | MRP rows
    cap, last, eta, tol, tol_other = rule = np.repeat(np.array([*rules.values()]).T, count, axis=1)
    ids = np.vstack([np.concatenate(rows)] + [np.full(s4, NOT_REACHED)] * len(FIRST_N_TOLS))  # row, first_n
    Z = np.concatenate([Z] * width)
    tols = np.array(FIRST_N_TOLS)[:, None]
    out = {"iterations": np.zeros(s4, dtype=int), "exact": np.zeros(s4, dtype=bool),
           "reason": np.empty(s4, dtype=object), "final": np.empty_like(Z),
           "d_b_at": np.full((s4, len(record_at)), np.nan),
           "first_n": np.full((s4, len(FIRST_N_TOLS)), NOT_REACHED)}
    running, n_running = np.ones(s4, dtype=bool), s4
    Z_prev = Z                           # the last iterate (Z at n = 0)
    pair = _Spingarn(set_a, set_b, Z[s1:s2]) if s2 > s1 else None
    # P_A z_n on the DRA and SPINGARN rows, else z_n; later steps take it from the update
    point = np.concatenate((set_a._project_rows(Z[:s2]), Z[s2:])) if s2 else Z
    n, layout, n_done = 0, True, 0       # n_done: finished rows still in the batch
    while s4:
        if layout:   # what the rules of the blocks with rows ask of a step
            live = [r for b, r in rules.items() if bounds[b + 1] > bounds[b]]
            least_cap, last_rec = min(r[0] for r in live), max(r[1] for r in live)
            has_eta, has_tol, has_other = (any(r[k] > 0 for r in live) for k in (2, 3, 4))
            rows, first, layout = ids[0], ids[1:], False
        # one call onto B: every row's point, then the DRA rows' reflections
        PB = set_b._project_rows(np.concatenate((point, 2.0 * point[:s1] - Z[:s1])) if s1 else point)
        PB, PBR = PB[:s4], PB[s4:]
        d = _norms(point - PB)
        for j, m in enumerate(record_at):
            if m == n:
                out["d_b_at"][rows, j] = d
        first[(first == NOT_REACHED) & (d < tols)] = n

        if n_running:   # a mask is built only once some row can pass its test
            feasible = fixed = False
            capped = running & (n >= cap) if n >= least_cap else False
            i = (running & (d < tol)).nonzero()[0] if has_tol else _NO_ROWS   # w is the point
            W, t = (point.take(i, axis=0), tol[i]) if i.size else (None, None)
            j = (running & (tol_other > 0)).nonzero()[0] if has_other else _NO_ROWS
            if j.size:                   # w is z_n on DRA and SPINGARN rows, else P_A z_n
                Wj, k = Z.take(j, axis=0), j.searchsorted(s2)
                if k < j.size:
                    Wj[k:] = set_a._project_rows(Wj[k:])
                k = (_norms(Wj - set_b._project_rows(Wj)) < tol_other[j]).nonzero()[0]
                i, W, t = ((j[k], Wj[k], tol_other[j[k]]) if W is None else
                           (np.concatenate(p) for p in ((i, j[k]), (W, Wj[k]), (t, tol_other[j[k]]))))
            if i.size:
                feasible = np.zeros(s4, dtype=bool)
                feasible[i] = _norms(W - set_a._project_rows(W)) < t
            i = (running & (eta > 0)).nonzero()[0] if has_eta and n else _NO_ROWS
            if i.size and (ok := _exact_rows(Z, Z_prev, i, eta[i])).any():
                fixed = np.zeros(s4, dtype=bool)
                fixed[i] = ok
            i = feasible | fixed | capped
            if i is not False and (i := i.nonzero()[0]).size:
                out_i = rows[i]
                out["iterations"][out_i] = n
                out["reason"][out_i] = Reason.MAX_ITER   # later lines win: feasibility > exact > cap
                if fixed is not False:
                    out["exact"][out_i] = fixed[i]
                    out["reason"][out_i[fixed[i]]] = Reason.EXACT_FIXED_POINT
                off = i[np.isnan(eta[i])] if n else _NO_ROWS   # rows with no eta rule take the flag here
                if off.size:
                    out["exact"][rows[off]] = _exact_rows(Z, Z_prev, off, None)
                if feasible is not False:
                    out["reason"][out_i[feasible[i]]] = Reason.FEASIBILITY
                out["final"][out_i] = Z.take(i, axis=0)
                running[i] = False
                n_running -= i.size
        # the finished rows change only where a row stopped, a stopped row
        # waits for a first index or a record, or n reaches the least cap
        if s4 - n_running > n_done or n >= least_cap:
            done = ~running & (first[-1] != NOT_REACHED)
            if n < last_rec:
                done &= n >= last
            if n >= least_cap:   # no running row has reached its cap
                done |= n >= cap
            n_done = (i := done.nonzero()[0]).size
            # they step on until they are an eighth of the batch or n reaches
            # the least cap, where a capped row leaves at once; near the edge
            # of the float range they leave at once, as a step could overflow
            if n_done and (8 * n_done >= s4 or n >= least_cap
                           or not math.isfinite(np.vdot(W := Z.take(i, axis=0), W))):
                out["first_n"][rows[i]] = first[:, i].T
                if pair:
                    k = (~done[s1:s2]).nonzero()[0]
                    pair.a, pair.b = pair.a.take(k, axis=0), pair.b.take(k, axis=0)
                keep = (~done).nonzero()[0]     # take, not a mask: far cheaper on 2-D rows
                _, s1, s2, s3, s4 = bounds = keep.searchsorted(bounds).tolist()
                running, Z, Z_prev, point, PB = (
                    v.take(keep, axis=0) for v in (running, Z, Z_prev, point, PB))
                PBR = PBR.take(keep[:s1], axis=0)
                cap, last, eta, tol, tol_other = rule = rule.take(keep, axis=1)
                ids, layout, n_done = ids.take(keep, axis=1), True, 0
                if not s4:
                    return out

        # the next DRA and SPINGARN iterates, then the MAP and MRP rows before
        # their last P_A (np.asarray, an identity on arrays, stands in for it in
        # _step); one call onto A ends MAP and MRP and gives the next shadows
        X = [_step(MethodKind.DRA, None, None, Z[:s1], point[:s1], pbr=PBR)] if s1 else []
        if s2 > s1:
            X.append(pair.step())
        X += [_step(kind, np.asarray, None, Z[lo:hi], pbz=PB[lo:hi])
              for kind, lo, hi in ((MethodKind.MAP, s2, s3), (MethodKind.MRP, s3, s4)) if lo < hi]
        X = np.concatenate(X) if len(X) > 1 else X[0]
        finite = not s2 or _finite(X[:s2])   # the DRA and SPINGARN iterates, before A sees them
        if finite:
            point = set_a._project_rows(X)
            finite = s2 == s4 or _finite(point[s2:])   # the MAP and MRP iterates
        if not finite:
            raise ValueError("vector coordinates must be finite")
        if 0 < s2 < s4:
            X[s2:] = point[s2:]          # X is the concatenate's own array
        Z_prev, Z = Z, X if s2 else point
        n += 1
    return out
