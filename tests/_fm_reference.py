"""The elimination code as it stood before the shared row-tidy, substitute
and combine helpers: verbatim copies of the old ``LinearSystem``,
``fm_eliminate`` and ``project_to_plane`` with their row helpers.  Tests
compare the library against these under ``np.array_equal``.  Also the
per-call rule of the inner drop cases from before their rows were grouped
by direction (``drop_case_union``).
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from cifc_udc.errors import ShapeMismatch, UnknownVariable
from cifc_udc.polytope import ROW_TOL, SNAP, Region2D, polygon_points, region_from_vertices


def _normalize_rows(coefs: np.ndarray, bounds: np.ndarray):
    """Snap, scale to max-abs 1, split off trivial rows.

    Returns (kept coefs, kept bounds, infeasible flag).
    """
    if coefs.size == 0:
        return coefs.reshape(0, coefs.shape[1] if coefs.ndim == 2 else 0), bounds[:0], False
    coefs = np.where(np.abs(coefs) < SNAP, 0.0, coefs)
    scale = np.max(np.abs(coefs), axis=1)
    nontrivial = scale > 0.0
    infeasible = bool(np.any(bounds[~nontrivial] < -ROW_TOL))
    coefs = coefs[nontrivial]
    bounds = bounds[nontrivial]
    scale = scale[nontrivial]
    coefs = coefs / scale[:, None]
    bounds = bounds / scale
    return coefs, bounds, infeasible


def _prune_rows(coefs: np.ndarray, bounds: np.ndarray):
    """Drop duplicate rows and rows dominated by an equal-coefficient row.

    Rows are grouped by their coefficient vectors rounded to the row
    tolerance; within a group only the smallest bound survives.
    """
    idx = _prune_indices(coefs, bounds)
    return coefs[idx], bounds[idx]


def _prune_indices(coefs: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Indices of the surviving rows after duplicate/dominance pruning."""
    m = coefs.shape[0]
    if m <= 1:
        return np.arange(m)
    keys = np.round(coefs / ROW_TOL).astype(np.int64)
    # sort by coefficient key, ties by bound: first of each group is tightest
    order = np.lexsort((bounds,) + tuple(keys[:, c] for c in range(keys.shape[1] - 1, -1, -1)))
    ks = keys[order]
    first = np.ones(m, dtype=bool)
    first[1:] = np.any(ks[1:] != ks[:-1], axis=1)
    return np.sort(order[first])


@dataclasses.dataclass(frozen=True, eq=False)
class LinearSystem:
    """Rows a.x <= b and a.x = v over named variables.

    ``nonnegative`` lists variables additionally constrained >= 0; the
    constraint is materialized as a row only when the variable is
    eliminated or plotted.  ``feasible`` is cleared when a contradictory
    constant row (0 <= b, b < 0) is detected; an infeasible system keeps
    its variables but carries no rows.
    """

    variables: tuple[str, ...]
    ineq_coefs: np.ndarray
    ineq_bounds: np.ndarray
    eq_coefs: np.ndarray
    eq_values: np.ndarray
    nonnegative: frozenset
    feasible: bool = True

    def __post_init__(self):
        variables = tuple(str(v) for v in self.variables)
        if len(set(variables)) != len(variables):
            raise ShapeMismatch(f"duplicate variables in {variables}")
        n = len(variables)
        ic = np.asarray(self.ineq_coefs, dtype=np.float64).reshape(-1, n)
        ib = np.asarray(self.ineq_bounds, dtype=np.float64).reshape(-1)
        ec = np.asarray(self.eq_coefs, dtype=np.float64).reshape(-1, n)
        ev = np.asarray(self.eq_values, dtype=np.float64).reshape(-1)
        if ic.shape[0] != ib.shape[0] or ec.shape[0] != ev.shape[0]:
            raise ShapeMismatch("coefficient rows and bounds disagree in count")
        bad = frozenset(self.nonnegative) - set(variables)
        if bad:
            raise UnknownVariable(f"nonnegative set mentions unknown {sorted(bad)}")

        ic, ib, bad_row = _normalize_rows(ic, ib)
        feasible = bool(self.feasible) and not bad_row
        # an equality row 0 = v with v != 0 is also a contradiction
        ec = np.where(np.abs(ec) < SNAP, 0.0, ec)
        escale = np.max(np.abs(ec), axis=1) if ec.size else np.zeros(0)
        zero_eq = escale == 0.0
        if np.any(np.abs(ev[zero_eq]) > ROW_TOL):
            feasible = False
        ec, ev = ec[~zero_eq], ev[~zero_eq]
        if ec.shape[0]:
            s = np.max(np.abs(ec), axis=1)
            ec, ev = ec / s[:, None], ev / s
        ic, ib = _prune_rows(ic, ib)
        if not feasible:
            ic, ib = ic[:0], ib[:0]
            ec, ev = ec[:0], ev[:0]
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "ineq_coefs", ic)
        object.__setattr__(self, "ineq_bounds", ib)
        object.__setattr__(self, "eq_coefs", ec)
        object.__setattr__(self, "eq_values", ev)
        object.__setattr__(self, "nonnegative", frozenset(self.nonnegative))
        object.__setattr__(self, "feasible", feasible)

    @classmethod
    def from_rows(
        cls,
        variables: Sequence[str],
        inequalities: Iterable[tuple[Mapping[str, float], float]] = (),
        equalities: Iterable[tuple[Mapping[str, float], float]] = (),
        nonnegative: Iterable[str] = (),
    ) -> "LinearSystem":
        """Build from (coefficient dict, bound) pairs keyed by label."""
        variables = tuple(variables)
        index = {v: i for i, v in enumerate(variables)}

        def rows(pairs):
            coefs, vals = [], []
            for mapping, bound in pairs:
                row = np.zeros(len(variables))
                for label, coef in mapping.items():
                    if label not in index:
                        raise UnknownVariable(f"row mentions unknown {label!r}")
                    row[index[label]] = coef
                coefs.append(row)
                vals.append(float(bound))
            if not coefs:
                return np.zeros((0, len(variables))), np.zeros(0)
            return np.array(coefs), np.array(vals)

        ic, ib = rows(inequalities)
        ec, ev = rows(equalities)
        return cls(variables, ic, ib, ec, ev, frozenset(nonnegative))

    def index_of(self, var: str) -> int:
        try:
            return self.variables.index(var)
        except ValueError:
            raise UnknownVariable(f"no variable {var!r} in {self.variables}") from None


def _drop_column(system: LinearSystem, var: str, ic, ib, ec, ev) -> LinearSystem:
    k = system.index_of(var)
    variables = system.variables[:k] + system.variables[k + 1 :]
    return LinearSystem(
        variables,
        np.delete(ic, k, axis=1),
        ib,
        np.delete(ec, k, axis=1),
        ev,
        system.nonnegative - {var},
        system.feasible,
    )


def fm_eliminate(system: LinearSystem, var: str) -> LinearSystem:
    """Project the feasible set onto the remaining variables.

    Equalities involving ``var`` are substituted out first; otherwise the
    standard Fourier-Motzkin combination of upper and lower bounds runs.
    A variable in the ``nonnegative`` set contributes its >= 0 row before
    elimination.
    """
    k = system.index_of(var)
    if not system.feasible:
        return _drop_column(
            system, var, system.ineq_coefs, system.ineq_bounds,
            system.eq_coefs, system.eq_values,
        )

    n = len(system.variables)
    ic, ib = system.ineq_coefs.copy(), system.ineq_bounds.copy()
    ec, ev = system.eq_coefs, system.eq_values
    if var in system.nonnegative:
        extra = np.zeros((1, n))
        extra[0, k] = -1.0
        ic = np.vstack([ic, extra])
        ib = np.concatenate([ib, [0.0]])

    eq_hits = np.abs(ec[:, k]) > SNAP if ec.size else np.zeros(0, dtype=bool)
    if eq_hits.any():
        # var = val - rest.x, taken from the best-conditioned equality
        pick = int(np.argmax(np.where(eq_hits, np.abs(ec[:, k]), 0.0)))
        c = ec[pick, k]
        rest = ec[pick] / c
        val = ev[pick] / c
        rest[k] = 0.0
        if ic.size:
            col = ic[:, k].copy()
            ic = ic - np.outer(col, rest)
            ib = ib - col * val
        others = np.delete(np.arange(ec.shape[0]), pick)
        oc, ov = ec[others].copy(), ev[others].copy()
        if oc.size:
            ocol = oc[:, k].copy()
            oc = oc - np.outer(ocol, rest)
            ov = ov - ocol * val
        return _drop_column(system, var, ic, ib, oc, ov)

    col = ic[:, k] if ic.size else np.zeros(0)
    pos = col > SNAP
    neg = col < -SNAP
    zero = ~pos & ~neg
    new_coefs = [ic[zero]]
    new_bounds = [ib[zero]]
    if pos.any() and neg.any():
        pc, pb = ic[pos], ib[pos]
        nc, nb = ic[neg], ib[neg]
        # pair every upper bound with every lower bound; the var cancels
        a_p = pc[:, k]
        a_n = -nc[:, k]
        combo = a_n[None, :, None] * pc[:, None, :] + a_p[:, None, None] * nc[None, :, :]
        combo_b = a_n[None, :] * pb[:, None] + a_p[:, None] * nb[None, :]
        new_coefs.append(combo.reshape(-1, n))
        new_bounds.append(combo_b.reshape(-1))
    parts = [c for c in new_coefs if c.size]
    ic2 = np.vstack(parts) if parts else np.zeros((0, n))
    bparts = [b for b in new_bounds if b.size]
    ib2 = np.concatenate(bparts) if bparts else np.zeros(0)
    return _drop_column(system, var, ic2, ib2, ec, ev)


def project_to_plane(
    system: LinearSystem, r1: str, r2: str, order: Sequence[str] | None = None
) -> LinearSystem:
    """Eliminate every variable except ``r1`` and ``r2``.

    Equalities are substituted out first, then Fourier-Motzkin runs with
    ancestor tracking: a combined row built from more original rows than
    eliminated variables plus one is provably redundant and is dropped
    before it can feed the quadratic blowup.  ``order`` pins the
    elimination sequence (mostly for order-independence tests); variables
    already removed by equality substitution are skipped.
    """
    system.index_of(r1)
    system.index_of(r2)
    current = system
    pinned = None
    if order is not None:
        expect = set(current.variables) - {r1, r2}
        if set(order) != expect:
            raise UnknownVariable(
                f"order {order} does not cover exactly {sorted(expect)}"
            )
        pinned = list(order)

    # substitution phase: every equality touching a doomed variable
    changed = True
    while changed:
        changed = False
        for var in current.variables:
            if var in (r1, r2) or not current.eq_coefs.size:
                continue
            j = current.index_of(var)
            if np.any(np.abs(current.eq_coefs[:, j]) > SNAP):
                current = fm_eliminate(current, var)
                changed = True
                break
    doomed = [v for v in current.variables if v not in (r1, r2)]
    if not doomed or not current.feasible:
        for var in doomed:
            current = fm_eliminate(current, var)
        return current

    n = len(current.variables)
    ic = current.ineq_coefs.copy()
    ib = current.ineq_bounds.copy()
    extra = []
    for var in doomed:
        if var in current.nonnegative:
            row = np.zeros(n)
            row[current.index_of(var)] = -1.0
            extra.append(row)
    if extra:
        ic = np.vstack([ic, np.array(extra)]) if ic.size else np.array(extra)
        ib = np.concatenate([ib, np.zeros(len(extra))])
    ancestors = [frozenset({i}) for i in range(ic.shape[0])]
    cols = {v: current.index_of(v) for v in current.variables}
    remaining = list(doomed)
    feasible = True
    steps = 0
    while remaining and feasible:
        if pinned is not None:
            while pinned and pinned[0] not in remaining:
                pinned.pop(0)
            var = pinned.pop(0)
        else:
            # cheapest variable first, as in plain elimination
            best, best_cost = None, None
            for candidate in remaining:
                col = ic[:, cols[candidate]] if ic.size else np.zeros(0)
                n_pos = int(np.sum(col > SNAP))
                n_neg = int(np.sum(col < -SNAP))
                cost = n_pos * n_neg - (n_pos + n_neg)
                if best_cost is None or cost < best_cost:
                    best, best_cost = candidate, cost
            var = best
        remaining.remove(var)
        steps += 1
        k = cols[var]
        col = ic[:, k] if ic.size else np.zeros(0)
        pos = np.flatnonzero(col > SNAP)
        neg = np.flatnonzero(col < -SNAP)
        zero = np.flatnonzero(~(col > SNAP) & ~(col < -SNAP))
        rows = [ic[zero]]
        bnds = [ib[zero]]
        anc = [ancestors[i] for i in zero]
        limit = steps + 1
        if pos.size and neg.size:
            new_rows, new_bnds = [], []
            for i in pos:
                a_p = ic[i, k]
                anc_i = ancestors[i]
                for j in neg:
                    union = anc_i | ancestors[j]
                    if len(union) > limit:
                        continue  # redundant by the acceleration bound
                    a_n = -ic[j, k]
                    new_rows.append(a_n * ic[i] + a_p * ic[j])
                    new_bnds.append(a_n * ib[i] + a_p * ib[j])
                    anc.append(union)
            if new_rows:
                rows.append(np.array(new_rows))
                bnds.append(np.array(new_bnds))
        parts = [r for r in rows if r.size]
        ic = np.vstack(parts) if parts else np.zeros((0, n))
        ib = np.concatenate([b for b in bnds if b.size]) if parts else np.zeros(0)
        ic[:, k] = 0.0
        # normalize, drop trivial rows, sniff contradictions, dedupe
        if ic.shape[0]:
            ic = np.where(np.abs(ic) < SNAP, 0.0, ic)
            scale = np.max(np.abs(ic), axis=1)
            nontrivial = scale > 0.0
            if np.any(ib[~nontrivial] < -ROW_TOL):
                feasible = False
                break
            ic, ib = ic[nontrivial] / scale[nontrivial, None], ib[nontrivial] / scale[nontrivial]
            anc = [a for a, keep_it in zip(anc, nontrivial) if keep_it]
            idx = _prune_indices(ic, ib)
            ic, ib = ic[idx], ib[idx]
            anc = [anc[i] for i in idx]
        ancestors = anc

    keep_idx = [cols[r1], cols[r2]]
    eqs = current.eq_coefs[:, keep_idx] if current.eq_coefs.size else np.zeros((0, 2))
    return LinearSystem(
        (r1, r2),
        ic[:, keep_idx] if ic.size else np.zeros((0, 2)),
        ib,
        eqs,
        current.eq_values,
        current.nonnegative & {r1, r2},
        feasible,
    )


def drop_case_union(cases, theta: Sequence[float]) -> Region2D:
    """The inner region at constants ``theta`` of the drop cases' ungrouped
    multiplier rows, each case (inequality coefficients, multipliers,
    equality coefficients, multipliers, trivial multipliers, trivial
    equality multipliers), by the rule each call followed before the rows
    were grouped by direction.  A case whose trivial rows fail at theta adds
    nothing.  Otherwise its inequalities at theta are normalized and pruned,
    and the box is clipped by them and then by the equalities, kept apart.
    The region is the hull of every case's points, or the origin.
    """
    point = np.append(np.asarray(theta, dtype=np.float64), 1.0)
    points = []
    for ic, im, ec, em, trivial, trivial_eq in cases:
        if np.any(trivial @ point < -ROW_TOL) or np.any(np.abs(trivial_eq @ point) > ROW_TOL):
            continue
        coefs, bounds, _ = _normalize_rows(ic, im @ point)
        points += polygon_points(*_prune_rows(coefs, bounds), ec, em @ point)
    return region_from_vertices(points or [(0.0, 0.0)])
