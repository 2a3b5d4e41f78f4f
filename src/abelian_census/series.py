"""Generating series of the census and their analytic shape.

Series are Dirichlet series truncated at the census bound, held as exact
integer coefficient maps keyed by the D-scaled invariant value.  mu is
built by Euler-factor convolution (a path fully independent of the census
tree walk), pi by surjective profile enumeration, psi and tau are the
admissible-partition upper bound and the witness-anchored lower bound that
sandwich pi coefficientwise.

The summatory counts, the second counting route next to the census walk,
come from the counted-leaf kernel: ``convolution_table`` visits only the
internal profiles, level by level, and counts the leaf primes below each
one by binary search in per-residue prime arrays, so its cost grows like
the number of internal profiles (about T**0.74 for C2) rather than with T.
Its int64 sums and weights are guarded and fall back to Python ints, with
a warning, when a sum, a weight or a threshold could pass 2**63.

One row builder, ``_census_rows``, turns a census context and a slice
choice into Euler-factor rows; mu and psi convolve its rows.  That
convolution engine runs dense (numpy int64 with a non-negativity and
magnitude guard) or sparse (dict of Python ints, overflow-free) depending
on the truncation size, and logs a warning when it leaves the dense path.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import gamma as _gamma_function
from math import log
from typing import Sequence

import numpy as np

from .errors import (
    FitError,
    NotApplicableError,
    ParamError,
    ResourceCapError,
)
from .groups import (
    AbelianGroup,
    OmegaSet,
    ParamVector,
    beta_aggregate,
    xi_classes,
)
from .constants import admissible_partitions, delta_x, gamma_x, tau_witness
from .profiles import (
    CensusContext,
    CensusTable,
    count_by_index,
    enumerate_census,
    geometric_checkpoints,
    integer_nth_root,
    scaled_threshold,
    theta,
)

__all__ = [
    "GeneratingSeries",
    "SingularityData",
    "AsymptoticShape",
    "FitResult",
    "RatioTrend",
    "mu_series",
    "pi_series",
    "psi_series",
    "tau_series",
    "convolution_counts",
    "convolution_table",
    "singularity_data",
    "delange_shape",
    "fit_exponents",
    "ratio_R",
    "scaling_check",
    "series_violations",
    "RATIO_DECLINE",
    "RATIO_GROWTH",
]

DENSE_CELL_CAP = 1 << 22
TRUNCATION_CAP = 1 << 30
LEAF_CHUNK_CELLS = 1 << 20  # node x threshold cells per leaf-count pass
_INT64_BOUND = 1 << 63

# Trend thresholds for ratio_R, calibrated on slice counts up to 1.6e7
# (windows over X >= 1e4): a ratio converging to a positive constant
# declines at most ~11% across the window set once the early transient has
# passed, while a vanishing ratio (an extra log log factor in the
# denominator) keeps losing ~30% or more over the same range.  The 0.80
# cut sits between the two with >=10% margin on each side.
RATIO_DECLINE = 0.80
RATIO_GROWTH = 1.30


@dataclass(frozen=True)
class GeneratingSeries:
    """Truncated Dirichlet series with exact integer coefficients.

    ``coefficients`` maps the D-scaled invariant value v (an integer) to
    the coefficient at v; only v < truncation appear and zeros are dropped.
    """

    label: str
    scale: int
    bound: Fraction
    truncation: int
    coefficients: dict[int, int]

    def coefficient(self, scaled_value: int) -> int:
        return self.coefficients.get(scaled_value, 0)

    def summatory(self, bound: Fraction | None = None) -> int:
        """Sum of coefficients with value below ``bound`` (default: all)."""
        if bound is None:
            return sum(self.coefficients.values())
        t = scaled_threshold(Fraction(bound), self.scale)
        if t > self.truncation:
            raise ParamError(
                f"bound {bound} exceeds the series truncation {self.bound}"
            )
        return sum(c for v, c in self.coefficients.items() if v < t)

    def dump(self) -> str:
        """One line per coefficient, ascending in d: 'p^e p^e ...<TAB>coeff'."""
        lines = []
        for v in sorted(self.coefficients):
            key = _factor_key(v)
            head = " ".join(f"{p}^{e}" for p, e in key) if key else "1"
            lines.append(f"{head}\t{self.coefficients[v]}")
        return "\n".join(lines) + ("\n" if lines else "")


def _factor_key(v: int) -> tuple[tuple[int, int], ...]:
    out = []
    rest = v
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if rest > 1:
        out.append((rest, 1))
    return tuple(out)


def series_violations(
    lower: GeneratingSeries, upper: GeneratingSeries
) -> list[tuple[int, int, int]]:
    """Coefficients where ``lower`` exceeds ``upper``: (value, lo, hi)."""
    if lower.scale != upper.scale:
        raise ParamError("cannot compare series with different scales")
    out = []
    for v in sorted(set(lower.coefficients) | set(upper.coefficients)):
        lo = lower.coefficient(v)
        hi = upper.coefficient(v)
        if lo > hi:
            out.append((v, lo, hi))
    return out


# -- the Euler convolution engine ---------------------------------------------


def _apply_prime_dense(
    st: list[np.ndarray], opts: Sequence[tuple[int, int, bool]], T: int
) -> None:
    n_states = len(st)
    plans = []
    for pe, w, adv in opts:
        m = (T - 1) // pe
        if m < 1:
            continue
        for j in range(n_states):
            tgt = j + 1 if adv else j
            if tgt >= n_states:
                continue
            plans.append((tgt, pe, m, w, st[j][1 : m + 1].copy()))
    for tgt, pe, m, w, src in plans:
        st[tgt][pe : pe * m + 1 : pe] += w * src


def _apply_prime_dict(
    st: list[dict[int, int]], opts: Sequence[tuple[int, int, bool]], T: int
) -> None:
    n_states = len(st)
    writes: list[tuple[int, int, int]] = []
    for pe, w, adv in opts:
        if pe >= T:
            continue
        for j in range(n_states):
            tgt = j + 1 if adv else j
            if tgt >= n_states:
                continue
            for v, c in st[j].items():
                v2 = v * pe
                if v2 < T:
                    writes.append((tgt, v2, w * c))
    for tgt, v2, wc in writes:
        st[tgt][v2] = st[tgt].get(v2, 0) + wc


def _convolve_raw(
    T: int,
    factors_fn,
    n_states: int,
    cell_cap: int = DENSE_CELL_CAP,
) -> list:
    """Expand a product of Euler factors, tracking an advance-count state.

    ``factors_fn`` is a zero-argument callable returning a fresh iterable of
    factors, each a list of options (pe, weight, advances) for one prime; a
    profile picks at most one option per prime.  State j holds the mass of
    partial products that advanced j times.  Returns one state per advance
    count, each either a dense int64 array indexed by scaled value or a
    dict of Python ints; both exact.
    """
    if T > TRUNCATION_CAP:
        raise ResourceCapError(
            f"truncation {T} exceeds the coefficient budget {TRUNCATION_CAP}"
        )
    if T <= 1:
        return [{} for _ in range(n_states)]
    if T * n_states <= cell_cap:
        st = [np.zeros(T, dtype=np.int64) for _ in range(n_states)]
        st[0][1] = 1
        for opts in factors_fn():
            _apply_prime_dense(st, opts, T)
        if all(int(a.min()) >= 0 for a in st) and all(
            int(a.max()) < 1 << 55 for a in st
        ):
            return st
        reason = "the int64 magnitude guard tripped"
    else:
        reason = f"T * states exceeds the dense cell cap {cell_cap}"
    logging.getLogger("abelian_census.series").warning(
        "convolution falls back to exact dicts: T=%d, %d states, %s",
        T, n_states, reason,
    )
    st2: list[dict[int, int]] = [dict() for _ in range(n_states)]
    st2[0][1] = 1
    for opts in factors_fn():
        _apply_prime_dict(st2, opts, T)
    return st2


def _coefficients(state) -> dict[int, int]:
    """One convolved state as a map of its nonzero coefficients."""
    if isinstance(state, dict):
        return state
    nz = np.nonzero(state)[0]
    return {int(v): int(c) for v, c in zip(nz, state[nz])}


def _census_rows(ctx: CensusContext, gamma: int | None):
    """Euler-factor rows of the context's primes for one slice choice.

    Returns (rows_fn, n_states), where ``rows_fn()`` yields one row of
    options (pe, weight, advances) per wild prime, then per usable tame
    prime.  ``gamma`` None (or an empty omega) keeps every option in one
    state; 0 drops every option that meets omega; g >= 1 keeps everything
    in g + 1 states, the tame options that meet omega advancing.
    """
    if gamma is None or ctx.omega.is_empty():
        keep_meeting, n_states = True, 1
    elif gamma == 0:
        keep_meeting, n_states = False, 1
    else:
        keep_meeting, n_states = True, gamma + 1
    advance = n_states > 1

    def rows_fn():
        by_res, N = ctx.tame_options_by_residue, ctx.G.order
        for opts in ctx.wild_options:
            yield [(pe, w, False) for pe, w, meets, _ in opts if keep_meeting or not meets]
        for p in ctx.primes:
            yield [
                (p**e, w, advance and meets)
                for e, w, meets, _ in by_res[p % N]
                if keep_meeting or not meets
            ]

    return rows_fn, n_states


def mu_series(
    G: AbelianGroup,
    x: ParamVector,
    omega: OmegaSet,
    gamma: int,
    bound: Fraction,
    prime_table=None,
    cache_dir=None,
) -> GeneratingSeries:
    """The gamma-slice of the full local-mass series, by Euler convolution.

    For empty omega the slice decoration is vacuous and the full product is
    returned for every gamma.  Coefficients match hom-mode profile counts
    on the same slice, a fact the test suite pins against the independent
    tree walk.
    """
    if gamma < 0:
        raise ParamError("gamma must be non-negative")
    ctx = CensusContext(
        G, x, omega, bound=Fraction(bound), checkpoints=[Fraction(bound)],
        prime_table=prime_table, cache_dir=cache_dir,
    )
    T = ctx.t_max
    rows_fn, n_states = _census_rows(ctx, gamma)
    coeffs = _coefficients(_convolve_raw(T, rows_fn, n_states)[-1])
    return GeneratingSeries(
        label=f"mu[gamma={gamma}]",
        scale=ctx.scale,
        bound=Fraction(bound),
        truncation=T,
        coefficients={v: c for v, c in sorted(coeffs.items()) if c},
    )


def pi_series(
    G: AbelianGroup,
    x: ParamVector,
    omega: OmegaSet,
    gamma: int,
    bound: Fraction,
    prime_table=None,
    cache_dir=None,
) -> GeneratingSeries:
    """The gamma-slice of the surjective census series, by enumeration."""
    if gamma < 0:
        raise ParamError("gamma must be non-negative")
    eff_gamma = None if omega.is_empty() else gamma
    coeffs = count_by_index(
        G, x, omega, Fraction(bound), mode="sur", gamma=eff_gamma,
        prime_table=prime_table, cache_dir=cache_dir, as_index_values=False,
    )
    D = x.denominator_scale
    return GeneratingSeries(
        label=f"pi[gamma={gamma}]",
        scale=D,
        bound=Fraction(bound),
        truncation=scaled_threshold(Fraction(bound), D),
        coefficients={v: c for v, c in sorted(coeffs.items()) if c},
    )


# -- the counted-leaf kernel ----------------------------------------------------
#
# The summatory counts come from a walk over internal profiles only: a
# profile whose largest tame prime could still be followed by another.
# Every other profile is a leaf, one prime beyond an internal node, and the
# leaves below a node at value v are counted for every threshold t at once:
# per residue class r mod |G| and option exponent e, the primes p of class r
# past the node's last prime with p**e <= (t-1)//v, one binary search in the
# class's sorted primes (the second phase of the min_25 sieve).  The walk
# runs level by level in numpy: level k holds the internal profiles with k
# tame primes, built from level k - 1 by the same binary searches.


def _pow_le(x: np.ndarray, e: int, q: np.ndarray) -> np.ndarray:
    """Elementwise ``x**e <= q`` for int64 arrays with x >= 1, never overflowing."""
    acc = np.ones_like(x)
    ok = np.ones(x.shape, dtype=bool)
    for _ in range(e):
        ok &= acc <= q // x
        acc = np.where(ok, acc * x, acc)
    return ok


def _iroot(q: np.ndarray, e: int, cap: int) -> np.ndarray:
    """Exact floor(q ** (1/e)) of each entry, as int64.

    An int64 ``q`` gets a float start corrected in integer arithmetic.  An
    object array of Python ints (thresholds past int64) is rooted entry by
    entry, each root capped at ``cap`` so that it fits int64.
    """
    if q.dtype == object:
        flat = [min(integer_nth_root(n, e), cap) for n in q.ravel().tolist()]
        return np.array(flat, dtype=np.int64).reshape(q.shape)
    if e == 1:
        return q
    r = np.floor(np.power(q.astype(np.float64), 1.0 / e)).astype(np.int64)
    while True:
        up = _pow_le(r + 1, e, q)
        down = (r > 0) & ~_pow_le(np.maximum(r, 1), e, q)
        if not (up.any() or down.any()):
            return r
        r += up
        r -= down


def _weighted_leaf_sums(w: np.ndarray, counts: np.ndarray, warn) -> list[int]:
    """Column sums of ``w[i] * counts[i, k]``, exact.

    Summed in int64 when max(w) * max(counts) * rows stays below 2**63,
    otherwise in Python ints after calling ``warn(reason)``.
    """
    if w.dtype != object and int(w.max()) * int(counts.max()) * len(w) < _INT64_BOUND:
        return (w[:, None] * counts).sum(axis=0).tolist()
    warn("a weighted leaf sum could pass int64")
    return (w.astype(object)[:, None] * counts.astype(object)).sum(axis=0).tolist()


class _LeafKernel:
    """Counted-leaf hom sums of one census context, target by target.

    Reads the context's usable tame primes in place (a zero-copy numpy view
    of ``ctx.primes``), filtered per residue group only when a group is not
    all of them, and holds the context's wild combinations; ``hom_slots``
    runs the level-by-level walk for one target subgroup.
    """

    def __init__(self, ctx: CensusContext):
        self.ctx = ctx
        self.primes = np.frombuffer(ctx.primes, dtype=np.int64)
        self._usable = tuple(
            sorted(r for r, opts in ctx.tame_options_by_residue.items() if opts)
        )
        self._residues: np.ndarray | None = None
        self._by_residues: dict[tuple[int, ...], np.ndarray] = {}
        self.combos = [
            c for c in map(ctx.wild_combo, range(ctx.n_wild_combos)) if c is not None
        ]
        # leaf thresholds t - 1, in Python ints once they pass int64
        self.big = ctx.t_max >= _INT64_BOUND
        tq = [t - 1 for t in ctx.thresholds]
        self.tq = np.array(tq, dtype=object if self.big else np.int64)
        self.width = ctx.gamma_cap + 2
        self.rows = max(1, LEAF_CHUNK_CELLS // len(tq))
        self._warned: set[str] = set()
        if self.big:
            self.warn("thresholds reach 2**63")

    def warn(self, reason: str) -> None:
        if reason not in self._warned:
            self._warned.add(reason)
            logging.getLogger("abelian_census.series").warning(
                "counted-leaf sums fall back to Python ints: T=%d, %s",
                self.ctx.t_max, reason,
            )

    def primes_of(self, residues: tuple[int, ...]) -> np.ndarray:
        """The usable primes in the given residue classes mod |G|, ascending."""
        if residues == self._usable:
            return self.primes
        hit = self._by_residues.get(residues)
        if hit is None:
            N = self.ctx.G.order
            if self._residues is None:
                # computed in int64 buffers, stored in the smallest dtype
                small = np.empty(len(self.primes), np.min_scalar_type(N - 1))
                self._residues = np.remainder(self.primes, N, out=small, casting="unsafe")
            chosen = np.zeros(N, dtype=bool)
            chosen[list(residues)] = True
            hit = self.primes[chosen[self._residues]]
            self._by_residues[residues] = hit
        return hit

    def hom_slots(self, target: int, m_cap: int | None) -> list[list[int]]:
        """Hom mass of profiles with images inside ``target``, per slot.

        Returns rows[k][slot] for each threshold k: slots are gamma
        0..gamma_cap and the trailing unsliced slot.  With ``m_cap`` set,
        only slots 0..m_cap and the unsliced slot are counted (and exact).
        """
        ctx = self.ctx
        within = set(ctx.G.subgroup_ids_within(target))
        out = [[0] * self.width for _ in ctx.thresholds]
        roots = [(v, w, int(wm)) for v, w, jid, wm in self.combos if jid in within]
        for v, w, wm in roots:
            slot = self.width - 1 if wm else 0
            for k, t in enumerate(ctx.thresholds):
                if v < t:
                    out[k][slot] += w
        # per residue, the tame options inside the target merged by
        # (exponent, meets), weights summed
        merged: dict[int, tuple[tuple[int, int, int], ...]] = {}
        for r, opts in ctx.tame_options_by_residue.items():
            acc: dict[tuple[int, int], int] = {}
            for e, w, meets, sid in opts:
                if sid in within:
                    acc[(e, int(meets))] = acc.get((e, int(meets)), 0) + w
            if acc:
                merged[r] = tuple(sorted((e, w, f) for (e, f), w in acc.items()))
        if not (merged and roots):
            return out
        queries = self._queries(merged)
        e_min = queries[0][0]
        if m_cap is None:
            m_top = ctx.gamma_cap
        elif any(not f for _, _, fw in queries for f, _ in fw):
            m_top = m_cap
        else:
            m_top = m_cap - 1  # a node at m_cap would only have leaves past it
        ws = [w for _, w, _ in roots]
        wide = max(ws) >= _INT64_BOUND
        if wide:
            self.warn("a frontier weight could pass int64")
        level = (
            np.array([v for v, _, _ in roots], dtype=object if self.big else np.int64),
            np.array(ws, dtype=object if wide else np.int64),
            np.array([wm for _, _, wm in roots], dtype=np.int64),
            np.zeros(len(roots), dtype=np.int64),
        )
        while len(level[0]):
            self._count_leaves(level, queries, m_cap, out)
            level = self._next_level(level, queries, e_min, m_top)
        return out

    def _queries(self, merged) -> list[tuple[int, np.ndarray, list[tuple[int, int]]]]:
        """(exponent e, primes, [(meets, weight), ...]) per option group, by e.

        Residues with the same merged options share one prime array.
        """
        by_opts: dict[tuple, list[int]] = {}
        for r, opts in merged.items():
            by_opts.setdefault(opts, []).append(r)
        queries = []
        for opts, rs in by_opts.items():
            arr = self.primes_of(tuple(sorted(rs)))
            for e in sorted({e for e, _, _ in opts}):
                queries.append((e, arr, [(f, w) for e2, w, f in opts if e2 == e]))
        queries.sort(key=lambda qu: qu[0])
        return queries

    def _next_level(self, level, queries, e_min: int, m_top: int):
        """Every internal profile one tame prime past ``level``, as arrays.

        A level is (value, weight, class 2*m + wild_meets, largest tame
        prime, 0 at a root).  From value v the prime p past the node's last
        prime with option e gives an internal profile while
        v * p**(e + e_min) < t_max and its meet count m stays within m_top.
        """
        V, W, C, P = level
        w_top = max(w for _, _, fw in queries for _, w in fw)
        if W.dtype != object and int(W.max()) * w_top >= _INT64_BOUND:
            self.warn("a frontier weight could pass int64")
            W = W.astype(object)
        M = C >> 1
        q = (self.ctx.t_max - 1) // V
        cap = self.ctx.plimit + 1
        parts = []
        for e, arr, fw in queries:
            lo = np.searchsorted(arr, P, side="right")
            n = np.searchsorted(arr, _iroot(q, e + e_min, cap), side="right") - lo
            np.maximum(n, 0, out=n)
            for f, w in fw:
                cnt = np.where(M + f <= m_top, n, 0)
                total = int(cnt.sum())
                if not total:
                    continue
                node = np.repeat(np.arange(len(V)), cnt)
                # child j of a node takes the prime at lo + j
                p = arr[np.arange(total) + np.repeat(lo - (np.cumsum(cnt) - cnt), cnt)]
                pe = p.astype(object) ** e if V.dtype == object else p**e
                parts.append((V[node] * pe, W[node] * w, C[node] + 2 * f, p))
        if not parts:
            return tuple(a[:0] for a in (V, W, C, P))
        if len(parts) == 1:
            return parts[0]
        return tuple(np.concatenate(col) for col in zip(*parts))

    def _count_leaves(self, level, queries, m_cap, out) -> None:
        """Add the weighted leaves below every node of ``level`` to ``out``."""
        V, W, C, P = level
        unsliced = self.width - 1
        order = np.argsort(C, kind="stable")
        classes, firsts = np.unique(C[order], return_index=True)
        ends = firsts[1:].tolist() + [len(order)]
        for c, lo, hi in zip(classes.tolist(), firsts.tolist(), ends):
            m, wm = divmod(c, 2)
            plan = []
            for e, arr, fw in queries:
                slots = [
                    (m + f if m + f else (unsliced if wm else 0), w)
                    for f, w in fw
                    if m_cap is None or m + f <= m_cap
                ]
                if slots:
                    plan.append((e, arr, slots))
            if not plan:
                continue
            for a in range(lo, hi, self.rows):
                sel = order[a : min(a + self.rows, hi)]
                q = self.tq[None, :] // V[sel][:, None]
                start = P[sel]
                root, root_e = None, None
                for e, arr, slots in plan:
                    if e != root_e:
                        root, root_e = _iroot(q, e, self.ctx.plimit + 1), e
                    cnt = np.searchsorted(arr, root, side="right")
                    cnt -= np.searchsorted(arr, start, side="right")[:, None]
                    np.maximum(cnt, 0, out=cnt)
                    sums = _weighted_leaf_sums(W[sel], cnt, self.warn)
                    for slot, w in slots:
                        for k, s in enumerate(sums):
                            out[k][slot] += w * s


def _slot_rows(
    ctx: CensusContext, modes: Sequence[str], m_cap: int | None
) -> dict[str, list[list[int]]]:
    """Slot counts of the context per mode, rows[k][slot] below thresholds[k].

    "hom" is the kernel's mass for the whole group; "sur" comes from the
    subgroup recursion (surjective mass onto a subgroup is its hom mass
    minus the surjective mass onto every proper subgroup), slot by slot.
    """
    kernel = _LeafKernel(ctx)
    G = ctx.G
    full = G.full_subgroup_id
    if "sur" not in modes:
        return {"hom": kernel.hom_slots(full, m_cap)}
    subs = G.subgroups()
    hom: dict[int, list[list[int]]] = {}
    sur: dict[int, list[list[int]]] = {}
    for sid in sorted(range(len(subs)), key=lambda i: (subs[i].order, i)):
        hom[sid] = kernel.hom_slots(sid, m_cap)
        inner = [j for j in G.subgroup_ids_within(sid) if j != sid]
        sur[sid] = [
            [h - sum(sur[j][k][s] for j in inner) for s, h in enumerate(row)]
            for k, row in enumerate(hom[sid])
        ]
    return {"hom": hom[full], "sur": sur[full]}


def convolution_table(
    G: AbelianGroup,
    x: ParamVector,
    omega: OmegaSet,
    bound: Fraction,
    checkpoints: Sequence[Fraction] | None = None,
    prime_table=None,
    cache_dir=None,
) -> CensusTable:
    """The whole census table, both modes and every slice, without the walk.

    A second, independent route to the table ``enumerate_census`` builds:
    hom mass from the counted-leaf kernel (only internal profiles are
    visited, level by level; the leaf primes below each one are counted by
    binary search), sur mass from the subgroup recursion applied to whole
    slot arrays.  Memory stays O(tame primes + the widest level), so
    truncations far past 10^8 are counted exactly.
    """
    ctx = CensusContext(
        G, x, omega, bound=Fraction(bound), checkpoints=checkpoints,
        prime_table=prime_table, cache_dir=cache_dir,
    )
    rows = _slot_rows(ctx, ("hom", "sur"), None)
    return CensusTable(
        group_factors=G.invariant_factors,
        params=tuple(x.values),
        omega_classes=omega.class_indices,
        checkpoints=ctx.checkpoints,
        checkpoint_power=ctx.power,
        thresholds=ctx.thresholds,
        scale=ctx.scale,
        sur=[row[:-1] for row in rows["sur"]],
        hom=[row[:-1] for row in rows["hom"]],
        unsliced_sur=[row[-1] for row in rows["sur"]],
        unsliced_hom=[row[-1] for row in rows["hom"]],
    )


def convolution_counts(
    G: AbelianGroup,
    x: ParamVector,
    omega: OmegaSet,
    bound: Fraction,
    checkpoints: Sequence[Fraction] | None = None,
    gamma: int | None = None,
    mode: str = "hom",
    prime_table=None,
    cache_dir=None,
) -> list[tuple[Fraction, int]]:
    """Summatory census counts at each checkpoint, without the walk.

    One slice of ``convolution_table`` (or its totals): ``gamma`` selects
    the slice, None (or empty omega) gives totals over all profiles, and
    ``mode`` is "hom" or "sur".  A call for one slice skips the internal
    profiles whose tame omega-meeting count already passes ``gamma``.
    """
    if gamma is not None and gamma < 0:
        raise ParamError("gamma must be non-negative")
    if mode not in ("sur", "hom"):
        raise ParamError(f"mode must be 'sur' or 'hom', got {mode!r}")
    ctx = CensusContext(
        G, x, omega, bound=Fraction(bound), checkpoints=checkpoints,
        prime_table=prime_table, cache_dir=cache_dir,
    )
    sliced = gamma is not None and not ctx.omega.is_empty()
    rows = _slot_rows(ctx, (mode,), gamma if sliced else None)[mode]
    if not sliced:
        counts = [sum(row) for row in rows]
    elif gamma <= ctx.gamma_cap:
        counts = [row[gamma] for row in rows]
    else:
        counts = [0] * len(rows)
    return list(zip(ctx.checkpoints, counts))


def _series_mul(
    a: dict[int, int], b: dict[int, int], T: int
) -> dict[int, int]:
    out: dict[int, int] = {}
    for va, ca in a.items():
        if va >= T:
            continue
        for vb, cb in b.items():
            v = va * vb
            if v < T:
                out[v] = out.get(v, 0) + ca * cb
    return out


def psi_series(
    G: AbelianGroup,
    x: ParamVector,
    omega: OmegaSet,
    gamma: int,
    bound: Fraction,
    prime_table=None,
    cache_dir=None,
) -> GeneratingSeries:
    """Admissible-partition upper bound for the gamma-slice of pi.

    wild factor (all images) x omega-avoiding tame factor x the sum over
    admissible partitions of per-class products of ``n_k`` distinct-prime
    terms.  Primes are distinct within one class factor but may coincide
    across classes or with the avoiding factor, which is exactly why this
    over-counts pi.  Empty when no partition is admissible (with a warning).
    """
    if omega.is_empty():
        raise NotApplicableError("psi requires a nonempty omega")
    ctx = CensusContext(
        G, x, omega, bound=Fraction(bound), checkpoints=[Fraction(bound)],
        prime_table=prime_table, cache_dir=cache_dir,
    )
    T = ctx.t_max
    parts = admissible_partitions(G, omega, gamma)
    if not parts:
        warnings.warn(
            f"no admissible partition of gamma={gamma}; psi is empty",
            stacklevel=2,
        )
        return GeneratingSeries(
            label=f"psi[gamma={gamma}]", scale=ctx.scale,
            bound=Fraction(bound), truncation=T, coefficients={},
        )
    g_min, _ = gamma_x(G, x, omega)
    if gamma < g_min:
        raise ParamError(f"gamma={gamma} is below gamma_x={g_min}")
    # every wild image times the omega-avoiding tame options: state 0 of the
    # sliced rows, run with no room to advance
    rows_fn, _ = _census_rows(ctx, 1)
    base = _coefficients(_convolve_raw(T, rows_fn, 1)[0])

    xi = xi_classes(G, omega)
    max_parts = [max(comp[k] for comp in parts) for k in range(len(xi))]
    elem: list[list[dict[int, int]]] = []
    poset = G.class_poset()
    subs = G.subgroups()
    for k, ci in enumerate(xi):
        elem.append(
            _elementary_sums(ctx, subs[poset.classes[ci].subgroup_id].order,
                             x.scaled(ci), max_parts[k], T)
        )
    total: dict[int, int] = {}
    for comp in parts:
        term = {1: 1}
        for k, n_k in enumerate(comp):
            if n_k:
                term = _series_mul(term, elem[k][n_k], T)
        for v, c in term.items():
            total[v] = total.get(v, 0) + c
    coeffs = _series_mul(base, total, T)
    return GeneratingSeries(
        label=f"psi[gamma={gamma}]",
        scale=ctx.scale,
        bound=Fraction(bound),
        truncation=T,
        coefficients={v: c for v, c in sorted(coeffs.items()) if c},
    )


def _elementary_sums(
    ctx: CensusContext, order: int, scaled_exp: int, n_max: int, T: int
) -> list[dict[int, int]]:
    """E_0..E_n over distinct ascending primes p ≡ 1 (mod order), p tame.

    Each chosen prime contributes phi(order) * p^{-scaled_exp * s}.
    """
    from .groups import euler_phi

    w = euler_phi(order)
    st: list[dict[int, int]] = [{1: 1}] + [dict() for _ in range(n_max)]
    for p in ctx.primes:
        if (p - 1) % order:
            continue
        pe = p**scaled_exp
        if pe >= T:
            break
        for j in range(n_max - 1, -1, -1):
            if not st[j]:
                continue
            dst = st[j + 1]
            for v, c in st[j].items():
                v2 = v * pe
                if v2 < T:
                    dst[v2] = dst.get(v2, 0) + w * c
    return st


def tau_series(
    G: AbelianGroup,
    x: ParamVector,
    omega: OmegaSet,
    gamma: int,
    bound: Fraction,
    prime_table=None,
    cache_dir=None,
    scan_cap: int = 10**6,
) -> GeneratingSeries:
    """Witness-anchored lower bound for the gamma-slice of pi.

    A delta-minimizing family with exactly gamma omega-meeting slots is
    realized at concrete primes; its omega-avoiding part fixes the anchor
    value d0 and the largest anchor prime q.  The series then sums, over
    ascending chains of gamma primes ≡ 1 (mod |G|) beyond q (weight one
    each, block exponents following the witness partition) and over
    omega-avoiding options at the remaining primes beyond q, the value
    d0 * chain * avoid.  Every term names a genuine surjection, so tau ≤ pi
    coefficientwise.
    """
    if omega.is_empty():
        raise NotApplicableError("tau requires a nonempty omega")
    witness = tau_witness(G, x, omega, gamma, scan_cap=scan_cap)
    ctx = CensusContext(
        G, x, omega, bound=Fraction(bound), checkpoints=[Fraction(bound)],
        prime_table=prime_table, cache_dir=cache_dir,
    )
    T = ctx.t_max
    d0 = theta(G, witness.anchor, x).scaled_value
    if d0 >= T:
        return GeneratingSeries(
            label=f"tau[gamma={gamma}]", scale=ctx.scale,
            bound=Fraction(bound), truncation=T, coefficients={},
        )
    T2 = (T - 1) // d0 + 1
    q = witness.anchor_q
    block_exp: list[int] = []
    for ci, mult in witness.partition:
        block_exp.extend([x.scaled(ci)] * mult)
    assert len(block_exp) == gamma
    N = G.order
    by_res = ctx.tame_options_by_residue
    st: list[dict[int, int]] = [{1: 1}] + [dict() for _ in range(gamma)]
    for p in ctx.primes:
        if p <= q:
            continue
        writes: list[tuple[int, int, int]] = []
        if (p - 1) % N == 0:
            for j in range(gamma):
                if not st[j]:
                    continue
                pe = p ** block_exp[j]
                for v, c in st[j].items():
                    v2 = v * pe
                    if v2 < T2:
                        writes.append((j + 1, v2, c))
        for e, w, meets, _sid in by_res[p % N]:
            if meets:
                continue
            pe = p**e
            if pe >= T2:
                continue
            for j in range(gamma + 1):
                for v, c in st[j].items():
                    v2 = v * pe
                    if v2 < T2:
                        writes.append((j, v2, w * c))
        for j, v2, wc in writes:
            st[j][v2] = st[j].get(v2, 0) + wc
    coeffs = {d0 * v: c for v, c in st[gamma].items() if d0 * v < T}
    return GeneratingSeries(
        label=f"tau[gamma={gamma}]",
        scale=ctx.scale,
        bound=Fraction(bound),
        truncation=T,
        coefficients={v: c for v, c in sorted(coeffs.items()) if c},
    )


# -- analytic shape ------------------------------------------------------------


@dataclass(frozen=True)
class SingularityData:
    """Location and type of the rightmost singularity of the slice series."""

    sigma0: Fraction
    pole_order: int
    log_power: int
    case: int
    x1: Fraction
    x0: Fraction | None
    beta: int | None
    delta: int
    gamma: int
    loglog_ambiguous: bool


def singularity_data(
    G: AbelianGroup, x: ParamVector, omega: OmegaSet, gamma: int
) -> SingularityData:
    """Singularity of the gamma-slice series per the two-case analysis.

    Case 1 (empty omega, or every omega-related parameter above the
    minimum): plain pole of order beta at 1/x1.  Case 2 (the minimum is
    attained on a xi-class): the pole persists only when the off-omega
    minimum x0 also equals x1, and a log-power gamma - delta_x appears.
    """
    x1 = min(x.values)
    sigma0 = 1 / x1
    if omega.is_empty():
        x0, beta = beta_aggregate(G, x, omega)
        return SingularityData(
            sigma0=sigma0, pole_order=beta, log_power=0, case=1,
            x1=x1, x0=x0, beta=beta, delta=0, gamma=gamma,
            loglog_ambiguous=False,
        )
    g_min, _ = gamma_x(G, x, omega)
    if gamma < g_min:
        raise ParamError(f"gamma={gamma} is below gamma_x={g_min}")
    d, _ = delta_x(G, x, omega)
    xi = xi_classes(G, omega)
    x_xi = min(x[i] for i in xi)
    x0, beta = beta_aggregate(G, x, omega)
    if x_xi > x1:
        return SingularityData(
            sigma0=sigma0, pole_order=beta, log_power=0, case=1,
            x1=x1, x0=x0, beta=beta, delta=d, gamma=gamma,
            loglog_ambiguous=False,
        )
    pole = beta if x0 == x1 else 0
    return SingularityData(
        sigma0=sigma0, pole_order=pole, log_power=gamma - d, case=2,
        x1=x1, x0=x0, beta=beta, delta=d, gamma=gamma,
        loglog_ambiguous=(pole == 0),
    )


@dataclass(frozen=True)
class AsymptoticShape:
    """Descriptor of x^a (log x)^b (log log x)^c with the leading constant."""

    x_exponent: Fraction
    log_exponent: int
    loglog_exponent: int
    loglog_alternatives: tuple[int, ...]
    constant_descriptor: str
    gamma_value: float | None


def delange_shape(sd: SingularityData) -> AsymptoticShape:
    """Tauberian translation of a singularity into a growth shape.

    A pole of order beta gives (log x)^(beta-1); the pole-free branch
    trades one log log for a 1/log x.  The log log exponent for the
    pole-free branch carries a documented off-by-one ambiguity, exposed in
    ``loglog_alternatives``.
    """
    if sd.pole_order == 0 and sd.log_power == 0:
        raise NotApplicableError(
            "no pole and no log power: the translation does not apply"
        )
    if sd.pole_order > 0:
        return AsymptoticShape(
            x_exponent=sd.sigma0,
            log_exponent=sd.pole_order - 1,
            loglog_exponent=sd.log_power,
            loglog_alternatives=(sd.log_power,),
            constant_descriptor=f"g(sigma0)/Gamma({sd.pole_order})",
            gamma_value=float(_gamma_function(sd.pole_order)),
        )
    return AsymptoticShape(
        x_exponent=sd.sigma0,
        log_exponent=-1,
        loglog_exponent=sd.log_power - 1,
        loglog_alternatives=(sd.log_power - 1, sd.log_power),
        constant_descriptor=f"{sd.log_power} * g_{sd.log_power}(sigma0) (unverified)",
        gamma_value=None,
    )


# -- empirical fits ------------------------------------------------------------


@dataclass(frozen=True)
class FitResult:
    x_exponent: float
    log_exponent: float
    intercept: float
    residual_max: float
    stability: float
    n_points: int
    decades: float


def fit_exponents(
    data,
    mode: str = "sur",
    gamma: int | None = None,
    min_points: int = 8,
    min_decades: float = 3.0,
) -> FitResult:
    """Least squares of log N against log X and log log X.

    ``data`` is a CensusTable (counts taken from ``mode`` totals, or from
    the gamma-slice when ``gamma`` is given) or an iterable of (X, N)
    pairs.  Checkpoints with N <= 0 are dropped; X <= e is unusable since
    log log X must be positive.  The stability score is the largest change
    in either exponent when the first half of the points is discarded.
    """
    points = _fit_points(data, mode, gamma)
    points = [(x, n) for x, n in points if n > 0 and log(x) > 1.0]
    if len(points) < min_points:
        raise FitError(
            f"{len(points)} usable checkpoints; need at least {min_points}"
        )
    xs = np.array([x for x, _ in points], dtype=float)
    decades = float(np.log10(xs.max() / xs.min()))
    if decades < min_decades:
        raise FitError(f"{decades:.2f} decades of range; need {min_decades}")
    sol, res = _lstsq_loglog(points)
    half = points[len(points) // 2 :]
    if len(half) >= 3:
        sol2, _ = _lstsq_loglog(half)
        stability = float(
            max(abs(sol[0] - sol2[0]), abs(sol[1] - sol2[1]))
        )
    else:
        stability = float("nan")
    return FitResult(
        x_exponent=float(sol[0]),
        log_exponent=float(sol[1]),
        intercept=float(sol[2]),
        residual_max=res,
        stability=stability,
        n_points=len(points),
        decades=decades,
    )


def _fit_points(data, mode: str, gamma: int | None) -> list[tuple[float, int]]:
    if isinstance(data, CensusTable):
        out = []
        for ci, cp in enumerate(data.checkpoints):
            n = (
                data.total_count(mode, ci)
                if gamma is None
                else data.slice_count(mode, ci, gamma)
            )
            out.append((float(cp), n))
        return out
    return [(float(x), int(n)) for x, n in data]


def _lstsq_loglog(points) -> tuple[np.ndarray, float]:
    xs = np.array([x for x, _ in points], dtype=float)
    ns = np.array([n for _, n in points], dtype=float)
    A = np.column_stack([np.log(xs), np.log(np.log(xs)), np.ones(len(xs))])
    y = np.log(ns)
    sol, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = float(np.abs(A @ sol - y).max())
    return sol, resid


@dataclass(frozen=True)
class RatioTrend:
    ratios: tuple[tuple[float, float | None], ...]
    window_means: tuple[float, ...]
    classification: str


def ratio_R(
    gamma1: int,
    gamma2: int,
    table,
    mode: str = "sur",
    n_windows: int = 4,
    decline: float = RATIO_DECLINE,
    growth: float = RATIO_GROWTH,
) -> RatioTrend:
    """Finite-X ratios of two gamma-slices with a qualitative trend call.

    ``table`` is a CensusTable, or a mapping from gamma to checkpoint pairs
    [(X, N), ...] as produced by convolution_counts (both slices must share
    the same checkpoints).  Classifications: "to-zero" when window means
    decrease monotonically and the overall decline passes the threshold;
    "growing" for the mirror image; "bounded-positive" otherwise;
    "undefined" when the denominator slice vanishes at the top checkpoints
    or too few ratios exist.
    """
    ratios: list[tuple[float, float | None]] = []
    if isinstance(table, CensusTable):
        for ci, cp in enumerate(table.checkpoints):
            num = table.slice_count(mode, ci, gamma1)
            den = table.slice_count(mode, ci, gamma2)
            ratios.append((float(cp), (num / den) if den else None))
    else:
        try:
            top = list(table[gamma1])
            bot = list(table[gamma2])
        except (KeyError, TypeError) as exc:
            raise ParamError(
                f"ratio_R needs slice data for gamma={gamma1} and gamma={gamma2}"
            ) from exc
        if [x for x, _ in top] != [x for x, _ in bot]:
            raise ParamError("slice data checkpoints do not match")
        for (cp, num), (_, den) in zip(top, bot):
            ratios.append((float(cp), (num / den) if den else None))
    valid = [r for _, r in ratios if r is not None]
    if not valid or ratios[-1][1] is None:
        return RatioTrend(tuple(ratios), (), "undefined")
    k = max(1, len(valid) // n_windows)
    windows = [valid[i : i + k] for i in range(0, len(valid), k)]
    if len(windows[-1]) < k and len(windows) > 1:
        windows[-2].extend(windows.pop())
    means = tuple(sum(w) / len(w) for w in windows)
    if len(means) < 3:
        return RatioTrend(tuple(ratios), means, "undefined")
    overall = means[-1] / means[0] if means[0] else float("inf")
    decreasing = all(means[i + 1] < means[i] for i in range(len(means) - 1))
    increasing = all(means[i + 1] > means[i] for i in range(len(means) - 1))
    if decreasing and overall <= decline:
        cls = "to-zero"
    elif increasing and overall >= growth:
        cls = "growing"
    else:
        cls = "bounded-positive"
    return RatioTrend(tuple(ratios), means, cls)


def scaling_check(
    G: AbelianGroup, x: ParamVector, a: Fraction, bound: Fraction
) -> bool:
    """True iff every slice of the census is invariant under x -> a*x, X -> X^a."""
    from .groups import make_params

    a = Fraction(a)
    if a <= 0:
        raise ParamError("the scaling factor must be positive")
    bound = Fraction(bound)
    cps = geometric_checkpoints(bound)
    omega = OmegaSet(class_indices=(), elements=frozenset())
    base = enumerate_census(G, x, omega, bound, checkpoints=cps)
    scaled = make_params(G, [v * a for v in x.values])
    other = enumerate_census(
        G, scaled, omega, bound, checkpoints=cps, power=a
    )
    for ci in range(len(cps)):
        for mode in ("sur", "hom"):
            if base.total_count(mode, ci) != other.total_count(mode, ci):
                return False
            if base.unsliced_count(mode, ci) != other.unsliced_count(mode, ci):
                return False
            top = max(base.gamma_cap, other.gamma_cap)
            for g in range(top + 1):
                if base.slice_count(mode, ci, g) != other.slice_count(mode, ci, g):
                    return False
    return True
