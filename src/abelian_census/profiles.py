"""Ramification profiles and the exact census enumeration.

A profile assigns a nontrivial subgroup (the local image) to finitely many
primes.  Its index value is the product of p^(D*x(H_p)) over assigned
primes, where D is the common denominator of the parameter vector, so all
threshold comparisons are big-integer exact: "theta < X^r" for rational r
is decided by one precomputed integer threshold per checkpoint.

The census walks profiles depth-first: wild primes (divisors of |G|) form a
dedicated root layer, then tame primes are assigned in increasing order.
Options at a tame prime depend only on p mod |G| and are precomputed per
residue.  Every node of the tree is one profile; hom mass (product of local
surjection counts) and sur mass (same, when the images generate the target)
are tallied in a single pass, sliced by the tame omega-meeting count gamma.

One walker, ``walk_task``, visits the profiles of a task and hands each to
a pluggable sink: ``run_task`` buckets them into checkpoint diffs for the
census table, ``count_by_index`` keeps per-value coefficients.

Work is split into deterministic tasks — (wild-image combination) x (residue
of the first assigned tame prime's position, mod TASK_BUCKETS) — that merge
by pointwise integer addition, so results are identical for any worker
count or schedule.  Worker processes are forked from the caller and inherit
its context, so they read no prime table of their own.
"""

from __future__ import annotations

import multiprocessing
import sys
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from heapq import merge
from math import gcd, isqrt, log, prod
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import CensusError, ParamError, ResourceCapError
from .groups import AbelianGroup, OmegaSet, ParamVector, x_of_subgroup
from .local_counts import SurTable, wild_images
from .sieve import PrimeTable, load_prime_table

__all__ = [
    "RamificationProfile",
    "IndexValue",
    "CensusTable",
    "CensusContext",
    "theta",
    "indicator_gamma",
    "weight",
    "is_generating",
    "enumerate_census",
    "merge_task_table",
    "count_by_index",
    "integer_nth_root",
    "scaled_threshold",
    "geometric_checkpoints",
    "TASK_BUCKETS",
]

TASK_BUCKETS = 16


# -- exact threshold arithmetic ------------------------------------------------


def integer_nth_root(n: int, k: int) -> int:
    """floor(n ** (1/k)) for non-negative integers, exactly."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if k < 1:
        raise ValueError("k must be >= 1")
    if n in (0, 1) or k == 1:
        return n
    if k == 2:
        return isqrt(n)
    x = 1 << ((n.bit_length() + k - 1) // k)  # upper-ish start for Newton
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x ** k > n:
        x -= 1
    while (x + 1) ** k <= n:
        x += 1
    return x


def scaled_threshold(bound: Fraction, scale: int, power: Fraction = Fraction(1)) -> int:
    """Smallest integer T with: v < T  iff  v < bound**(power*scale), for ints v >= 0.

    This turns the strict comparison theta < bound**power into a single
    integer comparison on the D-scaled value v = theta**D (D = ``scale``),
    exactly, even when bound**power is irrational.
    """
    bound = Fraction(bound)
    if bound <= 0:
        raise ParamError(f"bound must be positive, got {bound}")
    r = Fraction(power) * scale
    if r <= 0:
        raise ParamError(f"power*scale must be positive, got {r}")
    alpha, beta = r.numerator, r.denominator
    num = bound.numerator**alpha
    den = bound.denominator**alpha
    # floor of (num/den)^(1/beta), then exactness adjustment
    t = integer_nth_root(num // den, beta)
    while (t + 1) ** beta * den <= num:
        t += 1
    while t > 0 and t**beta * den > num:
        t -= 1
    exact = t**beta * den == num
    return t if exact else t + 1


def geometric_checkpoints(bound: Fraction, ratio: int = 2, floor: int = 2) -> tuple[Fraction, ...]:
    """Halving checkpoint schedule bound, bound/2, ..., down to >= floor, ascending."""
    bound = Fraction(bound)
    points = []
    current = bound
    while current >= floor:
        points.append(current)
        current = current / ratio
    if not points:
        points.append(bound)
    return tuple(reversed(points))


# -- profile-level types and operations ----------------------------------------


@dataclass(frozen=True)
class RamificationProfile:
    """Finitely many prime -> subgroup-id assignments (nontrivial images)."""

    assignments: tuple[tuple[int, int], ...]

    def __post_init__(self):
        last = 1
        for p, sid in self.assignments:
            if p <= last:
                raise CensusError("profile primes must be distinct and ascending")
            if not _is_prime(p):
                raise CensusError(f"profile key {p} is not prime")
            if sid == 0:
                raise CensusError("profile images must be nontrivial subgroups")
            last = p

    @classmethod
    def from_dict(cls, assignments: dict[int, int]) -> "RamificationProfile":
        return cls(tuple(sorted(assignments.items())))


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class IndexValue:
    """A value of the multiplicative invariant, as D-scaled prime exponents.

    Two IndexValues are equal iff their exponent maps agree; the scaled
    integer representative prod(p^e) is faithful by unique factorization.
    """

    scale: int
    exponents: tuple[tuple[int, int], ...]

    @cached_property
    def scaled_value(self) -> int:
        return prod(p**e for p, e in self.exponents)

    def log_value(self) -> float:
        """Natural log of the (unscaled) invariant value."""
        return sum(e * log(p) for p, e in self.exponents) / self.scale

    @classmethod
    def from_scaled(cls, value: int, scale: int, primes: Iterable[int]) -> "IndexValue":
        """Recover the exponent map of a scaled integer by trial division.

        ``primes`` must be ascending and contain every prime factor of
        ``value`` up to its square root; a single larger prime factor is
        recovered automatically.
        """
        exps = []
        rest = value
        for p in primes:
            if p * p > rest:
                break
            if rest % p == 0:
                e = 0
                while rest % p == 0:
                    rest //= p
                    e += 1
                exps.append((int(p), e))
        if rest > 1:
            exps.append((int(rest), 1))
        return cls(scale=scale, exponents=tuple(sorted(exps)))


def theta(G: AbelianGroup, profile: RamificationProfile, x: ParamVector) -> IndexValue:
    """The invariant of a profile: exponent D*x(H_p) at each assigned prime."""
    D = x.denominator_scale
    exps = []
    for p, sid in profile.assignments:
        e = x_of_subgroup(G, sid, x) * D
        exps.append((p, e.numerator))
    return IndexValue(scale=D, exponents=tuple(exps))


def indicator_gamma(
    G: AbelianGroup,
    profile: RamificationProfile,
    omega: OmegaSet,
    gammas: Sequence[int] = (),
) -> tuple[int, tuple[bool, ...]]:
    """Tame omega-meeting count and the requested slice flags.

    The gamma = 0 flag requires that NO prime, wild included, has an image
    meeting omega; flags for gamma >= 1 only constrain tame primes.
    """
    subs = G.subgroups()
    gamma_tame = 0
    wild_meets = False
    for p, sid in profile.assignments:
        if omega.meets(subs[sid].members):
            if G.order % p == 0:
                wild_meets = True
            else:
                gamma_tame += 1
    flags = tuple(
        (gamma_tame == 0 and not wild_meets) if g == 0 else gamma_tame == g
        for g in gammas
    )
    return gamma_tame, flags


def weight(G: AbelianGroup, profile: RamificationProfile) -> int:
    """Number of homomorphism tuples realizing exactly these local images."""
    table = SurTable(G)
    return prod(table.sur(p, sid) for p, sid in profile.assignments)


def is_generating(G: AbelianGroup, profile: RamificationProfile) -> bool:
    """True iff the assigned images together generate the whole group."""
    jid = 0
    for _, sid in profile.assignments:
        jid = G.join_id(jid, sid)
    return jid == G.full_subgroup_id


# -- the census table ------------------------------------------------------------


@dataclass
class CensusTable:
    """Exact counts at each checkpoint, sliced by gamma.

    ``sur[ci][g]`` / ``hom[ci][g]`` count (weighted) profiles with value
    below checkpoint ci whose tame omega-meeting count is g and, for g = 0,
    with no omega-meeting wild prime either; profiles with gamma_tame = 0
    but an omega-meeting wild image sit in ``unsliced_*``.  Slices are wide
    enough to exhaust every attainable gamma, so at each checkpoint:
    total = sum of slices + unsliced, for both modes.
    """

    group_factors: tuple[int, ...]
    params: tuple[Fraction, ...]
    omega_classes: tuple[int, ...]
    checkpoints: tuple[Fraction, ...]
    checkpoint_power: Fraction
    thresholds: tuple[int, ...]
    scale: int
    sur: list[list[int]]
    hom: list[list[int]]
    unsliced_sur: list[int]
    unsliced_hom: list[int]

    @property
    def gamma_cap(self) -> int:
        return len(self.sur[0]) - 1 if self.sur else 0

    def slice_count(self, mode: str, ci: int, g: int) -> int:
        rows = self._rows(mode)
        return rows[ci][g] if g <= self.gamma_cap else 0

    def unsliced_count(self, mode: str, ci: int) -> int:
        return (self.unsliced_sur if mode == "sur" else self.unsliced_hom)[ci]

    def total_count(self, mode: str, ci: int) -> int:
        rows = self._rows(mode)
        return sum(rows[ci]) + self.unsliced_count(mode, ci)

    def _rows(self, mode: str) -> list[list[int]]:
        if mode == "sur":
            return self.sur
        if mode == "hom":
            return self.hom
        raise CensusError(f"mode must be 'sur' or 'hom', got {mode!r}")

    def max_nonzero_gamma(self) -> int:
        top = 0
        for rows in (self.sur, self.hom):
            for row in rows:
                for g in range(len(row) - 1, -1, -1):
                    if row[g]:
                        top = max(top, g)
                        break
        return top


# -- precomputed enumeration context ---------------------------------------------


class CensusContext:
    """Everything the enumeration needs, precomputed once per run.

    It holds the wild options per wild prime, the one tame-option table
    ``tame_options_by_residue`` (options depend only on p mod |G|), the
    prime limit ``plimit`` past which no single tame assignment stays
    below the largest threshold, and ``primes``: the usable tame primes up
    to ``plimit`` (those whose residue has options), ascending, as an
    ``array("q")`` so that indexing yields Python ints.  The walk and the
    counted-leaf kernel both read these.

    ``target_id`` restricts images to a subgroup T and makes "sur" mean
    "images generate T" (used by the subgroup-recursion identity); the
    default target is the whole group.
    """

    def __init__(
        self,
        G: AbelianGroup,
        x: ParamVector,
        omega: OmegaSet,
        bound: Fraction,
        checkpoints: Sequence[Fraction] | None = None,
        power: Fraction = Fraction(1),
        target_id: int | None = None,
        prime_table: PrimeTable | None = None,
        cache_dir=None,
    ):
        if len(x) != len(G.class_poset()):
            raise ParamError(
                f"parameter vector has {len(x)} entries for {len(G.class_poset())} classes"
            )
        self.G = G
        self.x = x
        self.omega = omega
        self.bound = Fraction(bound)
        self.power = Fraction(power)
        if checkpoints is None:
            checkpoints = geometric_checkpoints(self.bound)
        pts = tuple(Fraction(c) for c in checkpoints)
        if any(pts[i] >= pts[i + 1] for i in range(len(pts) - 1)):
            raise ParamError("checkpoints must be strictly increasing")
        if pts[-1] != self.bound:
            raise ParamError("the largest checkpoint must equal the bound")
        self.checkpoints = pts
        D = x.denominator_scale
        self.scale = D
        self.thresholds = tuple(scaled_threshold(c, D, self.power) for c in pts)
        self.t_max = self.thresholds[-1]
        self.target_id = G.full_subgroup_id if target_id is None else target_id

        subs = G.subgroups()
        poset = G.class_poset()
        target_members = subs[self.target_id].members
        table = SurTable(G)
        omega_elems = omega.elements

        # Wild layer: per wild prime, the nontrivial attainable images inside
        # the target, as (scaled p^e, weight, meets, subgroup id), cheap first.
        self.wild_primes: tuple[int, ...] = tuple(
            p for p in range(2, G.order + 1) if G.order % p == 0 and _is_prime(p)
        )
        self.wild_options: list[tuple[tuple[int, int, bool, int], ...]] = []
        for p in self.wild_primes:
            opts = []
            for sid in wild_images(p, G):
                if sid == 0 or not subs[sid].members <= target_members:
                    continue
                e = (x_of_subgroup(G, sid, x) * D).numerator
                opts.append(
                    (p**e, table.sur(p, sid), not omega_elems.isdisjoint(subs[sid].members), sid)
                )
            opts.sort(key=lambda o: (o[0], o[3]))
            self.wild_options.append(tuple(opts))
        self._combo_radix = [len(o) + 1 for o in self.wild_options]
        self.n_wild_combos = prod(self._combo_radix) if self._combo_radix else 1

        # Tame layer: options per residue class mod |G|, as
        # (scaled exponent, weight, meets, subgroup id) sorted by exponent.
        N = G.order
        self.tame_options_by_residue: dict[int, tuple[tuple[int, int, bool, int], ...]] = {}
        cyclic_classes = [
            (c.index, subs[c.subgroup_id], c.subgroup_id) for c in poset.classes
        ]
        for r in range(1, N):
            if gcd(r, N) != 1:
                continue
            opts = []
            for ci, sub, sid in cyclic_classes:
                if not sub.members <= target_members:
                    continue
                if (r - 1) % sub.order:
                    continue  # needs |H| dividing p - 1
                e = x.scaled(ci)
                w = _phi_order(sub.order)
                opts.append((e, w, not omega_elems.isdisjoint(sub.members), sid))
            opts.sort(key=lambda o: (o[0], o[3]))
            self.tame_options_by_residue[r] = tuple(opts)

        all_tame_exps = [
            e
            for opts in self.tame_options_by_residue.values()
            for (e, _, _, _) in opts
        ]
        self.e_min_tame = min(all_tame_exps) if all_tame_exps else None
        # Sound gamma ceiling: each tame omega-meeting prime multiplies the
        # scaled value by at least 2^e_meet, so gamma is bounded by the bit
        # length of the largest threshold.
        tame_meet_exps = [
            e
            for opts in self.tame_options_by_residue.values()
            for (e, _, m, _) in opts
            if m
        ]
        if tame_meet_exps:
            self.gamma_cap = self.t_max.bit_length() // min(tame_meet_exps) + 1
        else:
            self.gamma_cap = 0

        # Usable tame primes: below the largest value a single cheapest
        # assignment keeps under the threshold, with nonempty options.
        if self.e_min_tame is not None and self.t_max > 1:
            self.plimit = integer_nth_root(self.t_max - 1, self.e_min_tame)
        else:
            self.plimit = 0
        if prime_table is None or prime_table.limit < self.plimit:
            prime_table = load_prime_table(max(self.plimit, 2), cache_dir=cache_dir)
        candidates = prime_table.up_to(max(self.plimit, 1))
        # an array of Python ints: the walker's v * p**e must not wrap int64
        self.primes = array("q")
        if all(self.tame_options_by_residue.values()):
            # every unit residue has options: only the primes dividing |G|
            # fall out, and they all sit below |G|
            head = int(np.searchsorted(candidates, N, side="right"))
            self.primes.extend(p for p in candidates[:head].tolist() if N % p)
            chosen = candidates[head:]
        else:
            usable = np.zeros(N, dtype=bool)
            usable[[r for r, opts in self.tame_options_by_residue.items() if opts]] = True
            chosen = candidates[usable[candidates % N]]
        chosen = np.ascontiguousarray(chosen, dtype=np.int64)
        self.primes.frombytes(memoryview(chosen).cast("B"))

    # -- wild combinations -------------------------------------------------

    def wild_combo(self, index: int) -> tuple[int, int, int, bool] | None:
        """Decode combo ``index`` into (value, weight, join id, wild_meets).

        Returns None when the combination already exceeds the threshold.
        Index 0 is always the all-trivial combination.
        """
        v, w, jid, meets = 1, 1, 0, False
        rest = index
        for opts, radix in zip(self.wild_options, self._combo_radix):
            digit = rest % radix
            rest //= radix
            if digit:
                pe, wt, m, sid = opts[digit - 1]
                v *= pe
                w *= wt
                meets = meets or m
                jid = self.G.join_id(jid, sid)
        if v >= self.t_max:
            return None
        return v, w, jid, meets

    def tasks(self) -> list[tuple[int, int]]:
        """Deterministic task list covering the whole profile tree once."""
        return [
            (combo, bucket)
            for combo in range(self.n_wild_combos)
            for bucket in range(TASK_BUCKETS + 1)
        ]

    def empty_diffs(self) -> tuple[list[list[int]], list[list[int]]]:
        width = self.gamma_cap + 2  # slices 0..cap, then the unsliced bucket
        n = len(self.thresholds)
        return (
            [[0] * width for _ in range(n)],
            [[0] * width for _ in range(n)],
        )


def _phi_order(n: int) -> int:
    from .groups import euler_phi

    return euler_phi(n)


# -- the depth-first walk ----------------------------------------------------------


def walk_task(
    ctx: CensusContext,
    task: tuple[int, int],
    visit: Callable[[int, int, int, bool, int], None],
    node_budget: int | None = None,
) -> int:
    """Walk the profiles of one task depth-first; returns nodes visited.

    ``visit(v, w, gamma_tame, wild_meets, join_id)`` is called once per
    profile with value below the largest threshold.  Raises
    ResourceCapError once more than ``node_budget`` nodes are visited.

    Each node splits its children's primes once.  With lim = (t_max-1)//v,
    the primes with p^e_min <= lim carry children; those that also have
    p^(2*e_min) <= lim come first and may be extended, and every child at a
    later prime p is a leaf, since a further prime q > p would give
    v*p^e*q^e_min > v*p^(2*e_min) > t_max - 1.
    """
    combo_index, bucket = task
    combo = ctx.wild_combo(combo_index)
    if combo is None:
        return 0
    v0, w0, jid0, wm0 = combo
    if bucket == TASK_BUCKETS:
        # the wild-only profile of this combination (the root, for combo 0)
        visit(v0, w0, 0, wm0, jid0)
        return 1
    e_min = ctx.e_min_tame
    if e_min is None:
        return 0
    t_max = ctx.t_max
    primes = ctx.primes
    G = ctx.G
    N = G.order
    n = len(primes)
    cap = sys.maxsize if node_budget is None else node_budget
    base = tuple(ctx.tame_options_by_residue.get(r, ()) for r in range(N))
    # per parent join id: the option rows per residue, the child's join id
    # filled in as (e, weight, meets, join(parent, image))
    joined: dict[int, tuple] = {}
    nodes = 0

    def tripped() -> ResourceCapError:
        return ResourceCapError(f"node budget {node_budget} exceeded in task {task}")

    def rec(lo: int, step: int, v: int, w: int, g: int, jid: int) -> None:
        nonlocal nodes
        lim = (t_max - 1) // v
        stop = bisect_right(primes, integer_nth_root(lim, e_min), lo)
        split = bisect_right(primes, integer_nth_root(lim, 2 * e_min), lo, stop)
        rows = joined.get(jid)
        if rows is None:
            rows = joined[jid] = tuple(
                tuple((e, wt, meets, G.join_id(jid, hid)) for e, wt, meets, hid in opts)
                for opts in base
            )
        for i in range(lo, split, step):
            p = primes[i]
            # a child with p^e <= ext has a next prime that still fits
            ext = lim // primes[i + 1] ** e_min if i + 1 < n else 0
            for e, wt, meets, jid2 in rows[p % N]:
                pe = p**e
                if pe > lim:
                    break
                nodes += 1
                if nodes > cap:
                    raise tripped()
                v2 = v * pe
                w2 = w * wt
                g2 = g + meets
                visit(v2, w2, g2, wm0, jid2)
                if pe <= ext:
                    rec(i + 1, 1, v2, w2, g2, jid2)
        # the leaf run: keep the task's stride from the first index >= split
        for i in range(split + (lo - split) % step, stop, step):
            p = primes[i]
            for e, wt, meets, jid2 in rows[p % N]:
                pe = p**e
                if pe > lim:
                    break
                nodes += 1
                if nodes > cap:
                    raise tripped()
                visit(v * pe, w * wt, g + meets, wm0, jid2)

    # the task's bucket fixes the first tame prime's position mod TASK_BUCKETS
    rec(bucket, TASK_BUCKETS, v0, w0, 0, jid0)
    return nodes


def run_task(
    ctx: CensusContext,
    task: tuple[int, int],
    diff_sur: list[list[int]],
    diff_hom: list[list[int]],
    node_budget: int | None = None,
) -> int:
    """Run one task, accumulating bucketed counts; returns nodes visited.

    ``diff_*[k][slot]`` receives the weight of profiles whose value first
    drops below thresholds[k]; slots are gamma 0..cap plus the trailing
    unsliced bucket.  Final tables are prefix sums over k.
    """
    thresholds = ctx.thresholds
    target = ctx.target_id
    unsliced = ctx.gamma_cap + 1

    def emit(v: int, w: int, g: int, wm: bool, jid: int) -> None:
        k = bisect_right(thresholds, v)
        slot = g if g else (unsliced if wm else 0)
        diff_hom[k][slot] += w
        if jid == target:
            diff_sur[k][slot] += w

    return walk_task(ctx, task, emit, node_budget)


# -- multiprocessing glue -----------------------------------------------------------

# Set by enumerate_census while its fork pool runs; workers inherit it.
_WORKER_CTX: CensusContext | None = None


def _worker_run(
    task: tuple[int, int], node_budget: int | None
) -> tuple[tuple[int, int], list, list, int]:
    assert _WORKER_CTX is not None
    diff_sur, diff_hom = _WORKER_CTX.empty_diffs()
    nodes = run_task(_WORKER_CTX, task, diff_sur, diff_hom, node_budget)
    return task, diff_sur, diff_hom, nodes


def _merge_diffs(acc: list[list[int]], part: list[list[int]]) -> None:
    for row, prow in zip(acc, part):
        for j, val in enumerate(prow):
            row[j] += val


def merge_task_table(ctx: CensusContext, done_tasks: dict) -> CensusTable:
    """Assemble a (possibly partial) table from recorded per-task diffs.

    Used by the resume path: the counts cover exactly the tasks present in
    ``done_tasks``, merged in deterministic task order.
    """
    diff_sur, diff_hom = ctx.empty_diffs()
    for task in sorted(done_tasks):
        part_sur, part_hom = done_tasks[task]
        _merge_diffs(diff_sur, part_sur)
        _merge_diffs(diff_hom, part_hom)
    return _table_from_diffs(ctx, diff_sur, diff_hom)


def _table_from_diffs(
    ctx: CensusContext, diff_sur: list[list[int]], diff_hom: list[list[int]]
) -> CensusTable:
    width = ctx.gamma_cap + 2
    n = len(ctx.thresholds)
    sur_rows, hom_rows = [], []
    run_sur, run_hom = [0] * width, [0] * width
    for k in range(n):
        run_sur = [a + b for a, b in zip(run_sur, diff_sur[k])]
        run_hom = [a + b for a, b in zip(run_hom, diff_hom[k])]
        sur_rows.append(run_sur[:-1])
        hom_rows.append(run_hom[:-1])
    return CensusTable(
        group_factors=ctx.G.invariant_factors,
        params=tuple(ctx.x.values),
        omega_classes=ctx.omega.class_indices,
        checkpoints=ctx.checkpoints,
        checkpoint_power=ctx.power,
        thresholds=ctx.thresholds,
        scale=ctx.scale,
        sur=[row[:] for row in sur_rows],
        hom=[row[:] for row in hom_rows],
        unsliced_sur=[diff[-1] for diff in _prefix(diff_sur)],
        unsliced_hom=[diff[-1] for diff in _prefix(diff_hom)],
    )


def _prefix(diffs: list[list[int]]) -> list[list[int]]:
    out = []
    run = [0] * len(diffs[0])
    for row in diffs:
        run = [a + b for a, b in zip(run, row)]
        out.append(run)
    return out


def _check_done_tasks(ctx: CensusContext, done: dict) -> None:
    """Refuse recorded tasks that do not fit the context's task partition."""
    known = set(ctx.tasks())
    n, width = len(ctx.thresholds), ctx.gamma_cap + 2
    for task, diffs in done.items():
        if task not in known:
            raise ParamError(f"recorded task {task} is not in this census's task partition")
        if len(diffs) != 2 or any(
            len(diff) != n or any(len(row) != width for row in diff) for diff in diffs
        ):
            raise ParamError(
                f"recorded task {task} does not hold two {n} x {width} diff tables"
            )


def enumerate_census(
    G: AbelianGroup,
    x: ParamVector,
    omega: OmegaSet,
    bound: Fraction,
    checkpoints: Sequence[Fraction] | None = None,
    power: Fraction = Fraction(1),
    target_id: int | None = None,
    threads: int = 1,
    prime_table: PrimeTable | None = None,
    cache_dir=None,
    node_budget: int | None = None,
    done_tasks: dict | None = None,
    on_task: Callable[[tuple[int, int], list, list], None] | None = None,
) -> CensusTable:
    """Exact census of profiles with invariant below ``bound**power``.

    ``done_tasks`` maps already-completed task ids to (diff_sur, diff_hom)
    pairs (resume support); ``on_task`` observes each newly finished task.
    Raises ParamError for a recorded task outside ``ctx.tasks()`` or whose
    diffs are not len(thresholds) x (gamma_cap + 2).
    Raises ResourceCapError when ``node_budget`` nodes are exceeded; results
    reported through ``on_task`` before that point remain valid.
    """
    ctx = CensusContext(
        G,
        x,
        omega,
        bound=bound,
        checkpoints=checkpoints,
        power=power,
        target_id=target_id,
        prime_table=prime_table,
        cache_dir=cache_dir,
    )
    diff_sur, diff_hom = ctx.empty_diffs()
    done = dict(done_tasks or {})
    _check_done_tasks(ctx, done)
    pending = [t for t in ctx.tasks() if t not in done]
    for task, (part_sur, part_hom) in done.items():
        _merge_diffs(diff_sur, part_sur)
        _merge_diffs(diff_hom, part_hom)
    if threads <= 1 or not pending:
        budget_left = node_budget
        for task in pending:
            part_sur, part_hom = ctx.empty_diffs()
            nodes = run_task(ctx, task, part_sur, part_hom, budget_left)
            if budget_left is not None:
                budget_left -= nodes
            _merge_diffs(diff_sur, part_sur)
            _merge_diffs(diff_hom, part_hom)
            if on_task is not None:
                on_task(task, part_sur, part_hom)
    else:
        global _WORKER_CTX
        mp = multiprocessing.get_context("fork")
        results: dict[tuple[int, int], tuple[list, list]] = {}
        total_nodes = 0
        exceeded = False
        # each pooled task gets the whole budget; a task that trips it has
        # visited node_budget + 1 nodes
        run = partial(_worker_run, node_budget=node_budget)
        _WORKER_CTX = ctx
        try:
            with mp.Pool(processes=threads) as pool:
                for task, part_sur, part_hom, nodes in pool.imap_unordered(
                    run, pending, chunksize=1
                ):
                    results[task] = (part_sur, part_hom)
                    total_nodes += nodes
                    if node_budget is not None and total_nodes > node_budget:
                        exceeded = True
                        break
        except ResourceCapError:
            exceeded = True
            total_nodes += node_budget + 1
        finally:
            _WORKER_CTX = None
        # merge in deterministic task order regardless of completion order
        for task in pending:
            if task not in results:
                continue
            part_sur, part_hom = results[task]
            _merge_diffs(diff_sur, part_sur)
            _merge_diffs(diff_hom, part_hom)
            if on_task is not None:
                on_task(task, part_sur, part_hom)
        if exceeded:
            raise ResourceCapError(
                f"node budget {node_budget} exceeded ({total_nodes} nodes so far)"
            )
    return _table_from_diffs(ctx, diff_sur, diff_hom)


def count_by_index(
    G: AbelianGroup,
    x: ParamVector,
    omega: OmegaSet,
    bound: Fraction,
    mode: str = "sur",
    gamma: int | None = None,
    target_id: int | None = None,
    prime_table: PrimeTable | None = None,
    cache_dir=None,
    as_index_values: bool = True,
) -> dict:
    """Exact coefficient map of the census: value -> summed weight.

    ``gamma=None`` keeps every profile; ``gamma=g`` keeps the g-slice with
    the usual convention (g = 0 additionally excludes omega-meeting wild
    primes).  With ``as_index_values`` the keys are IndexValue objects;
    otherwise raw D-scaled integers (what the series engine consumes).
    """
    if mode not in ("sur", "hom"):
        raise CensusError(f"mode must be 'sur' or 'hom', got {mode!r}")
    ctx = CensusContext(
        G,
        x,
        omega,
        bound=bound,
        checkpoints=[Fraction(bound)],
        target_id=target_id,
        prime_table=prime_table,
        cache_dir=cache_dir,
    )
    want_sur = mode == "sur"
    target = ctx.target_id
    coeffs: dict[int, int] = {}

    def visit(v: int, w: int, g: int, wm: bool, jid: int) -> None:
        if want_sur and jid != target:
            return
        if gamma is not None:
            if gamma == 0:
                if g or wm:
                    return
            elif g != gamma:
                return
        coeffs[v] = coeffs.get(v, 0) + w

    for task in ctx.tasks():
        walk_task(ctx, task, visit)
    if not as_index_values:
        return coeffs
    # every factor of a visited value is a wild prime or a usable tame prime
    return {
        IndexValue.from_scaled(v, ctx.scale, merge(ctx.wild_primes, ctx.primes)): c
        for v, c in sorted(coeffs.items())
    }
