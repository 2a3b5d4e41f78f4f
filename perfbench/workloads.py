"""The benchmark's workloads: inputs from a seed, the timed call, the check.

Every workload calls the package's public API the way a user would, and
every result is checked exactly against an independent counting route
(walk against convolution, or convolution against walk).  The reference is
computed outside the timed region, after the operations have run.

A seed picks the census bound from a band of +-1% around the nominal value;
the default seed gives the nominal bound, at which the results must also
equal the published counts pinned below.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from abelian_census import cli, groups, profiles, series

DEFAULT_SEED = 0
BAND = Fraction(1, 100)
EULER_CHECK_LIMIT = 10**6  # euler checkpoints checked against the walk
SLICES_CHECK_LIMIT = 15 * 10**5  # slices checkpoints where the walk fits


def bound_factor(seed: int) -> Fraction:
    if seed == DEFAULT_SEED:
        return Fraction(1)
    u = random.Random(seed).uniform(-1.0, 1.0)
    return 1 + BAND * Fraction(u).limit_denominator(10**6)


def _scaled(nominal: int, seed: int, scale: Fraction) -> int:
    return max(2, round(nominal * bound_factor(seed) * scale))


def prime_limit(factors, params, bound: int) -> int:
    """Largest prime limit a census of ``bound`` loads: p**e_min < T."""
    G = groups.make_group(factors)
    x = groups.make_params(G, params)
    e_min = min(x.scaled(i) for i in range(len(x)))
    t_max = profiles.scaled_threshold(Fraction(bound), x.denominator_scale)
    return max(2, profiles.integer_nth_root(t_max - 1, e_min))


class _OneBound:
    """A workload whose input is one census bound."""

    def inputs(self, seed: int, scale: Fraction) -> dict:
        bound = _scaled(self.nominal, seed, scale)
        return {
            "bound": bound,
            "prime_limit": prime_limit(self.factors, self.params, bound),
            "pinned": seed == DEFAULT_SEED and scale == 1,
        }


class Walk(_OneBound):
    """``cli.run_census`` on C2xC2, x=(1,1,1), Omega={1,3}, gamma 1..2, both modes."""

    factors = (2, 2)
    params = (1, 1, 1)
    nominal = 10**6
    pinned = {"sur": 46_727_094, "hom": 49_766_710}  # totals at X=1e6

    def __init__(self, threads: int):
        self.threads = threads

    def prepare(self, inp: dict, workdir: Path, cache_dir: Path):
        text = (
            "group = 2,2\nparams = 1,1,1\nomega = 1,3\ngamma = 1..2\n"
            f"mode = both\nbound = {inp['bound']}\nthreads = {self.threads}\n"
        )
        cfg = replace(cli.parse_config(text), cache_dir=str(cache_dir))
        # A fresh output prefix per operation: on ext4, truncating a file
        # written moments ago waits for its data to reach the disk.
        runs = itertools.count()
        return lambda: cli.run_census(replace(cfg, out=str(workdir / f"census{next(runs)}")))

    def collect(self, result) -> dict:
        table = result["table"]
        return {
            "csv": Path(result["paths"]["csv"]).read_text(),
            "rows_sur": table.sur,
            "rows_hom": table.hom,
            "unsliced_sur": table.unsliced_sur,
            "unsliced_hom": table.unsliced_hom,
        }

    def reference(self, inp: dict, cache_dir: Path) -> dict:
        G = groups.make_group(self.factors)
        x = groups.make_params(G, self.params)
        om = groups.omega_from_classes(G, (0, 2))
        bound = Fraction(inp["bound"])
        cps = profiles.geometric_checkpoints(bound)
        ref = {"checkpoints": [str(c) for c in cps]}
        for mode in ("sur", "hom"):
            for g in (1, 2, None):
                pairs = series.convolution_counts(
                    G, x, om, bound, checkpoints=cps, gamma=g, mode=mode,
                    cache_dir=cache_dir,
                )
                ref[f"{mode}:{g}"] = [n for _, n in pairs]
        return ref

    def check(self, inp: dict, out: dict, ref: dict) -> list[str]:
        bad = []
        lines = out["csv"].splitlines()
        if lines[0] != "X,gamma,count_sur,count_hom,unsliced_sur":
            bad.append(f"csv header {lines[0]!r}")
        rows = [line.split(",") for line in lines[1:]]
        cps = ref["checkpoints"]
        if sorted({r[0] for r in rows}, key=Fraction) != cps:
            bad.append("csv checkpoints differ from the geometric schedule")
            return bad
        ci_of = {c: i for i, c in enumerate(cps)}
        for X, g, sur, hom, uns in rows:
            ci = ci_of[X]
            key = None if g == "total" else int(g)
            for mode, val in (("sur", sur), ("hom", hom)):
                if int(val) != ref[f"{mode}:{key}"][ci]:
                    bad.append(f"X={X} gamma={g} {mode}: walk {val}, convolution {ref[f'{mode}:{key}'][ci]}")
            if int(uns) != out["unsliced_sur"][ci]:
                bad.append(f"X={X} unsliced_sur column {uns} != table {out['unsliced_sur'][ci]}")
            if key is None:
                for mode, val in (("sur", sur), ("hom", hom)):
                    parts = sum(out[f"rows_{mode}"][ci]) + out[f"unsliced_{mode}"][ci]
                    if int(val) != parts:
                        bad.append(f"X={X} {mode} total {val} != slices+unsliced {parts}")
        if inp["pinned"]:
            last = [r for r in rows if r[0] == cps[-1] and r[1] == "total"][0]
            for mode, val in (("sur", last[2]), ("hom", last[3])):
                if int(val) != self.pinned[mode]:
                    bad.append(f"X=1e6 {mode} total {val} != pinned {self.pinned[mode]}")
        return bad


class Euler(_OneBound):
    """``series.convolution_counts`` on C2, x=1, Omega empty, X=1e8, mode sur."""

    factors = (2,)
    params = (1,)
    nominal = 10**8
    pinned = 101_321_161  # count at X=1e8

    def prepare(self, inp: dict, workdir: Path, cache_dir: Path):
        def op():
            G = groups.make_group(self.factors)
            x = groups.make_params(G, self.params)
            om = groups.validate_omega(G, [])
            return series.convolution_counts(
                G, x, om, Fraction(inp["bound"]), mode="sur", cache_dir=cache_dir
            )

        return op

    def collect(self, result) -> dict:
        return {"pairs": [[str(X), n] for X, n in result]}

    def reference(self, inp: dict, cache_dir: Path) -> dict:
        G = groups.make_group(self.factors)
        x = groups.make_params(G, self.params)
        om = groups.validate_omega(G, [])
        cps = profiles.geometric_checkpoints(Fraction(inp["bound"]))
        low = [c for c in cps if c <= EULER_CHECK_LIMIT]
        table = profiles.enumerate_census(
            G, x, om, low[-1], checkpoints=low, cache_dir=cache_dir
        )
        return {
            "checkpoints": [str(c) for c in cps],
            "walk": [table.total_count("sur", i) for i in range(len(low))],
        }

    def check(self, inp: dict, out: dict, ref: dict) -> list[str]:
        bad = []
        pairs = out["pairs"]
        if [X for X, _ in pairs] != ref["checkpoints"]:
            return ["checkpoints differ from the geometric schedule"]
        for (X, n), want in zip(pairs, ref["walk"]):
            if n != want:
                bad.append(f"X={X}: convolution {n}, walk {want}")
        if inp["pinned"] and pairs[-1][1] != self.pinned:
            bad.append(f"X=1e8 count {pairs[-1][1]} != pinned {self.pinned}")
        return bad


class Slices:
    """``series.convolution_counts`` on C2xC2, x=(2,1,2), Omega={1,3}, gamma 1 and 2."""

    factors = (2, 2)
    params = (2, 1, 2)
    nominal = 10**4  # checkpoints nominal * 2**k, k = 0..10
    pinned = {1: 5_683_022, 2: 631_378}  # slice counts at X=1.024e7

    def inputs(self, seed: int, scale: Fraction) -> dict:
        base = _scaled(self.nominal, seed, scale)
        return {
            "checkpoints": [base * 2**k for k in range(11)],
            "prime_limit": prime_limit(self.factors, self.params, base * 2**10),
            "pinned": seed == DEFAULT_SEED and scale == 1,
        }

    def _build(self):
        G = groups.make_group(self.factors)
        x = groups.make_params(G, self.params)
        om = groups.validate_omega(G, [1, 3])
        return G, x, om

    def prepare(self, inp: dict, workdir: Path, cache_dir: Path):
        cps = [Fraction(c) for c in inp["checkpoints"]]

        def op():
            G, x, om = self._build()
            return {
                g: series.convolution_counts(
                    G, x, om, cps[-1], checkpoints=cps, gamma=g, mode="sur",
                    cache_dir=cache_dir,
                )
                for g in (1, 2)
            }

        return op

    def collect(self, result) -> dict:
        return {str(g): [[str(X), n] for X, n in pairs] for g, pairs in result.items()}

    def reference(self, inp: dict, cache_dir: Path) -> dict:
        G, x, om = self._build()
        fit = [Fraction(c) for c in inp["checkpoints"] if c <= SLICES_CHECK_LIMIT]
        table = profiles.enumerate_census(G, x, om, fit[-1], checkpoints=fit, cache_dir=cache_dir)
        return {
            str(g): [table.slice_count("sur", i, g) for i in range(len(fit))]
            for g in (1, 2)
        }

    def check(self, inp: dict, out: dict, ref: dict) -> list[str]:
        bad = []
        want_cps = [str(Fraction(c)) for c in inp["checkpoints"]]
        for g in (1, 2):
            pairs = out[str(g)]
            if [X for X, _ in pairs] != want_cps:
                bad.append(f"gamma={g}: checkpoints differ from the input")
                continue
            for (X, n), want in zip(pairs, ref[str(g)]):
                if n != want:
                    bad.append(f"X={X} gamma={g}: convolution {n}, walk {want}")
            if inp["pinned"] and pairs[-1][1] != self.pinned[g]:
                bad.append(f"X=1.024e7 gamma={g} count {pairs[-1][1]} != pinned {self.pinned[g]}")
        return bad


WORKLOADS = {
    "walk": Walk(threads=1),
    "euler": Euler(),
    "slices": Slices(),
    "parallel": Walk(threads=2),
}
