"""Command-line front end: configs, orchestration, deterministic output.

A run is described by a small ``key=value`` config (or the mirroring command
line flags), executed by the census engine, and emitted as a CSV of sliced
counts plus a JSON analysis summary, a plot-ready CSV, and a run manifest.
Counts are exact integers, row order is fixed, and JSON is dumped with
sorted keys, so reruns of one configuration are byte-identical no matter
how many worker processes are used; the manifest (which carries wall-clock
timing) is the only file allowed to differ.

Exit codes: 0 success, 2 configuration/domain error or a failed verify
check, 3 resource cap.
A capped census run still writes whatever tasks completed plus a resume
token; rerunning with ``--resume TOKEN`` finishes the remaining tasks and
produces output identical to an uninterrupted run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .constants import structure_report
from .errors import (
    CensusError,
    ConfigError,
    FitError,
    LatticeCapError,
    ResourceCapError,
)
from .groups import AbelianGroup, OmegaSet, make_group, make_params, omega_from_classes
from .profiles import (
    CensusContext,
    CensusTable,
    enumerate_census,
    geometric_checkpoints,
    merge_task_table,
)
from .series import (
    convolution_table,
    delange_shape,
    fit_exponents,
    mu_series,
    pi_series,
    psi_series,
    ratio_R,
    singularity_data,
    tau_series,
)
from .sieve import load_prime_table, validate_prime_table

__all__ = [
    "RunConfig",
    "parse_config",
    "config_hash",
    "run_census",
    "main",
]

_CONFIG_KEYS = (
    "group",
    "params",
    "omega",
    "gamma",
    "bound",
    "checkpoints",
    "mode",
    "threads",
    "out",
)
_MODES = ("sur", "hom", "both")
_CACHE_ENV = "ABELIAN_CENSUS_CACHE"


@dataclass(frozen=True)
class RunConfig:
    """A validated run description.

    ``omega`` holds 0-based class indices (the config file uses the 1-based
    indices printed in the class table).  ``checkpoints`` is None for the
    default geometric schedule.  The cache directory, resume token and node
    budget are plumbing, not semantics: they never enter the config hash.
    """

    group: tuple[int, ...]
    params: tuple[Fraction, ...]
    omega: tuple[int, ...]
    gamma: tuple[int, int]
    bound: Fraction
    checkpoints: tuple[Fraction, ...] | None
    mode: str
    threads: int
    out: str
    cache_dir: str | None = None
    resume_path: str | None = None
    node_budget: int | None = None


def _where(ln: int) -> str:
    return "command line" if ln == 0 else f"line {ln}"


def _parse_fraction(ln: int, key: str, text: str) -> Fraction:
    try:
        val = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(
            f"{_where(ln)}: {key} has malformed rational {text!r}"
        ) from None
    return val


def _split_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _collect(text: str) -> dict[str, tuple[int, str]]:
    values: dict[str, tuple[int, str]] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected key=value, got {raw.strip()!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {ln}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {ln}: duplicate key {key!r}")
        values[key] = (ln, val)
    return values


def _validate(values: dict[str, tuple[int, str]]) -> RunConfig:
    for key in ("group", "params", "bound"):
        if key not in values:
            raise ConfigError(f"missing key {key!r}")

    ln, text = values["group"]
    try:
        factors = tuple(int(part) for part in _split_list(text))
        G = make_group(factors)
    except (ValueError, CensusError) as exc:
        raise ConfigError(f"{_where(ln)}: bad group {text!r} ({exc})") from None
    n_classes = len(G.class_poset())

    ln, text = values["params"]
    params = tuple(_parse_fraction(ln, "params", part) for part in _split_list(text))
    if len(params) != n_classes:
        raise ConfigError(
            f"{_where(ln)}: expected {n_classes} parameters "
            f"(one per power class), got {len(params)}"
        )
    if any(v <= 0 for v in params):
        raise ConfigError(f"{_where(ln)}: non-positive parameter in {text!r}")

    omega: tuple[int, ...] = ()
    if "omega" in values:
        ln, text = values["omega"]
        if text:
            try:
                raw_idx = [int(part) for part in _split_list(text)]
            except ValueError:
                raise ConfigError(
                    f"{_where(ln)}: omega must list class indices, got {text!r}"
                ) from None
            bad = [i for i in raw_idx if not 1 <= i <= n_classes]
            if bad:
                raise ConfigError(
                    f"{_where(ln)}: omega class index out of range 1..{n_classes}: "
                    f"{bad[0]}"
                )
            if len(set(raw_idx)) != len(raw_idx):
                raise ConfigError(f"{_where(ln)}: repeated omega class index")
            omega = tuple(sorted(i - 1 for i in raw_idx))

    gamma = (0, 0)
    if "gamma" in values:
        ln, text = values["gamma"]
        try:
            if ".." in text:
                lo_s, hi_s = text.split("..", 1)
                gamma = (int(lo_s), int(hi_s))
            else:
                gamma = (int(text), int(text))
        except ValueError:
            raise ConfigError(
                f"{_where(ln)}: gamma must be an integer or lo..hi, got {text!r}"
            ) from None
        if gamma[0] < 0 or gamma[0] > gamma[1]:
            raise ConfigError(f"{_where(ln)}: bad gamma range {text!r}")

    ln, text = values["bound"]
    bound = _parse_fraction(ln, "bound", text)
    if bound < 1:
        raise ConfigError(f"{_where(ln)}: bound must be at least 1, got {text!r}")

    checkpoints: tuple[Fraction, ...] | None = None
    if "checkpoints" in values:
        ln, text = values["checkpoints"]
        if text and text != "geometric":
            cps = tuple(
                _parse_fraction(ln, "checkpoints", part)
                for part in _split_list(text)
            )
            if any(b <= a for a, b in zip(cps, cps[1:])):
                raise ConfigError(f"{_where(ln)}: checkpoints must be ascending")
            if not cps or cps[-1] != bound:
                raise ConfigError(
                    f"{_where(ln)}: the last checkpoint must equal the bound"
                )
            checkpoints = cps

    mode = "sur"
    if "mode" in values:
        ln, text = values["mode"]
        if text not in _MODES:
            raise ConfigError(
                f"{_where(ln)}: mode must be one of {'/'.join(_MODES)}, got {text!r}"
            )
        mode = text

    threads = 1
    if "threads" in values:
        ln, text = values["threads"]
        try:
            threads = int(text)
        except ValueError:
            raise ConfigError(f"{_where(ln)}: threads must be an integer") from None
        if threads < 1:
            raise ConfigError(f"{_where(ln)}: threads must be at least 1")

    out = "census"
    if "out" in values:
        ln, text = values["out"]
        if not text:
            raise ConfigError(f"{_where(ln)}: out must not be empty")
        out = text

    return RunConfig(
        group=factors,
        params=params,
        omega=omega,
        gamma=gamma,
        bound=bound,
        checkpoints=checkpoints,
        mode=mode,
        threads=threads,
        out=out,
    )


def parse_config(text: str) -> RunConfig:
    """Parse and validate a ``key=value`` config; reject unknown keys."""
    return _validate(_collect(text))


def _semantic_dict(cfg: RunConfig) -> dict:
    return {
        "group": list(cfg.group),
        "params": [str(v) for v in cfg.params],
        "omega": list(cfg.omega),
        "gamma": list(cfg.gamma),
        "bound": str(cfg.bound),
        "checkpoints": (
            "geometric"
            if cfg.checkpoints is None
            else [str(c) for c in cfg.checkpoints]
        ),
        "mode": cfg.mode,
    }


def config_hash(cfg: RunConfig) -> str:
    """Hash of the semantic fields only (not threads/out/cache/resume)."""
    blob = json.dumps(_semantic_dict(cfg), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _build(cfg: RunConfig) -> tuple[AbelianGroup, object, OmegaSet]:
    G = make_group(cfg.group)
    x = make_params(G, cfg.params)
    omega = omega_from_classes(G, cfg.omega)
    return G, x, omega


def _class_table(G: AbelianGroup) -> list[dict]:
    rows = []
    for cl in G.class_poset().classes:
        rows.append(
            {
                "index": cl.index + 1,
                "members": [list(G.elements[m]) for m in cl.members],
                "element_order": cl.element_order,
            }
        )
    return rows


def _family_dict(fam) -> dict:
    return {
        "wild": [[p, sid] for p, sid in fam.wild_part],
        "tame_slots": list(fam.tame_slots),
    }


def _structure_dict(report) -> dict:
    return {
        "group": report.group,
        "params": [str(v) for v in report.params],
        "omega_classes": [i + 1 for i in report.omega_classes],
        "xi_classes": [i + 1 for i in report.xi],
        "x1": str(report.x1),
        "x0": None if report.x0 is None else str(report.x0),
        "beta": report.beta,
        "delta_x": report.delta,
        "delta_witness": _family_dict(report.delta_witness),
        "gamma_x": report.gamma,
        "gamma_witness": _family_dict(report.gamma_witness),
        "admissible_partitions": {
            str(gm): [list(part) for part in parts]
            for gm, parts in report.partitions
        },
        "conjecture_positive_ratio": report.conjecture,
    }


def _singularity_dict(G, x, omega, gammas) -> dict:
    out: dict[str, dict] = {}
    for gm in gammas:
        try:
            sd = singularity_data(G, x, omega, gm)
        except CensusError as exc:
            out[str(gm)] = {"error": str(exc)}
            continue
        entry = {
            "sigma0": str(sd.sigma0),
            "pole_order": sd.pole_order,
            "log_power": sd.log_power,
            "case": sd.case,
            "loglog_ambiguous": sd.loglog_ambiguous,
        }
        try:
            shape = delange_shape(sd)
            entry["shape"] = {
                "x_exponent": str(shape.x_exponent),
                "log_exponent": shape.log_exponent,
                "loglog_exponent": shape.loglog_exponent,
                "loglog_alternatives": list(shape.loglog_alternatives),
                "constant": shape.constant_descriptor,
            }
        except CensusError as exc:
            entry["shape"] = {"error": str(exc)}
        out[str(gm)] = entry
    return out


def _fit_dict(table: CensusTable, mode: str) -> dict:
    try:
        fr = fit_exponents(table, mode=mode)
    except FitError as exc:
        return {"error": str(exc)}
    return {
        "x_exponent": fr.x_exponent,
        "log_exponent": fr.log_exponent,
        "intercept": fr.intercept,
        "residual_max": fr.residual_max,
        "stability": fr.stability,
        "n_points": fr.n_points,
        "decades": fr.decades,
    }


def _ratio_dicts(table: CensusTable, cfg: RunConfig, mode: str) -> list[dict]:
    out = []
    lo, hi = cfg.gamma
    for g1 in range(lo, hi):
        trend = ratio_R(g1, g1 + 1, table, mode=mode)
        out.append(
            {
                "pair": [g1, g1 + 1],
                "classification": trend.classification,
                "window_means": list(trend.window_means),
            }
        )
    return out


def _csv_text(table: CensusTable, cfg: RunConfig) -> str:
    lines = ["X,gamma,count_sur,count_hom,unsliced_sur"]
    lo, hi = cfg.gamma
    for ci, cp in enumerate(table.checkpoints):
        uns = table.unsliced_count("sur", ci)
        for g in range(lo, hi + 1):
            lines.append(
                f"{cp},{g},{table.slice_count('sur', ci, g)},"
                f"{table.slice_count('hom', ci, g)},{uns}"
            )
        lines.append(
            f"{cp},total,{table.total_count('sur', ci)},"
            f"{table.total_count('hom', ci)},{uns}"
        )
    return "\n".join(lines) + "\n"


def _plot_text(table: CensusTable, mode: str, fit: dict) -> str:
    lines = ["x,count,fitted"]
    have_fit = "error" not in fit
    for ci, cp in enumerate(table.checkpoints):
        n = table.total_count(mode, ci)
        fitted = ""
        if have_fit:
            lx = math.log(float(cp))
            if lx > 1.0:
                fitted = repr(
                    math.exp(fit["intercept"])
                    * float(cp) ** fit["x_exponent"]
                    * lx ** fit["log_exponent"]
                )
        lines.append(f"{cp},{n},{fitted}")
    return "\n".join(lines) + "\n"


def _task_key(task: tuple[int, int]) -> str:
    return f"{task[0]}:{task[1]}"


def _write_resume(path: Path, cfg: RunConfig, completed: dict) -> None:
    data = {
        "config_hash": config_hash(cfg),
        "tasks": {
            _task_key(task): [ds, dh] for task, (ds, dh) in sorted(completed.items())
        },
    }
    path.write_text(json.dumps(data, sort_keys=True))


def _int_rows(diff) -> bool:
    return isinstance(diff, list) and all(
        isinstance(row, list) and all(type(v) is int for v in row) for row in diff
    )


def _load_resume(path: Path, cfg: RunConfig) -> dict:
    """The done tasks of a token ``{config_hash, tasks: {"c:b": [sur, hom]}}``.

    Whether each task fits the run's task partition is checked when the
    census merges it (a ParamError).
    """
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read resume token {path}: {exc}") from None
    if not isinstance(data, dict) or not isinstance(data.get("tasks"), dict):
        raise ConfigError(f"resume token {path} holds no task map")
    if data.get("config_hash") != config_hash(cfg):
        raise ConfigError(
            "resume token was produced by a different configuration"
        )
    done = {}
    for key, diffs in data["tasks"].items():
        m = re.fullmatch(r"([0-9]+):([0-9]+)", key)
        if not (m and isinstance(diffs, list) and len(diffs) == 2
                and all(map(_int_rows, diffs))):
            raise ConfigError(
                f"resume token entry {key!r} is not 'combo:bucket': [diff_sur, diff_hom]"
            )
        done[(int(m[1]), int(m[2]))] = tuple(diffs)
    return done


def run_census(cfg: RunConfig) -> dict:
    """Run the census and write CSV, plot CSV, JSON summary, and manifest.

    Returns {"table": ..., "paths": {...}}.  On a resource cap the completed
    tasks are written out as partial results plus a resume token, and the
    ResourceCapError is re-raised for the caller (the CLI exits 3).
    """
    t0 = time.monotonic()
    G, x, omega = _build(cfg)
    checkpoints = (
        list(cfg.checkpoints)
        if cfg.checkpoints is not None
        else geometric_checkpoints(cfg.bound)
    )
    done: dict = {}
    if cfg.resume_path:
        done = _load_resume(Path(cfg.resume_path), cfg)
    completed = dict(done)

    def observe(task, diff_sur, diff_hom):
        completed[tuple(task)] = (diff_sur, diff_hom)

    try:
        table = enumerate_census(
            G,
            x,
            omega,
            cfg.bound,
            checkpoints=checkpoints,
            threads=cfg.threads,
            cache_dir=cfg.cache_dir,
            node_budget=cfg.node_budget,
            done_tasks=done or None,
            on_task=observe,
        )
        partial = False
    except ResourceCapError:
        ctx = CensusContext(
            G, x, omega, bound=cfg.bound, checkpoints=checkpoints,
            cache_dir=cfg.cache_dir,
        )
        table = merge_task_table(ctx, completed)
        partial = True

    token_path = Path(f"{cfg.out}.resume.json")
    if partial:
        _write_resume(token_path, cfg, completed)
    elif token_path.exists():
        token_path.unlink()

    paths = _emit(cfg, G, x, omega, table, partial, time.monotonic() - t0)
    if partial:
        raise ResourceCapError(
            f"node budget exhausted; resume token at {token_path}"
        )
    return {"table": table, "paths": paths}


def _emit(
    cfg: RunConfig,
    G: AbelianGroup,
    x,
    omega: OmegaSet,
    table: CensusTable,
    partial: bool,
    elapsed: float,
) -> dict:
    lo, hi = cfg.gamma
    fit_modes = ("sur", "hom") if cfg.mode == "both" else (cfg.mode,)
    primary = fit_modes[0]
    report = structure_report(
        G, x, omega, gammas=tuple(range(lo, hi + 1)) if not omega.is_empty() else ()
    )
    structure = _structure_dict(report)
    singularity = _singularity_dict(G, x, omega, range(lo, hi + 1))
    fits = {mode: _fit_dict(table, mode) for mode in fit_modes}
    ratios = _ratio_dicts(table, cfg, primary) if not omega.is_empty() else []

    summary = {
        "schema": 1,
        "config": _semantic_dict(cfg),
        "config_hash": config_hash(cfg),
        "partial": partial,
        "class_table": _class_table(G),
        "structure": structure,
        "singularity": singularity,
        "fit": fits,
        "ratio_trends": ratios,
    }
    manifest = {
        "schema": 1,
        "version": _version(),
        "config_hash": config_hash(cfg),
        "partial": partial,
        "resume_token": f"{cfg.out}.resume.json" if partial else None,
        "class_table": _class_table(G),
        "structure": structure,
        "singularity": singularity,
        "timing": {"elapsed_seconds": round(elapsed, 3), "threads": cfg.threads},
    }

    out = Path(cfg.out)
    if out.parent != Path("."):
        out.parent.mkdir(parents=True, exist_ok=True)
    paths = {
        "csv": f"{cfg.out}.csv",
        "plot": f"{cfg.out}.plot.csv",
        "json": f"{cfg.out}.json",
        "manifest": f"{cfg.out}.manifest.json",
    }
    Path(paths["csv"]).write_text(_csv_text(table, cfg))
    Path(paths["plot"]).write_text(_plot_text(table, primary, fits[primary]))
    Path(paths["json"]).write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    Path(paths["manifest"]).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    return paths


def _version() -> str:
    from . import __version__

    return __version__


# -- subcommands -------------------------------------------------------------


def _config_from_args(
    args: argparse.Namespace, defaults: dict[str, str] | None = None
) -> RunConfig:
    values: dict[str, tuple[int, str]] = {}
    if args.config:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        values = _collect(text)
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = (0, flag)
    for key, val in (defaults or {}).items():
        values.setdefault(key, (0, val))
    cfg = _validate(values)
    cache_dir = args.cache_dir or os.environ.get(_CACHE_ENV) or None
    return RunConfig(
        **{
            **cfg.__dict__,
            "cache_dir": cache_dir,
            "resume_path": getattr(args, "resume", None),
            "node_budget": getattr(args, "node_budget", None),
        }
    )


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="path to a key=value config file")
    sub.add_argument("--group", help="invariant factors, e.g. 2,2")
    sub.add_argument("--params", help="one rational per class, e.g. 1,3/2,3/2")
    sub.add_argument("--omega", help="1-based class indices, e.g. 1,3")
    sub.add_argument("--gamma", help="slice range lo..hi or a single value")
    sub.add_argument("--bound", help="census bound X, e.g. 1e6")
    sub.add_argument("--checkpoints", help="'geometric' or an ascending list")
    sub.add_argument("--mode", help="sur, hom, or both")
    sub.add_argument("--threads", help="worker process count")
    sub.add_argument("--out", help="output path prefix")
    sub.add_argument("--cache-dir", dest="cache_dir", help="prime cache directory")


def _cmd_census(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    result = run_census(cfg)
    table = result["table"]
    last = len(table.checkpoints) - 1
    print(f"group {make_group(cfg.group).describe()}  bound {cfg.bound}")
    print(
        f"X={table.checkpoints[last]}: sur={table.total_count('sur', last)} "
        f"hom={table.total_count('hom', last)}"
    )
    for kind, path in sorted(result["paths"].items()):
        print(f"wrote {kind}: {path}")
    return 0


def _cmd_constants(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args, defaults={"bound": "1"})
    G, x, omega = _build(cfg)
    lo, hi = cfg.gamma
    gammas = tuple(range(lo, hi + 1)) if not omega.is_empty() else ()
    report = structure_report(G, x, omega, gammas=gammas)
    print(report.render())
    print()
    print("class table (1-based indices):")
    for row in _class_table(G):
        members = " ".join(str(tuple(m)) for m in row["members"])
        print(f"  {row['index']}: order {row['element_order']}  {{{members}}}")
    return 0


def _cmd_series(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    G, x, omega = _build(cfg)
    gamma = cfg.gamma[0]
    makers = {
        "mu": mu_series,
        "pi": pi_series,
        "psi": psi_series,
        "tau": tau_series,
    }
    series = makers[args.kind](
        G, x, omega, gamma, cfg.bound, cache_dir=cfg.cache_dir
    )
    text = series.dump()
    header = (
        f"# {series.label} scale={series.scale} bound={series.bound} "
        f"terms={sum(1 for c in series.coefficients.values() if c)} "
        f"summatory={series.summatory()}\n"
    )
    if args.series_out:
        Path(args.series_out).write_text(header + text)
        print(f"wrote {args.series_out}")
    else:
        sys.stdout.write(header + text)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    G, x, omega = _build(cfg)
    cap = min(cfg.bound, Fraction(args.verify_bound))
    checkpoints = geometric_checkpoints(cap)
    failures = 0

    def check(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        tail = f"  ({detail})" if detail else ""
        print(f"{'PASS' if ok else 'FAIL'}: {name}{tail}")
        if not ok:
            failures += 1

    limit = min(int(cap), 10**6)
    try:
        count = validate_prime_table(
            load_prime_table(max(limit, 2), cache_dir=cfg.cache_dir)
        )
        check("prime table vs independent recount", True, f"{count} primes")
    except CensusError as exc:
        check("prime table vs independent recount", False, str(exc))

    table = enumerate_census(
        G, x, omega, cap, checkpoints=checkpoints, threads=cfg.threads,
        cache_dir=cfg.cache_dir,
    )
    leaf = convolution_table(
        G, x, omega, cap, checkpoints=checkpoints, cache_dir=cfg.cache_dir
    )
    check("census walk equals the counted-leaf table", table == leaf)

    lo, hi = cfg.gamma
    series_cap = min(cap, Fraction(2000))
    s_checks = [c for c in checkpoints if c <= series_cap]
    ok = True
    detail = []
    for g in range(lo, min(hi, table.gamma_cap) + 1):
        eff = None if omega.is_empty() else g
        mu = mu_series(G, x, omega, eff if eff is not None else 0, series_cap,
                       cache_dir=cfg.cache_dir)
        pi = pi_series(G, x, omega, eff if eff is not None else 0, series_cap,
                       cache_dir=cfg.cache_dir)
        for cp in s_checks:
            ci = checkpoints.index(cp)
            want_h = (
                table.total_count("hom", ci)
                if omega.is_empty()
                else table.slice_count("hom", ci, g)
            )
            want_s = (
                table.total_count("sur", ci)
                if omega.is_empty()
                else table.slice_count("sur", ci, g)
            )
            if mu.summatory(cp) != want_h or pi.summatory(cp) != want_s:
                ok = False
                detail.append(f"gamma={g} X={cp}")
    check("series match the census slice by slice", ok, "; ".join(detail[:3]))

    if cfg.threads != 1:
        other = enumerate_census(
            G, x, omega, cap, checkpoints=checkpoints, threads=1,
            cache_dir=cfg.cache_dir,
        )
    else:
        other = enumerate_census(
            G, x, omega, cap, checkpoints=checkpoints, threads=2,
            cache_dir=cfg.cache_dir,
        )
    check(
        "byte-identical CSV across worker counts",
        _csv_text(table, cfg) == _csv_text(other, cfg),
    )
    return 0 if failures == 0 else 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="abelian-census",
        description="Exact census of abelian extensions by ramification profile.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_census = sub.add_parser("census", help="run the census and write outputs")
    _add_config_flags(p_census)
    p_census.add_argument("--resume", help="resume token from a capped run")
    p_census.add_argument(
        "--node-budget", dest="node_budget", type=int,
        help="abort (exit 3) after this many search nodes",
    )
    p_census.set_defaults(func=_cmd_census)

    p_const = sub.add_parser("constants", help="print structure constants")
    _add_config_flags(p_const)
    p_const.set_defaults(func=_cmd_constants)

    p_series = sub.add_parser("series", help="dump one generating series")
    _add_config_flags(p_series)
    p_series.add_argument(
        "kind", choices=("mu", "pi", "psi", "tau"), help="series family"
    )
    p_series.add_argument(
        "--series-out", dest="series_out", help="write the dump to this file"
    )
    p_series.set_defaults(func=_cmd_series)

    p_verify = sub.add_parser("verify", help="run internal cross-checks")
    _add_config_flags(p_verify)
    p_verify.add_argument(
        "--verify-bound", dest="verify_bound", default="10000",
        help="cap the verification bound (default 10000)",
    )
    p_verify.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ResourceCapError, LatticeCapError) as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except CensusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
