"""Config parsing, output files, resume tokens, and command exit codes."""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction

import pytest

from abelian_census import cli
from abelian_census.errors import CacheError, ConfigError, ResourceCapError

GOOD_CONFIG = """
# smoke configuration
group = 2,2
params = 1,1,1
omega = 1,3
gamma = 1..2
bound = 30
checkpoints = 10,30
mode = both
"""

GOLDEN_CSV = (
    "X,gamma,count_sur,count_hom,unsliced_sur\n"
    "10,1,12,24,12\n"
    "10,2,0,0,12\n"
    "10,total,24,52,12\n"
    "30,1,80,128,42\n"
    "30,2,4,8,42\n"
    "30,total,126,214,42\n"
)


# -- parsing -------------------------------------------------------------------------


def test_parse_good_config():
    cfg = cli.parse_config(GOOD_CONFIG)
    assert cfg.group == (2, 2)
    assert cfg.params == (Fraction(1), Fraction(1), Fraction(1))
    assert cfg.omega == (0, 2)  # stored 0-based
    assert cfg.gamma == (1, 2)
    assert cfg.bound == 30
    assert cfg.checkpoints == (Fraction(10), Fraction(30))
    assert cfg.mode == "both"
    assert cfg.threads == 1


def test_parse_minimal_config_defaults():
    cfg = cli.parse_config("group=6\nparams=3,4,5\nbound=100\n")
    assert cfg.omega == ()
    assert cfg.gamma == (0, 0)
    assert cfg.checkpoints is None
    assert cfg.mode == "sur"


def test_parse_single_omega_class_and_fractions():
    cfg = cli.parse_config("group=2,2\nparams=1,3/2,3/2\nomega=1\nbound=50\n")
    assert cfg.omega == (0,)
    assert cfg.params[1] == Fraction(3, 2)


@pytest.mark.parametrize(
    "text,match",
    [
        ("group=2,2\nparams=1,0,1\nbound=10\n", "non-positive"),
        ("group=2,2\nparams=1,1\nbound=10\n", "expected 3 parameters"),
        ("params=1\nbound=10\n", "missing key 'group'"),
        ("group=2,2\nparams=1,1,1\nbound=10\nnonsense=1\n", "line 4: unknown key"),
        ("group=2,2\ngroup=2\nparams=1,1,1\nbound=10\n", "duplicate key"),
        ("group=2,2\nparams=1,1,1\nbound=10\nomega=4\n", "out of range"),
        ("group=2,2\nparams=1,1,1\nbound=10\nomega=1,1\n", "repeated omega"),
        ("group=2,2\nparams=1,1,1\nbound=10\ngamma=2..1\n", "bad gamma range"),
        ("group=2,2\nparams=1,1,1\nbound=0\n", "at least 1"),
        ("group=2,2\nparams=1,1,1\nbound=10\ncheckpoints=5,4,10\n", "ascending"),
        ("group=2,2\nparams=1,1,1\nbound=10\ncheckpoints=2,5\n", "must equal the bound"),
        ("group=2,2\nparams=1,1,1\nbound=10\nmode=all\n", "mode must be"),
        ("group=0\nparams=1\nbound=10\n", "bad group"),
        ("group=2,2\nparams=1,x,1\nbound=10\n", "malformed rational"),
        ("just some words\n", "expected key=value"),
    ],
)
def test_parse_rejects_bad_configs(text, match):
    with pytest.raises(ConfigError, match=match):
        cli.parse_config(text)


def test_comments_and_blank_lines_are_ignored():
    cfg = cli.parse_config("\n# note\n\ngroup=2\nparams=1\nbound=10\n# done\n")
    assert cfg.group == (2,)


# -- config hash ----------------------------------------------------------------------


def test_config_hash_tracks_semantic_fields_only():
    cfg = cli.parse_config(GOOD_CONFIG)
    base = cli.config_hash(cfg)
    changed = {
        "group": (2, 4),
        "params": (Fraction(2), Fraction(1), Fraction(1)),
        "omega": (0,),
        "gamma": (1, 1),
        "bound": Fraction(60),
        "checkpoints": None,
        "mode": "sur",
    }
    for field, value in changed.items():
        other = dataclasses.replace(cfg, **{field: value})
        assert cli.config_hash(other) != base, field
    for field, value in [
        ("threads", 8),
        ("out", "elsewhere"),
        ("cache_dir", "/tmp/x"),
        ("resume_path", "tok"),
        ("node_budget", 5),
    ]:
        other = dataclasses.replace(cfg, **{field: value})
        assert cli.config_hash(other) == base, field


# -- end-to-end runs --------------------------------------------------------------------


def _cfg(tmp_path, **overrides):
    cfg = cli.parse_config(GOOD_CONFIG)
    overrides.setdefault("out", str(tmp_path / "run"))
    return dataclasses.replace(cfg, **overrides)


def test_run_census_writes_all_outputs(tmp_path, monkeypatch):
    monkeypatch.setenv("ABELIAN_CENSUS_CACHE", str(tmp_path / "cache"))
    cfg = _cfg(tmp_path)
    result = cli.run_census(cfg)
    paths = result["paths"]
    assert set(paths) == {"csv", "plot", "json", "manifest"}

    assert (tmp_path / "run.csv").read_text() == GOLDEN_CSV

    summary = json.loads((tmp_path / "run.json").read_text())
    assert summary["schema"] == 1
    assert summary["partial"] is False
    assert summary["config_hash"] == cli.config_hash(cfg)
    assert summary["config"]["group"] == [2, 2]
    assert [row["index"] for row in summary["class_table"]] == [1, 2, 3]
    assert summary["structure"]["delta_x"] == 0

    manifest = json.loads((tmp_path / "run.manifest.json").read_text())
    assert manifest["resume_token"] is None
    assert manifest["config_hash"] == summary["config_hash"]
    assert not (tmp_path / "run.resume.json").exists()

    plot = (tmp_path / "run.plot.csv").read_text().splitlines()
    assert plot[0] == "x,count,fitted"
    assert len(plot) == 1 + len(cfg.checkpoints)


def test_identical_bytes_across_worker_counts(tmp_path, monkeypatch):
    monkeypatch.setenv("ABELIAN_CENSUS_CACHE", str(tmp_path / "cache"))
    texts = {}
    for threads in (1, 2):
        out = tmp_path / f"w{threads}"
        cli.run_census(_cfg(tmp_path, out=str(out), threads=threads, bound=Fraction(2000), checkpoints=None))
        texts[threads] = tuple(
            (out.parent / f"{out.name}{suffix}").read_text()
            for suffix in (".csv", ".plot.csv", ".json")
        )
    assert texts[1] == texts[2]


def test_capped_run_leaves_resume_token_and_resumes(tmp_path, monkeypatch):
    monkeypatch.setenv("ABELIAN_CENSUS_CACHE", str(tmp_path / "cache"))
    capped = _cfg(tmp_path, bound=Fraction(2000), checkpoints=None, node_budget=40)
    with pytest.raises(ResourceCapError, match="resume token"):
        cli.run_census(capped)
    token = tmp_path / "run.resume.json"
    assert token.exists()
    manifest = json.loads((tmp_path / "run.manifest.json").read_text())
    assert manifest["partial"] is True
    assert manifest["resume_token"] == f"{capped.out}.resume.json"

    resumed = dataclasses.replace(capped, node_budget=None, resume_path=str(token))
    cli.run_census(resumed)
    assert not token.exists()  # consumed on completion

    clean = _cfg(tmp_path, bound=Fraction(2000), checkpoints=None, out=str(tmp_path / "clean"))
    cli.run_census(clean)
    for suffix in (".csv", ".plot.csv", ".json"):
        assert (tmp_path / f"run{suffix}").read_text() == (
            tmp_path / f"clean{suffix}"
        ).read_text()


def test_resume_token_is_config_bound(tmp_path, monkeypatch):
    monkeypatch.setenv("ABELIAN_CENSUS_CACHE", str(tmp_path / "cache"))
    capped = _cfg(tmp_path, bound=Fraction(2000), checkpoints=None, node_budget=40)
    with pytest.raises(ResourceCapError):
        cli.run_census(capped)
    other = dataclasses.replace(
        capped,
        bound=Fraction(4000),
        node_budget=None,
        resume_path=str(tmp_path / "run.resume.json"),
    )
    with pytest.raises(ConfigError, match="different configuration"):
        cli.run_census(other)


def test_resumed_run_merges_a_token_read_back_from_json(tmp_path, monkeypatch):
    monkeypatch.setenv("ABELIAN_CENSUS_CACHE", str(tmp_path / "cache"))
    capped = _cfg(tmp_path, bound=Fraction(2000), checkpoints=None, node_budget=6000)
    with pytest.raises(ResourceCapError, match="resume token"):
        cli.run_census(capped)
    token = tmp_path / "run.resume.json"
    assert json.loads(token.read_text())["tasks"]

    cli.run_census(dataclasses.replace(capped, node_budget=None, resume_path=str(token)))
    clean = _cfg(tmp_path, bound=Fraction(2000), checkpoints=None, out=str(tmp_path / "clean"))
    cli.run_census(clean)
    for suffix in (".csv", ".plot.csv", ".json"):
        assert (tmp_path / f"run{suffix}").read_bytes() == (
            tmp_path / f"clean{suffix}"
        ).read_bytes()


def _add_foreign_task(tasks):
    tasks["999:3"] = next(iter(tasks.values()))


def _add_bad_key(tasks):
    tasks["0"] = next(iter(tasks.values()))


def _shorten_a_row(tasks):
    next(iter(tasks.values()))[0][0].pop()


@pytest.mark.parametrize(
    "corrupt,message",
    [
        (_add_foreign_task, "not in this census's task partition"),
        (_add_bad_key, "is not 'combo:bucket'"),
        (_shorten_a_row, "diff tables"),
    ],
)
def test_main_refuses_a_token_that_does_not_fit_the_tasks(tmp_path, capsys, corrupt, message):
    assert cli.main(_census_args(tmp_path, "--node-budget", "6000", bound="2000")) == 3
    token = tmp_path / "cmd.resume.json"
    data = json.loads(token.read_text())
    corrupt(data["tasks"])
    token.write_text(json.dumps(data))
    capsys.readouterr()
    rc = cli.main(_census_args(tmp_path, "--resume", str(token), bound="2000"))
    err = capsys.readouterr().err
    assert rc == 2
    assert "error:" in err and message in err


# -- command line ---------------------------------------------------------------------


def _census_args(tmp_path, *extra, bound="500"):
    return [
        "census",
        "--group", "2,2",
        "--params", "1,1,1",
        "--omega", "1,3",
        "--gamma", "1..2",
        "--bound", bound,
        "--out", str(tmp_path / "cmd"),
        "--cache-dir", str(tmp_path / "cache"),
        *extra,
    ]


def test_main_census_exit_zero(tmp_path, capsys):
    rc = cli.main(_census_args(tmp_path))
    out = capsys.readouterr().out
    assert rc == 0
    assert "group C2 x C2" in out
    assert "wrote csv:" in out
    assert (tmp_path / "cmd.csv").exists()


def test_main_config_file_with_flag_override(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(GOOD_CONFIG)
    rc = cli.main(
        [
            "census",
            "--config", str(path),
            "--bound", "60",
            "--checkpoints", "geometric",
            "--out", str(tmp_path / "cfgrun"),
            "--cache-dir", str(tmp_path / "cache"),
        ]
    )
    assert rc == 0
    summary = json.loads((tmp_path / "cfgrun.json").read_text())
    assert summary["config"]["bound"] == "60"  # flag wins over the file
    assert capsys.readouterr().out.count("wrote") == 4


def test_main_rejects_bad_config_with_exit_two(tmp_path, capsys):
    rc = cli.main(
        [
            "census",
            "--group", "2,2",
            "--params", "1,0,1",
            "--bound", "100",
            "--out", str(tmp_path / "bad"),
        ]
    )
    err = capsys.readouterr().err
    assert rc == 2
    assert "error:" in err and "non-positive" in err


def test_main_budget_cap_exits_three(tmp_path, capsys):
    rc = cli.main(_census_args(tmp_path, "--node-budget", "40", bound="2000"))
    err = capsys.readouterr().err
    assert rc == 3
    assert "resource cap:" in err
    assert (tmp_path / "cmd.resume.json").exists()


def test_main_constants_prints_report(tmp_path, capsys):
    rc = cli.main(
        [
            "constants",
            "--group", "2,2",
            "--params", "2,1,2",
            "--omega", "1,3",
            "--gamma", "1..2",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "group: C2 x C2" in out
    assert "delta_x: 0" in out
    assert "conjecture: False" in out
    assert "class table (1-based indices):" in out
    assert "partitions[gamma=2]: (0,2) (1,1) (2,0)" in out


def test_main_series_dump(tmp_path, capsys):
    dest = tmp_path / "pi.tsv"
    rc = cli.main(
        [
            "series",
            "--group", "2",
            "--params", "1",
            "--omega", "1",
            "--gamma", "1",
            "--bound", "100",
            "--cache-dir", str(tmp_path / "cache"),
            "pi",
            "--series-out", str(dest),
        ]
    )
    assert rc == 0
    lines = dest.read_text().splitlines()
    assert lines[0].startswith("# pi[gamma=1] scale=1 bound=100")
    body = lines[1:]
    assert len(body) == int(lines[0].split("terms=")[1].split()[0])
    total = sum(int(row.rsplit("\t", 1)[1]) for row in body)
    assert f"summatory={total}" in lines[0]
    assert body[0].split("\t")[0] == "3^1"


def test_main_verify_passes(tmp_path, capsys):
    rc = cli.main(
        [
            "verify",
            "--group", "2,2",
            "--params", "1,1,1",
            "--omega", "1,3",
            "--gamma", "1..2",
            "--bound", "2000",
            "--cache-dir", str(tmp_path / "cache"),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("PASS") == 4
    assert "FAIL" not in out
    assert "series match the census slice by slice" in out
    assert "byte-identical CSV across worker counts" in out


def test_main_verify_failed_check_exits_2(tmp_path, capsys, monkeypatch):
    def broken(table):
        raise CacheError("prime table digest mismatch")

    monkeypatch.setattr(cli, "validate_prime_table", broken)
    rc = cli.main(
        [
            "verify",
            "--group", "2",
            "--params", "1",
            "--omega", "1",
            "--gamma", "1",
            "--bound", "200",
            "--cache-dir", str(tmp_path / "cache"),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 2
    assert "FAIL: prime table vs independent recount" in out


def test_main_verify_fails_when_the_routes_disagree(tmp_path, capsys, monkeypatch):
    real = cli.convolution_table

    def perturbed(*args, **kwargs):
        table = real(*args, **kwargs)
        table.hom[-1][1] += 1
        return table

    monkeypatch.setattr(cli, "convolution_table", perturbed)
    rc = cli.main(
        [
            "verify",
            "--group", "2",
            "--params", "1",
            "--omega", "1",
            "--gamma", "1",
            "--bound", "200",
            "--cache-dir", str(tmp_path / "cache"),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 2
    assert "FAIL: census walk equals the counted-leaf table" in out
    assert out.count("PASS") == 3
