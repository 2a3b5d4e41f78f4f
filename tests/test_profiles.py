"""Census walk: profile invariants, exact tables, resume, and the summatory path."""

from __future__ import annotations

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import abelian_census as ac
from abelian_census import profiles as P
from abelian_census.errors import CensusError, ParamError, ResourceCapError
from abelian_census.series import convolution_counts

import _oracles as orc


# -- integer threshold arithmetic ---------------------------------------------------


def test_scaled_threshold_exact_cases():
    assert P.scaled_threshold(Fraction(100), 1) == 100
    assert P.scaled_threshold(Fraction(99, 2), 1) == 50
    assert P.scaled_threshold(Fraction(101, 10), 1) == 11
    assert P.scaled_threshold(Fraction(10), 2) == 100
    assert P.scaled_threshold(Fraction(100), 1, Fraction(1, 2)) == 10
    assert P.scaled_threshold(Fraction(8), 1, Fraction(2, 3)) == 4
    # exactness beyond float precision
    assert P.scaled_threshold(Fraction(10) ** 20, 1) == 10**20
    assert P.scaled_threshold(Fraction(2) ** 40, 3) == 2**120


def test_integer_nth_root_is_floor_root():
    assert P.integer_nth_root(10**18, 2) == 10**9
    assert P.integer_nth_root(10**18 + 1, 2) == 10**9
    assert P.integer_nth_root((10**6 + 1) ** 3 - 1, 3) == 10**6
    for n in range(1, 200):
        r = P.integer_nth_root(n, 3)
        assert r**3 <= n < (r + 1) ** 3


def test_geometric_checkpoints_halve_down_to_floor():
    pts = P.geometric_checkpoints(Fraction(1000))
    assert pts[-1] == 1000
    assert all(b == 2 * a for a, b in zip(pts, pts[1:]))
    assert pts[0] >= 2 and pts[0] / 2 < 2
    assert P.geometric_checkpoints(Fraction(100), ratio=10, floor=5) == (
        Fraction(10),
        Fraction(100),
    )


# -- per-profile invariants vs brute force ------------------------------------------

PROFILE_CASES = [
    ((2, 2), {3: 1}),
    ((2, 2), {3: 1, 5: 2}),
    ((2, 2), {2: 4, 7: 3}),
    ((2, 2), {3: 4}),
    ((6,), {7: 3, 5: 1}),
    ((6,), {2: 1, 3: 2, 7: 3}),
    ((4,), {5: 2, 13: 1}),
    ((12,), {13: 5, 5: 2}),
]


@pytest.mark.parametrize("factors,assign", PROFILE_CASES)
def test_theta_weight_generation_vs_oracle(factors, assign):
    G = ac.make_group(factors)
    f = list(G.invariant_factors)
    classes = orc.power_classes_of(f)
    x = ac.make_params(G, [Fraction(k + 1, 2) for k in range(len(classes))])
    prof = P.RamificationProfile.from_dict(assign)
    subs = G.subgroups()

    th = P.theta(G, prof, x)
    assert th.scale == x.denominator_scale
    got = dict(th.exponents)
    for p, sid in assign.items():
        members = frozenset(G.elements[i] for i in subs[sid].members)
        want = orc.x_of_image(members, classes, f, list(x.values)) * th.scale
        assert got[p] == want

    w = P.weight(G, prof)
    brute = 1
    for p, sid in assign.items():
        members = frozenset(G.elements[i] for i in subs[sid].members)
        brute *= orc.brute_sur_count(orc.local_model_factors(p, f), members, f)
    assert w == brute

    gens: set = set()
    for sid in assign.values():
        gens |= {G.elements[i] for i in subs[sid].members}
    spans = orc.closure(gens, f) == set(orc.all_elements(f))
    assert P.is_generating(G, prof) == spans


def test_profile_validation_rejects_bad_assignments():
    with pytest.raises(CensusError):
        P.RamificationProfile(((5, 1), (3, 1)))  # not ascending
    with pytest.raises(CensusError):
        P.RamificationProfile(((4, 1),))  # composite key
    with pytest.raises(CensusError):
        P.RamificationProfile(((3, 0),))  # trivial image
    prof = P.RamificationProfile.from_dict({7: 1, 3: 2})
    assert prof.assignments == ((3, 2), (7, 1))


def test_indicator_gamma_counts_tame_meets_only():
    G = ac.make_group((2, 2))
    om = ac.validate_omega(G, [1, 3])
    # 3 -> <g1> meets omega (tame), 2 -> full group meets omega (wild)
    prof = P.RamificationProfile.from_dict({2: 4, 3: 1, 5: 2})
    gamma_tame, flags = P.indicator_gamma(G, prof, om, gammas=(0, 1, 2))
    assert gamma_tame == 1
    assert flags == (False, True, False)
    # without the wild prime, gamma 0 holds when nothing tame meets
    quiet = P.RamificationProfile.from_dict({5: 2})  # <g2> avoids omega? id 2 = <g1>
    gq, fq = P.indicator_gamma(G, quiet, om, gammas=(0,))
    assert (gq, fq) == (0, (True,))


def test_index_value_roundtrip_and_log():
    iv = P.IndexValue(scale=2, exponents=((2, 3), (5, 1)))
    assert iv.scaled_value == 40
    back = P.IndexValue.from_scaled(40, 2, [2, 3, 5, 7])
    assert back == iv
    import math

    assert iv.log_value() == pytest.approx((3 * math.log(2) + math.log(5)) / 2)
    # a prime factor above the sqrt of the value is still recovered
    big = P.IndexValue.from_scaled(4 * 101, 1, [2, 3, 5, 7])
    assert big.exponents == ((2, 2), (101, 1))


# -- exact census vs the independent walk -------------------------------------------

CENSUS_CASES = [
    ((2, 2), [1, 1, 1], [1, 3], 200),
    ((2, 2), [2, 1, 2], [1, 3], 400),
    ((6,), [3, 4, 5], [3], 300),
    ((4,), [1, 2], [2], 200),
    ((3,), [1], [1, 2], 300),
]


@pytest.mark.parametrize("factors,xs,om_ids,bound", CENSUS_CASES)
def test_census_matches_brute_walk(factors, xs, om_ids, bound):
    G = ac.make_group(factors)
    x = ac.make_params(G, xs)
    om = ac.validate_omega(G, om_ids)
    table = ac.enumerate_census(G, x, om, Fraction(bound), checkpoints=[Fraction(bound)])
    om_tuples = {G.elements[i] for i in om.elements}
    want = orc.census_all_homs(
        list(G.invariant_factors), list(x.values), om_tuples, Fraction(bound)
    )
    assert table.total_count("hom", 0) == want["total_hom"]
    assert table.total_count("sur", 0) == want["total_sur"]
    assert table.unsliced_count("hom", 0) == want["unsliced_hom"]
    assert table.unsliced_count("sur", 0) == want["unsliced_sur"]
    for g in range(table.gamma_cap + 1):
        assert table.slice_count("hom", 0, g) == want["hom"].get(g, 0)
        assert table.slice_count("sur", 0, g) == want["sur"].get(g, 0)


def test_counts_monotone_and_partitioned():
    G = ac.make_group((2, 2))
    x = ac.make_params(G, [1, 1, 1])
    om = ac.validate_omega(G, [1, 3])
    table = ac.enumerate_census(G, x, om, Fraction(3000))
    n_ck = len(table.checkpoints)
    assert table.checkpoints == tuple(sorted(table.checkpoints))
    for mode in ("sur", "hom"):
        totals = [table.total_count(mode, ci) for ci in range(n_ck)]
        assert totals == sorted(totals)
        for ci in range(n_ck):
            parts = sum(table.slice_count(mode, ci, g) for g in range(table.gamma_cap + 1))
            assert parts + table.unsliced_count(mode, ci) == totals[ci]
    assert table.hom[0] != table.sur[0] or table.unsliced_hom != table.unsliced_sur


def test_target_id_inclusion_exclusion():
    G = ac.make_group((2, 2))
    x = ac.make_params(G, [1, 1, 1])
    om = ac.validate_omega(G, [1])
    bound = Fraction(300)
    ck = [Fraction(300)]
    full = ac.enumerate_census(G, x, om, bound, checkpoints=ck)
    by_target = {
        s.id: ac.enumerate_census(G, x, om, bound, checkpoints=ck, target_id=s.id)
        for s in G.subgroups()
    }
    # hom counts into M = sur counts onto the subgroups of M, slice by slice
    for m in G.subgroups():
        inner = G.subgroup_ids_within(m.id)
        assert by_target[m.id].total_count("hom", 0) == sum(
            by_target[k].total_count("sur", 0) for k in inner
        )
    assert full.total_count("hom", 0) == sum(
        t.total_count("sur", 0) for t in by_target.values()
    )


def test_count_by_index_agrees_with_table():
    G = ac.make_group((2, 2))
    x = ac.make_params(G, [1, 1, 1])
    om = ac.validate_omega(G, [1, 3])
    bound = Fraction(500)
    table = ac.enumerate_census(G, x, om, bound, checkpoints=[bound])
    for gamma in (None, 0, 1, 2):
        d = P.count_by_index(G, x, om, bound, mode="sur", gamma=gamma)
        total = sum(d.values())
        if gamma is None:
            assert total == table.total_count("sur", 0)
        else:
            assert total == table.slice_count("sur", 0, gamma)
        flat = P.count_by_index(
            G, x, om, bound, mode="sur", gamma=gamma, as_index_values=False
        )
        assert sum(flat.values()) == total
        assert {iv.scaled_value for iv in d} == set(flat)
        assert all(v.scaled_value < bound * table.scale for v in d)


@pytest.mark.parametrize(
    "factors,xs,om_classes,bound",
    [
        ((2,), [1], [0], Fraction(10**5)),
        ((3,), [1], [], Fraction(10**5)),
        ((5,), [2], [0], Fraction(10**6)),
        ((2, 4), [1, Fraction(3, 2), 2, Fraction(4, 3), Fraction(5, 2)], [], Fraction(10**4)),
        ((3, 3), [1, Fraction(3, 2), 2, 1], [0, 3], Fraction(10**4)),
    ],
)
def test_usable_primes_are_the_primes_whose_residue_has_options(factors, xs, om_classes, bound):
    G = ac.make_group(factors)
    x = ac.make_params(G, xs)
    om = ac.omega_from_classes(G, om_classes)
    ctx = P.CensusContext(G, x, om, bound=bound)
    N = G.order
    want = [
        p for p in ac.sieve_primes(ctx.plimit).tolist()
        if ctx.tame_options_by_residue.get(p % N)
    ]
    assert want and list(ctx.primes) == want
    assert all(type(p) is int for p in ctx.primes[:3])


# -- determinism, budget, resume ----------------------------------------------------


def _smoke_args():
    G = ac.make_group((2, 2))
    x = ac.make_params(G, [1, 1, 1])
    om = ac.validate_omega(G, [1, 3])
    return G, x, om, Fraction(2000)


def test_walk_task_counts_each_visited_profile():
    ctx = P.CensusContext(*_smoke_args())
    for task in ctx.tasks():
        seen = []
        assert P.walk_task(ctx, task, lambda *node: seen.append(node)) == len(seen)


@pytest.mark.parametrize("bound,nodes", [(2000, 18_527), (20_000, 266_303)])
def test_walk_node_counts_on_the_smoke_config(bound, nodes):
    G, x, om, _ = _smoke_args()
    ctx = P.CensusContext(G, x, om, bound=Fraction(bound))
    assert sum(P.walk_task(ctx, task, lambda *node: None) for task in ctx.tasks()) == nodes


def test_node_budget_trips_on_the_next_node_in_both_prime_loops():
    ctx = P.CensusContext(*_smoke_args())
    task = (0, 0)
    full = []
    P.walk_task(ctx, task, lambda *node: full.append(node))
    for budget in range(1, 401):
        seen = []
        with pytest.raises(ResourceCapError):
            P.walk_task(ctx, task, lambda *node: seen.append(node), budget)
        assert seen == full[:budget]

    def in_leaf_run(v: int) -> bool:
        # the node's last prime p^e joined a parent whose lim leaves no room
        # for p^(2*e_min): no child at p can be extended
        p, e = P.IndexValue.from_scaled(v, ctx.scale, ctx.primes).exponents[-1]
        return p ** (2 * ctx.e_min_tame) > (ctx.t_max - 1) // (v // p**e)

    # node budget + 1 is the one that trips the cap
    assert {in_leaf_run(full[budget][0]) for budget in range(1, 401)} == {True, False}


def test_thread_count_does_not_change_results():
    G, x, om, bound = _smoke_args()
    serial = ac.enumerate_census(G, x, om, bound)
    forked = ac.enumerate_census(G, x, om, bound, threads=2)
    assert serial == forked


@pytest.mark.parametrize("threads", [1, 2])
def test_node_budget_trips_resource_cap(threads):
    G, x, om, bound = _smoke_args()
    with pytest.raises(ResourceCapError):
        ac.enumerate_census(G, x, om, bound, node_budget=5, threads=threads)


def test_pooled_node_budget_stops_within_threads_times_budget():
    G, x, om, _ = _smoke_args()
    threads, budget = 2, 1000
    with pytest.raises(ResourceCapError, match=r"nodes so far") as info:
        ac.enumerate_census(
            G, x, om, Fraction(10**5), node_budget=budget, threads=threads
        )
    nodes = int(re.search(r"\((\d+) nodes so far\)", str(info.value)).group(1))
    assert budget < nodes <= threads * (budget + 1)


def test_workers_use_the_callers_cache_dir(tmp_path, monkeypatch):
    env_dir = tmp_path / "env"
    env_dir.mkdir()
    monkeypatch.setenv("ABELIAN_CENSUS_CACHE", str(env_dir))
    G, x, om, bound = _smoke_args()
    ac.enumerate_census(G, x, om, bound, threads=2, cache_dir=tmp_path / "chosen")
    assert list((tmp_path / "chosen").glob("primes_*.npy"))
    assert list(env_dir.iterdir()) == []


def test_resume_from_recorded_tasks():
    G, x, om, bound = _smoke_args()
    recorded: dict = {}

    def keep(task, part_sur, part_hom):
        recorded[task] = (part_sur, part_hom)

    full = ac.enumerate_census(G, x, om, bound, on_task=keep)
    assert recorded

    # a context built with the same arguments replays the recorded tasks
    ctx = P.CensusContext(G, x, om, bound=bound)
    assert P.merge_task_table(ctx, recorded) == full

    # restart with half the work done: remaining tasks produce the same table
    tasks = sorted(recorded)
    done = {t: recorded[t] for t in tasks[: len(tasks) // 2]}
    seen: list = []
    resumed = ac.enumerate_census(
        G, x, om, bound, done_tasks=done, on_task=lambda t, s, h: seen.append(t)
    )
    assert resumed == full
    assert sorted(seen) == tasks[len(tasks) // 2 :]


def test_recorded_tasks_outside_the_partition_are_refused():
    G, x, om, bound = _smoke_args()
    recorded: dict = {}
    ac.enumerate_census(
        G, x, om, bound, on_task=lambda t, s, h: recorded.setdefault(t, (s, h))
    )
    task, (part_sur, part_hom) = next(iter(recorded.items()))
    with pytest.raises(ParamError, match="task partition"):
        ac.enumerate_census(G, x, om, bound, done_tasks={(999, 3): (part_sur, part_hom)})
    narrow = [row[:-1] for row in part_hom]
    with pytest.raises(ParamError, match="diff tables"):
        ac.enumerate_census(G, x, om, bound, done_tasks={task: (part_sur, narrow)})


# -- summatory convolution path -----------------------------------------------------

CONV_CASES = [
    ((2,), [1], [], None),
    ((2,), [1], [1], 1),
    ((2, 2), [1, 1, 1], [1, 3], 0),
    ((2, 2), [2, 1, 2], [1, 3], 1),
    ((6,), [3, 4, 5], [3], 2),
]


@pytest.mark.parametrize("factors,xs,om_ids,gamma", CONV_CASES)
@pytest.mark.parametrize("mode", ["hom", "sur"])
def test_convolution_counts_match_census(factors, xs, om_ids, gamma, mode):
    G = ac.make_group(factors)
    x = ac.make_params(G, xs)
    om = ac.validate_omega(G, om_ids)
    bound = Fraction(2000)
    pairs = convolution_counts(G, x, om, bound, gamma=gamma, mode=mode)
    table = ac.enumerate_census(G, x, om, bound)
    assert [X for X, _ in pairs] == list(table.checkpoints)
    for (X, n), ci in zip(pairs, range(len(table.checkpoints))):
        if gamma is None:
            assert n == table.total_count(mode, ci)
        else:
            assert n == table.slice_count(mode, ci, gamma)


def test_convolution_counts_match_walk_past_the_old_state_cap():
    # T = 2**28 with two slice states was refused by the dense engine; the
    # counted-leaf kernel needs primes only up to 2**(28/3)
    G = ac.make_group((2,))
    x = ac.make_params(G, [3])
    om = ac.validate_omega(G, [1])
    bound = Fraction(2**28)
    table = ac.enumerate_census(G, x, om, bound)
    for mode in ("hom", "sur"):
        pairs = convolution_counts(G, x, om, bound, gamma=1, mode=mode)
        assert [n for _, n in pairs] == [
            table.slice_count(mode, ci, 1) for ci in range(len(table.checkpoints))
        ]
        assert pairs[-1][1] == 311


# -- property: table scale/thresholds stay consistent --------------------------------


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=10, max_value=4000))
def test_property_threshold_matches_checkpoints(bound):
    G = ac.make_group((2,))
    x = ac.make_params(G, [1])
    om = ac.validate_omega(G, [1])
    table = ac.enumerate_census(G, x, om, Fraction(bound))
    for ck, t in zip(table.checkpoints, table.thresholds):
        assert t == P.scaled_threshold(ck, table.scale, table.checkpoint_power)
