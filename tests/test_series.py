"""Generating series: coefficient laws, sandwiches, singularities, trend calls."""

from __future__ import annotations

import logging
import math
from fractions import Fraction

import numpy as np
import pytest

import abelian_census as ac
from abelian_census import series as S
from abelian_census.errors import FitError, NotApplicableError, ParamError


def _cfg22():
    G = ac.make_group((2, 2))
    return G, ac.make_params(G, [1, 1, 1]), ac.validate_omega(G, [1, 3])


def _all_four(G, x, om, gamma, bound):
    return (
        S.mu_series(G, x, om, gamma, bound),
        S.pi_series(G, x, om, gamma, bound),
        S.psi_series(G, x, om, gamma, bound),
        S.tau_series(G, x, om, gamma, bound),
    )


# -- frozen totals and the coefficient sandwiches -------------------------------------

FROZEN_SUMS = {1: (8130, 7232, 8954, 66), 2: (6908, 5962, 8879, 8)}


@pytest.mark.parametrize("gamma", [1, 2])
def test_frozen_coefficient_sums(gamma):
    G, x, om = _cfg22()
    series = _all_four(G, x, om, gamma, Fraction(1000))
    assert tuple(sum(s.coefficients.values()) for s in series) == FROZEN_SUMS[gamma]


@pytest.mark.parametrize("gamma", [1, 2])
def test_sandwich_inequalities(gamma):
    G, x, om = _cfg22()
    mu, pi, psi, tau = _all_four(G, x, om, gamma, Fraction(1000))
    assert S.series_violations(pi, mu) == []
    assert S.series_violations(pi, psi) == []
    assert S.series_violations(tau, pi) == []


def test_series_metadata_and_support():
    G, x, om = _cfg22()
    mu, pi, psi, tau = _all_four(G, x, om, 1, Fraction(1000))
    for s, name in zip((mu, pi, psi, tau), ("mu", "pi", "psi", "tau")):
        assert s.label == f"{name}[gamma=1]"
        assert s.scale == 1
        assert s.truncation == 1000
        assert all(c > 0 for c in s.coefficients.values())
        assert all(0 < d < s.truncation for d in s.coefficients)


def test_violations_report_offending_terms():
    a = S.GeneratingSeries("a", 1, Fraction(10), 10, {2: 5, 3: 1})
    b = S.GeneratingSeries("b", 1, Fraction(10), 10, {2: 4, 7: 2})
    assert S.series_violations(a, b) == [(2, 5, 4), (3, 1, 0)]
    assert S.series_violations(b, a) == [(7, 2, 0)]


# -- special exact identities ----------------------------------------------------------


def test_tau_support_for_rank_one_witness():
    # anchor is unramified, so the tau terms are exactly one odd prime each
    G = ac.make_group((2,))
    om = ac.validate_omega(G, [1])
    x = ac.make_params(G, [1])
    tau = S.tau_series(G, x, om, 1, Fraction(1000))
    pi = S.pi_series(G, x, om, 1, Fraction(1000))
    assert set(tau.coefficients) == {
        int(p) for p in ac.load_prime_table(999, use_cache=False).primes if p % 2
    }
    assert set(tau.coefficients.values()) == {1}
    assert S.series_violations(tau, pi) == []


@pytest.mark.parametrize("gamma", [1, 2])
def test_psi_equals_pi_for_prime_cyclic_group(gamma):
    G = ac.make_group((3,))
    om = ac.validate_omega(G, [1, 2])
    x = ac.make_params(G, [1])
    psi = S.psi_series(G, x, om, gamma, Fraction(2000))
    pi = S.pi_series(G, x, om, gamma, Fraction(2000))
    assert psi.coefficients == pi.coefficients


def test_psi_is_empty_when_no_partition_exists():
    G = ac.make_group((3, 3))
    om = ac.omega_from_classes(G, [0, 1, 2, 3])
    x = ac.make_params(G, [1, 1, 1, 1])
    with pytest.warns(UserWarning, match="psi is empty"):
        psi = S.psi_series(G, x, om, 0, Fraction(500))
    assert psi.coefficients == {}


def test_mu_pi_partial_sums_match_convolution_path():
    G, x, om = _cfg22()
    cps = [Fraction(250), Fraction(1000)]
    for gamma in (1, 2):
        mu = S.mu_series(G, x, om, gamma, Fraction(1000))
        pi = S.pi_series(G, x, om, gamma, Fraction(1000))
        hom = S.convolution_counts(G, x, om, Fraction(1000), checkpoints=cps, gamma=gamma, mode="hom")
        sur = S.convolution_counts(G, x, om, Fraction(1000), checkpoints=cps, gamma=gamma, mode="sur")
        for (X, n_hom), (_, n_sur) in zip(hom, sur):
            t = X * mu.scale
            assert n_hom == sum(c for d, c in mu.coefficients.items() if d < t)
            assert n_sur == sum(c for d, c in pi.coefficients.items() if d < t)


# -- the counted-leaf route against the walk ------------------------------------------

F = Fraction
TABLE_CASES = [
    ((2,), [1], [0]),
    ((4,), [1, 2], [1]),
    ((8,), [1, F(3, 2), 2], [0, 2]),
    ((2, 2), [1, 1, 1], [0, 2]),
    ((2, 2), [2, 1, 2], [0, 2]),
    ((2, 2), [1, F(3, 2), F(3, 2)], [0, 2]),
    ((2, 4), [1, F(3, 2), 2, F(4, 3), F(5, 2)], [1, 3]),
    ((3, 3), [1, F(3, 2), 2, 1], [0, 3]),
    ((2, 2, 2), [1, 1, 2, 1, 2, 2, 1], [0, 6]),
    ((2, 2, 2), [F(3, 2)] * 7, []),
]


@pytest.mark.parametrize("factors,xs,om_classes", TABLE_CASES)
def test_convolution_table_equals_the_walk(factors, xs, om_classes):
    G = ac.make_group(factors)
    x = ac.make_params(G, xs)
    om = ac.omega_from_classes(G, om_classes)
    for bound in (F(999), F(3000)):
        assert S.convolution_table(G, x, om, bound) == ac.enumerate_census(G, x, om, bound)


@pytest.mark.parametrize(
    "factors,xs,om_classes",
    [
        ((2, 2), [1, F(3, 2), F(3, 2)], [0, 2]),  # scaled exponents 2 and 3
        ((3, 3), [1, F(3, 2), 2, 1], [0, 3]),
        ((8,), [1, F(3, 2), 2], [0, 2]),
    ],
)
def test_every_slice_call_equals_the_walk(factors, xs, om_classes):
    # a call for one gamma prunes internal profiles past it, slice by slice
    G = ac.make_group(factors)
    x = ac.make_params(G, xs)
    om = ac.omega_from_classes(G, om_classes)
    bound = F(3000)
    walk = ac.enumerate_census(G, x, om, bound)
    cps = walk.checkpoints
    for mode in ("hom", "sur"):
        for g in range(walk.gamma_cap + 2):
            pairs = S.convolution_counts(G, x, om, bound, checkpoints=cps, gamma=g, mode=mode)
            assert pairs == [(X, walk.slice_count(mode, ci, g)) for ci, X in enumerate(cps)]


def test_leaf_kernel_reads_the_usable_primes_in_place():
    G = ac.make_group((2,))
    x = ac.make_params(G, [1])
    ctx = ac.CensusContext(G, x, ac.validate_omega(G, []), bound=F(10**4))
    kernel = S._LeafKernel(ctx)
    assert np.shares_memory(kernel.primes_of((1,)), np.frombuffer(ctx.primes, dtype=np.int64))
    assert kernel.primes_of((1,)).tolist() == list(ctx.primes)


# -- the convolution engine's guards ------------------------------------------------------


def test_leaf_sums_do_not_wrap_int64(caplog):
    # C2 with omega its one class: every tame option has weight 1 and meets
    # omega, so setting the tame weights to 2**62 multiplies slice g by
    # 2**(62 g), far past int64, and leaves the unsliced wild mass alone
    G = ac.make_group((2,))
    x = ac.make_params(G, [1])
    om = ac.validate_omega(G, [1])
    bound = Fraction(3000)
    walk = ac.enumerate_census(G, x, om, bound)
    ctx = ac.CensusContext(G, x, om, bound=bound)
    ctx.tame_options_by_residue = {
        r: tuple((e, 1 << 62, meets, sid) for e, _, meets, sid in opts)
        for r, opts in ctx.tame_options_by_residue.items()
    }
    with caplog.at_level(logging.WARNING, logger="abelian_census.series"):
        rows = S._slot_rows(ctx, ("hom",), None)["hom"]
    for ci, row in enumerate(rows):
        assert row[:-1] == [
            walk.slice_count("hom", ci, g) << (62 * g) for g in range(walk.gamma_cap + 1)
        ]
        assert row[-1] == walk.unsliced_count("hom", ci)
    assert walk.max_nonzero_gamma() >= 2
    assert "fall back to Python ints" in caplog.text


def test_frontier_weights_past_int64_are_announced(caplog):
    # tame weights of 2**62 pass int64 on the second tame prime, so the
    # level-by-level frontier turns its weights into Python ints and says so
    G = ac.make_group((2,))
    x = ac.make_params(G, [1])
    om = ac.validate_omega(G, [1])
    bound = Fraction(3000)
    walk = ac.enumerate_census(G, x, om, bound)
    ctx = ac.CensusContext(G, x, om, bound=bound)
    ctx.tame_options_by_residue = {
        r: tuple((e, 1 << 62, meets, sid) for e, _, meets, sid in opts)
        for r, opts in ctx.tame_options_by_residue.items()
    }
    with caplog.at_level(logging.WARNING, logger="abelian_census.series"):
        rows = S._slot_rows(ctx, ("hom",), 2)["hom"]
    assert "a frontier weight could pass int64" in caplog.text
    for ci, row in enumerate(rows):
        assert row[:3] == [walk.slice_count("hom", ci, g) << (62 * g) for g in range(3)]


def test_thresholds_past_int64_are_counted_exactly(caplog):
    # D = 6 makes T = X**6 pass 2**63 at X = 1500
    G = ac.make_group((2, 2))
    x = ac.make_params(G, [Fraction(7, 6), Fraction(3, 2), Fraction(4, 3)])
    om = ac.validate_omega(G, [1, 3])
    with caplog.at_level(logging.WARNING, logger="abelian_census.series"):
        table = S.convolution_table(G, x, om, Fraction(1500))
    assert table.thresholds[-1] >= 1 << 63
    assert "thresholds reach 2**63" in caplog.text
    assert table == ac.enumerate_census(G, x, om, Fraction(1500))


def test_dense_fallback_is_announced(caplog):
    G, x, om = _cfg22()
    ctx = ac.CensusContext(G, x, om, bound=Fraction(200), checkpoints=[Fraction(200)])
    rows_fn, n_states = S._census_rows(ctx, 1)
    with caplog.at_level(logging.WARNING, logger="abelian_census.series"):
        sparse = S._convolve_raw(ctx.t_max, rows_fn, n_states, cell_cap=16)
    assert "T=200, 2 states" in caplog.text
    assert "cell cap 16" in caplog.text
    dense = S._convolve_raw(ctx.t_max, rows_fn, n_states)
    assert [S._coefficients(st) for st in sparse] == [S._coefficients(st) for st in dense]


# -- singularity analysis ---------------------------------------------------------------


def test_singularity_three_regimes():
    G = ac.make_group((2, 2))
    om = ac.validate_omega(G, [1, 3])

    sd = S.singularity_data(G, ac.make_params(G, [2, 1, 2]), om, 1)
    assert (sd.case, sd.sigma0, sd.pole_order, sd.log_power) == (1, 1, 1, 0)
    assert not sd.loglog_ambiguous
    sh = S.delange_shape(sd)
    assert (sh.x_exponent, sh.log_exponent, sh.loglog_exponent) == (1, 0, 0)

    sd = S.singularity_data(G, ac.make_params(G, [1, 1, 1]), om, 1)
    assert (sd.case, sd.sigma0, sd.pole_order, sd.log_power) == (2, 1, 1, 1)
    sh = S.delange_shape(sd)
    assert (sh.x_exponent, sh.log_exponent, sh.loglog_exponent) == (1, 0, 1)
    assert sh.loglog_alternatives == (1,)

    sd = S.singularity_data(G, ac.make_params(G, [Fraction(1, 2), 1, Fraction(1, 2)]), om, 1)
    assert (sd.case, sd.sigma0, sd.pole_order, sd.log_power) == (2, 2, 0, 1)
    assert sd.loglog_ambiguous
    sh = S.delange_shape(sd)
    assert (sh.x_exponent, sh.log_exponent) == (2, -1)
    # the pole-free branch carries the documented off-by-one ambiguity
    assert sh.loglog_alternatives == (0, 1)
    assert sh.gamma_value is None
    assert sh.constant_descriptor.endswith("(unverified)")


def test_singularity_rejects_unreachable_gamma():
    G = ac.make_group((3, 3))
    om = ac.omega_from_classes(G, [0, 1, 2, 3])
    x = ac.make_params(G, [1, 1, 1, 1])
    with pytest.raises(ParamError, match="below gamma_x"):
        S.singularity_data(G, x, om, 0)


def test_delange_refuses_the_singularity_free_case():
    # omega meets only the cheap class, everything else is expensive, and
    # gamma = delta: no pole, no log power, nothing to translate
    G = ac.make_group((2, 2))
    om = ac.validate_omega(G, [1])
    x = ac.make_params(G, [1, 2, 2])
    sd = S.singularity_data(G, x, om, 0)
    assert (sd.pole_order, sd.log_power) == (0, 0)
    with pytest.raises(NotApplicableError):
        S.delange_shape(sd)


def test_singularity_with_empty_omega_is_plain_pole():
    G = ac.make_group((2,))
    sd = S.singularity_data(G, ac.make_params(G, [1]), ac.validate_omega(G, []), 0)
    assert (sd.case, sd.pole_order, sd.log_power) == (1, 1, 0)


# -- exponent fitting ---------------------------------------------------------------------


def _synthetic(exp_x, exp_log, n=40):
    pairs = []
    for k in range(n):
        X = Fraction(10) * 2**k
        fx = float(X)
        pairs.append((X, int(3.7 * fx**exp_x * math.log(fx) ** exp_log)))
    return pairs


def test_fit_recovers_synthetic_exponents():
    fit = S.fit_exponents(_synthetic(1.5, 2))
    assert fit.x_exponent == pytest.approx(1.5, abs=0.01)
    assert fit.log_exponent == pytest.approx(2.0, abs=0.01)
    assert fit.n_points == 40
    assert fit.decades > 10
    assert abs(fit.stability) < 0.01
    pure = S.fit_exponents(_synthetic(1.0, 0))
    assert pure.x_exponent == pytest.approx(1.0, abs=0.01)
    assert pure.log_exponent == pytest.approx(0.0, abs=0.05)


def test_fit_gates_on_points_and_span():
    with pytest.raises(FitError, match="need at least 8"):
        S.fit_exponents(_synthetic(1.0, 0, n=5))
    with pytest.raises(FitError):
        S.fit_exponents([(Fraction(10) * 2**k, 0) for k in range(12)])
    with pytest.raises(FitError, match="decades"):
        S.fit_exponents(_synthetic(1.0, 0, n=9), min_decades=4.0)


def test_fit_accepts_table_or_pairs():
    G, x, om = _cfg22()
    table = ac.enumerate_census(G, x, om, Fraction(10**4))
    from_table = S.fit_exponents(table, mode="sur")
    pairs = [
        (cp, table.total_count("sur", ci)) for ci, cp in enumerate(table.checkpoints)
    ]
    from_pairs = S.fit_exponents(pairs)
    assert from_table == from_pairs
    sliced = S.fit_exponents(table, mode="sur", gamma=1)
    slice_pairs = [
        (cp, table.slice_count("sur", ci, 1)) for ci, cp in enumerate(table.checkpoints)
    ]
    assert sliced == S.fit_exponents(slice_pairs)


# -- ratio trends ----------------------------------------------------------------------------


def _pairs(vals):
    return [(Fraction(10) * 2**k, v) for k, v in enumerate(vals)]


def test_ratio_classifications_on_synthetic_data():
    n = 16
    flat = {1: _pairs([100 + (-1) ** k for k in range(n)]), 2: _pairs([50] * n)}
    assert S.ratio_R(1, 2, flat).classification == "bounded-positive"
    dying = {1: _pairs([1000] * n), 2: _pairs([100 * 2**k for k in range(n)])}
    assert S.ratio_R(1, 2, dying).classification == "to-zero"
    rising = {1: _pairs([100 * 2**k for k in range(n)]), 2: _pairs([1000] * n)}
    assert S.ratio_R(1, 2, rising).classification == "growing"
    hole = {1: _pairs([10] * n), 2: _pairs([5] * (n - 1) + [0])}
    assert S.ratio_R(1, 2, hole).classification == "undefined"


def test_ratio_table_and_mapping_paths_agree():
    G, x, om = _cfg22()
    table = ac.enumerate_census(G, x, om, Fraction(5000))
    got = S.ratio_R(1, 2, table)
    data = {
        g: [(cp, table.slice_count("sur", ci, g)) for ci, cp in enumerate(table.checkpoints)]
        for g in (1, 2)
    }
    assert S.ratio_R(1, 2, data) == got


def test_ratio_mapping_path_validates_input():
    data = {1: _pairs([5, 7]), 2: _pairs([3, 2])}
    with pytest.raises(ParamError, match="gamma=1 and gamma=3"):
        S.ratio_R(1, 3, data)
    with pytest.raises(ParamError, match="checkpoints do not match"):
        S.ratio_R(1, 2, {1: _pairs([5, 7]), 2: _pairs([3, 2, 4])})


def test_ratio_thresholds_are_pinned():
    assert S.RATIO_DECLINE == 0.8
    assert S.RATIO_GROWTH == 1.3


# -- scaling invariance ------------------------------------------------------------------------


@pytest.mark.parametrize("a", [Fraction(2), Fraction(1, 3)])
def test_scaling_invariance(a):
    G2 = ac.make_group((2,))
    assert S.scaling_check(G2, ac.make_params(G2, [1]), a, Fraction(1000))
    G6 = ac.make_group((6,))
    assert S.scaling_check(G6, ac.make_params(G6, [3, 4, 5]), a, Fraction(1000))


def test_scaling_rejects_nonpositive_factor():
    G = ac.make_group((2,))
    with pytest.raises(ParamError):
        S.scaling_check(G, ac.make_params(G, [1]), Fraction(0), Fraction(100))
