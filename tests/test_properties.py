"""Property tests: every fast path against the definitions in ``oracles``.

Each dividend-share check is held to 1e-12 relative to v(N).  The drawn
cases include additive games (no synergy), all-equal joining times,
times whose minimum is above 0, beta = 1000, gamma = 0, and one party at
time 10**6, where the per-interval definition has a million rows but the
kernel only sees the distinct joining times.  The tempered GP value is
held to 1e-10 relative to its virtual-copy definition on small models
with scalar and per-point noise, at kappa 0, 1 and within 1e-12 of both.
On models whose parties own 0-6 points each, the block-Cholesky IG
tables, the eigenvalue tempering curve and the one-factor greedy subset
are held to the per-coalition and per-step factorizations to 1e-10
relative to max(1, v(N)), with the same selections and saturated flags.
The batched F7/F8 counterfactuals of cumulation, timeval, plain
Shapley and naive are held to the scheme re-run per counterfactual: the same
statuses, instance counts and witness order, and witness rewards equal
to 1e-12 relative to max(1, v(N)).
A full report's rewards are the scheme's bit for bit; its rho and
scaled rewards are those of ``scale_rewards`` to 1e-12 relative, and
exactly at all-equal joining times and for naive and plain Shapley.
The axiom and incentive reports must equal the submask-loop references
exactly, witnesses and tie-breaks included, on tables with many ties,
and on convex, large-magnitude, superadditive-but-not-convex and
failing tables, which the superadditivity certificate either settles or
must leave to the scan.  The blocked superadditivity scan is held to the
same reference on n = 1-11 tables, whole-number ones with many exactly
tied gaps among them, at tol 0 and 1e-9.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    brute_force_shapley,
    check_axioms_reference,
    check_static_reference,
    check_temporal_reference,
    conditional_ig_table_reference,
    necessity_reference,
    strictness_reference,
    interval_shapley_reference,
    reward_cumulation_reference,
    select_subset_reference,
    tempered_value_reference,
    time_aware_table_reference,
)
from timereward import (
    Game,
    GpModel,
    TimeVector,
    check_axioms,
    check_static,
    check_temporal,
    conditional_ig_game,
    cumulation_scheme,
    full_incentive_report,
    gp_ig,
    ig_game,
    interval_shapley_values,
    naive_scheme,
    necessity_predicate,
    reward_cumulation,
    reward_time_valuation,
    scale_rewards,
    select_subset,
    shapley_exact,
    shapley_scheme,
    strictness_predicate,
    temper,
    tempered_value,
    time_aware_game,
    time_valuation_scheme,
)
from timereward import games
from timereward.games import subset_sums

RTOL = 1e-12
FAR = 10**6


def dividend_game(n: int, seed: int, additive: bool) -> Game:
    """Non-negative drawn dividends, summed over subsets; additive keeps only solo ones."""
    dividends = np.random.default_rng(seed).uniform(0.0, 1.0, size=1 << n)
    dividends[0] = 0.0
    if additive:
        solo = dividends[1 << np.arange(n)]
        dividends[:] = 0.0
        dividends[1 << np.arange(n)] = solo
    table = subset_sums(dividends)
    return Game(n, table=table)


def check_against_oracles(game: Game, times: TimeVector, beta: float, gamma: float):
    tol = RTOL * game.grand_value()

    def close(got, want):
        assert np.max(np.abs(np.asarray(got) - np.asarray(want))) <= tol

    close(shapley_exact(game).values, brute_force_shapley(game))
    close(interval_shapley_values(game, times), interval_shapley_reference(game, times))
    close(reward_cumulation(game, times, beta).rewards, reward_cumulation_reference(game, times, beta))
    reference_table = time_aware_table_reference(game, times, gamma)
    close(time_aware_game(game, times, gamma).table(), reference_table)
    reference_game = Game(game.n, table=reference_table)
    close(reward_time_valuation(game, times, gamma).rewards, brute_force_shapley(reference_game))


# Every built-in scheme, each of which gives its own-time reward;
# gamma = 800 puts every ability after time 0 on the floor
OWN_TIME_SCHEMES = (
    [cumulation_scheme(beta) for beta in (0.5, 1.0, 2.0, 1000.0)]
    + [time_valuation_scheme(gamma) for gamma in (0.0, 1.0, 800.0)]
    + [shapley_scheme(), naive_scheme()]
)


def assert_temporal_matches_reruns(game: Game, times: TimeVector, scheme):
    """The batched F7/F8 report equals the scheme re-run per counterfactual.

    Statuses, instance counts and witness order must be equal, and
    witness rewards equal to 1e-12 relative to max(1, v(N)).
    """
    got = check_temporal(game, times, scheme).to_dict()
    want = check_temporal_reference(game, times, scheme, 1e-9).to_dict()
    tol = RTOL * max(1.0, game.grand_value())
    for key in ("F7", "F8"):
        assert (got[key]["status"], got[key]["instances"]) == (
            want[key]["status"], want[key]["instances"]
        ), (key, scheme.name, scheme.param)
        got_w, want_w = got[key].get("witnesses", []), want[key].get("witnesses", [])
        assert [w[:3] for w in got_w] == [w[:3] for w in want_w]
        for g, w in zip(got_w, want_w):
            assert max(abs(g[3] - w[3]), abs(g[4] - w[4])) <= tol


@st.composite
def temporal_cases(draw):
    n = draw(st.integers(1, 5))
    game = dividend_game(n, draw(st.integers(0, 2**32 - 1)), draw(st.booleans()))
    times = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    shape = draw(st.sampled_from(["as drawn", "all zero", "shifted", "unique latest", "tied latest"]))
    if shape == "all zero":
        times = [0] * n
    elif shape == "shifted":
        times = [t + draw(st.integers(1, 3)) for t in times]
    elif shape == "unique latest":
        times[draw(st.integers(0, n - 1))] = max(times) + draw(st.integers(1, 3))
    elif shape == "tied latest" and n >= 2:
        first, second = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        times[first] = times[second] = max(times) + 1
    return game, TimeVector.of(times), draw(st.sampled_from(OWN_TIME_SCHEMES))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(temporal_cases())
def test_batched_counterfactuals_match_reruns(case):
    assert_temporal_matches_reruns(*case)


@pytest.mark.parametrize("scheme", OWN_TIME_SCHEMES, ids=lambda s: f"{s.name}-{s.param}")
@pytest.mark.parametrize(
    "times",
    [(0, 1, 4, 2), (0, 0, 0, 0), (2, 3, 5, 2), (1, 3, 3, 0)],
    ids=["unique-latest-moves", "all-zero", "min-above-0", "tied-latest"],
)
def test_batched_counterfactual_edge_cases(times, scheme):
    # party 3 is the only latest party in the first case: moving it
    # earlier shrinks the cumulation horizon
    assert_temporal_matches_reruns(dividend_game(4, 11, False), TimeVector.of(times), scheme)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(temporal_cases())
def test_report_rewards_are_the_schemes(case):
    """The report's rewards are the scheme's bit for bit, and its scaling that of scale_rewards.

    rho takes the Shapley values from the report's own dividend pass,
    summed by bucket of joining times: within 1e-12 relative of
    ``scale_rewards``, and equal to it when one bucket holds everything
    or when the scheme takes them from ``shapley_exact`` itself.
    """
    game, times, scheme = case
    got, _ = full_incentive_report(game, times, scheme)
    direct = scheme(game, times)
    assert got.rewards.tobytes() == direct.rewards.tobytes()
    want = scale_rewards(game, direct)
    assert (got.rho is None) == (want.rho is None)
    if len(set(times.times)) == 1 or scheme.name in ("naive", "shapley"):
        assert got.rho == want.rho
        assert got.scaled.tobytes() == want.scaled.tobytes()
    elif want.rho is not None:
        assert abs(got.rho - want.rho) <= RTOL * want.rho
        assert np.max(np.abs(got.scaled - want.scaled)) <= RTOL * np.max(np.abs(want.scaled))


@st.composite
def scenarios(draw):
    n = draw(st.integers(1, 5))
    game = dividend_game(n, draw(st.integers(0, 2**32 - 1)), draw(st.booleans()))
    times = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    shape = draw(st.sampled_from(["as drawn", "all equal", "shifted", "far"]))
    if shape == "all equal":
        times = [times[0]] * n
    elif shape == "shifted":
        times = [t + draw(st.integers(1, 5)) for t in times]
    elif shape == "far":
        times[draw(st.integers(0, n - 1))] = FAR
    beta = draw(st.sampled_from([0.5, 1.0, 2.0, 1000.0]))
    gamma = draw(st.sampled_from([0.0, 0.5, 1.0, 3.0]))
    return game, TimeVector.of(times), beta, gamma


@settings(max_examples=60, deadline=None, derandomize=True)
@given(scenarios())
def test_kernel_matches_definitions(scenario):
    check_against_oracles(*scenario)


@pytest.mark.parametrize(
    "n,additive,times,beta,gamma",
    [
        (4, True, (3, 0, 5, 1), 2.0, 1.0),
        (4, False, (2, 2, 2, 2), 0.5, 0.5),
        (4, False, (3, 5, 4, 7), 1.0, 1.0),
        (5, False, (4, 0, 2, 6, 1), 1000.0, 0.5),
        (5, False, (4, 0, 2, 6, 1), 2.0, 0.0),
        (4, False, (0, 2, FAR, 1), 2.0, 1.0),
        (1, False, (FAR,), 1.0, 1.0),
    ],
    ids=["additive", "all-equal", "min-above-0", "beta-1000", "gamma-0", "far", "single-far"],
)
def test_edge_cases(n, additive, times, beta, gamma):
    check_against_oracles(dividend_game(n, 7 + n, additive), TimeVector.of(times), beta, gamma)


@st.composite
def tempering_cases(draw):
    """A small GP model (2-4 parties, 1-5 points each), a party and a kappa."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 4))
    ownership = np.repeat(np.arange(1, n + 1), rng.integers(1, 6, size=n))
    dim = draw(st.integers(1, 3))
    noise = (
        rng.uniform(0.05, 1.0, size=len(ownership))
        if draw(st.booleans())
        else float(rng.uniform(0.05, 1.0))
    )
    model = GpModel(
        rng.uniform(size=(len(ownership), dim)),
        ownership,
        rng.uniform(0.3, 2.0, size=dim),
        float(rng.uniform(0.5, 2.0)),
        noise,
    )
    kappa = draw(st.one_of(st.sampled_from([0.0, 1e-12, 1.0 - 1e-12, 1.0]), st.floats(0.0, 1.0)))
    return model, draw(st.integers(1, n)), kappa, draw(st.floats(0.05, 0.95))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(tempering_cases())
def test_tempering_matches_virtual_copies(case):
    model, party, kappa, fraction = case
    reference = tempered_value_reference(model, party, kappa)
    assert abs(tempered_value(model, party, kappa) - reference) <= 1e-10 * abs(reference)

    lo, hi = tempered_value(model, party, 0.0), tempered_value(model, party, 1.0)
    result = temper(model, party, lo + fraction * (hi - lo), tol=1e-6)
    assert result.achieved_value == pytest.approx(
        tempered_value(model, party, result.kappa), rel=1e-12, abs=1e-12
    )


@st.composite
def shared_factor_cases(draw):
    """1-5 parties owning 0-6 shuffled points each, a party with points, a kappa and a target."""
    n = draw(st.integers(1, 5))
    # party n owns points, so the model has n parties
    sizes = draw(st.lists(st.integers(0, 6), min_size=n - 1, max_size=n - 1)) + [draw(st.integers(1, 6))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ownership = rng.permutation(np.repeat(np.arange(1, len(sizes) + 1), sizes))
    dim = draw(st.integers(1, 3))
    noise = (
        rng.uniform(0.05, 1.0, size=len(ownership))
        if draw(st.booleans())
        else float(rng.uniform(0.05, 1.0))
    )
    model = GpModel(
        rng.uniform(size=(len(ownership), dim)),
        ownership,
        rng.uniform(0.3, 2.0, size=dim),
        float(rng.uniform(0.5, 2.0)),
        noise,
    )
    party = draw(st.sampled_from(sorted(set(ownership.tolist()))))
    kappa = draw(st.one_of(st.sampled_from([0.0, 1e-12, 1.0 - 1e-12, 1.0]), st.floats(0.0, 1.0)))
    fraction = min(draw(st.floats(0.02, 1.1)), 1.0)  # 1.0: the grand value, saturated
    return model, party, kappa, fraction, draw(st.integers(0, 1000))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(shared_factor_cases())
def test_shared_factors_match_per_value_factorizations(case):
    model, party, kappa, fraction, seed = case
    reference = conditional_ig_table_reference(model)
    tol = 1e-10 * max(1.0, reference[-1])

    assert np.max(np.abs(conditional_ig_game(model).table() - reference)) <= tol
    plain = [gp_ig(model, model.points_of_mask(mask)) for mask in range(len(reference))]
    assert np.max(np.abs(ig_game(model).table() - plain)) <= tol
    assert abs(tempered_value(model, party, kappa) - tempered_value_reference(model, party, kappa)) <= tol

    floor = reference[1 << (party - 1)]
    target = floor + fraction * (reference[-1] - floor)
    got = select_subset(model, party, target, seed)
    want = select_subset_reference(model, party, target, seed)
    assert (got.selected, got.saturated) == (want.selected, want.saturated)
    assert abs(got.achieved_value - want.achieved_value) <= tol


@st.composite
def certificate_cases(draw):
    """Tables the superadditivity certificate settles, and ones it must leave to the scan."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["convex", "large convex", "superadditive", "failing"]))
    if kind == "superadditive":  # v(S) = g(|S|), superadditive with a negative second difference
        n = draw(st.integers(3, 4))
        g = np.array([0.0, 1.0, 2.5, 3.6, 5.0])
        table = g[[bin(mask).count("1") for mask in range(1 << n)]]
    else:
        n = draw(st.integers(1, 7))
        dividends = rng.uniform(0.0, 1.0, size=1 << n)
        dividends[rng.uniform(size=1 << n) < draw(st.sampled_from([0.0, 0.7, 1.0]))] = 0.0
        dividends[1 << np.arange(n)] = rng.uniform(0.0, 1.0, size=n)
        if kind == "failing" and n > 1:  # one multi-member dividend pushed below 0
            shared = [mask for mask in range(1 << n) if mask & (mask - 1)]
            dividends[rng.choice(shared)] -= rng.uniform(0.0, 2.0)
        dividends[0] = 0.0
        table = subset_sums(dividends)
        if kind == "large convex":
            table *= 10.0 ** draw(st.integers(6, 12))
    return n, table, draw(st.sampled_from([0.0, 1e-9, 0.5]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(certificate_cases())
def test_certified_verdicts_match_the_scan(case):
    n, table, tol = case
    game = Game(n, table=table)
    assert check_axioms(game, tol).to_dict() == check_axioms_reference(game, tol).to_dict()


def scan_table(rng, n: int, kind: str) -> np.ndarray:
    """A table most of whose games fail the certificate, so the blocked scan decides them.

    "integer" and "cut" draw dividends from [-0.5, 1), so few games are
    convex; "integer" rounds the values to whole numbers, which ties
    many gaps exactly, and "cut" lowers one to three coalitions.
    """
    if kind == "float":
        table = rng.normal(size=1 << n)
    else:
        dividends = rng.uniform(-0.5, 1.0, size=1 << n)
        dividends[0] = 0.0
        table = subset_sums(dividends)
        if kind == "integer":
            table = np.round(table)
        else:
            cut = rng.integers(1, 1 << n, size=rng.integers(1, 4))
            table[cut] *= rng.uniform(0.0, 0.9, size=len(cut))
    table[0] = 0.0
    return table


@st.composite
def scan_cases(draw):
    n = draw(st.integers(1, 11))
    kind = draw(st.sampled_from(["float", "integer", "cut"]))
    table = scan_table(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n, kind)
    return n, table, draw(st.sampled_from([0.0, 1e-9]))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(scan_cases())
def test_blocked_scan_matches_the_reference(case):
    n, table, tol = case
    game = Game(n, table=table)
    assert check_axioms(game, tol).to_dict() == check_axioms_reference(game, tol).to_dict()


# n = 1, 2: no party above the low block; 9: only party n above it; 10, 11: several blocks
@pytest.mark.parametrize("n", [1, 2, 9, 10, 11])
@pytest.mark.parametrize("kind", ["float", "integer", "cut"])
def test_blocked_scan_pins(n, kind):
    game = Game(n, table=scan_table(np.random.default_rng(n), n, kind))
    for tol in (0.0, 1e-9):
        reference = check_axioms_reference(game, tol)
        assert check_axioms(game, tol).to_dict() == reference.to_dict()
        # the scan alone, which check_axioms skips on a certified game
        witness = reference.witnesses.get("superadditive")
        want = None if witness is None else tuple(c.mask for c in witness)
        assert games._superadditivity_violation(game.table(), tol) == want


@st.composite
def check_cases(draw):
    """A value table with many ties or few dividends, joining times, rewards and a tol."""
    n = draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["float", "small integer", "zero-one", "few dividends"]))
    if kind == "float":
        table = rng.normal(size=1 << n)
    elif kind == "small integer":
        table = rng.integers(-2, 3, size=1 << n).astype(float)
    elif kind == "zero-one":
        table = rng.integers(0, 2, size=1 << n).astype(float)
    else:  # useless, necessary and symmetric parties
        dividends = np.zeros(1 << n)
        dividends[rng.integers(1, 1 << n, size=2)] = rng.integers(1, 3, size=2)
        table = subset_sums(dividends)
    table[0] = 0.0
    times = TimeVector.of(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    rewards = rng.integers(-1, 3, size=n).astype(float) if kind != "float" else rng.normal(size=n)
    return n, table, times, rewards, draw(st.sampled_from([0.0, 1e-9, 0.5]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(check_cases())
def test_checks_match_submask_loops(case):
    n, table, times, rewards, tol = case

    def game():
        return Game(n, table=table)

    assert check_axioms(game(), tol).to_dict() == check_axioms_reference(game(), tol).to_dict()
    g = game()
    assert check_static(g, times, rewards, tol).to_dict() == (
        check_static_reference(g, times, rewards, tol).to_dict()
    )
    assert check_temporal(g, times, naive_scheme(), tol).to_dict() == (
        check_temporal_reference(g, times, naive_scheme(), tol).to_dict()
    )
    for i in range(1, n + 1):
        assert strictness_predicate(g, times, i) == strictness_reference(g, times, i)
        for j in range(1, n + 1):
            assert necessity_predicate(g, i, j, tol) == necessity_reference(g, i, j, tol)
