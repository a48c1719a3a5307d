"""Coalition encoding, table games, axiom checks, random game generation."""

import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import check_axioms_reference, table_game_reference

from timereward import (
    AxiomReport,
    Coalition,
    Game,
    InvalidCoalitionKey,
    LengthMismatch,
    MissingCoalition,
    RewardScheme,
    RewardVector,
    TimeVector,
    TooLarge,
    check_axioms,
    check_static,
    check_temporal,
    dual_game,
    full_incentive_report,
    harsanyi_dividends,
    interval_shapley_values,
    load_game_json,
    make_table_game,
    naive_time_division,
    necessity_predicate,
    random_superadditive_game,
    reward_cumulation,
    reward_time_valuation,
    save_game_json,
    shapley_exact,
    strictness_predicate,
    time_aware_game,
)
from timereward import games
from timereward.games import _canonical_masks, mask_of, members_of, subset_differences, subset_sums


class TestCoalition:
    def test_key_round_trip(self):
        c = Coalition.from_key("1,3", 4)
        assert c.members == (1, 3)
        assert c.key() == "1,3"
        assert Coalition.from_key("", 4).members == ()

    def test_of_canonicalizes(self):
        assert Coalition.of([3, 1, 3], 4).members == (1, 3)

    @pytest.mark.parametrize("bad", ["0", "5", "2,1", "1,1", "1,,2", "a", "1, b", "١", "²", "1,٣"])
    def test_malformed_keys(self, bad):
        with pytest.raises(InvalidCoalitionKey):
            Coalition.from_key(bad, 4)

    @given(mask=st.integers(min_value=0, max_value=(1 << 10) - 1))
    def test_bitmask_round_trip(self, mask):
        c = Coalition.from_mask(mask, 10)
        assert c.mask == mask
        assert mask_of(members_of(mask)) == mask

    def test_membership(self):
        c = Coalition.of([2, 4], 5)
        assert 2 in c and 4 in c and 3 not in c
        assert len(c) == 2

    def test_n_max_ceiling(self):
        with pytest.raises(TooLarge):
            Coalition.of([1], 25)

    @pytest.mark.parametrize("bad", [True, False, 1.0])
    def test_non_integer_member_refused(self, bad):
        # True used to be read as party 1
        with pytest.raises(InvalidCoalitionKey, match=f"party index {bad!r}"):
            Coalition.of([bad], 2)

    def test_numpy_integer_members_are_taken_as_ints(self):
        # np.int64(1) used to be refused as "outside [1, 2]"
        c = Coalition.of([np.int64(1)], 2)
        assert c.members == (1,)
        assert type(c.members[0]) is int

    @pytest.mark.parametrize("mask", [True, 1.0, -1, 4])
    def test_from_mask_refuses_a_mask_outside_the_game(self, mask):
        # True and 1.0 used to be read as party 1, and -1 never returned
        with pytest.raises(ValueError, match=f"^mask {re.escape(repr(mask))} is not"):
            Coalition.from_mask(mask, 2)


class TestTableGame:
    def test_two_party_example_game(self):
        g = make_table_game(2, {"1": 0.2, "2": 0.2, "1,2": 1.0})
        assert g.value([1, 2]) == 1.0
        assert g.value([1]) == 0.2
        assert g.value([]) == 0.0

    def test_single_party(self):
        g = make_table_game(1, {"1": 0.0})
        assert g.value_mask(0) == 0.0
        assert g.value([1]) == 0.0

    @pytest.mark.parametrize("party", [1.5, 1.0, True, "1"])
    def test_value_refuses_non_integer_party(self, party):
        # 1.5 used to raise TypeError from mask_of, True to be read as party 1
        g = make_table_game(2, {"1": 0.2, "2": 0.3, "1,2": 1.0})
        with pytest.raises(ValueError, match=f"^party {re.escape(repr(party))} is not an integer$"):
            g.value([party])
        assert g.value([np.int64(2)]) == 0.3

    def test_full_three_party_table(self):
        values = {}
        rng = np.random.default_rng(0)
        for mask in range(1, 8):
            values[Coalition.from_mask(mask, 3).key()] = float(rng.uniform())
        g = make_table_game(3, values)
        for mask in range(8):
            expected = 0.0 if mask == 0 else values[Coalition.from_mask(mask, 3).key()]
            assert g.value_mask(mask) == expected

    @pytest.mark.parametrize(
        "values,message",
        [
            ({"1": 0.2, " 1": 3.0, "2": 0.2}, "coalition '1' is named twice, as '1' and ' 1'"),
            ({"01": 3.0, "1": 0.2, "2": 0.2}, "coalition '1' is named twice, as '01' and '1'"),
            ({"1 ,2": 1.0, "1, 2": 2.0}, "coalition '1,2' is named twice, as '1 ,2' and '1, 2'"),
            ({"": 0.0, " ": 0.0, "1": 0.2}, "coalition '' is named twice, as '' and ' '"),
        ],
        ids=["padded", "zero-led", "two-padded", "empty"],
    )
    def test_two_spellings_of_one_coalition_rejected(self, values, message):
        # the later spelling used to win silently
        with pytest.raises(InvalidCoalitionKey, match=f"^{re.escape(message)}$"):
            make_table_game(2, values)

    def test_missing_coalition_raises_at_lookup(self):
        g = make_table_game(2, {"1": 0.1, "1,2": 1.0})
        assert g.value([1]) == 0.1
        with pytest.raises(MissingCoalition):
            g.value([2])

    def test_nonzero_empty_rejected(self):
        with pytest.raises(InvalidCoalitionKey):
            make_table_game(2, {"": 0.5, "1": 0.1, "2": 0.1, "1,2": 1.0})
        # every table reduction reads entry 0: this game's Shapley values
        # came out as [3.25, 3.25], summing to 6.5, not v(N) = 1.5
        with pytest.raises(ValueError, match="empty coalition must have value 0, got 5.0"):
            Game(2, table=[5.0, 1.0, 1.0, 1.5])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ValueError):
            make_table_game(2, {"1": 0.1, "2": bad, "1,2": 1.0})
        with pytest.raises(ValueError):
            Game(2, table=np.array([0.0, 0.1, bad, 1.0]))
        with pytest.raises(ValueError):
            Game(2, lambda m: bad if m == 3 else 0.1).table()

    def test_empty_value_is_zero_without_oracle(self):
        calls = []

        def oracle(mask):
            calls.append(mask)
            return 1.0

        g = Game(2, oracle)
        assert g.value_mask(0) == 0.0
        assert calls == []

    def test_oracle_called_on_each_lookup(self):
        calls = []

        def oracle(mask):
            calls.append(mask)
            return float(mask)

        g = Game(3, oracle)
        for _ in range(3):
            assert g.value_mask(5) == 5.0
        assert calls == [5, 5, 5]
        assert g.table()[5] == 5.0
        assert g.value_mask(5) == 5.0
        assert len(calls) == 3 + 7

    @pytest.mark.parametrize("length", [3, 8])
    def test_table_of_wrong_length_rejected(self, length):
        with pytest.raises(ValueError, match=r"^table length must be 2\*\*n$"):
            Game(2, table=np.zeros(length))

    @pytest.mark.parametrize("args", [{}, {"oracle": lambda m: 0.0, "table": np.zeros(4)}])
    def test_exactly_one_of_oracle_and_table(self, args):
        with pytest.raises(ValueError, match="exactly one"):
            Game(2, **args)

    def test_table_is_a_copy(self):
        # a view used to stay writable through its base after the game
        # marked it read-only, so a memoised axiom report went stale
        base = np.array([0.0, 0.2, 0.2, 1.0, 9.0])
        g = Game(2, table=base[:4])
        assert check_axioms(g, 1e-9).superadditive
        base[1] = base[2] = 0.6
        assert g.value([1]) == 0.2
        assert check_axioms(g, 1e-9).superadditive
        assert not check_axioms(Game(2, table=base[:4]), 1e-9).superadditive
        assert base.flags.writeable

    def test_negative_zero_for_the_empty_coalition_is_stored_as_zero(self):
        view = np.frombuffer(np.array([-0.0, 0.2, 0.2, 1.0]).tobytes(), "<f8")
        g = Game(2, table=view)  # a read-only buffer is copied, not written
        assert g.table().tobytes() == np.array([0.0, 0.2, 0.2, 1.0]).tobytes()
        assert np.signbit(view[0])

    def test_restrict_reuses_parent_values(self):
        from oracles import restrict_game

        g = random_superadditive_game(4, seed=1)
        sub, original = restrict_game(g, [2, 4])
        assert original == (2, 4)
        assert sub.n == 2
        assert sub.value([1]) == g.value([2])
        assert sub.value([2]) == g.value([4])
        assert sub.value([1, 2]) == g.value([2, 4])

    @pytest.mark.parametrize("party", [0, 3, -1])
    @pytest.mark.parametrize("full", [True, False], ids=["table", "oracle"])
    def test_value_refuses_a_party_outside_the_game(self, party, full):
        # party 3 used to raise IndexError, party 0 a negative shift count
        values = {"1": 0.2, "2": 0.2, "1,2": 1.0} if full else {"1": 0.2, "1,2": 1.0}
        g = make_table_game(2, values)
        message = f"party {party} is not one of the parties 1..2"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            g.value([1, party])

    @pytest.mark.parametrize("mask", [1.0, True, 2.5])
    def test_value_mask_refuses_a_mask_that_is_not_an_integer(self, mask):
        # 1.0 used to raise a bare IndexError, True a TypeError
        g = make_table_game(2, {"1": 0.2, "2": 0.2, "1,2": 1.0})
        with pytest.raises(ValueError, match=f"^mask {mask!r} is not an integer$"):
            g.value_mask(mask)

    @pytest.mark.parametrize("n", [True, 2.0, 0, -1])
    def test_party_count_is_an_integer_of_at_least_one(self, n):
        # True and 2.0 used to be taken as a party count
        message = f"^party count must be an integer >= 1, got {re.escape(repr(n))}$"
        for build in (
            lambda: Game(n, lambda mask: 0.0),
            lambda: make_table_game(n, {"1": 0.5}),
            lambda: Coalition.of([1], n),
            lambda: Coalition.from_mask(0, n),
        ):
            with pytest.raises(ValueError, match=message):
                build()

    @pytest.mark.parametrize("mask", [-1, 4, 2**40])
    @pytest.mark.parametrize("full", [True, False], ids=["table", "oracle"])
    def test_value_mask_refuses_a_mask_outside_the_game(self, mask, full):
        # the oracle used to be asked for it; a table read mask -1 as the grand coalition
        calls = []

        def oracle(m):
            calls.append(m)
            return 1.0

        g = Game(2, table=[0.0, 0.2, 0.2, 1.0]) if full else Game(2, oracle)
        message = f"mask {mask} is not a coalition of the parties 1..2"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            g.value_mask(mask)
        assert calls == []

    def test_value_refuses_a_coalition_of_a_larger_game(self):
        g = make_table_game(2, {"1": 0.2, "2": 0.2, "1,2": 1.0})
        with pytest.raises(ValueError, match=r"^mask 4 is not a coalition of the parties 1\.\.2$"):
            g.value(Coalition.of([3], 3))


def _outcome(build):
    """What a game builder yields: its exception, or every lookup and its table."""
    try:
        game = build()
    except Exception as exc:
        return type(exc), str(exc)
    lookups = []
    for mask in range(1 << game.n):
        try:
            lookups.append(game.value_mask(mask))
        except MissingCoalition as exc:
            lookups.append(str(exc))
    try:
        table = game.table().tolist()
    except MissingCoalition as exc:
        table = str(exc)
    return lookups, table


# values make_table_game refuses, each naming its key: not a number, past the float range, not finite
BAD_VALUES = [True, None, "0.5", [1], 10**400, math.nan, math.inf]


@st.composite
def game_mappings(draw):
    """Key -> value maps: full or partial, with padded, repeated, shuffled or malformed keys.

    Values are floats and integers.  Half the maps are bulk-sized: every
    key is spelled canonically and at least 2**n / 16 coalitions are
    named, so make_table_game tries its bulk path on them.  The other
    half drop any number of keys, or keep fewer than 2**n / 16 so they
    are parsed one by one, and pad any of them.  A bad value, a non-zero ""
    or a repeated key injected at a random position must send a bulk-sized
    map back to the key-by-key path, which names the first bad entry.
    """
    n = draw(st.integers(min_value=1, max_value=7))
    size = 1 << n
    reals = st.floats(-10.0, 10.0) | st.integers(-(10**20), 10**20)
    values = draw(st.lists(reals, min_size=size, max_size=size))
    bulk_sized = draw(st.booleans())
    masks = st.integers(min_value=0, max_value=size - 1)
    dropped = set()
    if bulk_sized and draw(st.booleans()):
        dropped = draw(st.sets(masks, min_size=1, max_size=size - size // 16))
    elif not bulk_sized and draw(st.booleans()):
        dropped = draw(st.sets(masks, min_size=1))
    elif not bulk_sized and draw(st.booleans()):  # fewer than 2**n / 16 keys
        dropped = set(range(size)) - draw(st.sets(masks, max_size=max(size // 16 - 1, 0)))
    pad = draw(st.sampled_from(["", " ", "  ", "\t"]))
    padded = [False] * size
    if not bulk_sized:
        padded = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    items = []
    for mask in range(size):
        if mask in dropped:
            continue
        key = ",".join(str(i) for i in members_of(mask))
        if padded[mask]:
            key = pad + key.replace(",", pad + "," + pad) + pad
        items.append((key, 0.0 if mask == 0 else values[mask]))
    if items and draw(st.booleans()):
        key, _ = draw(st.sampled_from(items))
        items.append((" " + key, draw(st.floats(-10.0, 10.0))))
    items = draw(st.permutations(items))
    if items and draw(st.booleans()):
        for _ in range(draw(st.integers(min_value=1, max_value=2))):
            at = draw(st.integers(min_value=0, max_value=len(items) - 1))
            items[at] = (items[at][0], draw(st.sampled_from(BAD_VALUES)))
    if draw(st.booleans()):
        bad = draw(st.sampled_from(["1,1", "2,1", "0", str(n + 1), "a", "1,,2", "١", "1,²"]))
        items.insert(draw(st.integers(min_value=0, max_value=len(items))), (bad, 0.5))
    if draw(st.booleans()):  # a non-zero empty coalition, in place or as a new last key
        items.append(("", draw(st.sampled_from([0.5, -1, 1e-300]))))
    return n, dict(items)


class TestTableGameMatchesReference:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(case=game_mappings())
    def test_same_values_and_errors(self, case):
        n, values = case
        got = _outcome(lambda: make_table_game(n, values))
        want = _outcome(lambda: table_game_reference(n, values))
        assert got == want

    def test_canonical_floats_and_ints_are_filled_in_bulk(self, monkeypatch):
        def by_key(*args):
            raise AssertionError("read key by key")

        monkeypatch.setattr(games, "_fill_by_key", by_key)
        n = 6
        values = {Coalition.from_mask(m, n).key(): (m if m % 3 else m / 7) for m in range(1 << n)}
        values["1,2,3,4,5,6"] = 10**300  # an integer past int64 but inside the float range
        del values["2"]
        game = make_table_game(n, values)
        assert _outcome(lambda: game) == _outcome(lambda: table_game_reference(n, values))

    @pytest.mark.parametrize("at", [0, 17, 63])
    @pytest.mark.parametrize(
        "entry",
        [*(("2", bad) for bad in BAD_VALUES), ("", 0.5), (" 2", 0.25), ("02", 0.25)],
        ids=["true", "none", "string", "list", "huge-int", "nan", "inf", "empty-non-zero",
             "padded-repeat", "zero-led-repeat"],
    )
    def test_bulk_sized_mapping_with_one_bad_entry_names_it(self, entry, at):
        # at least 2**n / 16 canonical keys take the bulk path, which must hand every
        # bad mapping back to the key-by-key path and its message
        n = 6
        items = [(Coalition.from_mask(m, n).key(), m / 64) for m in range(1, 1 << n)]
        items = [item for item in items if item[0] != entry[0]]
        items.insert(at, entry)
        values = dict(items)
        got = _outcome(lambda: make_table_game(n, values))
        assert got == _outcome(lambda: table_game_reference(n, values))
        assert isinstance(got[0], type) and issubclass(got[0], Exception)

    def test_partial_table_names_first_missing_mask(self):
        g = make_table_game(3, {"1": 0.1, "1,2": 0.5, "3": 0.2, "1,2,3": 1.0})
        with pytest.raises(MissingCoalition, match="coalition '2' not in table"):
            g.value([2])
        with pytest.raises(MissingCoalition, match="coalition '2' not in table"):
            g.table()
        assert g.value([1, 2]) == 0.5

    @pytest.mark.parametrize("digit", ["١", "²"])
    def test_only_ascii_digits_name_parties(self, digit):
        # "١" (Arabic-Indic one) used to be read as party 1, "²" to fail in int()
        with pytest.raises(InvalidCoalitionKey, match="malformed"):
            make_table_game(2, {digit: 0.5, "2": 0.1, "1,2": 1.0})

    @pytest.mark.parametrize(
        "values",
        [
            {"1": 0.5, "2": 0.5, "1,2": 1.5},
            {"1": 0.5, " 2": 0.5, "1,2": 1.5, "1, 2": 2.0},
            {"1": 0.5, "2,1": 0.5},
            {"1": 0.5, "1,9": 0.5},
            {"": 0.0, "3,7,8": 0.25, "8": 0.75},
        ],
        ids=["partial", "repeat", "descending", "outside", "padded-empty"],
    )
    def test_a_few_keys_parsed_one_by_one(self, values):
        # below 2**n / 16 keys no key -> mask map is built
        n = 8
        assert 16 * len(values) < 1 << n
        got = _outcome(lambda: make_table_game(n, values))
        assert got == _outcome(lambda: table_game_reference(n, values))

    def test_a_few_keys_of_many_parties_build_no_key_map(self):
        # the map of all 2**20 keys used to peak at ~155 MiB; the NaN table is 8 MiB
        tracemalloc.start()
        try:
            g = make_table_game(20, {"1": 0.5, "2": 0.5, "1,2": 1.5})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 << 20
        assert g.value([1, 2]) == 1.5
        with pytest.raises(MissingCoalition, match="coalition '3' not in table"):
            g.value([3])

    @pytest.mark.parametrize("n", range(1, 9))
    def test_canonical_key_map(self, n):
        want = {Coalition.from_mask(mask, n).key(): mask for mask in range(1 << n)}
        assert _canonical_masks(n) == want
        # the loader's fast path and the one key decoder must agree
        assert {key: Coalition.from_key(key, n).mask for key in want} == want

    @pytest.mark.parametrize("n,error", [(0, ValueError), (25, TooLarge)])
    def test_party_count_checked_first(self, n, error):
        with pytest.raises(error):
            make_table_game(n, {})

    @pytest.mark.parametrize("bad", [None, [0.5], "0.5", True])
    def test_non_numeric_values_rejected(self, bad):
        with pytest.raises(ValueError, match="non-numeric"):
            make_table_game(2, {"1": 0.1, "2": bad, "1,2": 1.0})

    @pytest.mark.parametrize(
        "items,error,message",
        [
            # entries are read in mapping order: a bad value before a malformed key goes first
            ([("1", np.nan), ("2,1", 0.2), ("1,2", 1.0)], ValueError,
             "coalition '1' has non-finite value nan"),
            ([("2,1", 0.2), ("1", np.nan), ("1,2", 1.0)], InvalidCoalitionKey,
             "coalition key not strictly ascending: '2,1'"),
            # a key and its own value: the key first
            ([("1", 0.1), ("x", "y"), ("1,2", 1.0)], InvalidCoalitionKey,
             "malformed coalition key 'x'"),
            ([("1", 0.1), ("", 0.5), (" 3", 0.2)], InvalidCoalitionKey,
             "empty coalition must have value 0"),
        ],
        ids=["value-then-key", "key-then-value", "key-and-value", "empty-then-key"],
    )
    def test_first_bad_entry_in_mapping_order_is_named(self, items, error, message):
        values = dict(items)
        for build in (make_table_game, table_game_reference):
            with pytest.raises(error) as exc:
                build(2, values)
            assert str(exc.value) == message

    def test_numbers_of_other_types_are_taken(self):
        from fractions import Fraction

        g = make_table_game(2, {"1": np.float64(0.25), "2": Fraction(1, 8), "1,2": 1})
        assert g.table().tolist() == [0.0, 0.25, 0.125, 1.0]

    def test_integer_past_the_float_range_names_its_key(self):
        with pytest.raises(ValueError, match="coalition '1,2' has a value too large for a float"):
            make_table_game(2, {"1": 0.1, "2": 0.2, "1,2": 10**400})

    def test_keyed_file_round_trips_exactly(self, tmp_path):
        n = 14
        table = random_superadditive_game(n, seed=3).table()
        path = tmp_path / "game.json"
        save_game_json(path, n, {Coalition.from_mask(m, n).key(): table[m] for m in range(1, 1 << n)})
        game, _ = load_game_json(path)
        assert np.array_equal(game.table(), table)


class TestCheckAxioms:
    def test_all_pass_on_example_game(self, ir_counterexample):
        report = check_axioms(ir_counterexample, 1e-9)
        assert report == AxiomReport({})
        assert report.all_ok

    def test_subadditive_witness(self):
        g = make_table_game(2, {"1": 0.6, "2": 0.6, "1,2": 1.0})
        report = check_axioms(g, 1e-9)
        assert report.nonneg and report.monotone
        assert not report.superadditive
        b, c = report.witnesses["superadditive"]
        assert {b.key(), c.key()} == {"1", "2"}

    def test_nonneg_and_monotone_witnesses(self):
        g = make_table_game(2, {"1": -0.5, "2": 0.4, "1,2": 0.1})
        report = check_axioms(g, 1e-9)
        assert not report.nonneg
        assert report.witnesses["nonneg"][0].key() == "1"
        assert not report.monotone
        sub, sup = report.witnesses["monotone"]
        assert set(sub.members) < set(sup.members)

    def test_monotone_pairs_not_just_single_steps(self):
        # v({2}) > v({1,2}) caught as a nested pair
        g = make_table_game(2, {"1": 0.0, "2": 0.5, "1,2": 0.3})
        assert not check_axioms(g, 1e-9).monotone

    def test_too_large(self):
        g = Game(25, lambda mask: 0.0)
        with pytest.raises(TooLarge):
            check_axioms(g)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, -1e-12])
    def test_bad_tolerance_rejected(self, tol):
        # a NaN tol used to call this subadditive game superadditive
        g = make_table_game(2, {"1": 0.6, "2": 0.6, "1,2": 1.0})
        with pytest.raises(ValueError, match="tol"):
            check_axioms(g, tol)

    def test_report_cached_per_tolerance(self):
        g = random_superadditive_game(3, seed=2)
        assert check_axioms(g, 1e-9) is check_axioms(g, 1e-9)


class TestSuperadditivityCertificate:
    """Convex games skip the 3**n scan; every other verdict is the scan's."""

    @pytest.fixture
    def no_scan(self, monkeypatch):
        def scan(v, tol):
            raise AssertionError("the superadditivity scan ran")

        monkeypatch.setattr(games, "_superadditivity_violation", scan)

    @pytest.mark.parametrize("n,seed", [(16, 4), (20, 1)])
    def test_convex_game_skips_the_scan(self, no_scan, n, seed):
        assert check_axioms(random_superadditive_game(n, seed), 1e-9).all_ok

    @pytest.mark.parametrize("pair", list(itertools.combinations(range(4), 2)))
    def test_every_pair_of_parties_is_differenced(self, pair):
        # a negative dividend on one pair is the only negative second difference
        dividends = np.ones(16)
        dividends[0] = 0.0
        dividends[(1 << pair[0]) | (1 << pair[1])] = -3.0
        g = Game(4, table=subset_sums(dividends))
        report = check_axioms(g, 1e-9)
        assert not report.superadditive
        assert report.to_dict() == check_axioms_reference(g, 1e-9).to_dict()

    def test_bound_scales_with_the_pair_sizes(self):
        # every second difference is -2e-10, a 4-by-4 split loses 16 of them: 3.2e-9
        sizes = np.array([bin(mask).count("1") for mask in range(1 << 8)], dtype=float)
        g = Game(8, table=sizes - 2e-10 * sizes * (sizes - 1) / 2)
        report = check_axioms(g, 1e-9)
        assert {len(c) for c in report.witnesses["superadditive"]} == {4}
        assert report.to_dict() == check_axioms_reference(g, 1e-9).to_dict()

    @pytest.mark.parametrize(
        "table,tol",
        [
            # no computed second difference is negative, yet the scan's rounding leaves a gap
            ([0.0, 0.0003671659539482646, 0.00011648689424288605, 0.0004836528481911506], 0.0),
            (list(1e8 * subset_sums(np.array([0.0, 0.9447181582680589, 0.3466759743601828, 0.0]))), 1e-9),
        ],
        ids=["tol-0", "magnitude-1e8"],
    )
    def test_rounding_margin_declines(self, table, tol):
        g = Game(2, table=table)
        report = check_axioms(g, tol)
        assert not report.superadditive
        assert report.to_dict() == check_axioms_reference(g, tol).to_dict()

    @pytest.mark.parametrize("cut", [False, True], ids=["convex", "grand-coalition-cut"])
    def test_table_below_the_range_is_left_to_the_scan(self, cut):
        # below max|v| = 2**-960 the rounding margin need not be a normal number
        dividends = np.random.default_rng(5).integers(0, 4, size=1 << 6).astype(float)
        dividends[0] = 0.0
        table = subset_sums(dividends)  # convex, and exact: integer sums
        if cut:
            table[-1] *= 0.5
        tol = 0.5
        assert games._superadditivity_certified(table, tol) is not cut
        scale = 2.0**-1000
        g = Game(6, table=table * scale)
        assert np.abs(g.table()).max() < 2.0**-960
        assert not games._superadditivity_certified(g.table(), tol * scale)
        report = check_axioms(g, tol * scale)
        assert report.superadditive is not cut
        assert report.to_dict() == check_axioms_reference(g, tol * scale).to_dict()


class TestRandomSuperadditiveGame:
    @pytest.mark.parametrize("n,seed", [(1, 0), (2, 7), (3, 7), (5, 11), (6, 123)])
    def test_passes_axioms(self, n, seed):
        g = random_superadditive_game(n, seed)
        assert check_axioms(g, 1e-12).all_ok

    def test_single_party_nonnegative(self):
        assert random_superadditive_game(1, seed=3).value([1]) >= 0.0

    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_deterministic_per_seed(self, seed):
        a = random_superadditive_game(3, seed).table()
        b = random_superadditive_game(3, seed).table()
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = random_superadditive_game(4, 0).table()
        b = random_superadditive_game(4, 1).table()
        assert not np.array_equal(a, b)

    def test_subset_sums_matches_brute_force(self):
        rng = np.random.default_rng(5)
        d = rng.uniform(size=16)
        d[0] = 0.0
        table = subset_sums(d)
        for mask in range(16):
            brute = sum(d[s] for s in range(16) if s & mask == s)
            assert table[mask] == pytest.approx(brute, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 10, 14])
    def test_transforms_near_the_float_range_scale_exactly(self, n):
        # 2**n times the largest entry passes the float range: the transform runs on
        # the table scaled by a power of two, so it is the small table's, scaled
        table = random_superadditive_game(n, seed=n).table()
        shift = 1024 - n - math.frexp(table.max())[1] + 1
        huge = np.ldexp(table, shift)
        assert np.isfinite(huge).all()
        dividends = subset_differences(table)
        assert np.array_equal(subset_differences(huge), np.ldexp(dividends, shift))
        sums = subset_sums(np.ldexp(dividends, shift))
        assert np.array_equal(sums, np.ldexp(subset_sums(dividends), shift))

    def test_dividends_with_an_overflowing_intermediate_are_finite(self):
        # v(1, 2) - v(2) = 2e308 used to overflow, though the dividend of {1, 2} is 0.5e308
        g = make_table_game(2, {"1": 1.5e308, "2": -1e308, "1,2": 1e308})
        d = {c.key(): value for c, value in harsanyi_dividends(g).items()}
        assert d == {"": 0.0, "1": 1.5e308, "2": -1e308, "1,2": pytest.approx(0.5e308, rel=1e-15)}
        assert shapley_exact(g).values.tolist() == [1.75e308, -7.5e307]


class TestTimeVector:
    def test_normalize(self):
        assert TimeVector.of((5, 1, 3)).normalize().times == (4, 0, 2)

    def test_with_time(self):
        t = TimeVector.of((4, 0))
        assert t.with_time(1, 2).times == (2, 0)
        assert t.times == (4, 0)

    @pytest.mark.parametrize("party", [0, -1, 3])
    def test_with_time_rejects_party_out_of_range(self, party):
        # 0 and -1 used to move parties 2 and 1, and 3 raised a bare IndexError
        with pytest.raises(ValueError, match="not one of the parties 1..2"):
            TimeVector.of((0, 1)).with_time(party, 5)

    @pytest.mark.parametrize("bad", [(-1, 0), (0.5, 1), (2**63, 0)])
    def test_rejects_bad_entries(self, bad):
        with pytest.raises(ValueError):
            TimeVector(tuple(bad))

    @pytest.mark.parametrize("bad", [1.7, 2.0, True, "3"])
    def test_of_and_with_time_refuse_non_integers(self, bad):
        # 1.7 used to be truncated to 1, and with_time(1, 2.5) to set time 2
        message = f"^joining times must be non-negative integers, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            TimeVector.of((bad, 0))
        with pytest.raises(ValueError, match=message):
            TimeVector.of((0, 0)).with_time(1, bad)

    def test_of_and_with_time_take_numpy_integers(self):
        t = TimeVector.of(np.array([3, 0]))
        assert t.times == (3, 0) and type(t.times[0]) is int
        assert TimeVector.of((0, 0)).with_time(1, np.int32(2)).times == (2, 0)

    def test_int64_range_is_held(self):
        assert TimeVector.of((2**63 - 1, 0)).as_array().tolist() == [2**63 - 1, 0]

    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=8))
    def test_normalized_minimum_is_zero(self, times):
        assert min(TimeVector.of(times).normalize().times) == 0


class TestRewardVector:
    def test_finite_required(self):
        with pytest.raises(ValueError):
            RewardVector(np.array([1.0, np.nan]))

    def test_fields(self):
        rv = RewardVector(np.array([0.5, 0.5]), scaled=np.array([1.0, 1.0]), rho=2.0)
        assert rv.n == 2
        assert rv.rho == 2.0
        assert not rv.degenerate


class TestGameJson:
    def test_round_trip(self, tmp_path):
        # a file carrying the superadditive field still loads; the field is ignored
        path = tmp_path / "game.json"
        save_game_json(path, 2, {"1": 0.2, "2": 0.2, "1,2": 1.0}, times=(4, 0), superadditive=True)
        assert json.loads(path.read_text())["superadditive"] is True
        game, times = load_game_json(path)
        assert game.table().tolist() == [0.0, 0.2, 0.2, 1.0]
        assert game.value([1, 2]) == 1.0
        assert times.times == (4, 0)

    @pytest.mark.parametrize("form", ["game", "table", "list"])
    def test_a_game_or_table_is_written_dense(self, form, tmp_path):
        game = random_superadditive_game(5, seed=2)
        values = {"game": game, "table": game.table(), "list": game.table().tolist()}[form]
        path = tmp_path / "game.json"
        save_game_json(path, 5, values, times=range(5))
        assert sorted(json.loads(path.read_text())) == ["n", "table_f64le", "times"]
        loaded, times = load_game_json(path)
        assert loaded.table().tobytes() == game.table().tobytes()
        assert times.times == (0, 1, 2, 3, 4)

    def test_dense_table_of_the_wrong_length_is_not_written(self, tmp_path):
        path = tmp_path / "game.json"
        with pytest.raises(ValueError, match=r"must have shape \(2\*\*3,\), got \(4,\)"):
            save_game_json(path, 3, np.zeros(4))
        assert not path.exists()

    def test_times_normalized_on_load(self, tmp_path):
        path = tmp_path / "game.json"
        save_game_json(path, 2, {"1": 0.0, "2": 0.0, "1,2": 1.0}, times=(5, 1))
        _, times = load_game_json(path)
        assert times.times == (4, 0)

    @pytest.mark.parametrize(
        "doc,error",
        [
            ({"n": 2, "values": {"1": 0.2, "2": None, "1,2": 1.0}}, ValueError),
            ({"n": 2, "values": [0.2, 0.2, 1.0]}, ValueError),
            ({"n": 2.7, "values": {"1": 0.2, "2": 0.2, "1,2": 1.0}}, ValueError),
            ({"n": "2", "values": {"1": 0.2, "2": 0.2, "1,2": 1.0}}, ValueError),
            ({"n": 2, "values": {"1,2": 1.0}, "times": 5}, ValueError),
            ({"n": 2, "values": {"1,2": 1.0}, "times": [0.5, 1]}, ValueError),
            ({"n": 2, "values": {"1,2": 1.0}, "times": [True, 0]}, ValueError),
            ({"n": 2, "values": {"1,2": 1.0}, "times": [-1, 0]}, ValueError),
            ({"n": 2, "values": {"1,3": 1.0}}, InvalidCoalitionKey),
        ],
    )
    def test_malformed_file_rejected(self, doc, error, tmp_path):
        path = tmp_path / "game.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(error):
            load_game_json(path)

    @pytest.mark.parametrize(
        "text,key",
        [
            ('{"n": 2, "values": {"1": 0.2, "2": 0.2, "1,2": 1.0, "1": 5.0}}', "1"),
            ('{"n": 2, "n": 3, "values": {"1": 0.2, "2": 0.2, "1,2": 1.0}}', "n"),
        ],
        ids=["coalition", "n"],
    )
    def test_repeated_json_key_rejected(self, text, key, tmp_path):
        # json alone keeps the last value
        path = tmp_path / "game.json"
        path.write_text(text)
        with pytest.raises(InvalidCoalitionKey, match=f"game file names key '{key}' twice"):
            load_game_json(path)

    @pytest.mark.parametrize("field", ["time", "Times", "value"])
    def test_unknown_field_rejected(self, field, tmp_path):
        # a misspelled "times" used to be skipped, so the parties all joined at 0
        path = tmp_path / "game.json"
        path.write_text(json.dumps({"n": 2, "values": {"1,2": 1.0}, field: [3, 0]}))
        with pytest.raises(InvalidCoalitionKey, match=f"game file has unknown field '{field}'"):
            load_game_json(path)

    def test_null_times_mean_none(self, tmp_path):
        path = tmp_path / "game.json"
        path.write_text(json.dumps({"n": 2, "values": {"1,2": 1.0}, "times": None}))
        assert load_game_json(path)[1] is None

    @pytest.mark.parametrize("text", ["[1, 2]", "5", "null"])
    def test_document_not_an_object_rejected(self, text, tmp_path):
        path = tmp_path / "game.json"
        path.write_text(text)
        with pytest.raises(InvalidCoalitionKey, match="game must be a JSON object"):
            load_game_json(path)

    def test_times_length_checked(self, tmp_path):
        path = tmp_path / "game.json"
        path.write_text(json.dumps({"n": 2, "values": {"1,2": 1.0}, "times": [0]}))
        with pytest.raises(LengthMismatch):
            load_game_json(path)


# A scheme that never reads the game, so the incentive checks must refuse on their own
ZERO_SCHEME = RewardScheme(
    "zero",
    None,
    lambda g, t: RewardVector(np.zeros(g.n)),
    lambda g, t: (np.zeros(g.n), lambda i, t_own: np.zeros(np.broadcast(i, t_own).shape)),
)

# Every exact public entry point as a call on (game, times); games.py
# decides the party ceiling and the times length for all of them.
EXACT_ENTRY_POINTS = {
    "check_axioms": lambda g, t: check_axioms(g),
    "shapley_exact": lambda g, t: shapley_exact(g),
    "naive_time_division": naive_time_division,
    "harsanyi_dividends": lambda g, t: harsanyi_dividends(g),
    "interval_shapley_values": interval_shapley_values,
    "reward_cumulation": lambda g, t: reward_cumulation(g, t, 1.0),
    "reward_time_valuation": lambda g, t: reward_time_valuation(g, t, 1.0),
    "time_aware_game": lambda g, t: time_aware_game(g, t, 1.0),
    "check_static": lambda g, t: check_static(g, t, np.zeros(g.n)),
    "check_temporal": lambda g, t: check_temporal(g, t, ZERO_SCHEME),
    "full_incentive_report": lambda g, t: full_incentive_report(g, t, ZERO_SCHEME),
    "strictness_predicate": lambda g, t: strictness_predicate(g, t, 1),
    "necessity_predicate": lambda g, t: necessity_predicate(g, 1, 2),
    "dual_game": lambda g, t: dual_game(g),
}
TIMED_ENTRY_POINTS = sorted(
    set(EXACT_ENTRY_POINTS)
    - {"check_axioms", "shapley_exact", "harsanyi_dividends", "necessity_predicate", "dual_game"}
)


class TestOneGate:
    @pytest.mark.parametrize("name", sorted(EXACT_ENTRY_POINTS))
    def test_ceiling_refused_before_any_table(self, name):
        # the 2**25-entry arrays would be 32 MiB and more each
        game = Game(25, lambda mask: 0.0)
        times = TimeVector((0,) * 25)
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge, match="party count 25 outside"):
                EXACT_ENTRY_POINTS[name](game, times)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("name", TIMED_ENTRY_POINTS)
    def test_times_of_wrong_length_refused(self, name, ir_counterexample):
        with pytest.raises(ValueError, match="times has 3 entries for an n=2 game"):
            EXACT_ENTRY_POINTS[name](ir_counterexample, TimeVector((0, 1, 2)))

    def test_table_above_ceiling_refused_when_built(self):
        # the ceiling comes before the length check, so no 2**25 table is needed
        with pytest.raises(TooLarge, match="party count 25 outside"):
            Game(25, table=np.zeros(4))
        assert Game(25, lambda mask: 0.0).n == 25
