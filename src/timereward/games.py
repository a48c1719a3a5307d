"""Coalitions, cooperative games, joining times, and axiom checks.

Parties are numbered 1..n.  Internally a coalition is a bitmask: bit (i-1)
set means party i is a member.  A game holds its values as one dense
array indexed by bitmask; full tables are limited to n <= 24 (2**24
values, ~128 MB of floats).  Game files are parsed straight into that
array.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import (
    InvalidCoalitionKey,
    LengthMismatch,
    MissingCoalition,
    TooLarge,
)

MAX_EXACT_PARTIES = 24
# the tolerance of every axiom, incentive and trend check not given one
DEFAULT_TOL = 1e-9

__all__ = [
    "MAX_EXACT_PARTIES",
    "DEFAULT_TOL",
    "Coalition",
    "Game",
    "TimeVector",
    "RewardVector",
    "AxiomReport",
    "make_table_game",
    "random_superadditive_game",
    "check_axioms",
    "load_game_json",
    "save_game_json",
]


def mask_of(members: Iterable[int]) -> int:
    """Bitmask of a collection of 1-based party indices."""
    m = 0
    for i in members:
        m |= 1 << (i - 1)
    return m


def members_of(mask: int) -> tuple[int, ...]:
    """Ascending 1-based party indices of a non-negative bitmask."""
    return tuple(i + 1 for i in range(int(mask).bit_length()) if mask >> i & 1)


@dataclass(frozen=True)
class Coalition:
    """An ascending set of 1-based party indices within an n-party game."""

    members: tuple[int, ...]
    n_max: int

    def __post_init__(self):
        _check_party_count(self.n_max)
        prev = 0
        for i in self.members:
            if not _is_integer(i) or not 1 <= i <= self.n_max:
                raise InvalidCoalitionKey(f"party index {i!r} outside [1, {self.n_max}]")
            if i <= prev:
                raise InvalidCoalitionKey(f"indices not strictly ascending: {self.members}")
            prev = i
        object.__setattr__(self, "members", tuple(int(i) for i in self.members))

    @classmethod
    def of(cls, members: Iterable[int], n_max: int) -> "Coalition":
        return cls(tuple(sorted(set(members))), n_max)

    @classmethod
    def from_mask(cls, mask: int, n_max: int) -> "Coalition":
        _check_mask(n_max, mask)
        return cls(members_of(mask), n_max)

    @classmethod
    def from_key(cls, key: str, n_max: int) -> "Coalition":
        """Parse the wire encoding: comma-separated ascending indices, "" for the empty set.

        A key that is not a string raises InvalidCoalitionKey.  The party
        count and the range of each index are Coalition's own checks.
        """
        if not isinstance(key, str):
            raise InvalidCoalitionKey(
                f"coalition key {key!r} is of type {type(key).__name__}, not str"
            )
        key = key.strip()
        members = []
        for p in key.split(",") if key else ():
            p = p.strip()
            # str.isdigit alone also takes other scripts' digits ("١") and "²"
            if not (p.isascii() and p.isdigit()):
                raise InvalidCoalitionKey(f"malformed coalition key {key!r}")
            members.append(int(p))
        if any(b <= a for a, b in zip(members, members[1:])):
            raise InvalidCoalitionKey(f"coalition key not strictly ascending: {key!r}")
        return cls(tuple(members), n_max)

    @property
    def mask(self) -> int:
        return mask_of(self.members)

    def key(self) -> str:
        return ",".join(str(i) for i in self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, party: int) -> bool:
        return party in self.members


def _is_integer(x) -> bool:
    """True for an int or a numpy integer; a bool, a float or anything else is not one."""
    return type(x) is int or (not isinstance(x, bool) and isinstance(x, numbers.Integral))


def _check_n(n: int):
    """Raise ValueError unless n, the party count of a game, is an integer >= 1."""
    if not (_is_integer(n) and n >= 1):
        raise ValueError(f"party count must be an integer >= 1, got {n!r}")


def _check_party_count(n: int):
    """Raise unless a table can hold n parties: ValueError below, TooLarge above the ceiling."""
    _check_n(n)
    if n > MAX_EXACT_PARTIES:
        raise TooLarge(f"party count {n} outside [1, {MAX_EXACT_PARTIES}]")


def _check_per_party(n: int, values, name: str):
    """Raise ValueError unless values (joining times, rewards) has one entry per party."""
    if len(values) != n:
        raise ValueError(f"{name} has {len(values)} entries for an n={n} game")


def _check_party(n: int, i: int):
    """Raise ValueError unless i is a 1-based party index of an n-party game.

    A party is an integer (numpy integers too), never a bool or a float.
    """
    if not _is_integer(i):
        raise ValueError(f"party {i!r} is not an integer")
    if not 1 <= i <= n:
        raise ValueError(f"party {i} is not one of the parties 1..{n}")


def _check_mask(n: int, mask: int):
    """Raise ValueError unless mask is an integer (numpy ones too, no bool) in [0, 2**n)."""
    if not _is_integer(mask):
        raise ValueError(f"mask {mask!r} is not an integer")
    if not 0 <= mask < 2**n:  # not 1 << n, so a float n reaches Coalition's own check
        raise ValueError(f"mask {mask} is not a coalition of the parties 1..{n}")


def _whole_numbers(values, what: str) -> np.ndarray:
    """values as a 1-d int array; ValueError unless every entry is a whole number.

    Integers and whole floats (2.0) pass; fractions, NaN, infinities,
    bools and strings do not, also inside a list whose other entries are
    integers (numpy reads [True, 2] as [1, 2]).  what names an entry:
    "point", "party".
    """
    raw = np.asarray(values)
    if raw.ndim != 1 or raw.dtype.kind not in "iuf":
        raise ValueError(f"{what} indices must be whole numbers, got {raw.tolist()!r}")
    if not isinstance(values, np.ndarray) and any(isinstance(x, (bool, np.bool_)) for x in values):
        raise ValueError(f"{what} indices must be whole numbers, got {list(values)!r}")
    fractional = ~np.isfinite(raw) | (raw != np.floor(raw))
    if fractional.any():
        raise ValueError(f"{what} index {raw[fractional][0]} is not a whole number")
    return raw.astype(int)


def _require_finite(values: np.ndarray):
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise ValueError(f"coalition value {values[bad]} at mask {bad} is not finite")


class Game:
    """An n-party coalition valuation, held as a read-only copy of its 2**n table.

    Games that cannot be tabulated up front (a caller's game above the
    exact-enumeration ceiling, a partial game file) give an oracle
    instead: a bitmask -> value map called on every lookup, which
    ``table()`` materializes once.  Give exactly one of the two.
    ``v(empty) = 0`` is enforced: an oracle is never asked for it, and a
    table whose entry 0 is not 0 is refused.  The fills of that table
    and of the axiom memo are idempotent, so games are safe to share
    across threads.

    This module alone decides what a game can be asked: a table above
    MAX_EXACT_PARTIES parties is refused when built, and ``table()`` of
    a larger oracle game raises TooLarge, so exact computations read the
    table before allocating anything of size 2**n.  The length of a
    times vector and a party index are checked here too, and ``value``
    and ``value_mask`` refuse a party or a mask outside the game.
    """

    def __init__(
        self,
        n: int,
        oracle: Callable[[int], float] | None = None,
        *,
        table: np.ndarray | None = None,
    ):
        _check_n(n)
        if (oracle is None) == (table is None):
            raise ValueError("give exactly one of an oracle and a table")
        self.n = int(n)
        self._oracle = oracle
        self._table = None
        self._axiom_reports: dict[float, "AxiomReport"] = {}
        if table is not None:
            _check_party_count(n)
            arr = np.array(table, dtype=float)
            if arr.shape != (1 << n,):
                raise ValueError(f"a game table must have shape (2**{n},), got {arr.shape}")
            _require_finite(arr)
            if arr[0] != 0.0:
                raise ValueError(f"the empty coalition must have value 0, got {arr[0]}")
            arr[0] = 0.0  # -0.0 too: v(empty) is stored as +0.0
            arr.flags.writeable = False
            self._table = arr

    @property
    def grand_mask(self) -> int:
        return (1 << self.n) - 1

    def value_mask(self, mask: int) -> float:
        """Value of the coalition given as a bitmask; ValueError unless 0 <= mask < 2**n."""
        _check_mask(self.n, mask)
        if mask == 0:
            return 0.0
        if self._table is not None:
            return float(self._table[mask])
        return float(self._oracle(mask))

    def value(self, coalition: "Coalition | Iterable[int]") -> float:
        """Value of a coalition given as a Coalition or iterable of indices."""
        if isinstance(coalition, Coalition):
            return self.value_mask(coalition.mask)
        members = list(coalition)
        for i in members:
            _check_party(self.n, i)
        return self.value_mask(mask_of(members))

    def grand_value(self) -> float:
        return self.value_mask(self.grand_mask)

    def singleton_values(self) -> np.ndarray:
        """Array of v({i}) for i = 1..n."""
        return np.array([self.value_mask(1 << i) for i in range(self.n)])

    def table(self) -> np.ndarray:
        """Full value table indexed by bitmask (read-only).

        Materialises an oracle game once, in ascending mask order; raises
        TooLarge above the exact-enumeration ceiling, MissingCoalition
        for partial table games and ValueError for non-finite values.
        """
        if self._table is None:
            _check_party_count(self.n)
            arr = np.empty(1 << self.n)
            arr[0] = 0.0
            for mask in range(1, 1 << self.n):
                arr[mask] = self._oracle(mask)
            _require_finite(arr)
            arr.flags.writeable = False
            self._table = arr
        return self._table


def _sorted_keys(n: int) -> tuple[str, np.ndarray]:
    """The canonical keys (``Coalition.key()``) of n parties' non-empty coalitions, sorted.

    Returns them as one text, each key preceded by ";", and their masks
    in the same order.  "," sorts below every digit, so the string order
    of two keys is the order of their tuples of index strings: block b,
    the keys that start with party b, is "b" followed by "b," put in
    front of each key over the parties after b, and the keys over the
    parties after a are the blocks a+1..n in the string order of b.
    Built from party n down, one ``str.replace`` per block, each block
    put into the text at its place, so the keys are held once.
    """
    text, masks = "", np.empty(0, dtype=np.intp)  # the keys over the parties after b
    sizes: dict[str, tuple[int, int]] = {}  # each block in text: its length and key count
    for b in range(n, 0, -1):
        bit = 1 << (b - 1)
        block = f";{b}" + text.replace(";", f";{b},")
        # the blocks whose party sorts before b as a string stay in front of block b
        front = [size for label, size in sizes.items() if label < str(b)]
        chars, count = sum(size[0] for size in front), sum(size[1] for size in front)
        text = text[:chars] + block + text[chars:]
        masks = np.concatenate((masks[:count], [bit], masks | bit, masks[count:]))
        sizes[str(b)] = len(block), 1 << (n - b)
    return text, masks


def make_table_game(n: int, values: Mapping[str, float]) -> Game:
    """Build a game from a coalition-key -> value mapping.

    Parameters
    ----------
    n : int
        Party count, 1 <= n <= MAX_EXACT_PARTIES.
    values : mapping
        Keys are wire-encoded coalitions ("1,3"; "" for the empty set),
        values are finite real numbers.  The empty coalition may be
        omitted or given as 0.  If some non-empty coalition is left out,
        the game is partial: looking it up raises MissingCoalition.
        Two keys for one coalition ("1" and " 1" or "01") raise
        InvalidCoalitionKey, naming the first key in mapping order that
        repeats an earlier one, once every key and value is valid.

    Values go into one dense array with NaN for the coalitions left out,
    so a partial table costs as much memory as a full one.  A mapping
    that names every non-empty coalition (2**n - 1 keys, or 2**n with
    "") is matched against the canonical ``Coalition.key()`` forms in
    string order (the order ``save_game_json`` writes), and sorted first
    if its keys are in another order.  If every key is
    canonical and every value a finite float or int (0 for the empty
    coalition), the values are checked as one array and stored in one
    assignment.  Any other mapping, partial ones included, is read key
    by key in mapping order, so the first bad key or value is the one
    named, in time proportional to its keys.  Only a mapping that
    repeats a coalition pays for a second pass to name it.
    """
    _check_party_count(n)
    if not isinstance(values, Mapping):
        raise ValueError(f"coalition values must be a mapping, got {type(values).__name__}")
    table = np.full(1 << n, np.nan)
    if not _fill_in_bulk(table, n, values):
        _fill_by_key(table, n, values)
    table[0] = 0.0
    if not np.isnan(table).any():
        return Game(n, table=table)

    def oracle(mask: int) -> float:
        got = table[mask]
        if math.isnan(got):
            raise MissingCoalition(
                f"coalition {Coalition.from_mask(mask, n).key()!r} not in table"
            )
        return got

    return Game(n, oracle)


def _fill_in_bulk(table: np.ndarray, n: int, values: Mapping) -> bool:
    """Fill table from values in one assignment if every entry passes make_table_game's checks.

    values must name every non-empty coalition of n parties once, by its
    canonical key, and may add "" for the empty one.  Its keys, joined
    by ";", are matched as one text against ``_sorted_keys(n)`` (the
    order ``save_game_json`` writes), and sorted first if they do not
    match as given.  Equal texts from as many keys as the text has ";"
    mean equal keys, so no coalition is named twice.  Every value
    must be a float or an int (no bool, no other type) that converts to
    a finite float, with 0 for "".  Returns False, leaving table as it
    was, otherwise.
    """
    empty = len(values) - ((1 << n) - 1)  # 1 if "" is a key: it sorts first
    if empty not in (0, 1):
        return False
    text, masks = _sorted_keys(n)

    def canonical(keys: list) -> bool:
        joined = ";".join(keys)  # text, less its leading ";" if "" is not a key
        return len(joined) == len(text) - 1 + empty and text.startswith(joined, 1 - empty)

    keys = list(values)
    try:
        if canonical(keys):  # as save_game_json writes them: the values are in order
            vals = list(values.values())
        else:
            keys.sort()
            if not canonical(keys):
                return False
            vals = list(map(values.__getitem__, keys))
    except TypeError:  # a key that is not a str, refused by the first join before any sort
        return False
    if not set(map(type, vals)) <= {float, int}:
        return False
    try:
        arr = np.array(vals, dtype=float)
    except OverflowError:  # a JSON integer past the float range
        return False
    if not np.isfinite(arr).all() or arr[:empty].any():
        return False
    table[masks] = arr[empty:]
    return True


def _fill_by_key(table: np.ndarray, n: int, values: Mapping):
    """Fill table from values one entry at a time, raising on the first bad key or value."""
    for key, val in values.items():
        mask = Coalition.from_key(key, n).mask
        # float is listed first because the Real ABC check is slow
        if isinstance(val, bool) or not isinstance(val, (float, numbers.Real)):
            raise ValueError(f"coalition {key!r} has non-numeric value {val!r}")
        try:
            val = float(val)
        except OverflowError:  # a JSON integer past the float range
            raise ValueError(f"coalition {key!r} has a value too large for a float") from None
        if not math.isfinite(val):
            raise ValueError(f"coalition {key!r} has non-finite value {val}")
        if mask == 0 and val != 0.0:
            raise InvalidCoalitionKey("empty coalition must have value 0")
        table[mask] = val
    # every value is finite, so fewer filled entries than keys means two keys share a mask
    if np.count_nonzero(~np.isnan(table)) < len(values):
        first: dict[int, str] = {}
        for key in values:
            mask = Coalition.from_key(key, n).mask
            if mask in first:
                raise InvalidCoalitionKey(
                    f"coalition {Coalition.from_mask(mask, n).key()!r} is named twice, "
                    f"as {first[mask]!r} and {key!r}"
                )
            first[mask] = key


def _bit_pairs(table: np.ndarray):
    """Yield, for each party bit, views (without, with) of a 2**n table.

    ``with_bit[j]`` is the entry whose mask is ``without_bit[j]``'s mask
    plus that bit, so one in-place update per bit gives a subset
    transform (Yates' butterfly).
    """
    for i in range(len(table).bit_length() - 1):
        pairs = table.reshape(-1, 2, 1 << i)
        yield pairs[:, 0, :], pairs[:, 1, :]


def _subset_transform(table: np.ndarray, combine) -> np.ndarray:
    """Fold each mask's entry with its subsets' by the ufunc combine, one bit at a time."""
    out = np.array(table, dtype=float)
    shift = math.frexp(max(out.max(initial=0.0), -out.min(initial=0.0)))[1]
    # an entry past the float range (inf, or NaN from inf - inf) is refused by the
    # caller that reads it as a game or rewards, and returned as is by harsanyi_dividends
    with np.errstate(over="ignore", invalid="ignore"):
        # no intermediate exceeds 2**n * max|x|: where that could overflow, fold the
        # table scaled by a power of two, which is exact for normal values
        if shift + len(out).bit_length() - 1 > 1023:
            return np.ldexp(_subset_transform(np.ldexp(out, -shift), combine), shift)
        for without_bit, with_bit in _bit_pairs(out):
            combine(with_bit, without_bit, out=with_bit)
    return out


def subset_sums(addends: np.ndarray) -> np.ndarray:
    """For per-dividend values d indexed by mask, return sums over subsets.

    out[mask] = sum of d[T] over T subset of mask (the zeta transform).
    """
    return _subset_transform(addends, np.add)


def subset_differences(values: np.ndarray) -> np.ndarray:
    """Inverse of subset_sums: the Harsanyi dividends of a value table.

    out[mask] = sum of (-1)**|mask - T| * v[T] over T subset of mask
    (the Moebius transform), so subset_sums(out) recovers the values.
    """
    return _subset_transform(values, np.subtract)


def random_superadditive_game(n: int, seed: int) -> Game:
    """Draw a random non-negative superadditive game, deterministic per seed.

    Non-negative Harsanyi dividends are drawn for every non-empty
    coalition and summed over subsets, which guarantees non-negativity,
    monotonicity, and superadditivity of the synthesized values.
    """
    _check_party_count(n)
    rng = np.random.default_rng(seed)
    dividends = rng.uniform(0.0, 1.0, size=1 << n)
    dividends[0] = 0.0
    return Game(n, table=subset_sums(dividends))


# joining times are held as int64 arrays
_MAX_TIME = int(np.iinfo(np.int64).max)


def _as_time(t):
    """t as an int by ``operator.index``; anything else, bools too, is left for TimeVector to refuse."""
    if isinstance(t, bool):
        return t
    try:
        return operator.index(t)
    except TypeError:
        return t


@dataclass(frozen=True)
class TimeVector:
    """Per-party joining times: integers from 0 to 2**63 - 1."""

    times: tuple[int, ...]

    def __post_init__(self):
        for t in self.times:
            if isinstance(t, bool) or not isinstance(t, int) or t < 0:
                raise ValueError(f"joining times must be non-negative integers, got {t!r}")
            if t > _MAX_TIME:
                raise ValueError(f"joining time {t} is past the int64 range (at most {_MAX_TIME})")

    @classmethod
    def of(cls, times: Iterable[int]) -> "TimeVector":
        """Times from any integers (numpy integers too); a float or a bool is refused."""
        return cls(tuple(_as_time(t) for t in times))

    @property
    def n(self) -> int:
        return len(self.times)

    @property
    def max_time(self) -> int:
        return max(self.times)

    def normalize(self) -> "TimeVector":
        """Shift so the earliest party has time 0."""
        lo = min(self.times)
        return TimeVector(tuple(t - lo for t in self.times))

    def with_time(self, party: int, t: int) -> "TimeVector":
        """Copy with party's (1-based) time replaced."""
        _check_party(len(self.times), party)
        out = list(self.times)
        out[party - 1] = _as_time(t)
        return TimeVector(tuple(out))

    def as_array(self) -> np.ndarray:
        return np.array(self.times, dtype=int)

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, idx: int) -> int:
        return self.times[idx]


@dataclass(frozen=True, eq=False)
class RewardVector:
    """Per-party reward values, optionally with scaled values r*."""

    rewards: np.ndarray
    scaled: np.ndarray | None = None
    rho: float | None = None

    def __post_init__(self):
        arr = np.asarray(self.rewards, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise ValueError("rewards must be finite")
        object.__setattr__(self, "rewards", arr)
        if self.scaled is not None:
            sarr = np.asarray(self.scaled, dtype=float)
            if not np.all(np.isfinite(sarr)):
                raise ValueError("scaled rewards must be finite")
            object.__setattr__(self, "scaled", sarr)

    @classmethod
    def of(cls, rewards) -> "RewardVector":
        """rewards itself if it is a RewardVector, else a new (checked) one from the array."""
        return rewards if isinstance(rewards, RewardVector) else cls(rewards)

    @property
    def n(self) -> int:
        return len(self.rewards)

    @property
    def degenerate(self) -> bool:
        """True if the rewards were left unscaled: scaled is set but rho is not."""
        return self.scaled is not None and self.rho is None


def _holds(axiom: str) -> property:
    """An AxiomReport property: True iff the axiom has no witness."""
    return property(lambda report: axiom not in report.witnesses)


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of the enumerative A1/A2/A3 check: the witnesses of each failing axiom."""

    witnesses: dict
    nonneg = _holds("nonneg")
    monotone = _holds("monotone")
    superadditive = _holds("superadditive")

    @property
    def all_ok(self) -> bool:
        return not self.witnesses

    def to_dict(self) -> dict:
        return {
            "nonneg": self.nonneg,
            "monotone": self.monotone,
            "superadditive": self.superadditive,
            "witnesses": {
                k: [c.key() for c in v] for k, v in self.witnesses.items()
            },
        }


def _check_tolerance(tol: float):
    """Raise ValueError unless tol is finite and >= 0 (NaN would pass or fail every comparison)."""
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be a finite number >= 0, got {tol}")


def _submask_array(mask: int, n: int) -> np.ndarray:
    """Every submask of mask within n parties, ascending."""
    masks = np.arange(1 << n)
    return masks[(masks & mask) == masks]


def _monotonicity_violation(v: np.ndarray, tol: float) -> tuple[int, int] | None:
    """Nested (B, C) with the largest v(B) - v(C) above tol, or None.

    best[C] is the largest value over C's non-empty subsets (a subset-max
    transform).  C itself only gives a gap of 0, which tol >= 0 never
    counts.  Ties go to the smallest C, then to the largest B.
    """
    best = _subset_transform(np.concatenate(([-np.inf], v[1:])), np.maximum)
    # v is finite, so a gap past the float range is +inf, the worst drop, or -inf, none
    with np.errstate(over="ignore"):
        gap = best - v
        c = int(np.argmax(gap))
        if not gap[c] > tol:
            return None
        subs = _submask_array(c, len(v).bit_length() - 1)[-2:0:-1]
        return int(subs[np.argmax(v[subs] - v[c] == gap[c])]), c


# parties of the low block in the superadditivity scan: 3**8 disjoint pairs per block
_SCAN_BLOCK_PARTIES = 8


def _disjoint_pairs(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Masks (B, S) of the 3**k disjoint pairs over k parties.

    Each pair is a ternary string with one digit per party: 0 = in
    neither, 1 = in B, 2 = in S.
    """
    b = s = np.zeros(1, dtype=np.intp)
    for i in range(k):
        b, s = np.concatenate((b, b | 1 << i, b)), np.concatenate((s, s, s | 1 << i))
    return b, s


def _relabelled(masks: np.ndarray, order: list[int]) -> np.ndarray:
    """Masks whose bit p is moved to bit order[p]."""
    out = np.zeros_like(masks)
    for p, q in enumerate(order):
        out |= (masks >> p & 1) << q
    return out


def _block_gaps(v: np.ndarray, v_b: np.ndarray, s0: int, u0: int, low: tuple, gap: np.ndarray, part: np.ndarray):
    """Write v(B) + v(S) - v(B | S) into gap for one block: S = s0 + s_low, B | S = u0 + u_low.

    v_b holds the block's v(B), gathered once for the blocks that share
    B's high digits; low is (s_low, u_low), and part is scratch of gap's
    size.
    """
    s_low, u_low = low
    np.add(v_b, v[s0:].take(s_low, out=part, mode="clip"), out=gap)
    gap -= v[u0:].take(u_low, out=part, mode="clip")


def _superadditivity_violation(v: np.ndarray, tol: float) -> tuple[int, int] | None:
    """Disjoint (B, S) with the largest v(B) + v(S) - v(B | S) above tol, or None.

    The pairs are scanned as ternary strings (see ``_disjoint_pairs``) in
    blocks: the low parties' 3**8 strings (fewer when n <= 8) are built
    once, and each block fixes the digits of the parties above them, so
    one gather per coalition reads a block's v(B), v(S) and v(B | S).
    The top party is never in B, so a pair without it is met both as
    (B, S) and as (S, B), and the float gap is the same both ways (the
    sum is commutative).  A pair with an empty side has gap
    v(empty) = 0, never above tol.

    ``_union_bounds`` bounds every gap by its pair's union, and a block's
    unions all lie inside the one with every low party.  A block is read
    only if that union's bound is above tol and not below the largest
    gap found so far, so ties are kept; the largest gap starts at that
    of the pairs ({i}, U - {i}), O(n 2**n).  A party without which no
    union reaches that gap or beats tol sits in every pair the scan can
    report; such parties are moved to the top digits (one transpose of
    the table), where a block that leaves one of them out is skipped
    whole.  Blocks that share B's high digits are read in a row and
    share one gather of v(B).  Each largest gap is mapped back to the
    caller's masks and written smaller side first: ties go to the
    smallest B, then to the largest S, so B < S.
    """
    n = len(v).bit_length() - 1
    full = (1 << n) - 1
    bound = _union_bounds(v, tol)
    if bound is None:  # certified: no pair can have a gap above tol
        return None
    worst = max(tol, _largest_split_gap(v))  # a gap the scan meets, if above tol

    def readable(ceiling):  # can a union with this bound hold a pair to report?
        return (ceiling > tol) & (ceiling >= worst)

    # parties that every such union holds go on top, in party order; the
    # relabelled party p is the caller's party order[p]
    order = sorted(range(n), key=lambda i: not readable(bound[full ^ 1 << i]))
    axes = [n - 1 - order[n - 1 - a] for a in range(n)]
    v = v.reshape((2,) * n).transpose(axes).reshape(-1)
    bound = bound.reshape((2,) * n).transpose(axes).reshape(-1)
    low = min(n - 1, _SCAN_BLOCK_PARTIES)
    b_low, s_low = _disjoint_pairs(low)
    low_pairs = (s_low, b_low | s_low)
    high_b, high_s = _disjoint_pairs(n - 1 - low)
    top = 1 << (n - 1 - low)  # the top party: in neither or in S
    high_b = np.concatenate((high_b, high_b)) << low
    high_s = np.concatenate((high_s, high_s | top)) << low
    ceilings = bound[high_b | high_s | (1 << low) - 1]
    keep = np.flatnonzero(readable(ceilings))
    keep = keep[np.argsort(high_b[keep], kind="stable")]
    blocks = zip(
        high_b[keep].tolist(), high_s[keep].tolist(), ceilings[keep].tolist(),
        _relabelled(high_b[keep], order).tolist(), _relabelled(high_s[keep], order).tolist(),
    )
    labels = _relabelled(np.arange(1 << low), order)  # the low digits' masks in the caller's labels
    b_orig, s_orig = labels[b_low], labels[s_low]
    pairs, read_b0 = [], -1
    v_b, gap, part = np.empty(len(b_low)), np.empty(len(b_low)), np.empty(len(b_low))
    with np.errstate(over="ignore"):  # v(B) + v(S) past the float range is an infinite gap
        for b0, s0, ceiling, b0_orig, s0_orig in blocks:
            if ceiling < worst:
                continue
            if b0 != read_b0:
                v[b0:].take(b_low, out=v_b, mode="clip")
                read_b0 = b0
            _block_gaps(v, v_b, s0, b0 | s0, low_pairs, gap, part)
            most = gap.max()
            if most > worst:
                worst, pairs = most, []
            if most == worst > tol:
                k = np.flatnonzero(gap == most)
                b, s = b0_orig + b_orig[k], s0_orig + s_orig[k]
                small, large = np.minimum(b, s), np.maximum(b, s)
                first = small.min()
                pairs.append((int(first), int(large[small == first].max())))
    return min(pairs, key=lambda pair: (pair[0], -pair[1]), default=None)


def _largest_split_gap(v: np.ndarray) -> float:
    """The largest v({i}) + v(U - {i}) - v(U) over parties i in coalitions U, computed as the scan does."""
    most = 0.0  # U = {i}
    with np.errstate(over="ignore"):  # v(B) + v(S) past the float range is an infinite gap
        for i, (without, with_i) in enumerate(_bit_pairs(v)):
            most = max(most, float((v[1 << i] + without - with_i).max()))
    return most


def _rounding_margin(v: np.ndarray) -> float | None:
    """8 eps max|v|, or None when max|v| is neither 0 nor in [2**-960, 2**1020]."""
    scale = float(np.abs(v).max())
    if not (scale == 0.0 or 2.0**-960 <= scale <= 2.0**1020):
        return None
    return 8.0 * float(np.finfo(float).eps) * scale


def _second_difference_minima(v: np.ndarray, margin: float) -> tuple[float, np.ndarray | None]:
    """The smallest computed D_ij(S) capped at margin, and d (``_union_bounds``), None if no D is below margin."""
    n = len(v).bit_length() - 1
    least, d = margin, None
    for i, (without, with_i) in enumerate(_bit_pairs(v)):
        marginal = (with_i - without).ravel()
        # bits >= i of the marginal table are the parties j > i
        for j, (without_j, with_j) in enumerate(itertools.islice(_bit_pairs(marginal), i, None), i + 1):
            delta = with_j - without_j  # D_ij(S), S indexed without bits i and j
            low = float(delta.min())
            if low < margin:
                least = min(least, low)
                if d is None:
                    d = np.full(1 << n, margin)
                at = [slice(None)] * n  # axis n - 1 - p holds party p's bit
                at[n - 1 - i] = at[n - 1 - j] = slice(1, 2)
                cell = d.reshape((2,) * n)[tuple(at)]
                np.minimum(cell, delta.reshape(cell.shape), out=cell)
    return least, d


def _union_bounds(v: np.ndarray, tol: float) -> np.ndarray | None:
    """bound[U] >= every computed gap of a disjoint pair with union U; None when bound[N] <= tol.

    For parties i < j and S holding neither, the mixed second difference
    is D_ij(S) = v(S+i+j) - v(S+i) - v(S+j) + v(S), read as the per-bit
    difference of party i's marginal table v(S+i) - v(S).  Let B, S be
    disjoint with union U, B = {b_1..b_p}, S = {s_1..s_q}, and F(k, l)
    the value of the first k members of B with the first l of S.  Then
    v(B | S) - v(B) - v(S) = F(p, q) - F(p, 0) - F(0, q) + F(0, 0)
    telescopes into the p*q differences D_{b_k s_l}(B_{k-1} | S_{l-1}),
    all with their coalitions inside U, so the gap v(B) + v(S) - v(B | S)
    is at most K(|U|)*max(0, -m[U]), m[U] the smallest difference inside
    U and K(k) = floor(k/2)*ceil(k/2) >= p*q.  (Shapley, "Cores of convex
    games", 1971: convex games are superadditive.)

    Rounding.  Let M = max|v| and eps machine epsilon; each rounded sum
    or difference is off by at most eps/2 of its size.  A computed
    difference is three roundings of sizes <= 2M, 2M and 4M + 2 eps M,
    so it is within 4 eps M + eps**2 M < 5 eps M of the exact D; the
    scan's computed gap is two roundings of sizes <= 2M and 3M + eps M,
    within 3 eps M of the exact gap.  With margin = 8 eps M, every
    computed gap is therefore at most K(|U|)*max(0, -m'[U] + margin) +
    margin, m' over the computed differences.  All terms there are >= 0
    and the bound is at least margin, so each of its four roundings
    loses at most eps/2 of the bound, which the final factor 1 + 4 eps
    restores: (1 - eps/2)**4 (1 + 4 eps) > 1.  M in [2**-960, 2**1020]
    keeps every quantity here and in the scan finite and margin a normal
    number, 8 eps being a power of two; M = 0 is exact throughout.  Other
    tables get every bound inf.

    One pass over the n(n-1)/2 difference tables serves both uses.  Its
    smallest difference gives bound[N]; within tol, that certifies the
    game, and no table is built.  Otherwise d[W], the smallest
    D'_ij(W - {i, j}) over i < j in W capped at margin (the bound reads
    m' only through max(0, margin - m')), has m' as its subset-min
    transform.  m' shrinks and K(|U|) grows as U grows, and rounding is
    monotone, so the bound grows with U.
    """
    n = len(v).bit_length() - 1
    margin = _rounding_margin(v)
    if margin is None:
        return np.full(1 << n, np.inf)
    least, d = _second_difference_minima(v, margin)
    rounding = 1.0 + 4.0 * float(np.finfo(float).eps)
    # bound[N], by the operations below in the same order
    if ((n // 2) * ((n + 1) // 2) * max(0.0, -least + margin) + margin) * rounding <= tol:
        return None
    d = np.full(1 << n, margin) if d is None else d
    for without_bit, with_bit in _bit_pairs(d):
        np.minimum(with_bit, without_bit, out=with_bit)
    size = np.zeros(1, dtype=np.int8)
    for _ in range(n):
        size = np.concatenate((size, size + 1))
    products = np.array([(k // 2) * ((k + 1) // 2) for k in range(n + 1)], dtype=float)[size]
    with np.errstate(over="ignore"):  # a bound past the float range is inf, which skips nothing
        np.negative(d, out=d)
        d += margin
        np.maximum(d, 0.0, out=d)
        d *= products
        d += margin
        d *= rounding
    return d


def check_axioms(game: Game, tol: float = DEFAULT_TOL) -> AxiomReport:
    """Verify non-negativity, monotonicity, and superadditivity exhaustively.

    Monotonicity is an O(n 2**n) subset-max transform.  Superadditivity
    takes one O(n**2 2**n) pass over the table's mixed second differences,
    which bounds every gap by its pair's union.  The bound at the grand
    coalition is the certificate: within tol, it settles the game (every
    convex game) with no pair read.  Otherwise the disjoint pairs are
    scanned, O(3**n) at most, in blocks of 3**8 pairs with one gather of
    each coalition's values per block, and a block whose bound cannot
    beat tol or the worst gap found so far is skipped: a convex game with
    one coalition of k <= n - 8 parties cut reads (2/3)**(k - 1) / 2 of
    the blocks.  Either way the verdict is the scan's.  On failure the worst violating coalition
    pair is returned as a witness: ties go to the smallest B, then to
    the largest S (nested pairs: the smallest C, then the largest B).
    Results are memoised on the game per tolerance, which must be finite
    and >= 0.
    """
    _check_tolerance(tol)
    cached = game._axiom_reports.get(tol)
    if cached is not None:
        return cached

    v = game.table()
    worst = int(np.argmin(v))
    # B = empty in monotonicity is v(C) >= 0, already covered by nonneg
    violations = {
        "nonneg": (worst,) if v[worst] < -tol else None,
        "monotone": _monotonicity_violation(v, tol),
        "superadditive": _superadditivity_violation(v, tol),
    }
    report = AxiomReport({
        axiom: tuple(Coalition.from_mask(m, game.n) for m in masks)
        for axiom, masks in violations.items()
        if masks is not None
    })
    game._axiom_reports[tol] = report
    return report


def _refuse_repeats(names: Iterable, what: str, error: type[Exception] = ValueError):
    """Raise error(f"{what} {name!r} twice") for the first of names met a second time."""
    seen = set()
    for name in names:
        if name in seen:
            raise error(f"{what} {name!r} twice")
        seen.add(name)


def _read_json_object(path, kind: str, fields, error: type[Exception] = ValueError) -> dict:
    """The JSON object in a file, refusing any top-level key outside fields.

    A key repeated in any object (``json`` alone keeps the last value), a
    document that is not an object and an unknown field raise error.
    """

    def unique_keys(pairs: list) -> dict:
        doc = dict(pairs)
        if len(doc) < len(pairs):
            _refuse_repeats((key for key, _ in pairs), f"{kind} file names key", error)
        return doc

    with open(path) as fh:
        doc = json.load(fh, object_pairs_hook=unique_keys)
    if not isinstance(doc, dict):
        raise error(f"{kind} must be a JSON object, got {type(doc).__name__}")
    for key in doc:
        if key not in fields:
            raise error(f"{kind} file has unknown field {key!r} (fields: {', '.join(fields)})")
    return doc


def _dense_table(n: int, text) -> np.ndarray:
    """The 2**n table held by a game file's "table_f64le" field, as a read-only view of its bytes.

    The party count is checked before anything is decoded.  A field that
    is not a base64 string or that decodes to other than 8 * 2**n bytes
    raises ValueError; Game copies the view once, refuses a non-finite
    entry and a non-zero entry 0, and stores entry 0 as +0.0.
    """
    import base64  # only dense files need it, so importing the CLI stays as lean

    _check_party_count(n)
    if not isinstance(text, str):
        raise ValueError(
            f"game file 'table_f64le' must be a base64 string, got {type(text).__name__}"
        )
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError:  # binascii.Error, whose wording differs across Python versions
        raise ValueError("game file 'table_f64le' is not valid base64") from None
    if len(raw) != 8 << n:
        raise ValueError(
            f"game file 'table_f64le' decodes to {len(raw)} bytes, "
            f"expected {8 << n} (2**{n} float64 values)"
        )
    return np.frombuffer(raw, "<f8")


def load_game_json(path) -> tuple[Game, TimeVector | None]:
    """Read a game file: {"n", "values" | "table_f64le", "times"?, "superadditive"?}.

    n is an integer and the file gives exactly one of two forms of the
    values.  "values" maps coalition keys to numbers (see
    ``make_table_game``).  "table_f64le" is the base64 of the whole
    2**n table as little-endian float64, indexed by bitmask, entry 0
    included: every entry finite, entry 0 zero.  That form decodes in
    one pass and is meant for large n; n is checked before it is
    decoded.  times, when present, are a list of n non-negative integers,
    normalized so the earliest party is at 0.  A superadditive field is
    accepted and ignored: ``check_axioms`` decides the axioms from the
    values.  Any other field, and a key repeated within one JSON object,
    raises InvalidCoalitionKey.
    """
    doc = _read_json_object(
        path, "game", ("n", "values", "table_f64le", "times", "superadditive"),
        InvalidCoalitionKey,
    )
    if "n" not in doc or ("values" in doc) == ("table_f64le" in doc):
        raise InvalidCoalitionKey(
            "game file must contain 'n' and exactly one of 'values' and 'table_f64le'"
        )
    n = doc["n"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"game file 'n' must be an integer, got {n!r}")
    if "values" in doc:
        game = make_table_game(n, doc["values"])
    else:
        game = Game(n, table=_dense_table(n, doc["table_f64le"]))
    times = doc.get("times")
    if times is not None:
        if not isinstance(times, list):
            raise ValueError(f"game file 'times' must be a list, got {times!r}")
        times = _game_times(n, times).normalize()
    return game, times


def _game_times(n: int, raw) -> TimeVector:
    """The n joining times in raw, as given; a wrong count is refused before any entry is read."""
    if len(raw) != n:
        raise LengthMismatch(f"expected {n} times, got {len(raw)}")
    return TimeVector.of(raw)


def save_game_json(path, n: int, values, times=None, superadditive=None):
    """Write a game file; the form of values decides the form of the file.

    A coalition-key -> value mapping is written keyed, as the readable
    "values" object.  A Game, or its 2**n table indexed by bitmask, is
    written as "table_f64le", which loads far faster at large n; a game
    loaded from either form of the same values has the same table.
    times, a sequence of n joining times, is written as given and
    normalized on load.  Before the file is opened, values and times go
    through the constructors ``load_game_json`` reads them with, so what
    the loader would refuse is refused with the same exception, and
    nothing is written.  superadditive, when given, is written for
    readers of the file only.
    """
    if isinstance(values, Mapping):
        game = make_table_game(n, values)
        doc: dict = {"values": {k: float(v) for k, v in values.items()}}
    else:
        import base64  # only dense files need it, so importing the CLI stays as lean

        game = Game(n, table=values.table() if isinstance(values, Game) else values)
        raw = game.table().astype("<f8", copy=False).tobytes()
        doc = {"table_f64le": base64.b64encode(raw).decode("ascii")}
    doc["n"] = game.n
    if times is not None:
        doc["times"] = list(_game_times(game.n, times).times)
    if superadditive is not None:
        doc["superadditive"] = bool(superadditive)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
