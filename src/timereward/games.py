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

        The party count and the range of each index are Coalition's own checks.
        """
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
            if len(table) != 1 << n:
                raise ValueError("table length must be 2**n")
            arr = np.array(table, dtype=float)
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


def _canonical_masks(n: int) -> dict[str, int]:
    """Map each canonical key (``Coalition.key()``) of n parties to its mask.

    Built by doubling: the keys of masks in [2**i, 2**(i+1)) are those of
    the masks below 2**i with party i+1 appended.
    """
    keys = [""]
    for i in range(1, n + 1):
        suffix = f",{i}"
        keys += [str(i)] + [key + suffix for key in keys[1:]]
    return dict(zip(keys, range(1 << n)))


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
    so a partial table costs as much memory as a full one.  A mapping of
    at least 2**n / 16 keys is matched against a key -> mask map of the
    canonical ``Coalition.key()`` forms, built once per call.  If every
    key is canonical and every value a finite float or int (0 for the
    empty coalition), the values are checked as one array and stored in
    one assignment.  Any other mapping, and every smaller one, is read
    key by key in mapping order, so the first bad key or value is the
    one named; only keys outside the map (padded or malformed) are
    parsed, and a small mapping costs time proportional to its keys.
    Only a mapping that repeats a coalition pays for a second pass to
    name it.
    """
    _check_party_count(n)
    if not isinstance(values, Mapping):
        raise ValueError(f"coalition values must be a mapping, got {type(values).__name__}")
    table = np.full(1 << n, np.nan)
    canonical = _canonical_masks(n) if 16 * len(values) >= 1 << n else {}
    if not (canonical and _fill_in_bulk(table, canonical, values)):
        _fill_by_key(table, n, canonical, values)
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


def _fill_in_bulk(table: np.ndarray, canonical: dict[str, int], values: Mapping) -> bool:
    """Fill table from values in one assignment if every entry passes make_table_game's checks.

    Every key must be canonical and every value a float or an int (no
    bool, no other type) that converts to a finite float, with 0 for the
    empty coalition.  Canonical keys are distinct, so no coalition can be
    named twice.  Returns False, leaving table as it was, otherwise.
    """
    masks = list(map(canonical.get, values))
    vals = list(values.values())
    if None in masks or not set(map(type, vals)) <= {float, int}:
        return False
    try:
        arr = np.array(vals, dtype=float)
    except OverflowError:  # a JSON integer past the float range
        return False
    idx = np.array(masks, dtype=np.intp)
    if not np.isfinite(arr).all() or arr[idx == 0].any():
        return False
    table[idx] = arr
    return True


def _fill_by_key(table: np.ndarray, n: int, canonical: dict[str, int], values: Mapping):
    """Fill table from values one entry at a time, raising on the first bad key or value."""
    for key, val in values.items():
        mask = canonical.get(key)
        if mask is None:  # not in the map: parse it, raising on a malformed key
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
            mask = canonical[key] if key in canonical else Coalition.from_key(key, n).mask
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
    n = len(table).bit_length() - 1
    if len(table) != 1 << n:
        raise ValueError("length must be a power of two")
    for i in range(n):
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


def _superadditivity_violation(v: np.ndarray, tol: float) -> tuple[int, int] | None:
    """Disjoint (B, S) with the largest v(B) + v(S) - v(B | S) above tol, or None.

    The pairs are scanned as ternary strings (see ``_disjoint_pairs``) in
    blocks: the low parties' 3**8 strings (fewer when n <= 8) are built
    once, and each block fixes the digits of the parties above them, so
    one gather per coalition reads a block's v(B), v(S) and v(B | S).
    Party n is never in B, so a pair without party n is met both as
    (B, S) and as (S, B), and the float gap is the same both ways (the
    sum is commutative).  The smallest coalition among the pairs with
    the largest gap cannot hold party n, so it is met as B: ties go to
    the smallest B, then to the largest S, which gives B < S.  A pair
    with an empty side has gap v(empty) = 0, never above tol.
    """
    n = len(v).bit_length() - 1
    low = min(n - 1, _SCAN_BLOCK_PARTIES)
    b_low, s_low = _disjoint_pairs(low)
    u_low = b_low | s_low
    width = 1 << low
    high_b, high_s = _disjoint_pairs(n - 1 - low)
    top = 1 << (n - 1 - low)  # party n: in neither or in S
    high_b = np.concatenate((high_b, high_b)) << low
    high_s = np.concatenate((high_s, high_s | top)) << low
    gap, part = np.empty(len(b_low)), np.empty(len(b_low))
    worst, pairs = tol, []
    with np.errstate(over="ignore"):  # v(B) + v(S) past the float range is an infinite gap
        for b0, s0 in zip(high_b.tolist(), high_s.tolist()):
            u0 = b0 | s0
            np.take(v[b0:b0 + width], b_low, out=gap, mode="clip")
            gap += np.take(v[s0:s0 + width], s_low, out=part, mode="clip")
            gap -= np.take(v[u0:u0 + width], u_low, out=part, mode="clip")
            most = gap.max()
            if most > worst:
                worst, pairs = most, []
            if most == worst > tol:
                k = np.flatnonzero(gap == most)
                b, s = b0 + b_low[k], s0 + s_low[k]
                pairs.append((int(b.min()), int(s[b == b.min()].max())))
    return min(pairs, key=lambda pair: (pair[0], -pair[1]), default=None)


def _superadditivity_certified(v: np.ndarray, tol: float) -> bool:
    """True if no disjoint pair can have a computed gap above tol, judged in O(n**2 2**n).

    For parties i < j and S holding neither, the mixed second difference
    is D_ij(S) = v(S+i+j) - v(S+i) - v(S+j) + v(S), read as the per-bit
    difference of party i's marginal table v(S+i) - v(S).  Let B, S be
    disjoint, B = {b_1..b_p}, S = {s_1..s_q}, and F(k, l) the value of
    the first k members of B with the first l of S.  Then
    v(B | S) - v(B) - v(S) = F(p, q) - F(p, 0) - F(0, q) + F(0, 0)
    telescopes into the p*q differences D_{b_k s_l}(B_{k-1} | S_{l-1}),
    so the gap v(B) + v(S) - v(B | S) is at most p*q*max(0, -min D),
    with p*q <= K = floor(n/2)*ceil(n/2).  (Shapley, "Cores of convex
    games", 1971: convex games are superadditive.)

    Rounding.  Let M = max|v| and eps machine epsilon; each rounded sum
    or difference is off by at most eps/2 of its size.  A computed
    difference is three roundings of sizes <= 2M, 2M and 4M + 2 eps M,
    so it is within 4 eps M + eps**2 M < 5 eps M of the exact D; the
    scan's computed gap is two roundings of sizes <= 2M and 3M + eps M,
    within 3 eps M of the exact gap.  With margin = 8 eps M, every
    computed gap is therefore at most K*max(0, -min D' + margin) + margin,
    D' the computed differences.  All terms there are >= 0 and the bound
    is at least margin, so each of its four roundings here loses at most
    eps/2 of the bound, which the final factor 1 + 4 eps restores:
    (1 - eps/2)**4 (1 + 4 eps) > 1.  If the rounded bound is <= tol, the
    scan would find no gap above tol.  M in [2**-960, 2**1020] keeps
    every quantity here and in the scan finite and margin a normal
    number, 8 eps being a power of two; M = 0 is exact throughout.  Other
    tables go to the scan.
    """
    n = len(v).bit_length() - 1
    eps = float(np.finfo(float).eps)
    scale = float(np.abs(v).max())
    if not (scale == 0.0 or 2.0**-960 <= scale <= 2.0**1020):
        return False
    min_delta = math.inf
    for i, (without, with_i) in enumerate(_bit_pairs(v)):
        marginal = (with_i - without).ravel()
        # bits >= i of the marginal table are the parties j > i
        for without_j, with_j in itertools.islice(_bit_pairs(marginal), i, None):
            min_delta = min(min_delta, float((with_j - without_j).min()))
    margin = 8.0 * eps * scale
    bound = (n // 2) * ((n + 1) // 2) * max(0.0, -min_delta + margin) + margin
    return bound * (1.0 + 4.0 * eps) <= tol


def check_axioms(game: Game, tol: float = DEFAULT_TOL) -> AxiomReport:
    """Verify non-negativity, monotonicity, and superadditivity exhaustively.

    Monotonicity is an O(n 2**n) subset-max transform.  Superadditivity
    is first certified from the smallest mixed second difference of the
    table, O(n**2 2**n), which settles convex games; only a game that
    fails the certificate is scanned over every disjoint pair, O(3**n),
    in blocks of 3**8 pairs with one gather of each coalition's values
    per block.  Either way the verdict is the scan's.  On failure the
    worst violating coalition pair is returned as a witness: ties go to
    the smallest B, then to the largest S (nested pairs: the smallest C,
    then the largest B).  Results are memoised on the game per
    tolerance, which must be finite and >= 0.
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
        "superadditive": None
        if _superadditivity_certified(v, tol)
        else _superadditivity_violation(v, tol),
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
    times = None
    if doc.get("times") is not None:
        raw = doc["times"]
        if not isinstance(raw, list):
            raise ValueError(f"game file 'times' must be a list, got {raw!r}")
        if len(raw) != n:
            raise LengthMismatch(f"expected {n} times, got {len(raw)}")
        times = TimeVector(tuple(raw)).normalize()
    return game, times


def save_game_json(path, n: int, values, times=None, superadditive=None):
    """Write a game file; the form of values decides the form of the file.

    A coalition-key -> value mapping is written keyed, as the readable
    "values" object.  A Game, or its 2**n table indexed by bitmask, is
    written as "table_f64le", which loads far faster at large n; a game
    loaded from either form of the same values has the same table.
    superadditive, when given, is written for readers of the file only.
    """
    doc: dict = {"n": n}
    if isinstance(values, Mapping):
        doc["values"] = {k: float(v) for k, v in values.items()}
    else:
        import base64  # only dense files need it, so importing the CLI stays as lean

        table = np.asarray(values.table() if isinstance(values, Game) else values, dtype="<f8")
        if table.shape != (1 << n,):
            raise ValueError(f"a dense game table must have shape (2**{n},), got {table.shape}")
        doc["table_f64le"] = base64.b64encode(table.tobytes()).decode("ascii")
    if times is not None:
        doc["times"] = [int(t) for t in times]
    if superadditive is not None:
        doc["superadditive"] = bool(superadditive)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")

