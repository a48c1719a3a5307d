"""Turning a target reward value into an actual model reward.

Likelihood tempering scales the other parties' observation noise by
1/kappa.  Precisions add, so the tempered value is IG(everyone's data)
minus IG(the others' data at noise/(1-kappa)), and bisection on kappa
hits any value between "my data alone" and "everyone's data" exactly.  Subset selection instead keeps adding
shuffled donor points until the conditional value first crosses the
target; it is approximate but works for any valuation.
"""

import numpy as np

import timereward as tr
from timereward.realization import conditional_point_value

rng = np.random.default_rng(3)
X = rng.uniform(size=(15, 2))
model = tr.GpModel(X, np.repeat([1, 2, 3], 5), np.array([0.6, 0.6]), 1.0, 0.2)
game = tr.conditional_ig_game(model)

times = tr.TimeVector.of((1, 0, 0))
rewards = tr.reward_time_valuation(game, times, 0.5)
scaled = tr.scale_rewards(game, rewards)
print("scaled reward targets:", np.round(scaled.scaled, 4), " v(N) =", round(game.grand_value(), 4))

print("\n--- likelihood tempering (exact) ---")
for party in (1, 2, 3):
    target = float(scaled.scaled[party - 1])
    result = tr.temper(model, party, target, tol=1e-6)
    print(
        f"party {party}: kappa={result.kappa:.6f} achieves {result.achieved_value:.6f}"
        f" (target {target:.6f}, error {abs(result.achieved_value - target):.1e})"
    )

print("\nthe tempered value sweeps monotonically from solo to full value:")
for kappa in (0.0, 0.25, 0.5, 0.75, 1.0):
    print(f"  kappa={kappa:4.2f} -> {tr.tempered_value(model, 1, kappa):.4f}")

print("\n--- greedy subset selection (approximate, any valuation) ---")
for party in (1, 2, 3):
    target = float(scaled.scaled[party - 1])
    result = tr.select_subset(model, party, target, seed=11)
    donors = len(result.selected) - 5
    print(
        f"party {party}: +{donors} donor points -> value {result.achieved_value:.4f}"
        f" (target {target:.4f}, saturated={result.saturated})"
    )
    if donors > 0 and not result.saturated:
        before = conditional_point_value(model, result.selected[:-1])
        print(f"   one point earlier the value was only {before:.4f} (< target)")

print("\nsubset selection also works on plain table games (whole-party atoms):")
table_game = tr.random_superadditive_game(4, seed=5)
target = 0.6 * table_game.grand_value()
result = tr.select_subset(table_game, 2, target, seed=0)
print(f"party 2 receives the data of parties {result.selected}, value {result.achieved_value:.4f}")
