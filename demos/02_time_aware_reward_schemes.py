"""The two time-aware reward schemes and their tuning knobs.

Interval cumulation treats every time interval as its own collaboration
and blends the per-interval Shapley values with geometric weights
(parameter beta).  Time-aware valuation discounts each coalition's
synergy by how late its last member arrived (parameter gamma) and then
takes plain Shapley values.  Both reduce to plain Shapley when time
stops mattering (beta -> infinity, gamma = 0).
"""

import numpy as np

import timereward as tr

game = tr.make_table_game(2, {"1": 0.2, "2": 0.2, "1,2": 1.0})
times = tr.TimeVector.of((4, 0))
plain = tr.shapley_exact(game).values
print("plain Shapley:", plain)

print("\n--- interval cumulation: weights over intervals 0..4 ---")
for beta in (0.5, 1.0, 2.0, 1000.0):
    w = tr.interval_weights(times, beta)
    r = tr.reward_cumulation(game, times, beta).rewards
    print(f"beta={beta:7.1f}  weights={np.round(w, 4)}  rewards={np.round(r, 4)}")

print("\nper-interval Shapley values (rows = intervals):")
print(tr.interval_shapley_values(game, times))

print("\n--- time-aware valuation: synergy discounted by the late member ---")
pair = tr.Coalition.of([1, 2], 2)
for gamma in (0.0, 0.5, 1.0, 2.0):
    v_pair = tr.time_aware_game(game, times, gamma).value(pair)
    r = tr.reward_time_valuation(game, times, gamma).rewards
    print(f"gamma={gamma:3.1f}  v(1,2 | t)={v_pair:.6f}  rewards={np.round(r, 6)}")

print("\nsynergy dividends of the base game:")
for coalition, dividend in tr.harsanyi_dividends(game).items():
    print(f"  d({coalition.key() or 'empty':5s}) = {round(dividend, 12)}")

print("\n--- scaling so the best party at t=0 gets the full-model value ---")
zero = tr.TimeVector.of((0, 0))
scaled = tr.scale_rewards(game, tr.reward_cumulation(game, zero, 1.0))
print("rho:", scaled.rho, " scaled rewards:", scaled.scaled)
print("weak efficiency:", tr.check_weak_efficiency(game, scaled))
