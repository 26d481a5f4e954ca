"""Estimating how many edges join a high out-degree head to a high
in-degree tail, from a directed edge stream.

A run holds 4 tokens per stream position. Every arriving edge queries
the tokens of its endpoints' recent history, and the signed output is
unbiased for the number of edges (u, v) where u reaches out-degree d_H
and v reaches in-degree d_T by the end of the stream.
"""

import numpy as np

from pairsketch import heavy_edges

# A star with centre 3 pointing at everything else. With d_H = 2 and
# d_T = 1 the first outgoing edge never qualifies (the centre's degree
# is still 1 when it arrives), so the count is m - 1 = 2.
star = heavy_edges.DirectedEdgeStream(4, ((3, 1), (3, 2), (3, 4)))
count = heavy_edges.oracle_heavy_count(star, 2, 1)
print("star stream, d_H = 2, d_T = 1: true qualifying count =", count)

law = heavy_edges.terminal_law(star, 2, 1)
value = 2 * star.m
print("terminal law: mean %s over %d atoms, P[+%d] = %s, P[-%d] = %s"
      % (law.expect(int), len(law.atoms), value, law.atoms[value], value, law.atoms[-value]))
assert law.expect(int) == count

outs = heavy_edges.sample_outputs(star, 2, 1, master_seed=1, trials=30_000)
print("sampled mean over 30000 runs: %.3f" % float(np.mean(outs)))

# The same machinery on a random directed graph.
rng = np.random.default_rng(12)
pairs = set()
edges = []
while len(edges) < 60:
    u, v = (int(x) for x in rng.integers(1, 21, size=2))
    if u != v and (u, v) not in pairs:
        pairs.add((u, v))
        edges.append((u, v))
stream = heavy_edges.DirectedEdgeStream(20, tuple(edges))

for d_h, d_t in ((2, 1), (3, 2)):
    count = heavy_edges.oracle_heavy_count(stream, d_h, d_t)
    law = heavy_edges.terminal_law(stream, d_h, d_t)
    assert law.expect(int) == count
    outs = heavy_edges.sample_outputs(stream, d_h, d_t, master_seed=4, trials=60_000)
    mean = float(np.mean(outs))
    sem = float(np.std(outs, ddof=1) / np.sqrt(len(outs)))
    print("random stream, d_H = %d, d_T = %d: count %2d, sampled %.2f +- %.2f"
          % (d_h, d_t, count, mean, sem))

# Two estimator entry points do the same averaging. estimate() runs
# live sketches one by one; estimate_sampled() draws straight from the
# exact terminal law, so it can afford far more copies.
live = heavy_edges.estimate(stream, heavy_edges.HeavyParams(2, 1, 0.4), seed=7,
                            copies=200)
fast = heavy_edges.estimate_sampled(stream, heavy_edges.HeavyParams(2, 1, 0.4),
                                    seed=7, copies=50_000)
print("estimate(d_H = 2, d_T = 1): %.2f from 200 live runs, %.2f from 50000 law draws"
      % (live, fast))
