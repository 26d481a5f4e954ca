"""Counting damped triangles in an edge stream with one sketch per run.

Each run starts a sketch on 2m scratch members and replays the edge
stream: every edge is selected with probability 1/k, a selected edge
probes the sketch with one pair query per vertex, and then every edge
swaps two scratch members into its own pair. The signed output X is
engineered so that E[X] equals T_less = sum over triangles of
(1 - 1/k)^(d_v + d_w), where d_v and d_w count the edges that arrive at
the closing edge's endpoints between the wedge and the closing edge.
The rest of T, T_greater, cancels out of the expectation.
"""

import numpy as np

from pairsketch import triangle

# Warm up on the smallest possible case.
K3 = triangle.EdgeStream(3, ((1, 2), (1, 3), (2, 3)))
law = triangle.terminal_law(K3, 1)
print("K3 with k = 1: exact output law", dict(sorted(law.atoms.items())))
print("  mean =", law.expect(int), "(one triangle, as expected)")
assert law.expect(int) == 1

# A denser random graph.
rng = np.random.default_rng(3)
n = 20
edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
         if rng.random() < 0.3]
order = rng.permutation(len(edges))
stream = triangle.EdgeStream(n, tuple(edges[i] for i in order))

k = 3
report = triangle.oracle_t_split(stream, k)
print()
print("random graph: n = %d, m = %d edges" % (stream.n, stream.m))
print("true triangle count T = %s, split at k = %d: T_less = %s, T_greater = %s"
      % (report.T, k, report.T_less, report.T_greater))
assert report.T_less + report.T_greater == report.T
law = triangle.terminal_law(stream, k)
value = k * stream.m
print("exact law: P[+%d] = %.4f, P[-%d] = %.4f, mean %s"
      % (value, float(law.atoms.get(value, 0)), value, float(law.atoms.get(-value, 0)),
         law.expect(int)))
assert law.expect(int) == report.T_less

trials = 60_000
outs = triangle.sample_outputs(stream, k, master_seed=17, trials=trials)
mean = float(np.mean(outs))
sem = float(np.std(outs, ddof=1) / np.sqrt(trials))
print("sampled mean of X over %d runs: %.3f +- %.3f (target %s)"
      % (trials, mean, sem, report.T_less))
assert abs(mean - float(report.T_less)) < 5 * sem
# every run is bounded by k * m, whatever the randomness does
assert np.max(np.abs(outs)) <= k * stream.m

# The full estimator averages independent runs, with the cutoff chosen
# from a promised lower bound T' and the arboricity style bound Delta_E.
params = triangle.TriangleParams(
    k=triangle.choose_k(float(report.T_less), stream.m, 3.0),
    T_prime=float(report.T_less),
    Delta_E=3.0,
    eps=0.25,
    delta=0.1,
    repetitions=(40_000, 1),
)
est = triangle.estimate_sampled(stream, params, master_seed=23)
target = triangle.oracle_t_split(stream, params.k).T_less
print("estimate with k = %d chosen automatically: %.2f (target at that k: %.2f)"
      % (params.k, est, float(target)))
