"""Check the stochastic and quantum backends agree on random scripts.

enumerate_distribution supports two engines.  The stochastic one is the
noiseless replay plus the fire law: it runs the script once with every
query missing and reads each query's exact fire probability off its
presence pattern and the initial size, in rational arithmetic.  The
quantum one prepares a uniform superposition over the member set,
applies each update as a permutation of basis states, and realises
queries as projective measurements.  Their outcome laws should match to
floating point noise, and this script measures how close they get.
"""

import numpy as np

import pairsketch as ps
from pairsketch.harness import random_script

U = ps.UniverseSpec((ps.Block("v", (ps.IntRange(1, 16),)),))
IDS = [U.encode("v", (v,)) for v in range(1, 17)]

rng = np.random.default_rng(7)

worst = 0.0
worst_script = None
for trial in range(40):
    size = int(rng.integers(1, 7))
    members = sorted(rng.choice(IDS, size=size, replace=False).tolist())
    script = random_script(U, rng, 5)
    a = ps.enumerate_distribution(U, members, script, "stochastic")
    b = ps.enumerate_distribution(U, members, script, "quantum")
    tv = a.tv(b)
    if tv > worst:
        worst, worst_script = tv, (members, script)

print("checked 40 random scripts over a 16 element universe")
print("largest total variation distance between backends: %.3e" % worst)
assert worst <= 1e-9

members, script = worst_script
print()
print("the widest gap came from T =", members, "under:")
for op in script:
    if isinstance(op, ps.QueryPair):
        print("   query_pair(%d, %d)" % (op.x, op.y))
    elif isinstance(op, ps.QueryOne):
        print("   query_one(%d)" % op.x)
    else:
        print("   update (permute the universe)")
print()
print("outcome law (stochastic backend, exact):")
dist = ps.enumerate_distribution(U, members, script)
for entry, p in sorted(dist.entries.items()):
    print("  %-24s %s" % (" ".join(entry), p))
