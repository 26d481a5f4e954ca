"""A guided tour of the pair sampling sketch.

The sketch summarises a subset T of a finite universe.  You may ask it
about one element or about a pair, but every negative answer silently
deletes elements, so the summary wears out as you use it.  This script
pokes at a tiny instance by hand and then switches to exact enumeration
to see the full outcome law of a query script.
"""

from fractions import Fraction

import pairsketch as ps

# A universe is a product of named blocks.  One block holding the
# integers 1..8 is plenty here.
U = ps.UniverseSpec((ps.Block("v", (ps.IntRange(1, 8),)),))


def vid(v):
    return U.encode("v", (v,))


# --- live handles -------------------------------------------------------

handle = ps.create(U, [vid(2), vid(3), vid(4)], master_seed=42)
print("created a sketch of {2, 3, 4}, size", handle.size)

out = handle.query_one(vid(4))
print("query_one(4) ->", out.name)
if out is ps.QueryOutcome.BOT:
    print("  the miss deleted 4; members are now",
          sorted(U.decode(e)[1][0] for e in handle.debug_members()))

# Keep querying until the run ends.  A hit (Plus, Minus, In) reports
# and destroys the handle; misses delete elements until none remain.
while not handle.destroyed:
    out = handle.query_pair(vid(2), vid(3))
    print("query_pair(2, 3) ->", out.name)

try:
    handle.query_one(vid(2))
except ps.SketchDestroyedError as exc:
    print("further queries fail:", exc)

# --- exact outcome laws ---------------------------------------------------

# enumerate_distribution returns the exact probability of each outcome
# tuple of a script, as Fractions.
print()
print("law of query_one(4) on T = {2, 3, 4}:")
dist = ps.enumerate_distribution(U, [vid(2), vid(3), vid(4)], [ps.QueryOne(vid(4))])
for entry, p in sorted(dist.entries.items()):
    print("  %-8s %s" % (entry[0], p))
assert dist.entries[("In",)] == Fraction(1, 3)
assert dist.entries[("Bot",)] == Fraction(2, 3)

print("law of query_pair(2, 3) on T = {2, 3}:")
dist = ps.enumerate_distribution(U, [vid(2), vid(3)], [ps.QueryPair(vid(2), vid(3))])
for entry, p in sorted(dist.entries.items()):
    print("  %-8s %s" % (entry[0], p))
assert dist.entries[("Plus",)] == 1  # both ends present: always a correlated hit

print("law of query_pair(2, 3) on T = {1, 2, 4}:")
dist = ps.enumerate_distribution(
    U, [vid(1), vid(2), vid(4)], [ps.QueryPair(vid(2), vid(3))]
)
for entry, p in sorted(dist.entries.items()):
    print("  %-8s %s" % (entry[0], p))

# --- updates and the deletion schedule ------------------------------------

# Scripts may also permute the universe between queries.  The noiseless
# replay runs the all-miss branch and reports exactly which elements a
# miss-only run would have deleted, in order.
script = [
    ps.QueryOne(vid(4)),
    ps.Update(ps.swap_perm(U, (vid(2), vid(7)))),
    ps.QueryPair(vid(7), vid(5)),
]
trace = ps.replay_noiseless(U, [vid(2), vid(3), vid(4)], script)
print()
print("noiseless replay of a 3-op script on {2, 3, 4}:")
for step in trace.steps:
    print("  ", step)
print("survivors:", sorted(U.decode(e)[1][0] for e in trace.survivors),
      " survival probability:", trace.survival)
