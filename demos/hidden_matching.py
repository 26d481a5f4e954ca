"""One way communication with a single sketch: the hidden matching game.

Alice holds a bit string x of length n.  Bob holds a matching over the
same index set together with labels z = x_i xor x_j xor b, which all
hide one bit b.  Alice may send only one sketch, built from her string,
and Bob queries it to learn x_i xor x_j of some matched pair, and so b.
A correct output (b) should come out with probability alpha, a wrong
one (1 - b) at most alpha / 2, and the rest of the runs end blank.

Majority voting over ceil(48 / alpha) independent copies then turns the
per-copy advantage into a reliable answer.
"""

import numpy as np

from pairsketch import bhm

inst = bhm.generate_instance(n=64, alpha="1/4", b=1, seed=11)
print("instance: n = %d, matching of %d pairs, alpha = %s, b = %d"
      % (inst.n, len(inst.matching), inst.alpha, inst.b))

# The exact terminal law comes from the noiseless replay of the run's
# script, where every query misses. A query's fire probability there
# depends only on the initial size and which of its endpoints are
# present. Each atom of the law is keyed (query tag, output); output
# None is a run that ends without a bit.
law = bhm.terminal_slabs(inst)
p_correct = law.expect(lambda key: key[1] == inst.b)
p_wrong = law.expect(lambda key: key[1] == 1 - inst.b)
print("exact law: P[output correct] = %s, P[output wrong] = %s, P[no output] = %s"
      % (p_correct, p_wrong, 1 - p_correct - p_wrong))
assert p_correct == inst.alpha
assert p_wrong <= inst.alpha / 2

# Now simulate. sample_outputs returns one int8 per run: the output bit,
# or -1 when the run produced nothing. An output equal to b is correct.
trials = 50_000
outs = bhm.sample_outputs(inst, master_seed=5, trials=trials)
freq_c = np.mean(outs == inst.b)
freq_w = np.mean(outs == 1 - inst.b)
sigma = float(np.sqrt(float(inst.alpha) * (1 - float(inst.alpha)) / trials))
print("sampled over %d runs: freq correct %.4f (exact %.4f, sigma %.4f), freq wrong %.4f"
      % (trials, freq_c, float(p_correct), sigma, freq_w))

# Majority vote across independent copies of the sketch. The sampler
# returns one majority bit per committee; a committee wins when it is b.
copies = bhm.default_copies(inst.alpha)
verdicts = bhm.sample_majority(inst, master_seed=9, meta_trials=400, copies=copies)
wins = float(np.mean(verdicts == inst.b))
print("majority vote with %d copies: %.1f%% of 400 committees got the parity right"
      % (copies, 100 * wins))
assert wins >= 2 / 3
