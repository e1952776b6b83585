"""
Palm verification with a triplet-trained embedding
==================================================

Ten synthetic "palms" (well-separated feature clusters) stand in for real
palm-print features. We train the little encoder with triplet loss, pick an
accept threshold at the equal-error point, and verify held-out probes.
"""

import numpy as np

from handwave import encoder_forward, enroll, roc_sweep, train, verify
from handwave.palmauth import pairwise_distances

rng = np.random.default_rng(7)
dim, per_subject = 12, 16

centers = rng.normal(0.0, 4.0, size=(10, dim))
subjects = {f"palm{i}": centers[i] + rng.normal(0, 0.5, (per_subject, dim))
            for i in range(10)}

train_split = {s: v[:10] for s, v in subjects.items()}
holdout = {s: v[10:] for s, v in subjects.items()}

params, curve = train(train_split, embed_dim=8, hidden_dim=24, epochs=60, seed=1)
print(f"triplet loss per epoch: {curve[0]:.4f} -> {curve[-1]:.4f}")

# Every genuine and impostor pair of the training split once.
embedded = [encoder_forward(params, v) for v in train_split.values()]
genuine = np.concatenate([pairwise_distances(e, e)[np.triu_indices(len(e), 1)]
                          for e in embedded])
impostor = np.concatenate([pairwise_distances(e, f).ravel()
                           for i, e in enumerate(embedded) for f in embedded[i + 1:]])

sweep = roc_sweep(genuine, impostor)
print(f"EER {sweep.eer:.4f} at threshold {sweep.eer_threshold:.4f} "
      f"({len(genuine)} genuine, {len(impostor)} impostor pairs)")

records = {s: enroll(s, v, params, threshold=sweep.eer_threshold)
           for s, v in train_split.items()}

hits = trials = 0
for s, probes in holdout.items():
    for probe in probes:
        for t, record in records.items():
            decision = verify(probe, record, params)
            hits += int(decision.accepted == (s == t))
            trials += 1
print(f"held-out verification accuracy: {hits}/{trials} = {hits / trials:.2%}")

# A probe is accepted iff its nearest enrolled anchor is inside the threshold.
sample = holdout["palm3"][0]
own = verify(sample, records["palm3"], params)
other = verify(sample, records["palm5"], params)
print(f"palm3 probe vs palm3: distance {own.distance:.3f} accepted={own.accepted}")
print(f"palm3 probe vs palm5: distance {other.distance:.3f} accepted={other.accepted}")
