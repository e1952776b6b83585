"""palm-auth: train, enroll every subject, sweep the ROC, then verify probes.

A round runs ``cli.main`` in process, stdout captured: ``train`` for 30 epochs
on the training split, ``enroll`` of every subject without ``--threshold``
(each one calibrates a leave-one-out threshold), and ``roc`` over the holdout
split. Then every holdout probe is verified against every enrolled subject;
one ``palmauth.verify`` call is the operation. No frame code runs here.

Inputs: 20 subjects x 20 samples x 64 dimensions, isotropic unit-variance
clusters around seeded centres; 12 samples per subject train and enroll, 8
are probes.

A round is kept near a second, so that a run holds some twenty of them and
its 90th percentile over rounds meets the machine's slow state.
"""

from __future__ import annotations

import contextlib
import io
import json
import time

import numpy as np

import common
import refs
from harness import RoundResult

SUBJECTS, SAMPLES, DIM, TRAIN = 20, 20, 64, 12
# Enough for the loss to fall well below its start and for holdout accuracy
# to reach about 0.95.
EPOCHS = 30
# Centres this close leave margin violations for training to remove, yet keep
# holdout accuracy near 0.96.
CENTRE_SIGMA = 0.5
TINY = dict(subjects=20, samples=8, train=5, epochs=20)


class Workload:
    name = "palm-auth"

    def __init__(self, hw, tmp, seed: int, tiny: bool):
        self.hw, self.tmp, self.seed, self.tiny = hw, tmp, seed, tiny
        self.subjects = TINY["subjects"] if tiny else SUBJECTS
        self.samples = TINY["samples"] if tiny else SAMPLES
        self.train = TINY["train"] if tiny else TRAIN
        self.epochs = TINY["epochs"] if tiny else EPOCHS
        self.paths = {k: tmp / f"palm-{k}.json"
                      for k in ("train", "holdout", "params", "store", "warm")}

    def _cli(self, *argv: str) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.hw.cli.main(list(argv))
        if code != 0:
            raise RuntimeError(f"handwave {argv[0]} exited {code}")
        return out.getvalue()

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 3])
        centres = rng.normal(0.0, CENTRE_SIGMA, (self.subjects, DIM))
        data = centres[:, None, :] + rng.normal(0.0, 1.0, (self.subjects, self.samples, DIM))
        self.names = [f"p{i:02d}" for i in range(self.subjects)]
        self.data = {name: data[i] for i, name in enumerate(self.names)}
        for key, rows in (("train", slice(0, self.train)), ("holdout", slice(self.train, None))):
            common.write_jsonl(self.paths[key], ({"subject": name, "features": vec}
                                                 for name in self.names
                                                 for vec in self.data[name][rows].tolist()))
        self.probes = [(name, j, vec) for name in self.names
                       for j, vec in enumerate(self.data[name][self.train:])]
        # Warm-up: a two-epoch fit and a few verifications.
        self._cli("train", "--data", str(self.paths["train"]), "--out", str(self.paths["warm"]),
                  "--epochs", "2")
        params = self.hw.palmauth.load_params(self.paths["warm"])
        record = self.hw.palmauth.enroll("w", self.data[self.names[0]][:2], params, 1.0)
        for _, _, vec in self.probes[:16]:
            self.hw.palmauth.verify(vec, record, params)

    def prepare_reference(self) -> None:
        pass  # the reference needs the round's trained params

    def round(self) -> RoundResult:
        palmauth, paths = self.hw.palmauth, self.paths
        paths["store"].unlink(missing_ok=True)
        train = self._cli("train", "--data", str(paths["train"]), "--out", str(paths["params"]),
                          "--epochs", str(self.epochs), "--seed", str(self.seed))
        for name in self.names:
            self._cli("enroll", "--store", str(paths["store"]), "--subject", name,
                      "--data", str(paths["train"]), "--params", str(paths["params"]))
        roc = self._cli("roc", "--data", str(paths["holdout"]), "--params", str(paths["params"]))
        params = palmauth.load_params(paths["params"])
        records, _, _ = palmauth.load_store(paths["store"])
        clock = time.perf_counter
        latencies, decisions, failed = [], [], 0
        for name, j, probe in self.probes:
            for record in records:
                start = clock()
                try:
                    decisions.append((name, j, palmauth.verify(probe, record, params)))
                except self.hw.handwave.HandwaveError:
                    failed += 1
                latencies.append(clock() - start)
        return RoundResult(outputs=(json.loads(train), json.loads(roc), decisions),
                           latencies=latencies, failed=failed)

    def check(self, outputs) -> list[str]:
        train, roc, decisions = outputs
        problems = []
        if not train["final_loss"] < train["first_loss"]:
            problems.append(f"training loss rose: {train['first_loss']} -> {train['final_loss']}")
        params = json.loads(self.paths["params"].read_text("ascii"))
        store = json.loads(self.paths["store"].read_text("ascii"))
        train_emb = {n: refs.embed(params, self.data[n][:self.train]) for n in self.names}
        probe_emb = {n: refs.embed(params, self.data[n][self.train:]) for n in self.names}

        sizes = [self.samples - self.train] * self.subjects
        want_pairs = (sum(n * (n - 1) // 2 for n in sizes),
                      sum(a * b for i, a in enumerate(sizes) for b in sizes[i + 1:]))
        if (roc["num_genuine"], roc["num_impostor"]) != want_pairs:
            problems.append(f"roc pairs {(roc['num_genuine'], roc['num_impostor'])} != {want_pairs}")
        genuine = np.concatenate([refs.distances(e, e)[np.triu_indices(len(e), 1)]
                                  for e in probe_emb.values()])
        embs = list(probe_emb.values())
        impostor = np.concatenate([refs.distances(a, b).ravel()
                                   for i, a in enumerate(embs) for b in embs[i + 1:]])
        want_eer = refs.eer_threshold(genuine, impostor)
        if abs(roc["eer_threshold"] - want_eer) > 1e-9:
            problems.append(f"roc eer_threshold {roc['eer_threshold']} != reference {want_eer}")

        thresholds = {}
        for rec in store["records"]:
            want = refs.loo_threshold(rec["subject"], train_emb)
            thresholds[rec["subject"]] = rec["threshold"]
            if abs(rec["threshold"] - want) > 1e-9:
                problems.append(f"{rec['subject']}: threshold {rec['threshold']} != reference {want}")
        if sorted(thresholds) != self.names:
            problems.append(f"store holds {sorted(thresholds)}, want every subject")
            return problems

        if len(decisions) != len(self.probes) * self.subjects:
            return problems + [f"{len(decisions)} decisions for {len(self.probes)} probes"]
        correct = 0
        for s, j, decision in decisions:
            t = decision.subject_id
            want = float(refs.distances(probe_emb[s][j][None, :], train_emb[t]).min())
            if abs(decision.distance - want) > 1e-9:
                problems.append(f"verify {s}[{j}] as {t}: distance {decision.distance} != {want}")
            if decision.accepted != (decision.distance <= thresholds[t]):
                problems.append(f"verify {s}[{j}] as {t}: accepted={decision.accepted} at "
                                f"distance {decision.distance}, threshold {thresholds[t]}")
            correct += decision.accepted == (s == t)
        if correct < 0.9 * len(decisions):
            problems.append(f"holdout accuracy {correct}/{len(decisions)} below 0.90")
        return problems[:10]

    def counts(self, outputs) -> dict:
        _, roc, decisions = outputs
        return {"palmauth.genuine_pairs": roc["num_genuine"],
                "palmauth.impostor_pairs": roc["num_impostor"],
                "palmauth.accepted": sum(d.accepted for _, _, d in decisions)}
