"""The four benchmark workloads.

Each workload builds its inputs from the seed (`inputs(r)` gives round r's),
runs one round of public `approxk` calls through a `Tally`, and checks every
integer output and certificate it gets back.  A round always makes the same
number of calls, so rounds can be compared and counts divided by rounds.

Why these four: `cli_run` is what users run; `matrix_corpus` drives the
matrix carrier through amplification and tensoring (subalg, wedderburn,
kron) and never touches loops; `loop_reconstruct` is the loop-carrier
reconstruction (loops, ops) and never touches subalg or wedderburn;
`riesz_batch` is thousands of small calls where per-call overhead, not
BLAS, sets the time, and the only one where funcalc shows.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import time
import traceback

import numpy as np

import approxk as ak
import reference
from approxk import cli, scenarios

# LiftCert budget of the bundled twisted_pair scenario's iota-lift check
LIFT_DELTA = 1e-9
RANK1 = np.diag([1.0, 0.0]).astype(complex)


class Tally:
    """Times each call, counts failures, keeps per-label wall latencies and
    samples the machine-speed reference between calls.

    A call fails when it raises (an ApproxKError, or anything else) or when
    its check rejects the result or raises; the result is then None, so a
    call that needs it fails too.
    """

    def __init__(self, speed_kind: str):
        self.latencies: list[float] = []
        self.by_label: dict[str, list[float]] = {}
        self.failed = 0
        self.failures: list[str] = []
        self.speed = reference.SpeedLog(speed_kind)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def finish(self) -> list[float]:
        """Take the closing speed sample; return the scaled latencies."""
        self.speed.sample(len(self.latencies))
        return self.speed.scale(self.latencies)

    def op(self, label: str, fn, check=None):
        self.speed.maybe_sample(len(self.latencies))
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception:  # any raise is a failed operation, reported below
            dt = time.perf_counter() - t0
            self._fail(label, traceback.format_exc())
            result = None
        else:
            dt = time.perf_counter() - t0
            try:
                ok = check is None or bool(check(result))
            except Exception:  # a check that cannot read the result rejects it
                ok = False
            if not ok:
                self._fail(label, "output check failed")
                result = None
        self.latencies.append(dt)
        self.by_label.setdefault(label, []).append(dt)
        return result

    def absorb(self, other: "Tally") -> None:
        self.latencies += other.latencies
        for label, lat in other.by_label.items():
            self.by_label.setdefault(label, []).extend(lat)
        self.failed += other.failed
        self.failures += other.failures[:5 - len(self.failures)]

    def _fail(self, label: str, detail: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"{label}: {detail}")
            print(f"FAILED {label}: {detail}", file=sys.stderr, flush=True)


def _lift_ok(cert) -> bool:
    return cert.valid_at(LIFT_DELTA)


class Workload:
    """`inputs(r)` builds round r's inputs from the seed, `run(inputs, tally)`
    makes and checks the round's calls, `close()` removes what it wrote."""

    name = ""
    speed_kind = "calls"  # the reference kernel its time tracks

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def close(self) -> None:
        pass


class CliRun(Workload):
    """`approxk run` on each bundled scenario; one operation is one report."""

    name = "cli_run"
    speed_kind = "mixed"

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.tmp = tempfile.mkdtemp(prefix="cli_run-", dir=workdir)

    def inputs(self, r: int):
        return cli.BUNDLED

    def run(self, names, t: Tally) -> None:
        for name in names:
            out = os.path.join(self.tmp, f"{name}.json")
            t.op(f"cli.run.{name}",
                 lambda: cli.main(["run", name, "--seed", str(self.seed),
                                   "--out", out]),
                 check=lambda code: code == 0 and _report_passed(out))

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


def _report_passed(path: str) -> bool:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["passed"] is True


class MatrixCorpus(Workload):
    """Lifts, classes, block sums, a product check, a uniformity probe and
    tensor-scaling trials on a fresh unitary conjugate of twisted_pair."""

    name = "matrix_corpus"
    trials = 3

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.blk = scenarios.block_ideal_pair()

    def inputs(self, r: int) -> dict:
        rng = np.random.default_rng([self.seed, r])
        conj = scenarios.random_unitary(4, rng)
        trials = []
        for _ in range(self.trials):
            # acceptance criterion 13's recipe
            noise = rng.standard_normal((6, 6))
            noise = (noise + noise.T) / 2
            h = np.zeros((6, 6))
            h[:2, :2] = np.eye(2)
            h[2:4, 2:4] = 0.5 * np.eye(2)
            h = h + 1e-3 * noise / np.linalg.norm(noise, 2)
            w, vv = np.linalg.eigh(h)
            h = (vv @ np.diag(np.clip(w, 0.0, 1.0)) @ vv.conj().T).astype(complex)
            g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            trials.append((h, np.eye(6) + 0.2 * g / np.linalg.norm(g, 2)))
        return {
            "twisted": scenarios.twisted_pair(conj=conj),
            "trials": trials,
            "seed": int(rng.integers(2**31)),
        }

    def run(self, inp: dict, t: Tally) -> None:
        scn = inp["twisted"]
        seed = inp["seed"]
        lift = t.op("iota_lift", lambda: ak.iota_lift(
            scn["p"], scn["q"], scn["c"], scn["d"], seed=seed)[2], check=_lift_ok)
        # under conjugation the class is (1, -1) or (-1, 1): check relations
        cls = t.op("boundary_class", lambda: ak.boundary_class(lift, seed=seed),
                   check=lambda k: sorted(k.entries) == [-1, 1])

        def times(k: int):
            return tuple(k * a for a in cls.entries)

        inv = t.op("inverse_lift", lambda: ak.inverse_lift(lift), check=_lift_ok)
        t.op("boundary_class", lambda: ak.boundary_class(inv, seed=seed),
             check=lambda k: k.entries == times(-1))
        double = t.op("boxplus", lambda: ak.boxplus([lift, lift])[2],
                      check=_lift_ok)
        t.op("boundary_class", lambda: ak.boundary_class(double, seed=seed),
             check=lambda k: k.entries == times(2))
        # side 64, amplification 16: the k^4 memory path
        t.op("boxplus8", lambda: ak.boxplus([lift] * 8)[2], check=_lift_ok)
        t.op("boundary_product_check",
             lambda: ak.boundary_product_check(lift, RANK1, 2, seed=seed),
             check=lambda pc: pc.equal and pc.lhs_entries == cls.entries)
        t.op("uniformity_probe", lambda: ak.uniformity_probe(
            self.blk["c"], self.blk["d"], sample_count=50, b_dims=(1, 2, 3),
            seed=seed), check=lambda rep: rep.ratio_sup <= 3.0)
        for i, (h, x) in enumerate(inp["trials"]):
            cert = t.op("check_delta_ideal_structure",
                        lambda: ak.check_delta_ideal_structure(
                            h, self.blk["c"], self.blk["d"], [x], seed=seed + i,
                            random_probes=5))
            t.op("tensor_scale_ideal_structure",
                 lambda: ak.tensor_scale_ideal_structure(cert, 2),
                 check=lambda res: res[0].delta_level
                 <= res[1] * cert.delta_level + 1e-9)


class LoopReconstruct(Workload):
    """One `sigma_reconstruct` per round on circle_split(grid=16,
    overlap=0.25 pi) with a 96-step homotopy and one Whitehead t-step.

    The scenario has no random part, so the seed only reaches the call's
    own `seed` argument; each round rebuilds the inputs as fresh objects.
    """

    name = "loop_reconstruct"
    speed_kind = "dense"

    def inputs(self, r: int) -> dict:
        scn = scenarios.circle_split(grid=16, overlap=0.25 * np.pi)
        return dict(scn, path=scenarios.circle_split_homotopy(scn, steps=96))

    def run(self, scn: dict, t: Tally) -> None:
        t.op("sigma_reconstruct", lambda: ak.sigma_reconstruct(
            scn["path"], scn["u_c"], scn["u_d"], scn["h"], scn["c"], scn["d"],
            seed=self.seed, whitehead_t_steps=1),
            check=lambda rec: rec.windings == (1, 1, -1)
            and rec.achieved <= 3.0 * rec.gap + 1e-6)


class RieszBatch(Workload):
    """1500 Riesz roundings (acceptance criterion 1's recipe, n = 2..6) and
    300 inverse-cut checks (criterion 4's recipe) per round."""

    name = "riesz_batch"
    speed_kind = "small"
    riesz_count = 1500
    invcut_count = 300

    def inputs(self, r: int) -> dict:
        rng = np.random.default_rng([self.seed, r])
        idems = []
        while len(idems) < self.riesz_count:
            n = int(rng.integers(2, 7))
            lam = rng.integers(0, 2, n).astype(complex)
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            s = np.eye(n) + 0.5 * g / np.linalg.norm(g, 2)
            e0 = s @ np.diag(lam) @ np.linalg.inv(s)
            pert = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            target = 10 ** rng.uniform(-5.5, -2.0)
            e = e0 + pert / np.linalg.norm(pert, 2) * 0.3 * target
            delta = np.linalg.norm(e @ e - e, 2)
            if 1e-6 <= delta <= 1e-2 and np.linalg.norm(e, 2) <= 5:
                idems.append(e)
        cuts = []
        while len(cuts) < self.invcut_count:
            n = int(rng.integers(2, 6))
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            u = np.eye(n) + 0.4 * g / np.linalg.norm(g, 2)
            noise = rng.standard_normal(n)
            h = np.diag(np.clip(
                rng.uniform(0.2, 0.8) + 2e-3 * noise / np.abs(noise).max(),
                0.0, 1.0)).astype(complex)
            y = u - np.eye(n)
            z = np.linalg.inv(u) - np.eye(n)
            dcomm = max(np.linalg.norm(h @ w - w @ h, 2) / np.linalg.norm(w, 2)
                        for w in (y, z))
            if dcomm <= 1e-2:
                cuts.append((u, h))
        return {"idems": idems, "cuts": cuts}

    def run(self, inp: dict, t: Tally) -> None:
        for e in inp["idems"]:
            t.op("riesz_idempotent", lambda: ak.riesz_idempotent(e)[1],
                 check=lambda cert: cert.passed)
        for u, h in inp["cuts"]:
            t.op("check_inv_cut", lambda: ak.check_inv_cut(u, h),
                 check=lambda mb: mb[0] <= mb[1] + 1e-12)


WORKLOADS = {w.name: w for w in (CliRun, MatrixCorpus, LoopReconstruct,
                                  RieszBatch)}
