"""The four benchmark workloads, driven through evokernel's public API.

Every workload uses the square lattice, one seed for all of its inputs
(checkpoint weights, UQ coefficients, datasets, batches), and a closed
loop: one caller, and each op starts when the previous one has returned.

The learned backends use randomly initialised models at paper dimensions;
the cost of a solve does not depend on the weights.  Random weights make
learned fields grow (about 1e8 after one 10-step Crank-Nicolson trajectory,
1e16 after 20), so every learned op restarts from u0 at the paper's
10-step UQ shape, and learned ``rel_l2`` values are output fingerprints,
not accuracies.
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass, field

import numpy as np

from evokernel import datagen, evolution, experiments, kernels, nn, training
from evokernel.geometry import make_curve, sample_quadrature, square_lattice

__all__ = ["SIZES", "WORKLOADS", "OpRecord"]

# Paper dimensions, and a tiny shape that runs every code path in seconds.
SIZES = {
    "paper": {
        "n": 41, "n_bd": 256, "hidden_k": [192, 192], "hidden_g": [256, 256],
        "heat_learned_samples": 1000, "heat_classical_samples": 64,
        "heat_steps": 10, "heat_tau": 0.1,
        "nls_steps": 10, "nls_tau": 0.01, "nls_w": 1.0,
        "train_kappas": 4, "train_records": 128, "train_traces": 256,
        "train_batch": 128,
        # measured 3.021e-5 to 3.024e-5 over seeds 0-4; gate at +9%
        "classical_rel_l2_max": 3.3e-5,
    },
    "smoke": {
        "n": 9, "n_bd": 32, "hidden_k": [16, 16], "hidden_g": [16, 16],
        "heat_learned_samples": 8, "heat_classical_samples": 4,
        "heat_steps": 3, "heat_tau": 0.1,
        "nls_steps": 3, "nls_tau": 0.01, "nls_w": 1.0,
        "train_kappas": 2, "train_records": 8, "train_traces": 16,
        "train_batch": 8,
        # measured 1.9e-6 to 3.5e-6 over seeds 0-4; gate at +10%
        "classical_rel_l2_max": 3.8e-6,
    },
}

HEAT_LAM_RANGE = (0.05, 0.1)     # lam = tau/2 = 0.05 for the CN heat step
NLS_LAM_RANGE = (0.005, 0.01)    # lam = tau/2 = 0.005 for the Strang stage
NLS_CHECKPOINT_SEED = 0
PROBE = (0.43, 0.2)
# batched GEMM regroups sums, so batched and sequential agree at rounding
# level relative to the field; the probe itself can sit where the field
# nearly cancels (probe ~3e2 inside a field of ~1e6 on some seeds)
SEQUENTIAL_RTOL = 1e-12


@dataclass
class OpRecord:
    """One op: its wall time, per-step times, work done and output checks."""

    seconds: float
    steps_ms: list
    work: int                       # samples x implicit steps, or rows x optimizer steps
    fingerprint: tuple              # rel_l2 or final losses; identical across ops
    problems: list = field(default_factory=list)


class _StepClock:
    """Backend proxy that stamps the end of every implicit solve.

    A step is timed from one solve's return to the next, so it covers the
    stepper glue, the error trace and the solve itself.  The first solve of
    an op also pays the trajectory's set-up and is not counted as a step.
    """

    def __init__(self, backend):
        self.backend = backend
        self.domain = backend.domain
        self.stamps = []
        self.last = None

    def solve(self, lam, F, gfun, t):
        self.last = self.backend.solve(lam, F, gfun, t)
        self.stamps.append(time.perf_counter())
        return self.last

    def solve_coupled(self, lam, F, gfun, t):
        self.last = self.backend.solve_coupled(lam, F, gfun, t)
        self.stamps.append(time.perf_counter())
        return self.last

    def steps_ms(self):
        return [(b - a) * 1e3 for a, b in zip(self.stamps, self.stamps[1:])]


def _rng(seed, tag):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, tag])))


def _finite(name, arr):
    return [] if np.all(np.isfinite(arr)) else [f"non-finite {name}"]


class _Workload:
    outputs = ("rel_l2",)         # names of the fingerprint entries

    def __init__(self, size, seed, tracer, workdir):
        self.p = SIZES[size]
        self.seed = seed
        self.tr = tracer
        self.workdir = workdir

    def params(self):
        """Workload parameters recorded with every result."""
        return {"n": self.p["n"], "n_bd": self.p["n_bd"]}

    def fixtures(self):
        """Untimed preparation (random checkpoints on disk)."""

    def setup(self):
        raise NotImplementedError

    def op(self):
        raise NotImplementedError

    def final_check(self):
        """Checks run once after measuring; returns a list of problems."""
        return []

    def _save_models(self, coupled, seed):
        """Random-init boundary and source checkpoints at paper dimensions."""
        p = self.p
        rng = _rng(seed, 0xC4E7)
        pts = square_lattice(p["n"]).points
        src = nn.SourceModel.build(pts, p["hidden_k"], p["hidden_g"], rng, coupled=coupled)
        bnd = nn.BoundaryModel.build(p["n_bd"], rng, coupled=coupled)
        self.ckpts = []
        for kind, model in (("boundary", bnd), ("source", src)):
            path = os.path.join(self.workdir, f"{kind}.ckpt")
            nn.save_checkpoint(model, path, {"kind": kind, "init": "random", "seed": seed})
            self.ckpts.append(path)

    def _load_models(self):
        size = lambda args, out: {"bytes": os.path.getsize(args[0])}  # noqa: E731
        return [self.tr.call("nn.checkpoint_load", nn.load_checkpoint, path,
                             counts=size)[0] for path in self.ckpts]


class HeatUq(_Workload):
    """evolution.uq_run: batched Crank-Nicolson heat UQ, 10 steps, lam = 0.05."""

    def __init__(self, size, seed, tracer, workdir, learned):
        super().__init__(size, seed, tracer, workdir)
        self.learned = learned
        self.samples = self.p["heat_learned_samples" if learned else "heat_classical_samples"]

    def params(self):
        return {**super().params(), "samples": self.samples,
                "steps": self.p["heat_steps"], "tau": self.p["heat_tau"],
                "scheme": "cn", "backend": "learned" if self.learned else "classical"}

    def fixtures(self):
        if self.learned:
            self._save_models(coupled=False, seed=self.seed)

    def setup(self):
        self.domain = evolution.SquareLatticeDomain(self.p["n"], self.p["n_bd"])
        if self.learned:
            bnd, src = self._load_models()
            self.backend = evolution.NekmBackend(self.domain, bnd, src, HEAT_LAM_RANGE)
        else:
            self.backend = evolution.ClassicalBackend(self.domain)

    def op(self):
        clock = _StepClock(self.backend)
        t0 = time.perf_counter()
        stats, hist = evolution.uq_run(clock, self.samples, self.seed, probe=PROBE,
                                       tau=self.p["heat_tau"], n_steps=self.p["heat_steps"])
        seconds = time.perf_counter() - t0
        self.hist = hist
        problems = _finite("final field", clock.last) + _finite("probe", hist["probe_pred"])
        rel = stats["rel_l2_error"]
        if not self.learned and not rel <= self.p["classical_rel_l2_max"]:
            problems.append(f"rel_l2 {rel:.4e} above gate {self.p['classical_rel_l2_max']:.1e}")
        return OpRecord(seconds, clock.steps_ms(), self.samples * self.p["heat_steps"],
                        (rel,), problems)

    def final_check(self):
        """Batched equals sequential: re-run a fixed subset one sample at a time."""
        if not self.learned:
            return []
        a = self.hist["a"]
        b = np.sqrt(1.0 - a * a)
        problems = []
        for i in sorted({0, a.size // 3, (2 * a.size) // 3, a.size - 1}):
            prob = evolution.heat_family(self.domain, a[i], b[i], self.p["heat_tau"],
                                         self.p["heat_steps"])
            res = evolution.run_heat(prob, self.backend, scheme="cn")
            seq = evolution.bilinear_probe(self.domain, res.final, PROBE)[0]
            batched = self.hist["probe_pred"][i]
            scale = np.max(np.abs(res.final))
            if not abs(seq - batched) <= SEQUENTIAL_RTOL * scale:
                problems.append(f"sample {i}: sequential {seq!r} != batched {batched!r} "
                                f"(max |u| {scale:.3e})")
        return problems


class NlsLearned(_Workload):
    """One Strang-split Schrodinger trajectory on the coupled learned backend."""

    def params(self):
        return {**super().params(), "steps": self.p["nls_steps"], "tau": self.p["nls_tau"],
                "w": self.p["nls_w"], "splitting": "strang", "backend": "learned-coupled"}

    def fixtures(self):
        # Newton's iteration count grows with the field, which random weights
        # inflate by a seed-dependent factor; one fixed checkpoint keeps the
        # step cost independent of the seed
        self._save_models(coupled=True, seed=NLS_CHECKPOINT_SEED)

    def setup(self):
        self.domain = evolution.SquareLatticeDomain(self.p["n"], self.p["n_bd"])
        bnd, src = self._load_models()
        self.backend = evolution.NekmBackend(self.domain, bnd, src, NLS_LAM_RANGE,
                                             coupled=True)

    def op(self):
        clock = _StepClock(self.backend)
        t0 = time.perf_counter()
        prob = experiments.schrodinger_problem(self.domain, self.p["nls_tau"],
                                               self.p["nls_steps"], w=self.p["nls_w"])
        res = evolution.run_schrodinger(prob, clock, splitting="strang")
        seconds = time.perf_counter() - t0
        return OpRecord(seconds, clock.steps_ms(), self.p["nls_steps"],
                        (res.error_trace[-1]["rel_l2"],), _finite("final field", res.final))


class Train(_Workload):
    """One boundary-model plus one source-model optimizer step per op."""

    outputs = ("final_loss_boundary", "final_loss_source")

    def params(self):
        p = self.p
        return {**super().params(), "kappas": p["train_kappas"],
                "source_records_per_kappa": p["train_records"],
                "boundary_traces": p["train_traces"], "batch": p["train_batch"],
                "hidden_k": p["hidden_k"], "hidden_g": p["hidden_g"]}

    def setup(self):
        p = self.p
        self.kappas = np.linspace(0.05, 0.1, p["train_kappas"])
        self.grid = sample_quadrature(make_curve("square"), p["n_bd"])
        self.points = square_lattice(p["n"]).points
        n_src = len(self.kappas) * p["train_records"]
        self.src_data = self.tr.call(
            "datagen.source", datagen.build_source_dataset, self.kappas,
            p["train_records"], p["n"], self.seed, counts=lambda a, o: {"records": n_src})
        self.bnd_data = self.tr.call(
            "datagen.boundary", datagen.build_boundary_dataset, self.kappas,
            p["train_traces"], self.grid, self.seed,
            counts=lambda a, o: {"records": p["train_traces"]})
        self._kernels()
        rng = _rng(self.seed, 0x7A1)
        self.bnd = nn.BoundaryModel.build(p["n_bd"], rng)
        self.src = nn.SourceModel.build(self.points, p["hidden_k"], p["hidden_g"], rng)
        self.weights = self.bnd.parameters() + self.src.parameters()
        self.initial = [q.value.copy() for q in self.weights]
        self.cfg = training.TrainConfig(epochs=1, batch_size=p["train_batch"],
                                        seed=self.seed, log_every=1)

    def _kernels(self):
        return [kernels.boundary_kernel(kernels.ScalarKernelSpec(float(k)), self.grid)
                for k in self.kappas]

    def op(self):
        # every op starts from the same weights, so its losses repeat exactly
        for q, v in zip(self.weights, self.initial):
            q.value[...] = v
        t0 = time.perf_counter()
        kmats = self._kernels()
        _, binfo = self.tr.call("training.boundary_step", training.train_boundary_model,
                                self.cfg, self.bnd_data, kmats, model=self.bnd)
        _, sinfo = self.tr.call("training.source_step", training.train_source_model,
                                self.cfg, self.src_data, self.points, model=self.src)
        seconds = time.perf_counter() - t0
        losses = (binfo["final_loss"], sinfo["final_loss"])
        return OpRecord(seconds, [seconds * 1e3], 2 * self.cfg.batch_size, losses,
                        _finite("loss", losses))


WORKLOADS = {
    "heat_uq_learned": functools.partial(HeatUq, learned=True),
    "heat_uq_classical": functools.partial(HeatUq, learned=False),
    "nls_learned": NlsLearned,
    "train": Train,
}
