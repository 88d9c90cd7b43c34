"""The benchmark's workloads: inputs made from the seed, and one round each.

A round runs a design phase and then a simulate phase, each repeated a fixed
number of times, and records their wall times in a Round. The phases tick
the speed.Clock between operations, so the machine's speed is sampled
throughout the run. Every round of a workload attempts the same operations
(one design or one simulation each), so the share of failed operations does
not depend on the run length.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from pathlib import Path

import numpy as np

import checks
from lapmaneuver import cli, errors, scenarios, sim, spectral


class Round:
    def __init__(self):
        self.design_s: list[float] = []
        self.simulate_s: list[float] = []
        self.op_s: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.designs: list = []  # what each phase produced, for the checks
        self.outputs: list = []
        self.layers: dict = {}  # per-layer summary of a traced round
        self.speed = 1.0  # reference-speed factor from this round's probes


def _same_design(design, ref) -> bool:
    return np.array_equal(design.bundle.gains, ref.bundle.gains) \
        and np.array_equal(design.modified.L_tilde, ref.modified.L_tilde)


class Builtin:
    """The shipped scenario files, simulated as a user runs them.

    builtin_cli calls `lapmaneuver simulate` in-process once per file, each
    with its own output directory. builtin_exact runs the same scenarios
    with sim.method = "exact" and the initial condition seeded from the
    benchmark seed, through scenarios.simulate_scenario, writing nothing.
    The design phase designs the four scenarios DESIGN_REPS times.
    """

    DESIGN_REPS = 5

    def __init__(self, root: Path, seed: int, use_cli: bool, workdir: Path):
        files = sorted((root / "scenarios").glob("*.json"))
        if not files:
            raise FileNotFoundError(f"no scenario files under {root / 'scenarios'}")
        k = seed % len(files)  # the seed only rotates the order of the files
        self.files = files[k:] + files[:k]
        self.use_cli = use_cli
        self.workdir = workdir
        docs = [json.loads(f.read_text()) for f in self.files]
        if use_cli:
            self.scenarios = [scenarios.load_scenario(f) for f in self.files]
        else:
            for d in docs:
                d["sim"] = {**d.get("sim", {}), "method": "exact", "seed": seed}
            self.scenarios = [scenarios.scenario_from_dict(d) for d in docs]
        self.facts = [checks.scenario_facts(d) for d in docs]
        self.names = [f["name"] for f in self.facts]
        self.designs = None  # checked designs of the first round
        self.refs = None
        self.digests = None

    def design_phase(self, r: Round, clock) -> None:
        walls = []
        for _ in range(self.DESIGN_REPS):
            t0 = time.perf_counter()
            designs = [spectral.design_pipeline(sc.graph, sc.shape, sc.spec,
                                                seed=sc.design_seed)
                       for sc in self.scenarios]
            walls.append(time.perf_counter() - t0)
            r.designs.append(designs)
            r.attempted += len(designs)
        r.design_s += walls
        clock.tick()

    def simulate_phase(self, r: Round, clock) -> None:
        total = 0.0
        for i, (name, sc) in enumerate(zip(self.names, self.scenarios)):
            t0 = time.perf_counter()
            if self.use_cli:
                out = self.workdir / f"{i}-{name}"
                argv = ["simulate", "--scenario", str(self.files[i]), "--out", str(out)]
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
                r.outputs.append((code, out))
            else:
                r.outputs.append(scenarios.simulate_scenario(sc).trajectory)
            t = time.perf_counter() - t0
            clock.tick()
            r.op_s[f"simulate_s.{name}"] = t
            total += t
            r.attempted += 1
        r.simulate_s.append(total)

    def check(self, r: Round) -> None:
        if self.designs is None:
            self.designs = r.designs[0]
            self.refs = []
            for facts, d in zip(self.facts, self.designs):
                checks.check_design(facts["name"], d.bundle.L, d.modified.L_tilde,
                                    d.bundle.gains, facts)
                A = -d.bundle.gains[:, None] * d.modified.L_tilde
                self.refs.append(checks.reference_states(A, checks.initial_state(facts), facts))
        for designs in r.designs:
            for name, d, ref in zip(self.names, designs, self.designs):
                if not _same_design(d, ref):
                    raise checks.CheckFailed(f"{name}: design differs between runs")
        if self.use_cli:
            digests = []
            for name, facts, d, ref, (code, out) in zip(
                    self.names, self.facts, self.designs, self.refs, r.outputs):
                if code != 0:
                    raise checks.CheckFailed(f"{name}: lapmaneuver simulate exited {code}")
                digests.append([hashlib.sha256((out / f).read_bytes()).hexdigest()
                                for f in ("report.json", "trajectory.csv")])
                if self.digests is None:
                    checks.check_cli_outputs(name, out, facts, ref, d.bundle.gains,
                                             d.modified.L_tilde)
            if self.digests is None:
                self.digests = digests
            elif digests != self.digests:
                raise checks.CheckFailed("CLI outputs differ from the checked first round")
        else:
            for name, facts, ref, traj in zip(self.names, self.facts, self.refs, r.outputs):
                checks.check_trajectory(name, traj.times, traj.states, ref, facts,
                                        checks.EXACT_REL)
                checks.check_final_shape(name, traj.states[-1], facts)


# Ring+chord formations: a ring 1-2-...-n-1 plus a chord from every fourth
# node to the node opposite. The shape is a regular n-gon with unit edges
# and a fixed 5% irregularity (drawn from BASE_SEED), so every instance is
# generic; the benchmark seed adds a 1e-4 jitter on top. The jitter changes
# the inputs but not the work: gain-search tries, boosts and step counts are
# the same for every seed, so a run's timings compare like with like.
SWEEP_NS = (8, 16, 24, 32, 40)
FAILING_N = 48  # shapes.stabilize_gains exhausts its budget here, on every seed
BASE_SEED = 3
IRREGULARITY = 0.05
JITTER = 1e-4
MOTIONS = (  # cycled over the sweep: rotation, spiral, translation
    {"omega": 1.0, "kappa_r": 0.025},
    {"a": 1.0, "omega": 1.0, "kappa_r": 0.025, "kappa_s": 0.025},
    {"v_star_re": 1.0, "kappa_t": 0.05},
)
# Closed-loop simulation of each design with the exact propagator. RK4 at
# this dt diverges on the boosted designs, so the sweep does not use it.
SWEEP_SIM = {"dt": 0.01, "t_end": 20.0, "sample_stride": 10}


def ring_chord(n: int, jitter_seed) -> tuple[list, np.ndarray]:
    edges = [(k + 1, (k + 1) % n + 1) for k in range(n)]
    present = {frozenset(e) for e in edges}
    for i in range(0, n, 4):
        e = (i + 1, (i + n // 2) % n + 1)
        if frozenset(e) not in present:
            edges.append(e)
            present.add(frozenset(e))
    r = 1.0 / (2.0 * np.sin(np.pi / n))
    pts = r * np.exp(2j * np.pi * np.arange(n) / n)
    base = np.random.default_rng([BASE_SEED, n])
    pts = pts + IRREGULARITY * (base.standard_normal(n) + 1j * base.standard_normal(n))
    if jitter_seed is not None:
        rng = np.random.default_rng([jitter_seed, n])
        pts = pts + JITTER * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return edges, pts


class DesignSweep:
    """spectral.design_pipeline over ring+chord formations, n = 8 ... 40,
    plus the fixed n = 48 instance; then the designed loops are simulated
    SIM_REPS times with sim.exact_trajectory."""

    SIM_REPS = 5

    def __init__(self, seed: int):
        self.instances = []  # (facts for the checks, the program's Scenario)
        for idx, n in enumerate(SWEEP_NS + (FAILING_N,)):
            failing = n == FAILING_N
            edges, pts = ring_chord(n, None if failing else seed)
            doc = {"name": f"n{n}", "graph": {"n": n, "edges": edges},
                   "shape": [[z.real, z.imag] for z in pts],
                   "motion": MOTIONS[0 if failing else idx % len(MOTIONS)],
                   "sim": {**SWEEP_SIM, "seed": seed + n}}
            self.instances.append((checks.scenario_facts(doc), scenarios.scenario_from_dict(doc)))
        self.refs: dict = {}

    def design_phase(self, r: Round, clock) -> None:
        total = 0.0
        for facts, sc in self.instances:
            t0 = time.perf_counter()
            try:
                r.designs.append(spectral.design_pipeline(sc.graph, sc.shape, sc.spec,
                                                          seed=sc.design_seed))
            except errors.PipelineFailed as exc:
                r.designs.append(None)
                r.failed += 1
                r.failures.append(f"{facts['name']}: stage {exc.stage}")
            t = time.perf_counter() - t0
            clock.tick()
            r.op_s[f"design_s.{facts['name']}"] = t
            total += t
            r.attempted += 1
        r.design_s.append(total)

    def simulate_phase(self, r: Round, clock) -> None:
        for _ in range(self.SIM_REPS):
            t0 = time.perf_counter()
            trajs = [sim.exact_trajectory(d.modified.L_tilde, d.bundle.gains, sc.sim, sc.shape)
                     for (_, sc), d in zip(self.instances, r.designs) if d is not None]
            r.simulate_s.append(time.perf_counter() - t0)
            clock.tick()
            r.outputs.append(trajs)
            r.attempted += len(trajs)

    def check(self, r: Round) -> None:
        designed = [(inst[0], d) for inst, d in zip(self.instances, r.designs)
                    if d is not None]
        for facts, d in designed:
            checks.check_design(facts["name"], d.bundle.L, d.modified.L_tilde,
                                d.bundle.gains, facts)
            if facts["name"] not in self.refs:
                A = -d.bundle.gains[:, None] * d.modified.L_tilde
                self.refs[facts["name"]] = checks.reference_states(
                    A, checks.initial_state(facts), facts)
        for trajs in r.outputs:
            for (facts, _), traj in zip(designed, trajs):
                checks.check_trajectory(facts["name"], traj.times, traj.states,
                                        self.refs[facts["name"]], facts, checks.EXACT_REL)


def make(name: str, root: Path, seed: int, workdir: Path):
    if name == "builtin_cli":
        return Builtin(root, seed, True, workdir)
    if name == "builtin_exact":
        return Builtin(root, seed, False, workdir)
    if name == "design_sweep":
        return DesignSweep(seed)
    raise ValueError(f"unknown workload {name!r}")

