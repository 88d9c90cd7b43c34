"""Output checks computed apart from the program under test.

Everything here uses numpy/scipy directly: the benchmark's own projector,
its own matrix exponentials of -K L~ (affine-augmented per heading setpoint
segment), its own eigenvalues, and its own reading of the scenario JSON.
Each check raises CheckFailed with the scenario or instance it concerns.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.linalg import expm

# Agreement bounds, relative to the largest |reference state| of the run.
RK4_REL = 1e-6    # acceptance criterion 08 of the test suite
EXACT_REL = 1e-9  # exact propagator against an independent expm
EIG_REL = 1e-7    # eigenvalue placement, relative to the spectral radius
KERNEL_REL = 1e-10
CHAIN_REL = 1e-9
FINAL_SHAPE_ERROR = 1e-6


class CheckFailed(Exception):
    """A program output disagrees with the independent computation."""


def _fail(ctx: str, msg: str):
    raise CheckFailed(f"{ctx}: {msg}")


def shape_residual(p: np.ndarray, p_star: np.ndarray) -> float:
    """Relative distance of p from span{1, p*} by least squares."""
    basis = np.column_stack([np.ones_like(p_star), p_star])
    coef, *_ = np.linalg.lstsq(basis, p, rcond=None)
    return float(np.linalg.norm(p - basis @ coef) / np.linalg.norm(p))


def scenario_facts(doc: dict) -> dict:
    """What the references need, read from the raw scenario document."""
    raw = np.array([complex(x, y) for x, y in doc["shape"]])
    sim = doc.get("sim", {})
    motion = doc.get("motion", {})
    return {
        "name": doc.get("name", "unnamed"),
        "n": int(doc["graph"]["n"]),
        "edges": [tuple(e) for e in doc["graph"]["edges"]],
        "p_star": raw - raw.mean(),
        "dt": float(sim.get("dt", 1e-3)),
        "t_end": float(sim.get("t_end", 10.0)),
        "stride": int(sim.get("sample_stride", 1)),
        "sim_seed": int(sim.get("seed", 0)),
        "box_factor": float(sim.get("box_factor", 2.0)),
        "heading": sim.get("heading_control"),
        "v_star": complex(motion.get("v_star_re", 0.0), motion.get("v_star_im", 0.0)),
        "a": float(motion.get("a", 0.0)),
        "omega": float(motion.get("omega", 0.0)),
        "kappa_t": float(motion.get("kappa_t", 0.0)),
        "kappa_r": float(motion.get("kappa_r", 0.0)),
        "kappa_s": float(motion.get("kappa_s", 0.0)),
        "kappa_tilde": float(motion.get("kappa_tilde", 1.0)),
    }


def initial_state(facts: dict) -> np.ndarray:
    """Seeded uniform box around the shape, as the scenario format defines it."""
    rng = np.random.default_rng(facts["sim_seed"])
    hw = facts["box_factor"] * float(np.abs(facts["p_star"]).max())
    n = facts["n"]
    return rng.uniform(-hw, hw, n) + 1j * rng.uniform(-hw, hw, n)


def sample_steps(facts: dict) -> list[int]:
    """Step indices of the stored samples: 0, every stride, and the last."""
    steps = int(round(facts["t_end"] / facts["dt"]))
    out = list(range(0, steps + 1, facts["stride"]))
    if out[-1] != steps:
        out.append(steps)
    return out


def reference_states(A: np.ndarray, p0: np.ndarray, facts: dict) -> np.ndarray:
    """States of p' = A p (+ heading term) at the stored sample steps.

    A heading setpoint z held on a segment turns agent a's row into
    -c (p_a - p_b - z); that segment is propagated with the exponential of
    the (n+1)-square affine-augmented matrix.
    """
    n = A.shape[0]
    dt = facts["dt"]
    hd = facts["heading"]
    if hd is None:
        bounds = [(math.inf, None)]
    else:
        bounds = [(int(round(float(s["until"]) / dt)), complex(s["re"], s["im"]))
                  for s in hd["schedule"]]
        bounds[-1] = (math.inf, bounds[-1][1])
    cache: dict = {}

    def propagator(seg: int, m: int) -> np.ndarray:
        key = (seg, m)
        if key not in cache:
            X = np.zeros((n + 1, n + 1), dtype=complex)
            X[:n, :n] = A
            z = bounds[seg][1]
            if z is not None:
                a, b, c = int(hd["agent"]) - 1, int(hd["neighbor"]) - 1, float(hd.get("gain", 1.0))
                X[a, a] -= c
                X[a, b] += c
                X[a, n] = c * z
            cache[key] = expm(X * (dt * m))
        return cache[key]

    steps = sample_steps(facts)
    x = np.append(p0.astype(complex), 1.0)
    out = [x[:n].copy()]
    seg = 0
    for k0, k1 in zip(steps, steps[1:]):
        k = k0
        while k < k1:
            while bounds[seg][0] <= k:
                seg += 1
            k_next = min(k1, bounds[seg][0])
            x = propagator(seg, k_next - k) @ x
            k = k_next
        out.append(x[:n].copy())
    return np.array(out)


def check_trajectory(ctx: str, times: np.ndarray, states: np.ndarray,
                     ref: np.ndarray, facts: dict, rel: float) -> None:
    steps = sample_steps(facts)
    if states.shape != ref.shape:
        _fail(ctx, f"{states.shape[0]} samples of {states.shape[1]} agents, "
                   f"expected {ref.shape[0]} of {ref.shape[1]}")
    want_t = np.array(steps) * facts["dt"]
    if np.abs(times - want_t).max() > 1e-9 * max(1.0, facts["t_end"]):
        _fail(ctx, "sample times are off the dt * stride grid")
    err = float(np.abs(states - ref).max() / np.abs(ref).max())
    if not err < rel:
        _fail(ctx, f"relative distance {err:.2e} from the expm reference exceeds {rel:.0e}")


def check_final_shape(ctx: str, final: np.ndarray, facts: dict) -> float:
    res = shape_residual(final, facts["p_star"])
    if not res < FINAL_SHAPE_ERROR:
        _fail(ctx, f"final shape error {res:.2e} exceeds {FINAL_SHAPE_ERROR:.0e}")
    return res


def check_design(ctx: str, L: np.ndarray, L_tilde: np.ndarray, gains: np.ndarray,
                 facts: dict) -> None:
    """Kernel, locality and the spectrum the paper predicts for K L~."""
    n = facts["n"]
    ones = np.ones(n, dtype=complex)
    p_star = facts["p_star"]
    norm_L = np.linalg.norm(L, 2)
    for name, v in (("1", ones), ("p*", p_star)):
        r = np.linalg.norm(L @ v) / (norm_L * np.linalg.norm(v))
        if not r < KERNEL_REL:
            _fail(ctx, f"|L {name}| / (|L| |{name}|) = {r:.2e}, expected 0")

    allowed = np.eye(n, dtype=bool)
    for i, j in facts["edges"]:
        allowed[i - 1, j - 1] = allowed[j - 1, i - 1] = True
    for name, M in (("L", L), ("L~", L_tilde)):
        if np.any((M != 0) & ~allowed):
            i, j = np.argwhere((M != 0) & ~allowed)[0] + 1
            _fail(ctx, f"{name}[{i},{j}] is nonzero but ({i},{j}) is not an edge")

    KLt = gains[:, None] * L_tilde
    ev = np.linalg.eigvals(KLt)
    rho = float(np.abs(ev).max())
    shape_coeff = facts["kappa_s"] * facts["a"] + 1j * facts["kappa_r"] * facts["omega"]
    if shape_coeff != 0:
        target = -facts["kappa_tilde"] * shape_coeff
        moving = np.abs(ev - target) <= EIG_REL * rho
        zero = np.abs(ev) <= EIG_REL * rho
        if moving.sum() != 1 or zero.sum() != 1:
            _fail(ctx, f"{int(moving.sum())} eigenvalues at {target:.4g} and "
                       f"{int(zero.sum())} at 0, expected one each")
        rest = ev[~(moving | zero)]
    else:
        drift = facts["kappa_tilde"] * facts["kappa_t"] * facts["v_star"]
        scale = np.linalg.norm(KLt, 2) * np.linalg.norm(p_star)
        r_chain = np.linalg.norm(KLt @ p_star + drift * ones) / scale
        r_kernel = np.linalg.norm(KLt @ ones) / scale
        if not (r_chain < CHAIN_REL and r_kernel < CHAIN_REL):
            _fail(ctx, f"K L~ p* + {drift:.4g} 1 residual {r_chain:.2e}, "
                       f"K L~ 1 residual {r_kernel:.2e}")
        rest = ev[np.argsort(np.abs(ev))[2:]]
    if rest.size and not rest.real.min() > 0:
        _fail(ctx, f"non-kernel eigenvalue with Re {rest.real.min():.3e} <= 0")


def read_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1::2] + 1j * data[:, 2::2]


def check_cli_outputs(ctx: str, out_dir: Path, facts: dict, ref: np.ndarray,
                      gains: np.ndarray, L_tilde: np.ndarray) -> None:
    """report.json and trajectory.csv written by `lapmaneuver simulate`."""
    try:
        report = json.loads((out_dir / "report.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        _fail(ctx, f"report.json unreadable: {exc}")
    times, states = read_csv(out_dir / "trajectory.csv")
    rows = len(sample_steps(facts))
    if times.size != rows:
        _fail(ctx, f"trajectory.csv has {times.size} rows, expected {rows}")
    if not np.array_equal(states[0], initial_state(facts)):
        _fail(ctx, "first CSV row is not the seeded initial condition")
    check_trajectory(ctx + " trajectory.csv", times, states, ref, facts, RK4_REL)
    final = check_final_shape(ctx, states[-1], facts)

    if report.get("scenario") != facts["name"]:
        _fail(ctx, f"report names scenario {report.get('scenario')!r}")
    rep_gains = np.array([complex(re, im) for re, im in report["gains"]])
    if not np.allclose(rep_gains, gains, rtol=1e-12, atol=0):
        _fail(ctx, "report gains differ from the design")
    ev = np.linalg.eigvals(gains[:, None] * L_tilde)
    rho = float(np.abs(ev).max())
    rep_ev = np.array([complex(re, im) for re, im in report["eigenvalues_KL_tilde"]])
    if rep_ev.size != ev.size:
        _fail(ctx, f"report lists {rep_ev.size} eigenvalues of K L~, expected {ev.size}")
    gap = max(float(np.abs(ev - z).min()) for z in rep_ev)
    if not gap <= EIG_REL * rho:
        _fail(ctx, f"report eigenvalues of K L~ are {gap:.2e} off")
    metrics = report.get("metrics", {})
    if metrics.get("samples") != rows:
        _fail(ctx, f"report counts {metrics.get('samples')} samples, CSV has {rows}")
    if not abs(metrics.get("final_shape_error", math.inf) - final) <= 1e-9:
        _fail(ctx, "report final_shape_error disagrees with the CSV")
