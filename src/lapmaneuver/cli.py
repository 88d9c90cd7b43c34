"""Command-line interface: design, simulate and verify scenario files.

Every `--scenario` file is read once, before any work, and the files that
parse run one after another in one process; the largest exit code wins.
Every command takes its design from `simulate_scenario`; design and verify run
the scenario for one step, so all three refuse the same RK4 step.
Exit codes: 0 ok, 1 infeasible design or report, 2 parse error (a malformed file,
a non-finite number, a bad value), an --out that is not a usable directory, an
output path the run would write twice or an output that cannot be written,
3 diverged (for every command, an RK4 dt that cannot integrate the design),
4 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .errors import Diverged, FormationError, PipelineFailed, ScenarioError, SpectrumMismatch
from .scenarios import Scenario, load_scenario, simulate_scenario
from .shapes import TOLERANCES
from .sim import Trajectory, initial_condition, shape_error
from .spectral import DesignResult, predict_steady_state

SCHEMA_VERSION = 5
_CSV_BYTES = 64 * 1024  # bound on the table rows formatted per write
_KMIN, _KMAX = -293, 341  # 16 - X for the exponent X of every nonzero double, and one more
_SPLIT = 2.0 ** 27 + 1  # Veltkamp's constant
_TIE = 1e-9  # a product this near a rounding half goes to Python; its error is under 1e-14
_PLACE = np.arange(21, -1, -1, dtype=np.uint8)[:, None]  # r of the mantissa's rows

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_PARSE = 2
EXIT_DIVERGED = 3
EXIT_VERIFY = 4


def _c(z) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def _cvec(v) -> list:
    return [_c(z) for z in np.asarray(v).ravel()]


def _edges(W: np.ndarray, g) -> list:  # [i, j, re, im] of w_ij, j each neighbor of i
    return [[i, j, *_c(W[i - 1, j - 1])] for i in range(1, g.n + 1) for j in g.neighbors(i)]


def _seed(text: str) -> int:
    """Type of --seed: a non-negative integer, else an argparse error (exit 2)."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")
    return int(text)


def build_report(sc: Scenario, design: DesignResult,
                 traj: Trajectory | None = None) -> dict:
    bound, cert = design.stability.kappa_tilde_max, design.certificate
    prediction = None  # the prediction models -K L~ alone, without a heading term
    if sc.sim.heading is None:
        pred = predict_steady_state(initial_condition(sc.sim, sc.shape), design)
        prediction = {"c1": _c(pred.c1), "c2": _c(pred.c2), "case": pred.case,
                      "steady_velocity": _c(pred.steady_velocity)}
    report = {
        "schema_version": SCHEMA_VERSION,
        "scenario": sc.name,
        "seeds": {"design": sc.design_seed, "sim": sc.sim.seed},
        "tolerances": TOLERANCES,
        "weights": _edges(design.bundle.weights, design.graph),
        "modified_weights": _edges(design.modified.weights, design.graph),
        "gains": _cvec(design.bundle.gains),
        "gain_boost": design.boost,
        "eigenvalues_KL": _cvec(design.stability.eigenvalues),
        "eigenvalues_KL_tilde": _cvec(cert.eigenvalues),
        "kappa_tilde_max": None if math.isinf(bound) else bound,
        "kappa_tilde_unbounded": math.isinf(bound),
        "prediction": prediction,
        "spectral_residuals": {"split_residual": cert.split_residual,
                               "motion_residual": cert.motion_residual,
                               "lyapunov_residual": cert.lyapunov_residual,
                               "min_eig_P": cert.min_eig_P, "max_eig_P": cert.max_eig_P,
                               "cond_P": cert.cond_P},
    }
    if traj is not None:
        errs = shape_error(traj.states, sc.shape)
        metrics = {"final_shape_error": float(errs[-1]),
                   "max_shape_error": float(errs.max()),
                   "samples": int(traj.times.size)}
        report["metrics"] = metrics
    return report


def write_report(report: dict, path: Path) -> None:
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


@functools.cache
def _tables() -> tuple:
    """10^k = T·2^s for k in [_KMIN, _KMAX], T in [1, 2) as hi + lo (hi split in
    halves hh + hl for Dekker's product), exact from Python ints; the four ASCII
    digits of each of 0000..9999 as one uint32; and each one's trailing zeros."""
    s = np.empty(_KMAX - _KMIN + 1, np.int32)
    hi, lo = np.empty(s.size), np.empty(s.size)
    for i, k in enumerate(range(_KMIN, _KMAX + 1)):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        e = num.bit_length() - den.bit_length()
        num, den = (num, den << e) if e >= 0 else (num << -e, den)
        if num < den:
            num, e = num << 1, e - 1
        h = num / den  # int / int is correctly rounded, so is lo below
        s[i], hi[i], lo[i] = e, h, ((num << 52) - int(h * 2.0 ** 52) * den) / (den << 52)
    c = _SPLIT * hi
    hh = c - (c - hi)
    g = np.arange(10000, dtype=np.int16)
    digits = np.empty((g.size, 4), np.uint8)
    zeros = np.zeros(g.size, np.uint8)
    for q, d in enumerate((1000, 100, 10, 1)):
        digits[:, q] = g // d % 10 + 48
        zeros += g % (10000 // d) == 0
    return s, hi, hh, hi - hh, lo, digits.view(np.uint32)[:, 0], zeros


def _scaled(f: np.ndarray, X: np.ndarray, s: np.ndarray) -> None:
    """f[3] + f[4] = |x|·10^(16-X) to about 106 bits, for |x| in f[0]. f[0:3], f[5:8]
    and s (int32) are scratch."""
    sk, hi, hh, hl, lo = _tables()[:5]
    y, yh, yl, ph, pl, t, u = f[:7]
    k = f[7].view(np.int64)
    np.subtract(16 - _KMIN, X, out=k)
    np.take(sk, k, out=s, mode="clip")
    np.ldexp(y, s, out=y)  # exact, and y·T = |x|·10^(16-X)
    np.multiply(y, _SPLIT, out=yl)  # Veltkamp's split y = yh + yl into 26-bit halves
    np.subtract(yl, y, out=yh)
    np.subtract(yl, yh, out=yh)
    np.subtract(y, yh, out=yl)
    np.take(hi, k, out=t, mode="clip")
    np.multiply(y, t, out=ph)
    np.take(lo, k, out=t, mode="clip")
    y *= t
    np.take(hh, k, out=t, mode="clip")
    np.take(hl, k, out=u, mode="clip")
    np.multiply(yh, t, out=pl)  # Dekker: y·hi - ph exactly, summed in this order
    pl -= ph
    yh *= u
    pl += yh
    t *= yl
    pl += t
    yl *= u
    pl += yl
    pl += y  # y·lo


class _Cells:
    """A (rows, cols) `table` as CSV rows of `'%.17g' % v` cells, byte for byte.

    A cell's 17 correctly rounded digits m in [10^16, 10^17) and exponent X come
    from |x|·10^(16-X) in double-double, X = floor(log10|x|) moved by one where the
    product falls outside [10^16, 10^17). Python's `%.17g` formats the cells this
    cannot certify (`slow` counts them): zero, inf, nan, and a product within _TIE
    of a rounding half, since exact ties round half to even.

    The text is built column-major, one row of `buf` per byte of a cell: the
    sign's row, 22 rows of mantissa, e+ddd if a cell in the table needs it, and the
    separator. The mantissa is right-aligned on its last digit: with A places after
    the point (16 - X, or 16 in exponent notation), the byte r places left of the
    end is a fixed row of the digits, the one before or after the point as r < A or
    r > A. Bytes outside the text are zeroed; one transpose and one compress drop
    them. The buffers are allocated once per shape: fresh 100 kB temporaries per
    table cost more in page faults than the arithmetic.
    """

    def __init__(self, rows: int, cols: int):
        n = rows * cols
        self.rows, self.cols, self.slow = rows, cols, 0
        self.table = np.empty((rows, cols))
        self.f = np.empty((8, n))  # float64 scratch, also viewed as int64 and bytes
        self.X, self.s = np.empty((2, n), np.int32)
        self.A, self.lo, self.tz = np.empty((3, n), np.uint8)  # small counts of places
        self.z = np.empty((29, n), np.uint8)  # digit rows, then the cells' bytes
        self.buf = np.empty((29, n), np.uint8)
        self.cell = np.arange(n, dtype=np.int32)

    def _digits(self, x: np.ndarray) -> np.ndarray:
        """m into int64 row 1 of f and X; the cells Python must format."""
        f, X = self.f, self.X
        a = f[0]
        np.abs(x, out=a)
        bad = ~np.isfinite(a) | (a == 0)
        a[bad] = 1.0
        np.log10(a, out=f[1])
        np.floor(f[1], out=f[1])
        np.copyto(X, f[1], casting="unsafe")
        _scaled(f, X, self.s)
        ph, pl = f[3], f[4]
        off = ((ph < 1e16) | (ph == 1e16) & (pl < 0)).astype(np.int32)
        off -= (ph > 1e17) | (ph == 1e17) & (pl >= 0)
        j = np.flatnonzero(off)
        if j.size:  # log10 was one off, next to a power of ten
            X[j] -= off[j]
            g = np.empty((8, j.size))
            g[0] = np.abs(x[j])
            _scaled(g, X[j], np.empty(j.size, np.int32))
            ph[j], pl[j] = g[3], g[4]
        i = f.view(np.int64)
        np.floor(pl, out=f[0])
        pl -= f[0]
        np.subtract(pl, 0.5, out=f[2])
        bad |= np.abs(f[2], out=f[2]) < _TIE
        np.copyto(i[1], ph, casting="unsafe")
        np.copyto(i[2], f[0], casting="unsafe")
        i[1] += i[2]
        i[1] += pl > 0.5
        top = i[1] == 10 ** 17  # rounded up to the next power of ten
        i[1][top] = 10 ** 16
        X += top
        return np.flatnonzero(bad | (i[1] < 10 ** 16))

    def csv(self) -> np.ndarray:
        """The bytes of `table`, a view valid until the next call."""
        x, n = self.table.reshape(-1), self.cell.size
        X, A, lo, tz = self.X, self.A, self.lo, self.tz
        digits, zeros = _tables()[5:]
        slow = self._digits(x)
        i = self.f.view(np.int64)
        m, hi8, lo8, d0, g1, g3, t = i[1:8]
        np.floor_divide(m, 10 ** 8, out=hi8)
        np.multiply(hi8, 10 ** 8, out=t)
        np.subtract(m, t, out=lo8)
        np.floor_divide(hi8, 10 ** 8, out=d0)
        np.multiply(d0, 10 ** 8, out=t)
        hi8 -= t
        np.floor_divide(hi8, 10 ** 4, out=g1)
        np.multiply(g1, 10 ** 4, out=t)
        hi8 -= t
        np.floor_divide(lo8, 10 ** 4, out=g3)
        np.multiply(g3, 10 ** 4, out=t)
        lo8 -= t
        groups = (g1, hi8, g3, lo8)  # four groups of four digits after the first
        Z = self.z[:23]  # '0', then row 5 + j the digit j of m, then '0'
        Z[:5] = 48
        Z[22] = 48
        np.add(d0, 48, out=Z[5], casting="unsafe")
        quads = self.f[:2].view(np.uint32).reshape(4, n)  # four ASCII digits in each
        for q, g in zip(quads, groups):
            np.take(digits, g, out=q, mode="clip")
        np.copyto(Z[6:22].reshape(4, 4, n), quads.view(np.uint8).reshape(4, n, 4).swapaxes(1, 2))
        np.take(zeros, lo8, out=tz, mode="clip")
        j = np.flatnonzero(lo8 == 0)
        for g in groups[2::-1]:  # trailing zeros that run into the groups before
            tz[j] += zeros[g[j]]
            j = j[g[j] == 0]
        expo = (X < -4) | (X > 16)
        np.subtract(16, X, out=A, casting="unsafe")
        A[expo] = 16
        np.minimum(tz, A, out=lo)
        lo += tz >= A
        buf, keep = self.buf, self.f[3:6].view(np.bool_).reshape(-1)[:22 * n].reshape(22, n)
        M = buf[1:23]
        np.subtract(Z[1:], Z[:22], out=M)
        np.greater(_PLACE, A, out=keep)
        M *= keep.view(np.uint8)
        M += Z[:22]
        at = i[1]
        np.subtract(22, A, out=at)
        at *= n
        at += self.cell
        buf.reshape(-1)[at] = 46  # the point, at r = A
        np.greater_equal(_PLACE, lo, out=keep)
        M *= keep.view(np.uint8)
        np.maximum(A, 16, out=tz)
        tz += 2  # the mantissa's length
        np.less(_PLACE, tz, out=keep)
        M *= keep.view(np.uint8)
        buf[0] = 0
        np.subtract(22, tz, out=at)
        at *= n
        at += self.cell
        buf.reshape(-1)[at[np.signbit(x)]] = 45  # the sign, just before the mantissa
        texts = [b"%.17g" % v for v in x[slow].tolist()]
        self.slow += len(texts)
        e = np.flatnonzero(expo)
        # the exponent's rows only in a block that uses them
        width = 29 if e.size or max(map(len, texts), default=0) > 23 else 24
        buf[23:width] = 0
        if e.size:
            ax = np.abs(X[e])
            buf[23, e] = 101
            buf[24, e] = np.where(X[e] < 0, 45, 43)
            buf[25:28, e] = digits[ax].view(np.uint8).reshape(-1, 4)[:, 1:].T
            buf[25, e[ax < 100]] = 0
        buf[width - 1] = 44
        buf[width - 1, self.cols - 1::self.cols] = 10
        for j, text in zip(slow, texts):
            buf[:width - 1, j] = 0
            buf[:len(text), j] = np.frombuffer(text, np.uint8)
        cells = self.z.reshape(-1)[:n * width].reshape(n, width)
        np.copyto(cells, buf[:width].T)
        mask = self.f.reshape(-1).view(np.bool_)[:cells.size]
        np.not_equal(cells.reshape(-1), 0, out=mask)
        return cells.reshape(-1)[mask]


def write_trajectory_csv(traj: Trajectory, path: Path) -> None:
    """Rows t, x_1, y_1, ... of `%.17g` cells, written _CSV_BYTES of rows at a time."""
    n = traj.n
    header = "t," + ",".join(f"x_{i},y_{i}" for i in range(1, n + 1))
    rows = max(1, _CSV_BYTES // (8 * (2 * n + 1)))
    cells = None
    with open(path, "wb") as f:
        f.write(header.encode() + b"\n")
        for i in range(0, traj.times.size, rows):
            xy = np.ascontiguousarray(traj.states[i:i + rows], dtype=complex).view(float)
            if cells is None or cells.rows != len(xy):
                cells = None  # the last, shorter block: free the buffers first
                cells = _Cells(len(xy), 2 * n + 1)
            cells.table[:, 0] = traj.times[i:i + rows]
            cells.table[:, 1:] = xy
            f.write(cells.csv())


def _design(sc: Scenario) -> DesignResult:
    """The design `simulate` runs, from `simulate_scenario` run for one step, whose
    RK4 step map refuses a dt that cannot integrate the design (exit 3)."""
    one_step = dataclasses.replace(sc, sim=dataclasses.replace(sc.sim, t_end=sc.sim.dt))
    return simulate_scenario(one_step).design


def cmd_design(sc: Scenario, report: Path) -> int:
    write_report(build_report(sc, _design(sc)), report)
    print(f"design ok: report written to {report}")
    return EXIT_OK


def cmd_simulate(sc: Scenario, report: Path, trajectory: Path) -> int:
    result = simulate_scenario(sc)
    write_report(build_report(sc, result.design, result.trajectory), report)
    write_trajectory_csv(result.trajectory, trajectory)
    print(f"simulate ok: {trajectory} ({result.trajectory.times.size} samples)")
    return EXIT_OK


def cmd_verify(sc: Scenario) -> int:
    """Print the checks that certified the design `design` ships."""
    design = _design(sc)
    cert = design.certificate
    print(f"PASS shape-plane-split ({design.motion.case}): ||B21|| {cert.split_residual:.2e}, "
          f"B11 error {cert.motion_residual:.2e}, P > 0 with lambda_max "
          f"{cert.max_eig_P:.4g}, cond {cert.cond_P:.3g}")
    bound = design.stability.kappa_tilde_max
    print(f"PASS perturbation-bound: kappa_tilde_max {bound:.4g} "
          f"(gain boost {design.boost:g})")
    if design.boost > 1:
        print(f"WARNING: kappa_tilde {sc.spec.kappa_tilde} exceeds the sufficient "
              f"bound {bound / design.boost:.4g} of the unboosted gains; the shipped "
              f"gains are doubled {int(math.log2(design.boost))} time(s)")
    return EXIT_OK


# each command's handler and the output names it writes, in the handler's argument order
COMMANDS = {"design": (cmd_design, lambda sc: (sc.report_name,)),
            "simulate": (cmd_simulate, lambda sc: (sc.report_name, sc.trajectory_name)),
            "verify": (cmd_verify, lambda sc: ())}


def _run_one(handler, sc: Scenario, paths: list) -> int:
    try:
        return handler(sc, *paths)
    except Diverged as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except PipelineFailed as exc:
        if isinstance(exc.cause, SpectrumMismatch):
            print(f"verification failed: {exc}", file=sys.stderr)
            return EXIT_VERIFY
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except FormationError as exc:  # raised past the pipeline, while the report is built
        print(f"failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except OSError as exc:  # an output that cannot be written
        where = exc.filename or ", ".join(map(str, paths))
        print(f"cannot write {where}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_PARSE


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lapmaneuver",
        description="Design, verify and simulate complex-Laplacian formation maneuvers")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in (("design", "design and write a report; exit 3, as simulate does, "
                                   "if the scenario's dt cannot integrate the design"),
                        ("simulate", "design, integrate and export a trajectory"),
                        ("verify", "print the design's spectral and bound checks; exit 3, "
                                   "as simulate does, if its dt cannot integrate the design")):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--scenario", action="append", required=True,
                       help="scenario JSON file (repeatable)")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=_seed, default=None,
                       help="override the design seed (non-negative)")
    args = parser.parse_args(argv)

    handler, outputs = COMMANDS[args.command]
    out, code, plan = Path(args.out), EXIT_OK, []
    for path in args.scenario:  # each file is read once, before any work
        try:
            sc = load_scenario(path)
        except ScenarioError as exc:
            print(f"parse error: {exc}", file=sys.stderr)
            code = EXIT_PARSE
            continue
        if args.seed is not None:
            sc = dataclasses.replace(sc, design_seed=args.seed)
        plan.append((sc, [out / name for name in outputs(sc)]))
    if not plan:  # no file parsed: nothing to run, so --out is left alone
        return code
    written = [p for _, paths in plan for p in paths]
    shared = [p for p in written if written.count(p) > 1]
    if shared:
        print(f"output collision: the run would write {shared[0]} twice; "
              "give each output its own name or run the files separately", file=sys.stderr)
        return EXIT_PARSE
    try:  # made only if the run writes there; else refused only if no mkdir could make it
        if written:
            out.mkdir(parents=True, exist_ok=True)
        elif not next((p for p in (out, *out.parents) if p.exists()), out).is_dir():
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))
    except OSError as exc:
        print(f"parse error: --out {out} is not a usable directory ({exc.strerror})",
              file=sys.stderr)
        return EXIT_PARSE
    return max([code] + [_run_one(handler, sc, paths) for sc, paths in plan])


if __name__ == "__main__":
    sys.exit(main())
