"""Correctness checks of every op's outputs.

Each check compares the files (or stdout) an op wrote with a reference
that this module computes on its own from the analytic definitions:
windows, atoms, covering nodes, the admissibility symbol and the frame
operator.  The gate's rho and gamma have no closed form; they are checked
against values shipped in reference.json.  No check reads a figure the
program reports about its own accuracy.

A check returns a list of problems; an empty list means the op passed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.interpolate import CubicSpline

from workloads import DT

ALPHA = 0.5
EPS = 0.25
C = 1.0
REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())

# xi values at which m_curve.csv is compared with the reference symbol
M_CHECK_XI = (0.0, 1.0, 5.0, 20.0, 100.0)
M_RTOL = 1e-6
BOUND_RTOL = 1e-6
COEFF_ATOL = 1e-9
N_COEFF_CHECKS = 64
NORM_RTOL = 1e-6
# the Riemann sum over the 256 x 256 voice grid lies within 1.2e-4 of the
# continuous norm on this input family (seeds 1-10)
NORM_REF_RTOL = 5e-4
GATE_RTOL = 1e-6
ROUNDTRIP_MAX_ERROR = 1e-6


# ---------------------------------------------------------------------------
# analytic building blocks


def beta(w):
    return (1.0 + np.abs(w)) ** (-ALPHA)


def p_alpha(y):
    c = 1.0 - ALPHA
    return np.sign(y) * ((1.0 + c * np.abs(y)) ** (1.0 / c) - 1.0)


def p_alpha_inv(w):
    c = 1.0 - ALPHA
    return np.sign(w) * ((1.0 + np.abs(w)) ** c - 1.0) / c


def gaussian(t):
    return 2.0 ** 0.25 * np.exp(-math.pi * t * t)


def window_hat(spec: str):
    """psi_hat for a window spec, written from its definition."""
    name, _, arg = spec.partition(":")
    if name == "gaussian":
        return gaussian  # the unit Gaussian is its own transform
    if name == "bspline":
        m = int(arg)
        return lambda u: np.sinc(u) ** m
    if name == "bump":
        # trapezoid Fourier sum of the L2-normalized C-infinity bump: the
        # rule is spectrally accurate for a smooth compactly supported
        # integrand (7e-14 at 1001 samples).  The sum is periodic in u
        # with period 500; beyond |u| = 40 the transform is below 1e-8
        # and is taken as zero.
        R = float(arg)
        t = np.linspace(-R, R, 1001)[1:-1]
        h = t[1] - t[0]
        raw = np.exp(-1.0 / (1.0 - (t / R) ** 2))
        psi = raw / math.sqrt(h * float(raw @ raw))

        def hat(u):
            out = np.zeros(np.shape(u))
            near = np.nonzero(np.abs(u) < 40.0)[0]
            for part in np.array_split(near, max(1, near.size // 1024)):
                arg = 2.0 * math.pi * np.multiply.outer(u[part], t)
                out[part] = h * (np.cos(arg) @ psi)
            return out
        return hat
    raise ValueError(spec)


def symbol_reference(spec: str, xis) -> np.ndarray:
    """m(xi) = int |psi_hat(beta(w)(xi - w))|^2 beta(w) dw.

    Integrated in the variable y with w = p_alpha(y), dw/dy = 1/beta(w),
    where the integrand is |psi_hat(beta(w)(xi - w))|^2 and its argument
    grows about linearly in |y|: composite 16-point Gauss-Legendre on
    panels of width 1/4 over |y| <= 4096.  The tails beyond are below
    1e-12 even for the slowly decaying bspline:2.
    """
    hat = window_hat(spec)
    xis = np.asarray(xis, dtype=float)
    nodes, weights = np.polynomial.legendre.leggauss(16)
    panel = 0.25
    total = np.zeros_like(xis)
    # 2048 panels at a time keeps the working arrays near 4 MB
    for start in np.arange(-4096.0, 4096.0, 2048 * panel):
        lefts = start + panel * np.arange(2048)
        y = (lefts[:, None] + 0.5 * panel * (nodes + 1.0)).ravel()
        wts = np.tile(0.5 * panel * weights, lefts.size)
        w = p_alpha(y)
        b = beta(w)
        total += [wts @ np.abs(hat(b * (xi - w))) ** 2 for xi in xis]
    return total


def covering_rows(time_range, freq_range):
    """[(j, w_j, b_j, k0, k1)] of the alpha covering meeting the rectangle,
    from the covering's definition (boxes kept whole, one box of slack in
    k on each side)."""
    t0, t1 = time_range
    f0, f1 = freq_range
    slack = 2.0 * EPS * C
    j_lo = math.floor(p_alpha_inv(f0 - slack / beta(f0)) / EPS) - 1
    j_hi = math.ceil(p_alpha_inv(f1 + slack / beta(f1)) / EPS) + 1
    rows = []
    for j in range(j_lo, j_hi + 1):
        w = float(p_alpha(EPS * j))
        b = float(beta(w))
        half = 2.0 * EPS * C / b
        if w + half <= f0 or w - half >= f1:
            continue
        rows.append((j, w, b, math.floor(t0 / (EPS * b)) - 1,
                     math.ceil(t1 / (EPS * b)) + 1))
    return rows


def atoms(xs, ws, t):
    """Rows a_{x,w}(t) = exp(2 pi i w (t-x)) psi((t-x)/b) / sqrt(b)."""
    xs = np.asarray(xs, dtype=float)[:, None]
    ws = np.asarray(ws, dtype=float)[:, None]
    b = beta(ws)
    u = t[None, :] - xs
    return np.exp(2j * math.pi * ws * u) * gaussian(u / b) / np.sqrt(b)


def frame_bounds_oracle(time_range, freq_range, n):
    """Dense frame operator on the grid: (top eigenvalue, bottom eigenvalue
    on the band-limited subspace of the frequency range)."""
    t0, t1 = time_range
    dt = (t1 - t0) / n
    t = t0 + dt * np.arange(n)
    xs, ws = [], []
    for j, w, b, k0, k1 in covering_rows(time_range, freq_range):
        ks = np.arange(k0, k1 + 1)
        xs.append(EPS * b * ks)
        ws.append(np.full(ks.size, w))
    M = atoms(np.concatenate(xs), np.concatenate(ws), t)
    S = dt * (M.T @ M.conj())
    S = 0.5 * (S + S.conj().T)
    xi = (np.arange(n) - n // 2) / (n * dt)
    band = xi[(xi >= freq_range[0]) & (xi <= freq_range[1])]
    U = np.exp(2j * math.pi * np.outer(t, band)) / math.sqrt(n)
    top = float(np.linalg.eigvalsh(S)[-1])
    bottom = float(np.linalg.eigvalsh(U.conj().T @ S @ U)[0])
    return M.shape[0], bottom, top


def coorbit_reference(values: np.ndarray) -> float:
    """||V f||_{L^2} over the whole plane = sqrt(int m |f_hat|^2): the
    analysis operator is the Fourier multiplier m."""
    n = values.size
    spec = np.abs(DT * np.fft.fft(values)) ** 2
    xi = np.fft.fftfreq(n, DT)
    keep = spec > 1e-18 * spec.max()
    # m is even and smooth: sample it on 41 nodes, interpolate cubically
    nodes = np.linspace(0.0, float(np.abs(xi[keep]).max()), 41)
    m = CubicSpline(nodes, symbol_reference("gaussian", nodes))
    return math.sqrt(float(np.sum(m(np.abs(xi[keep])) * spec[keep]))
                     / (n * DT))


# ---------------------------------------------------------------------------
# per-op checks


def _csv(path, skip=0):
    return np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)


def _ranges(argv):
    def pair(flag):
        for a in argv:
            if a.startswith(flag + "="):
                lo, hi = a.split("=", 1)[1].split(",")
                return float(lo), float(hi)
        return None
    return pair("--time-range"), pair("--freq-range")


def _input_n(argv) -> int:
    """Sample count of the op's input signal, from its chirp<n>.csv name."""
    name = Path(argv[1]).name
    return int(name[len("chirp"):-len(".csv")])


def _flag(argv, name):
    return argv[argv.index(name) + 1]


class Checker:
    """References for one run, computed once before timing starts."""

    def __init__(self, ops, signals: dict, seed: int, scale: str):
        self.signals = signals
        self.seed = seed
        self.scale = scale
        self.ref = {}
        for op in ops:
            argv = list(op.argv)
            if op.command == "admissible":
                spec = _flag(argv, "--window")
                self.ref[op.label] = symbol_reference(spec, M_CHECK_XI)
            elif op.command == "frame-info":
                tr, fr = _ranges(argv)
                self.ref[op.label] = frame_bounds_oracle(
                    tr, fr, int(_flag(argv, "--grid-n")))
            elif op.label == "coorbit-norm":
                self.ref["norm"] = coorbit_reference(signals[_input_n(argv)])

    def check(self, op, argv, out_dirs, stdouts: dict) -> list[str]:
        """Problems found in the outputs of ``op``; ``stdouts`` maps the
        labels of this pass's ops to what they printed."""
        fn = getattr(self, "_" + op.command.replace("-", "_"))
        return fn(op, argv, Path(out_dirs[op.label]), stdouts, out_dirs)

    # -- one method per subcommand ------------------------------------------

    def _admissible(self, op, argv, out, stdouts, out_dirs):
        problems = []
        report = json.loads((out / "admissible.json").read_text())
        # A and B carry a tail clamp that is due to change; only the
        # verdict and the curve are checked
        if report.get("admissible") is not True:
            problems.append("window reported not admissible")
        if report.get("hypothesis", {}).get("passed") is not True:
            problems.append("decay hypothesis reported failed")
        curve = _csv(out / "m_curve.csv", skip=1)
        n = int(_flag(argv, "--scan-nodes")) if "--scan-nodes" in argv \
            else 2001
        if curve.shape != (n, 2):
            return problems + [f"m_curve shape {curve.shape}, want ({n}, 2)"]
        xi, m = curve[:, 0], curve[:, 1]
        if not np.allclose(m, m[::-1], rtol=1e-12, atol=0):
            problems.append("m_curve is not even in xi")
        if not m.min() > 0:
            problems.append("m_curve is not positive")
        for x, want in zip(M_CHECK_XI, self.ref[op.label]):
            hit = np.nonzero(np.isclose(xi, x, rtol=0, atol=1e-9))[0]
            if hit.size == 0:
                continue  # xi beyond this scan's range
            got = m[hit[0]]
            if abs(got - want) > M_RTOL * abs(want):
                problems.append(f"m({x:g}) = {got!r}, reference {want!r}")
        return problems

    def _roundtrip(self, op, argv, out, stdouts, out_dirs):
        n = _input_n(argv)
        f = self.signals[n]
        rec = _csv(out / "reconstructed.csv")
        if rec.shape != (n, 2):
            return [f"reconstructed.csv shape {rec.shape}"]
        err = float(np.linalg.norm(rec[:, 0] + 1j * rec[:, 1] - f)
                    / np.linalg.norm(f))
        if not err <= ROUNDTRIP_MAX_ERROR:
            return [f"reconstruction error {err:.3e} > "
                    f"{ROUNDTRIP_MAX_ERROR:g}"]
        return []

    def _frame_info(self, op, argv, out, stdouts, out_dirs):
        report = json.loads((out / "frame_info.json").read_text())
        n_atoms, A, B = self.ref[op.label]
        problems = []
        if report["n_atoms"] != n_atoms:
            problems.append(f"n_atoms {report['n_atoms']}, want {n_atoms}")
        for key, want in (("A_est", A), ("B_est", B)):
            got = report[key]
            if not abs(got - want) <= BOUND_RTOL * want:
                problems.append(f"{key} {got!r}, dense oracle {want!r}")
        return problems

    def _analyze(self, op, argv, out, stdouts, out_dirs):
        n = _input_n(argv)
        f = self.signals[n]
        tr, fr = _ranges(argv)
        rows = covering_rows(tr, fr)
        K = sum(k1 - k0 + 1 for _, _, _, k0, k1 in rows)
        data = _csv(out / "coefficients.csv", skip=1)
        if data.shape != (K, 6):
            return [f"coefficients.csv shape {data.shape}, want ({K}, 6)"]
        rng = np.random.default_rng([self.seed, 0xC0EF])
        pick = rng.choice(K, size=min(N_COEFF_CHECKS, K), replace=False)
        j, k, x, w, re, im = data[pick].T
        w_ref = p_alpha(EPS * j)
        x_ref = EPS * beta(w_ref) * k
        problems = []
        if not (np.allclose(w, w_ref, rtol=1e-13, atol=1e-13)
                and np.allclose(x, x_ref, rtol=1e-13, atol=1e-13)):
            problems.append("coefficient node table differs from the "
                            "covering definition")
        t = (np.arange(n) - n // 2) * DT
        want = DT * (atoms(x_ref, w_ref, t).conj() @ f)
        dev = float(np.max(np.abs(re + 1j * im - want)))
        if not dev <= COEFF_ATOL:
            problems.append(f"coefficients deviate by {dev:.3e} from direct "
                            f"inner products")
        return problems

    def _synthesize(self, op, argv, out, stdouts, out_dirs):
        an = Path(out_dirs["analyze"])
        header = json.loads((an / "coefficients.bin.json").read_text())
        K = int(header["n_atoms"])
        n = int(header["grid"]["n"])
        blob = np.fromfile(an / "coefficients.bin", dtype="<f8")
        vals = blob[2 * K:]
        c = vals[0::2] + 1j * vals[1::2]
        g = _csv(out / "synthesized.csv")
        if c.size != K or g.shape != (n, 2):
            return ["coefficient or synthesized file has the wrong size"]
        # <sum c_k a_k, f> = sum c_k <a_k, f> = sum |c_k|^2
        lhs = complex(DT * np.vdot(self.signals[n], g[:, 0] + 1j * g[:, 1]))
        rhs = float(np.vdot(c, c).real)
        if not abs(lhs - rhs) <= 1e-9 * rhs:
            return [f"<synthesized, f> = {lhs!r}, sum |c|^2 = {rhs!r}"]
        return []

    def _coorbit_norm(self, op, argv, out, stdouts, out_dirs):
        def norm(label):
            return float(json.loads(stdouts[label].splitlines()[-1])["norm"])

        got = norm(op.label)
        want = self.ref["norm"]
        problems = []
        if not abs(got - want) <= NORM_REF_RTOL * want:
            problems.append(f"norm {got!r}, reference {want!r}")
        if op.label != "coorbit-norm":
            on = norm("coorbit-norm")
            if not abs(got - on) <= NORM_RTOL * want:
                problems.append(f"off-lattice norm {got!r} differs from the "
                                f"on-lattice norm {on!r}")
        return problems

    def _diagnostics(self, op, argv, out, stdouts, out_dirs):
        report = json.loads((out / "diagnostics.json").read_text())
        ref = REFERENCE["gate"][self.scale]
        problems = []
        if report["pass"] != [False]:
            problems.append(f"gate verdict {report['pass']}, want [false]")
        for key, got in (("rho", report["rho"]), ("gamma", report["gamma"][0])):
            if not abs(got - ref[key]) <= GATE_RTOL * ref[key]:
                problems.append(f"{key} {got!r}, reference {ref[key]!r}")
        return problems
