"""Workload definitions: seeded chirp inputs and the CLI argv of each op.

Every op is one ``alphamod.cli.main(argv)`` call.  An argv entry may hold
the placeholders ``{in}`` (the input directory), ``{out}`` (the op's own
output directory) and ``{op:<label>}`` (the output directory of an
earlier op of the same pass).  ``full`` is the measured size; ``tiny``
is the warm-up pass run inside set-up and the size of the self-test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ALPHA = ["--alpha", "0.5"]
FRAME = ALPHA + ["--eps", "0.25"]
DT = 1.0 / 16.0          # grid spacing of every input signal

# sizes of the signal grids each scale writes (all with spacing DT)
INPUT_SIZES = {"full": (1024, 2048), "tiny": (128, 256)}

SCAN_WINDOWS = ("gaussian", "bump:1.0", "bspline:4", "bspline:2")


@dataclass(frozen=True)
class Op:
    label: str            # unique within a pass, e.g. "admissible:bspline:2"
    argv: tuple           # full argv for alphamod.cli.main, with placeholders
    ok_codes: tuple = (0,)

    @property
    def command(self) -> str:
        return self.argv[0]


def _out(argv):
    return tuple(argv) + ("--output-dir", "{out}")


def scan_ops(scale: str):
    # 401 nodes (spacing 1 on [-200, 200]) keep a pass near 3 s; the work
    # per node is the same as at the default 2001
    nodes = ["--scan-nodes", "41", "--xi-max", "20"] if scale == "tiny" \
        else ["--scan-nodes", "401"]
    return [Op(f"admissible:{w}",
               _out(["admissible", "--window", w] + ALPHA + nodes))
            for w in SCAN_WINDOWS]


def roundtrip_ops(scale: str):
    if scale == "tiny":
        rt = ["{in}/chirp128.csv", "--time-range=-4,4", "--freq-range=-4,4",
              "--grid-n", "128"]
        fi = ["--time-range=-4,4", "--freq-range=-2,2", "--grid-n", "64"]
    else:
        rt = ["{in}/chirp1024.csv", "--time-range=-32,32",
              "--freq-range=-8,8", "--grid-n", "1024"]
        fi = ["--time-range=-8,8", "--freq-range=-4,4", "--grid-n", "256"]
    return [Op("roundtrip", _out(["roundtrip"] + rt + FRAME)),
            Op("frame-info", _out(["frame-info"] + fi + FRAME))]


def one_pass_ops(scale: str):
    if scale == "tiny":
        big, ranges, n_big = "chirp256", ["--time-range=-8,8",
                                          "--freq-range=-4,4"], "256"
        small, n_grid, half = "chirp256", "512", 8.0
        scan = ["--scan-nodes", "41", "--xi-max", "20"]
    else:
        # 20 293 atoms x 2048 samples: 0.66 GB of dense rows, 1.24x the
        # 512 MiB row cache
        big, ranges, n_big = "chirp2048", ["--time-range=-64,64",
                                           "--freq-range=-4,4"], "2048"
        small, n_grid, half = "chirp1024", "1024", 32.0
        # the coorbit norm only needs the scan's admissibility verdict;
        # 401 nodes keep the symbol layer a small share of the op
        scan = ["--scan-nodes", "401"]
    off = half - 0.1  # x nodes off the signal lattice: direct path
    # --grid-n n gives an n/4 x n/4 voice grid over the time and
    # frequency ranges
    norm = ["coorbit-norm", f"{{in}}/{small}.csv", "--grid-n", n_grid] \
        + ALPHA + scan
    return [
        Op("analyze", _out(["analyze", f"{{in}}/{big}.csv", "--grid-n",
                            n_big] + ranges + FRAME)),
        # coefficient files do not carry their covering yet, so synthesize
        # gets the same ranges as analyze
        Op("synthesize", _out(["synthesize", "{op:analyze}/coefficients.bin"]
                              + ranges + FRAME)),
        Op("coorbit-norm", tuple(norm + [f"--time-range={-half:g},{half:g}"])),
        Op("coorbit-norm-offgrid",
           tuple(norm + [f"--time-range={-off:g},{off:g}"])),
    ]


def gate_ops(scale: str):
    if scale == "tiny":
        trunc = ["--x-max", "1", "--omega-max", "5", "--scan-nodes", "201",
                 "--xi-max", "20"]
    else:
        trunc = ["--x-max", "4", "--omega-max", "8"]
    # the gate fails at desk scale; exit 1 is the documented code for that
    return [Op("diagnostics",
               _out(["diagnostics", "--window", "gaussian", "--eps-list",
                     "0.25"] + ALPHA + trunc), ok_codes=(0, 1))]


def symbol_ops(scale: str):
    """The scans, then the gate: symbol, quadrature and diagnostics
    layers; frames and transform stay idle."""
    return scan_ops(scale) + gate_ops(scale)


def frame_ops(scale: str):
    """The frame layer with reuse (roundtrip, frame-info), then without
    it (analyze, synthesize) and the voice transform on both paths."""
    return roundtrip_ops(scale) + one_pass_ops(scale)


WORKLOADS = {
    "symbol": symbol_ops,
    "frames": frame_ops,
}


def warmup_ops(workload: str):
    """The untimed warm-up pass inside set-up: the workload's ops at tiny
    size.  A tiny diagnostics op still takes seconds, so the symbol
    workload warms up on its tiny admissibility scans only, the first
    step of the diagnostics op too."""
    if workload == "symbol":
        return scan_ops("tiny")
    return WORKLOADS[workload]("tiny")


# ---------------------------------------------------------------------------
# inputs


@dataclass(frozen=True)
class Chirp:
    """Gaussian-envelope linear chirp, drawn from the workload seed."""

    t0: float
    width: float
    f0: float
    rate: float
    phase: float

    @staticmethod
    def from_seed(seed: int, scale: str) -> "Chirp":
        rng = np.random.default_rng([seed, 0x616D])
        t0, width, f0, rate, phase = (
            rng.uniform(-2.0, 2.0), rng.uniform(2.5, 3.5),
            rng.uniform(-1.0, 1.0), rng.uniform(0.05, 0.15),
            rng.uniform(0.0, 1.0))
        if scale == "tiny":  # same family squeezed onto +-4
            t0, width = t0 / 8.0, width / 4.0
        return Chirp(t0, width, f0, rate, phase)

    def sample(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """(t, values) on the centered grid of n samples, spacing DT."""
        t = (np.arange(n) - n // 2) * DT
        u = t - self.t0
        v = np.exp(-math.pi * (u / self.width) ** 2) * np.exp(
            2j * math.pi * (self.phase + self.f0 * u + 0.5 * self.rate * u * u))
        return t, v


def write_inputs(directory: Path, chirp: Chirp, scale: str) -> dict:
    """Writes chirp<n>.csv (+ JSON grid sidecar) for the scale's sizes;
    returns {n: values}."""
    directory.mkdir(parents=True, exist_ok=True)
    signals = {}
    for n in INPUT_SIZES[scale]:
        t, v = chirp.sample(n)
        path = directory / f"chirp{n}.csv"
        np.savetxt(path, np.column_stack([v.real, v.imag]), delimiter=",",
                   fmt="%.17g")
        Path(str(path) + ".json").write_text(
            '{"n": %d, "spacing": %r, "origin": %r}' % (n, DT, float(t[0])))
        signals[n] = v
    return signals


def expand(op: Op, in_dir: Path, out_dirs: dict) -> list[str]:
    """Argv with placeholders replaced by real paths."""
    argv = []
    for a in op.argv:
        a = a.replace("{in}", str(in_dir)).replace("{out}",
                                                   str(out_dirs[op.label]))
        if "{op:" in a:
            start = a.index("{op:")
            end = a.index("}", start)
            a = a[:start] + str(out_dirs[a[start + 4:end]]) + a[end + 1:]
        argv.append(a)
    return argv
