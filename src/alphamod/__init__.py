"""Adaptive time-frequency analysis with frequency-dependent dilation.

The analysis family interpolates between Gabor frames (alpha = 0) and
wavelet-like systems (alpha -> 1) through the bandwidth rule
beta(w) = (1 + |w|)^(-alpha).  The package provides window admissibility
scans, continuous voice/dual transforms, an explicit adaptive box
covering of the time-frequency plane, discrete frames with
conjugate-gradient reconstruction, and numerical estimators for the
kernel quantities that gate frame discretization.
"""

from .grids import (GridMismatchError, SampledGrid, Signal, Weight,
                    forward_fourier, inner_product, inverse_fourier,
                    load_signal_csv, load_signal_raw, save_signal_csv,
                    save_signal_raw, weighted_lp_norm)
from .quadrature import QuadratureError, integrate
from .windows import (HypothesisVerdict, Purpose, Window, bandlimited_window,
                      bspline_window, bump_window, check_hypotheses,
                      gaussian_window, parse_window_spec, required_decay)
from .symbol import (CriticalPointNotApplicable, NotAdmissibleError,
                     RxiProfile, SymbolTable, admissibility_scan,
                     apply_multiplier, beta, p_alpha, p_alpha_inv, r_xi,
                     rxi_profile, symbol_m)
from .transform import (MassCaptureError, VoiceMap, check_reproducing,
                        coorbit_norm, dual_transform, kernel_K,
                        reproducing_kernel, synthesize_voice,
                        voice_transform)
from .covering import (AlphaCovering, Box, CoveringDiagnostics,
                       CoveringGapError, UncoveredPointError,
                       build_covering, covering_diagnostics,
                       mutual_weight_bound, q_neighborhood)
from .frames import (AlphaFrame, Coefficients, IterationError,
                     ReconstructionResult, analysis, estimate_frame_bounds,
                     frame_operator_apply, load_coefficients, reconstruct,
                     synthesis)
from .diagnostics import (DiscretizationVerdict, KernelEstimate,
                          TruncationConfig, diagnostics_report,
                          discretization_condition, estimate_gamma,
                          estimate_rho, lambda_fn, oscillation_kernel,
                          theta_fn)

__version__ = "0.1.0"
