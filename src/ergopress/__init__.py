"""Topological pressure toolkit for symbolic and compactified dynamics.

Cover-based pressures (critical exponents and capacities over string
covers) for subshifts of finite type, cross-validated against exact
transfer-matrix oracles; equilibrium states and variational-principle
checks; multifractal entropy spectra and correlation entropies; and a
concrete proper map on the line with its one-point compactification.
"""

from .shifts import (
    BlockGraph,
    Potential,
    ShiftSystem,
    SubsetSpec,
    golden_mean_shift,
    make_full_shift,
)
from .coverpressure import (
    Cover,
    InconclusiveError,
    PressureEstimate,
    capacity_pressures,
    critical_alpha,
    lambda_n,
    log_lambda_n,
    pressure_refined,
    weight_m,
)
from .transfer import (
    ConvergenceError,
    EquilibriumState,
    IncreaseDepthError,
    MarkovMeasure,
    NoUniquePerronError,
    TransferMatrix,
    block_recode,
    delta_measure,
    equilibrium_markov,
    inverse_vp_probe,
    perturbed_invariant_measures,
    power_iteration,
    power_pressure_check,
    topological_entropy,
    transfer_pressure,
    vp_residual,
)
from .multifractal import (
    CorrelationEntropyCurve,
    LegendreCheck,
    TQCurve,
    correlation_entropy,
    legendre_check,
    local_entropy_check,
    spectrum,
    t_curve,
)
from .compactify import (
    GapCertificate,
    InvariantMeasureInfo,
    LineDoublingModel,
    arccot_potential_line,
    circle_cover_pressure,
    compactification_transfer_check,
    gap_example,
    invariant_measures,
)

__version__ = "0.1.0"
