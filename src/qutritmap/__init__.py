"""Exact few-photon simulator for polarization/spatial qutrit circuits.

The layers build on each other: :mod:`~qutritmap.fock` holds the sparse
creation-monomial state algebra, :mod:`~qutritmap.elements` the passive
linear optics, :mod:`~qutritmap.qubus` the coherent-probe couplings,
:mod:`~qutritmap.measurement` detection and branching, and
:mod:`~qutritmap.schemes` the five end-to-end conversion circuits.
"""

from .fock import (
    H,
    V,
    FockTerm,
    InvalidInput,
    Mode,
    PhotonCapExceeded,
    PhotonicState,
    QutritCoefficients,
    SimulationError,
    UnsupportedMode,
    WiringError,
    amplitude_of,
    ancilla_plus,
    build_state,
    coherent_overlap,
    fidelity,
    inner_product,
    make_biphotonic_qutrit,
    make_spatial_qutrit,
    norm_sq,
    normalized,
    relabel_paths,
    single_photon,
    state_paths,
    tensor,
    traced_fidelity,
    vacuum_state,
)
from .elements import (
    BeamSplitterSpec,
    ReckDecomposition,
    apply_beam_splitter,
    apply_lomi,
    apply_path_unitary,
    apply_phase_shift,
    apply_qft,
    apply_sigma_x,
    assert_unitary,
    reck_decompose,
    route_pbs,
)
from .measurement import (
    BranchDistribution,
    Correction,
    FeedForwardRule,
    Outcome,
    detect_non_resolving,
    erase_and_merge,
    merge_branches,
    path_modes,
    post_select_coincidence,
    project_total_photons,
    strip_modes,
)
from .qubus import (
    add_register,
    apply_xpm,
    coherent_bs50,
    coherent_phase,
    couple_probes,
    drop_register,
    project_photon_number,
    project_quadrature_x,
)
from .sampling import haar_unitary, random_qutrit
from .schemes import (
    BranchLogEntry,
    P_KERR_FORWARD,
    P_KERR_INVERSE,
    P_LINEAR_FORWARD,
    P_LINEAR_INVERSE,
    SchemeReport,
    T2_LINEAR_FORWARD,
    T1_SQ_LINEAR_INVERSE,
    T3_SQ_LINEAR_INVERSE,
    T_KERR_FORWARD,
    default_linear_inverse_params,
    entangler_branches,
    scheme_entangler,
    scheme_kerr_forward,
    scheme_kerr_inverse,
    scheme_linear_forward,
    scheme_linear_inverse,
    u3_biphotonic,
)

__version__ = "0.1.0"
