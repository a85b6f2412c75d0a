"""quadrikit: exact computations for quadric surface bundles over a
polynomial base, on a pure-Python term-arithmetic kernel."""

from quadrikit.polyalg import (
    Ideal,
    ParseError,
    Poly,
    PolyError,
    PolyMatrix,
    Ring,
    det,
    minors_ideal,
    parse_poly,
)
from quadrikit.quadform import (
    HyperbolicSplitting,
    QuadraticForm,
    QuadFormError,
    SchemePresentation,
    Subbundle,
    hyperbolic_pair,
    hyperbolic_reduce,
    is_isotropic,
    is_regular_isotropic,
    load_qf,
    parse_qf_text,
    reduction_presentation,
)
from quadrikit.clifford import (
    CliffordContext,
    CliffordElement,
    CliffordError,
    center_element,
    cl_mul,
    graded_basis,
    parse_element,
    trace,
)
from quadrikit.cliffmod import (
    IdealBasis,
    Specialization,
    SpinorPresentation,
    clifford_ideal,
    duality_pairing,
    spinor_phi,
    verify_cokernel_sequence,
    verify_duality,
    verify_flag_sequence,
    verify_matrix_factorization,
    verify_multiplication_iso,
)
from quadrikit.geometry import (
    NetOfQuadrics,
    fiber_report,
    lines_chart,
    node_rank,
)

__version__ = "0.1.0"


def backend_name():
    """Name of the term-arithmetic kernel, recorded as benchmark provenance."""
    return "python"
