"""morsecert: machine-checked certificates that the combinatorial
circle-valued Morse functions built from moves and states on right-angled
polytopes are perfect (every link collapsible or collapsing to a sphere).
"""

from .complexes import (
    CollapseOutcome,
    SimplicialComplex,
    betti_mod2,
    cone,
    from_maximal_faces,
    full_subcomplex,
    is_crosspolytope_boundary,
    join,
    order_complex,
    replay_collapse,
    try_collapse,
)
from .errors import InputError, InternalError, StructuralError
from .polytopes import (
    FaceHandle,
    Polytope,
    adjacency_from_lorentz,
    build_cusp_section,
    build_p5,
    build_p6,
    dual_complex,
    enumerate_faces,
    f_vector_check,
    symmetries_p6,
)
from .states import (
    MoveSystem,
    State,
    Subject,
    act,
    balanced_states_p5,
    balanced_states_p6,
    builtin_subject,
    check_cusp_condition,
    generic_subject,
    inherited_state,
    is_compatible,
    legality,
    move_system_p5,
    move_system_p6,
    orbit,
)
from .links import (
    CubeModel,
    LiftValue,
    LinkClassification,
    build_cube_model,
    certify_boundary_cube,
    classify_link,
    coface_membership_oracle,
    face_links_oracle,
)
from .certify import certify_generic, certify_p5, certify_p6
from .report import Certificate, emit_report, euler_identity
from .verify import verify_document, verify_report_file

__version__ = "0.1.0"

__all__ = [
    "CollapseOutcome", "SimplicialComplex", "betti_mod2", "cone",
    "from_maximal_faces", "full_subcomplex", "is_crosspolytope_boundary",
    "join", "order_complex", "replay_collapse", "try_collapse", "InputError",
    "InternalError", "StructuralError", "FaceHandle", "Polytope",
    "adjacency_from_lorentz", "build_cusp_section", "build_p5", "build_p6",
    "dual_complex", "enumerate_faces", "f_vector_check", "symmetries_p6",
    "MoveSystem", "State", "Subject", "act", "balanced_states_p5", "balanced_states_p6",
    "builtin_subject", "generic_subject", "inherited_state", "is_compatible", "legality",
    "move_system_p5", "move_system_p6", "orbit", "CubeModel", "LiftValue",
    "LinkClassification", "build_cube_model", "certify_boundary_cube",
    "check_cusp_condition", "classify_link", "coface_membership_oracle",
    "face_links_oracle", "Certificate", "certify_generic", "certify_p5",
    "certify_p6", "euler_identity", "emit_report", "verify_document",
    "verify_report_file",
]
