"""Boundary maps, natural extensions and geodesic coding for compact
hyperbolic surfaces presented by (8g-4)-sided fundamental polygons."""

__version__ = "0.1.0"

from .circle import TOL, Arc, CirclePoint, MoebiusMap, geodesic_endpoints
from .surface import (
    SideIndexMaps,
    SurfaceGroup,
    build_regular_surface,
    geodesic_intersects_polygon,
    sigma,
    tau,
    verify_group_relations,
)
from .words import BasePoint, GroupWord
from .boundary import (
    ExtremalParams,
    IndexType,
    RectDomain,
    SolvedParams,
    boundary_step,
    build_domain,
    classify_type,
    compute_h_d,
    extension_step,
    inverse_step,
    solve,
    solve_g,
    verify_bijectivity,
)
from .coding import (
    CodingSeq,
    code_geodesic,
    geo_step,
    locate_region,
    apply_phi,
    reduce_geodesic,
    markov_transition_matrix,
    sofic_amalgamate,
    verify_conjugacy,
)
from .duality import (
    DualParams,
    build_omega_dual,
    dual_family_check,
    dual_params,
    verify_duality,
)
from .attractor import attractor_experiment
from .sweep import sweep
from .render import render_svg

__all__ = [
    "TOL",
    "Arc",
    "BasePoint",
    "CirclePoint",
    "CodingSeq",
    "DualParams",
    "ExtremalParams",
    "GroupWord",
    "IndexType",
    "MoebiusMap",
    "RectDomain",
    "SideIndexMaps",
    "SolvedParams",
    "SurfaceGroup",
    "apply_phi",
    "attractor_experiment",
    "boundary_step",
    "build_domain",
    "build_omega_dual",
    "build_regular_surface",
    "classify_type",
    "code_geodesic",
    "compute_h_d",
    "dual_family_check",
    "dual_params",
    "extension_step",
    "geo_step",
    "geodesic_endpoints",
    "geodesic_intersects_polygon",
    "inverse_step",
    "locate_region",
    "markov_transition_matrix",
    "reduce_geodesic",
    "render_svg",
    "sigma",
    "sofic_amalgamate",
    "solve",
    "solve_g",
    "sweep",
    "tau",
    "verify_bijectivity",
    "verify_conjugacy",
    "verify_duality",
    "verify_group_relations",
]
