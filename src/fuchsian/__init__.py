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
    RectDomain,
    SolvedParams,
    boundary_step,
    build_domain,
    extension_step,
    inverse_step,
    solve,
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
    "code_geodesic",
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
    "sweep",
    "tau",
    "verify_bijectivity",
    "verify_conjugacy",
    "verify_duality",
    "verify_group_relations",
]
