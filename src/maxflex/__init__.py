"""Exact-arithmetic toolkit for plane-curve arrangements with maximal flexes.

Builds arrangements containing a smooth cubic with a flex, computes the
torsion-divisor invariants and predicted splitting numbers of their cyclic
covers, and produces verifiable certificates that combinatorially equivalent
arrangements form Zariski pairs or tuples.
"""

from .errors import (
    BackendDisagreement,
    BudgetExceeded,
    CommonComponent,
    DegenerateModulus,
    EmptyAdmissibleSet,
    LineNotIncident,
    MaxflexError,
    ModulusMismatch,
    NonUnique,
    NoSolution,
    SingularPoint,
    SpecError,
    UnknownReproduction,
    WrongOrder,
    ZeroDivisorEncountered,
    ZeroVector,
)
from .fields import (
    QQ,
    BigRational,
    FieldTower,
    TowerElement,
    UniPoly,
    extend_field,
    invert,
    poly_gcd,
    squarefree_part,
    with_splitting,
)
from .geometry import (
    BranchSeries,
    EllipticStructure,
    PlaneCurve,
    ProjPoint,
    branch_series,
    ec_add,
    ec_mul,
    ec_neg,
    flex_points,
    hessian,
    interpolate_curve_with_divisor,
    intersection_multiplicity,
    intersection_points,
    line_cubic_residual,
    line_through,
    point_order,
    tangent_line,
    tangents_through,
)
from .polysolve import rational_roots, root_packets
from .torsion import (
    ArrangementSpec,
    ComponentData,
    TorsionClass,
    Triangle,
    WeightVector,
    ZariskiCertificate,
    bigon_parameters,
    classify_triangle_pair,
    cover_order,
    distinguish,
    enumerate_triangles,
    reduce_weights,
    splitting_number,
    torsion_order,
    triangle_from,
    uniform_group,
    weil_exponent,
)
from .combinatorics import (
    Fingerprint,
    admissible_permutations,
    check_incidence,
    fingerprint,
    verify_bigon,
)
from .weierstrass import (
    DivisionPolynomials,
    WeierstrassModel,
    halve_point,
    rational_points_of_order,
    weierstrass_model,
)
from .reproductions import REPRODUCTION_NAMES, run_reproduction

__version__ = "0.1.0"
