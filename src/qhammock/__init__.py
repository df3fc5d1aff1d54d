"""Exact hammock calculus on repetition quivers, with three routes to
truncated characters: Euler characteristics of recursively built
complexes, a scalar leading-term recursion, and exchange-walk cluster
variables.  Everything is integer arithmetic — no fractions or floats
anywhere, so every equality in the test suite is exact.
"""

from .errors import (
    CensusFailure,
    ConfigError,
    EmptySupport,
    Incomparable,
    InconsistentConnector,
    InexactDivision,
    InvariantViolation,
    NegativeDegree,
    NotContained,
    NotDominant,
    NotInSupport,
    ParityViolation,
    QHError,
    Reorientation,
    TooLarge,
    UnknownRoot,
    WrongShape,
)
from .laurent import MONO_ONE, LaurentPoly, mono_from_dict, mono_key_str
from .quiver import (
    BetaData,
    DynkinQuiver,
    HeightFunction,
    Root,
    all_orientations,
    beta_combinatorics,
    build_quiver,
    coxeter_number,
    default_height,
    height_from_values,
    nakayama_involution,
    positive_roots,
    sample_orientations,
    simple_root,
)
from .repetition import (
    ZVertex,
    arrows_out,
    base_vertex,
    check_vertex,
    serre,
    suspend,
    translate,
    translate_base,
    window_vertices,
    zq_dot,
)
from .hammock import (
    QFun,
    dim_hom,
    hammock_fun,
    hom_values,
    qfun_equal,
    qfun_eval,
    qfun_grid_tsv,
)
from .objects import (
    Factorization,
    Obj,
    class_object,
    factor_dominant,
    ghost_object,
    hammock_object,
    is_iso,
    kr_object,
    leading_object,
    obj_pow,
    root_of_dominant,
    serre_tilt,
    tensor_obj,
)
from .complexes import (
    Complex,
    Component,
    FractionComplex,
    build_complex,
    complex_to_json,
    cone,
    euler_char,
    single_complex,
    tensor_complex,
    verify_d_squared,
)
from .cluster import (
    Seed,
    enumerate_cluster_variables,
    initial_seed,
    mutate,
)
from .qchar import (
    dominant_monomial,
    extremal_monomials,
    nakajima_leq,
    qchar_cluster,
    qchar_euler,
    qchar_recursion,
    qchar_to_json,
    qchar_to_tsv,
    variable_A,
    verify_beta,
)

__version__ = "0.1.0"
