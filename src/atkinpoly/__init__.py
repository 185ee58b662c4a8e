"""Atkin polynomials and their associated relatives: exact recurrences,
explicit forms, asymptotics, generating functions, the orthogonality
weight, and the supersingular reduction check."""

from . import errors
from .assoc_jacobi import (
    REP1_DEFAULT_COEFF,
    S_SET,
    AJParams,
    Representation,
    Variant,
    aj_rates,
    assoc_V,
    assoc_calV,
    atkin_via_representation,
    im_calV_explicit,
    monic_jacobi,
    ourrep_explicit,
    wimp_V_explicit,
)
from .atkin import (
    atkin,
    atkin_at_one,
    atkin_at_zero,
    atkin_normalized,
    atkin_rates,
    kz_explicit,
)
from .exact import catalan, pfq, pochhammer, rat_str
from .fp import FpPoly, fp_gcd
from .genfun import (
    DeltaEpsilon,
    GenUYResult,
    catalan_gen_check,
    delta_eps,
    fjk_check,
    gen_at_one,
    gen_at_zero,
    gen_uy_check,
    gen_zero_pfaff_residual,
)
from .hypergeom import (
    RealValue,
    atkin_asymptotic,
    atkin_normalized_value,
    atkin_normalized_value_seq,
    buv_combination,
    c_and_d,
    f21_near_one,
    f21_profile_seq,
    f21_real,
    u_and_y_seq,
)
from .ratpoly import (
    RatPoly,
    poly_eval,
    reduce_mod_p,
)
from .supersingular import atkin_mod_p, match_report, ss_poly
from .weight import (
    gram,
    lambda_star,
    phi,
    quad_integrate,
    weight_w,
    wronskian_residual,
)

__version__ = "0.1.0"
