"""modgb: exact Groebner bases over QQ, ZZ and F_p, prime classification,
purely modular bad-prime detection, Groebner fans and universal
denominators, and a modular-with-reconstruction basis pipeline."""

from .arith import crt_pair, factor, is_prime, lcm, rad, rational_reconstruct
from .fan import (
    Fan,
    FanBudgetExceeded,
    enumerate_fan,
    reduction_universal,
    universal_denominator,
)
from .gb_field import (
    BudgetExceeded,
    ReducedGB,
    buchberger_reduced,
    budget,
    fglm,
    is_groebner,
    min_lt,
    normal_form,
    represent,
    s_polynomial,
)
from .gb_integer import StrongGB, lcm_sigma, leading_monomial_set, strong_gb
from .orderings import deglex, degrevlex, elim, lex, matrix_order
from .parsing import (
    ParseError,
    RingSpec,
    parse_input,
    parse_order_text,
    parse_poly_text,
    serialize_input,
    serialize_order,
)
from .pipeline import (
    LiftState,
    lift_and_reconstruct,
    modular_gb,
    run_prime,
    verify_candidate,
)
from .poly import (
    BadPrimeForInput,
    GF,
    Ideal,
    Polynomial,
    PolyRing,
    QQ,
    ZZ,
    content,
    den,
    den_of_set,
    leading,
    monic,
    poly_str,
    prim,
    reduce_mod_p,
)
from .primes import (
    PrimeVerdict,
    check_rad_identity,
    classify_prime,
    den_sigma,
    detect_tau_bad,
    pauer_lucky,
    reduction,
    reduction_tuple,
)
from .tuples import LtTuple, lessthan_witness, ordered_tuple, os_of_ideal, os_of_polys, precedes, tuple_max

__version__ = "0.1.0"
