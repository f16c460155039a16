"""Workload inputs for the modgb benchmark, generated from a seed as input text.

This module imports neither modgb nor sympy.  The benchmark process builds
the inputs here and checks the answers with sympy; the sample process only
parses the texts with modgb and computes.  Every instance is a dict:

    id       unique name within its workload, used as the span instance id
    text     modgb input text (ring declaration and one ideal)
    ...      the workload's call arguments (prime seed, tau, primes, ...)
"""

import random

# <x^2 y + a x y^2 - b, y^3 + c x^2 z, z^3 + x^2 - y>; (7, 2, 1) is the
# many-bad-primes ideal of the test suite.
FAMILY = "ring QQ[x,y,z] lex;\nideal(x^2*y + {a}*x*y^2 - {b}, y^3 + {c}*x^2*z, z^3 + x^2 - y);\n"
MANY_BAD = (7, 2, 1)
# Family members whose lex basis, like many_bad's, needs 17 primes of 31 bits
# in modular_gb.  Across the whole family (a in 2..9, b in 1..5, c in 1..3)
# that count runs from 11 to 25 and the time from 4.9 to 11 s, which gave a
# five-seed wall_s spread of 14%; drawing the seeded member from this pool
# gives every seed the same amount of modular work.
MODULAR_POOL = ((8, 2, 1), (7, 1, 1), (5, 5, 1), (6, 4, 1), (6, 2, 1))

# <x^a - y, x y + z + c, z^b + d x>; (2, 2, 1, 1) is the twelve-cone ideal.
FAN_FAMILY = "ring QQ[x,y,z] degrevlex;\nideal(x^{a} - y, x*y + z + {c}, z^{b} + {d}*x);\n"
TWELVE_CONE = (2, 2, 1, 1)
FAN_SHAPES = ((2, 2), (3, 2), (2, 3), (3, 3))

# The six-variable graph ideal of the criterion-6 detection walkthrough.
GRAPH_IDEAL = (
    "ring QQ[x,y,z,w,s,t] elim(x,y,z,w);\n"
    "ideal(x - t^3, y - s*t^2 + 2*s^2, z - s^2*t + 5, w - s^3 + 7*t);\n"
)
GRAPH_TAU = "elim(s,t)"
DETECT_PRIMES = (2, 3, 5, 7)

# Instance #104 of the rad_identity property suite (random.Random(101)).
RAD_104 = (
    "ring QQ[x,y,z] degrevlex;\n"
    "ideal(-7/2*x^2*z^2 + 3*y*z^2, 9*x*y^2 + 2*y^2*z + 3*x, -3/2*x^3*z - 5/2*x*y^2 + y);\n"
)


def family_text(a, b, c):
    return FAMILY.format(a=a, b=b, c=c)


# Instances known to take far longer than a benchmark run; timed one-shot by
# slow.py until they finish in seconds and can join strong_zz.
SLOW_RAD = [("rad_identity#104-degrevlex", RAD_104)] + [
    ("family%s-lex" % (m,), family_text(*m))
    for m in ((6, 3, 3), (7, 4, 1), (8, 5, 1), (5, 1, 3), (5, 4, 2))
]


def _modular_lex(rng):
    member = rng.choice(MODULAR_POOL)
    return [
        {
            "id": "family%s" % (m,),
            "text": family_text(*m),
            "prime_seed": rng.getrandbits(32),
            "direct": "lex",
        }
        for m in (MANY_BAD, member)
    ]


def _detect_elim(rng):
    primes = list(DETECT_PRIMES)
    rng.shuffle(primes)
    return [{"id": "graph6", "text": GRAPH_IDEAL, "tau": GRAPH_TAU, "primes": primes}]


def _strong_zz(rng):
    members = [MANY_BAD, (2, 2, 1)]
    rng.shuffle(members)
    return [{"id": "family%s" % (m,), "text": family_text(*m)} for m in members]


def _fan_delta(rng):
    params = [TWELVE_CONE] + [(a, b, rng.randint(2, 5), rng.randint(2, 5)) for a, b in FAN_SHAPES]
    return [
        {"id": "fan%s" % (p,), "text": FAN_FAMILY.format(a=p[0], b=p[1], c=p[2], d=p[3])}
        for p in params
    ]


# Each workload's instance generator, and the per-layer self time predicted
# to dominate its wall time (the traced run reports whether it does).
WORKLOADS = {
    "modular_lex": _modular_lex,
    "detect_elim": _detect_elim,
    "strong_zz": _strong_zz,
    "fan_delta": _fan_delta,
}
DOMINANT = {
    "modular_lex": ("gb_field.buchberger_reduced.Fp-lex.self_s",),
    "detect_elim": ("gb_field.buchberger_reduced.Fp-elim.self_s",),
    "strong_zz": ("gb_integer.strong_gb.self_s",),
    "fan_delta": ("gb_field.buchberger_reduced.QQ-matrix.self_s", "fan.enumerate_fan.self_s"),
}


def instances(workload, seed):
    """The workload's instances for this seed; the same seed gives the same list."""
    return WORKLOADS[workload](random.Random(seed))
