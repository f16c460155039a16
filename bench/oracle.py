"""Answer checks that share no code path with modgb.

sympy computes the reduced rational bases and factors denominators; the
criterion-6 tuples and verdicts and the twelve-cone fan are known goldens.
The ideals are rebuilt from the instance texts with sympy's own parser.
"""

import math
import re
from fractions import Fraction

import sympy

import workloads

# Reduced tau-tuples of the (p, sigma)-reductions of the graph ideal and the
# verdicts of detect_tau_bad on primes 2, 3, 5, 7.
DETECTION_TUPLES = {
    2: "y^2, z^5, y*z^4, y*t, y*s, x*t, x*s, z^3*t, z^3*s, t^2, z*s*t, z*s^2, s^2*t, s^3",
    3: "z^5, y*z^4, y^2*z^3, y^3*z^2, x*y^2*z^2, y^4*z, x*y^3*z, y^5, x*y^4, y^4*w^2,"
       " x*z^3*w^3, x*z^4*w^2, x*y*z^3*w^2, x^2*z^3*w^2, x^2*z^4*w, x^2*y*z^3*w, x^3*z^3*w,"
       " z*s, y*s, x*s, z^2*t, y*z*t, x*z*t, y^2*t, x*y*t, x^2*t, w^3*t, w^3*s, z*w^2*t,"
       " y*w^2*t, x*w^2*t, t^2, s*t, s^2",
    5: "z^5, y*z^4, y^2*z^3, y^3*z^2, x*y^2*z^2, y^4*z, x*y^3*z, y^5, x*y^4, y^4*w^2,"
       " y^2*z^2*w^3, x*z^4*w^2, x*y*z^3*w^2, x^2*z^3*w^2, x^2*z^4*w, x^2*y*z^3*w, x^3*z^3*w,"
       " z*s, y*s, x*s, z^2*t, y*z*t, x*z*t, y^2*t, x*y*t, x^2*t, w^3*t, w^3*s, z*w^2*t,"
       " y*w^2*t, x*w^2*t, t^2, s*t, s^2",
    7: "z^3, y^2*z^2, y^3*z, y^4, z*s, y*s, x*s, w^2*t, w^2*s, z*w*t, z^2*t, y*z*t, y^2*t,"
       " w*t^2, w*s*t, w*s^2, t^3, s*t^2, s^2*t, s^3",
}
DETECTION_VERDICTS = {2: "TAU_BAD_CERTIFIED", 3: "TAU_BAD_CERTIFIED", 5: "UNDECIDED", 7: "TAU_BAD_CERTIFIED"}
TWELVE_CONE_GOLDEN = {"cones": 12, "delta": 28}


def golden_tuple(names, p):
    """The known tau-tuple of prime p as exponent vectors over `names`."""
    out = []
    for text in DETECTION_TUPLES[p].split(","):
        pp = [0] * len(names)
        for factor in text.strip().split("*"):
            name, _, e = factor.partition("^")
            pp[names.index(name)] += int(e or 1)
        out.append(tuple(pp))
    return out


def parse_ideal(text):
    """(symbols, generators) of a modgb input text, parsed by sympy."""
    m = re.match(r"ring QQ\[([^\]]*)\][^;]*;\s*ideal\((.*)\);\s*$", text, re.S)
    names = m.group(1).split(",")
    syms = sympy.symbols(names)
    local = dict(zip(names, syms))
    gens = [sympy.sympify(g.replace("^", "**"), locals=local) for g in m.group(2).split(",")]
    return syms, gens


def basis_set(encoded):
    """A basis from the sample's JSON as a set of {exponents: coefficient} sets."""
    return {frozenset((tuple(pp), Fraction(c)) for pp, c in g) for g in encoded}


def reduced_basis(syms, gens, order):
    """sympy's reduced basis, each element made monic under `order`."""
    out = set()
    for g in sympy.groebner(gens, *syms, order=order, domain=sympy.QQ).polys:
        terms = g.terms(order=order)
        lc = sympy.Rational(terms[0][1])
        out.add(frozenset(
            (m, Fraction(int(q.p), int(q.q)))
            for m, q in ((m, sympy.Rational(c) / lc) for m, c in terms)
        ))
    return out


def den(basis):
    return math.lcm(1, *(c.denominator for g in basis for _, c in g))


def rad(n):
    return math.prod(sympy.factorint(n))


class Oracle:
    """Expected answers per instance, computed once and compared with every sample."""

    def __init__(self, workload):
        self.workload = workload
        self.expected = {}

    def check(self, inst, out):
        """None when the sample's answer to `inst` is right, else why it is not."""
        if "error" in out:
            return "raised " + out["error"]
        if inst["id"] not in self.expected:
            self.expected[inst["id"]] = self._expect(inst)
        return getattr(self, "_check_" + self.workload)(self.expected[inst["id"]], out)

    def _expect(self, inst):
        if self.workload == "detect_elim":
            names = [str(s) for s in parse_ideal(inst["text"])[0]]
            return {p: (DETECTION_VERDICTS[p], golden_tuple(names, p)) for p in inst["primes"]}
        syms, gens = parse_ideal(inst["text"])
        if self.workload == "fan_delta":
            expected = {o: reduced_basis(syms, gens, o) for o in ("lex", "grevlex")}
            if inst["id"] == "fan%s" % (workloads.TWELVE_CONE,):
                expected["golden"] = TWELVE_CONE_GOLDEN
            return expected
        return reduced_basis(syms, gens, "lex")

    def _check_modular_lex(self, lex_basis, out):
        if basis_set(out["basis"]) != lex_basis:
            return "modular_gb basis differs from sympy's reduced lex basis"
        if basis_set(out["direct_basis"]) != lex_basis:
            return "direct reduced_gb differs from sympy's reduced lex basis"
        return None

    def _check_detect_elim(self, expected, out):
        got = {v["prime"]: (v["status"], [tuple(t) for t in v["tuple"]]) for v in out["verdicts"]}
        for p, (status, tup) in expected.items():
            if p not in got:
                return "no verdict for prime %d" % p
            if got[p][1] != tup:
                return "tau-tuple of prime %d differs from the golden" % p
            if got[p][0] != status:
                return "prime %d is %s, expected %s" % (p, got[p][0], status)
        return None

    def _check_strong_zz(self, lex_basis, out):
        r = rad(den(lex_basis))
        if not out["holds"]:
            return "check_rad_identity reports that the identity fails"
        if int(out["rad_den"]) != r:
            return "rad(den) is %s, sympy gives %d" % (out["rad_den"], r)
        if int(out["rad_lcm"]) != r:
            return "rad(lcm) is %s, not rad(den) = %d" % (out["rad_lcm"], r)
        return None

    def _check_fan_delta(self, expected, out):
        delta = int(out["delta"])
        cones = [basis_set(c) for c in out["cones"]]
        if delta != den([g for c in cones for g in c]):
            return "Delta is not the lcm of the cone denominators"
        for order in ("lex", "grevlex"):
            if expected[order] not in cones:
                return "sympy's reduced %s basis is not among the cones" % order
            if delta % den(expected[order]):
                return "Delta is not a multiple of the %s denominator" % order
        golden = expected.get("golden")
        if golden and (len(cones), delta) != (golden["cones"], golden["delta"]):
            return "twelve-cone fan has %d cones and Delta %d" % (len(cones), delta)
        return None
