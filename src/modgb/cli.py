"""Command-line interface: batch subcommands over the input file format."""

import argparse
import json
import os
import random
import sys

from .arith import factor, is_prime
from .fan import DEFAULT_BUDGET, DEFAULT_MAX_CONES, FanBudgetExceeded
from .fan import enumerate_fan, universal_denominator
from .gb_field import normal_form
from .gb_integer import lcm_sigma, strong_gb
from .orderings import degrevlex
from .parsing import GRAMMAR as INPUT_GRAMMAR
from .parsing import ParseError, parse_input, parse_order_text, parse_poly_text
from .pipeline import DEFAULT_MAX_PRIMES, DEFAULT_PRIME_BITS, modular_gb
from .poly import QQ, ZZ, den_of_set, poly_str, prim
from .primes import (
    check_rad_identity,
    classify_prime,
    detect_tau_bad,
    pauer_lucky,
    SIGMA_BAD,
)

GRAMMAR = (
    "input file grammar:\n"
    + "".join("  %s\n" % line for line in INPUT_GRAMMAR.splitlines())
    + "example:\n"
    "  ring QQ[x,y,z] degrevlex;\n"
    "  ideal(x^2 - y, x*y + z + 1, z^2 + x);\n"
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n\n%s" % (message, GRAMMAR))
        raise SystemExit(2)


def _read_input(path):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    spec, ideals, _ = parse_input(text)
    if not ideals:
        raise ValueError("input contains no ideal declaration")
    return spec, ideals[0]


def _order_flag(value, spec):
    if value is None:
        return spec.ordering
    return parse_order_text(value, spec.names)


def _parse_primes(text):
    try:
        primes = [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise ValueError("bad prime list %r" % text) from None
    if not primes:
        raise ValueError("empty prime list")
    for p in primes:
        if not is_prime(p):
            raise ValueError("%d is not prime" % p)
    return primes


def _int_at_least(low):
    """argparse type: an integer no smaller than low."""

    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError("must be at least %d, got %d" % (low, value))
        return value

    return parse


def _budget(parser):
    """The fan traversal's reduction budget from MGB_BUDGET; unset or empty
    means the default, and anything but a positive integer is a usage error."""
    raw = os.environ.get("MGB_BUDGET")
    if not raw:
        return DEFAULT_BUDGET
    if not (raw.isdecimal() and int(raw) > 0):
        parser.error("MGB_BUDGET must be a positive integer, got %r" % raw)
    return int(raw)


def _emit(args, payload, text):
    if args.json:
        payload = dict(payload)
        payload["schema"] = 1
        print(json.dumps(payload))
    else:
        print(text)


def _basis_strings(basis, order):
    # print with the leading-term-greatest element first
    return [poly_str(g, order) for g in reversed(list(basis))]


def _bracketed(strings):
    return "[" + ", ".join(strings) + "]"


def _verdicts(verdicts, names):
    """JSON records and text lines of prime verdicts: the prime, its status,
    then the evidence.  Integers (the prime, a witness denominator) are
    emitted as decimal strings."""
    records = [
        {k: str(v) if isinstance(v, int) else v for k, v in verdict.to_dict(names).items()}
        for verdict in verdicts
    ]
    lines = []
    for r in records:
        evidence = ["%s=%s" % (k, v) for k, v in r.items() if k not in ("prime", "status")]
        lines.append("  ".join(["%s: %s" % (r["prime"], r["status"])] + evidence))
    return records, lines


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gb(args):
    spec, I = _read_input(args.file)
    order = _order_flag(args.order, spec)
    basis = I.reduced_gb(order)
    strings = _basis_strings(basis, order)
    _emit(args, {"basis": strings}, _bracketed(strings))
    return 0


def _cmd_strong_gb(args):
    spec, I = _read_input(args.file)
    order = _order_flag(args.order, spec)
    if spec.domain is QQ:
        gens = [prim(g, order) for g in I.gens]
    elif spec.domain is ZZ:
        gens = I.gens
    else:
        raise ValueError("strong-gb needs coefficients in QQ or ZZ")
    B = strong_gb(gens, order)
    strings = _basis_strings(B, order)
    lc_lcm = lcm_sigma(B)
    _emit(
        args,
        {"basis": strings, "lc_lcm": str(lc_lcm)},
        "%s\nlcm of leading coefficients: %d" % (_bracketed(strings), lc_lcm),
    )
    return 0


def _cmd_nf(args):
    spec, I = _read_input(args.file)
    order = _order_flag(args.order, spec)
    f = parse_poly_text(args.poly, spec.ring())
    r = normal_form(f, I.reduced_gb(order), order)
    _emit(args, {"normal_form": poly_str(r, order)}, poly_str(r, order))
    return 0


def _cmd_classify(args):
    spec, I = _read_input(args.file)
    order = _order_flag(args.order, spec)
    verdicts = [classify_prime(I, order, p) for p in _parse_primes(args.primes)]
    records, _ = _verdicts(verdicts, spec.names)
    lines = []
    for v, rec in zip(verdicts, records):
        if v.status != SIGMA_BAD:
            pl = pauer_lucky([prim(g, order) for g in I.gens], order, v.prime)
            rec["pauer"] = pl.status
            lines.append("%d: %s, %s" % (v.prime, v.status, pl.status))
        else:
            lines.append("%d: %s" % (v.prime, v.status))
    _emit(args, {"primes": records}, "\n".join(lines))
    return 0


def _cmd_detect_bad(args):
    spec, I = _read_input(args.file)
    sigma = parse_order_text(args.sigma, spec.names) if args.sigma else spec.ordering
    tau = parse_order_text(args.tau, spec.names) if args.tau else degrevlex(len(spec.names))
    primes = _parse_primes(args.primes)
    records, lines = _verdicts(detect_tau_bad(I, sigma, tau, primes), spec.names)
    _emit(args, {"primes": records}, "\n".join(lines))
    return 0


def _cmd_rad_check(args):
    spec, I = _read_input(args.file)
    order = _order_flag(args.order, spec)
    a, b, ok = check_rad_identity(I, order)
    _emit(
        args,
        {"rad_den": str(a), "rad_lcm": str(b), "equal": ok},
        "rad(den) = %d\nrad(lcm) = %d\n%s" % (a, b, "equal" if ok else "DIFFERENT"),
    )
    return 0


def _factored(n):
    if n == 1:
        return "1"
    fac = factor(n)
    parts = []
    for p in sorted(fac):
        e = fac[p]
        parts.append("%d^%d" % (p, e) if e > 1 else "%d" % p)
    return " * ".join(parts)


def _cmd_fan(args):
    spec, I = _read_input(args.file)
    if spec.domain is not QQ:
        raise ValueError("fan needs rational coefficients")
    fan = enumerate_fan(I, max_cones=args.max_cones, budget=args.budget)
    records = []
    lines = []
    for i, cone in enumerate(fan.cones):
        strings = _basis_strings(cone.elements, cone.ordering)
        d = den_of_set(cone)
        nbrs = sorted(fan.adjacency[i])
        records.append(
            {"cone": i, "basis": strings, "den": str(d), "adjacent": nbrs}
        )
        lines.append(
            "cone %d: den=%d adjacent=%s basis=%s"
            % (i, d, ",".join(map(str, nbrs)), _bracketed(strings))
        )
    delta = fan.denominator()
    lines.append("universal denominator: %d = %s" % (delta, _factored(delta)))
    _emit(args, {"cones": records, "delta": str(delta)}, "\n".join(lines))
    return 0


def _cmd_universal_denominator(args):
    spec, I = _read_input(args.file)
    delta = universal_denominator(I, max_cones=args.max_cones, budget=args.budget)
    _emit(
        args,
        {"delta": str(delta), "factorization": _factored(delta)},
        "%d = %s" % (delta, _factored(delta)) if delta > 1 else "1",
    )
    return 0


def _cmd_modular_gb(args):
    spec, I = _read_input(args.file)
    tau = _order_flag(args.order, spec)
    sigma = parse_order_text(args.sigma, spec.names) if args.sigma else None
    rng = random.Random(args.seed) if args.seed is not None else None
    result = modular_gb(
        I,
        tau,
        sigma=sigma,
        prime_bits=args.prime_bits,
        max_primes=args.max_primes,
        rng=rng,
    )
    strings = _basis_strings(result.basis, tau)
    rejected, rejected_lines = _verdicts(result.rejected, spec.names)
    lines = [_bracketed(strings)]
    lines.append("primes used: %s" % ",".join(map(str, result.used_primes)))
    lines.extend("rejected " + line for line in rejected_lines)
    lines.append("%.3f s, %d primes tried" % (result.seconds, result.attempts))
    _emit(
        args,
        {
            "basis": strings,
            "used_primes": [str(p) for p in result.used_primes],
            "rejected": rejected,
            "attempts": result.attempts,
            "seconds": result.seconds,
        },
        "\n".join(lines),
    )
    return 0


# ---------------------------------------------------------------------------


def _build_parser():
    top = _Parser(prog="modgb", description="Exact Groebner basis toolkit.", epilog=GRAMMAR,
                  formatter_class=argparse.RawDescriptionHelpFormatter)
    top.add_argument("--json", action="store_true", help="machine-readable output")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.add_argument("file", help="input file, or - for stdin")
        p.set_defaults(fn=fn)
        return p

    p = add("gb", _cmd_gb, help="reduced Groebner basis")
    p.add_argument("--order", help="term ordering (default: ring's)")

    p = add("strong-gb", _cmd_strong_gb, help="minimal strong basis over ZZ")
    p.add_argument("--order")

    p = add("nf", _cmd_nf, help="normal form of a polynomial")
    p.add_argument("--poly", required=True)
    p.add_argument("--order")

    p = add("classify", _cmd_classify, help="good/bad and Pauer-lucky primes")
    p.add_argument("--order")
    p.add_argument("--primes", required=True, help="comma-separated primes")

    p = add("detect-bad", _cmd_detect_bad, help="purely modular bad-prime detection")
    p.add_argument("--sigma")
    p.add_argument("--tau")
    p.add_argument("--primes", required=True)

    p = add("rad-check", _cmd_rad_check, help="radical identity self-test")
    p.add_argument("--order")

    p = add("fan", _cmd_fan, help="Groebner fan enumeration")
    p.add_argument("--max-cones", type=_int_at_least(1), default=DEFAULT_MAX_CONES)

    p = add("universal-denominator", _cmd_universal_denominator, help="Delta(I)")
    p.add_argument("--max-cones", type=_int_at_least(1), default=DEFAULT_MAX_CONES)

    p = add("modular-gb", _cmd_modular_gb, help="modular pipeline with reconstruction")
    p.add_argument("--order")
    p.add_argument("--sigma")
    p.add_argument("--prime-bits", type=_int_at_least(2), default=DEFAULT_PRIME_BITS)
    p.add_argument("--max-primes", type=_int_at_least(1), default=DEFAULT_MAX_PRIMES)
    p.add_argument("--seed", type=int)

    return top


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command in ("fan", "universal-denominator"):
            args.budget = _budget(parser)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        return args.fn(args)
    except ParseError as e:
        sys.stderr.write("error: %s\n" % e)
        return 1
    except FanBudgetExceeded as e:
        sys.stderr.write("error: %s (%d cones found)\n" % (e, len(e.fan)))
        return 1
    except (ValueError, RuntimeError, OSError) as e:
        sys.stderr.write("error: %s\n" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
