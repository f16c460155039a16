"""Command-line interface: batch subcommands over the input file format.

Each subcommand is one entry of COMMANDS: its name, help text, handler
and flags.  A handler is a function of (spec, ideal, args) that returns
its JSON payload and its text.  Only `main` reads the input, resolves the
ordering flags --order, --sigma and --tau (unset means the ring's
ordering, or the flag's default text), runs the handler inside one budget
of MGB_BUDGET reduction steps, prints, and maps errors to exit codes.  Steps
do not bound time: the factoring in rad-check, for one, spends none.
"""

import argparse
import json
import os
import random
import sys

from .arith import factor, is_prime
from .fan import DEFAULT_BUDGET, DEFAULT_MAX_CONES
from .fan import enumerate_fan, universal_denominator
from .gb_field import budget, normal_form
from .gb_integer import lcm_sigma, strong_gb
from .parsing import GRAMMAR as INPUT_GRAMMAR
from .parsing import parse_input, parse_order_text, parse_poly_text
from .pipeline import DEFAULT_MAX_PRIMES, DEFAULT_PRIME_BITS, modular_gb
from .poly import QQ, ZZ, den_of_set, poly_str, prim
from .primes import (
    check_rad_identity,
    classify_prime,
    detect_tau_bad,
    pauer_verdict,
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
    """The reduction budget from MGB_BUDGET; unset or empty means the
    default, and anything but a positive integer is a usage error."""
    raw = os.environ.get("MGB_BUDGET")
    if not raw:
        return DEFAULT_BUDGET
    if not (raw.isdecimal() and int(raw) > 0):
        parser.error("MGB_BUDGET must be a positive integer, got %r" % raw)
    return int(raw)


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
# subcommands: (spec, ideal, args) -> (JSON payload, text)


def _cmd_gb(spec, I, args):
    strings = _basis_strings(I.reduced_gb(args.order), args.order)
    return {"basis": strings}, _bracketed(strings)


def _cmd_strong_gb(spec, I, args):
    if spec.domain is QQ:
        gens = [prim(g, args.order) for g in I.gens]
    elif spec.domain is ZZ:
        gens = I.gens
    else:
        raise ValueError("strong-gb needs coefficients in QQ or ZZ")
    B = strong_gb(gens, args.order)
    strings = _basis_strings(B, args.order)
    lc_lcm = lcm_sigma(B)
    text = "%s\nlcm of leading coefficients: %d" % (_bracketed(strings), lc_lcm)
    return {"basis": strings, "lc_lcm": str(lc_lcm)}, text


def _cmd_nf(spec, I, args):
    f = parse_poly_text(args.poly, spec.ring())
    r = poly_str(normal_form(f, I.reduced_gb(args.order), args.order), args.order)
    return {"normal_form": r}, r


def _cmd_classify(spec, I, args):
    verdicts = [classify_prime(I, args.order, p) for p in _parse_primes(args.primes)]
    records, _ = _verdicts(verdicts, spec.names)
    if any(v.status != SIGMA_BAD for v in verdicts):
        # the strong basis of the input does not depend on p: one for all primes
        F = [prim(g, args.order) for g in I.gens]
        B = strong_gb(F, args.order)
    lines = []
    for v, rec in zip(verdicts, records):
        if v.status == SIGMA_BAD:
            lines.append("%d: %s" % (v.prime, v.status))
        else:
            rec["pauer"] = pauer_verdict(B, args.order, v.prime).status
            lines.append("%d: %s, %s" % (v.prime, v.status, rec["pauer"]))
    return {"primes": records}, "\n".join(lines)


def _cmd_detect_bad(spec, I, args):
    verdicts = detect_tau_bad(I, args.sigma, args.tau, _parse_primes(args.primes))
    records, lines = _verdicts(verdicts, spec.names)
    return {"primes": records}, "\n".join(lines)


def _cmd_rad_check(spec, I, args):
    a, b, ok = check_rad_identity(I, args.order)
    text = "rad(den) = %d\nrad(lcm) = %d\n%s" % (a, b, "equal" if ok else "DIFFERENT")
    return {"rad_den": str(a), "rad_lcm": str(b), "equal": ok}, text


def _factored(n):
    parts = ("%d^%d" % (p, e) if e > 1 else "%d" % p for p, e in sorted(factor(n).items()))
    return " * ".join(parts) or "1"


def _cmd_fan(spec, I, args):
    if spec.domain is not QQ:
        raise ValueError("fan needs rational coefficients")
    fan = enumerate_fan(I, max_cones=args.max_cones)
    records = []
    lines = []
    for i, cone in enumerate(fan.cones):
        strings = _basis_strings(cone.elements, cone.ordering)
        d = den_of_set(cone)
        nbrs = sorted(fan.adjacency[i])
        records.append({"cone": i, "basis": strings, "den": str(d), "adjacent": nbrs})
        lines.append(
            "cone %d: den=%d adjacent=%s basis=%s"
            % (i, d, ",".join(map(str, nbrs)), _bracketed(strings))
        )
    delta = fan.denominator()
    lines.append("universal denominator: %d = %s" % (delta, _factored(delta)))
    return {"cones": records, "delta": str(delta)}, "\n".join(lines)


def _cmd_universal_denominator(spec, I, args):
    delta = universal_denominator(I, max_cones=args.max_cones)
    text = "%d = %s" % (delta, _factored(delta)) if delta > 1 else "1"
    return {"delta": str(delta), "factorization": _factored(delta)}, text


def _cmd_modular_gb(spec, I, args):
    rng = random.Random(args.seed) if args.seed is not None else None
    result = modular_gb(
        I,
        args.order,
        sigma=args.sigma,
        prime_bits=args.prime_bits,
        max_primes=args.max_primes,
        rng=rng,
    )
    strings = _basis_strings(result.basis, args.order)
    rejected, rejected_lines = _verdicts(result.rejected, spec.names)
    lines = [_bracketed(strings)]
    lines.append("primes used: %s" % ",".join(map(str, result.used_primes)))
    lines.extend("rejected " + line for line in rejected_lines)
    lines.append("%.3f s, %d primes tried" % (result.seconds, result.attempts))
    payload = {
        "basis": strings,
        "used_primes": [str(p) for p in result.used_primes],
        "rejected": rejected,
        "attempts": result.attempts,
        "seconds": result.seconds,
    }
    return payload, "\n".join(lines)


# ---------------------------------------------------------------------------

_MAX_CONES = {"type": _int_at_least(1), "default": DEFAULT_MAX_CONES}

# name, help, handler, then each flag with its add_argument keywords
COMMANDS = (
    ("gb", "reduced Groebner basis", _cmd_gb,
     {"--order": {"help": "term ordering (default: ring's)"}}),
    ("strong-gb", "minimal strong basis over ZZ", _cmd_strong_gb, {"--order": {}}),
    ("nf", "normal form of a polynomial", _cmd_nf,
     {"--poly": {"required": True}, "--order": {}}),
    ("classify", "good/bad and Pauer-lucky primes", _cmd_classify,
     {"--order": {}, "--primes": {"required": True, "help": "comma-separated primes"}}),
    ("detect-bad", "purely modular bad-prime detection", _cmd_detect_bad,
     {"--sigma": {}, "--tau": {"default": "degrevlex"}, "--primes": {"required": True}}),
    ("rad-check", "radical identity self-test", _cmd_rad_check, {"--order": {}}),
    ("fan", "Groebner fan enumeration", _cmd_fan, {"--max-cones": _MAX_CONES}),
    ("universal-denominator", "Delta(I)", _cmd_universal_denominator,
     {"--max-cones": _MAX_CONES}),
    ("modular-gb", "modular pipeline with reconstruction", _cmd_modular_gb, {
        "--order": {},
        "--sigma": {"default": "degrevlex"},
        "--prime-bits": {"type": _int_at_least(2), "default": DEFAULT_PRIME_BITS},
        "--max-primes": {"type": _int_at_least(1), "default": DEFAULT_MAX_PRIMES},
        "--seed": {"type": int},
    }),
)


def _build_parser():
    top = _Parser(prog="modgb", description="Exact Groebner basis toolkit.", epilog=GRAMMAR,
                  formatter_class=argparse.RawDescriptionHelpFormatter)
    top.add_argument("--json", action="store_true", help="machine-readable output")
    sub = top.add_subparsers(dest="command", required=True)
    for name, help_text, fn, flags in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="input file, or - for stdin")
        for flag, kw in flags.items():
            p.add_argument(flag, **kw)
        p.set_defaults(fn=fn)
    return top


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        steps = _budget(parser)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        spec, I = _read_input(args.file)
        for flag in ("order", "sigma", "tau"):
            if hasattr(args, flag):
                value = getattr(args, flag)
                setattr(args, flag, spec.ordering if value is None else parse_order_text(value, spec.names))
        with budget(steps):
            payload, text = args.fn(spec, I, args)
        print(json.dumps(dict(payload, schema=1)) if args.json else text)
    except (ValueError, RuntimeError, OSError) as e:
        sys.stderr.write("error: %s\n" % e)
        return 1
    except MemoryError:
        sys.stderr.write("error: out of memory\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
