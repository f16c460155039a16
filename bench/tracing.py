"""Spans around the public functions of each modgb layer, and the per-layer
metrics computed from them.

The sample process installs the wrappers at the lookup sites the library
uses at call time: the modules bind their imports by name, so
`pipeline.normal_form` and `gb_field.normal_form` are separate sites, and
`Ideal.reduced_gb` imports `gb_field.buchberger_reduced` lazily.  A span is
[name, start, end, parent index, instance id]; spans stay in memory and are
written out when the run ends.  A layer's self time is its duration minus
the time its child spans cover.
"""

import time

BB = "gb_field.buchberger_reduced"
BB_LABELS = ("Fp-lex", "Fp-elim", "QQ-lex", "QQ-degrevlex", "QQ-matrix", "QQ-elim")


def bb_label(gens, sigma, *args, **kwargs):
    """Coefficient domain and ordering kind of one buchberger_reduced call."""
    gens = list(gens)
    if not gens:
        return "other"
    dom = gens[0].ring.domain
    label = "%s-%s" % ("Fp" if dom.characteristic else repr(dom), sigma.kind)
    return label if label in BB_LABELS else "other"


class Tracer:
    """In-memory span recorder; `enabled` off makes every wrapper a pass-through."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = {}
        self.instance = None
        self.enabled = True

    def count(self, name, k=1):
        self.counters[name] = self.counters.get(name, 0) + k

    def span(self, fn, name, label=None, on_result=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            full = name if label is None else "%s.%s" % (name, label(*args, **kwargs))
            span = [full, 0.0, 0.0, stack[-1] if stack else -1, self.instance]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def counted(self, fn, name):
        def counted(*args, **kwargs):
            if self.enabled:
                self.count(name)
            return fn(*args, **kwargs)

        return counted


def _on_modular(tracer, result):
    tracer.count("pipeline.primes_attempted", result.attempts)
    tracer.count("pipeline.primes_used", len(result.used_primes))


def _on_lift(tracer, result):
    tracer.count("pipeline.reconstructions", int(result is not None))


def install(tracer):
    """Wrap every traced lookup site of the modgb modules in place."""
    from modgb import fan, gb_field, parsing, pipeline, primes, tuples

    sites = [
        (gb_field, "buchberger_reduced", BB, bb_label, None),
        (fan, "buchberger_reduced", BB, bb_label, None),
        (gb_field, "normal_form", "gb_field.normal_form", None, None),
        (pipeline, "normal_form", "gb_field.normal_form", None, None),
        (fan, "normal_form", "gb_field.normal_form", None, None),
        (gb_field, "is_groebner", "gb_field.is_groebner", None, None),
        (pipeline, "is_groebner", "gb_field.is_groebner", None, None),
        (primes, "strong_gb", "gb_integer.strong_gb", None,
         lambda t, r: t.count("gb_integer.strong_gb.basis_len", len(r))),
        (fan, "enumerate_fan", "fan.enumerate_fan", None,
         lambda t, r: t.count("fan.cones", len(r))),
        (fan, "universal_denominator", "fan.universal_denominator", None, None),
        (pipeline, "modular_gb", "pipeline.modular_gb", None, _on_modular),
        (pipeline, "run_prime", "pipeline.run_prime", None, None),
        (pipeline, "lift_and_reconstruct", "pipeline.lift_and_reconstruct", None, _on_lift),
        (pipeline, "verify_candidate", "pipeline.verify_candidate", None, None),
        (pipeline, "crt_pair", "arith.crt_pair", None, None),
        (pipeline, "rational_reconstruct", "arith.rational_reconstruct", None, None),
        (pipeline, "random_prime", "arith.random_prime", None, None),
        (pipeline, "reduction", "primes.reduction", None, None),
        (primes, "reduction", "primes.reduction", None, None),
        (primes, "reduction_tuple", "primes.reduction_tuple", None, None),
        (primes, "check_rad_identity", "primes.check_rad_identity", None, None),
        (primes, "detect_tau_bad", "primes.detect_tau_bad", None, None),
        (parsing, "parse_input", "parsing.parse_input", None, None),
    ]
    for module, attr, name, label, on_result in sites:
        setattr(module, attr, tracer.span(getattr(module, attr), name, label, on_result))
    for module in (tuples, pipeline):
        module.precedes = tracer.counted(module.precedes, "tuples.precedes.calls")


def layer_totals(spans):
    """Per span name: number of calls and summed self time."""
    duration = [end - start for _, start, end, _, _ in spans]
    child = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            child[span[3]] += duration[i]
    calls, self_s = {}, {}
    for i, span in enumerate(spans):
        name = span[0]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + duration[i] - child[i]
    return calls, self_s


def layer_metrics(sample, names):
    """Per-layer metric values of one traced sample, for the given metric names."""
    spans, counters = sample["spans"], sample["counters"]
    calls, self_s = layer_totals(spans)
    fan_calls = calls.get("fan.enumerate_fan", 0)
    fan_bb = sum(
        1 for s in spans if s[0].startswith(BB) and s[3] >= 0 and spans[s[3]][0] == "fan.enumerate_fan"
    )
    flips = fan_bb - fan_calls
    attempted = counters.get("pipeline.primes_attempted", 0)
    lifts = calls.get("pipeline.lift_and_reconstruct", 0)
    derived = {
        "fan.flips": flips,
        "fan.cones": counters.get("fan.cones", 0),
        "fan.new_cone_ratio": counters.get("fan.cones", 0) / flips if flips else 0.0,
        "pipeline.primes_attempted": attempted,
        "pipeline.primes_used": counters.get("pipeline.primes_used", 0),
        "pipeline.useful_prime_ratio":
            counters.get("pipeline.primes_used", 0) / attempted if attempted else 0.0,
        "pipeline.reconstruct_success_ratio":
            counters.get("pipeline.reconstructions", 0) / lifts if lifts else 0.0,
        "gb_integer.strong_gb.basis_len": counters.get("gb_integer.strong_gb.basis_len", 0),
        "tuples.precedes.calls": counters.get("tuples.precedes.calls", 0),
        "result.max_coeff_bits": sample["max_coeff_bits"],
        "direct_s": sample["direct_s"],
        "trace.wall_s": sample["wall_s"],
        "trace.spans": len(spans),
    }
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]
        elif name.endswith(".self_s"):
            out[name] = self_s.get(name[: -len(".self_s")], 0.0)
        elif name.endswith(".calls"):
            out[name] = calls.get(name[: -len(".calls")], 0)
        else:
            raise KeyError("no rule computes the per-layer metric %r" % name)
    return out
