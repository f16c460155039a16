"""One benchmark sample in a fresh interpreter.

Reads a request as JSON on standard input, imports modgb from the
checkout's `src`, parses the workload's input texts, times the calls into
the layer the workload drives, and prints one JSON line with the timings and
the answers, which the benchmark process checks.  A fresh process per
sample keeps the library's process-global caches (`reduction_tuple`'s
default `_cache`, `fan._FAN_CACHE`, `Ideal._gb_cache`) from turning a
repeated instance into a cache hit.

Request keys: workload, instances, trace (bool), spawned_at (time.monotonic()
in the benchmark process just before this process was started), setup_only.
"""

import json
import os
import random
import sys
import time
from fractions import Fraction

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def encode_poly(f):
    return [[list(pp), str(c)] for pp, c in sorted(f.terms.items())]


def coeff_bits(encoded):
    bits = 0
    for g in encoded:
        for _, c in g:
            c = Fraction(c)
            bits = max(bits, abs(c.numerator).bit_length(), c.denominator.bit_length())
    return bits


def peak_rss_mb():
    """Peak resident memory of this process alone.

    getrusage's ru_maxrss is not used: across exec it keeps the high-water
    mark of the process that spawned this one.
    """
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main():
    request = json.load(sys.stdin)
    sys.path.insert(0, SRC)
    import modgb
    from modgb import fan, parsing

    if os.path.dirname(os.path.dirname(os.path.abspath(modgb.__file__))) != SRC:
        raise SystemExit("modgb was imported from %s, not from the checkout" % modgb.__file__)

    # universal_denominator returns only Delta; keep the fan it enumerates so
    # the answer check can look at the cones.
    fans = []
    enumerate_fan = fan.enumerate_fan

    def keep_fan(*args, **kwargs):
        result = enumerate_fan(*args, **kwargs)
        fans.append(result)
        return result

    fan.enumerate_fan = keep_fan

    tracer = None
    if request["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    instances = request["instances"]
    parsed = []
    for inst in instances:
        if tracer:
            tracer.instance = inst["id"]
        spec, ideals, _ = parsing.parse_input(inst["text"])
        parsed.append((spec, ideals[0]))
    setup_s = time.monotonic() - request["spawned_at"]
    if request["setup_only"]:
        print(json.dumps({"setup_s": setup_s}))
        return

    workload = request["workload"]
    cpu = 0.0
    done, instance_s = [], []
    for inst, (spec, ideal) in zip(instances, parsed):
        if tracer:
            tracer.instance = inst["id"]
        del fans[:]
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            result = call(workload, inst, spec, ideal)
        except Exception as e:  # a failed instance is counted, not fatal
            result = e
        instance_s.append(time.perf_counter() - t0)
        cpu += time.process_time() - c0
        done.append((inst, spec, ideal, result, fans[-1] if fans else None))
    rss_mb = peak_rss_mb()

    if tracer:
        tracer.enabled = False
    outputs = [encode_output(workload, *d) for d in done]
    bits = 0
    for (inst, spec, ideal, _, _), out in zip(done, outputs):
        if "error" in out:
            continue
        # the answer's coefficients; for tuples and radicals, those of the
        # rational sigma-basis the timed call already cached on the ideal
        polys = out.get("basis") or [g for cone in out.get("cones", []) for g in cone]
        bits = max(bits, coeff_bits(polys or map(encode_poly, ideal.reduced_gb(spec.ordering))))

    # The direct rational basis of the same ideals, on freshly parsed inputs:
    # the baseline the modular pipeline has to beat.
    direct_s = 0.0
    for inst, out in zip(instances, outputs):
        if "direct" not in inst:
            continue
        spec, ideals, _ = parsing.parse_input(inst["text"])
        order = parsing.parse_order_text(inst["direct"], spec.names)
        t0 = time.perf_counter()
        basis = ideals[0].reduced_gb(order)
        direct_s += time.perf_counter() - t0
        out["direct_basis"] = [encode_poly(g) for g in basis]

    report = {
        "setup_s": setup_s,
        "wall_s": sum(instance_s),
        "instance_s": instance_s,
        "cpu_s": cpu,
        "rss_mb": rss_mb,
        "direct_s": direct_s,
        "max_coeff_bits": bits,
        "outputs": outputs,
    }
    if tracer:
        report["spans"] = tracer.spans
        report["counters"] = tracer.counters
    print(json.dumps(report))


def call(workload, inst, spec, ideal):
    """The timed call of one instance into the layer the workload drives."""
    from modgb import fan, parsing, pipeline, primes

    if workload == "modular_lex":
        bits = {"prime_bits": inst["prime_bits"]} if "prime_bits" in inst else {}
        return pipeline.modular_gb(
            ideal, spec.ordering, rng=random.Random(inst["prime_seed"]), **bits
        )
    if workload == "detect_elim":
        tau = parsing.parse_order_text(inst["tau"], spec.names)
        return primes.detect_tau_bad(ideal, spec.ordering, tau, inst["primes"])
    if workload == "strong_zz":
        return primes.check_rad_identity(ideal, spec.ordering)
    if workload == "fan_delta":
        return fan.universal_denominator(ideal)
    raise ValueError("unknown workload %r" % workload)


def encode_output(workload, inst, spec, ideal, result, fan_seen):
    """The answer of one instance as JSON data the benchmark process can check."""
    out = {"id": inst["id"]}
    if isinstance(result, Exception):
        out["error"] = "%s: %s" % (type(result).__name__, result)
    elif workload == "modular_lex":
        out["basis"] = [encode_poly(g) for g in result.basis]
        out["primes_used"] = len(result.used_primes)
    elif workload == "detect_elim":
        out["verdicts"] = [
            {"prime": v.prime, "status": v.status, "tuple": [list(t) for t in v.evidence["tuple"]]}
            for v in result
        ]
    elif workload == "strong_zz":
        a, b, holds = result
        out.update(rad_den=str(a), rad_lcm=str(b), holds=bool(holds))
    elif workload == "fan_delta":
        if fan_seen is None:  # universal_denominator did not call enumerate_fan
            from modgb import fan

            fan_seen = fan.enumerate_fan(ideal)
        out["delta"] = str(result)
        out["cones"] = [[encode_poly(g) for g in cone.elements] for cone in fan_seen.cones]
    return out


if __name__ == "__main__":
    main()
