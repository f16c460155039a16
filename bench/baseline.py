"""Reproduce the baseline table of ROADMAP.md (one shot, not gated).

    python3 bench/baseline.py

Times, each in a fresh interpreter: the direct rational lex basis of the
many-bad-primes ideal against modular_gb with 31-, 62- and 125-bit primes
(prime generator seeded with 7), and detect_tau_bad's work per prime on the
criterion-6 graph ideal.  Every modular basis is compared with the direct
one and every tuple with the known golden.
"""

import sys

import oracle
import run
import workloads


def main():
    if not run.modgb_source_present():
        print("error: no modgb source under %s" % run.ROOT, file=sys.stderr)
        return 2
    ok = True
    print("| method | prime size | primes used | seconds |")
    print("|---|---|---|---|")
    direct = None
    for bits in (31, 62, 125):
        inst = {"id": "many_bad", "text": workloads.family_text(*workloads.MANY_BAD),
                "prime_seed": 7, "prime_bits": bits, "direct": "lex"}
        out_sample = run.spawn_sample("modular_lex", [inst], False)
        out = out_sample["outputs"][0]
        if direct is None:
            direct = out_sample["direct_s"]
            print("| direct rational basis | - | - | %.2f |" % direct)
        same = oracle.basis_set(out["basis"]) == oracle.basis_set(out["direct_basis"])
        ok &= same
        print("| modular_gb | %d-bit | %d | %.2f |%s" % (
            bits, out["primes_used"], out_sample["wall_s"], "" if same else " WRONG"))
    print()
    names = [str(s) for s in oracle.parse_ideal(workloads.GRAPH_IDEAL)[0]]
    print("| criterion-6 prime | seconds | tuple |")
    print("|---|---|---|")
    for p in workloads.DETECT_PRIMES:
        inst = {"id": "graph6", "text": workloads.GRAPH_IDEAL, "tau": workloads.GRAPH_TAU,
                "primes": [p]}
        sample = run.spawn_sample("detect_elim", [inst], False)
        got = [tuple(t) for t in sample["outputs"][0]["verdicts"][0]["tuple"]]
        want = oracle.golden_tuple(names, p)
        ok &= got == want
        print("| %d | %.2f | %s |" % (p, sample["wall_s"], "golden" if got == want else "WRONG"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
