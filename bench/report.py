"""Run every workload untraced and traced, and print what a reader needs.

    python3 bench/report.py [--seed 1] [--seconds 30] [--workload NAME ...]

For each workload: every end-to-end metric by name and unit, with
fail_ratio, direct_s and cpu_s beside them; the largest per-layer self
times with their share of the traced wall time; the tracing overhead (traced
over untraced wall_s); and whether the layer predicted to dominate did.
Exits non-zero when any answer was wrong.
"""

import argparse
import sys

import run
import workloads


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    if not run.modgb_source_present():
        print("error: no modgb source under %s" % run.ROOT, file=sys.stderr)
        return 2
    all_right = True
    for name in args.workload or list(workloads.WORKLOADS):
        plain, diag = run.measure(name, args.seed, args.seconds, False)
        traced, tdiag = run.measure(name, args.seed, args.seconds, True)
        all_right &= plain["correct"] and traced["correct"]
        print("== %s (seed %d, %d untraced and %d traced samples)"
              % (name, args.seed, diag["samples"], tdiag["samples"]))
        for metric, m in plain["metrics"].items():
            print("  %-46s %12.4f %s" % (metric, m["value"], m["unit"]))
        print("  %-46s %12.4f %s" % ("fail_ratio", diag["fail_ratio"], "ratio"))
        print("  %-46s %12.4f %s" % ("direct_s", diag["direct_s"], "s"))
        print("  %-46s %12.4f %s  (diagnostic only)" % ("cpu_s", diag["cpu_s"], "s"))
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        wall = layers["trace.wall_s"]
        print("  tracing overhead: %+.1f%% of wall_s (%d spans)"
              % (100.0 * (wall / plain["metrics"]["wall_s"]["value"] - 1), layers["trace.spans"]))
        selfs = sorted(((v, k) for k, v in layers.items() if k.endswith(".self_s")), reverse=True)
        for v, k in selfs[:6]:
            print("  %-46s %12.4f s  %5.1f%%" % (k, v, 100.0 * v / wall))
        for k, v in layers.items():
            if not k.endswith(".self_s") and k not in ("trace.wall_s", "direct_s") and v:
                print("  %-46s %12.6g" % (k, v))
        top = selfs[0][1]
        predicted = workloads.DOMINANT[name]
        print("  dominant layer: %s (predicted %s): %s"
              % (top, " + ".join(predicted), "as predicted" if top in predicted else "DIFFERS"))
        for f in diag["failures"] + tdiag["failures"]:
            print("  WRONG: " + f)
    return 0 if all_right else 1


if __name__ == "__main__":
    sys.exit(main())
