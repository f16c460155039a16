"""Time the instances known to be too slow for the strong_zz workload.

    python3 bench/slow.py [--timeout 60]

Each instance is one check_rad_identity call in a fresh interpreter, as in
strong_zz, killed after --timeout seconds.  Not part of the gated
benchmark: an instance joins strong_zz once it finishes in seconds.
"""

import argparse
import subprocess
import sys

import run
import workloads


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--timeout", type=float, default=60.0)
    args = parser.parse_args(argv)
    if not run.modgb_source_present():
        print("error: no modgb source under %s" % run.ROOT, file=sys.stderr)
        return 2
    for name, text in workloads.SLOW_RAD:
        inst = {"id": name, "text": text}
        try:
            sample = run.spawn_sample("strong_zz", [inst], False, timeout=args.timeout)
        except subprocess.TimeoutExpired:
            print("%-32s  timeout after %.0f s" % (name, args.timeout), flush=True)
            continue
        out = sample["outputs"][0]
        verdict = out.get("error") or ("identity holds" if out["holds"] else "IDENTITY FAILS")
        print("%-32s %8.2f s  %s" % (name, sample["wall_s"], verdict), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
