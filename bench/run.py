"""Benchmark one modgb workload on one seed.

    python3 bench/run.py --workload modular_lex --seed 1 --seconds 30 --trace 0

A single caller works in a closed loop: it starts the next sample only when
the previous one has returned its answers, one single-threaded process at a
time, and only if that sample would still end within --seconds (at least one
sample).  Every sample runs in a fresh interpreter (see sample.py).  The
answers of every sample are checked against oracle.py after the loop.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics of BENCHMARK.json, each the median over the run's
samples; with --trace 1 it carries the per-layer metrics instead, and the
spans are written to .bench_trace/<workload>-seed<seed>.json.  A summary
with the diagnostics (cpu_s, direct_s, fail_ratio) goes to standard error.
The exit code is 0 only when every answer is right.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Extra set-up-only processes per run, so that setup_s is a median of several.
SETUP_PROBES = 6
# A run must end within this many seconds; a sample still busy then is killed.
RUN_DEADLINE_S = 165


def modgb_source_present():
    return os.path.isfile(os.path.join(ROOT, "src", "modgb", "__init__.py"))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def spawn_sample(workload, instances, trace, setup_only=False, timeout=None):
    """Run sample.py in a fresh interpreter and return its JSON report."""
    request = {"workload": workload, "instances": instances, "trace": trace,
               "setup_only": setup_only, "spawned_at": time.monotonic()}
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "sample.py")],
        input=json.dumps(request), capture_output=True, text=True, cwd=ROOT, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError("sample process failed (exit %d): %s"
                           % (proc.returncode, proc.stderr.strip()[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def closed_loop(workload, instances, seconds, trace):
    """Samples for `seconds`, plus set-up-only probes.

    The next sample starts only when the longest sample so far would still
    end within `seconds`, so a run measures at most `seconds` (and always at
    least one sample) however long one sample takes.
    """
    start = time.monotonic()
    setups = [spawn_sample(workload, instances, False, setup_only=True)["setup_s"]
              for _ in range(SETUP_PROBES)]
    samples, longest = [], 0.0
    loop_start = time.monotonic()
    while not samples or time.monotonic() - loop_start + longest <= seconds:
        left = RUN_DEADLINE_S - (time.monotonic() - start)
        t0 = time.monotonic()
        samples.append(spawn_sample(workload, instances, trace, timeout=max(left, 1.0)))
        longest = max(longest, time.monotonic() - t0)
        setups.append(samples[-1]["setup_s"])
    return samples, setups


def check_answers(workload, instances, samples):
    """(attempted, failures) over every (sample, instance) answer."""
    import oracle

    check = oracle.Oracle(workload)
    failures = []
    for k, sample in enumerate(samples):
        for inst, out in zip(instances, sample["outputs"]):
            why = check.check(inst, out)
            if why:
                failures.append("sample %d, %s: %s" % (k, inst["id"], why))
    return len(samples) * len(instances), failures


def end_to_end(samples, setups):
    return {
        "wall_s": statistics.median(s["wall_s"] for s in samples),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(s["rss_mb"] for s in samples),
    }


def per_layer(samples, names):
    import tracing

    rows = [tracing.layer_metrics(s, names) for s in samples]
    return {n: statistics.median(r[n] for r in rows) for n in names}


def write_trace(workload, seed, samples):
    out_dir = os.path.join(ROOT, ".bench_trace")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "%s-seed%d.json" % (workload, seed))
    doc = {
        "workload": workload,
        "seed": seed,
        "span_fields": ["name", "start", "end", "parent", "instance"],
        "samples": [{"spans": s["spans"], "counters": s["counters"]} for s in samples],
    }
    with open(path, "w") as f:
        json.dump(doc, f)


def measure(workload, seed, seconds, trace):
    """Run one workload and return (result line dict, diagnostics dict)."""
    spec = load_spec()
    section = spec["per_layer" if trace else "end_to_end"]
    instances = workloads.instances(workload, seed)
    samples, setups = closed_loop(workload, instances, seconds, trace)
    attempted, failures = check_answers(workload, instances, samples)
    if trace:
        values = per_layer(samples, [m["name"] for m in section])
        write_trace(workload, seed, samples)
    else:
        values = end_to_end(samples, setups)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section},
    }
    diagnostics = {
        "samples": len(samples),
        "sample_wall_s": [s["wall_s"] for s in samples],
        "instance_s": {inst["id"]: statistics.median(s["instance_s"][i] for s in samples)
                       for i, inst in enumerate(instances)},
        "cpu_s": statistics.median(s["cpu_s"] for s in samples),
        "direct_s": statistics.median(s["direct_s"] for s in samples),
        "fail_ratio": result["failed"] / attempted,
        "failures": failures,
    }
    return result, diagnostics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not modgb_source_present():
        print("error: no modgb source under %s; run from a full checkout" % ROOT, file=sys.stderr)
        return 2
    result, diag = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, m in result["metrics"].items():
        print("%-48s %14.6g %s" % (name, m["value"], m["unit"]), file=sys.stderr)
    print("%-48s %14d  (wall_s %s)" % ("samples", diag["samples"], " ".join(
        "%.3f" % w for w in diag["sample_wall_s"])), file=sys.stderr)
    for name, unit in (("cpu_s", "s"), ("direct_s", "s"), ("fail_ratio", "ratio")):
        print("%-48s %14.6g %s" % (name, diag[name], unit), file=sys.stderr)
    for inst_id, t in diag["instance_s"].items():
        print("%-48s %14.6g s" % ("  " + inst_id, t), file=sys.stderr)
    for f in diag["failures"]:
        print("WRONG: " + f, file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
