"""Tests of the benchmark itself (not part of the library's test suite).

    python3 -m pytest -q bench/test_bench.py

They start sample processes, so they take about a minute.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

LAYERS = [m["name"] for m in run.load_spec()["per_layer"]]


def traced_sample(workload, seed):
    insts = workloads.instances(workload, seed)
    sample = run.spawn_sample(workload, insts, True)
    return insts, tracing.layer_metrics(sample, LAYERS)


def test_instances_follow_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.instances(name, 3) == workloads.instances(name, 3)
    assert workloads.instances("fan_delta", 3) != workloads.instances("fan_delta", 4)


def test_samples_are_isolated_from_process_global_caches():
    # A second sample of the same instances would find reduction_tuple's
    # default _cache or fan._FAN_CACHE filled if it shared a process; in a
    # fresh interpreter every sample does the whole work again.
    insts, first = traced_sample("fan_delta", 1)
    _, second = traced_sample("fan_delta", 1)
    for m in (first, second):
        # one seed cone per ideal: every universal_denominator enumerated its fan
        assert m["gb_field.buchberger_reduced.QQ-degrevlex.calls"] == len(insts)
        assert m["gb_field.buchberger_reduced.QQ-matrix.calls"] == m["fan.flips"]
    assert first["fan.cones"] == second["fan.cones"]

    insts, m = traced_sample("detect_elim", 1)
    primes = len(insts[0]["primes"])
    assert m["primes.reduction_tuple.calls"] == primes
    assert m["gb_field.buchberger_reduced.Fp-elim.calls"] == primes
    assert m["gb_field.buchberger_reduced.QQ-elim.calls"] == 1


def test_one_fp_basis_per_prime_attempted():
    insts, m = traced_sample("modular_lex", 1)
    assert m["pipeline.primes_attempted"] > 0
    assert m["gb_field.buchberger_reduced.Fp-lex.calls"] == m["pipeline.primes_attempted"]
    assert m["pipeline.run_prime.calls"] == m["pipeline.primes_attempted"]
    # one rational sigma-basis per ideal, reused by every prime through Ideal's cache
    assert m["gb_field.buchberger_reduced.QQ-degrevlex.calls"] == len(insts)


def test_traced_counts_repeat_for_a_seed():
    spec = {m["name"]: m["unit"] for m in run.load_spec()["per_layer"]}
    _, first = traced_sample("fan_delta", 2)
    _, second = traced_sample("fan_delta", 2)
    counts = [n for n, unit in spec.items() if unit != "s"]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


def test_oracle_rejects_wrong_answers():
    fan_insts = workloads.instances("fan_delta", 1)
    twelve = fan_insts[0]
    assert twelve["id"] == "fan%s" % (workloads.TWELVE_CONE,)
    check = oracle.Oracle("fan_delta")
    syms, gens = oracle.parse_ideal(twelve["text"])
    cones = [
        [[[list(pp), str(c)] for pp, c in g] for g in oracle.reduced_basis(syms, gens, order)]
        for order in ("lex", "grevlex")
    ]
    # only two of the twelve cones: Delta is then 4, not the golden 28
    delta = oracle.den([g for c in cones for g in oracle.basis_set(c)])
    assert "twelve-cone" in check.check(twelve, {"delta": str(delta), "cones": cones})
    assert "raised" in check.check(twelve, {"error": "RuntimeError: budget"})

    rad = workloads.instances("strong_zz", 1)[0]
    wrong = {"rad_den": "2", "rad_lcm": "2", "holds": True}
    assert oracle.Oracle("strong_zz").check(rad, wrong)

    graph = workloads.instances("detect_elim", 1)[0]
    names = [str(s) for s in oracle.parse_ideal(graph["text"])[0]]
    verdicts = [{"prime": p, "status": "UNDECIDED", "tuple": oracle.golden_tuple(names, p)}
                for p in graph["primes"]]
    assert "expected TAU_BAD_CERTIFIED" in oracle.Oracle("detect_elim").check(
        graph, {"verdicts": verdicts})


def test_fails_without_the_library_source(tmp_path):
    root = os.path.dirname(HERE)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.load(open(os.path.join(root, "BENCHMARK.json")))
    cmd = spec["command"] + ["--workload", "fan_delta", "--seed", "1", "--seconds", "1",
                             "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
