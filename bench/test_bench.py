"""Tests of the benchmark harness itself: seeding, relabelling, tracing."""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import speed
import workloads

sys.path.insert(0, str(run.SRC))
import ringcode  # noqa: E402
import ringcode.cli  # noqa: E402,F401

SMALL_RINGS = ("GF(2)", "GF(3)", "GF(4)", "Z(4)", "D(2)", "GF(2)xGF(2)")


def _cheap_jobs(seed: int):
    built = workloads.build("solve", ringcode, seed)
    return [job for job in built.jobs if job.name.startswith("choose_two(2) over Z(4)")]


def _bindings() -> dict:
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name == "ringcode" or name.startswith("ringcode.")
        for attr, value in vars(mod).items()
        if callable(value)
    }


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_same_job_list(name):
    first = workloads.build(name, ringcode, 7)
    second = workloads.build(name, ringcode, 7)
    assert [job.name for job in first.jobs] == [job.name for job in second.jobs]
    other = workloads.build(name, ringcode, 8)
    assert sorted(job.name for job in other.jobs) == sorted(job.name for job in first.jobs)


def test_seed_relabels_networks_deterministically():
    net = ringcode.choose_two(4)
    a = workloads.relabel(net, random.Random(3), ringcode.network)
    b = workloads.relabel(net, random.Random(3), ringcode.network)
    c = workloads.relabel(net, random.Random(4), ringcode.network)
    assert a == b and a != c
    assert not set(a.nodes) & set(net.nodes)


@pytest.mark.parametrize("ring", SMALL_RINGS)
def test_relabelled_small_cases_keep_verdicts(ring):
    spec = ringcode.parse_ring(ring)
    for n in (2, 3, 4):
        net = ringcode.choose_two(n)
        want = workloads.choose_two_solvable(n, spec, ringcode.rings)
        assert (ringcode.solve_brute(net, spec) is not None) == want
        for seed in (1, 2):
            relabelled = workloads.relabel(net, random.Random(seed), ringcode.network)
            code = ringcode.solve_brute(relabelled, spec)
            assert (code is not None) == want, (ring, n, seed)
            if code is not None:
                assert ringcode.verify(relabelled, code)


def test_residue_field_rule():
    rings = ringcode.rings
    sizes = {
        "GF(4)xGF(3)": [4, 3],
        "Z(12)": [2, 3],
        "D(3)": [3],
        "Z(9)": [3],
        "GF(2^5)": [32],
    }
    for text, want in sizes.items():
        assert workloads.residue_field_sizes(ringcode.parse_ring(text), rings) == want


def test_wrong_verdict_fails_the_check():
    job = _cheap_jobs(1)[0]
    assert job.check(job.run()) is not None
    with pytest.raises(workloads.CheckFailed):
        job.check(None)


def test_traced_pass_restores_every_binding():
    before = _bindings()
    tracer = spans.Tracer()
    tracer.prepare()
    assert ("ringcode.network", "add") in tracer.wrapped_names()
    result = run.run_pass(_cheap_jobs(1), tracer)
    assert not result.failures
    assert tracer.counts["network.solve_brute"][0] == 3
    assert tracer.counts["rings.mul"][0] > 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_every_job_time_is_scaled():
    result = run.run_pass(_cheap_jobs(1))
    assert len(result.scaled_s) == len(result.job_s) == 3
    assert all(s > 0 for s in result.scaled_s)
    ref = speed.REFERENCE_S
    assert speed.factor(ref, ref) == 1.0
    assert speed.factor(ref, 3 * ref) == 0.5**speed.EXPONENT


def test_traced_call_counts_repeat_for_a_seed():
    counts = []
    for _ in range(2):
        tracer = spans.Tracer()
        tracer.prepare()
        run.run_pass(_cheap_jobs(5), tracer)
        metrics = tracer.layer_metrics()
        counts.append({k: v for k, v in metrics.items() if k.endswith(".calls")})
    assert counts[0] == counts[1]
    assert counts[0]["network.decode_search.calls"] > 0


def test_function_gone_from_library_is_reported_as_zero(monkeypatch):
    monkeypatch.delattr(ringcode.network, "product_code")
    tracer = spans.Tracer()
    tracer.prepare()
    assert tracer.missing == ["network.product_code"]
    assert tracer.layer_metrics()["network.product_code.s"] == 0


def test_declared_workloads_and_metrics():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in declared["workloads"]) == workloads.WORKLOADS
    tracer = spans.Tracer()
    tracer.prepare()
    computed = set(tracer.layer_metrics()) | {
        "rings.add.ns_per_op",
        "rings.mul.ns_per_op",
        "trace.overhead_s",
    }
    assert {m["name"] for m in declared["per_layer"]} <= computed


def test_fails_without_sources(tmp_path: Path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "theory", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
