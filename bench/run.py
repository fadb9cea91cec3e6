"""Run one ringcode benchmark workload and print its metrics.

    python3 bench/run.py --workload solve [--seed 1] [--seconds 40] [--trace 0]

The workload runs as a closed loop in this one process: one job at a time,
one thread, no pools.  Passes over the job list repeat while another pass
fits in ``--seconds``, with at least ``MIN_PASSES`` passes and
``MIN_SAMPLES`` pooled job times.  ``ringcode`` is imported from ``src/``
next to this directory; without it the run exits with code 2 and prints no
result.

With ``--trace 0`` the end-to-end metrics of ``BENCHMARK.json`` are printed:
wall time of one pass (mean over passes), pooled per-job p50 and p90,
set-up time (a fresh import of ringcode plus input generation; median of
all set-ups, see ``timed_run``) and peak resident memory.  The times are
wall times scaled towards a fixed machine speed by reference samples taken
next to the work (see ``speed.py``); the unscaled ones are printed beside
them.  With ``--trace 1`` one untraced and one traced pass run, and the
per-layer metrics of ``BENCHMARK.json`` are printed; the spans are written to
``.bench_out/``.  Every job's answer is checked outside the timed region in
both modes.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import random
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import spans
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
SETUP_REPEATS = 5
MIN_SAMPLES = 100  # leaves at least 10 job times above p90
MIN_PASSES = 2
RING_OP_SAMPLE = 48  # elements per ring in the fixed add/mul batch
RING_OP_REPEATS = 5


@dataclass
class PassResult:
    wall_s: float = 0.0
    job_s: list[float] = field(default_factory=list)
    scaled_s: list[float] = field(default_factory=list)  # job_s in reference seconds
    failures: list[str] = field(default_factory=list)
    digest: str = ""  # sha256 of the canonical JSON of every checked output


def setup(workload: str, seed: int):
    """Import ringcode afresh and build the workload's inputs; timed."""
    for name in [m for m in sys.modules if m == "ringcode" or m.startswith("ringcode.")]:
        del sys.modules[name]
    gc.collect()  # free the previous set-up's modules and inputs untimed
    start = perf_counter()
    rc = importlib.import_module("ringcode")
    importlib.import_module("ringcode.cli")
    built = workloads.build(workload, rc, seed)
    return perf_counter() - start, rc, built


def run_pass(jobs, tracer: spans.Tracer | None = None) -> PassResult:
    result = PassResult()
    records = {}
    samples = [speed.sample()]  # reference samples, see speed.py
    gaps = []  # per job, the index of the sample taken before it
    since = 0.0
    for index, job in enumerate(jobs):
        out, error = None, None
        if tracer is not None:
            tracer.install(index)
        start = perf_counter()
        try:
            out = job.run()
        except Exception:  # a job that raises is a failed job, not a crash
            error = traceback.format_exc(limit=3)
        finally:
            elapsed = perf_counter() - start
            if tracer is not None:
                tracer.restore()
        result.job_s.append(elapsed)
        result.wall_s += elapsed
        gaps.append(len(samples) - 1)
        since += elapsed
        if since >= speed.SAMPLE_EVERY_S or index == len(jobs) - 1:
            samples.append(speed.sample())
            since = 0.0
        if error is None:
            try:
                records[job.name] = job.check(out)
            except workloads.CheckFailed as exc:
                error = str(exc)
            except Exception:
                error = traceback.format_exc(limit=3)
        if error is not None:
            result.failures.append(f"{job.name}: {error.strip()}")
    factors = [speed.factor(a, b) for a, b in zip(samples, samples[1:])]
    result.scaled_s = [t * factors[gap] for t, gap in zip(result.job_s, gaps)]
    text = json.dumps(sorted(records.items()), sort_keys=True, separators=(",", ":"))
    result.digest = hashlib.sha256(text.encode()).hexdigest()
    return result


def ring_op_ns(rc, specs, seed: int) -> dict[str, float]:
    """ns per add and per mul over a fixed batch on the workload's rings."""
    rings = rc.rings
    rng = random.Random(seed)
    batches = []
    for spec in specs:
        els = rings.elements(spec)
        sample = [rng.choice(els) for _ in range(RING_OP_SAMPLE)]
        batches.append([(a, b) for a in sample for b in sample])
    out = {}
    for op in ("add", "mul"):
        fn = getattr(rings, op)
        times = []
        for _ in range(RING_OP_REPEATS):
            start = perf_counter()
            for batch in batches:
                for a, b in batch:
                    fn(a, b)
            times.append(perf_counter() - start)
        ops = sum(len(batch) for batch in batches)
        out[f"rings.{op}.ns_per_op"] = statistics.median(times) / ops * 1e9
    return out


def load_declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def select(declared: list[dict], values: dict[str, float]) -> dict:
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise SystemExit(f"error: metrics not computed: {', '.join(missing)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def report(seed: int, metrics: dict, passes: list[PassResult], extra: list[str]) -> tuple[int, int]:
    attempted = sum(len(p.job_s) for p in passes)
    failures = [f for p in passes for f in p.failures]
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"seed {seed}")
    same = all(p.digest == passes[0].digest for p in passes)
    print(f"digest sha256:{passes[0].digest} ({'identical' if same else 'NOT identical'} across passes)")
    print(f"jobs attempted {attempted}, failed {len(failures)}")
    print(f"failed_share {len(failures) / attempted} ratio")
    for line in extra:
        print(line)
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    return attempted, len(failures)


def timed_run(workload: str, seed: int, seconds: float, declared: dict):
    """At least MIN_PASSES passes, and more while another fits in ``seconds``.

    Set-up runs SETUP_REPEATS times before the first pass, once before each
    later pass and SETUP_REPEATS times after the last, so its samples spread
    over the run.
    """
    setup_s = []  # (unscaled, scaled) seconds

    def set_up():
        before = speed.sample()
        elapsed, _rc, built = setup(workload, seed)
        setup_s.append((elapsed, elapsed * speed.factor(before, speed.sample())))
        return built

    for _ in range(SETUP_REPEATS):
        built = set_up()
    passes: list[PassResult] = []
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        passes.append(run_pass(built.jobs))
        now = perf_counter()
        samples = sum(len(p.job_s) for p in passes)
        enough = len(passes) >= MIN_PASSES and samples >= MIN_SAMPLES
        # stop before a pass that would overrun the measuring time
        if enough and now + (now - pass_start) - start > seconds:
            break
        built = set_up()
    for _ in range(SETUP_REPEATS):
        set_up()

    def times(pass_s, job_s, set_up_s):
        job_ms = [s * 1e3 for s in job_s]
        return {
            # The mean, not the median: with two or three passes the median
            # jumps between the speed levels a shared machine switches among.
            "wall_s": statistics.mean(pass_s),
            "job_p50_ms": statistics.median(job_ms),
            "job_p90_ms": statistics.quantiles(job_ms, n=10)[8],
            "setup_s": statistics.median(set_up_s),
        }

    values = times(
        [sum(p.scaled_s) for p in passes],
        [s for p in passes for s in p.scaled_s],
        [scaled for _, scaled in setup_s],
    )
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = select(declared["end_to_end"], values)
    unscaled = times(
        [p.wall_s for p in passes], [s for p in passes for s in p.job_s], [u for u, _ in setup_s]
    )
    extra = [
        f"passes {len(passes)}, jobs per pass {len(built.jobs)}, pass wall s "
        + " ".join(f"{p.wall_s:.3f}" for p in passes),
        f"job time samples {sum(len(p.job_s) for p in passes)} (p50 and p90 pooled over passes)",
        f"set-up samples {len(setup_s)}",
        "unscaled (plain wall time): " + ", ".join(f"{k} {v}" for k, v in unscaled.items()),
    ]
    return metrics, passes, extra


def traced_run(rc, built, seed: int, declared: dict):
    baseline = run_pass(built.jobs)
    tracer = spans.Tracer()
    tracer.prepare()
    traced = run_pass(built.jobs, tracer)
    values = tracer.layer_metrics()
    values.update(ring_op_ns(rc, built.rings, seed))
    values["trace.overhead_s"] = sum(traced.scaled_s) - sum(baseline.scaled_s)
    metrics = select(declared["per_layer"], values)
    out = ROOT / ".bench_out" / f"spans-{built.name}-seed{seed}.jsonl"
    tracer.write(out, [job.name for job in built.jobs])
    extra = [f"spans {len(tracer.spans)} written to {out.relative_to(ROOT)}"]
    extra += [f"not in ringcode, reported as 0: {name}" for name in tracer.missing]
    for module in sorted(set(spans.SPANNED) | set(spans.COUNTED)):
        calls = sum(c[0] for n, c in tracer.counts.items() if n.startswith(module + "."))
        if calls == 0:
            extra.append(
                f"absent on {built.name}: {module}.* (no job calls into ringcode.{module}; reported as 0)"
            )
    for layer, moves in spans.LAYER_MOVES.items():
        extra.append(f"layer {layer} -> {moves}")
    return metrics, [baseline, traced], extra


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ringcode" / "__init__.py").is_file():
        print(f"error: no ringcode sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    declared = load_declared()

    _elapsed, rc, built = setup(args.workload, args.seed)
    if not Path(rc.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported ringcode from {rc.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.trace:
        metrics, passes, extra = traced_run(rc, built, args.seed, declared)
    else:
        metrics, passes, extra = timed_run(args.workload, args.seed, args.seconds, declared)
    why = {w["name"]: w["why"] for w in declared["workloads"]}
    extra.append(f"workload {args.workload}: {why[args.workload]}")
    extra += [f"left out: {case}" for case in workloads.EXCLUDED[args.workload]]
    attempted, failed = report(args.seed, metrics, passes, extra)
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
