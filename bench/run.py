"""latmod benchmark: one workload per run, closed loop, one job at a time.

    python3 bench/run.py --workload census|plane|verify --seed N --seconds S --trace 0|1

Run from the root of a checkout; latmod is imported from its src/ directory.
Set-up builds the workload's inputs from the seed SETUP_REPEATS times and
checks that each build is byte-identical.  Then the run makes passes over the
job list: at least one, and more while the next is expected to end within
--seconds.  Every job's outputs are checked against bench/refs.json.

--trace 0 prints the end-to-end metrics, measured with tracing off.  Their
times are in seconds at a fixed reference host speed: a probe samples the
shared host's speed every 20 ms throughout the run and each stretch of time
is rescaled by it (speed.py).  The details line holds the measured seconds.
--trace 1 traces set-up and every pass, prints the per-layer metrics, and
writes the spans to .bench_out/.  Its trace.overhead_frac is traced wall
time over untraced wall time, minus 1, where the untraced time is the traced
time less the tracer's own cost, measured by replaying the run's span and
counter operations.  (Comparing a traced pass with an untraced one measured
machine noise instead: on a shared 2-core machine, passes over the same
inputs differed by up to 6%.)

The last line of stdout is the result, one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The line before it holds the
run's details: environment, pass count, tail percentile, failures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import tempfile
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from statistics import median

from spans import Tracer, tail, tracer_cost
from speed import Sampler

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
LAYERS = ("catalog", "core", "construct", "rank", "congruence", "tensor", "symbolic", "cli")

# Job-latency percentiles are per-layer metrics, not end-to-end ones: on
# verify (46 jobs from 2 ms to 7 s, one pass a run) and plane (5 jobs) they
# moved 20-30% between runs, more than any allowed regression bound.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{f"{layer}.{m}": unit for layer in LAYERS for m, unit in
       (("calls", "count"), ("busy_s", "s"))},
    "core.parse_s": "s",
    "core.validate_s": "s",
    "core.serialize_s": "s",
    "core.height_s": "s",
    "core.elements": "count",
    "core.n3_per_s": "1/s",
    "construct.m3_s": "s",
    "construct.tuples": "count",
    "construct.pairs": "count",
    "construct.pairs_per_s": "1/s",
    "construct.max_closure_index": "count",
    "rank.full_s": "s",
    "rank.antichain_s": "s",
    "rank.triples": "count",
    "rank.triples_per_s": "1/s",
    "rank.antichain_share": "ratio",
    "rank.j2_speedup": "ratio",
    "congruence.cpe_s": "s",
    "congruence.all_s": "s",
    "congruence.principal": "count",
    "congruence.found": "count",
    "congruence.generator_yield": "ratio",
    "tensor.repr_s": "s",
    "tensor.bridge_s": "s",
    "tensor.homs": "count",
    "tensor.bi_ideals": "count",
    "tensor.hom_yield": "ratio",
    "symbolic.steps": "count",
    "symbolic.steps_per_s": "1/s",
    "catalog.lattices": "count",
    "cli.exit_input": "count",
    "cli.unexpected": "count",
    "bench.self_s": "s",
    "bench.job_p50_ms": "ms",
    "bench.job_tail_ms": "ms",
    "bench.failed_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


@dataclass
class Pass:
    wall: float    # measured, probes left out
    cpu: float     # measured, probes left out
    scaled: float  # wall at the reference host speed
    durations: list


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    failures: Counter = field(default_factory=Counter)
    examples: dict = field(default_factory=dict)

    def record(self, name: str, problems, raised: bool):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.wrong += not raised
            self.failures[name] += 1
            self.examples.setdefault(name, problems[0])


def run_pass(jobs, tracer, outcome: Outcome, pass_no: int, sampler=None) -> Pass:
    durations = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for jid, job in enumerate(jobs):
        t0 = time.perf_counter()
        raised = False
        try:
            with tracer.span("job", job=f"{pass_no}:{jid}"):
                problems = job.run(tracer)
        except Exception as exc:  # a job that raises counts as failed; the run goes on
            raised = True
            problems = ["raised " + "".join(traceback.format_exception_only(exc)).strip()]
        durations.append(time.perf_counter() - t0)
        outcome.record(job.name, problems, raised)
    wall1, cpu1 = time.perf_counter(), time.process_time()
    if sampler is None:
        return Pass(wall1 - wall0, cpu1 - cpu0, wall1 - wall0, durations)
    probe_wall, probe_cpu = sampler.probed(wall0, wall1)
    return Pass(wall1 - wall0 - probe_wall, cpu1 - cpu0 - probe_cpu,
                sampler.scaled(wall0, wall1), durations)


def end_to_end(setup_s: float, passes: list) -> dict:
    """Times in seconds at the reference host speed (see speed.py): the
    pass's CPU time is scaled by the same factor as its wall time."""
    return {
        "setup_s": setup_s,
        "wall_s": median([p.scaled for p in passes]),
        "cpu_s": median([p.cpu * p.scaled / p.wall for p in passes]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def job_latency(passes: list) -> dict:
    """Median job time and the tail rule's percentile, each the median over
    the passes."""
    tails = [tail(p.durations) for p in passes]
    return {"job_p50_ms": 1000 * median([median(p.durations) for p in passes]),
            "job_tail_ms": 1000 * median([v for _, v in tails]),
            "job_tail_pct": tails[0][0], "jobs_per_pass": len(passes[0].durations)}


def per_layer(setup_tracer, pass_tracer, passes: int, latency: dict,
              overhead: float, failed_frac: float) -> dict:
    """Per-layer metrics of one set-up plus one pass (the mean over the
    passes)."""
    dur, calls, busy, counts, maxima = (defaultdict(float) for _ in range(5))
    bench_self = 0.0
    for tracer, weight in ((setup_tracer, 1.0), (pass_tracer, 1.0 / passes)):
        for name, value in tracer.maxima.items():
            maxima[name] = max(maxima[name], value)
        for sp, own in zip(tracer.spans, tracer.self_times()):
            if sp.name == "job":
                bench_self += weight * own
                continue
            dur[sp.name] += weight * sp.duration
            calls[sp.layer] += weight
            busy[sp.layer] += weight * sp.duration
        for name, value in tracer.counts.items():
            counts[name] += weight * value

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.busy_s"] = busy[layer]
    parse_s, validate_s = dur["core.parse"], dur["core.validate"]
    m3_s = dur["construct.m3_of"]
    full_s = dur["rank.rank_report"]
    j1, j2 = dur["rank.antichain_rank_scan.j1"], dur["rank.antichain_rank_scan.j2"]
    out.update({
        "core.parse_s": parse_s,
        "core.validate_s": validate_s,
        "core.serialize_s": dur["core.serialize"],
        "core.height_s": dur["core.height"],
        "core.elements": counts["core.elements"],
        "core.n3_per_s": ratio(counts["core.n3"], parse_s + validate_s),
        "construct.m3_s": m3_s,
        "construct.tuples": counts["construct.tuples"],
        "construct.pairs": counts["construct.pairs"],
        "construct.pairs_per_s": ratio(counts["construct.pairs"], m3_s),
        "construct.max_closure_index": maxima["construct.max_closure_index"],
        "rank.full_s": full_s,
        "rank.antichain_s": j1 + j2,
        "rank.triples": counts["rank.triples"],
        "rank.triples_per_s": ratio(counts["rank.triples"], full_s + j1 + j2),
        "rank.antichain_share": ratio(counts["rank.antichain_triples"], counts["rank.triples"]),
        "rank.j2_speedup": ratio(j1, j2),
        "congruence.cpe_s": dur["congruence.verify_cpe"],
        "congruence.all_s": dur["congruence.all_congruences"],
        "congruence.principal": counts["congruence.principal"],
        "congruence.found": counts["congruence.found"],
        "congruence.generator_yield": ratio(counts["congruence.join_irreducible"],
                                            counts["congruence.principal"]),
        "tensor.repr_s": dur["tensor.verify_repr_iso"],
        "tensor.bridge_s": dur["tensor.verify_m3_tensor_iso"],
        "tensor.homs": counts["tensor.homs"],
        "tensor.bi_ideals": counts["tensor.bi_ideals"],
        "tensor.hom_yield": ratio(counts["tensor.homs"], counts["tensor.hom_candidates"]),
        "symbolic.steps": counts["symbolic.steps"],
        "symbolic.steps_per_s": ratio(counts["symbolic.steps"], busy["symbolic"]),
        "catalog.lattices": counts["catalog.lattices"],
        "cli.exit_input": counts["cli.exit_input"],
        "cli.unexpected": counts["cli.unexpected"],
        "bench.self_s": bench_self,
        "bench.job_p50_ms": latency["job_p50_ms"],
        "bench.job_tail_ms": latency["job_tail_ms"],
        "bench.failed_frac": failed_frac,
        "trace.overhead_frac": overhead,
    })
    return out


def environment(nproc: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
            "nproc": nproc, "cpu": cpu}


def cap_blas_threads(nproc: int):
    """Cap numpy's BLAS pools at nproc; must run before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 1 <= int(cur) <= nproc:
            os.environ[var] = str(nproc)


def parse_args(argv):
    p = argparse.ArgumentParser(description="latmod benchmark")
    p.add_argument("--workload", required=True, choices=("census", "plane", "verify"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "latmod", "__init__.py")):
        print(f"latmod sources not found under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    cap_blas_threads(nproc)
    sys.path.insert(0, SRC)
    trace = args.trace == 1
    # Untraced runs sample the host's speed throughout (see speed.py);
    # traced runs leave it out of their spans.
    sampler = None if trace else Sampler()
    try:
        if sampler:
            sampler.start()
        return measure(args, nproc, trace, sampler)
    finally:
        if sampler:
            sampler.stop()


def measure(args, nproc: int, trace: bool, sampler) -> int:
    def seconds(t0, t1):
        """Measured seconds from t0 to t1, probes left out, and the same
        at the reference host speed."""
        if sampler is None:
            return t1 - t0, t1 - t0
        return t1 - t0 - sampler.probed(t0, t1)[0], sampler.scaled(t0, t1)

    t0 = time.perf_counter()
    import latmod  # noqa: F401  (the import is part of set-up time)
    from workloads import WORKLOADS, load_refs
    import_s = seconds(t0, time.perf_counter())
    if not os.path.abspath(latmod.__file__).startswith(SRC + os.sep):
        print(f"latmod imported from {latmod.__file__}, not {SRC}", file=sys.stderr)
        return 2

    refs = load_refs()
    build = WORKLOADS[args.workload]
    setup_tracer, off = Tracer(trace), Tracer(False)
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        gen_s, digests = [], []
        for rep in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            work = build(args.seed, setup_tracer if rep == 0 else off, workdir, refs)
            gen_s.append(seconds(t0, time.perf_counter()))
            digests.append(work.digest)
        # (measured, scaled) pairs: the import plus the median build
        setup_s = [i + median(g) for i, g in zip(import_s, zip(*gen_s))]

        outcome = Outcome()
        passes = []
        tracer = Tracer(trace)
        start = time.perf_counter()
        while True:
            passes.append(run_pass(work.jobs, tracer, outcome, len(passes), sampler))
            elapsed = time.perf_counter() - start
            if elapsed + passes[-1].wall > args.seconds:
                break

    e2e = end_to_end(setup_s[1], passes)
    latency = job_latency(passes)
    failed_frac = outcome.failed / outcome.attempted
    deterministic = len(set(digests)) == 1
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(passes), **latency,
        "measured_s": {"setup_s": setup_s[0], "wall_s": median([p.wall for p in passes]),
                       "cpu_s": median([p.cpu for p in passes])},
        "probes": sampler.summary() if sampler else None,
        "deterministic_inputs": deterministic, "wrong_outputs": outcome.wrong,
        "failed_frac": failed_frac, "failures": dict(outcome.failures),
        "failure_examples": outcome.examples, "env": environment(nproc),
    }
    if trace:
        cost = tracer_cost(len(tracer.spans), tracer.adds)
        traced_wall = sum(p.wall for p in passes)
        overhead = traced_wall / (traced_wall - cost) - 1
        values = per_layer(setup_tracer, tracer, len(passes), latency, overhead, failed_frac)
        units = PER_LAYER
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"details": details, "setup": setup_tracer.dump(),
                       "passes": tracer.dump(), "counts": {**tracer.counts, **tracer.maxima}}, fh)
        details["trace_file"] = os.path.relpath(path, ROOT)
        details["end_to_end"] = e2e
    else:
        values, units = e2e, END_TO_END
    print(json.dumps(details))
    print(json.dumps({
        "correct": deterministic and outcome.wrong == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
