"""Self-tests of the benchmark harness.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
import workloads as wl  # noqa: E402
from latmod import catalog, core  # noqa: E402
from spans import Span, Tracer, span_self_time, tail, tail_percentile  # noqa: E402
import speed  # noqa: E402


# -- the tail rule ----------------------------------------------------------

def test_tail_percentile_is_highest_with_ten_beyond():
    for n in range(11, 3000):
        pct, rank = tail_percentile(n)
        assert n - rank >= 10, n
        tenths = round(pct * 10)
        if tenths < 1000:
            next_rank = -(-(tenths + 1) * n // 1000)
            assert n - next_rank < 10, n


def test_tail_percentile_examples():
    assert tail_percentile(443) == (97.7, 433)
    assert tail_percentile(46) == (78.2, 36)
    assert tail(range(1, 1001)) == (99.0, 990)
    assert tail([3.0, 1.0, 2.0]) == (100.0, 3.0)  # too few samples: the maximum


# -- self time --------------------------------------------------------------

def _span(name, start, end, parent=None):
    sp = Span(name, start, parent, None)
    sp.end = end
    return sp


def test_self_time_counts_overlapping_children_once():
    job = _span("job", 0.0, 10.0)
    children = [_span("a", 1.0, 4.0, 0), _span("b", 3.0, 6.0, 0), _span("c", 8.0, 12.0, 0)]
    # covered: [1, 6] and [8, 10] (c is clipped to the job) -> 7
    assert span_self_time(job, children) == pytest.approx(3.0)


def test_self_time_with_nested_spans(monkeypatch):
    ticks = iter([0.0, 1.0, 2.0, 3.0, 5.0, 6.0, 8.0, 9.0])
    monkeypatch.setattr("spans.time.perf_counter", lambda: next(ticks))
    tr = Tracer(True)
    with tr.span("job", job="0:0"):            # 0 .. 9
        with tr.span("core.parse"):             # 1 .. 5
            with tr.span("core.validate"):      # 2 .. 3
                pass
        with tr.span("rank.rank_report"):       # 6 .. 8
            pass
    assert [sp.parent for sp in tr.spans] == [None, 0, 1, 0]
    assert all(sp.job == "0:0" for sp in tr.spans)
    assert tr.self_times() == pytest.approx([9.0 - 4.0 - 2.0, 4.0 - 1.0, 1.0, 2.0])


def test_disabled_tracer_records_nothing():
    tr = Tracer(False)
    with tr.span("core.parse"):
        tr.add("core.elements", 5)
    assert tr.spans == [] and not tr.counts


def test_per_layer_sums_are_per_pass_and_maxima_are_not_averaged():
    tr = Tracer(True)
    for value in (3, 2):
        tr.peak("construct.max_closure_index", value)
        tr.add("construct.tuples", 10)
    out = run.per_layer(Tracer(True), tr, 2, {"job_p50_ms": 1.0, "job_tail_ms": 2.0}, 0.0, 0.0)
    assert out["construct.max_closure_index"] == 3
    assert out["construct.tuples"] == 10
    assert set(out) == set(run.PER_LAYER)


# -- negative control -------------------------------------------------------

def test_wrong_output_and_wrong_exit_code_each_count_as_failed(tmp_path):
    lat = list(catalog.enumerate_lattices(5))[-1]
    text = core.serialize(lat)
    ref = wl.load_refs()["census"][wl.input_key(text)]
    covers = len(lat.covers())
    good = tmp_path / "good.json"
    good.write_text(text)
    jobs = [
        wl.Job("accept", wl.accepted_job(text, ref, covers, grid=False)),
        wl.Job("wrong-output", wl.accepted_job(text, dict(ref, height=ref["height"] + 1),
                                               covers, grid=False)),
        # a valid file exits 0, not the bad-input code the job expects
        wl.Job("wrong-exit", wl.rejected_job(str(good))),
    ]
    outcome = run.Outcome()
    run.run_pass(jobs, Tracer(False), outcome, 0)
    assert (outcome.attempted, outcome.failed, outcome.wrong) == (3, 2, 2)
    assert set(outcome.failures) == {"wrong-output", "wrong-exit"}


# -- host speed sampling ---------------------------------------------------

def _sampler(starts, times):
    sampler = speed.Sampler()
    sampler.starts, sampler.times, sampler.cpu_times = starts, times, times
    return sampler


def test_scaled_time_leaves_probes_out_and_rescales_each_stretch(monkeypatch):
    monkeypatch.setattr("speed.REFERENCE_S", 0.5)
    monkeypatch.setattr("speed.NEIGHBOURS", 1)
    # probes of 0.5 s at t = 1 and 3: the reference speed, so only the
    # probes' own time is taken out
    steady = _sampler([1.0, 3.0], [0.5, 0.5])
    assert steady.scaled(0.0, 5.0) == pytest.approx(4.0)
    assert steady.probed(0.0, 5.0) == (1.0, 1.0)
    assert steady.probed(2.0, 5.0) == (0.5, 0.5)
    # the host at half speed after t = 2: the stretch up to the second
    # probe takes its local speed from both probes (the median of 0.5 and
    # 1.0), the stretch after it from the second alone
    slow = _sampler([1.0, 3.0], [0.5, 1.0])
    want = 1.0 + (3.0 - 1.5) * 0.5 / 0.75 + (5.0 - 4.0) * 0.5 / 1.0
    assert slow.scaled(0.0, 5.0) == pytest.approx(want)


def test_sampler_probes_a_running_pass_and_its_times_leave_them_out():
    def busy(tr):
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
        return []

    sampler = speed.Sampler()
    sampler.start()
    try:
        done = run.run_pass([wl.Job("busy", busy)] * 3, Tracer(False), run.Outcome(), 0, sampler)
    finally:
        sampler.stop()
    assert len(sampler.times) >= 0.3 / speed.EVERY_S / 2
    probed = sum(sampler.times)
    assert done.wall + probed == pytest.approx(sum(done.durations), rel=0.01)
    assert done.scaled > 0


# -- seed determinism -------------------------------------------------------

def _census(seed, tmp_path):
    work = tmp_path / f"w{seed}"
    work.mkdir(exist_ok=True)
    return wl.census(seed, Tracer(False), str(work), wl.load_refs())


def test_same_seed_gives_identical_inputs_and_other_seeds_the_same_invariants(tmp_path):
    a, b = _census(3, tmp_path), _census(3, tmp_path)
    assert a.digest == b.digest
    assert [j.name for j in a.jobs] == [j.name for j in b.jobs]
    c = _census(4, tmp_path)
    assert c.digest != a.digest
    for work in (a, c):
        accepted = [j for j in work.jobs if j.name == "accept:small"][:40]
        accepted += [j for j in work.jobs if j.name == "accept:grid"][:2]
        outcome = run.Outcome()
        run.run_pass(accepted, Tracer(False), outcome, 0)
        assert outcome.failed == 0, outcome.examples


@pytest.mark.parametrize("name", ["plane", "verify"])
def test_lattice_workloads_are_deterministic(name, tmp_path):
    refs = wl.load_refs()
    build = wl.WORKLOADS[name]
    one, two = (build(7, Tracer(False), str(tmp_path), refs) for _ in range(2))
    assert one.digest == two.digest
    assert build(8, Tracer(False), str(tmp_path), refs).digest != one.digest


# -- BENCHMARK.json and the command line -----------------------------------

def test_metric_tables_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(wl.WORKLOADS)


def test_fails_without_a_result_outside_a_full_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "verify", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""
