"""The three benchmark workloads: census, plane and verify.

`WORKLOADS[name](seed, tracer, workdir, refs)` builds a workload's inputs
from the seed and returns a `Workload`: the jobs in the order one pass runs
them, and a digest of every generated input.  The seed relabels every input
lattice by a permutation applied here, not by latmod; in census and verify
it also picks and reorders the inputs.  Every reference value in refs.json
is an isomorphism invariant, so it holds for every seed.

A job calls latmod's public API, one span per call, and returns its
mismatches against the references and the independent oracles below; an
empty list means the job's outputs are correct.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from latmod import catalog, cli, congruence, construct, core, rank, symbolic, tensor

REFS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")

# census: every labeled lattice up to SMALL_MAX elements, plus GRID_SAMPLE
# seeded 3x3 grids out of the pool random_c1c4(0 .. GRID_POOL-1), plus
# REJECT_PER_KIND corrupted inputs of each kind fed through the CLI.
SMALL_MAX = 7
GRID_POOL = 96
GRID_SAMPLE = 48
REJECT_KINDS = ("truncated", "cycle", "unbounded", "directory")
REJECT_PER_KIND = 6
EXIT_INPUT = 3  # the CLI's documented exit code for bad input

# plane: the 1,090-element M3[Fano], full scans of M3[M_k], and the
# antichain scan of M3[M7] with one and then two threads.
FULL_SCAN_KS = (4, 5, 6)
ANTICHAIN_K = 7
SCAN_JOBS = (1, 2)

# verify: the repro suite's verification checks.
CPE_BASES = ("c2", "c3", "c2sq", "n5", "m3", "m4", "witness7")
EMBEDDINGS = ("atom", "diag")
REPR_POOL = ("c2", "c3", "c2sq", "m3", "n5")
BRIDGE_BASES = ("c2", "c2sq", "c3", "n5", "m4")
DIVERGENCE_STEPS = 64
INF = float("inf")


@dataclass
class Job:
    name: str
    run: Callable  # run(tracer) -> list of mismatch messages


@dataclass
class Workload:
    jobs: list
    digest: str


def load_refs() -> dict:
    with open(REFS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def input_key(text: str) -> str:
    """Reference key of a catalog lattice: a hash of its serialized form."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def permutation(rng: random.Random, n: int) -> list[int]:
    """perm[new index] = old index."""
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def relabel(tracer, lat, perm):
    """The lattice with element perm[i] renumbered i; names move along."""
    p = np.asarray(perm)
    inv = np.empty_like(p)
    inv[p] = np.arange(p.size)
    ix = np.ix_(p, p)
    with tracer.span("core.FiniteLattice"):
        return core.FiniteLattice(lat.leq[ix].copy(),
                                  inv[lat.meet_table[ix]].astype(np.int32),
                                  inv[lat.join_table[ix]].astype(np.int32),
                                  names=[lat.names[o] for o in perm], name=lat.name)


def relabel_json(text: str, perm) -> str:
    """The same relabeling, applied to lattice JSON."""
    doc = json.loads(text)
    inv = [0] * len(perm)
    for new, old in enumerate(perm):
        inv[old] = new
    doc["elements"] = [doc["elements"][o] for o in perm]
    doc["covers"] = sorted([inv[lo], inv[hi]] for lo, hi in doc["covers"])
    return json.dumps(doc)


def balanced_triples(meet) -> int:
    """Oracle: triples whose three pairwise meets agree, counted straight
    from a meet table.  Equals |M3[L]| and the index-0 bar of L's
    stabilization histogram."""
    m = np.asarray(meet)
    total = 0
    for x in range(m.shape[0]):
        mx = m[x]
        total += int(np.count_nonzero((mx[:, None] == mx[None, :]) & (mx[:, None] == m)))
    return total


def _digest_lattice(h, lat):
    for arr in (lat.leq, lat.meet_table, lat.join_table):
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update("\0".join(lat.names).encode())


def _diff(got: dict, want: dict) -> list[str]:
    return [f"{key}: got {got[key]!r}, want {want[key]!r}"
            for key in got if got[key] != want[key]]


def histogram_json(hist: dict) -> dict:
    """A stabilization histogram as refs.json stores it."""
    return {str(i): int(c) for i, c in sorted(hist.items())}


# -- census ----------------------------------------------------------------

def accepted_job(text: str, want, covers: int, grid: bool) -> Callable:
    def run(tr):
        if want is None:
            return ["no frozen reference for this input"]
        with tr.span("core.parse"):
            lat = core.parse(text)
        with tr.span("core.validate"):
            lat.validate()
        with tr.span("core.is_modular"):
            modular = core.is_modular(lat)
        with tr.span("core.is_distributive"):
            distributive = core.is_distributive(lat)
        with tr.span("core.height"):
            height = lat.height()
        with tr.span("rank.rank_report"):
            rr = rank.rank_report(lat)
        with tr.span("construct.m3_of"):
            k = construct.m3_of(lat)
        with tr.span("congruence.all_congruences"):
            con = congruence.all_congruences(lat)
        problems = _diff({"n": lat.n, "modular": modular, "distributive": distributive,
                          "height": height, "rank": rr.rank,
                          "histogram": histogram_json(rr.histogram), "m3_size": len(k),
                          "max_closure_index": k.max_closure_index,
                          "con_size": len(con)}, want)
        balanced = balanced_triples(lat.meet_table)
        if len(k) != balanced or rr.histogram.get(0) != balanced:
            problems.append(f"oracle: {balanced} balanced triples, |M3| = {len(k)}, "
                            f"index-0 bar = {rr.histogram.get(0)}")
        if grid and rr.rank > 3:
            problems.append(f"oracle: a (C1)-(C4) grid has rank {rr.rank} > 3")
        n = lat.n
        tr.add("core.elements", n)
        tr.add("core.n3", n ** 3)
        tr.add("construct.tuples", len(k))
        tr.add("construct.pairs", len(k) ** 2)
        tr.peak("construct.max_closure_index", k.max_closure_index)
        tr.add("rank.triples", rr.triple_count)
        tr.add("congruence.principal", covers)
        tr.add("congruence.found", len(con))
        tr.add("congruence.join_irreducible", want["con_ji"])
        return problems
    return run


def rejected_job(path: str) -> Callable:
    def run(tr):
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), \
                    tr.span("cli.main"):
                code = cli.main(["validate", "--lattice", f"file:{path}"])
        except Exception:
            tr.add("cli.unexpected")
            raise
        if code != EXIT_INPUT:
            return [f"exit code {code}, want {EXIT_INPUT}"]
        tr.add("cli.exit_input")
        return []
    return run


def corrupt(kind: str, text: str) -> str:
    """A bad variant of lattice JSON with at least three elements."""
    if kind == "truncated":
        return text[:len(text) // 2]
    doc = json.loads(text)
    covers = doc["covers"]
    if kind == "cycle":
        lo, hi = covers[0]
        doc["covers"] = covers + [[hi, lo]]
    elif kind == "unbounded":
        # cut the top loose: it becomes a second minimal element
        top = next(e for e in range(len(doc["elements"])) if all(lo != e for lo, _ in covers))
        doc["covers"] = [c for c in covers if c[1] != top]
    else:
        raise ValueError(kind)
    return json.dumps(doc)


def census(seed: int, tracer, workdir: str, refs: dict) -> Workload:
    rng = random.Random(f"census/{seed}")
    want = refs["census"]
    sources = []
    for n in range(1, SMALL_MAX + 1):
        with tracer.span("catalog.enumerate_lattices"):
            lats = list(catalog.enumerate_lattices(n))
        tracer.add("catalog.lattices", len(lats))
        sources += [(False, lat) for lat in lats]
    for s in sorted(rng.sample(range(GRID_POOL), GRID_SAMPLE)):
        with tracer.span("catalog.random_c1c4"):
            sources.append((True, catalog.random_c1c4(s)))
        tracer.add("catalog.lattices")

    h = hashlib.sha256()
    jobs, texts = [], []
    for grid, lat in sources:
        with tracer.span("core.serialize"):
            text = core.serialize(lat)
        ref = want.get(input_key(text))
        covers = len(json.loads(text)["covers"])
        text = relabel_json(text, permutation(rng, lat.n))
        h.update(text.encode())
        jobs.append(Job("accept:grid" if grid else "accept:small",
                        accepted_job(text, ref, covers, grid)))
        if lat.n >= 3:
            texts.append(text)

    picks = iter(rng.sample(texts, REJECT_PER_KIND * (len(REJECT_KINDS) - 1)))
    for kind in REJECT_KINDS:
        for i in range(REJECT_PER_KIND):
            path = os.path.join(workdir, f"{kind}-{i}")
            if kind == "directory":
                os.makedirs(path, exist_ok=True)
            else:
                path += ".json"
                bad = corrupt(kind, next(picks))
                h.update(bad.encode())
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(bad)
            jobs.append(Job(f"reject:{kind}", rejected_job(path)))
    rng.shuffle(jobs)
    h.update(" ".join(job.name for job in jobs).encode())
    return Workload(jobs, h.hexdigest())


# -- plane -----------------------------------------------------------------

def fano_roundtrip(base, perm, want: dict) -> Callable:
    def run(tr):
        with tr.span("construct.m3_of"):
            k = construct.m3_of(base)
        with tr.span("core.serialize"):
            text = core.serialize(k.lattice)
        text = relabel_json(text, perm)
        with tr.span("core.parse"):
            lat = core.parse(text)
        with tr.span("core.validate"):
            lat.validate()
        with tr.span("core.height"):
            height = lat.height()
        ids = {name: i for i, name in enumerate(lat.names)}
        start = rank.Triple(*(ids[s] for s in want["table"][0]))
        with tr.span("rank.closure3"):
            trace = rank.closure3(lat, start, cap=3 * height + 1)
        table = [[lat.names[e] for e in row] for row in trace.iterates[:len(want["table"])]]
        problems = _diff({"m3_size": len(k), "max_closure_index": k.max_closure_index,
                          "height": height, "table": table}, want)
        balanced = balanced_triples(base.meet_table)
        if lat.n != balanced:
            problems.append(f"oracle: {balanced} balanced triples, parsed {lat.n} elements")
        tr.add("construct.tuples", len(k))
        tr.add("construct.pairs", len(k) ** 2)
        tr.peak("construct.max_closure_index", k.max_closure_index)
        tr.add("core.elements", lat.n)
        tr.add("core.n3", lat.n ** 3)
        return problems
    return run


def full_scan(lat, want: dict) -> Callable:
    def run(tr):
        with tr.span("rank.rank_report"):
            rr = rank.rank_report(lat)
        problems = _diff({"rank": rr.rank, "triples": rr.triple_count,
                          "histogram": histogram_json(rr.histogram)}, want)
        balanced = balanced_triples(lat.meet_table)
        if rr.histogram.get(0) != balanced:
            problems.append(f"oracle: {balanced} balanced triples, "
                            f"index-0 bar = {rr.histogram.get(0)}")
        tr.add("rank.triples", rr.triple_count)
        return problems
    return run


def antichain_scans(lat, want: dict) -> Callable:
    """The antichain scan with each job count in SCAN_JOBS: one job, so the
    two scans' shared noise stays out of the plane's median job time."""
    def run(tr):
        problems = []
        for jobs in SCAN_JOBS:
            with tr.span(f"rank.antichain_rank_scan.j{jobs}"):
                res = rank.antichain_rank_scan(lat, jobs=jobs)
            tr.add("rank.triples", res.triple_count)
            tr.add("rank.antichain_triples", res.triple_count)
            problems += [f"jobs={jobs}: {p}" for p in _diff(
                {"triples": res.triple_count, "histogram": histogram_json(res.histogram)}, want)]
        return problems
    return run


def plane(seed: int, tracer, workdir: str, refs: dict) -> Workload:
    rng = random.Random(f"plane/{seed}")
    want = refs["plane"]
    h = hashlib.sha256()
    with tracer.span("catalog.fano"):
        fano = catalog.fano()
    tracer.add("catalog.lattices")
    fano = relabel(tracer, fano, permutation(rng, fano.n))
    _digest_lattice(h, fano)
    json_perm = permutation(rng, want["fano"]["m3_size"])
    h.update(np.asarray(json_perm).tobytes())
    jobs = [Job("fano-roundtrip", fano_roundtrip(fano, json_perm, want["fano"]))]
    for k in FULL_SCAN_KS + (ANTICHAIN_K,):
        with tracer.span("catalog.m_k"):
            base = catalog.m_k(k)
        tracer.add("catalog.lattices")
        with tracer.span("construct.m3_of"):
            lat = construct.m3_of(base).lattice
        tracer.add("construct.tuples", lat.n)
        tracer.add("construct.pairs", lat.n ** 2)
        lat = relabel(tracer, lat, permutation(rng, lat.n))
        _digest_lattice(h, lat)
        key = f"M3[M{k}]"
        if k == ANTICHAIN_K:
            jobs.append(Job(f"antichain:{key}", antichain_scans(lat, want[key])))
        else:
            jobs.append(Job(f"full:{key}", full_scan(lat, want[key])))
    # The job order stays fixed: the heap's history, which the order sets,
    # moved peak RSS by up to 40% between seeds.
    return Workload(jobs, h.hexdigest())


# -- verify ----------------------------------------------------------------

def cpe_job(base, embedding: str, want: dict, info: dict) -> Callable:
    def run(tr):
        with tr.span("congruence.verify_cpe"):
            rep = congruence.verify_cpe(base, embedding)
        tr.add("congruence.principal", info["covers"] + info["m3_covers"])
        tr.add("congruence.found", rep.base_con_count + rep.ext_con_count)
        tr.add("congruence.join_irreducible", info["con_ji"] + info["m3_con_ji"])
        return _diff({"passed": rep.passed, "base_con_count": rep.base_con_count,
                      "ext_con_count": rep.ext_con_count}, want)
    return run


def repr_job(a, b, want: dict, info_a: dict) -> Callable:
    def run(tr):
        with tr.span("tensor.verify_repr_iso"):
            rep = tensor.verify_repr_iso(a, b)
        tr.add("tensor.homs", rep.hom_count)
        tr.add("tensor.bi_ideals", rep.ideal_count)
        tr.add("tensor.hom_candidates", b.n ** info_a["ji"])
        return _diff({"passed": rep.passed, "hom_count": rep.hom_count,
                      "ideal_count": rep.ideal_count}, want)
    return run


def bridge_job(base, want: dict) -> Callable:
    def run(tr):
        with tr.span("tensor.verify_m3_tensor_iso"):
            rep = tensor.verify_m3_tensor_iso(base)
        tr.add("tensor.homs", rep.tensor_size)
        tr.add("tensor.bi_ideals", rep.tensor_size)
        tr.add("tensor.hom_candidates", base.n ** 3)  # M3 has three join-irreducibles
        problems = _diff({"passed": rep.passed, "tensor_size": rep.tensor_size,
                          "triple_lattice_size": rep.triple_lattice_size}, want)
        balanced = balanced_triples(base.meet_table)
        if rep.tensor_size != balanced:
            problems.append(f"oracle: {balanced} balanced triples, "
                            f"|M3 (x) L| = {rep.tensor_size}")
        return problems
    return run


def fig2_job(tr):
    steps = DIVERGENCE_STEPS
    with tr.span("symbolic.fig2_divergence"):
        trace = symbolic.fig2_divergence(steps)
    tr.add("symbolic.steps", steps)
    want = [(("x", k), ("y0", 0), ("z", k)) for k in range(steps + 1)]
    if trace.stabilized or list(trace.iterates) != want:
        return ["fig2: iterates differ from (x_k, y0, z_k), k = 0.."
                f"{steps}, or the trace stabilized"]
    return []


def dhw_job(tr):
    steps = DIVERGENCE_STEPS
    with tr.span("symbolic.dhw_adjustment"):
        seq = symbolic.dhw_adjustment(steps)
    tr.add("symbolic.steps", steps)
    # closed forms of the iterates, independent of the step map
    want = [((0, INF), (1, INF), (INF, 1), (INF, 0))]
    for s in range(1, steps + 1):
        even, odd = 2 * ((s - 1) // 2) + 2, 2 * (s // 2) + 1
        want.append(((even, INF), (odd, INF), (INF, odd), (INF, even)))
    if [tuple(q) for q in seq] != want:
        return ["dhw: iterates differ from their closed forms"]
    return []


def verify(seed: int, tracer, workdir: str, refs: dict) -> Workload:
    rng = random.Random(f"verify/{seed}")
    want = refs["verify"]
    h = hashlib.sha256()
    bases = {}
    for name in sorted(set(CPE_BASES + REPR_POOL + BRIDGE_BASES)):
        with tracer.span("catalog.by_name"):
            lat = catalog.by_name(name)
        tracer.add("catalog.lattices")
        bases[name] = relabel(tracer, lat, permutation(rng, lat.n))
        _digest_lattice(h, bases[name])
    info = want["bases"]
    jobs = [Job(f"cpe:{s}:{e}", cpe_job(bases[s], e, want["cpe"][f"{s}/{e}"], info[s]))
            for s in CPE_BASES for e in EMBEDDINGS]
    jobs += [Job(f"repr:{a}:{b}", repr_job(bases[a], bases[b], want["repr"][f"{a}/{b}"],
                                           info[a]))
             for a in REPR_POOL for b in REPR_POOL]
    jobs += [Job(f"bridge:{s}", bridge_job(bases[s], want["bridge"][s]))
             for s in BRIDGE_BASES]
    jobs += [Job("fig2-divergence", fig2_job), Job("dhw-adjustment", dhw_job)]
    rng.shuffle(jobs)
    h.update(" ".join(job.name for job in jobs).encode())
    return Workload(jobs, h.hexdigest())


WORKLOADS = {"census": census, "plane": plane, "verify": verify}
