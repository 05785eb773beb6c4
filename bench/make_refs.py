"""Regenerate bench/refs.json, the benchmark's frozen references.

    PYTHONPATH=src python3 bench/make_refs.py

The references were computed once, from unrelabeled inputs, and are then
frozen: the benchmark checks later code against them.  Every value is an
isomorphism invariant.  Rerun this only when a workload's inputs change, and
compare the new file with the old one.  About a minute on two cores.
"""

from __future__ import annotations

import json
import sys

from latmod import catalog, congruence, construct, core, rank, tensor

import workloads as wl

# figures stated for these inputs before the benchmark existed
KNOWN = {
    "fano_m3_size": 1090,
    "M3[M7]": {"triples": 8_914_095,
               "histogram": {"0": 3_224_817, "1": 1_778_868, "2": 3_711_330, "3": 199_080}},
    "fano_table": [["<3,6,4>", "<3,457,2>", "<7,2,561>"],
                   ["<3,6,4>", "<3,457,2>", "<713,124,561>"],
                   ["<346,346,346>", "<3,457,2>", "<713,124,561>"],
                   ["<346,346,346>", "<713,457,672>", "<713,124,561>"],
                   ["<PL,346,346>", "<713,457,672>", "<713,124,561>"]],
}


def con_ji(lat) -> int:
    """|J(Con L)|."""
    return len(core.join_irreducibles(congruence.all_congruences(lat).lattice))


def census_refs() -> dict:
    lats = [lat for n in range(1, wl.SMALL_MAX + 1) for lat in catalog.enumerate_lattices(n)]
    lats += [catalog.random_c1c4(s) for s in range(wl.GRID_POOL)]
    out = {}
    for lat in lats:
        rr = rank.rank_report(lat)
        k = construct.m3_of(lat)
        con = congruence.all_congruences(lat)
        out[wl.input_key(core.serialize(lat))] = {
            "n": lat.n, "modular": core.is_modular(lat),
            "distributive": core.is_distributive(lat), "height": lat.height(),
            "rank": rr.rank, "histogram": wl.histogram_json(rr.histogram), "m3_size": len(k),
            "max_closure_index": k.max_closure_index, "con_size": len(con),
            "con_ji": len(core.join_irreducibles(con.lattice))}
    return out


def plane_refs() -> dict:
    k = construct.m3_of(catalog.fano())
    start = rank.Triple(*(k.index[tuple(k.base.index_of(s) for s in name[1:-1].split(","))]
                          for name in KNOWN["fano_table"][0]))
    trace = rank.closure3(k.lattice, start)
    out = {"fano": {"m3_size": len(k), "max_closure_index": k.max_closure_index,
                    "height": k.lattice.height(),
                    "table": [[k.tuple_name(e) for e in row]
                              for row in trace.iterates[:len(KNOWN["fano_table"])]]}}
    for m in wl.FULL_SCAN_KS:
        rr = rank.rank_report(construct.m3_of(catalog.m_k(m)).lattice)
        out[f"M3[M{m}]"] = {"rank": rr.rank, "triples": rr.triple_count,
                            "histogram": wl.histogram_json(rr.histogram)}
    res = rank.antichain_rank_scan(construct.m3_of(catalog.m_k(wl.ANTICHAIN_K)).lattice)
    out[f"M3[M{wl.ANTICHAIN_K}]"] = {"triples": res.triple_count,
                                     "histogram": wl.histogram_json(res.histogram)}
    return out


def verify_refs() -> dict:
    bases = {}
    for name in sorted(set(wl.CPE_BASES + wl.REPR_POOL + wl.BRIDGE_BASES)):
        lat = catalog.by_name(name)
        k = construct.m3_of(lat).lattice
        bases[name] = {"n": lat.n, "covers": len(lat.covers()), "m3_covers": len(k.covers()),
                       "ji": len(core.join_irreducibles(lat)),
                       "con_ji": con_ji(lat), "m3_con_ji": con_ji(k)}
    cpe = {}
    for s in wl.CPE_BASES:
        for e in wl.EMBEDDINGS:
            rep = congruence.verify_cpe(catalog.by_name(s), e)
            cpe[f"{s}/{e}"] = {"passed": rep.passed, "base_con_count": rep.base_con_count,
                               "ext_con_count": rep.ext_con_count}
    reprs = {}
    for a in wl.REPR_POOL:
        for b in wl.REPR_POOL:
            rep = tensor.verify_repr_iso(catalog.by_name(a), catalog.by_name(b))
            reprs[f"{a}/{b}"] = {"passed": rep.passed, "hom_count": rep.hom_count,
                                 "ideal_count": rep.ideal_count}
    bridge = {}
    for s in wl.BRIDGE_BASES:
        rep = tensor.verify_m3_tensor_iso(catalog.by_name(s))
        bridge[s] = {"passed": rep.passed, "tensor_size": rep.tensor_size,
                     "triple_lattice_size": rep.triple_lattice_size}
    return {"bases": bases, "cpe": cpe, "repr": reprs, "bridge": bridge}


def main() -> int:
    refs = {"census": census_refs(), "plane": plane_refs(), "verify": verify_refs()}
    plane = refs["plane"]
    problems = []
    if plane["fano"]["m3_size"] != KNOWN["fano_m3_size"]:
        problems.append("|M3[Fano]|")
    if plane["fano"]["table"] != KNOWN["fano_table"]:
        problems.append("Fano iteration table")
    if plane["M3[M7]"] != KNOWN["M3[M7]"]:
        problems.append("M3[M7] antichain scan")
    failed = [k for sec in ("cpe", "repr", "bridge") for k, v in refs["verify"][sec].items()
              if not v["passed"]]
    if problems or failed:
        print(f"references disagree with known figures: {problems + failed}", file=sys.stderr)
        return 1
    with open(wl.REFS_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {wl.REFS_PATH}: {len(refs['census'])} census inputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
