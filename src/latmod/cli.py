"""Command-line front end: lattice inspection, the rank engine, M3[L] and
M4[L] (the `catalog.by_name` specs m3[...] and m4[...]), congruence and
tensor reports, the divergence demos, and the reproduction suite."""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import catalog, congruence, construct, core, rank, symbolic, tensor
from .errors import ArgumentOutOfRange, LatticeError, SizeLimitExceeded, VerificationFailed

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INPUT = 3


def _int_at_least(low: int):
    """An argparse type: an integer no less than `low`."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in its messages
    return parse


def _emit(args, payload: dict):
    if args.report == "json":
        print(json.dumps(payload, indent=2, default=str))
    else:
        for key, val in payload.items():
            print(f"{key}: {val}")


def cmd_validate(args) -> int:
    lat = catalog.tables(args.lattice)
    lat.validate()  # M3[L]'s and M4[L]'s tables are built from their operations
    _emit(args, {"lattice": lat.name or args.lattice, "size": lat.n, "valid": True})
    return EXIT_OK


def cmd_info(args) -> int:
    lat = catalog.tables(args.lattice)
    r = rank.modularity_rank(lat, cap=args.cap)
    _emit(args, {
        "lattice": lat.name or args.lattice,
        "size": lat.n,
        "bottom": lat.names[lat.bottom],
        "top": lat.names[lat.top],
        "height": lat.height(),
        "modular": r == 1,  # gamma_1 is modularity
        "distributive": core.is_distributive(lat),
        "rank": r,
    })
    return EXIT_OK


def cmd_rank(args) -> int:
    lat = catalog.tables(args.lattice)
    rep = rank.rank_report(lat, cap=args.cap, jobs=args.jobs)
    _emit(args, {
        "lattice": lat.name or args.lattice,
        "rank": rep.rank,
        "extremal_triple": rep.witness_names,
        "stabilization_histogram": rep.histogram,
        "triples_scanned": rep.triple_count,
    })
    return EXIT_OK


def _tuple_lattice(lat, spec: str, what: str) -> construct.TupleLattice:
    if isinstance(lat, construct.TupleLattice):
        return lat
    raise ArgumentOutOfRange(f"{what} takes m3[...] or m4[...], not {spec!r}")


def cmd_build(args) -> int:
    k = _tuple_lattice(catalog.by_name(args.lattice), args.lattice, "build")
    # the file holds the tables: above the cap, fail before any other work
    tables = k.lattice if args.out else None
    tabled = len(k) <= construct.EAGER_TABLE_CAP
    payload = {"base": k.base.name or "?", "elements": len(k)}
    if args.stats or tabled:
        # without tables the depth may read the joins of all count^2 / 2
        # pairs (it stops at the largest key index), so only --stats asks
        payload["max_closure_index"] = k.max_closure_index
    if args.stats:
        # M3 spans only a base with two elements or more; the check reads
        # only the operations, so it runs also above the table cap
        spans = k.arity == 3 and k.base.n > 1
        if spans:
            construct.spanning_m3(k)
        payload["spanning_check"] = "ok" if spans else "n/a"
        if tabled:
            payload.update({
                "modular": core.is_modular(k.lattice),
                "distributive": core.is_distributive(k.lattice),
            })
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(core.serialize(tables))
        payload["out"] = args.out
    _emit(args, payload)
    return EXIT_OK


def cmd_con(args) -> int:
    lat = catalog.by_name(args.lattice)
    payload = {}
    if args.verify_cpe:
        k = _tuple_lattice(lat, args.lattice, "--verify-cpe")
        rep = congruence.verify_cpe(k.base, args.verify_cpe, k)
        payload = {"cpe_passed": rep.passed, "con_base": rep.base_con_count,
                   "con_extension": rep.ext_con_count}
    payload["lattice"] = lat.name or args.lattice
    payload["con_ji"], payload["con_ji_covers"] = congruence.generator_order(lat)
    try:
        con = congruence.all_congruences(lat)
    except SizeLimitExceeded:  # Con L only under CON_SIZE_CAP, its generators at any size
        pass
    else:
        payload["con_size"] = len(con)
        payload["con_hasse"] = core.serialize(con.lattice) if args.report == "json" \
            else f"{len(con.lattice.covers())} covers"
    _emit(args, payload)
    return EXIT_OK if payload.get("cpe_passed", True) else EXIT_CHECK_FAILED


def cmd_tensor(args) -> int:
    left, right = catalog.tables(args.left), catalog.tables(args.right)
    tp = tensor.tensor_product(left, right)
    payload = {"left": left.name, "right": right.name, "elements": len(tp)}
    failed = False
    if args.verify_repr:
        rep = tensor.verify_repr_iso(left, right, tp)
        payload["repr_iso_passed"] = rep.passed
        failed |= not rep.passed
    if args.verify_m3_iso:
        rep = tensor.verify_m3_tensor_iso(right, tp)
        payload["m3_bridge_passed"] = rep.passed
        failed |= not rep.passed
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(core.serialize(tp.lattice))
        payload["out"] = args.out
    _emit(args, payload)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def cmd_diverge(args) -> int:
    n = args.steps
    if args.oracle == "dhw":
        seq = symbolic.dhw_adjustment(n)
        stable = any(seq[k] == seq[k + 1] for k in range(len(seq) - 1))
        payload = {"oracle": "dhw", "steps": n, "stabilized": stable}
        if args.trace == "json":
            payload["iterates"] = [[list(map(str, p)) for p in q] for q in seq]
        _emit(args, payload)
        return EXIT_CHECK_FAILED if stable else EXIT_OK
    # raises VerificationFailed (exit 1) unless the iteration diverges
    trace = symbolic.fig2_divergence(n)
    payload = {"oracle": "fig2", "steps": n,
               "stabilized": trace.stabilized,
               "final": str(trace.final)}
    if args.trace == "json":
        payload["iterates"] = [str(t) for t in trace.iterates]
    _emit(args, payload)
    return EXIT_OK


# -- the reproduction suite -------------------------------------------------

def _repro_checks(extended: bool, jobs: int, seed: int):
    """Yield (check id, expected, thunk returning the computed value)."""

    def m3m4_antichains():
        res = rank.antichain_rank_scan(
            construct.m3_of(catalog.m_k(4)).lattice, jobs=jobs)
        return (res.triple_count, res.failing(2), res.failing(3))

    yield ("m3m4-antichains", (89_217, 936, 0), m3m4_antichains)

    yield ("m3mk-rank", (3, 3, 3), lambda: tuple(
        rank.modularity_rank(construct.m3_of(catalog.m_k(k)).lattice)
        for k in (4, 5, 6)))

    def iteration_table(base, start, rows):
        # the first iterates of closure3 on the operations of M3[base], which
        # builds no tables, from a triple of named tuples
        k = construct.m3_of(base)
        tid = lambda *ns: int(k.ids([base.index_of(s) for s in ns]))
        tr = rank.closure3(k, rank.Triple(*(tid(*t) for t in start)), cap=rows - 1)
        return tuple(tuple(k.tuple_name(e) for e in row)
                     for row in tr.iterates[:rows])

    yield ("m3m4-iteration-table", (
        ("<b,c,a>", "<b,a,d>", "<a,0,c>"),
        ("<b,c,a>", "<b,a,d>", "<1,c,c>"),
        ("<b,c,a>", "<1,1,1>", "<1,c,c>"),
        ("<1,1,1>", "<1,1,1>", "<1,1,1>")), lambda: iteration_table(
            catalog.m_k(4), (("b", "c", "a"), ("b", "a", "d"), ("a", "0", "c")), 4))

    yield ("fano-iteration-table", (
        ("<3,6,4>", "<3,457,2>", "<7,2,561>"),
        ("<3,6,4>", "<3,457,2>", "<713,124,561>"),
        ("<346,346,346>", "<3,457,2>", "<713,124,561>"),
        ("<346,346,346>", "<713,457,672>", "<713,124,561>"),
        ("<PL,346,346>", "<713,457,672>", "<713,124,561>")), lambda: iteration_table(
            catalog.fano(), (("3", "6", "4"), ("3", "457", "2"), ("7", "2", "561")), 5))

    yield ("fano-size", 1_090, lambda: len(construct.m3_of(catalog.fano())))

    yield ("rank-ladder", (1, 1, 1, 2, 3, 2, 3, 4, 5), lambda: (
        rank.modularity_rank(catalog.m_k(3)),
        rank.modularity_rank(catalog.boolean(3)),
        rank.modularity_rank(catalog.chain(5)),
        rank.modularity_rank(catalog.n5()),
        rank.modularity_rank(catalog.witness7()),
        *(rank.modularity_rank(catalog.l_family(n)) for n in (1, 2, 3, 4))))

    def minimal_sizes():
        firsts = {}
        for n in range(1, 8):
            for lat in catalog.enumerate_lattices(n):
                r = rank.modularity_rank(lat)
                firsts.setdefault(r, n)
        return (firsts.get(2), firsts.get(3))

    yield ("minimal-rank-sizes", (5, 7), minimal_sizes)

    def cpe(*specs):
        # (passed, |Con L|, |Con K|) per tuple lattice K over L, atom then diagonal
        return tuple((r.passed, r.base_con_count, r.ext_con_count) for r in (
            congruence.verify_cpe(k.base, e, k) for k in map(catalog.by_name, specs)
            for e in ("atom", "diag")))

    yield ("congruence-preserving-extension", True, lambda: all(p for p, _, _ in cpe(
        "m3[c2]", "m3[c3]", "m3[c2sq]", "m3[n5]", "m3[m3]", "m3[m4]", "m3[witness7]", "m3[fano]")))
    # Sub(q, d) is simple, so Con has 2 elements; M3[Sub(3,3)] has 6,817
    yield ("cpe-above-table-cap", ((True, 2, 2),) * 2, lambda: cpe("m3[subspace:3,3]"))
    # checked, not proved: M4[witness7], M4[l:2] and M4[Sub(3,3)] have 131, 1,046 and 66,748
    yield ("m4-cpe", ((True, 5, 5),) * 4 + ((True, 2, 2),) * 2,
           lambda: cpe("m4[witness7]", "m4[l:2]", "m4[subspace:3,3]"))

    # 3-modular bases: (|Con L|, |Con M3[L]|) for random_c1c4 seeds 0-4
    yield ("cpe-3modular-grids", ((13, 13), (23, 23), (23, 23), (28, 28), (6, 6)), lambda: tuple(
        (r.base_con_count, r.ext_con_count) if r.passed else "M3 is not a CPE"
        for r in (congruence.verify_cpe(catalog.random_c1c4(s)) for s in range(5))))

    def repr_iso():
        pool = [catalog.by_name(s) for s in ("c2", "c3", "c2sq", "m3", "n5")]
        return all(tensor.verify_repr_iso(a, b).passed
                   for a in pool for b in pool)

    yield ("tensor-representation-iso", True, repr_iso)

    yield ("m3-tensor-bridge", True, lambda: all(
        tensor.verify_m3_tensor_iso(catalog.by_name(s)).passed
        for s in ("c2", "c2sq", "c3", "n5", "m4")))

    yield ("power-poset-iso", True, lambda: all(
        core.find_isomorphism(construct.m3_power_poset(d),
                              construct.m3_of(d).lattice) is not None
        for d in (catalog.chain(2), catalog.chain(3), catalog.c2sq(),
                  catalog.boolean(3))))

    yield ("m4-inside-m3m3", True,
           lambda: construct.m4_sublattice_in_m3m3() is not None)

    def fig2():
        symbolic.fig2_divergence(64)
        return True

    yield ("fig2-divergence", True, fig2)

    def dhw():
        seq = symbolic.dhw_adjustment(64)
        return not any(seq[k] == seq[k + 1] for k in range(len(seq) - 1))

    yield ("dhw-no-stabilization", True, dhw)

    def random_grids():
        return all(rank.modularity_rank(catalog.random_c1c4(seed + k)) <= 3
                   for k in range(1000))

    yield ("random-grids-3modular", True, random_grids)

    if extended:
        def fano_antichains():
            res = rank.antichain_rank_scan(
                construct.m3_of(catalog.fano()).lattice, jobs=jobs)
            return res.triple_count, res.histogram

        yield ("fano-antichain-scan", (193_025_561, {
            0: 18_923_773, 1: 100_134_160, 2: 68_538_792, 3: 5_230_260, 4: 198_576}),
            fano_antichains)

        # M3[Sub(2,4)] has 56,725 elements
        yield ("cpe-above-table-cap-extended", ((True, 2, 2),) * 2, lambda: cpe("m3[subspace:2,4]"))


def cmd_repro(args) -> int:
    checks = [check for check in _repro_checks(args.extended, args.jobs, args.seed)
              if args.filter in check[0]]
    if not checks:
        print(f"error: no check id contains {args.filter!r}", file=sys.stderr)
        return EXIT_USAGE
    records = []
    for check_id, expected, thunk in checks:
        t0 = time.time()
        try:
            computed = thunk()
            ok = computed == expected
        except Exception as exc:  # keep the suite running
            computed = f"error: {exc}"
            ok = False
        records.append({"check": check_id, "expected": expected,
                        "computed": computed, "pass": ok,
                        "seconds": round(time.time() - t0, 2)})
        if args.report != "json":
            mark = "PASS" if ok else "FAIL"
            print(f"[{mark}] {check_id} ({records[-1]['seconds']}s)")
    if args.report == "json":
        print(json.dumps(records, indent=2, default=str))
    else:
        total = len(records)
        good = sum(r["pass"] for r in records)
        print(f"{good}/{total} checks passed")
    return EXIT_OK if all(r["pass"] for r in records) else EXIT_CHECK_FAILED


@functools.cache  # parsing leaves the parser as it was; a build takes about 2 ms
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="latmod")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, lattice=True):
        if lattice:
            p.add_argument("--lattice", required=True,
                           help="m3 | fano | witness7 | l:3 | b3 | c4 | "
                                "subspace:q,d | file:path | m3[spec] | m4[spec]")
        p.add_argument("--report", choices=("json", "text"), default="text")
        return p

    jobs = dict(type=_int_at_least(1), default=1)
    cap = dict(type=_int_at_least(0), default=None)

    common(sub.add_parser("validate")).set_defaults(func=cmd_validate)
    p = common(sub.add_parser("info"))
    p.add_argument("--cap", **cap)
    p.set_defaults(func=cmd_info)
    p = common(sub.add_parser("rank"))
    p.add_argument("--cap", **cap)
    p.add_argument("--jobs", **jobs)
    p.set_defaults(func=cmd_rank)
    p = common(sub.add_parser("build"))
    p.add_argument("--out")
    p.add_argument("--stats", action="store_true")
    p.set_defaults(func=cmd_build)
    p = common(sub.add_parser("con"))
    p.add_argument("--verify-cpe", choices=("atom", "diag"))
    p.set_defaults(func=cmd_con)
    p = common(sub.add_parser("tensor"), lattice=False)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--verify-repr", action="store_true")
    p.add_argument("--verify-m3-iso", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_tensor)
    p = common(sub.add_parser("diverge"), lattice=False)
    p.add_argument("--oracle", choices=("dhw", "fig2"), required=True)
    p.add_argument("--steps", type=_int_at_least(0), default=64)
    p.add_argument("--trace", choices=("json", "text"), default="text")
    p.set_defaults(func=cmd_diverge)
    p = common(sub.add_parser("repro"), lattice=False)
    p.add_argument("--jobs", **jobs)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--extended", action="store_true")
    p.add_argument("--filter", default="")
    p.set_defaults(func=cmd_repro)
    return top


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except VerificationFailed as exc:  # a LatticeError, but not bad input
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (OSError, LatticeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
