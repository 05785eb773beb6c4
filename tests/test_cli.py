import argparse
import json
import pathlib
import shlex

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import counting_step_tables, refuse_allocations
from latmod import catalog, cli, congruence, construct, core, rank, symbolic, tensor
from latmod.cli import EXIT_CHECK_FAILED, main
from latmod.errors import LatticeError, VerificationFailed
from latmod.rank import ClosureTrace


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr()


def readme_cli_lines() -> list[list[str]]:
    """The arguments of each `latmod ...` line in README's CLI block."""
    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("latmod ")]


def test_readme_cli_lines_exit_ok(capsys, monkeypatch, tmp_path):
    """Every command README shows runs and exits 0, so a removed spelling
    cannot stay documented; files it writes go to a temporary directory."""
    monkeypatch.chdir(tmp_path)
    lines = readme_cli_lines()
    assert len(lines) >= 7 and all(argv for argv in lines)
    for argv in lines:
        assert run(capsys, *argv)[0] == 0, argv


def test_info_reports_rank(capsys):
    code, out = run(capsys, "info", "--lattice", "n5", "--report", "json")
    assert code == 0
    payload = json.loads(out.out)
    assert payload["size"] == 5 and payload["rank"] == 2
    assert payload["modular"] is False

    code, out = run(capsys, "info", "--lattice", "witness7", "--report", "json")
    assert json.loads(out.out)["rank"] == 3


def test_info_modular_flag_is_the_modularity_test(capsys):
    """info reads `modular` off the rank (gamma_1 is modularity): it agrees
    with core.is_modular."""
    for spec in ("n5", "m3", "b3", "witness7", "c4", "l:2"):
        code, out = run(capsys, "info", "--lattice", spec, "--report", "json")
        assert code == 0
        assert json.loads(out.out)["modular"] is core.is_modular(catalog.by_name(spec)), spec


def test_validate_and_input_errors(capsys, tmp_path):
    code, _ = run(capsys, "validate", "--lattice", "b3")
    assert code == 0

    bad = tmp_path / "cycle.json"
    bad.write_text(json.dumps(
        {"elements": ["a", "b", "c"], "covers": [[0, 1], [1, 2], [2, 0]]}))
    code, out = run(capsys, "validate", "--lattice", f"file:{bad}")
    assert code == 3 and "error" in out.err

    code, out = run(capsys, "validate", "--lattice", "file:/no/such.json")
    assert code == 3

    code, out = run(capsys, "validate", "--lattice", "mystery")
    assert code == 3


def test_malformed_lattice_documents_exit_input(capsys, tmp_path):
    docs = {
        "null-covers": {"elements": ["a", "b"], "covers": None},
        "number-covers": {"elements": ["a", "b"], "covers": 7},
        "boolean-ids": {"elements": ["a", "b"], "covers": [[True, 1]]},
        "repeated-names": {"elements": ["a", "a"], "covers": [[0, 1]]},
    }
    for label, doc in docs.items():
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "validate", "--lattice", f"file:{path}")
        assert code == 3 and "error" in out.err and "Traceback" not in out.err, label


def test_order_fault_documents_exit_input(capsys, tmp_path):
    # M3 (bottom 0, atoms 1-3, top 4) with each order fault that a cover
    # document can carry: a cleared diagonal as a reflexive cover, a
    # 2-cycle, a 3-cycle of atoms, and two at once; parse closes covers
    # transitively, so a removed composite cannot be written as one
    m3 = [[0, 1], [0, 2], [0, 3], [1, 4], [2, 4], [3, 4]]
    faults = {
        "diagonal": [[2, 2]],
        "2-cycle": [[4, 1]],
        "3-cycle": [[1, 2], [2, 3], [3, 1]],
        "two-faults": [[2, 2], [4, 1]],
    }
    for label, extra in faults.items():
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps({"elements": list("abcde"), "covers": m3 + extra}))
        code, out = run(capsys, "validate", "--lattice", f"file:{path}")
        assert code == 3 and "error" in out.err and "Traceback" not in out.err, label


def test_oversized_specs_exit_input(capsys):
    for spec in ("c5000", "b64", "m99999999999", "subspace:2,1000000000000",
                 "c" + "9" * 5000, "m\u00b2"):
        code, out = run(capsys, "validate", "--lattice", spec)
        assert code == 3 and "error" in out.err, spec[:20]


def test_directory_lattice_file_exits_input(capsys, tmp_path):
    code, out = run(capsys, "validate", "--lattice", f"file:{tmp_path}")
    assert code == 3 and "error" in out.err


def test_malformed_ladder_spec_exits_input(capsys):
    code, out = run(capsys, "validate", "--lattice", "l:x")
    assert code == 3 and "error" in out.err


def test_malformed_subspace_spec_exits_input(capsys):
    code, out = run(capsys, "validate", "--lattice", "subspace:2")
    assert code == 3 and "error" in out.err


def test_usage_errors(capsys):
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "rank")[0] == 2  # missing --lattice
    assert run(capsys, "diverge", "--oracle", "bogus")[0] == 2
    for removed in ("m3build", "m4build"):  # build --lattice m3[...] or m4[...]
        assert run(capsys, removed, "--lattice", "n5")[0] == 2


def test_rank_report_shape(capsys):
    """rank prints the full scan whatever the rank: its histogram sums to
    all n^3 triples."""
    for spec, n, want in (("n5", 5, 2), ("witness7", 7, 3)):
        code, out = run(capsys, "rank", "--lattice", spec,
                        "--report", "json", "--jobs", "2")
        assert code == 0
        payload = json.loads(out.out)
        assert payload["rank"] == want
        assert payload["triples_scanned"] == n ** 3
        assert sum(payload["stabilization_histogram"].values()) == n ** 3
        assert len(payload["extremal_triple"]) == 3


def test_rank_has_no_antichains_only_option(capsys):
    code, out = run(capsys, "rank", "--lattice", "n5", "--antichains-only")
    assert code == 2 and "unrecognized arguments" in out.err and out.out == ""


def test_rank_output_does_not_depend_on_jobs(capsys, tmp_path):
    """rank's full scan takes --jobs, and prints the same for any count."""
    path = tmp_path / "m3m4.json"
    assert run(capsys, "build", "--lattice", "m3[m4]", "--out", str(path))[0] == 0
    for spec in (f"file:{path}", "m3[m4]", "n5"):
        outs = []
        for jobs in ("1", "2"):
            code, out = run(capsys, "rank", "--lattice", spec, "--report", "json",
                            "--jobs", jobs)
            assert code == 0
            outs.append(out.out)
        assert outs[0] == outs[1], spec


def test_build_writes_lattice(capsys, tmp_path):
    out_path = tmp_path / "m3n5.json"
    code, out = run(capsys, "build", "--lattice", "m3[n5]", "--stats",
                    "--report", "json", "--out", str(out_path))
    assert code == 0
    payload = json.loads(out.out)
    built = core.parse(out_path.read_text())
    assert payload["elements"] == built.n
    assert payload["modular"] is False  # pentagon base is not distributive


def test_con_and_cpe(capsys):
    code, out = run(capsys, "con", "--lattice", "n5", "--report", "json")
    assert code == 0 and json.loads(out.out)["con_size"] == 5
    code, out = run(capsys, "con", "--lattice", "m3[n5]", "--report", "json",
                    "--verify-cpe", "atom")
    assert code == 0
    payload = json.loads(out.out)
    assert payload["cpe_passed"] is True and payload["lattice"] == "M3[N5]"
    assert payload["con_size"] == payload["con_base"] == payload["con_extension"] == 5


def test_tuple_commands_refuse_plain_specs(capsys):
    """build and con --verify-cpe read a tuple lattice: a plain spec exits
    3 with a message, and con without --verify-cpe takes it."""
    for argv in (("build", "--lattice", "n5"), ("con", "--lattice", "n5", "--verify-cpe", "atom")):
        code, out = run(capsys, *argv)
        assert code == 3 and "m3[...] or m4[...], not 'n5'" in out.err and out.out == "", argv


def test_tuple_specs_read_through_their_tables(capsys, monkeypatch, tmp_path):
    """validate, info, rank and tensor read m3[...] and m4[...] through
    their tables, and validate checks those; above EAGER_TABLE_CAP they
    exit 3.  An inner file: path keeps its case."""
    checked = []
    validate = core.FiniteLattice.validate
    monkeypatch.setattr(core.FiniteLattice, "validate",
                        lambda lat: checked.append(lat.name) or validate(lat))
    code, out = run(capsys, "validate", "--lattice", "m3[m3[c2]]", "--report", "json")
    assert code == 0 and json.loads(out.out) == {
        "lattice": "M3[M3[C2]]", "size": 50, "valid": True}
    assert checked == ["M3[M3[C2]]"]
    code, out = run(capsys, "info", "--lattice", "m4[n5]", "--report", "json")
    assert code == 0 and json.loads(out.out)["size"] == 61
    # M3 (x) L is M3[L]: here L = M3[C2], and M3[M3[C2]] has 50 elements
    code, out = run(capsys, "tensor", "--left", "m3", "--right", "m3[c2]",
                    "--verify-m3-iso", "--report", "json")
    assert code == 0 and json.loads(out.out) == {
        "left": "M3", "right": "M3[C2]", "elements": 50, "m3_bridge_passed": True}
    for argv in (("validate", "--lattice", "m3[subspace:2,4]"),
                 ("rank", "--lattice", "m4[subspace:3,3]")):
        code, out = run(capsys, *argv)
        assert code == 3 and "above the table cap 2000" in out.err, argv
    path = tmp_path / "Pentagon.json"
    path.write_text(core.serialize(catalog.n5()))
    code, out = run(capsys, "build", "--lattice", f" M3[file:{path}] ", "--report", "json")
    assert code == 0 and json.loads(out.out)["base"] == "N5"


def test_inner_spec_errors_name_the_whole_spec(capsys):
    """An error in the spec inside m3[...] or m4[...] names the spec as
    given, each enclosing one included, and exits 3."""
    for spec, inner in (("m3[]", "''"), ("m3[n5]]", "'n5]'"), ("m4[m3[x]]", "'x'")):
        code, out = run(capsys, "validate", "--lattice", spec)
        assert code == 3 and out.out == "", spec
        assert f"in lattice spec {spec!r}: " in out.err, spec
        assert f"unknown lattice spec: {inner}" in out.err, spec
    assert "in lattice spec 'm3[x]': unknown" in out.err


def fail_check(*args, **kwargs):
    raise VerificationFailed("forced")


def test_failed_cpe_check_exits_check_failed(capsys, monkeypatch):
    monkeypatch.setattr(congruence, "verify_cpe", fail_check)
    code, out = run(capsys, "con", "--lattice", "m3[n5]", "--verify-cpe", "atom")
    assert code == EXIT_CHECK_FAILED == 1
    assert "forced" in out.err


def test_failed_repr_check_exits_check_failed(capsys, monkeypatch):
    monkeypatch.setattr(tensor, "verify_repr_iso", fail_check)
    code, out = run(capsys, "tensor", "--left", "m3", "--right", "c2",
                    "--verify-repr")
    assert code == EXIT_CHECK_FAILED
    assert "forced" in out.err


def test_tensor_command(capsys):
    code, out = run(capsys, "tensor", "--left", "m3", "--right", "c2",
                    "--verify-repr", "--verify-m3-iso", "--report", "json")
    assert code == 0
    payload = json.loads(out.out)
    assert payload["elements"] == 5
    assert payload["repr_iso_passed"] and payload["m3_bridge_passed"]


def test_tensor_above_the_element_cap_exits_input(capsys):
    # M_3 (x) C_80 has 9,560 elements, refused before its order is built
    code, out = run(capsys, "tensor", "--left", "m3", "--right", "c80")
    assert code == 3 and out.out == ""
    assert "9560 elements exceed the cap 4096" in out.err


def test_deeply_nested_spec_exits_input(capsys):
    # peeled in a loop, not by recursion: M3[M3[M3[C2]]] has 21,740
    # elements, so the fourth layer cannot read the third through its tables
    spec = "m3[" * 1200 + "c2" + "]" * 1200
    code, out = run(capsys, "validate", "--lattice", spec)
    assert code == 3 and out.out == ""
    assert "21740 elements" in out.err


def test_nested_spec_names_are_capped(capsys, traced_peak):
    """M3[C1] has one element, so m3[ layers around c1 pass every element
    cap, and each layer triples the length of the element's name: 11
    layers take 531,439 characters, 12 would take 1,594,321, above
    NAME_CHAR_CAP.  So 14 and 200 layers exit 3 before a name of the
    twelfth layer is built, with a small traced peak."""
    for layers, code in ((11, 0), (14, 3), (200, 3)):
        spec = "m3[" * layers + "c1" + "]" * layers
        got, peak = traced_peak(main, ["validate", "--lattice", spec])
        out = capsys.readouterr()
        assert got == code and peak < 4 << 20, layers
        if code:
            assert out.out == "" and "take 1594321 characters, above the cap" in out.err


def test_diverge_command(capsys):
    code, out = run(capsys, "diverge", "--oracle", "dhw", "--steps", "8",
                    "--trace", "json", "--report", "json")
    assert code == 0
    payload = json.loads(out.out)
    assert payload["stabilized"] is False and len(payload["iterates"]) == 9

    code, out = run(capsys, "diverge", "--oracle", "fig2", "--steps", "6")
    assert code == 0


def test_failed_divergence_check_exits_check_failed(capsys, monkeypatch):
    # a closure3 that stabilizes at once, which fig2_divergence must refute
    monkeypatch.setattr(symbolic, "closure3",
                        lambda lat, s, cap: ClosureTrace(s, (s, s), 0, cap))
    code, out = run(capsys, "diverge", "--oracle", "fig2", "--steps", "6",
                    "--report", "json")
    assert code == EXIT_CHECK_FAILED == 1
    assert "unexpectedly stabilized" in out.err and out.out == ""


def test_diverge_rejects_negative_steps(capsys):
    for oracle in ("dhw", "fig2"):
        code, out = run(capsys, "diverge", "--oracle", oracle, "--steps", "-1")
        assert code == 2 and "--steps" in out.err and out.out == ""


def test_repro_filter(capsys):
    code, out = run(capsys, "repro", "--filter", "minimal-rank-sizes",
                    "--report", "json")
    assert code == 0
    records = json.loads(out.out)
    assert len(records) == 1 and records[0]["pass"] is True


def test_repro_filter_matching_no_check_exits_usage(capsys):
    code, out = run(capsys, "repro", "--filter", "nosuchcheck")
    assert code == 2 and "nosuchcheck" in out.err and out.out == ""


def test_jobs_must_be_positive(capsys):
    for jobs in ("0", "-2", "x"):
        code, out = run(capsys, "rank", "--lattice", "n5", "--jobs", jobs)
        assert code == 2 and "--jobs" in out.err and out.out == ""
    assert run(capsys, "rank", "--lattice", "n5", "--jobs", "3")[0] == 0


def test_negative_cap_exits_usage(capsys):
    for argv in (("rank", "--lattice", "n5", "--cap", "-1"),
                 ("info", "--lattice", "c2", "--cap", "-3")):
        code, out = run(capsys, *argv)
        assert code == 2 and "--cap" in out.err and out.out == ""
    assert run(capsys, "rank", "--lattice", "n5", "--cap", "2")[0] == 0
    assert run(capsys, "rank", "--lattice", "n5", "--cap", "1")[0] == 3  # RankExceedsCap


def test_unread_options_exit_usage(capsys):
    for argv in (("validate", "--lattice", "b3", "--extended"),
                 ("validate", "--lattice", "b3", "--jobs", "2"),
                 ("validate", "--lattice", "b3", "--seed", "9"),
                 ("build", "--lattice", "m3[n5]", "--cap", "-1"),
                 ("con", "--lattice", "m3[n5]", "--of-m3"),
                 ("info", "--lattice", "n5", "--jobs", "2"),
                 ("diverge", "--oracle", "dhw", "--extended"),
                 ("repro", "--seed", "1")):
        code, out = run(capsys, *argv)
        assert code == 2 and "unrecognized arguments" in out.err, argv


def test_main_builds_its_parser_once(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", recording)
    cli._build_parser.cache_clear()
    try:
        assert run(capsys, "validate", "--lattice", "b3")[0] == 0
        assert run(capsys, "validate", "--lattice", "b3", "--jobs", "2")[0] == 2
    finally:
        cli._build_parser.cache_clear()
    assert built.count("latmod") == 1


def test_lazy_build_reports_depth_only_with_stats(capsys, monkeypatch):
    """Above the table cap (M3[N5] has 41 elements) --stats adds the depth
    and the spanning check, which read no tables, and nothing else."""
    code, out = run(capsys, "build", "--lattice", "m3[n5]", "--report", "json")
    eager = json.loads(out.out)
    monkeypatch.setattr(construct, "EAGER_TABLE_CAP", 30)
    code, out = run(capsys, "build", "--lattice", "m3[n5]", "--report", "json")
    assert code == 0 and json.loads(out.out) == {
        "base": eager["base"], "elements": eager["elements"]}
    spanned = []
    spanning_m3 = construct.spanning_m3
    monkeypatch.setattr(construct, "spanning_m3",
                        lambda k: spanned.append(len(k)) or spanning_m3(k))
    code, out = run(capsys, "build", "--lattice", "m3[n5]", "--stats", "--report", "json")
    assert code == 0 and json.loads(out.out) == dict(eager, spanning_check="ok")
    assert spanned == [41]


def test_lazy_build_out_exits_input_before_writing(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(construct, "EAGER_TABLE_CAP", 0)
    for spec in ("m3[n5]", "m4[n5]"):
        out_path = tmp_path / f"{spec[:2]}.json"
        code, out = run(capsys, "build", "--lattice", spec, "--stats",
                        "--out", str(out_path))
        assert code == 3 and "table cap" in out.err and out.out == "", spec
        assert not out_path.exists(), spec


def test_builds_past_the_key_cap_exit_input_before_allocating(capsys, monkeypatch):
    """407^3 and 91^4 keys are above KEY_CAP = 2^26: build m3[c407] and
    m4[c91] exit 3 before any key map is allocated."""
    refuse_allocations(monkeypatch, rank.KEY_CAP)
    for spec, keys in (("m3[c407]", "407^3"), ("m4[c91]", "91^4")):
        code, out = run(capsys, "build", "--lattice", spec, "--stats")
        assert code == 3 and f"{keys} keys, above the key cap 67,108,864" in out.err, spec


def test_build_spans_no_m3_over_one_element(capsys):
    code, out = run(capsys, "build", "--lattice", "m3[c1]", "--stats", "--report", "json")
    assert code == 0 and json.loads(out.out)["spanning_check"] == "n/a"


def test_build_stats_close_the_join_keys_once(capsys, monkeypatch):
    tabulated = counting_step_tables(monkeypatch)
    for spec, arity in (("m3[n5]", 3), ("m4[n5]", 4)):
        tabulated.clear()
        code, out = run(capsys, "build", "--lattice", spec, "--stats", "--report", "json")
        assert code == 0 and "max_closure_index" in json.loads(out.out)
        assert [a for _, a in tabulated] == [arity], spec


def test_tensor_command_builds_once(capsys, monkeypatch):
    built = []
    all_join_homs = tensor.all_join_homs

    def counting(a, b):
        built.append((a.name, b.name))
        return all_join_homs(a, b)

    monkeypatch.setattr(tensor, "all_join_homs", counting)
    code, _ = run(capsys, "tensor", "--left", "m3", "--right", "c3",
                  "--verify-repr", "--verify-m3-iso")
    assert code == 0 and built == [("M3", "C3")]
    built.clear()
    code, _ = run(capsys, "tensor", "--left", "c2sq", "--right", "c3",
                  "--verify-repr", "--verify-m3-iso")
    assert code == 0 and built == [("C2xC2", "C3"), ("M3", "C3")]


def test_con_command_builds_m3_once(capsys, monkeypatch):
    """--verify-cpe, the generators and the enumeration share one M3[L],
    which tabulates the step map once, and none builds its tables."""
    built, tabled = [], []
    m3_of = construct.m3_of

    def counting(base):
        built.append(base.name)
        return m3_of(base)

    monkeypatch.setattr(construct, "m3_of", counting)
    monkeypatch.setattr(congruence, "m3_of", counting)
    tabulated = counting_step_tables(monkeypatch)
    monkeypatch.setattr(construct.TupleLattice, "lattice",
                        property(lambda k: tabled.append(k.name)))
    code, out = run(capsys, "con", "--lattice", "m3[n5]", "--verify-cpe", "atom",
                    "--report", "json")
    assert code == 0 and built == ["N5"] and tabled == []
    assert [a for _, a in tabulated] == [3]
    payload = json.loads(out.out)
    assert payload["cpe_passed"] and payload["con_size"] == payload["con_extension"]


# the output of the route that enumerated Con M3[N5] from M3[N5]'s tables
CON_M3_N5 = """{
  "cpe_passed": true,
  "con_base": 5,
  "con_extension": 5,
  "lattice": "M3[N5]",
  "con_ji": 3,
  "con_ji_covers": [
    [
      0,
      1
    ],
    [
      0,
      2
    ]
  ],
  "con_size": 5,
  "con_hasse": "{\\n  \\"name\\": \\"Con(M3[N5])\\",\\n  \\"elements\\": [\\n    \\"con0/1b\\",\\n    \\"con1/5b\\",\\n    \\"con2/5b\\",\\n    \\"con3/25b\\",\\n    \\"con4/41b\\"\\n  ],\\n  \\"covers\\": [\\n    [\\n      1,\\n      0\\n    ],\\n    [\\n      2,\\n      0\\n    ],\\n    [\\n      3,\\n      1\\n    ],\\n    [\\n      3,\\n      2\\n    ],\\n    [\\n      4,\\n      3\\n    ]\\n  ]\\n}"
}
"""


def test_con_of_m3_output_is_pinned(capsys):
    code, out = run(capsys, "con", "--lattice", "m3[n5]", "--verify-cpe", "atom",
                    "--report", "json")
    assert code == 0 and out.out == CON_M3_N5


def test_m3_congruences_above_the_cap_fail_fast(capsys, monkeypatch):
    """con on M3[L] prints the generators at any size and Con M3[L] only
    under CON_SIZE_CAP; KEY_CAP, not the congruence cap, refuses M3[L],
    before the step table is built; --verify-cpe has no element cap."""
    # M3[Sub(2,4)] has 56,725 elements, and Sub(2,4) is simple
    code, out = run(capsys, "con", "--lattice", "m3[subspace:2,4]", "--report", "json")
    assert code == 0 and json.loads(out.out) == {
        "lattice": "M3[Sub(2,4)]", "con_ji": 1, "con_ji_covers": []}

    def refuse(*args):
        raise AssertionError("the step table was built")

    # 407^3 keys are above KEY_CAP
    monkeypatch.setattr(rank, "_step_table", refuse)
    code, out = run(capsys, "con", "--lattice", "m3[c407]", "--report", "json")
    assert code == 3 and "407^3 keys, above the key cap" in out.err and out.out == ""
    monkeypatch.undo()
    # M3[N5] above a cap of 30
    monkeypatch.setattr(congruence, "CON_SIZE_CAP", 30)
    code, out = run(capsys, "con", "--lattice", "m3[n5]", "--report", "json")
    assert code == 0 and json.loads(out.out) == {
        "lattice": "M3[N5]", "con_ji": 3, "con_ji_covers": [[0, 1], [0, 2]]}
    code, out = run(capsys, "con", "--lattice", "m3[n5]", "--verify-cpe", "diag")
    assert code == 0
    monkeypatch.undo()
    # M3[Sub(3,3)] has 6,817 elements; Sub(3,3) is simple
    code, out = run(capsys, "con", "--lattice", "subspace:3,3", "--report", "json")
    assert code == 0 and json.loads(out.out)["con_size"] == 2
    code, out = run(capsys, "con", "--lattice", "m3[subspace:3,3]", "--report", "json",
                    "--verify-cpe", "atom")
    payload = json.loads(out.out)
    assert code == 0 and payload["cpe_passed"] is True and "con_size" not in payload
    assert payload["con_base"] == payload["con_extension"] == 2


def empty_copy_dependency(k, ji, lower):
    return np.zeros((k.arity * len(ji),) * 2, dtype=bool)


def test_cpe_verdict_past_the_congruence_count_cap(capsys, monkeypatch):
    """Con(C_12) has 2^11 = 2,048 elements, past CON_SIZE_CAP: con prints
    its 11 unordered generators without Con, and con --verify-cpe on
    M3[C12] adds the verdict with null counts and exits by it (Con M3[C12]
    is Con C12: its 33 join-irreducibles give 11 generators)."""
    code, out = run(capsys, "con", "--lattice", "c12", "--report", "json")
    assert code == 0 and json.loads(out.out) == {
        "lattice": "C12", "con_ji": 11, "con_ji_covers": []}
    code, out = run(capsys, "con", "--lattice", "m3[c12]", "--verify-cpe", "atom",
                    "--report", "json")
    assert code == 0 and json.loads(out.out) == {
        "cpe_passed": True, "con_base": None, "con_extension": None,
        "lattice": "M3[C12]", "con_ji": 11, "con_ji_covers": []}
    # with D on J(M3[C12]) empty, its 33 join-irreducibles are 33 classes
    monkeypatch.setattr(congruence, "_copy_dependency", empty_copy_dependency)
    code, out = run(capsys, "con", "--lattice", "m3[c12]", "--verify-cpe", "atom",
                    "--report", "json")
    assert code == EXIT_CHECK_FAILED and json.loads(out.out) == {
        "cpe_passed": False, "con_base": None, "con_extension": None,
        "lattice": "M3[C12]", "con_ji": 33, "con_ji_covers": []}


def test_cpe_verdict_with_m3_above_the_congruence_cap(capsys, monkeypatch):
    """con --verify-cpe on an M3[L] or M4[L] with more than CON_SIZE_CAP
    elements prints the verdict and the generators of its Con without the
    Con, and exits by the verdict; without --verify-cpe it prints the
    generators.  M3[Sub(3,3)] and M4[Sub(3,3)] have 6,817 and 66,748
    elements, and Sub(3,3) is simple."""
    for spec, name in (("m3[subspace:3,3]", "M3[Sub(3,3)]"), ("m4[subspace:3,3]", "M4[Sub(3,3)]")):
        simple = {"lattice": name, "con_ji": 1, "con_ji_covers": []}
        code, out = run(capsys, "con", "--lattice", spec, "--verify-cpe", "diag",
                        "--report", "json")
        assert code == 0 and json.loads(out.out) == {
            "cpe_passed": True, "con_base": 2, "con_extension": 2, **simple}, spec
        code, out = run(capsys, "con", "--lattice", spec, "--report", "json")
        assert code == 0 and json.loads(out.out) == simple, spec
    # M3[N5] has 41 elements: above a cap of 30, with both counts under it
    monkeypatch.setattr(congruence, "CON_SIZE_CAP", 30)
    code, out = run(capsys, "con", "--lattice", "m3[n5]", "--verify-cpe", "diag",
                    "--report", "json")
    assert code == 0 and json.loads(out.out) == {
        "cpe_passed": True, "con_base": 5, "con_extension": 5,
        "lattice": "M3[N5]", "con_ji": 3, "con_ji_covers": [[0, 1], [0, 2]]}
    monkeypatch.setattr(congruence, "_copy_dependency", empty_copy_dependency)
    code, out = run(capsys, "con", "--lattice", "m3[n5]", "--verify-cpe", "diag",
                    "--report", "json")
    payload = json.loads(out.out)
    assert code == EXIT_CHECK_FAILED and payload["cpe_passed"] is False
    assert "con_size" not in payload


def test_con_past_the_caps_prints_the_generators(capsys):
    """Con C_30 has 2^29 elements, and Sub(2,6) has 2,825, past
    CON_SIZE_CAP: con prints the generators, 29 unordered, and the one of a
    simple lattice, and exits 0."""
    for spec, name, count in (("c30", "C30", 29), ("subspace:2,6", "Sub(2,6)", 1)):
        code, out = run(capsys, "con", "--lattice", spec, "--report", "json")
        assert code == 0 and json.loads(out.out) == {
            "lattice": name, "con_ji": count, "con_ji_covers": []}, spec


# -- fuzzing: bad input maps to exit 3, never to a traceback -------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-3, max_value=10) | st.integers()
    | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=12)
element_lists = st.lists(st.text(max_size=2), max_size=6) | json_values
cover_lists = st.lists(st.lists(st.integers(min_value=-1, max_value=6), max_size=3),
                       max_size=8) | json_values


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.fixed_dictionaries({"elements": element_lists, "covers": cover_lists},
                             optional={"name": json_values}) | json_values)
def test_fuzzed_lattice_documents_exit_ok_or_input(tmp_path, capsys, doc):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(doc))
    code = main(["validate", "--lattice", f"file:{path}"])
    capsys.readouterr()
    assert code in (0, 3)


spec_numbers = st.integers(min_value=-2, max_value=12).map(str) | st.integers().map(str) \
    | st.text("0123456789,-+ _\u00b2\u0663", max_size=8)
plain_specs = st.tuples(st.sampled_from(["c", "b", "m", "l:", "subspace:", "C", " M", "n", "x", ""]),
                        spec_numbers).map("".join) | st.text(max_size=12)
# m3[...] and m4[...]: nested, unbalanced, empty, and brackets on other names
specs = st.recursive(plain_specs | st.just(""), lambda inner: st.tuples(
    st.sampled_from(["m3[", "m4[", " M3[", "m5[", "m3", "c2["]), inner,
    st.sampled_from(["]", "] ", "]]", "", "["])).map("".join), max_leaves=4)


@settings(max_examples=200, deadline=None)
@given(specs)
def test_fuzzed_specs_raise_only_lattice_errors(spec):
    if "file:" in spec.lower():
        return  # a path: its OSError is an input error too (exit 3), fuzzed above
    # small element and key caps keep each build cheap and put their edges in
    # reach: m3[m3[c16]] is M3 of a 376-element lattice, 376^3 keys under KEY_CAP
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "ELEMENT_CAP", 40)
        mp.setattr(rank, "KEY_CAP", 40 ** 3)
        try:
            catalog.by_name(spec)
        except LatticeError:
            pass


# -- fuzzing: the other subcommands' numeric and choice arguments --------------

small_specs = st.sampled_from(["c1", "c2", "c3", "n5", "m3", "m4", "witness7", "b3", "c0", "x"])
numbers = st.integers(min_value=-2, max_value=6).map(str) | st.text("0123456789-x", max_size=3)
reports = st.sampled_from(["json", "text", "xml"])


def optional(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def switch(flag):
    return st.sampled_from([[], [flag]])


def argv(command, *parts):
    return st.tuples(*parts).map(lambda ps: [command] + [a for p in ps for a in p])


lattice_arg = small_specs.map(lambda s: ["--lattice", s])
tuple_specs = st.tuples(st.sampled_from(["m3[", "m4["]), small_specs).map(lambda p: f"{p[0]}{p[1]}]")
any_lattice_arg = (small_specs | tuple_specs).map(lambda s: ["--lattice", s])
report_arg = optional("--report", reports)
subcommand_argvs = st.one_of(
    argv("rank", lattice_arg, report_arg, optional("--cap", numbers),
         optional("--jobs", numbers)),
    argv("build", any_lattice_arg, report_arg, switch("--stats")),
    argv("con", any_lattice_arg, report_arg,
         optional("--verify-cpe", st.sampled_from(["atom", "diag", "both"]))),
    argv("tensor", small_specs.map(lambda s: ["--left", s]),
         small_specs.map(lambda s: ["--right", s]), report_arg,
         switch("--verify-repr"), switch("--verify-m3-iso")))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(subcommand_argvs)
def test_fuzzed_subcommand_arguments_exit_documented_codes(capsys, args):
    """rank, build, con and tensor on small lattices, through
    main: a documented exit code (0-3), never an exception.  Under 1 s."""
    code = main(args)
    capsys.readouterr()
    assert code in (0, 1, 2, 3), args
