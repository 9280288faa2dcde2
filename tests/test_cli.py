import inspect
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from approxk import boundary, cli, funcalc, kprod, loops, scenarios, subalg, wedderburn
from approxk.matcore import Tol

DATA = pathlib.Path(__file__).parent / "data"


def run_cli(args):
    return cli.main(list(args))


def assert_report_matches(got, want, where="report"):
    """Integers, booleans and strings exactly; floats to 1e-12 relative."""
    assert type(got) is type(want), where
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key, value in want.items():
            assert_report_matches(got[key], value, f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_report_matches(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert abs(got - want) <= 1e-12 * max(1.0, abs(got), abs(want)), where
    else:
        assert got == want, where


def test_bundled_scenarios_pass(tmp_path):
    for name in ("twisted_pair", "block_pair"):
        out = tmp_path / f"{name}.json"
        assert run_cli(["run", name, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert all(rec["passed"] for rec in report["checks"])


def test_circle_split_scenario_with_grid_override(tmp_path):
    out = tmp_path / "circle.json"
    # a coarser grid keeps the run quick; the checks are grid-independent
    assert run_cli(["run", "circle_split", "--grid", "360",
                    "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    names = [rec["check"] for rec in report["checks"]]
    assert "sigma-witness" in names and "boundary" in names


def test_reports_are_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run_cli(["run", "twisted_pair", "--out", str(a)]) == 0
    assert run_cli(["run", "twisted_pair", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("name", cli.BUNDLED)
def test_bundled_reports_match_pinned(tmp_path, name):
    # tests/data/<name>.seed7.json holds the report of an earlier build;
    # a change to report content shows here
    out = tmp_path / f"{name}.json"
    assert run_cli(["run", name, "--seed", "7", "--out", str(out)]) == 0
    want = json.loads((DATA / f"{name}.seed7.json").read_text())
    assert_report_matches(json.loads(out.read_text()), want)


def test_circle_split_report_takes_no_small_svds(tmp_path, count_calls):
    # operator norms of 1x1 and 2x2 samples are closed forms, so the only
    # small SVDs left are of off-support means: the rank in aug_diff, once
    # for the lift and once for its inverse, and the one SVD of f_inf in
    # arc_k0_trivialize, which gives both its rank and its decomposition,
    # once for each of the two boundary idempotents
    # np.linalg.norm looks svd up in the module that defines it
    calls = count_calls("svd", np.linalg, inspect.unwrap(np.linalg.norm).__globals__)
    out = tmp_path / "circle_split.json"
    assert run_cli(["run", "circle_split", "--seed", "7", "--out", str(out)]) == 0
    shapes = [np.shape(args[0]) for args in calls]
    assert sum(int(np.prod(s[:-2])) for s in shapes if max(s[-2:]) <= 2) <= 4


def test_report_builds_one_lift_and_trivializes_each_idempotent_once(
        tmp_path, count_calls):
    # every check of a report reads the one lift that the first check built;
    # circle_split trivializes the lift's e once, for its boundary class and
    # its sigma witness, and its inverse lift's e once
    builds = count_calls("build_lift_v", boundary)
    iotas = count_calls("iota_lift", boundary)
    arcs = count_calls("arc_k0_trivialize", boundary)
    assert run_cli(["run", "circle_split", "--seed", "7",
                    "--out", str(tmp_path / "circle_split.json")]) == 0
    assert (len(builds), len(iotas), len(arcs)) == (1, 0, 2)
    assert run_cli(["run", "twisted_pair", "--seed", "7",
                    "--out", str(tmp_path / "twisted_pair.json")]) == 0
    assert (len(builds), len(iotas), len(arcs)) == (1, 1, 2)


def test_lift_holds_its_class_and_trivialization(tmp_path, count_calls):
    # a lift holds its boundary class and its intersection's trivialization.
    # twisted_pair reads 5 classes (the lift, its inverse and the 3 tensored
    # lifts), each rounding e in C cap D, C and D: 15 Riesz roundings, and
    # 3 decompositions, of C, D and C cap D; the tensored algebras derive
    # their data from these.  circle_split's lift shares one trivialization
    # between its class and its sigma witness
    roundings = count_calls("riesz_idempotent", funcalc)
    decomposes = count_calls("decompose", wedderburn)
    arcs = count_calls("arc_k0_trivialize", boundary)
    assert run_cli(["run", "twisted_pair", "--seed", "7",
                    "--out", str(tmp_path / "twisted_pair.json")]) == 0
    assert (len(roundings), len(decomposes), len(arcs)) == (15, 3, 0)
    assert run_cli(["run", "circle_split", "--seed", "7",
                    "--out", str(tmp_path / "circle_split.json")]) == 0
    assert (len(roundings), len(decomposes), len(arcs)) == (15, 3, 2)


def test_report_takes_each_intersection_once(tmp_path, count_calls):
    # a report builds one pair (C, D) and every check reads its C cap D.
    # uniformity and the product check share the tensored pairs, one per m,
    # whose C cap D is the base's tensored; the one other intersection is
    # the product check's of the tensored pair, for intersection_gap
    inters = count_calls("intersect", subalg)
    loop_inters = count_calls("intersect", loops.LoopAlg)
    tensors = count_calls("tensor_with_full", subalg)
    for name, want in (("twisted_pair", (2, 0, 6)), ("block_pair", (1, 0, 6)),
                       ("circle_split", (0, 1, 0))):
        for calls in (inters, loop_inters, tensors):
            calls.clear()
        assert run_cli(["run", name, "--seed", "7",
                        "--out", str(tmp_path / f"{name}.json")]) == 0
        assert (len(inters), len(loop_inters), len(tensors)) == want, name


@pytest.mark.parametrize("name, readers", [
    ("block_pair", (("check_delta_ideal_structure", 1), ("uniformity_probe", 0),
                    ("whitehead_split", 2))),
    ("twisted_pair", (("iota_lift", 2), ("uniformity_probe", 0))),
    ("circle_split", (("check_delta_ideal_structure", 1), ("build_lift_v", 2),
                      ("whitehead_split", 2))),
])
def test_report_reads_one_pair_at_its_tol(count_calls, name, readers):
    # run_checks builds the report's pair once, at the report's Tol, and
    # every check hands that one Pair to the boundary entry point it calls
    tol = Tol(membership_tol=1e-8)
    calls = {fn: count_calls(fn, boundary) for fn, _ in readers}
    desc = cli.load_scenario(name, grid_override=360 if name == "circle_split" else None)
    cli.run_checks(desc, desc["checks"], tol, 7)
    pairs = [args[at] for fn, at in readers for args in calls[fn]]
    assert [len(calls[fn]) for fn, _ in readers] == [1] * len(readers)
    assert isinstance(pairs[0], boundary.Pair) and pairs[0].tol == tol
    assert all(pair is pairs[0] for pair in pairs)


def test_parser_is_built_once_per_process(tmp_path):
    # parsing never changes the argparse tree, so every call reads one
    assert cli.make_parser() is cli.make_parser()
    assert run_cli(["sweep", "riesz", "--count", "2",
                    "--out", str(tmp_path / "a.csv")]) == 0
    assert run_cli(["sweep", "invcut", "--count", "2", "--seed", "3",
                    "--out", str(tmp_path / "b.csv")]) == 0
    args = cli.make_parser().parse_args(["sweep", "riesz"])
    assert (args.count, args.seed, args.out) == (200, None, None)


def test_report_decomposes_each_algebra_once(tmp_path, count_calls):
    # an algebra holds its Wedderburn data: twisted_pair decomposes C, D and
    # C cap D once each, and the 9 algebras tensored with M_2 for its 3
    # product rows derive their data from these; the other bundled reports
    # read no class over a matrix algebra
    calls = count_calls("decompose", wedderburn)
    for name, want in (("twisted_pair", 3), ("block_pair", 0), ("circle_split", 0)):
        calls.clear()
        assert run_cli(["run", name, "--seed", "7",
                        "--out", str(tmp_path / f"{name}.json")]) == 0
        assert len(calls) == want, name
        assert len({id(args[0]) for args in calls}) == want, name


def test_scipy_loads_on_first_use(tmp_path):
    # the suite has loaded scipy already, so the check runs in a fresh
    # interpreter: the bundled reports never load it, nor does rounding a
    # defective almost-idempotent; a band kernel loads scipy.linalg through
    # matcore.scipy_linalg
    script = f"""
import sys
import numpy as np
import approxk, approxk.cli
for name in {cli.BUNDLED!r}:
    out = {str(tmp_path)!r} + "/" + name + ".json"
    assert approxk.cli.main(["run", name, "--seed", "7", "--out", out]) == 0
assert "scipy" not in sys.modules, "a bundled report loaded scipy"
f, cert = approxk.funcalc.riesz_idempotent(np.array([[0.0, 1e-3], [0.0, 0.0]]))
assert cert.passed and "scipy" not in sys.modules, "Riesz rounding loaded scipy"
approxk.matcore.band_det(approxk.matcore.Band(np.ones((1, 3), dtype=complex), 0, 0))
assert "scipy.linalg" in sys.modules, "a band kernel ran without scipy.linalg"
"""
    src = str(pathlib.Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=300, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr


def test_single_check_subcommand(tmp_path):
    out = tmp_path / "u.json"
    assert run_cli(["uniformity", "block_pair", "--samples", "10",
                    "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["checks"][0]["check"] == "uniformity"
    assert report["checks"][0]["samples"] == 30


def test_schema_errors_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": 99, "kind": "twisted_pair"}')
    assert run_cli(["run", str(bad)]) == 2
    worse = tmp_path / "worse.json"
    worse.write_text("not json")
    assert run_cli(["run", str(worse)]) == 2
    assert run_cli(["run", "no_such_scenario"]) == 2
    for name, text in [
        ("h_middle", {"kind": "block_pair", "params": {"h_middle": "x"}}),
        ("seed", {"kind": "twisted_pair", "seed": "x"}),
        ("expect", {"kind": "twisted_pair",
                    "checks": [{"check": "boundary", "expect": "abc"}]}),
    ]:
        scenario = {"schema": 1, "checks": [{"check": "boundary"}], **text}
        path = tmp_path / f"bad_{name}.json"
        path.write_text(json.dumps(scenario))
        assert run_cli(["run", str(path)]) == 2, name


@pytest.mark.parametrize("name", [["boundary"], {"check": "boundary"}, 3],
                         ids=["list", "object", "number"])
def test_check_name_must_be_a_string(tmp_path, capsys, name):
    # a name that is not a string is refused with the schema, not looked up
    # in CHECKS, where a list or an object is unhashable
    path = tmp_path / "bad_check.json"
    path.write_text(json.dumps({"schema": 1, "kind": "twisted_pair",
                                "checks": [{"check": name}]}))
    assert run_cli(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("params, override", [
    ({"grid": cli.MAX_LOOP_ENTRIES + 1}, None),
    ({"grid": cli.MAX_LOOP_ENTRIES // 4 + 1, "fiber": 2}, None),
    ({}, cli.MAX_LOOP_ENTRIES + 1),
    ({"fiber": 2}, cli.MAX_LOOP_ENTRIES // 4 + 1),
], ids=["grid", "grid-fiber", "--grid", "--grid-fiber"])
def test_circle_split_size_is_bounded(tmp_path, capsys, monkeypatch, params, override):
    # one past the cap on grid or grid * fiber^2, from the file or --grid,
    # is refused by the schema before any loop is built
    def never(**kwargs):
        raise AssertionError("circle_split was built")

    monkeypatch.setattr(scenarios, "circle_split", never)
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"schema": 1, "kind": "circle_split", "params": params,
                                "checks": [{"check": "boundary"}]}))
    argv = ["run", str(path)] + ([] if override is None else ["--grid", str(override)])
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: circle_split grid") and err.count("\n") == 1, err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("h_middle", [1e308, -1e308])
@pytest.mark.parametrize("command", ["run", "check-ideal-structure"])
def test_huge_multiplier_is_recorded_not_a_contraction(tmp_path, command, h_middle):
    # a finite multiplier whose Hermitian part overflowed once ended in a
    # LinAlgError traceback; it is refused as a failed check, exit 1
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"schema": 1, "kind": "block_pair",
                                "params": {"h_middle": h_middle},
                                "checks": [{"check": "check-ideal-structure"}]}))
    out = tmp_path / "huge_out.json"
    assert run_cli([command, str(path), "--out", str(out)]) == 1
    [rec] = json.loads(out.read_text())["checks"]
    assert rec["error"] == "NotAContraction" and "spectrum" in rec["detail"]


def _not_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"schema": 1, "name": "caf\u00e9"}'.encode("latin-1"))
    return ["run", str(path)]


@pytest.mark.parametrize("argv", [
    lambda tmp_path: ["boundary", "block_pair"],
    lambda tmp_path: ["sigma-witness", "block_pair"],
    _not_utf8,
    lambda tmp_path: ["run", str(tmp_path)],
], ids=["boundary-without-lift", "sigma-witness-without-lift", "not-utf8",
        "directory"])
def test_bad_input_exits_2_without_traceback(tmp_path, capsys, argv):
    # block_pair has a multiplier but no unitary to lift; a scenario file
    # must be readable UTF-8 text
    assert run_cli(argv(tmp_path)) == 2
    assert capsys.readouterr().err.startswith("error: ")


def _file_without_h(tmp_path):
    path = tmp_path / "my_pair.json"
    path.write_text(json.dumps({"schema": 1, "name": "twisted_pair",
                                "kind": "twisted_pair", "checks": []}))
    return str(path)


@pytest.mark.parametrize("argv, message", [
    (lambda tmp_path: ["boundary", "block_pair"], "scenario block_pair has no lift"),
    (lambda tmp_path: ["sigma-witness", "block_pair.json"],
     "scenario block_pair.json has no lift"),
    (lambda tmp_path: ["check-ideal-structure", _file_without_h(tmp_path)],
     "my_pair.json has no multiplier h"),
    (lambda tmp_path: ["whitehead", _file_without_h(tmp_path)],
     "my_pair.json has no multiplier h"),
    (lambda tmp_path: ["run", _file_without_h(tmp_path)],
     "my_pair.json' declares no checks"),
], ids=["bundled-boundary", "bundled-sigma-witness", "file-ideal-structure",
        "file-whitehead", "file-run"])
def test_errors_name_the_scenario_given(tmp_path, capsys, argv, message):
    # bundled block_pair is named block_ideal_pair inside, and the file
    # names itself twisted_pair: the message names what the user gave
    assert run_cli(argv(tmp_path)) == 2
    assert message in capsys.readouterr().err


def test_bad_check_name_exits_2(tmp_path):
    bad = tmp_path / "bad_check.json"
    bad.write_text(json.dumps({
        "schema": 1, "kind": "twisted_pair",
        "checks": [{"check": "not-a-check"}],
    }))
    assert run_cli(["run", str(bad)]) == 2


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_uniformity_samples_flag_below_one_exits_2(capsys, samples):
    assert run_cli(["uniformity", "block_pair", "--samples", samples]) == 2
    assert "samples" in capsys.readouterr().err


def test_uniformity_samples_param_below_one_exits_2(tmp_path):
    path = tmp_path / "no_samples.json"
    path.write_text(json.dumps({
        "schema": 1, "kind": "block_pair",
        "checks": [{"check": "uniformity", "samples": 0}],
    }))
    assert run_cli(["run", str(path)]) == 2


FAR_ABOVE_THE_DRAW_BOUND = 2 ** 40


def _samples_in_file(tmp_path):
    path = tmp_path / "many_draws.json"
    path.write_text(json.dumps({
        "schema": 1, "kind": "block_pair",
        "checks": [{"check": "uniformity", "samples": FAR_ABOVE_THE_DRAW_BOUND}],
    }))
    return ["run", str(path)]


@pytest.mark.parametrize("argv", [
    lambda tmp_path: ["uniformity", "block_pair", "--samples", str(FAR_ABOVE_THE_DRAW_BOUND)],
    lambda tmp_path: ["uniformity", "circle_split", "--samples", str(FAR_ABOVE_THE_DRAW_BOUND)],
    _samples_in_file,
    lambda tmp_path: ["sweep", "uniformity", "--count", str(FAR_ABOVE_THE_DRAW_BOUND)],
], ids=["--samples", "--samples-loops", "samples-param", "sweep--count"])
def test_uniformity_draws_are_bounded(tmp_path, capsys, monkeypatch, argv):
    # a draw count far above the bound once ended in a MemoryError; it is
    # refused by the schema before any draw
    def never(*args, **kwargs):
        raise AssertionError("uniformity_probe ran")

    monkeypatch.setattr(boundary, "uniformity_probe", never)
    assert run_cli(argv(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {FAR_ABOVE_THE_DRAW_BOUND} uniformity draws") \
        and err.count("\n") == 1, err


@pytest.mark.parametrize("name, per_draw", [
    ("twisted_pair", 12 ** 2), ("block_pair", 18 ** 2), ("circle_split", 720 * 3 ** 2),
])
def test_draw_bound_admits_exactly_max_draw_entries(name, per_draw):
    # the bound itself is checked without drawing: the largest admitted
    # count has at most MAX_DRAW_ENTRIES entries at amplification 3
    scn = cli.build_scenario(cli.load_scenario(name))
    pair = boundary.Pair(scn["c"], scn["d"])
    most = cli.MAX_DRAW_ENTRIES // per_draw
    assert cli._bounded_draws(most, pair) == most
    with pytest.raises(cli.SchemaError, match="uniformity draws"):
        cli._bounded_draws(most + 1, pair)


def test_empty_check_list_exits_2(tmp_path, capsys):
    path = tmp_path / "no_checks.json"
    path.write_text(json.dumps({"schema": 1, "kind": "twisted_pair",
                                "checks": []}))
    assert run_cli(["run", str(path)]) == 2
    assert "no checks" in capsys.readouterr().err


def test_sweep_count_below_one_exits_2(tmp_path):
    out = tmp_path / "empty.csv"
    assert run_cli(["sweep", "riesz", "--count", "0", "--out", str(out)]) == 2
    assert not out.exists()


def test_uniformity_without_ratios_fails(monkeypatch):
    empty = boundary.UniformityReport([], [], 0.0, (1, 2, 3), 0)
    monkeypatch.setattr(boundary, "uniformity_probe", lambda *a, **k: empty)
    scn = scenarios.block_ideal_pair()
    scn["pair"] = boundary.Pair(scn["c"], scn["d"])
    rec = cli.check_uniformity(scn, 0, {})
    assert rec["samples"] == 0
    assert rec["passed"] is False


def test_unequal_product_rows_fail(monkeypatch):
    # the check reads each row's gate, which fails when the sides differ
    unequal = kprod.ProductCheck((1, -1), (2, -2), False, None, 0)
    monkeypatch.setattr(kprod, "boundary_product_check", lambda *a, **k: unequal)
    scn = cli.build_scenario({"kind": "twisted_pair", "params": {}})
    scn["pair"] = boundary.Pair(scn["c"], scn["d"])
    rec = cli.check_product(scn, 0, {})
    assert [row["equal"] for row in rec["rows"]] == [False] * 3
    assert rec["passed"] is False


def test_failing_budget_exits_1(tmp_path):
    strict = tmp_path / "strict.json"
    strict.write_text(json.dumps({
        "schema": 1, "kind": "block_pair",
        "params": {"h_middle": 0.5},
        "checks": [{"check": "uniformity", "samples": 10,
                    "ratio_max": 1e-12}],
    }))
    out = tmp_path / "strict_out.json"
    assert run_cli(["run", str(strict), "--out", str(out)]) == 1
    assert json.loads(out.read_text())["passed"] is False


def test_sweep_riesz_csv(tmp_path):
    out = tmp_path / "riesz.csv"
    assert run_cli(["sweep", "riesz", "--count", "25",
                    "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "index,n,delta,c,distance,bound,passed"
    assert len(lines) == 26
    assert all(line.endswith(",true") for line in lines[1:])


def test_sweep_invcut_json(tmp_path):
    out = tmp_path / "invcut.json"
    assert run_cli(["sweep", "invcut", "--count", "10", "--format", "json",
                    "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["header"][0] == "index"
    assert len(payload["rows"]) == 10


def test_csv_refused_for_reports(capsys):
    assert run_cli(["run", "twisted_pair", "--format", "csv"]) == 2
    assert "csv" in capsys.readouterr().err


def test_env_tolerance_must_parse(monkeypatch):
    monkeypatch.setenv("APPROXK_TOL", "not-a-float")
    assert run_cli(["run", "twisted_pair"]) == 2


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_nonfinite_tolerance_exits_2(monkeypatch, capsys, value):
    assert run_cli(["run", "twisted_pair", "--tol", value]) == 2
    assert "membership_tol must be finite" in capsys.readouterr().err
    monkeypatch.setenv("APPROXK_TOL", value)
    assert run_cli(["sweep", "riesz", "--count", "1"]) == 2
    assert "membership_tol must be finite" in capsys.readouterr().err


def test_env_tolerance_applies(monkeypatch, tmp_path):
    monkeypatch.setenv("APPROXK_TOL", "1e-8")
    out = tmp_path / "rep.json"
    assert run_cli(["run", "twisted_pair", "--out", str(out)]) == 0
