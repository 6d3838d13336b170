"""End-to-end tests of the command line interface.

Every test drives ``matpoly.cli.main`` with an argv list and inspects
captured stdout/stderr plus the exit code, the same contract a shell
user sees.
"""

import json
import signal
import sys

import pytest

from matpoly import cli
from matpoly.cli import main, parse_matroid_spec, poly_checksum
from matpoly.algebra import BiPoly, IntPoly
from matpoly.projective import chi_pg, chi_pg_dual, points_count

K4_JSON = '{"n": 4, "edges": [[0,1],[0,2],[0,3],[1,2],[1,3],[2,3]]}'
TRIANGLE_JSON = '{"n": 3, "edges": [[0,1],[1,2],[0,2]]}'

F_K5_COEFFS = ["51", "-147", "175", "-115", "45", "-10", "1"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_flow_kn_partitions_golden(capsys):
    code, out, err = run(capsys, ["flow-kn", "--n", "5"])
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["method"] == "partitions"
    assert data["n"] == 5
    assert data["poly"] == {"var": "x", "coeffs": F_K5_COEFFS}


def test_flow_kn_methods_agree(capsys):
    outs = []
    for method in ("partitions", "egf", "tutte"):
        code, out, _ = run(capsys, ["flow-kn", "--n", "5", "--method", method])
        assert code == 0
        outs.append(json.loads(out)["poly"])
    assert outs[0] == outs[1] == outs[2]


def test_flow_kn_output_is_byte_stable(capsys):
    _, first, _ = run(capsys, ["flow-kn", "--n", "7"])
    _, second, _ = run(capsys, ["flow-kn", "--n", "7"])
    assert first == second


def test_flow_kn_bad_n_exits_2(capsys):
    code, out, err = run(capsys, ["flow-kn", "--n", "0"])
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "BadParams"


def test_flow_kn_tutte_budget_blown_exits_1(capsys):
    code, out, err = run(
        capsys,
        ["flow-kn", "--n", "9", "--method", "tutte", "--budget-s", "0.2"],
    )
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["type"] == "BudgetExceeded"


def test_flow_kn_fast_routes_refuse_a_budget(capsys):
    # only the tutte scan honours --budget-s; the fast routes used to drop it
    for method in ("partitions", "egf"):
        code, out, err = run(
            capsys, ["flow-kn", "--n", "5", "--method", method, "--budget-s", "0"]
        )
        assert code == 2 and out == "", method
        assert json.loads(err)["error"]["type"] == "BadParams", method
    code, out, _ = run(
        capsys, ["flow-kn", "--n", "5", "--method", "tutte", "--budget-s", "60"]
    )
    assert code == 0
    assert json.loads(out)["poly"]["coeffs"] == F_K5_COEFFS


def test_chi_budget_blown_exits_1(capsys):
    code, out, err = run(capsys, ["chi", "--matroid", "pg:4,2", "--budget-s", "0"])
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["type"] == "BudgetExceeded"
    # a budget that is not spent changes nothing
    code, out, _ = run(capsys, ["chi", "--matroid", "pg:4,2", "--budget-s", "60"])
    assert code == 0
    assert out == run(capsys, ["chi", "--matroid", "pg:4,2"])[1]


def test_budgets_must_be_finite(capsys):
    # a nan or infinite deadline never passes, so it would lift the scan's
    # node bound and bound nothing: each command refuses such a budget, and
    # a negative one, before any work, where flow-kn and bench on K12 and
    # chi on pg:8,2 would run for ever
    def too_slow(*_):
        raise TimeoutError("a bad budget was not refused at once")

    old = signal.signal(signal.SIGALRM, too_slow)
    try:
        for budget in ("nan", "inf", "1e400", "-1"):
            for argv in (
                ["flow-kn", "--n", "12", "--method", "tutte"],
                ["bench", "flow-kn", "--n-max", "12", "--methods", "tutte"],
                ["bench", "flow-kn", "--n-max", "3"],
                ["chi", "--matroid", "pg:8,2"],
            ):
                signal.setitimer(signal.ITIMER_REAL, 1.0)
                code, out, err = run(capsys, argv + ["--budget-s", budget])
                signal.setitimer(signal.ITIMER_REAL, 0)
                assert code == 2 and out == "", argv + [budget]
                assert json.loads(err)["error"]["type"] == "BadParams", argv + [budget]
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    # a finite deadline lifts the walk's node bound: pg:8,2, too large for
    # the span DP, walks until it passes, where without a budget it is
    # refused
    code, out, err = run(capsys, ["chi", "--matroid", "pg:8,2", "--budget-s", "0.2"])
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["type"] == "BudgetExceeded"


def test_chi_uniform(capsys):
    code, out, _ = run(capsys, ["chi", "--matroid", "uniform:2,4"])
    assert code == 0
    data = json.loads(out)
    assert data["poly"]["coeffs"] == ["3", "-4", "1"]


def test_chi_graphic_from_file_and_inline(capsys, tmp_path):
    p = tmp_path / "k4.json"
    p.write_text(K4_JSON)
    code, out, _ = run(capsys, ["chi", "--matroid", f"graphic:{p}"])
    assert code == 0
    from_file = json.loads(out)["poly"]
    code, out, _ = run(capsys, ["chi", "--matroid", "graphic:" + K4_JSON])
    assert code == 0
    assert json.loads(out)["poly"] == from_file == {
        "var": "x",
        "coeffs": ["-6", "11", "-6", "1"],
    }


def test_chi_names_the_route_that_ran(capsys, tmp_path):
    k4 = tmp_path / "k4.json"
    k4.write_text(K4_JSON)
    for spec, route in (
        ("pg:3,2:dual", "dual"),
        ("pg:4,2", "span"),
        ("pg:3,3", "scan"),
        ("uniform:2,4", "closed"),
        (f"graphic:{k4}", "vertex"),
    ):
        code, out, _ = run(capsys, ["chi", "--matroid", spec])
        assert code == 0, spec
        assert json.loads(out)["method"] == route, spec


def test_chi_dual_suffix(capsys):
    code, out, _ = run(capsys, ["chi", "--matroid", "pg:3,2:dual"])
    assert code == 0
    assert json.loads(out)["poly"]["coeffs"] == ["13", "-28", "21", "-7", "1"]


def test_chi_walks_pg_specs_past_24_points(capsys):
    # each route refuses only its own work: the span DP takes pg:5,2,
    # pg:6,2 and their duals, chi's walk pg:4,3, while the commands that
    # need a table or the broken circuits keep their guards, and pg:8,2's
    # dual census, too large for the span DP, is refused by the scan's
    # node bound
    for n, q in ((5, 2), (4, 3), (6, 2)):
        code, out, _ = run(capsys, ["chi", "--matroid", f"pg:{n},{q}"])
        assert code == 0
        assert json.loads(out)["poly"]["coeffs"] == [str(c) for c in chi_pg(n, q).coeffs]
    for n in (5, 6):
        code, out, _ = run(capsys, ["chi", "--matroid", f"pg:{n},2:dual"])
        assert code == 0
        assert json.loads(out)["poly"]["coeffs"] == [str(c) for c in chi_pg_dual(n, 2).coeffs]
    for argv in (
        ["chi", "--matroid", "pg:8,2:dual"],
        ["verify", "--identity", "kung", "--matroid", "pg:5,2"],
        ["oracle", "chi-bc", "--matroid", "pg:5,2"],
    ):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "", argv
        assert json.loads(err)["error"]["type"] == "TooLarge", argv


def test_chi_bad_specs_exit_2(capsys):
    for spec in (
        "uniform:2", "uniform:5,2", "pg:2,4", "widget:1,2", "plain",
        "pg:x,2", "graphic:{bad", "graphic:no/such/graph.json",
    ):
        code, _, err = run(capsys, ["chi", "--matroid", spec])
        assert code == 2, spec
        assert json.loads(err)["error"]["type"] == "BadParams", spec


def test_chi_pg_dual_command(capsys):
    code, out, _ = run(capsys, ["chi-pg-dual", "--n", "3", "--q", "2"])
    assert code == 0
    data = json.loads(out)
    assert data == {
        "n": 3,
        "q": 2,
        "poly": {"var": "x", "coeffs": ["13", "-28", "21", "-7", "1"]},
    }
    code, _, err = run(capsys, ["chi-pg-dual", "--n", "3", "--q", "4"])
    assert code == 2
    assert json.loads(err)["error"]["type"] == "BadParams"


def test_chi_pg_dual_prints_coefficients_past_the_int_str_limit(capsys):
    # PG(4,11)'s chi has 4,847-digit coefficients, past Python's default
    # 4,300-digit int-to-str limit, which used to end the command in a
    # ValueError traceback
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, err = run(capsys, ["chi-pg-dual", "--n", "5", "--q", "11"])
    assert code == 0 and err == ""
    coeffs = json.loads(out)["poly"]["coeffs"]
    assert len(coeffs) == points_count(5, 11) - 5 + 1
    assert coeffs[-1] == "1"
    assert max(map(len, coeffs)) > 4300
    # the limit is lifted only while the result is formatted
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    if limit:
        with pytest.raises(SystemExit) as exc:
            main(["chi-pg-dual", "--n", "1" * (limit + 1), "--q", "3"])
        assert exc.value.code == 2


def test_tutte_pg_command(capsys):
    code, out, _ = run(capsys, ["tutte-pg", "--n", "2", "--q", "2"])
    assert code == 0
    data = json.loads(out)
    assert data["poly"] == {
        "vars": ["x", "y"],
        "coeffs": [
            {"dx": 0, "dy": 1, "c": "1"},
            {"dx": 1, "dy": 0, "c": "1"},
            {"dx": 2, "dy": 0, "c": "1"},
        ],
    }


def test_verify_pass_and_fail_exit_codes(capsys):
    code, out, _ = run(
        capsys, ["verify", "--identity", "finaltwo", "--matroid", "uniform:2,4"]
    )
    assert code == 0
    assert json.loads(out)["passed"] is True

    code, out, _ = run(
        capsys,
        ["verify", "--identity", "uniform-split",
         "--matroid", "graphic:" + K4_JSON],
    )
    assert code == 3
    data = json.loads(out)
    assert data["passed"] is False
    assert data["first_mismatch"]


def test_verify_graph_kinds_need_plain_graphic_target(capsys):
    code, out, _ = run(
        capsys,
        ["verify", "--identity", "matiyasevich",
         "--matroid", "graphic:" + TRIANGLE_JSON],
    )
    assert code == 0 and json.loads(out)["passed"] is True
    for spec in ("uniform:2,3", "graphic:" + TRIANGLE_JSON + ":dual"):
        code, _, err = run(
            capsys, ["verify", "--identity", "matiyasevich", "--matroid", spec]
        )
        assert code == 2, spec
        assert json.loads(err)["error"]["type"] == "BadParams"


def test_verify_exact_kind_rejects_samples(capsys):
    # every kind is proved as a polynomial and there is no --samples
    # option, so argparse refuses it with exit code 2
    for ident in ("kung", "thm1-one", "th2-connected-partitions"):
        with pytest.raises(SystemExit) as exc:
            run(
                capsys,
                ["verify", "--identity", ident, "--matroid", "uniform:2,4",
                 "--samples", "2"],
            )
        assert exc.value.code == 2, ident
        assert "--samples" in capsys.readouterr().err


def test_oracle_colorings_and_flows(capsys):
    code, out, _ = run(
        capsys, ["oracle", "colorings", "--graph", TRIANGLE_JSON, "--q", "3"]
    )
    assert code == 0
    assert json.loads(out)["count"] == "6"
    code, out, _ = run(
        capsys, ["oracle", "flows", "--graph", K4_JSON, "--q", "4"]
    )
    assert code == 0
    assert json.loads(out)["count"] == "6"


def test_oracle_chi_bc(capsys):
    code, out, _ = run(capsys, ["oracle", "chi-bc", "--matroid", "pg:3,2"])
    assert code == 0
    assert json.loads(out)["poly"]["coeffs"] == ["-8", "14", "-7", "1"]


def test_oracle_missing_arguments_exit_2(capsys):
    for argv in (
        ["oracle", "colorings", "--q", "3"],
        ["oracle", "colorings", "--graph", TRIANGLE_JSON],
        ["oracle", "flows", "--q", "3"],
        ["oracle", "chi-bc"],
        # each refuses the arguments it would ignore
        ["oracle", "chi-bc", "--matroid", "pg:3,2", "--q", "3"],
        ["oracle", "chi-bc", "--matroid", "pg:3,2", "--graph", TRIANGLE_JSON],
        ["oracle", "colorings", "--graph", TRIANGLE_JSON, "--q", "3", "--matroid", "pg:3,2"],
        ["oracle", "flows", "--graph", K4_JSON, "--q", "4", "--matroid", "pg:3,2"],
    ):
        code, _, err = run(capsys, argv)
        assert code == 2, argv
        assert json.loads(err)["error"]["type"] == "BadParams"


def test_oversized_pg_spec_is_refused_before_it_is_built(capsys):
    # make_pg lists every point, so pg:30,2 and pg:12,5 would take
    # minutes and gigabytes, and pg:100000000,3's point count alone a
    # power of 3 with 10^8 digits; pg:8,2 has over 2^24 sets of at most 8
    # of its 255 points, and its span DP would hold about 98.5M states;
    # every command must refuse them within 1 s
    def too_slow(*_):
        raise TimeoutError("the command ran for 1 s before it refused the spec")

    old = signal.signal(signal.SIGALRM, too_slow)
    try:
        for spec in ("pg:30,2", "pg:12,5:dual", "pg:100000000,3", "pg:8,2", "pg:8,2:dual"):
            for argv in (
                ["chi", "--matroid", spec],
                ["verify", "--identity", "kung", "--matroid", spec],
                ["oracle", "chi-bc", "--matroid", spec],
            ):
                signal.setitimer(signal.ITIMER_REAL, 1.0)
                code, out, err = run(capsys, argv)
                signal.setitimer(signal.ITIMER_REAL, 0)
                assert code == 2 and out == "", argv
                assert json.loads(err)["error"]["type"] == "TooLarge", argv
        # pg:16,2, the largest geometry make_pg lists (65,535 points), is
        # built, and the walk's node bound refuses it within 1 s as well
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        code, out, err = run(capsys, ["chi", "--matroid", "pg:16,2"])
        signal.setitimer(signal.ITIMER_REAL, 0)
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "TooLarge"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def test_one_point_pg_over_a_large_field_is_built_at_once(capsys):
    # pg:1,p has one point; making it must not walk the p field elements,
    # nor try every divisor of the prime 2^61 - 1
    def too_slow(*_):
        raise TimeoutError("make_pg visited more than the points")

    old = signal.signal(signal.SIGALRM, too_slow)
    try:
        for spec in ("pg:1,10000019", "pg:1,2305843009213693951"):
            signal.setitimer(signal.ITIMER_REAL, 1.0)
            code, out, _ = run(capsys, ["chi", "--matroid", spec])
            signal.setitimer(signal.ITIMER_REAL, 0)
            assert code == 0, spec
            assert json.loads(out)["poly"]["coeffs"] == ["-1", "1"], spec
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def test_bench_consistent(capsys):
    code, out, _ = run(
        capsys,
        ["bench", "flow-kn", "--n-max", "5", "--methods", "partitions,egf,tutte"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["consistent"] is True
    assert "workers" not in data
    assert len(data["rows"]) == 15
    by_n = {}
    for row in data["rows"]:
        assert row["status"] == "ok"
        by_n.setdefault(row["n"], set()).add(row["checksum"])
    assert all(len(s) == 1 for s in by_n.values())


def test_bench_catches_a_sign_error(capsys, monkeypatch):
    # -F has the same sum of |coefficients|, so the checksums still agree
    orig = cli.flow_kn_egf
    monkeypatch.setattr(cli, "flow_kn_egf", lambda n: -orig(n))
    code, out, _ = run(
        capsys, ["bench", "flow-kn", "--n-max", "6", "--methods", "partitions,egf"]
    )
    assert code == 3
    data = json.loads(out)
    assert data["consistent"] is False
    by_n = {}
    for row in data["rows"]:
        by_n.setdefault(row["n"], set()).add(row["checksum"])
    assert all(len(s) == 1 for s in by_n.values())


def test_bench_ignores_matpoly_threads(capsys, monkeypatch):
    monkeypatch.setenv("MATPOLY_THREADS", "abc")
    code, out, err = run(capsys, ["bench", "flow-kn", "--n-max", "2"])
    assert code == 0 and err == ""
    assert json.loads(out)["consistent"] is True


def test_bench_budget_exceeded_row(capsys):
    code, out, _ = run(
        capsys,
        ["bench", "flow-kn", "--n-max", "9", "--methods", "partitions,tutte",
         "--budget-s", "0.2"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["consistent"] is True
    statuses = {(r["method"], r["status"]) for r in data["rows"]}
    assert ("tutte", "budget-exceeded") in statuses
    assert ("partitions", "ok") in statuses
    # the dead method is not retried at larger n
    tutte_rows = [r for r in data["rows"] if r["method"] == "tutte"]
    assert tutte_rows[-1]["status"] == "budget-exceeded"


def test_bench_rejects_unknown_method(capsys):
    code, _, err = run(
        capsys, ["bench", "flow-kn", "--n-max", "3", "--methods", "sorcery"]
    )
    assert code == 2
    assert json.loads(err)["error"]["type"] == "BadParams"


def test_parse_matroid_spec_shapes():
    m, g = parse_matroid_spec("uniform:2,4")
    assert m.ground_size == 4 and g is None
    m, g = parse_matroid_spec("graphic:" + TRIANGLE_JSON)
    assert g is not None and m.ground_size == 3
    m, g = parse_matroid_spec("graphic:" + TRIANGLE_JSON + ":dual")
    assert g is None and m.full_rank() == 1
    assert m.label == "graphic:" + TRIANGLE_JSON + ":dual"


def test_poly_checksum():
    assert poly_checksum(IntPoly((-6, 11, -6, 1))) == f"0x{24:016x}"
    assert poly_checksum(BiPoly({(1, 0): -3, (0, 2): 4})) == f"0x{7:016x}"
