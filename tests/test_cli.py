import dataclasses
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from zdrlab.cli import main
from zdrlab.graphs import EmptyGraphError
from zdrlab.rings import RingError
from zdrlab.solver import BudgetExceededError
from zdrlab import cli as cli_mod
from zdrlab import verify as verify_mod

import oracles

GOLDEN = Path(__file__).parent / "golden"
ROOT = Path(__file__).resolve().parent.parent


def golden(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


@pytest.fixture()
def runner():
    return CliRunner()


def test_ring_describe(runner):
    result = runner.invoke(main, ["ring", "describe", "Zni:3"])
    assert result.exit_code == 0
    assert "field" in result.output
    assert "L(R) (0 elements)" in result.output


def test_ring_describe_json(runner):
    result = runner.invoke(main, ["ring", "describe", "Zn:6", "--json"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["zero_divisors"] == [2, 3, 4]
    assert doc["is_local"] is False


@pytest.mark.parametrize(
    "spec, stem",
    [("Zn:72", "Zn72"), ("Zni:10", "Zni10"), ("prod:(Zn:4,Zni:3)", "prod_Zn4_Zni3"),
     ("cat:cvA3", "cat_cvA3")],
)
def test_ring_describe_matches_golden(runner, spec, stem):
    # pins the properties, nilpotents and L(R) of each family, in text and JSON
    for args, ext in [([], "txt"), (["--json"], "json")]:
        result = runner.invoke(main, ["ring", "describe", spec, *args])
        assert result.exit_code == 0
        assert result.output == golden(f"ring_describe_{stem}.{ext}"), ext


def test_ring_describe_invalid(runner):
    result = runner.invoke(main, ["ring", "describe", "Zn:one"])
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "spec",
    [
        "Zn:" + "9" * 5000,  # more digits than int() converts
        "cat:Zpr.r2:" + "9" * 5000,
        "Zn:²",  # superscript two: str.isdigit accepts it, int() does not
        "Zn:١٢",  # Arabic-Indic 12, which int() would read as 12
    ],
    ids=["5000-digits", "catalog-5000-digits", "superscript", "arabic-indic"],
)
def test_ring_describe_rejects_non_ascii_or_huge_integers(runner, spec):
    result = runner.invoke(main, ["ring", "describe", spec])
    assert result.exit_code == 2
    assert "bad ring spec" in result.output


def test_graph_build_edgelist(runner):
    result = runner.invoke(main, ["graph", "build", "Zn:6", "--format", "edgelist"])
    assert result.exit_code == 0
    assert result.output.splitlines()[-2:] == ["2 3", "3 4"]


def test_graph_build_empty_graph(runner):
    result = runner.invoke(main, ["graph", "build", "Zn:7"])
    assert result.exit_code == 2
    assert "integral domain" in result.output


def test_dims_solve_ddim(runner):
    result = runner.invoke(main, ["dims", "solve", "Zn:25", "--which", "ddim"])
    assert result.exit_code == 0
    assert "ddim: 3" in result.output
    witness_line = [l for l in result.output.splitlines() if "witness" in l][0]
    assert len(witness_line.split(":")[1].split(",")) == 3


def test_dims_solve_json_deterministic(runner):
    args = ["dims", "solve", "Zn:25", "--which", "all", "--json", "--deterministic"]
    a = runner.invoke(main, args)
    b = runner.invoke(main, args)
    assert a.exit_code == 0
    assert a.output == b.output
    doc = json.loads(a.output)
    assert doc["ddim"]["value"] == 3
    assert doc["ddim"]["elapsed_ms"] == 0.0
    assert doc["gamma"]["value"] == 1
    assert doc["dim"]["value"] == 3
    # the checks counters pin the twin partition and the search order
    for name, args in [
        ("dims_Zn60_dim.json", ["Zn:60", "--which", "dim"]),
        ("dims_Zn42.json", ["Zn:42"]),
    ]:
        result = runner.invoke(main, ["dims", "solve", *args, "--json", "--deterministic"])
        assert result.exit_code == 0
        assert result.output == golden(name), name


def test_dims_solve_graph_file(runner, tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("# vertex 0 a\n# vertex 1 b\n# vertex 2 c\n0 1\n1 2\n")
    result = runner.invoke(main, ["dims", "solve", "--graph", str(path), "--which", "ddim"])
    assert result.exit_code == 0
    assert "ddim: 2" in result.output


@pytest.mark.parametrize("text,lineno", [
    ("0 1\n1 \u0662\n", 2), ("0 1\n1 \u00b2\n", 2), ("# vertex \u00b2 x\n0 1\n", 1),
])
def test_dims_solve_graph_rejects_non_ascii_ids(runner, tmp_path, text, lineno):
    path = tmp_path / "g.edges"
    path.write_text(text, encoding="utf-8")
    result = runner.invoke(main, ["dims", "solve", "--graph", str(path)])
    assert result.exit_code == 2
    assert f"line {lineno}: expected " in result.output


def test_dims_solve_requires_one_input(runner, tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("0 1\n")
    result = runner.invoke(main, ["dims", "solve"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["dims", "solve", "Zn:6", "--graph", str(path)])
    assert result.exit_code == 2


def test_dims_solve_budget_exceeded(runner, tmp_path):
    path = tmp_path / "path20.edges"
    path.write_text("".join(f"{i} {i + 1}\n" for i in range(19)))
    result = runner.invoke(
        main, ["dims", "solve", "--graph", str(path), "--which", "ddim",
               "--budget-checks", "3"]
    )
    assert result.exit_code == 4
    assert "budget exceeded" in result.output


def test_dims_solve_env_budget(runner, tmp_path):
    path = tmp_path / "path20.edges"
    path.write_text("".join(f"{i} {i + 1}\n" for i in range(19)))
    result = runner.invoke(
        main,
        ["dims", "solve", "--graph", str(path), "--which", "ddim"],
        env={"ZDRLAB_BUDGET_MS": "0.0001"},
    )
    assert result.exit_code == 4


def test_dims_solve_budget_covers_set_up(runner):
    # the cap is far below the ring and graph build of Zn:2310, so the
    # solve stops before its first check
    result = runner.invoke(main, ["dims", "solve", "Zn:2310", "--budget-ms", "0.001"])
    assert result.exit_code == 4
    assert "after 0 checks" in result.output


def test_dims_solve_budget_is_charged_for_the_graph_build(runner, monkeypatch):
    # a graph build of 200 ms leaves nothing of a 100 ms cap, although
    # Zn:42 alone solves in a few ms
    build = cli_mod.build_zdgraph

    def slow_build(ring):
        time.sleep(0.2)
        return build(ring)

    monkeypatch.setattr(cli_mod, "build_zdgraph", slow_build)
    result = runner.invoke(main, ["dims", "solve", "Zn:42", "--budget-ms", "100"])
    assert result.exit_code == 4
    assert "after 0 checks" in result.output


@pytest.mark.parametrize("args", [
    ["--budget-ms", "nan"], ["--budget-ms", "-3"], ["--budget-checks", "-3"],
])
def test_dims_solve_rejects_nan_or_negative_budget_flags(runner, args):
    # a NaN time cap never fires, and a negative cap is no budget at all
    result = runner.invoke(main, ["dims", "solve", "Zn:12", *args])
    assert result.exit_code == 2, result.output
    assert "must be a non-negative number" in result.output


@pytest.mark.parametrize("args,env", [
    (["--budget-ms", "nan"], {}), (["--budget-checks", "-3"], {}),
    ([], {"ZDRLAB_BUDGET_MS": "-3"}),
])
def test_dims_solve_rejects_a_bad_budget_before_the_build(runner, monkeypatch, args, env):
    # the budget is checked first, so a build that would fail is never reached
    def no_build(*_):
        raise AssertionError("built before the budget was checked")

    monkeypatch.setattr(cli_mod, "build_ring", no_build)
    monkeypatch.setattr(cli_mod, "parse_edgelist", no_build)
    result = runner.invoke(main, ["dims", "solve", "prod:(Zn:32,Zn:64)", *args], env=env)
    assert result.exit_code == 2, result.output
    assert "must be a non-negative number" in result.output


@pytest.mark.parametrize("value", ["nan", "-3"])
def test_dims_solve_rejects_nan_or_negative_env_budget(runner, value):
    result = runner.invoke(main, ["dims", "solve", "Zn:12"], env={"ZDRLAB_BUDGET_MS": value})
    assert result.exit_code == 2, result.output
    assert "must be a non-negative number" in result.output


def test_dims_solve_names_the_env_var_of_an_unreadable_budget(runner):
    result = runner.invoke(main, ["dims", "solve", "Zn:6"], env={"ZDRLAB_BUDGET_MS": "abc"})
    assert result.exit_code == 2, result.output
    assert "ZDRLAB_BUDGET_MS must be a number of milliseconds, not 'abc'" in result.output


@pytest.mark.parametrize("config", [
    {"budget_ms": float("nan")}, {"budget_ms": -3}, {"budget_checks": -3},
])
def test_verify_run_rejects_nan_or_negative_config_budget(runner, tmp_path, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"only": ["T6"], **config}))  # NaN is written as NaN
    with pytest.raises(ValueError, match="must be a non-negative number"):
        verify_mod.load_suite_config(str(cfg))
    result = runner.invoke(main, ["verify", "run", "--config", str(cfg), "--deterministic"])
    assert result.exit_code == 2, result.output
    assert "must be a non-negative number" in result.output


def test_dims_solve_disconnected_graph_file(runner, tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("0 1\n2 3\n")
    result = runner.invoke(main, ["dims", "solve", "--graph", str(path), "--which", "dim"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["dims", "solve", "--graph", str(path), "--which", "gamma"])
    assert result.exit_code == 0
    assert "gamma: 2" in result.output


def test_verify_run_only(runner):
    result = runner.invoke(main, ["verify", "run", "--only", "T2.6", "--deterministic"])
    assert result.exit_code == 0
    assert "[ERRATUM E1] n=8" in result.output
    assert "FAIL=0" in result.output


def test_verify_run_json(runner):
    result = runner.invoke(
        main, ["verify", "run", "--only", "P2.2", "--json", "--deterministic"]
    )
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["summary"]["FAIL"] == 0
    assert doc["elapsed_ms"] == 0.0


def test_verify_run_unknown_id(runner):
    result = runner.invoke(main, ["verify", "run", "--only", "T77"])
    assert result.exit_code == 2


@pytest.mark.parametrize("only, named", [
    ("T2.6,", "unknown claim ids: ''\n"),
    (" , ", "unknown claim ids: '', ''\n"),
    ("T77", "unknown claim ids: 'T77'\n"),
])
def test_verify_run_names_each_unknown_id(runner, only, named):
    result = runner.invoke(main, ["verify", "run", "--only", only])
    assert result.exit_code == 2
    assert result.output.endswith(named)


def test_verify_run_fail_exit_code(runner, monkeypatch):
    from zdrlab.verify import TheoremVerdict

    def fake_check(wb, params):
        return [TheoremVerdict("T1", "forced", "ddim", "1", "2", "FAIL")]

    monkeypatch.setitem(verify_mod.CLAIM_REGISTRY, "T1", fake_check)
    result = runner.invoke(main, ["verify", "run", "--only", "T1"])
    assert result.exit_code == 3


def test_verify_run_config_file(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"only": ["T6"]}))
    result = runner.invoke(main, ["verify", "run", "--config", str(cfg), "--deterministic"])
    assert result.exit_code == 0
    assert "E2" in result.output



@pytest.mark.parametrize(
    "config",
    [
        {"t26_max_n": "30"},
        {"field_orders": 5},
        {"only": "T2.6"},
        ["only", "t26_max_n"],
        {"field_orders": ["3"]},
        {"gauss_case2": [[3, 7, 11]]},
        {"budget_ms": True},
    ],
)
def test_verify_run_config_of_wrong_type_exits_2(runner, tmp_path, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    result = runner.invoke(main, ["verify", "run", "--config", str(cfg), "--deterministic"])
    assert result.exit_code == 2, result.output
    assert "error: suite config" in result.output


def test_verify_run_config_accepts_every_field(runner, tmp_path):
    # every SuiteConfig field, at its default, in JSON form
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dataclasses.asdict(verify_mod.SuiteConfig())))
    assert verify_mod.load_suite_config(str(cfg)) == verify_mod.SuiteConfig()
    cfg.write_text(json.dumps({"only": ["T6"], "budget_ms": 60000, "budget_checks": None}))
    result = runner.invoke(main, ["verify", "run", "--config", str(cfg), "--deterministic"])
    assert result.exit_code == 0
    assert "E2" in result.output

def test_table_emit_table1(runner):
    result = runner.invoke(main, ["table", "emit", "table1", "--n", "25,8"])
    assert result.exit_code == 0
    assert "ERRATUM E1" in result.output
    result = runner.invoke(main, ["table", "emit", "table1", "--n", "25", "--format", "csv"])
    assert result.output.splitlines()[0].startswith("n,V,E")
    all_n = ",".join(str(n) for n in range(2, 201))
    for name, args in [
        ("table1.txt", []),
        ("table1.csv", ["--format", "csv"]),
        ("table1_n2-200.csv", ["--format", "csv", "--n", all_n]),
    ]:
        result = runner.invoke(main, ["table", "emit", "table1", *args])
        assert result.exit_code == 0
        assert result.output == golden(name), name


@pytest.mark.parametrize("n_list, token", [
    ("1_0", "1_0"),  # int() reads it as 10
    ("\u0668", "\u0668"),  # Arabic-Indic eight, which int() reads as 8
    ("4,,8", ""),
])
def test_table_emit_table1_rejects_non_ascii_n(runner, n_list, token):
    result = runner.invoke(main, ["table", "emit", "table1", "--n", n_list])
    assert result.exit_code == 2, result.output
    assert f"--n expects comma-separated integers, got {token!r}" in result.output


@pytest.mark.parametrize("n", ["-5", "0", "1"])
def test_table_emit_table1_rejects_n_below_two(runner, n):
    # as Zn:n does; the row used to read UNSUPPORTED with exit 0
    result = runner.invoke(main, ["table", "emit", "table1", "--n", f"4,{n}"])
    assert result.exit_code == 2, result.output
    assert f"--n expects integers n >= 2, as Zn:n does, got {n!r}" in result.output


def test_verify_run_rejects_a_table1_n_below_two(runner, tmp_path):
    # as --n does, a config n below 2 stops the run with exit 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"table1_n": [-5, 0, 1, 4], "only": ["TAB1"]}))
    result = runner.invoke(main, ["verify", "run", "--config", str(cfg)])
    assert result.exit_code == 2, result.output
    assert result.output == "error: Zn:-5 requires n >= 2\n"


def test_table_emit_table2(runner):
    result = runner.invoke(main, ["table", "emit", "table2"])
    assert result.exit_code == 0
    assert "Zn:49" in result.output
    assert result.output == golden("table2.txt")
    result = runner.invoke(main, ["table", "emit", "table2", "--format", "csv"])
    assert result.exit_code == 0
    assert result.output == golden("table2.csv")


def test_table_emit_rejects_n_for_table2(runner):
    result = runner.invoke(main, ["table", "emit", "table2", "--n", "4"])
    assert result.exit_code == 2


def test_verify_run_caps_a_gaussian_order_before_factoring(runner, tmp_path, monkeypatch):
    # Zni:p^2 has order p^4, far above the cap: the gate reads the ring, and
    # so fails at the cap, before any trial division of p
    def no_factoring(n):
        raise AssertionError(f"factored {n} before the order was checked")

    monkeypatch.setattr(verify_mod, "factorize", no_factoring)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gauss_case1": [1000000000000000003], "only": ["T2123"]}))
    result = runner.invoke(main, ["verify", "run", "--config", str(cfg)])
    assert result.exit_code == 2, result.output
    assert "above the cap 4096" in result.output


def _run_console_script(*args: str, timeout: float = 300) -> subprocess.CompletedProcess:
    """Run ``zdrlab`` as its console script does: a fresh interpreter calls
    the entry point that pyproject.toml declares, with the script's name as
    ``sys.argv[0]``, and exits with its return value. The package comes
    from this checkout's ``src``, and the command runs in its root."""
    declared = re.search(r'^zdrlab = "([\w.]+):(\w+)"$',
                         (ROOT / "pyproject.toml").read_text(encoding="utf-8"), re.M)
    module, func = declared.groups()
    code = f"import sys; from {module} import {func}; sys.argv[0] = 'zdrlab'; sys.exit({func}())"
    env = {k: v for k, v in os.environ.items() if k != "ZDRLAB_BUDGET_MS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, env=env,
                          timeout=timeout, cwd=ROOT)


# one command of each family whose imports differ: verify and table load the
# claim registry inside the command, ring and dims never load it; and a
# twin-rich resolving solve, 143 vertices in 14 classes through the two-step
# reach, whose witness holds 130 of them; and every quantity on a Gaussian
# ring, whose classes come from its associate representatives; and every
# quantity on an edge-list file, a twin-free graph of 22 vertices whose 231
# pairs are all tracked. Each runs from the checkout's root, as CI does
@pytest.mark.parametrize("args, name", [
    (["verify", "run", "--deterministic"], "verify_run.txt"),
    (["ring", "describe", "cat:cvA3", "--json"], "ring_describe_cat_cvA3.json"),
    (["dims", "solve", "Zn:42", "--json", "--deterministic"], "dims_Zn42.json"),
    (["table", "emit", "table2"], "table2.txt"),
    (["dims", "solve", "prod:(Zn:8,Zn:27)", "--which", "ddim", "--json", "--deterministic"],
     "dims_prod_Zn8_Zn27_ddim.json"),
    (["dims", "solve", "Zni:45", "--which", "all", "--json", "--deterministic"], "dims_Zni45.json"),
    (["dims", "solve", "--graph", "tests/golden/random22.edges", "--which", "all", "--json",
      "--deterministic"], "dims_random22.json"),
])
def test_console_script_matches_golden(args, name):
    result = _run_console_script(*args)
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == (GOLDEN / name).read_bytes()


def test_gamma_on_a_long_path_solves_within_its_time_cap(tmp_path):
    # a domination solve reads no distance, so neither the build nor the
    # solve makes the twin quotient: a 4,096-vertex path, twin-free and far
    # past diameter 3, solves gamma inside a 500 ms cap, where the quotient's
    # one BFS per vertex takes about 18 s
    n = 4096
    path_file = tmp_path / "path.txt"
    path_file.write_text("".join(f"{v} {v + 1}\n" for v in range(n - 1)), encoding="utf-8")
    result = _run_console_script("dims", "solve", "--graph", str(path_file), "--which", "gamma",
                                 "--budget-ms", "500", "--json", "--deterministic", timeout=10)
    assert result.returncode == 0, result.stderr.decode()
    gamma = json.loads(result.stdout)["gamma"]
    assert gamma["value"] == len(gamma["witness_ids"]) == 1366
    nbrs = {v: {u for u in (v - 1, v + 1) if 0 <= u < n} for v in range(n)}
    assert oracles.dominating_def(nbrs, n, gamma["witness_ids"])


def test_dim_on_a_long_path_stops_within_its_time_cap(tmp_path):
    # a resolving solve makes the twin quotient, here one BFS per vertex of
    # a 4,096-vertex path (16 to 31 s in all), and then the pairs; the solve's
    # clock is tested before each BFS source and each slice of pairs, so a
    # 500 ms cap ends the run with exit 4 in well under 5 s
    n = 4096
    path_file = tmp_path / "path.txt"
    path_file.write_text("".join(f"{v} {v + 1}\n" for v in range(n - 1)), encoding="utf-8")
    start = time.monotonic()
    result = _run_console_script("dims", "solve", "--graph", str(path_file), "--which", "dim",
                                 "--budget-ms", "500", timeout=60)
    assert time.monotonic() - start < 5
    assert result.returncode == 4, result.stderr.decode()
    assert b"budget exceeded while solving dim" in result.stderr + result.stdout


# verify and table import the claim registry when they run, so their callee
# is patched where the command looks it up: on zdrlab.verify
@pytest.mark.parametrize("args, home, callee", [
    (["ring", "describe", "Zn:6"], cli_mod, "build_ring"),
    (["graph", "build", "Zn:6"], cli_mod, "build_zdgraph"),
    (["dims", "solve", "Zn:6"], cli_mod, "solve_dimensions"),
    (["verify", "run"], verify_mod, "run_suite"),
    (["table", "emit", "table1"], verify_mod, "emit_table1"),
], ids=["ring-describe", "graph-build", "dims-solve", "verify-run", "table-emit"])
@pytest.mark.parametrize("error, code", [
    (RingError("boom"), 2),
    (EmptyGraphError("boom"), 2),
    (ValueError("boom"), 2),
    (BudgetExceededError("gamma", 1, 2), 4),
], ids=["ring", "empty-graph", "value", "budget"])
def test_every_command_exits_through_one_path(runner, monkeypatch, args, home, callee, error,
                                               code):
    def fail(*_args, **_kwargs):
        raise error

    monkeypatch.setattr(home, callee, fail)
    result = runner.invoke(main, args)
    assert result.exit_code == code, result.output
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.output == f"error: {error}\n"


def test_table_emit_table1_caps_n_before_factoring(runner, monkeypatch):
    def no_factoring(n):
        raise AssertionError(f"factored {n} before the order was checked")

    monkeypatch.setattr(verify_mod, "factorize", no_factoring)
    result = runner.invoke(main, ["table", "emit", "table1", "--n", "1000000000000000003"])
    assert result.exit_code == 2, result.output
    assert "above the cap 4096" in result.output


def test_verify_run_caps_the_t26_range_before_factoring(runner, tmp_path, monkeypatch):
    # n = 2..4096 are factored; 4097 stops the run at the cap, not in trial division
    factor = verify_mod.factorize

    def factor_below_the_cap(n):
        assert n <= 4096, f"factored {n} before the order was checked"
        return factor(n)

    monkeypatch.setattr(verify_mod, "factorize", factor_below_the_cap)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t26_max_n": 100000000, "only": ["T2.6"]}))
    result = runner.invoke(main, ["verify", "run", "--config", str(cfg)])
    assert result.exit_code == 2, result.output
    assert result.output == "error: Zn:4097 has order 4097, above the cap 4096\n"


def test_dims_solve_caps_an_edge_list_graph_order(runner, tmp_path):
    f = tmp_path / "big.edges"
    f.write_text("".join(f"# vertex {i}\n" for i in range(4097)) + "0 1\n")
    result = runner.invoke(main, ["dims", "solve", "--graph", str(f), "--which", "gamma"])
    assert result.exit_code == 2, result.output
    assert "above the order cap" in result.output
