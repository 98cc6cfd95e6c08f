"""Command-line surface for the workbench.

Exit codes: 0 success (and verification runs without FAIL verdicts),
2 invalid input, 3 verification run with at least one FAIL, 4 solver budget
exceeded.

Only ``verify run`` and ``table emit`` import the claim registry
(``zdrlab.verify``, and with it ``zdrlab.families``), inside the command, so
the other commands and ``--help`` start without compiling it.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import replace

import click

from .graphs import (
    EmptyGraphError,
    _ascii_int,
    build_zdgraph,
    export_graph,
    parse_edgelist,
)
from .rings import RingError, build_ring, ring_properties, zero_divisors
from .solver import BUDGET_ENV_VAR, Budget, BudgetExceededError, solve_dimensions

EXIT_INVALID = 2
EXIT_FAIL = 3
EXIT_BUDGET = 4


def _fail(message: str, code: int) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _budget_from(budget_ms: float | None, budget_checks: int | None) -> Budget:
    """The budget the flags ask for, the time cap falling back to the env
    var. A NaN, negative or unreadable cap raises ValueError."""
    if budget_ms is None:
        env = os.environ.get(BUDGET_ENV_VAR)
        try:
            budget_ms = float(env) if env else None
        except ValueError:
            raise ValueError(f"{BUDGET_ENV_VAR} must be a number of milliseconds, "
                             f"not {env!r}") from None
    return Budget(max_ms=budget_ms, max_checks=budget_checks)


def _n_values(text: str) -> list[int]:
    """The comma-separated integers of ``--n``, read as edge-list ids are:
    ASCII digits only, each at least 2 as in a ``Zn:n`` spec. A bad token
    raises ValueError naming it."""
    ns = []
    for token in text.split(","):
        n = _ascii_int(token.strip())
        if n is None:
            raise ValueError(f"--n expects comma-separated integers, got {token!r}")
        if n < 2:
            raise ValueError(f"--n expects integers n >= 2, as Zn:n does, got {token!r}")
        ns.append(n)
    return ns


class _Main(click.Group):
    """The one exit path of every command: a budget error exits 4, an
    invalid input 2, each with one ``error:`` line on stderr."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except BudgetExceededError as exc:
            _fail(str(exc), EXIT_BUDGET)
        except (RingError, EmptyGraphError, ValueError) as exc:
            _fail(str(exc), EXIT_INVALID)


@click.group(cls=_Main)
def main() -> None:
    """Exact workbench for zero-divisor graphs of finite commutative rings."""


# --- ring ------------------------------------------------------------------


@main.group()
def ring() -> None:
    """Inspect rings."""


@ring.command("describe")
@click.argument("spec")
@click.option("--json", "as_json", is_flag=True, help="emit JSON")
def ring_describe(spec: str, as_json: bool) -> None:
    """Order, algebraic properties, zero divisors, and element labels."""
    r = build_ring(spec)
    props = ring_properties(r)
    zds = zero_divisors(r)
    if as_json:
        doc = {
            "spec": r.name,
            "order": r.order,
            "unity": r.one,
            "labels": list(r.labels),
            "is_field": props.is_field,
            "is_integral_domain": props.is_integral_domain,
            "is_local": props.is_local,
            "is_reduced": props.is_reduced,
            "nilpotents": list(props.nilpotents),
            "zero_divisors": list(zds.members),
        }
        click.echo(json.dumps(doc, indent=2, sort_keys=True))
        return
    click.echo(f"ring {r.name}: order {r.order}")
    flags = [
        name
        for name, on in [
            ("field", props.is_field),
            ("integral domain", props.is_integral_domain),
            ("local", props.is_local),
            ("reduced", props.is_reduced),
        ]
        if on
    ]
    click.echo("properties: " + (", ".join(flags) if flags else "none of field/domain/local/reduced"))
    click.echo("nilpotents: {" + ", ".join(r.labels[x] for x in props.nilpotents) + "}")
    click.echo(
        f"L(R) ({len(zds.members)} elements): "
        + "{" + ", ".join(r.labels[x] for x in zds.members) + "}"
    )


# --- graph -----------------------------------------------------------------


@main.group()
def graph() -> None:
    """Build and export zero-divisor graphs."""


@graph.command("build")
@click.argument("spec")
@click.option("--format", "fmt", type=click.Choice(["dot", "edgelist", "json"]),
              default="edgelist", show_default=True)
def graph_build(spec: str, fmt: str) -> None:
    """Construct the zero-divisor graph of a ring spec and print it."""
    g = build_zdgraph(build_ring(spec))
    click.echo(export_graph(g, fmt), nl=False)


# --- dims ------------------------------------------------------------------


@main.group()
def dims() -> None:
    """Exact dimension solving."""


@dims.command("solve")
@click.argument("spec", required=False)
@click.option("--graph", "graph_file", type=click.Path(exists=True, dir_okay=False),
              help="solve on an edge-list file instead of a ring spec")
@click.option("--which", type=click.Choice(["gamma", "dim", "ddim", "all"]),
              default="all", show_default=True)
@click.option("--json", "as_json", is_flag=True, help="emit JSON")
@click.option("--deterministic", is_flag=True, help="zero timing fields in the output")
@click.option("--budget-ms", type=float, default=None,
              help=f"time cap in milliseconds, building the ring and graph "
                   f"included (default: {BUDGET_ENV_VAR} env var)")
@click.option("--budget-checks", type=int, default=None,
              help="cap on checks: nodes of the exact cover oracle, whether "
                   "called to find the size or the witness; the cap applies "
                   "to each quantity's search")
def dims_solve(spec, graph_file, which, as_json, deterministic, budget_ms, budget_checks):
    """Solve gamma, dim, and ddim with witnesses on a ring spec or graph file."""
    if (spec is None) == (graph_file is None):
        raise ValueError("provide exactly one of a ring spec or --graph FILE")
    start = time.monotonic()
    budget = _budget_from(budget_ms, budget_checks)
    if spec is not None:
        g = build_zdgraph(build_ring(spec))
        source = spec
    else:
        with open(graph_file, "r", encoding="utf-8") as fh:
            g = parse_edgelist(fh.read())
        source = graph_file
    report = solve_dimensions(g, which, budget.left_after(start))  # what the build left

    def quantity_doc(res):
        if res is None:
            return None
        return {
            "value": res.value,
            "witness": list(res.witness),
            "witness_ids": [g.external_ids[v] for v in res.witness],
            "witness_labels": [g.labels[v] for v in res.witness],
            "method": res.method,
            "elapsed_ms": 0.0 if deterministic else round(res.elapsed_ms, 3),
            "checks": res.checks,
        }

    if as_json:
        doc = {
            "source": source,
            "order": g.order,
            "size": g.size,
            "gamma": quantity_doc(report.gamma),
            "dim": quantity_doc(report.dim),
            "ddim": quantity_doc(report.ddim),
        }
        click.echo(json.dumps(doc, indent=2, sort_keys=True))
        return
    click.echo(f"graph: {source} ({g.order} vertices, {g.size} edges)")
    for name, res in [("gamma", report.gamma), ("dim", report.dim), ("ddim", report.ddim)]:
        if res is None:
            continue
        click.echo(f"{name}: {res.value}")
        click.echo("  witness: " + (", ".join(g.labels[v] for v in res.witness) or "(empty)"))
        suffix = "" if deterministic else f", {res.elapsed_ms:.1f} ms"
        click.echo(f"  method: {res.method} ({res.checks} checks{suffix})")


# --- verify ----------------------------------------------------------------


@main.group(name="verify")
def verify_group() -> None:
    """Claim verification."""


@verify_group.command("run")
@click.option("--config", "config_file", type=click.Path(exists=True, dir_okay=False),
              help="JSON suite configuration")
@click.option("--only", "only_ids", default=None,
              help="comma-separated claim ids to run")
@click.option("--json", "as_json", is_flag=True, help="emit the JSON report")
@click.option("--deterministic", is_flag=True, help="zero timing fields in the report")
def verify_run(config_file, only_ids, as_json, deterministic):
    """Run the verification suite; exit 3 if any claim FAILs."""
    from .verify import SuiteConfig, load_suite_config, run_suite

    config = load_suite_config(config_file) if config_file else SuiteConfig()
    if only_ids:
        config = replace(config, only=tuple(x.strip() for x in only_ids.split(",")))
    report = run_suite(config)
    click.echo(
        report.to_json(deterministic) if as_json else report.to_text(deterministic),
        nl=False,
    )
    sys.exit(report.exit_code)


# --- table -----------------------------------------------------------------


@main.group()
def table() -> None:
    """Emit the summary tables."""


@table.command("emit")
@click.argument("which", type=click.Choice(["table1", "table2"]))
@click.option("--n", "n_list", default=None,
              help="comma-separated n values (table1 only)")
@click.option("--format", "fmt", type=click.Choice(["text", "csv"]),
              default="text", show_default=True)
def table_emit(which, n_list, fmt):
    """Reproduce a summary table against computed values."""
    from .verify import SuiteConfig, emit_table1, emit_table2

    if which == "table1":
        config = SuiteConfig()
        tab = emit_table1(_n_values(n_list) if n_list else config.table1_n, config)
    elif n_list:
        raise ValueError("--n applies only to table1")
    else:
        tab = emit_table2()
    click.echo(tab.to_csv() if fmt == "csv" else tab.to_text(), nl=False)


if __name__ == "__main__":  # pragma: no cover
    main()
