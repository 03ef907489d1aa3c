"""Command-line front end.

Exit codes: 0 pass, 1 fail (including "no homomorphism"), 2 resource-incomplete,
64 usage error.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import click

from .approx import build_approx_map, carrier_check, diameter_bound, image_diameters_sq
from .bitset import bits
from .boxcomplex import build_box, format_complex, parse_complex
from .errors import DEFAULT_BUDGETS, Budgets, OmegalabError, ParseError, ResourceError, records
from .functors import omega, omega_prime, subdivide, walk_power
from .graphs import Graph, format_graph, max_degree, parse_graph
from .homology import betti_mod2, euler_characteristic
from .homsearch import chromatic_number, format_witness, hom_exists
from .morse import ShortcutComplex, shortcut_collapses
from .verify import SUITES, canonical_json, exit_code, run_suite

USAGE_EXIT = 64
RESOURCE_EXIT = 2
FAIL_EXIT = 1


def _read_text(path: str) -> str:
    """Every input file is read here, so a non-UTF-8 file is a parse error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text at byte {exc.start}") from None


def _read_graph(path: str) -> Graph:
    return parse_graph(_read_text(path))


def _budget_options(*names: str):
    """One ``--<name>`` option per ``Budgets`` field, in the order given: at
    least 1 (a usage error otherwise) and defaulting to the record's field."""

    def decorate(fn):
        for name in reversed(names):
            fn = click.option(
                "--" + name.replace("_", "-"),
                type=click.IntRange(min=1),
                default=getattr(DEFAULT_BUDGETS, name),
            )(fn)
        return fn

    return decorate


@click.group()
def cli():
    """Workbench for adjoint graph functors and their box-complex claims."""


@cli.command()
@click.argument("kind", type=click.Choice(["gamma", "pi", "omega", "omega-prime"]))
@click.option("-k", "index", type=int, required=True, help="odd functor index")
@click.option("-i", "infile", required=True, type=click.Path(exists=True))
@click.option("-o", "outfile", required=True, type=click.Path())
def functor(kind, index, infile, outfile):
    """Apply a functor and write the resulting graph."""
    g = _read_graph(infile)
    if kind == "gamma":
        out = subdivide(g, index).graph
    elif kind == "pi":
        out = walk_power(g, index)
    else:
        res = (omega if kind == "omega" else omega_prime)(g, index)
        # omega(g, 1) is g as read; a deeper adjoint is labelled by its tuples
        out = res.graph if index == 1 else res.graph.with_labels(res.labels)
    with open(outfile, "w", encoding="utf-8") as fh:
        fh.write(format_graph(out))
    click.echo(f"{kind}_{index}: {out.n} vertices, {out.edge_count()} edges")


@cli.command()
@click.option("-g", "gpath", required=True, type=click.Path(exists=True))
@click.option("-h", "hpath", required=True, type=click.Path(exists=True))
@click.option("--witness", type=click.Path(), default=None)
@_budget_options("node_budget")
def hom(gpath, hpath, witness, **budgets):
    """Decide homomorphism existence; exit 0 iff one exists."""
    g = _read_graph(gpath)
    h = _read_graph(hpath)
    found = hom_exists(g, h, Budgets(**budgets))
    if found is None:
        click.echo("hom: none")
        sys.exit(FAIL_EXIT)
    click.echo("hom: yes")
    if witness:
        with open(witness, "w", encoding="utf-8") as fh:
            fh.write(format_witness(found))


@cli.command()
@click.option("-i", "infile", required=True, type=click.Path(exists=True))
@_budget_options("node_budget")
def chromatic(infile, **budgets):
    """Chromatic number of a loopless graph."""
    g = _read_graph(infile)
    click.echo(str(chromatic_number(g, Budgets(**budgets))))


@cli.command()
@click.option("-i", "infile", required=True, type=click.Path(exists=True))
@click.option("-o", "outfile", required=True, type=click.Path())
def box(infile, outfile):
    """Write the box complex of a graph."""
    g = _read_graph(infile)
    k = build_box(g)
    with open(outfile, "w", encoding="utf-8") as fh:
        fh.write(format_complex(k))
    click.echo(
        f"box complex: {k.token_count} vertices, {len(k.facets)} facets, "
        f"{'free' if k.free else 'not free'}"
    )


@cli.command()
@click.option("-i", "infile", required=True, type=click.Path(exists=True))
@_budget_options("simplex_budget")
def homology(infile, simplex_budget):
    """Mod-2 Betti numbers and Euler characteristic of a complex file."""
    k = parse_complex(_read_text(infile))
    faces = k.simplices(simplex_budget)
    betti = betti_mod2(faces, simplex_budget)
    chi = euler_characteristic(faces)
    click.echo("betti: " + " ".join(str(b) for b in betti) + f" ; euler: {chi}")


@cli.command()
@click.option("--lemma", "which", type=click.Choice(["52", "54", "both"]), default="both")
@click.option("-i", "infile", required=True, type=click.Path(exists=True))
@click.option("-k", "half", type=int, required=True, help="half index; functor index is 2k+1")
@click.option("--certificate", type=click.Path(), default=None)
@_budget_options("vertex_budget", "simplex_budget")
def morse(which, infile, half, certificate, **budgets):
    """Run both collapse recipes on the shortcut complex and certify them.

    --lemma only selects which lines and certificate steps are written."""
    g = _read_graph(infile)
    sc = ShortcutComplex(g, half, Budgets(**budgets))
    saturation, phases = shortcut_collapses(sc)
    shown = []  # (matching label, collapse label, pairs, certificate)
    if which in ("52", "both"):
        pairs = saturation.step_count
        shown.append(("saturation matching", "saturation collapse", pairs, saturation))
    if which in ("54", "both"):
        shown += [
            (f"phase {i}", f"phase {i} collapse", cert.step_count, cert)
            for i, cert in enumerate(phases, start=1)
        ]
    for matching_label, collapse_label, pairs, cert in shown:
        # a completed collapse proves its matching acyclic, in one step per pair
        click.echo(f"{matching_label}: {pairs} pairs, acyclic: True")
        click.echo(f"{collapse_label}: {pairs} steps")
    if certificate:
        # the saturation collapse builds its face-level steps only here
        with open(certificate, "w", encoding="utf-8") as fh:
            for face, cofacet in (step for *_, cert in shown for step in cert.steps):
                fh.write(
                    "x "
                    + ",".join(str(t) for t in bits(face))
                    + " "
                    + ",".join(str(t) for t in bits(cofacet))
                    + "\n"
                )


@cli.command()
@click.option("-i", "infile", required=True, type=click.Path(exists=True))
@click.option("-k", "half", type=int, required=True, help="half index; functor index is 2k+1")
@click.option("--report", "report_path", type=click.Path(), default=None)
def approx(infile, half, report_path):
    """Check the facet-image diameter bound and the carrier property."""
    g = _read_graph(infile)
    amap = build_approx_map(g, half)
    bound = diameter_bound(g, half)
    diameters = image_diameters_sq(amap, amap.source.facets)
    worst = max(diameters, default=Fraction(0))
    facets = [
        {"facet": list(bits(f)), "diameter_sq": str(d)}
        for f, d in zip(amap.source.facets, diameters)
    ]
    ok_bound = all(d < bound * bound for d in diameters)  # true with no facet
    ok_carrier = carrier_check(amap)
    payload = {
        "graph": {"n": g.n, "m": g.edge_count(), "max_degree": max_degree(g)},
        "half_index": half,
        "bound": str(bound),
        "bound_sq": str(bound * bound),
        "max_diameter_sq": str(worst),
        "within_bound": ok_bound,
        "carrier_ok": ok_carrier,
        "facets": facets,
    }
    if report_path:
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    click.echo(
        f"max diameter^2 {worst} vs bound^2 {bound * bound}: "
        f"{'ok' if ok_bound else 'VIOLATED'}; carrier: {'ok' if ok_carrier else 'VIOLATED'}"
    )
    if not (ok_bound and ok_carrier):
        sys.exit(FAIL_EXIT)


@cli.command()
@click.argument("suite", type=click.Choice(list(SUITES) + ["all"]))
@_budget_options("vertex_budget", "simplex_budget", "node_budget")
@click.option("-o", "outfile", type=click.Path(), default=None)
def verify(suite, outfile, **budgets):
    """Run a verification suite; exit 0 iff all checks pass."""
    report = run_suite(suite, Budgets(**budgets))
    for check in report["checks"]:
        click.echo(f"{check['status'].upper():8s} {check['id']}")
    click.echo(
        f"suite {suite}: {'pass' if report['passed'] else 'FAIL'}"
        + (" (incomplete)" if report["incomplete"] else "")
        + f" fingerprint {report['fingerprint'][:16]}"
    )
    if outfile:
        with open(outfile, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(report))
    sys.exit(exit_code(report))


def _detect_and_parse(text: str):
    # the kind is the first field of the first record; an empty file has none
    lineno, _, fields = next(records(text), (1, "", [None]))
    if fields[0] == "p":
        return "graph", parse_graph(text)
    if fields[0] == "c":
        return "complex", parse_complex(text)
    raise ParseError("file is neither a graph (p line) nor a complex (c line)", lineno)


@cli.command()
@click.option("-i", "infile", required=True, type=click.Path(exists=True))
@click.option("-o", "outfile", required=True, type=click.Path())
def convert(infile, outfile):
    """Reserialize a graph or complex file in canonical form."""
    kind, obj = _detect_and_parse(_read_text(infile))
    text = format_graph(obj) if kind == "graph" else format_complex(obj)
    with open(outfile, "w", encoding="utf-8") as fh:
        fh.write(text)
    click.echo(f"wrote canonical {kind} file")


@cli.command()
@click.option("-i", "infile", required=True, type=click.Path(exists=True))
def show(infile):
    """Pretty-print a graph or complex file."""
    kind, obj = _detect_and_parse(_read_text(infile))
    if kind == "graph":
        click.echo(f"graph: {obj.n} vertices, {obj.edge_count()} edges")
        for u, v in obj.edges():
            click.echo(f"  {u} -- {v}")
        if obj.labels is not None:
            for v in range(obj.n):
                click.echo(f"  label {v}: {obj.labels[v]}")
    else:
        click.echo(
            f"complex: {obj.token_count} vertices, {len(obj.facets)} facets, "
            f"{'free' if obj.free else 'not free'}"
        )
        for t in range(obj.token_count):
            gv, shore = obj.token_name(t)
            click.echo(f"  vertex {t}: graph vertex {gv}, shore {shore}")
        for f in obj.facets:
            click.echo("  facet " + " ".join(str(t) for t in bits(f)))


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        sys.exit(exc.exit_code)
    except (click.UsageError, click.BadParameter) as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        sys.exit(USAGE_EXIT)
    except ParseError as exc:
        click.echo(f"parse error: {exc}", err=True)
        sys.exit(FAIL_EXIT)
    except ResourceError as exc:
        click.echo(f"resource error: {exc}", err=True)
        sys.exit(RESOURCE_EXIT)
    except (OmegalabError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(FAIL_EXIT)


if __name__ == "__main__":
    main()
