"""Command line interface.

Subcommands: ``sym`` for one symmetrization, ``table`` for all shapes
up to a weight, ``refined`` for the orthogonal-group decomposition and
``verify`` to diff the engine against the embedded reference tables.
Every command accepts ``--format text|json|latex`` (``verify`` prints
text whatever the format); output is deterministic for an invocation.

A command imports only the engine modules it runs: ``table`` needs
:mod:`symdet.gram` alone, ``sym`` adds the symmetrizer, and the refined
layer and the reference tables are imported under ``refined`` and
``verify`` only.
"""

from __future__ import annotations

import argparse
import json
import sys

from .combinat import Partition, dimension_str, partitions_of
from .exact import Poly
from .gram import MAX_REFINED_N, MAX_SYM_N, MAX_TABLE_N, determinant_classes, symmetrization_determinant


def parse_partition(text: str) -> Partition:
    """Parse ``3,1,1`` or ``3,1^2`` (caret repeats a part), at most MAX_SYM_N parts."""
    parts: list[int] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if "^" in chunk:
            base_s, _, count_s = chunk.partition("^")
            base, count = int(base_s), int(count_s)
            if not 1 <= count <= MAX_SYM_N:
                raise ValueError(f"repeat count must be between 1 and {MAX_SYM_N}")
            parts.extend([base] * count)
        else:
            parts.append(int(chunk))
        if len(parts) > MAX_SYM_N:
            raise ValueError(f"more than {MAX_SYM_N} parts")
    if not parts or any(p <= 0 for p in parts):
        raise ValueError("parts must be positive integers")
    return Partition(parts)


def _poly_json(p: Poly) -> dict:
    return {
        "coeffs": [str(c) for c in p.coeffs],
        "display": p.factored_str(),
    }


def _dimension_json(shape: Partition, dimension: Poly) -> dict:
    """``_poly_json(dimension_poly(shape))``, its display read off the hook contents."""
    return {
        "coeffs": [str(c) for c in dimension.coeffs],
        "display": dimension_str(shape),
    }


# ---------------------------------------------------------------------------
# sym
# ---------------------------------------------------------------------------


def _sym_payload(shape: Partition, jobs: int) -> dict:
    result = symmetrization_determinant(shape, jobs=jobs)
    blocks = []
    for pattern, block in result.blocks.items():
        blocks.append({
            "pattern": list(pattern),
            "distinct_letters": block.k,
            "size": block.size,
            "matrix": [list(row) for row in block.matrix],
            "det": str(block.det),
        })
    reduced = result.c_formula.reduced()
    return {
        "partition": list(shape.parts),
        "n": shape.n,
        "dimension": _dimension_json(shape, result.dimension),
        "blocks": blocks,
        "c_exact": result.c_formula.to_json(),
        "c_reduced": {**reduced.to_json(), "latex": reduced.render_latex()},
        "detB_exponent": str(result.detB_exponent),
    }


def _render_sym_text(payload: dict) -> str:
    lines = [
        f"partition: ({','.join(map(str, payload['partition']))})   n = {payload['n']}",
        f"dimension = {payload['dimension']['display']}",
        "blocks (pattern, multiplicity C(N,k), matrix, det):",
    ]
    for b in payload["blocks"]:
        pat = ",".join(map(str, b["pattern"]))
        lines.append(f"  ({pat})  C(N,{b['distinct_letters']})  det {b['det']}")
        for row in b["matrix"]:
            lines.append("    [" + " ".join(f"{v:>6}" for v in row) + "]")
    lines.append(f"c (exact) = {payload['c_exact']['display']}")
    lines.append(f"c = {payload['c_reduced']['display']}")
    lines.append(f"det = {payload['c_reduced']['display']} * det(B)^({payload['detB_exponent']})")
    return "\n".join(lines)


def _render_sym_latex(payload: dict) -> str:
    part = ",".join(map(str, payload["partition"]))
    return (
        "\\begin{tabular}{ccc}\n"
        "$\\lambda$ & $d(\\lambda)$ & $c(\\lambda)$\\\\\n"
        f"$({part})$ & ${payload['dimension']['display']}$ & "
        f"${payload['c_reduced']['latex']}$\\\\\n"
        "\\end{tabular}"
    )


def cmd_sym(args: argparse.Namespace) -> int:
    payload = _sym_payload(args.partition, args.jobs)
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    elif args.format == "latex":
        print(_render_sym_latex(payload))
    else:
        print(_render_sym_text(payload))
    return 0


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def cmd_table(args: argparse.Namespace) -> int:
    shapes = [shape for n in range(2, args.n + 1) for shape in partitions_of(n)]
    results = determinant_classes(shapes)
    if args.format == "json":
        rows = [
            {
                "n": r.shape.n,
                "partition": list(r.shape.parts),
                "dimension": _dimension_json(r.shape, r.dimension),
                "c_reduced": r.c_reduced.to_json(),
            }
            for r in results
        ]
        print(json.dumps(rows, indent=2))
    elif args.format == "latex":
        lines = [
            "\\begin{tabular}{|cccc|}",
            "\\hline",
            "$n$ & $\\lambda$ & $d(\\lambda)$ & $c(\\lambda)$\\\\",
            "\\hline",
        ]
        for r in results:
            lines.append(
                f"{r.shape.n} & ${r.shape}$ & ${dimension_str(r.shape)}$ & "
                f"${r.c_reduced.render_latex()}$\\\\"
            )
        lines += ["\\hline", "\\end{tabular}"]
        print("\n".join(lines))
    else:
        for r in results:
            print(
                f"n={r.shape.n}  {r.shape!s:16} d = {dimension_str(r.shape):42s} "
                f"c = {r.c_reduced.render_text()}"
            )
    return 0


# ---------------------------------------------------------------------------
# refined
# ---------------------------------------------------------------------------


def cmd_refined(args: argparse.Namespace) -> int:
    from .refined import refined_decomposition

    result = refined_decomposition(args.partition)
    constituents = []
    for c in result.constituents:
        constituents.append({
            "gamma": list(c.gamma.parts),
            "multiplicity": c.multiplicity,
            "chains": [list(map(list, ch)) for ch in c.chains],
            "coupling_matrix": [[_poly_json(e) for e in row] for row in c.c_matrix],
            "coupling_det": _poly_json(c.c_det),
            "coupling_reduced": _poly_json(c.c_reduced.value()),
            "reduced_ok": True,  # fixed schema field: an unsplit coupling raises
        })
    payload = {
        "partition": list(args.partition.parts),
        "n": args.partition.n,
        "constituents": constituents,
        "refined_dimension": _poly_json(result.refined_dimension),
        "refined_det": result.refined_det.to_json(),
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    elif args.format == "latex":
        gammas = ",\\ ".join(str(c.gamma) for c in result.constituents) or "-"
        classes = ",\\ ".join(
            c["coupling_reduced"]["display"] for c in constituents
        ) or "-"
        print(
            "\\begin{tabular}{|c|c|l|}\n\\hline\n"
            "$\\lambda$ & $\\gamma$ & $c(\\lambda,\\gamma)$\\\\\n\\hline\n"
            f"${args.partition}$ & ${gammas}$ & ${classes}$\\\\\n\\hline\n\\end{{tabular}}"
        )
    else:
        lines = [f"partition: {args.partition}"]
        if not constituents:
            lines.append("no constituents: the refined space is the whole symmetrization")
        for constituent, c in zip(result.constituents, constituents):
            lines.append(
                f"gamma {constituent.gamma}  m={c['multiplicity']}  "
                f"c = {c['coupling_reduced']['display']}"
            )
            if c["multiplicity"] > 1:
                for row in c["coupling_matrix"]:
                    lines.append("    [" + " | ".join(e["display"] for e in row) + "]")
                lines.append(f"    det = {c['coupling_det']['display']}")
        lines.append(f"refined dimension = {payload['refined_dimension']['display']}")
        lines.append(f"refined det = {payload['refined_det']['display']}")
        print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    from .golden import verify_refined, verify_sym

    reports = []
    if args.scope in ("sym", "all"):
        reports.append(("sym", verify_sym(args.golden_tables)))
    if args.scope in ("refined", "all"):
        reports.append(("refined", verify_refined(args.golden_tables)))
    failed = False
    for name, report in reports:
        status = "OK" if report.ok else "FAIL"
        print(f"{name}: {report.checked} checks, {len(report.mismatches)} mismatches [{status}]")
        for m in report.mismatches:
            print(f"  mismatch: {m}")
        failed = failed or not report.ok
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symdet",
        description="Exact determinants of tensor symmetrizations of a bilinear form.",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "latex"), default="text",
        help="output format (default text)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="parallel workers for the Gram blocks of sym (default: 1)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sym = sub.add_parser("sym", help="one symmetrization determinant")
    p_sym.add_argument("partition_text", metavar="partition")

    p_table = sub.add_parser("table", help="table of all shapes up to a weight")
    p_table.add_argument("--n", type=int, required=True, metavar="K")

    p_ref = sub.add_parser("refined", help="refined orthogonal decomposition")
    p_ref.add_argument("partition_text", metavar="partition")

    p_ver = sub.add_parser("verify", help="diff the engine against golden tables")
    p_ver.add_argument("--scope", choices=("sym", "refined", "all"), default="all")
    p_ver.add_argument("--golden", default=None, help="override the golden data file")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be positive")

    if args.command in ("sym", "refined"):
        try:
            args.partition = parse_partition(args.partition_text)
        except ValueError as exc:
            parser.error(f"bad partition {args.partition_text!r}: {exc}")
        if args.partition.n < 2:
            parser.error("need a partition of n >= 2")

    if args.command == "sym":
        if args.partition.n > MAX_SYM_N:
            parser.error(f"beyond supported degree (n <= {MAX_SYM_N})")
        return cmd_sym(args)
    if args.command == "table":
        if not 2 <= args.n <= MAX_TABLE_N:
            parser.error(f"beyond supported degree (2 <= n <= {MAX_TABLE_N})")
        return cmd_table(args)
    if args.command == "refined":
        if args.partition.n > MAX_REFINED_N:
            parser.error(f"refined decomposition unsupported for n > {MAX_REFINED_N}")
        return cmd_refined(args)
    if args.command == "verify":
        from .golden import load_golden

        try:
            args.golden_tables = load_golden(args.golden)
        except (OSError, ValueError) as exc:
            parser.error(f"bad golden file {args.golden}: {type(exc).__name__}: {exc}")
        return cmd_verify(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
