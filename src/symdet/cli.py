"""Command line interface.

Subcommands: ``sym`` for one symmetrization, ``table`` for all shapes
up to a weight, ``refined`` for the orthogonal-group decomposition and
``verify`` to diff the engine against the embedded reference tables.
Every command accepts ``--format text|json|latex`` (``verify`` prints
text whatever the format); output is deterministic for an invocation.
This module is the only output layer: ``sym``, ``table`` and ``refined``
each build one JSON payload and return it with its text and LaTeX
renderings, and :func:`main` prints the one that ``--format`` picks.

A command imports only the engine modules it runs: ``table`` needs
:mod:`symdet.gram` alone, ``sym`` adds the symmetrizer, and the refined
layer and the reference tables are imported under ``refined`` and
``verify`` only.
"""

from __future__ import annotations

import argparse
import json
import sys

from .combinat import Partition, dimension_str, partitions_of, read_decimal
from .exact import Poly, SquareClassFormula
from .gram import MAX_REFINED_N, MAX_SYM_N, MAX_TABLE_N, determinant_class, symmetrization_determinant


def parse_partition(text: str) -> Partition:
    """Parse ``3,1,1`` or ``3,1^2`` (caret repeats a part), at most MAX_SYM_N parts.

    Every part and repeat count is read by :func:`_decimal`, as
    ``table --n`` and ``--jobs`` are, so ``+2``, ``1_0`` and a fullwidth
    digit are errors; whitespace around a number is not.
    """
    parts: list[int] = []
    for chunk in text.split(","):
        if "^" in chunk:
            base_s, _, count_s = chunk.partition("^")
            base, count = _decimal(base_s), _decimal(count_s)
            if not 1 <= count <= MAX_SYM_N:
                raise ValueError(f"repeat count must be between 1 and {MAX_SYM_N}")
            parts.extend([base] * count)
        else:
            parts.append(_decimal(chunk))
        if len(parts) > MAX_SYM_N:
            raise ValueError(f"more than {MAX_SYM_N} parts")
    return Partition(parts)


def _decimal(text: str) -> int:
    """``text``, stripped, read by ``read_decimal``: the one rule for a number on the command line."""
    return read_decimal(text.strip())


def _decimal_option(text: str) -> int:
    """:func:`_decimal` as an option's type: argparse prints its message, not this function's name."""
    try:
        return _decimal(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _poly_json(p: Poly, display: str | None = None) -> dict:
    """Coefficients and display of ``p``; ``display`` stands in for ``p.factored_str()``."""
    return {
        "coeffs": [str(c) for c in p.coeffs],
        "display": p.factored_str() if display is None else display,
    }


def _det_b(exponent: Poly) -> str:
    """det(B) to a polynomial power: the one place that writes det(B)."""
    return "det(B)" if exponent == Poly.const(1) else f"det(B)^({exponent})"


def _class_json(f: SquareClassFormula, detB: Poly = Poly()) -> dict:
    """``f * det(B)^detB``, each exponent of ``f`` as its ``{k: coeff}`` of C(N,k)."""
    display = f.render_text()
    if detB:
        display = f"{display} * {_det_b(detB)}" if f.factors else _det_b(detB)
    return {
        "factors": [
            {"base": str(b), "exponent_binomials": {str(k): str(a) for k, a in enumerate(e.coeffs) if a}}
            for b, e in f.factors.items()
        ],
        "detB_exponent": str(detB),
        "display": display,
        "unreduced": False,  # fixed schema field: every factor is a prime or linear
    }


# Each of sym, table and refined returns (payload, text, latex): the JSON
# payload and two closures that render the text and LaTeX outputs.


def cmd_sym(args: argparse.Namespace) -> tuple:
    shape = args.partition
    result = symmetrization_determinant(shape, jobs=args.jobs)
    reduced = result.c_formula.reduced()
    payload = {
        "partition": list(shape.parts),
        "n": shape.n,
        "dimension": _poly_json(result.dimension, dimension_str(shape)),
        "blocks": [
            {
                "pattern": list(pattern),
                "distinct_letters": block.k,
                "size": block.size,
                "matrix": [list(row) for row in block.matrix],
                "det": str(block.det),
            }
            for pattern, block in result.blocks.items()
        ],
        "c_exact": _class_json(result.c_formula),
        "c_reduced": {**_class_json(reduced), "latex": reduced.render_latex()},
        "detB_exponent": str(result.detB_exponent),
    }
    dimension, c = payload["dimension"]["display"], payload["c_reduced"]

    def text() -> str:
        lines = [
            f"partition: {shape}   n = {shape.n}",
            f"dimension = {dimension}",
            "blocks (pattern, multiplicity C(N,k), matrix, det):",
        ]
        for b in payload["blocks"]:
            pat = ",".join(map(str, b["pattern"]))
            lines.append(f"  ({pat})  C(N,{b['distinct_letters']})  det {b['det']}")
            lines += ["    [" + " ".join(f"{v:>6}" for v in row) + "]" for row in b["matrix"]]
        lines.append(f"c (exact) = {payload['c_exact']['display']}")
        lines.append(f"c = {c['display']}")
        lines.append(f"det = {c['display']} * {_det_b(result.detB_exponent)}")
        return "\n".join(lines)

    def latex() -> str:
        return (
            "\\begin{tabular}{ccc}\n"
            "$\\lambda$ & $d(\\lambda)$ & $c(\\lambda)$\\\\\n"
            f"${shape}$ & ${dimension}$ & ${c['latex']}$\\\\\n"
            "\\end{tabular}"
        )

    return payload, text, latex


def cmd_table(args: argparse.Namespace) -> tuple:
    results = [determinant_class(shape) for n in range(2, args.n + 1) for shape in partitions_of(n)]
    payload = [
        {
            "n": r.shape.n,
            "partition": list(r.shape.parts),
            "dimension": _poly_json(r.dimension, dimension_str(r.shape)),
            "c_reduced": _class_json(r.c_reduced),
        }
        for r in results
    ]

    def text() -> str:
        return "\n".join(
            f"n={r.shape.n}  {r.shape!s:16} d = {row['dimension']['display']:42s} "
            f"c = {row['c_reduced']['display']}"
            for r, row in zip(results, payload)
        )

    def latex() -> str:
        lines = [
            "\\begin{tabular}{|cccc|}",
            "\\hline",
            "$n$ & $\\lambda$ & $d(\\lambda)$ & $c(\\lambda)$\\\\",
            "\\hline",
        ]
        lines += [
            f"{r.shape.n} & ${r.shape}$ & ${row['dimension']['display']}$ & "
            f"${r.c_reduced.render_latex()}$\\\\"
            for r, row in zip(results, payload)
        ]
        lines += ["\\hline", "\\end{tabular}"]
        return "\n".join(lines)

    return payload, text, latex


def cmd_refined(args: argparse.Namespace) -> tuple:
    from .refined import refined_decomposition

    shape = args.partition
    result = refined_decomposition(shape)
    constituents = [
        {
            "gamma": list(c.gamma.parts),
            "multiplicity": c.multiplicity,
            "chains": [list(map(list, ch)) for ch in c.chains],
            "coupling_matrix": [[_poly_json(e) for e in row] for row in c.c_matrix],
            "coupling_det": _poly_json(c.c_det),
            "coupling_reduced": _poly_json(c.c_reduced.value()),
            "reduced_ok": True,  # fixed schema field: an unsplit coupling raises
        }
        for c in result.constituents
    ]
    payload = {
        "partition": list(shape.parts),
        "n": shape.n,
        "constituents": constituents,
        "refined_dimension": _poly_json(result.refined_dimension),
        "refined_det": _class_json(result.refined_det, result.detB_exponent),
    }

    def text() -> str:
        lines = [f"partition: {shape}"]
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
        return "\n".join(lines)

    def latex() -> str:
        gammas = ",\\ ".join(str(c.gamma) for c in result.constituents) or "-"
        classes = ",\\ ".join(c["coupling_reduced"]["display"] for c in constituents) or "-"
        return (
            "\\begin{tabular}{|c|c|l|}\n\\hline\n"
            "$\\lambda$ & $\\gamma$ & $c(\\lambda,\\gamma)$\\\\\n\\hline\n"
            f"${shape}$ & ${gammas}$ & ${classes}$\\\\\n\\hline\n\\end{{tabular}}"
        )

    return payload, text, latex


def cmd_verify(args: argparse.Namespace) -> tuple[int, str]:
    """Exit code and text report of the verification passes in scope."""
    from .golden import verify_refined, verify_sym

    reports = []
    if args.scope in ("sym", "all"):
        reports.append(("sym", verify_sym(args.golden_tables)))
    if args.scope in ("refined", "all"):
        reports.append(("refined", verify_refined(args.golden_tables)))
    lines = []
    for name, report in reports:
        status = "OK" if report.ok else "FAIL"
        lines.append(f"{name}: {report.checked} checks, {len(report.mismatches)} mismatches [{status}]")
        lines += [f"  mismatch: {m}" for m in report.mismatches]
    return (0 if all(report.ok for _, report in reports) else 1), "\n".join(lines)


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
        "--jobs", type=_decimal_option, default=1,
        help="parallel workers for the Gram blocks of sym (default: 1)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sym = sub.add_parser("sym", help="one symmetrization determinant")
    p_sym.add_argument("partition_text", metavar="partition")
    p_sym.set_defaults(run=cmd_sym)

    p_table = sub.add_parser("table", help="table of all shapes up to a weight")
    p_table.add_argument("--n", type=_decimal_option, required=True, metavar="K")
    p_table.set_defaults(run=cmd_table)

    p_ref = sub.add_parser("refined", help="refined orthogonal decomposition")
    p_ref.add_argument("partition_text", metavar="partition")
    p_ref.set_defaults(run=cmd_refined)

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

    if args.command == "sym" and args.partition.n > MAX_SYM_N:
        parser.error(f"beyond supported degree (n <= {MAX_SYM_N})")
    if args.command == "table" and not 2 <= args.n <= MAX_TABLE_N:
        parser.error(f"beyond supported degree (2 <= n <= {MAX_TABLE_N})")
    if args.command == "refined" and args.partition.n > MAX_REFINED_N:
        parser.error(f"refined decomposition unsupported for n > {MAX_REFINED_N}")

    if args.command == "verify":
        from .golden import load_golden

        try:
            args.golden_tables = load_golden(args.golden)
        except (OSError, ValueError) as exc:
            parser.error(f"bad golden file {args.golden}: {type(exc).__name__}: {exc}")
        code, out = cmd_verify(args)  # a text report whatever the format
    else:
        payload, text, latex = args.run(args)
        render = {"json": lambda: json.dumps(payload, indent=2), "text": text, "latex": latex}[args.format]
        code, out = 0, render()
    print(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
