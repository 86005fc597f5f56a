"""Output checks for the symdet CLI's ``--format json`` results.

The expected values come from sources other than the engine's own code
path: the golden tables in ``src/symdet/data/golden.json``, read here
directly, the hook-content formula for dimensions, and the closed forms
for rows, columns and two-box hooks.  Each check is a ``(label, ok)``
pair; a check that cannot be evaluated counts as failed.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

Check = tuple[str, bool]


# ---------------------------------------------------------------------------
# small exact helpers
# ---------------------------------------------------------------------------


def factor(n: int) -> Counter:
    """Prime factorization of a positive integer by trial division."""
    out: Counter = Counter()
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] += 1
            n //= p
        p += 1
    if n > 1:
        out[n] += 1
    return out


def squarefree(n: int) -> int:
    sf = math.prod(p for p, e in factor(abs(n)).items() if e % 2)
    return sf if n > 0 else -sf


def poly_from_roots(roots, scale: Fraction) -> tuple[Fraction, ...]:
    """Ascending coefficients of scale * prod(N - r)."""
    coeffs = [Fraction(scale)]
    for r in roots:
        shifted = [Fraction(0)] + coeffs
        for i, c in enumerate(coeffs):
            shifted[i] -= r * c
        coeffs = shifted
    return tuple(coeffs)


def hook_content_dimension(parts: tuple[int, ...]) -> tuple[Fraction, ...]:
    """prod over boxes of (N + content) / hook, ascending coefficients."""
    conj = [sum(1 for p in parts if p > c) for c in range(parts[0])]
    roots, hooks = [], 1
    for r, p in enumerate(parts):
        for c in range(p):
            roots.append(r - c)
            hooks *= (p - c) + (conj[c] - r) - 1
    return poly_from_roots(roots, Fraction(1, hooks))


def parse_coeffs(poly_json: dict) -> tuple[Fraction, ...]:
    return tuple(Fraction(c) for c in poly_json["coeffs"])


def class_parity(exponents: dict[int, Counter]) -> dict[int, frozenset]:
    """{prime: set of k with odd coefficient of C(N,k)}, trivial primes dropped."""
    out = {}
    for p, combo in exponents.items():
        ks = frozenset(k for k, a in combo.items() if a % 2)
        if ks:
            out[p] = ks
    return out


def _add_power(exponents: dict[int, Counter], base: int, combo: dict[int, int]) -> None:
    """Multiply the class by base^(sum coeff * C(N,k))."""
    for p, e in factor(base).items():
        for k, a in combo.items():
            exponents.setdefault(p, Counter())[k] += e * a


# ---------------------------------------------------------------------------
# closed forms of the determinant class
# ---------------------------------------------------------------------------


def _compositions(n: int):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def closed_form_class(parts: tuple[int, ...]) -> dict[int, frozenset] | None:
    """Reduced class of a single row, a single column or a hook (2,1^(n-2))."""
    n = sum(parts)
    exps: dict[int, Counter] = {}
    if len(parts) == 1:
        # product over compositions of the multinomial, C(N,len) each
        for comp in _compositions(n):
            multinomial = math.factorial(n)
            for x in comp:
                multinomial //= math.factorial(x)
            _add_power(exps, multinomial, {len(comp): 1})
    elif all(p == 1 for p in parts):
        _add_power(exps, math.factorial(n), {n: 1})
    elif parts[0] == 2 and all(p == 1 for p in parts[1:]):
        # n^C(N,n) * ((n-1)!)^((n-1) * (C(N,n) + C(N,n-1)))
        _add_power(exps, n, {n: 1})
        _add_power(exps, math.factorial(n - 1), {n: n - 1, n - 1: n - 1})
    else:
        return None
    return class_parity(exps)


def output_class(formula_json: dict) -> dict[int, frozenset] | None:
    """Parity map of a ``c_reduced`` object; None if it has a non-integer base."""
    if formula_json.get("unreduced"):
        return None
    exps: dict[int, Counter] = {}
    for f in formula_json["factors"]:
        if not f["base"].isdigit():
            return None
        combo = {}
        for k, a in f["exponent_binomials"].items():
            a = Fraction(a)
            if a.denominator != 1:
                return None
            combo[int(k)] = a.numerator
        _add_power(exps, int(f["base"]), combo)
    return class_parity(exps)


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------


def expand_partition(text: str) -> tuple[int, ...]:
    parts = []
    for chunk in text.split(","):
        base, _, count = chunk.partition("^")
        parts += [int(base)] * (int(count) if count else 1)
    return tuple(parts)


class Oracle:
    def __init__(self, golden_path: Path):
        doc = json.loads(golden_path.read_text())
        self.sym = {}
        for row in doc["symmetrizations"] + doc["symmetrizations_stretch"]:
            exps: dict[int, Counter] = {}
            for base, ks in row["det_class"]:
                _add_power(exps, base, {k: 1 for k in ks})
            dim = row["dimension"]
            self.sym[tuple(row["partition"])] = (
                poly_from_roots(dim["roots"], Fraction(1, dim["den"])),
                class_parity(exps),
            )
        self.table_shapes = [tuple(r["partition"]) for r in doc["symmetrizations"]]
        self.refined: dict[tuple, dict[tuple, tuple]] = {}
        for row in doc["refined"]:
            cls = poly_from_roots(row["class_roots"], Fraction(squarefree(row["class_constant"])))
            self.refined.setdefault(tuple(row["partition"]), {})[tuple(row["gamma"])] = (
                row["multiplicity"], cls,
            )
        self.coupling_42_2 = [
            [_trim(Fraction(c) for c in entry) for entry in row]
            for row in doc["coupling_42_2"]["matrix"]
        ]

    def check(self, command: list[str], stdout: bytes) -> list[Check]:
        """Checks of one command's stdout; ``command`` omits ``--format json``."""
        label = " ".join(command)
        try:
            payload = json.loads(stdout)
            kind = command[0]
            if kind == "table":
                return self._check_table(label, payload)
            parts = expand_partition(command[-1])
            if kind == "sym":
                return self._check_sym(label, parts, payload)
            return self._check_refined(label, parts, payload)
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            return [(f"{label}: unreadable output ({exc!r})", False)]

    def _expected_sym(self, parts):
        if parts in self.sym:
            return self.sym[parts]
        return hook_content_dimension(parts), closed_form_class(parts)

    def _check_table(self, label, rows) -> list[Check]:
        got = {tuple(r["partition"]): r for r in rows}
        checks = [(f"{label}: row count", len(rows) == len(self.table_shapes) == len(got))]
        for parts in self.table_shapes:
            row_label = f"{label}: row {parts}"
            if parts in got:
                checks += self._check_sym(row_label, parts, got[parts])
            else:
                checks.append((f"{row_label} missing", False))
        return checks

    def _check_sym(self, label, parts, payload) -> list[Check]:
        dim, cls = self._expected_sym(parts)
        return [
            (f"{label}: partition", tuple(payload["partition"]) == parts),
            (f"{label}: dimension", parse_coeffs(payload["dimension"]) == dim),
            (f"{label}: reduced class", output_class(payload["c_reduced"]) == cls),
        ]

    def _check_refined(self, label, parts, payload) -> list[Check]:
        got = {tuple(c["gamma"]): c for c in payload["constituents"]}
        checks = [(f"{label}: partition", tuple(payload["partition"]) == parts)]
        if all(p == 1 for p in parts):
            return checks + [(f"{label}: no constituents", not got)]
        expected = self.refined[parts]
        for gamma in sorted(set(expected) | set(got)):
            ok = gamma in expected and gamma in got
            if ok:
                mult, cls = expected[gamma]
                c = got[gamma]
                ok = c["multiplicity"] == mult and parse_coeffs(c["coupling_reduced"]) == cls
            checks.append((f"{label}: constituent {gamma}", ok))
        if parts == (4, 2):
            matrix = [
                [parse_coeffs(e) for e in row] for row in got[(2,)]["coupling_matrix"]
            ] if (2,) in got else []
            checks.append((f"{label}: coupling (4,2)/(2)", _same_up_to_order(matrix, self.coupling_42_2)))
        return checks


def _trim(coeffs) -> tuple[Fraction, ...]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _same_up_to_order(got, expected) -> bool:
    """Equal after one simultaneous permutation of rows and columns."""
    size = len(expected)
    if len(got) != size:
        return False
    return any(
        all(got[p[a]][p[b]] == expected[a][b] for a in range(size) for b in range(size))
        for p in itertools.permutations(range(size))
    )
