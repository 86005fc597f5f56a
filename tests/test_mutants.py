"""Each oracle and input bound can fail: one-line mutants of ``src/`` and the test that catches each.

A case copies ``src/`` to a temporary directory, applies its one
replacement there (the old text must occur exactly once), and runs its
test node in a fresh interpreter that imports the copy, with pytest's
cache and hypothesis plugins off: no node needs either, and loading the
hypothesis plugin tripled a node's start-up.  The case passes when that
node fails.  The working tree is never edited.  A mutant that
no test can catch is listed in ``EQUIVALENT`` with the reason, and its
copy must print the widest table byte for byte.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.slow

ROOT = Path(__file__).resolve().parents[1]

MUTANTS = [
    # (file under src/symdet, old text, new text, test node that must fail)
    (
        "golden.py",
        "if shape.n > MAX_TABLE_N:",
        "if shape.n > MAX_TABLE_N + 1:",
        "tests/test_cli.py::TestVerifyCommand::test_unreadable_golden_is_a_usage_error"
        "[table-row-one-past-limit]",
    ),
    (
        "cli.py",
        "if len(parts) > MAX_SYM_N:",
        "if len(parts) > MAX_SYM_N + 1:",
        "tests/test_cli.py::TestPartitionParsing::test_part_count_limit_is_exact",
    ),
    (
        "golden.py",
        "def _matrix_matches_up_to_order(got, expected) -> bool:\n",
        "def _matrix_matches_up_to_order(got, expected) -> bool:\n    return True\n",
        "tests/test_cli.py::TestVerifyCommand::test_wrong_entry_in_a_large_block_fails_fast",
    ),
    (
        "exact.py",
        "_TRIAL_BOUND = 100_000",
        "_TRIAL_BOUND = 1_000",
        "tests/test_exact.py::TestSquarefreePart::test_square_of_the_largest_trial_prime",
    ),
    (
        "golden.py",
        "if shape.n > MAX_REFINED_N:",
        "if shape.n > MAX_REFINED_N + 1:",
        "tests/test_cli.py::TestVerifyCommand::test_unreadable_golden_is_a_usage_error"
        "[refined-row-beyond-limit]",
    ),
    (
        "golden.py",
        "if shape.n > MAX_SYM_N:",
        "if shape.n > MAX_SYM_N + 1:",
        "tests/test_cli.py::TestVerifyCommand::test_unreadable_golden_is_a_usage_error"
        "[matrix-key-beyond-limit]",
    ),
    (
        "golden.py",
        "_integer(k, 0, n)",
        "_integer(k, 0, n + 1)",
        "tests/test_cli.py::TestVerifyCommand::test_unreadable_golden_is_a_usage_error"
        "[k-one-past-weight]",
    ),
    (
        "gram.py",
        "if not 1 <= shape.n <= MAX_TABLE_N:",
        "if not 1 <= shape.n <= MAX_TABLE_N + 1:",
        "tests/test_gram.py::TestDeterminantClasses::test_weight_limit_is_exact",
    ),
    (
        "gram.py",
        "mask ^= _FACT[ls[i] - ls[j] - 1] ^ _FACT[k_i - ls[j] - 1]",
        "mask ^= _FACT[ls[i] - ls[j] - 1]",
        "tests/test_jantzen.py::test_determinant_class_matches_jantzen_to_weight_twelve",
    ),
    (
        "gram.py",
        "if e % 2",
        "if e",
        "tests/test_jantzen.py::test_determinant_class_matches_jantzen_to_weight_twelve",
    ),
    (
        # the k = 0 term then has no summand, and reduce raises
        "gram.py",
        "if math.comb(k, i) % 2",
        "if not math.comb(k, i) % 2",
        "tests/test_jantzen.py::test_determinant_class_matches_jantzen_to_weight_twelve",
    ),
    (
        "cli.py",
        'if args.command == "sym" and args.partition.n > MAX_SYM_N:',
        'if args.command == "sym" and args.partition.n > MAX_SYM_N + 1:',
        "tests/test_cli.py::TestSymCommand::test_beyond_supported_degree",
    ),
    (
        # refined_decomposition then raises its own ValueError, not the usage error
        "cli.py",
        'if args.command == "refined" and args.partition.n > MAX_REFINED_N:',
        'if args.command == "refined" and args.partition.n > MAX_REFINED_N + 1:',
        "tests/test_cli.py::TestRefinedCommand::test_unsupported_weight",
    ),
    (
        "cli.py",
        "not 2 <= args.n <= MAX_TABLE_N:",
        "not 2 <= args.n <= MAX_TABLE_N + 1:",
        "tests/test_cli.py::TestTableCommand::test_beyond_supported_degree",
    ),
    (
        "cli.py",
        "not 2 <= args.n <= MAX_TABLE_N:",
        "not 1 <= args.n <= MAX_TABLE_N:",
        "tests/test_cli.py::TestTableCommand::test_below_supported_degree",
    ),
    (
        "cli.py",
        "if not 1 <= count <= MAX_SYM_N:",
        "if not 1 <= count <= MAX_SYM_N + 1:",
        "tests/test_cli.py::TestPartitionParsing::test_repeat_count_limit_is_exact",
    ),
    (
        "cli.py",
        "if not 1 <= count <= MAX_SYM_N:",
        "if not 0 <= count <= MAX_SYM_N:",
        "tests/test_cli.py::TestPartitionParsing::test_repeat_count_limit_is_exact",
    ),
    (
        "cli.py",
        "if args.jobs < 1:",
        "if args.jobs < 0:",
        "tests/test_cli.py::TestSymCommand::test_jobs_must_be_positive[0]",
    ),
    (
        "golden.py",
        "MAX_REORDER_SIZE = 4",
        "MAX_REORDER_SIZE = 3",
        "tests/test_golden.py::test_basis_order_is_free_up_to_the_reorder_size",
    ),
    (
        "golden.py",
        "MAX_REORDER_SIZE = 4",
        "MAX_REORDER_SIZE = 5",
        "tests/test_golden.py::test_basis_order_is_free_up_to_the_reorder_size",
    ),
    (
        # the matrix content multiplied back once too few times
        "exact.py",
        "return g ** len(matrix) * prev",
        "return g ** (len(matrix) - 1) * prev",
        "tests/test_jantzen.py::test_block_determinants_match_jantzen_to_weight_eight",
    ),
    (
        # every closed strand of dummies counted one short
        "refined.py",
        "counts[2 * j - len(root)]",
        "counts[max(0, 2 * j - len(root) - 1)]",
        "tests/test_refined.py::TestSymbolicAgainstConcrete::test_named_couplings[(4,2)-(2)]",
    ),
    (
        # deltas with even columns, the symplectic rule: (2) then has no constituent ()
        "combinat.py",
        "Partition(2 * p for p in half)",
        "Partition(2 * p for p in half).conjugate()",
        "tests/test_refined.py::TestRefinedDecomposition::test_dimension_matches_el_samra_king[(2)]",
    ),
    (
        # dim / N: the pinned (2,1) exponent fails first, and without it the dense
        # oracle's stretched-direction runs fail on 10 of the 40 weight-2..4 runs
        "combinat.py",
        "shape.n * c",
        "c",
        "tests/test_acceptance.py::test_criterion_6_refined_determinant",
    ),
    (
        "gram.py",
        "if not 1 <= shape.n <= MAX_SYM_N:",
        "if not 1 <= shape.n <= MAX_SYM_N + 1:",
        "tests/test_gram.py::TestSymmetrizationDeterminant::test_weight_limit_is_exact",
    ),
    (
        # a golden block smaller than the engine's then matches its top-left corner
        "golden.py",
        "    if len(got) != size:\n        return False\n",
        "",
        "tests/test_cli.py::TestVerifyCommand::test_a_golden_block_of_the_wrong_size_fails",
    ),
    (
        # a fullwidth digit is a digit to str.isdigit, and int() reads it
        "combinat.py",
        "text.isascii() and text.isdigit()",
        "text.isdigit()",
        "tests/test_cli.py::TestTableCommand::test_n_is_ascii_decimal[\\uff13]",
    ),
]

# (file under src/symdet, old text, new text, why no test can catch it)
EQUIVALENT = [
    (
        "gram.py",
        "_factorial_parities(2 * MAX_TABLE_N + 2)",
        "_factorial_parities(2 * MAX_TABLE_N + 3)",
        "35 is not prime, so the primes and their bits are the same, and no norm of weight"
        " <= MAX_TABLE_N reads the extra entry",
    ),
]


def _mutated_src(tmp_path: Path, name: str, old: str, new: str) -> Path:
    """A copy of src/ with one replacement in ``name``, whose old text occurs exactly once."""
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "symdet" / name
    text = path.read_text()
    assert text.count(old) == 1, (name, old)
    path.write_text(text.replace(old, new))
    return src


@pytest.mark.parametrize("name, old, new, node", MUTANTS, ids=[m[3].split("::", 1)[1] for m in MUTANTS])
def test_mutant_is_caught(tmp_path, name, old, new, node):
    src = _mutated_src(tmp_path, name, old, new)
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "no:hypothesispytest", node],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    # exit code 1 with "1 failed": the node was collected, ran and failed
    assert result.returncode == 1 and "1 failed" in result.stdout, result.stdout + result.stderr


@pytest.mark.parametrize("name, old, new, why", EQUIVALENT, ids=[m[2] for m in EQUIVALENT])
def test_equivalent_mutant_prints_the_same_widest_table(tmp_path, name, old, new, why):
    argv = [sys.executable, "-m", "symdet.cli", "--format", "json", "table", "--n", "16"]
    outputs = []
    for src in (ROOT / "src", _mutated_src(tmp_path, name, old, new)):
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        outputs.append(subprocess.run(argv, env=env, capture_output=True, timeout=120, check=True).stdout)
    assert outputs[0] == outputs[1], why
