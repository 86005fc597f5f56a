import hashlib
import json
import math
import shlex
import time
from importlib import resources
from pathlib import Path

import pytest

from symdet.cli import build_parser, main, parse_partition
from symdet.combinat import Partition, partitions_of, patterns_of
from symdet.gram import gram_block


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _readme_cli_lines() -> list[str]:
    """Each ``symdet ...`` line of the code block under README's CLI heading."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    begin = lines.index("```", lines.index("## CLI")) + 1
    return [line for line in lines[begin:lines.index("```", begin)] if line.startswith("symdet ")]


def test_readme_cli_lines_parse():
    lines = _readme_cli_lines()
    assert len(lines) >= 6
    rejected = []
    for line in lines:
        try:
            build_parser().parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            rejected.append(line)
    assert not rejected, rejected


# a sign, an underscore and non-ASCII digits: \u0667 is an Arabic-Indic 7, \uff13 a fullwidth 3
NOT_DECIMAL = ["+3", "0_3", "\u0667", "\uff13", "1_0"]


def _edited_golden(edit):
    doc = json.loads(resources.files("symdet.data").joinpath("golden.json").read_text())
    edit(doc)
    return json.dumps(doc)


class TestPartitionParsing:
    def test_comma_separated(self):
        assert parse_partition("3,1,1") == Partition((3, 1, 1))

    def test_caret_expansion(self):
        assert parse_partition("3,1^2") == Partition((3, 1, 1))
        assert parse_partition("2^3") == Partition((2, 2, 2))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            parse_partition("0")

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            parse_partition("1,2")

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_partition("a,b")

    def test_rejects_repeat_count_before_expanding(self):
        with pytest.raises(ValueError, match="repeat count"):
            parse_partition("1^10000000")

    def test_rejects_too_many_parts_before_expanding_them_all(self):
        # a parser that read on to the last chunk would fail there with another message
        with pytest.raises(ValueError, match="more than 9 parts"):
            parse_partition(",".join(["1^9"] * 200_000 + ["x"]))

    def test_part_count_limit_is_exact(self):
        assert parse_partition("1^9") == Partition((1,) * 9)
        with pytest.raises(ValueError, match="more than 9 parts"):
            parse_partition("1^9,1")

    def test_repeat_count_limit_is_exact(self):
        # 2^10 would also overrun the part count, so the message names which check fired
        assert parse_partition("2^9") == Partition((2,) * 9)
        for text in ("2^10", "3,2^0"):
            with pytest.raises(ValueError, match="repeat count"):
                parse_partition(text)

    @pytest.mark.parametrize("text", ["+2", "1_0", "\uff13", "2^+1", "2^1_0"])  # \uff13: a fullwidth 3
    def test_parts_and_counts_are_ascii_decimal(self, text):
        with pytest.raises(ValueError, match="decimal digits"):
            parse_partition(text)
        with pytest.raises(SystemExit) as exc:
            main(["sym", text])
        assert exc.value.code == 2


class TestSymCommand:
    def test_text_contains_reduced_class(self, capsys):
        code, out = run(capsys, "--jobs", "1", "sym", "2,1")
        assert code == 0
        assert "c = 3^C(N,3)" in out

    def test_json_fields(self, capsys):
        code, out = run(capsys, "--jobs", "1", "--format", "json", "sym", "1,1")
        assert code == 0
        payload = json.loads(out)
        assert payload["dimension"]["display"] == "N*(N-1)/2"
        assert payload["c_reduced"]["display"] == "2^C(N,2)"

    def test_json_roundtrip_idempotent(self, capsys):
        _, out = run(capsys, "--jobs", "1", "--format", "json", "sym", "2,2")
        payload = json.loads(out)
        assert json.loads(json.dumps(payload, indent=2)) == payload

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sym", "0"])
        assert exc.value.code == 2

    def test_beyond_supported_degree(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("computation started before the weight check")

        monkeypatch.setattr("symdet.cli.symmetrization_determinant", forbidden)
        with pytest.raises(SystemExit) as exc:
            main(["sym", "10"])
        assert exc.value.code == 2

    def test_single_box_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["sym", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("jobs", ["0"])  # "-1" is no decimal number: see test_jobs_are_ascii_decimal
    def test_jobs_must_be_positive(self, capsys, jobs):
        with pytest.raises(SystemExit) as exc:
            main(["--jobs", jobs, "sym", "2,1"])
        assert exc.value.code == 2
        assert "--jobs must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", NOT_DECIMAL + ["-1"])
    def test_jobs_are_ascii_decimal(self, capsys, jobs):
        with pytest.raises(SystemExit) as exc:
            main(["--jobs", jobs, "sym", "2,1"])
        assert exc.value.code == 2
        assert "decimal" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["table", "--n", "+3"], ["--jobs", "1_0", "sym", "2,1"]], ids=["n", "jobs"])
    def test_a_malformed_number_option_prints_the_readers_message(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "is not a number in decimal digits" in err
        assert "_decimal" not in err

    def test_latex(self, capsys):
        code, out = run(capsys, "--jobs", "1", "--format", "latex", "sym", "2,1")
        assert code == 0
        assert out.startswith("\\begin{tabular}")
        assert "\\binom{N}{3}" in out


class TestTableCommand:
    def test_row_counts(self, capsys):
        _, out = run(capsys, "--jobs", "1", "table", "--n", "3")
        assert len(out.strip().splitlines()) == 5

    def test_full_depth_row_count(self, capsys):
        _, out = run(capsys, "--jobs", "1", "table", "--n", "7")
        assert len(out.strip().splitlines()) == 43

    def test_latex_structure(self, capsys):
        _, out = run(capsys, "--jobs", "1", "--format", "latex", "table", "--n", "2")
        lines = out.strip().splitlines()
        assert lines[0] == "\\begin{tabular}{|cccc|}"
        assert lines[-1] == "\\end{tabular}"
        assert sum(1 for line in lines if line.startswith("2 & ")) == 2

    def test_beyond_supported_degree(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--n", "17"])
        assert exc.value.code == 2

    def test_below_supported_degree(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--n", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("n", NOT_DECIMAL)
    def test_n_is_ascii_decimal(self, capsys, n):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--n", n])
        assert exc.value.code == 2
        assert "decimal" in capsys.readouterr().err

    def test_whitespace_around_n_is_allowed(self, capsys):
        # as around the numbers of a partition
        padded = run(capsys, "--jobs", "1", "table", "--n", " 7")
        assert padded == run(capsys, "--jobs", "1", "table", "--n", "7")

    def test_builds_no_block(self, capsys, monkeypatch):
        def forbidden(*args):
            raise AssertionError("table built a Gram block")

        # the classes come from Gelfand-Tsetlin norms, with no block built
        monkeypatch.setattr("symdet.gram.gram_block", forbidden)
        code, out = run(capsys, "--jobs", "1", "--format", "json", "table", "--n", "7")
        assert code == 0
        assert len(json.loads(out)) == 43

    @pytest.mark.parametrize("fmt", ["text", "json", "latex"])
    def test_searches_no_polynomial_root(self, capsys, monkeypatch, fmt):
        def forbidden(p):
            raise AssertionError("table factored a polynomial")

        # every dimension display is read off the hook contents
        monkeypatch.setattr("symdet.exact.poly_factor_rational", forbidden)
        code, _ = run(capsys, "--jobs", "1", "--format", fmt, "table", "--n", "9")
        assert code == 0


class TestRefinedCommand:
    def test_text_two_one(self, capsys):
        code, out = run(capsys, "refined", "2,1")
        assert code == 0
        assert "gamma (1)  m=1  c = 2*(N-1)" in out

    def test_text_four_two_has_multiplicity_two(self, capsys):
        code, out = run(capsys, "refined", "4,2")
        assert code == 0
        assert "m=2" in out
        assert "5*N*(N-2)*(N+1)*(N+4)" in out

    def test_exterior_has_no_constituents(self, capsys):
        code, out = run(capsys, "refined", "1,1,1")
        assert code == 0
        assert "no constituents" in out

    def test_unsupported_weight(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["refined", "9"])
        assert exc.value.code == 2

    def test_json_shape(self, capsys):
        _, out = run(capsys, "--format", "json", "refined", "3,1")
        payload = json.loads(out)
        gammas = [tuple(c["gamma"]) for c in payload["constituents"]]
        assert gammas == [(2,), (1, 1)]


class TestVerifyCommand:
    def test_sym_scope_passes(self, capsys):
        code, out = run(capsys, "--jobs", "1", "verify", "--scope", "sym")
        assert code == 0
        assert "sym:" in out and "[OK]" in out

    def test_corrupted_golden_fails(self, capsys, tmp_path):
        text = resources.files("symdet.data").joinpath("golden.json").read_text()
        doc = json.loads(text)
        doc["symmetrizations"][3]["det_class"] = [[7, [3]]]
        bad = tmp_path / "golden.json"
        bad.write_text(json.dumps(doc))
        code, out = run(
            capsys, "--jobs", "1", "verify", "--scope", "sym", "--golden", str(bad)
        )
        assert code == 1
        assert "mismatch" in out
        assert out.count("mismatch:") == 1

    def test_every_stretch_row_is_checked(self, capsys, tmp_path):
        doc = json.loads(resources.files("symdet.data").joinpath("golden.json").read_text())
        row = doc["symmetrizations_stretch"][0]
        base, ks = row["det_class"][0]
        assert math.isqrt(base) ** 2 != base  # so dropping a k changes the class
        row["det_class"][0] = [base, ks[1:]]
        bad = tmp_path / "golden.json"
        bad.write_text(json.dumps(doc))
        code, out = run(capsys, "--jobs", "1", "verify", "--scope", "sym", "--golden", str(bad))
        assert code == 1
        assert out.count("mismatch:") == 1
        assert f"sym {Partition(row['partition'])}: class expected" in out

    def test_wrong_entry_in_a_large_block_fails_fast(self, capsys, tmp_path):
        # a block this large is compared in lexicographic order only, not
        # under each of its 16! reorderings
        mat = [list(row) for row in gram_block(Partition((3, 2, 1)), (1,) * 6).matrix]
        assert len(mat) == 16
        mat[0][1] += 1
        bad = tmp_path / "golden.json"
        bad.write_text(
            _edited_golden(lambda doc: doc["matrices"].update({"3,2,1|1,1,1,1,1,1": mat}))
        )
        start = time.perf_counter()
        code, out = run(capsys, "--jobs", "1", "verify", "--scope", "sym", "--golden", str(bad))
        assert time.perf_counter() - start < 30
        assert code == 1
        assert out.count("mismatch:") == 1
        assert "matrix (3,2,1) pattern (1, 1, 1, 1, 1, 1)" in out

    def test_a_golden_block_of_the_wrong_size_fails(self, capsys, tmp_path):
        # the engine's 3x3 block less its last row and column matches its own top-left corner
        mat = [list(row[:-1]) for row in gram_block(Partition((3, 1)), (1, 1, 1, 1)).matrix[:-1]]
        assert len(mat) == 2
        bad = tmp_path / "golden.json"
        bad.write_text(_edited_golden(lambda doc: doc["matrices"].update({"3,1|1,1,1,1": mat})))
        code, out = run(capsys, "--jobs", "1", "verify", "--scope", "sym", "--golden", str(bad))
        assert code == 1
        assert out.count("mismatch:") == 1
        assert "matrix (3,1) pattern (1, 1, 1, 1)" in out

    def test_refined_class_mismatch_prints_in_sym_notation(self, capsys, tmp_path):
        def edit(doc):
            row = next(r for r in doc["refined"] if r["partition"] == [3, 1] and r["gamma"] == [1, 1])
            row["class_constant"] = 1

        bad = tmp_path / "golden.json"
        bad.write_text(_edited_golden(edit))
        code, out = run(capsys, "verify", "--scope", "refined", "--golden", str(bad))
        assert code == 1
        assert out.count("mismatch:") == 1
        assert "refined (3,1)/(1,1): class expected (N + 2), got 2 * (N + 2)" in out

    @pytest.mark.parametrize(
        "edit, line",
        [
            (
                lambda doc: doc["refined"].append(
                    {"partition": [3, 1], "gamma": [], "multiplicity": 1, "class_constant": 1, "class_roots": []}
                ),
                "refined (3,1)/(): missing constituent",
            ),
            (
                lambda doc: doc["refined"].remove(
                    next(r for r in doc["refined"] if r["partition"] == [2, 2] and r["gamma"] == [2])
                ),
                "refined (2,2)/(2): unexpected constituent",
            ),
            (
                lambda doc: doc["coupling_42_2"]["matrix"][0][0].__setitem__(0, -8191),
                "refined (4,2)/(2): coupling matrix differs from the known one",
            ),
        ],
        ids=["missing-constituent", "unexpected-constituent", "coupling-matrix"],
    )
    def test_refined_mismatch_is_named(self, capsys, tmp_path, edit, line):
        bad = tmp_path / "golden.json"
        bad.write_text(_edited_golden(edit))
        code, out = run(capsys, "verify", "--scope", "refined", "--golden", str(bad))
        assert code == 1
        assert out.count("mismatch:") == 1
        assert line in out

    def test_dimension_mismatch_is_named(self, capsys, tmp_path):
        bad = tmp_path / "golden.json"
        bad.write_text(_edited_golden(lambda doc: doc["symmetrizations"][0]["dimension"].update(den=3)))
        code, out = run(capsys, "--jobs", "1", "verify", "--scope", "sym", "--golden", str(bad))
        assert code == 1
        assert out.count("mismatch:") == 1
        assert "sym (2): dimension expected N*(N+1)/3, got N*(N+1)/2" in out

    def test_refined_row_beyond_weight_six_is_checked(self, capsys, tmp_path):
        rows = [
            # a multiplicity above the weight (7) would be a bad golden file, not a mismatch
            {"partition": [7], "gamma": [5], "multiplicity": 2,
             "class_constant": 21, "class_roots": [-10]},
            {"partition": [7], "gamma": [3], "multiplicity": 1,
             "class_constant": 105, "class_roots": [-6, -8]},
            {"partition": [7], "gamma": [1], "multiplicity": 1,
             "class_constant": 105, "class_roots": [-2, -4, -6]},
        ]
        bad = tmp_path / "golden.json"
        bad.write_text(_edited_golden(lambda doc: doc["refined"].extend(rows)))
        code, out = run(capsys, "verify", "--scope", "refined", "--golden", str(bad))
        assert code == 1
        assert out.count("mismatch:") == 1
        assert "refined (7)/(5): multiplicity expected 2, got 1" in out

    @pytest.mark.parametrize(
        "content",
        [
            None,
            "not json {",
            '{"version": 1}',
            _edited_golden(lambda doc: doc.update(version=2)),
            '{"version": 1, "symmetrizations": 5, "symmetrizations_stretch": [], '
            '"refined": [], "matrices": {}, "coupling_42_2": {"matrix": []}}',
            _edited_golden(lambda doc: doc["symmetrizations"][0]["dimension"].update(den=0)),
            _edited_golden(lambda doc: doc["refined"][0].update(class_constant=2**89 - 1)),
            _edited_golden(
                lambda doc: doc["symmetrizations"][0].update(det_class=[[2**89 - 1, [2]]])
            ),
            _edited_golden(lambda doc: doc["matrices"].update({"2,1|3": [[1]]})),
            _edited_golden(lambda doc: doc["matrices"].update({"2,1|1,1": [[1]]})),
            _edited_golden(lambda doc: doc["matrices"].update({"2,1|0,3": [[1]]})),
            _edited_golden(lambda doc: doc["matrices"].update({"2,1|1,1,1": [[4, -2], [-2]]})),
            _edited_golden(lambda doc: doc["coupling_42_2"].update(matrix=[[[1], [2]], [[3]]])),
            # every number is a JSON integer, never a float, a string or a bool
            *(
                _edited_golden(lambda doc, f=f: doc["symmetrizations"][0].update(det_class=[f]))
                for f in ([2.5, [2]], ["6", [2]], [True, [2]], [2, [-1]], [2, [True]])
            ),
            _edited_golden(lambda doc: doc["refined"][0].update(class_constant=2.5)),
            _edited_golden(lambda doc: doc["refined"][0].update(class_constant=True)),
            _edited_golden(lambda doc: doc["refined"][0].update(multiplicity=1.0)),
            _edited_golden(lambda doc: doc["symmetrizations"][0]["dimension"].update(roots=[0, 0.5])),
            _edited_golden(lambda doc: doc["symmetrizations"][0]["dimension"].update(den=True)),
            _edited_golden(lambda doc: doc["refined"][0].update(partition="2")),
            _edited_golden(lambda doc: doc["refined"][1].update(gamma=[1.0])),
            _edited_golden(lambda doc: doc["symmetrizations"][0].update(partition=[True, True])),
            _edited_golden(lambda doc: doc["coupling_42_2"]["matrix"][0][0].__setitem__(0, "-8192")),
            _edited_golden(lambda doc: doc["refined"][0].update(class_constant=-1)),
            # refined accepts n <= 8, so a weight-9 row could never be checked; (9)/(1) breaks no other rule
            _edited_golden(lambda doc: doc["refined"].append(dict(doc["refined"][0], partition=[9], gamma=[1]))),
            # table goes to n <= 16 and sym to n <= 9, so a heavier table row or matrix key
            # could never be checked
            *(
                _edited_golden(lambda doc, key=key: doc[key].append(dict(doc[key][0], partition=[6] * 5)))
                for key in ("symmetrizations", "symmetrizations_stretch")
            ),
            _edited_golden(lambda doc: doc["symmetrizations"].append(
                dict(doc["symmetrizations"][0], partition=[9, 8])
            )),
            _edited_golden(lambda doc: doc["matrices"].update({"10|10": [[1]]})),
            _edited_golden(lambda doc: doc["matrices"].update({"4,4,4|" + ",".join("1" * 12): [[1]]})),
            # a row's partition has weight at least 1; a gamma may be empty
            _edited_golden(lambda doc: doc["symmetrizations"][0].update(partition=[])),
            _edited_golden(lambda doc: doc["refined"][0].update(partition=[])),
            # the version is the JSON integer 1, and True == 1.0 == 1 in Python
            _edited_golden(lambda doc: doc.update(version=True)),
            _edited_golden(lambda doc: doc.update(version=1.0)),
            # C(N,k) for k up to the row's weight n only; row 0 is (2), with k = 2
            _edited_golden(lambda doc: doc["symmetrizations"][0].update(det_class=[[2, [3]]])),
            _edited_golden(lambda doc: doc["refined"][0].update(multiplicity=0)),
            # key numbers are ASCII decimal digits, and each (shape, pattern) has one key
            _edited_golden(lambda doc: doc["matrices"].update({"0_2| +2": [[4]]})),
            _edited_golden(lambda doc: doc["matrices"].update({"2,01|1,2": doc["matrices"]["2,1|1,2"]})),
            _edited_golden(lambda doc: None).replace('"2,1|1,2": [[2]]', '"2,1|1,2": [[2]], "2,1|1,2": [[2]]', 1),
            # every root list is bounded by its row: symmetrization row 0 is (2), whose dimension
            # has 2 roots; refined row 0 is (2)/() with j = 1: at most 2 copies, and m * j roots
            _edited_golden(lambda doc: doc["symmetrizations"][0]["dimension"].update(roots=[0, -1, -2])),
            _edited_golden(lambda doc: doc["refined"][0].update(multiplicity=3)),
            _edited_golden(lambda doc: doc["refined"][0].update(class_roots=[0, 0])),
            # a gamma weighs n - 2j for a j >= 1: (2)/(2) has j = 0, and refined row 1 is (3)/(1), so (3)/()
            # leaves an odd gap
            _edited_golden(lambda doc: doc["refined"][0].update(gamma=[2], class_roots=[])),
            _edited_golden(lambda doc: doc["refined"][1].update(gamma=[])),
        ],
        ids=[
            "missing", "not-json", "no-tables", "wrong-version", "wrong-structure",
            "zero-den", "uncertifiable-constant", "uncertifiable-base",
            "undominated-pattern", "pattern-off-weight", "zero-part-pattern",
            "ragged-matrix", "ragged-coupling",
            "float-base", "string-base", "bool-base", "negative-k", "bool-k",
            "float-constant", "bool-constant", "float-multiplicity", "float-root", "bool-den",
            "string-partition", "float-gamma-part", "bool-partition-part",
            "string-coupling-coefficient", "negative-constant", "refined-row-beyond-limit",
            "table-row-beyond-limit", "stretch-row-beyond-limit", "table-row-one-past-limit",
            "matrix-key-beyond-limit", "matrix-key-weight-twelve",
            "empty-table-partition", "empty-refined-partition", "bool-version", "float-version",
            "k-one-past-weight", "zero-multiplicity",
            "matrix-key-not-decimal", "matrix-key-named-twice", "matrix-key-written-twice",
            "dimension-roots-one-past-weight", "multiplicity-one-past-weight",
            "class-roots-one-past-bound", "gamma-of-full-weight", "gamma-of-odd-weight-gap",
        ],
    )
    def test_unreadable_golden_is_a_usage_error(self, capsys, tmp_path, content):
        bad = tmp_path / "golden.json"
        if content is not None:
            bad.write_text(content)
        with pytest.raises(SystemExit) as exc:
            main(["--jobs", "1", "verify", "--scope", "sym", "--golden", str(bad)])
        assert exc.value.code == 2
        assert f"bad golden file {bad}" in capsys.readouterr().err


class TestPinnedOutput:
    """sha256 of stdout for each output format, so renderer rewrites stay byte-identical."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (("--format", "text", "table", "--n", "6"),
             "b98dc28bbc0cd6de74c0fb511f2176c9980a81e2fa784918734969527d3342eb"),
            (("--format", "json", "table", "--n", "6"),
             "f42bd615d9cb02709ec2b568fb848ae43b6a122bbef6c6be56d34b59d90718cf"),
            (("--format", "latex", "table", "--n", "6"),
             "c0f5576600cd36916d5f6ed4a7ae5f5141863a93cd4e1886373d2f533bda385e"),
            (("--format", "text", "sym", "2,1"),
             "89dc1f50091a3ebb5b7dc95d4e3e15efe91101bc99fa6aad2fa718627392e353"),
            (("--format", "latex", "sym", "3,2"),
             "e1874750d1c2abc7921b40dd0c016baaa7a9f3c0da81f468298176cbbe670636"),
            (("--format", "text", "refined", "4,2"),
             "de4558b9381453170a7b4f2434364882368bde5630b591180fd4fcc1eb92157e"),
            (("--format", "latex", "refined", "4,2"),
             "95253e68f80e07903bcf7e36555656dc184c37dd2a5e2e910a148a711406a812"),
            (("--format", "json", "refined", "3,2"),
             "3ca8a6db63124fb1b9a65653bd3165d9504b4c69acf65abe211ae73a2daa9ab8"),
            (("--format", "json", "refined", "5,2"),
             "d7a7099d72e4f48890c81673bc86cd5c70ac7ef3d2643f5419716db1d4f869f0"),
            (("--format", "json", "table", "--n", "8"),
             "12c9c4c9021b2fa3c261e6b990086b6094d6181705e623b92eab72d6557e5f0b"),
            (("--format", "json", "table", "--n", "9"),
             "c04e1a6162e7c755f513e2e70eace153e9f15685374bedea936e82965f47755b"),
            (("--format", "json", "sym", "9"),
             "5f55109b99288797bf6d1780a60d0c126a6085714fc5bd1698753537367a8b68"),
            (("--format", "json", "sym", "7,1"),
             "bf0377f65d2b35bf79bb5bcdaf3da91dd34f6a9c5e778e923a4cea87f6c5e951"),
            (("--format", "json", "sym", "6,2"),
             "bf5bdad3961e69436f5f58535a43b918abcb0caf5c07413e760ef878884d159e"),
            (("--format", "json", "refined", "2,1^5"),
             "a549668eebab9cffebfd515c54b183f5703899655f296a3d32d4717cc9e4d70f"),
            (("--format", "json", "refined", "2,2,2,1"),
             "ef6d1e736beb323c27e286a121ae9179a7833d2999d830b518303af745442a1d"),
            (("--format", "json", "refined", "3,1^4"),
             "ea11b80a421eaa04cbcd13f7a063465da74aba4ac269d36abe90648822fd8550"),
            # no free tail, a free tail of 1, and a three-row shape
            (("--format", "json", "sym", "3,3,2"),
             "0afc0222d2b93788090daed6222ace748bae334e0465dba80eabdd76cbdc333a"),
            (("--format", "json", "sym", "2,1^6"),
             "15e6e89acde4c70679d7968d38fe596d5e224afc770180f3af9ed26ad12cfe66"),
            (("--format", "json", "sym", "4,2,1"),
             "27fb58e00767be3ff56faf17c2fad43b3ac14944fb5cddee0fca3c97d30b7beb"),
            # polynomial bases, a det(B) exponent and several constituents
            (("--format", "json", "refined", "4,2"),
             "a55473b142d46032c40fc2db599df04ae5ecad859221adc5221ba059a0f44226"),
            (("--format", "json", "refined", "4,2,1"),
             "36e317b52f7fc92f4f9a44307d8266951ad6e797e05ffa01ed61eaf1eea06e14"),
            (("--format", "json", "refined", "3,3,1"),
             "89ddafa7bf03c3f33e8e3430848b14e2c8308dbd83bdf31284945e9b28c93745"),
            # no free tail, and a free tail of 2
            (("--format", "json", "sym", "4,4"),
             "321f4c0c31ac5ca9af1a2316de7493b0c246a55a925a3e7c6138f439d3f4aca1"),
            (("--format", "json", "sym", "5,3"),
             "545237a2e74c19eddf7c5de26a1a2948c6dab6b565f7bf3bf225f3e44ed77a13"),
            # the widest table in the two formats that render the dimension display without JSON
            (("--format", "text", "table", "--n", "9"),
             "5acf04851ab701ba1b50ff42b651dd21e30a0d813296a9676e7a1bc1bbbbae55"),
            (("--format", "latex", "table", "--n", "9"),
             "3d8decadf6b5071140c045531e07c332ac6feaacfc29c1c5775721720c09857d"),
            # the widest table
            (("--format", "json", "table", "--n", "16"),
             "eae15351fc5a13fca114989e18dfcf019ad874028ba17358059b2e826190c6a4"),
            # matrix entries of up to 10 digits, wider than the 6-character column
            (("--format", "text", "sym", "8"),
             "63d00ae5e60f73a45e4b6988efa5b3f2be5ca455aeb1f04658620502584f162b"),
        ],
    )
    def test_stdout_digest(self, capsys, argv, digest):
        code, out = run(capsys, "--jobs", "1", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_sym_json_through_weight_seven(self, capsys):
        digest = hashlib.sha256()
        for n in range(2, 8):
            for shape in partitions_of(n):
                code, out = run(capsys, "--format", "json", "sym", ",".join(map(str, shape.parts)))
                assert code == 0
                digest.update(out.encode())
        assert digest.hexdigest() == "01cd210804d9ed5466631d08a0b64014f716f156accacfd45882533f7e28ef72"

    def test_refined_json_through_weight_seven(self, capsys):
        digest = hashlib.sha256()
        shapes = [shape for n in range(2, 8) for shape in partitions_of(n)]
        assert len(shapes) == 43
        for shape in shapes:
            code, out = run(capsys, "--format", "json", "refined", ",".join(map(str, shape.parts)))
            assert code == 0
            digest.update(out.encode())
        assert digest.hexdigest() == "d67de71c2c0bfcd086f043c0a5aff3541b5c4aec78b1c851eb10c499110a40de"

    def test_refined_json_of_weight_eight(self, capsys):
        digest = hashlib.sha256()
        shapes = partitions_of(8)
        assert len(shapes) == 22
        for shape in shapes:
            code, out = run(capsys, "--format", "json", "refined", ",".join(map(str, shape.parts)))
            assert code == 0
            digest.update(out.encode())
        assert digest.hexdigest() == "11277ff1eb4a184f7b02f3194b95e1be20961bc501b1990ddbf88e0cb4ad0a35"

    def test_sym_latex_through_weight_six(self, capsys):
        digest = hashlib.sha256()
        shapes = [shape for n in range(2, 7) for shape in partitions_of(n)]
        assert len(shapes) == 28
        for shape in shapes:
            code, out = run(capsys, "--jobs", "1", "--format", "latex", "sym", ",".join(map(str, shape.parts)))
            assert code == 0
            digest.update(out.encode())
        assert digest.hexdigest() == "d1344a0d62253b1c6585754ce5796070a8610cf3d59adb9e37ec657553d53a98"

    def test_text_and_latex_of_refined_through_weight_seven_and_sym_through_six(self, capsys):
        digest = hashlib.sha256()
        runs = [
            ("--format", fmt, "refined", ",".join(map(str, shape.parts)))
            for n in range(2, 8) for shape in partitions_of(n) for fmt in ("text", "latex")
        ] + [
            ("--format", "text", "sym", ",".join(map(str, shape.parts)))
            for n in range(2, 7) for shape in partitions_of(n)
        ]
        assert len(runs) == 2 * 43 + 28
        for argv in runs:
            code, out = run(capsys, "--jobs", "1", *argv)
            assert code == 0
            digest.update(out.encode())
        assert digest.hexdigest() == "57df93c165b68607dbc1d4604804e04adf7899a93eb213fa88bf1218e4326f49"


class TestDeterminism:
    def test_byte_identical_runs(self, capsys):
        _, first = run(capsys, "--jobs", "1", "--format", "json", "sym", "3,1")
        _, second = run(capsys, "--jobs", "1", "--format", "json", "sym", "3,1")
        assert first == second

    def test_jobs_do_not_change_output(self, capsys):
        _, serial = run(capsys, "--jobs", "1", "sym", "2,2")
        _, parallel = run(capsys, "--jobs", "2", "sym", "2,2")
        assert serial == parallel


@pytest.fixture
def fake_pool(monkeypatch):
    """Replace the process pool by an in-process stand-in.

    Returns the list of ``max_workers`` values, one per pool built.  No
    real process is started, so large job counts are safe to pass.
    """
    built = []

    class FakeExecutor:
        def __init__(self, max_workers):
            built.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            assert chunksize >= 1
            return map(fn, *iterables)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", FakeExecutor)
    return built


class TestWorkerPool:
    @pytest.mark.parametrize("cores", [3, 10**6])
    def test_huge_jobs_is_clamped(self, capsys, monkeypatch, fake_pool, cores):
        monkeypatch.setattr("os.cpu_count", lambda: cores)
        blocks = len(patterns_of(Partition((3, 1))))
        _, clamped = run(capsys, "--jobs", "1000000", "--format", "json", "sym", "3,1")
        assert fake_pool == [min(cores, blocks)]
        _, serial = run(capsys, "--jobs", "1", "--format", "json", "sym", "3,1")
        assert fake_pool == [min(cores, blocks)]  # --jobs 1 builds no pool
        assert clamped == serial

    @pytest.mark.parametrize(
        "command", [("table", "--n", "7"), ("verify", "--scope", "sym"), ("sym", "4,2")]
    )
    def test_one_pool_per_command(self, capsys, monkeypatch, fake_pool, command):
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        code, _ = run(capsys, *command)
        assert code == 0
        assert fake_pool == []  # the default is one job, which builds no pool
        code, _ = run(capsys, "--jobs", "2", *command)
        assert code == 0
        # only sym builds Gram blocks; table and verify read classes from GT norms
        assert fake_pool == ([2] if command[0] == "sym" else [])
