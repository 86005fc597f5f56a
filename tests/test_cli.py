import hashlib
import json
import math
import time
from importlib import resources

import pytest

from symdet.cli import main, parse_partition
from symdet.combinat import Partition, partitions_of
from symdet.gram import gram_block, patterns_of


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


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
        start = time.perf_counter()
        with pytest.raises(ValueError, match="more than 9 parts"):
            parse_partition(",".join(["1^9"] * 200_000))
        assert time.perf_counter() - start < 0.5


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
            main(["table", "--n", "10"])
        assert exc.value.code == 2

    def test_builds_no_block(self, capsys, monkeypatch):
        def forbidden(*args):
            raise AssertionError("table built a Gram block")

        # the classes come from Gelfand-Tsetlin norms, with no block built
        monkeypatch.setattr("symdet.gram.gram_block", forbidden)
        code, out = run(capsys, "--jobs", "1", "--format", "json", "table", "--n", "7")
        assert code == 0
        assert len(json.loads(out)) == 43


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
            main(["refined", "8"])
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

    def test_refined_row_beyond_weight_six_is_checked(self, capsys, tmp_path):
        rows = [
            {"partition": [7], "gamma": [5], "multiplicity": 99,
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
        assert "refined (7)/(5): multiplicity expected 99, got 1" in out

    @pytest.mark.parametrize(
        "content",
        [
            None,
            "not json {",
            '{"version": 1}',
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
            # refined accepts n <= 7, so a weight-8 row could never be checked
            _edited_golden(lambda doc: doc["refined"].append(dict(doc["refined"][0], partition=[8]))),
        ],
        ids=[
            "missing", "not-json", "no-tables", "wrong-structure",
            "zero-den", "uncertifiable-constant", "uncertifiable-base",
            "undominated-pattern", "pattern-off-weight", "zero-part-pattern",
            "ragged-matrix", "ragged-coupling",
            "float-base", "string-base", "bool-base", "negative-k", "bool-k",
            "float-constant", "bool-constant", "float-multiplicity", "float-root", "bool-den",
            "string-partition", "float-gamma-part", "bool-partition-part",
            "string-coupling-coefficient", "negative-constant", "refined-row-beyond-limit",
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
