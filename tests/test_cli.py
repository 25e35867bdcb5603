import hashlib
import io
import json
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import accumulate
from math import lcm
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from discarr.arrangement import arrangement_to_json, random_generic
from discarr.cli import (
    CHUNK,
    _load_arrangement,
    _write_census,
    _write_monodromy,
    _write_relations,
    main,
)
from discarr.discriminantal import (
    DEPENDENT,
    GOOD,
    OTHER,
    SIMPLE,
    DiscForm,
    StratumRecord,
    build_form,
    codim2_census,
    construct_dependent,
)
from discarr.monodromy import (
    Presentation,
    RelationFamilies,
    braid_monodromy,
    presentation_to_text,
    random_section,
)

from _oracles import census_to_json, full_census, multiplicity_four, presentation_by_expansion


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_gen_census_pipeline(tmp_path, capsys):
    arr_path = str(tmp_path / "arr.json")
    code, _ = run(["gen", "--n", "6", "--k", "3", "--seed", "4", "--output", arr_path], capsys)
    assert code == 0
    doc = json.load(open(arr_path))
    assert doc["n"] == 6 and doc["k"] == 3

    code, out = run(["census", "--input", arr_path], capsys)
    assert code == 0
    records = json.loads(out)
    assert sum(1 for r in records if r["multiplicity"] == 5) == 6


def test_gen_deterministic_bytes(tmp_path, capsys):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    run(["gen", "--n", "5", "--k", "2", "--seed", "9", "--output", a], capsys)
    run(["gen", "--n", "5", "--k", "2", "--seed", "9", "--output", b], capsys)
    assert open(a, "rb").read() == open(b, "rb").read()


def test_dependent_construct_census_contains_dependent(tmp_path, capsys):
    arr_path = str(tmp_path / "dep63.json")
    code, _ = run(
        ["dependent-construct", "--s", "2", "--t", "0", "--seed", "11", "--output", arr_path],
        capsys,
    )
    assert code == 0
    code, out = run(["census", "--input", arr_path], capsys)
    assert code == 0
    records = json.loads(out)
    dependent = [r for r in records if r["kind"] == "DEPENDENT"]
    assert dependent == [
        {
            "kind": "DEPENDENT",
            "members": [[1, 2, 3, 4], [1, 2, 5, 6], [3, 4, 5, 6]],
            "multiplicity": 3,
            "s": 2,
            "t": 0,
        }
    ]


def test_planar_verify_empty_discrepancies(capsys):
    code, out = run(
        ["planar-verify", "--n", "5", "--cap", "3", "--trials", "3", "--seed", "7"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["discrepancies"] == []
    assert report["collections_checked"] == 175


def test_gale_invariance_cli(capsys):
    code, out = run(["gale-invariance", "--trials", "3", "--seed", "100"], capsys)
    assert code == 0
    assert json.loads(out)["disagreements"] == []


def test_section_monodromy_presentation(tmp_path, capsys):
    arr_path = str(tmp_path / "dep63.json")
    run(["dependent-construct", "--s", "2", "--t", "0", "--seed", "11", "--output", arr_path], capsys)

    code, out = run(["section", "--input", arr_path, "--seed", "101"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["lines"]) == 15
    assert len(doc["singular_points"]) == 49

    code, out = run(["monodromy", "--input", arr_path, "--seed", "101"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["N"] == 15 and len(doc["braids"]) == 49
    assert all(set(b) == {"s", "block", "word"} for b in doc["braids"])

    code, out = run(["presentation", "--input", arr_path, "--seed", "101", "--reduce"], capsys)
    assert code == 0
    header, *relators = out.strip().split("\n")
    assert header.startswith("generators: d1 ")
    assert len(relators) == 6 * 4 + 1 * 2 + 42 * 1


def test_relations_cli(tmp_path, capsys):
    arr_path = str(tmp_path / "dep63.json")
    run(["dependent-construct", "--s", "2", "--t", "0", "--seed", "11", "--output", arr_path], capsys)
    code, out = run(["relations", "--input", arr_path], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["counts"] == {"commuting": 84, "dependents": 3, "full_sets": 30}


def test_bad_input_exits_one(tmp_path, capsys):
    # every --input failure is one line `error: <file>: <reason>`, exit 1
    missing = tmp_path / "nope.json"
    assert main(["census", "--input", str(missing)]) == 1
    assert capsys.readouterr().err == f"error: {missing}: No such file or directory\n"
    assert main(["census", "--input", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {tmp_path}: Is a directory\n"
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["census", "--input", str(bad)]) == 1
    expected = f"error: {bad}:1:2: Expecting property name enclosed in double quotes\n"
    assert capsys.readouterr().err == expected
    # json.load raises a plain ValueError on an integer past the digit limit
    bad.write_text('{"n": ' + "7" * 5000 + "}")
    assert main(["census", "--input", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: Exceeds the limit ") and err.count("\n") == 1
    # a zero denominator, in the normals or the offsets, is a malformed
    # document: one line on stderr, exit 1, no traceback
    import subprocess
    import sys

    for doc in (
        {"n": 3, "k": 1, "normals": [["1/0"], [2], [3]]},
        {"n": 3, "k": 1, "normals": [[1], [2], [3]], "offsets": ["1/0", 0, 0]},
    ):
        bad.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "discarr.cli", "census", "--input", str(bad)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"error: {bad}: malformed arrangement document: ")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


INPUT_COMMANDS = ["census", "relations", "gale", "section", "monodromy", "presentation"]


@pytest.mark.parametrize("command", INPUT_COMMANDS)
def test_missing_field_and_non_object_documents_exit_one(command, tmp_path):
    # neither message may leak a Python internal such as a KeyError repr or
    # "list indices must be integers or slices, not str"
    import subprocess
    import sys

    for doc, message in (
        ({"n": 3, "k": 1}, "missing field 'normals'"),
        ([], "document must be a JSON object"),
    ):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "discarr.cli", command, "--input", str(path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr == f"error: {path}: malformed arrangement document: {message}\n"
        assert proc.stdout == "" and "Traceback" not in proc.stderr


# A document every command accepts, and the faults drawn into it.  HUGE
# stands for a 5 000-digit JSON integer, which `json.dumps` cannot write.
VALID = {"n": 4, "k": 2, "normals": [[1, 2], [3, -1], ["1/2", 5], [-2, "7/3"]]}
HUGE = "@huge@"
BAD_NUMBERS = [
    True, False, 2.0, 0.5, float("nan"), float("inf"), None, [3], [[1, 2]], {}, "1/0",
    "-7/0", "1e10000000", "1E3", "0.5", "1.", "nan", "Infinity", " 1/2", "1/2 ", "1/-2",
    "--1", "1_000", "½", "", "9" * 5000, HUGE,
]


@st.composite
def malformed_documents(draw):
    doc = json.loads(json.dumps(VALID))
    fault = draw(st.sampled_from([
        "missing", "extra", "top", "entry", "n", "k", "shape", "n<=k", "k<=0", "offsets",
    ]))
    if fault == "missing":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif fault == "extra":
        doc[draw(st.text(max_size=8).filter(lambda key: key not in {*doc, "offsets"}))] = 0
    elif fault == "top":
        doc = draw(st.sampled_from([[], [doc], 4, "doc", None, 1.5]))
    elif fault == "entry":
        row, col = draw(st.integers(0, 3)), draw(st.integers(0, 1))
        doc["normals"][row][col] = draw(st.sampled_from(BAD_NUMBERS))
    elif fault in ("n", "k"):
        doc[fault] = draw(st.sampled_from(BAD_NUMBERS))
    elif fault == "shape":
        rows = doc["normals"]
        doc["normals"] = draw(st.sampled_from([
            [], [[]] * 4, rows[:3], rows + [[1, 1]], rows[:3] + [[1]], rows[:3] + [[1, 2, 3]],
            [rows], rows[0], {"0": rows}, 7,
        ]))
    elif fault == "n<=k":
        n = draw(st.integers(-2, 2))
        doc.update(n=n, normals=[[1, 0]] * max(n, 0))
    elif fault == "k<=0":
        k = draw(st.integers(-2, 0))
        doc.update(k=k, normals=[[0] * max(k, 0)] * 4)
    else:
        doc["offsets"] = draw(st.sampled_from([
            [0, 0, 0], [0] * 5, 0, "0000", [0, 0, 0, "1/0"], [0, 0, 0, "1e9"], [0, 0, 0, 0.5],
        ]))
    return json.dumps(doc).replace(json.dumps(HUGE), "9" * 5000)


def test_the_fuzzed_document_is_valid(tmp_path):
    path = tmp_path / "arr.json"
    path.write_text(json.dumps(VALID))
    for command in INPUT_COMMANDS:
        with redirect_stdout(io.StringIO()):
            assert main([command, "--input", str(path)]) == 0, command


@settings(deadline=None, derandomize=True, database=None, max_examples=100)
@given(malformed_documents())
@example(json.dumps(dict(VALID, n="9" * 5000)))
def test_malformed_documents_exit_one_naming_the_file(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "arr.json"
    path.write_text(text)
    for command in INPUT_COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command, "--input", str(path)])
        assert code == 1, (command, text[:200])
        assert out.getvalue() == ""
        assert err.getvalue().startswith(f"error: {path}") and err.getvalue().count("\n") == 1
        # a 5 000-character value is abbreviated, not repeated
        assert len(err.getvalue()) < len(str(path)) + 300
        assert "Traceback" not in err.getvalue()


@settings(deadline=None, derandomize=True, database=None, max_examples=60)
@given(
    shape=st.sampled_from([(3, 1), (3, 2), (4, 2), (5, 3)]),
    data=st.data(),
)
def test_rational_documents_load_to_cleared_rows(tmp_path_factory, shape, data):
    # the rows times the least common denominator of all entries
    n, k = shape
    entry = st.one_of(
        st.integers(-10**30, 10**30),
        st.tuples(st.integers(-99, 99), st.integers(1, 60), st.sampled_from(["", "+"])).map(
            lambda t: f"{t[2] if t[0] >= 0 else ''}{t[0]}/{t[1]}"
        ),
    )
    rows = data.draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=n, max_size=n))
    path = tmp_path_factory.mktemp("rational") / "arr.json"
    path.write_text(json.dumps({"n": n, "k": k, "normals": rows}))
    fractions = [[Fraction(x) for x in row] for row in rows]
    mult = lcm(*(x.denominator for row in fractions for x in row))
    arr = _load_arrangement(str(path))
    assert arr.normals == tuple(tuple(int(x * mult) for x in row) for row in fractions)
    assert all(type(x) is int for row in arr.normals for x in row)


@pytest.mark.parametrize("command", INPUT_COMMANDS)
def test_zero_k_document_exits_one(command, tmp_path, capsys):
    # gen --k 0 is rejected, and so is a document with k = 0
    path = tmp_path / "arr.json"
    path.write_text(json.dumps({"n": 4, "k": 0, "normals": [[], [], [], []]}))
    assert main([command, "--input", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: need n > k >= 1, got n=4, k=0\n"


def test_precondition_failure_exits_one(capsys):
    code = main(["gen", "--n", "3", "--k", "3", "--seed", "1"])
    assert code == 1


def test_census_other_stratum_exits_two(tmp_path, capsys, monkeypatch):
    # the falsifier channel: an unclassifiable stratum must flip exit code 2
    import discarr.cli as cli
    from discarr.discriminantal import StratumRecord

    arr_path = str(tmp_path / "arr.json")
    run(["gen", "--n", "5", "--k", "2", "--seed", "3", "--output", arr_path], capsys)

    fake = StratumRecord(((1, 2, 3), (1, 2, 4), (1, 2, 5), (3, 4, 5)), "OTHER")
    monkeypatch.setattr(cli, "codim2_census", lambda arr: [fake])
    code = cli.main(["census", "--input", arr_path])
    captured = capsys.readouterr()
    assert code == 2
    assert "UNCLASSIFIED" in captured.err


def other_record(census):
    return census + [StratumRecord(((1, 2, 3), (1, 2, 4), (1, 2, 5), (3, 4, 5)), OTHER)]


def reversed_form(arr, subset):
    form = build_form(arr, subset)
    return DiscForm(form.subset, form.coeffs[::-1])


@pytest.mark.parametrize(
    "command, target, fake, message",
    [
        (
            "relations", "discarr.monodromy.codim2_census",
            lambda arr: other_record(codim2_census(arr)),
            "discrepancy: census produced an unclassified stratum",
        ),
        ("gale", "discarr.gale.build_form", reversed_form, "discrepancy: Gale normal for "),
    ],
    ids=["relations-other", "gale-forms"],
)
def test_cross_check_failure_exits_two(command, target, fake, message, tmp_path, capsys, monkeypatch):
    arr_path = str(tmp_path / "dep63.json")
    run(["dependent-construct", "--s", "2", "--seed", "11", "--output", arr_path], capsys)
    monkeypatch.setattr(target, fake)
    code = main([command, "--input", arr_path])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(message)
    assert captured.out == ""


def test_census_inconsistent_flat_exits_two(tmp_path, capsys):
    # a trace-generic input whose census holds a flat of four forms, outside
    # the classification: the whole census is printed, and flagged
    arr_path = tmp_path / "arr.json"
    arr_path.write_text(json.dumps(arrangement_to_json(multiplicity_four())))
    code = main(["census", "--input", str(arr_path)])
    captured = capsys.readouterr()
    assert code == 2
    # the message embeds the record's repr, field names and all
    assert captured.err == (
        "UNCLASSIFIED codimension-2 strata found: [StratumRecord(members=("
        "(1, 2, 3, 4, 7, 8), (1, 2, 4, 5, 6, 8), (1, 3, 4, 5, 6, 7), (2, 3, 5, 6, 7, 8)"
        "), kind='OTHER')]\n"
    )
    digest = hashlib.sha256(captured.out.encode()).hexdigest()
    assert digest == "efdc477473e8612a1f66c15daee72ffbe89cde2afad64e6f15d74addbdc55c4d"
    other = [r for r in json.loads(captured.out) if r["kind"] == OTHER]
    assert [len(r["members"]) for r in other] == [4]


def test_multiplicity_four_relations_and_monodromy(tmp_path, capsys):
    # relations has no family for an OTHER flat; the section meets it as one
    # 4-fold point
    arr_path = tmp_path / "arr.json"
    arr_path.write_text(json.dumps(arrangement_to_json(multiplicity_four())))
    code = main(["relations", "--input", str(arr_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("discrepancy: census produced an unclassified")
    code, out = run(["monodromy", "--input", str(arr_path), "--seed", "0"], capsys)
    assert code == 0
    blocks = Counter(len(b["block"]) for b in json.loads(out)["braids"])
    assert blocks == {2: 198, 3: 2, 4: 1, 7: 8}


MULTIPLICITY_FOUR_DIGESTS = {
    "section": "d83a65d5ff4c66b3f124a266729d7fbc8f8a4c8e397c6e5c57617bb89f613f12",
    "presentation": "c24d6a5101a3be7bdb07aa87df686a32bd6595a2c48473ab1c6dddb3f8dedb23",
    "presentation --reduce": "0c3d62fd1d6590e49d4dade6de8d7359d10867848c726c39f5831a1b27954d16",
}


def test_multiplicity_four_section_and_presentation(tmp_path, capsys):
    # the 4-fold point of the OTHER flat is one more singular point: section
    # and presentation exit 0, and the relators are those of the expanded braids
    arr_path = tmp_path / "arr.json"
    arr = multiplicity_four()
    arr_path.write_text(json.dumps(arrangement_to_json(arr)))
    outputs = {}
    for command in MULTIPLICITY_FOUR_DIGESTS:
        code, outputs[command] = run(
            command.split() + ["--input", str(arr_path), "--seed", "0"], capsys
        )
        assert code == 0, command
    section = json.loads(outputs["section"])
    assert len(section["lines"]) == 28
    blocks = Counter(len(p["lines"]) for p in section["singular_points"])
    assert blocks == {2: 198, 3: 2, 4: 1, 7: 8}
    # one expansion, most of this test's time: no relator is empty, so
    # dropping the last relator of each point's block gives --reduce's list
    _, lines, pts = random_section(arr, seed=0)
    expanded = presentation_by_expansion(braid_monodromy(lines, pts), 28).relators
    assert len(expanded) == 462
    ends = list(accumulate(len(p.block) for p in pts))
    reduced = [r for start, end in zip([0] + ends, ends) for r in expanded[start : end - 1]]
    assert len(reduced) == 462 - 209
    for command, relators in (("presentation", expanded), ("presentation --reduce", reduced)):
        assert outputs[command] == presentation_to_text(Presentation(28, tuple(relators)))
    digests = {c: hashlib.sha256(out.encode()).hexdigest() for c, out in outputs.items()}
    assert digests == MULTIPLICITY_FOUR_DIGESTS


def test_monodromy_sweep_error_exits_two(tmp_path, capsys, monkeypatch):
    import discarr.cli as cli
    import discarr.monodromy as monodromy
    from discarr.monodromy import SweepError

    arr_path = str(tmp_path / "arr.json")
    run(["gen", "--n", "4", "--k", "2", "--seed", "5", "--output", arr_path], capsys)

    def diverge(lines, points):
        raise SweepError("sweep order diverged from predicted strand positions")

    # both commands run the one sweep
    monkeypatch.setattr(monodromy, "_sweep", diverge)
    for command in ("monodromy", "presentation"):
        code = cli.main([command, "--input", arr_path])
        captured = capsys.readouterr()
        assert code == 2
        assert "sweep order diverged" in captured.err


def test_half_twist_out_of_range_exits_two(tmp_path, capsys, monkeypatch):
    # braid_monodromy checks each half twist's strands, not each letter: a
    # sweep that puts a block at position 0 is a discrepancy, caught before
    # any output
    import discarr.cli as cli
    import discarr.monodromy as monodromy

    arr_path = str(tmp_path / "arr.json")
    run(["gen", "--n", "4", "--k", "2", "--seed", "5", "--output", arr_path], capsys)
    real = monodromy._sweep

    def from_zero(lines, points):
        for point, lo, hi in real(lines, points):
            yield point, 0, hi

    monkeypatch.setattr(monodromy, "_sweep", from_zero)
    code = cli.main(["monodromy", "--input", arr_path])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("discrepancy: half twist on strands 0..")


def test_presentation_expands_no_braid(tmp_path, capsys, monkeypatch):
    import discarr.cli as cli

    arr_path = str(tmp_path / "arr.json")
    run(["gen", "--n", "5", "--k", "2", "--seed", "3", "--output", arr_path], capsys)
    code, expected = run(["presentation", "--input", arr_path], capsys)
    assert code == 0

    def refuse(lines, points):
        raise AssertionError("presentation expanded the monodromy braids")

    monkeypatch.setattr(cli, "braid_monodromy", refuse)
    assert run(["presentation", "--input", arr_path], capsys) == (0, expected)


def test_monodromy_byte_deterministic(tmp_path, capsys):
    arr_path = str(tmp_path / "arr.json")
    run(["gen", "--n", "5", "--k", "2", "--seed", "8", "--output", arr_path], capsys)
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    run(["monodromy", "--input", arr_path, "--seed", "6", "--output", a], capsys)
    run(["monodromy", "--input", arr_path, "--seed", "6", "--output", b], capsys)
    assert open(a, "rb").read() == open(b, "rb").read()


def test_console_entry_point_subprocess(tmp_path):
    import subprocess
    import sys

    arr_path = str(tmp_path / "arr.json")
    first = subprocess.run(
        [sys.executable, "-m", "discarr.cli", "gen", "--n", "4", "--k", "2",
         "--seed", "5", "--output", arr_path],
        capture_output=True,
    )
    assert first.returncode == 0, first.stderr
    second = subprocess.run(
        [sys.executable, "-m", "discarr.cli", "census", "--input", arr_path],
        capture_output=True,
    )
    assert second.returncode == 0, second.stderr
    records = json.loads(second.stdout)
    assert [r["multiplicity"] for r in records] == [4]


@pytest.mark.parametrize(
    "argv",
    [["census"], ["census", "--input", "arr.json", "--seed", "0"], ["accept", "--jobs", "2"]],
    ids=["census-no-input", "census-seed", "accept-jobs"],
)
def test_usage_error_exits_one(argv, capsys):
    # code 2 means a mathematical discrepancy, so a bad command line is code 1;
    # parsing fails before any input file is opened
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 1
    assert captured.err.startswith("usage: discarr ")
    assert captured.out == ""


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: discarr")


@pytest.mark.parametrize(
    "doc",
    [
        {"n": 4.9, "k": 1, "normals": [[1], [2], [3], [5]]},
        {"n": 4, "k": True, "normals": [[1], [2], [3], [5]]},
        {"n": "4", "k": 1, "normals": [[1], [2], [3], [5]]},
        {"n": 4, "k": 1, "normals": [[True], [2], [3], [5]]},
        {"n": 4.9, "k": True, "normals": [[True], [2], [3], [5]]},
    ],
    ids=["float-n", "bool-k", "string-n", "bool-entry", "all-three"],
)
def test_non_integer_json_exits_one(doc, tmp_path, capsys):
    path = tmp_path / "arr.json"
    path.write_text(json.dumps(doc))
    assert main(["census", "--input", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: malformed arrangement document: ")


def test_exit_codes_of_the_console_command(tmp_path):
    import subprocess
    import sys

    path = tmp_path / "arr.json"
    path.write_text(json.dumps({"n": 4.9, "k": True, "normals": [[True], [2], [3], [5]]}))
    for argv in (["census", "--input", str(path)], ["census", "--seed", "0"]):
        proc = subprocess.run([sys.executable, "-m", "discarr.cli", *argv], capture_output=True)
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout == b""


def test_single_line_section_has_no_braids(tmp_path, capsys):
    # (3,2) has N = C(3,3) = 1 form: one line, no singular point
    arr_path = str(tmp_path / "arr.json")
    run(["gen", "--n", "3", "--k", "2", "--output", arr_path], capsys)
    code, out = run(["monodromy", "--input", arr_path], capsys)
    assert code == 0
    assert json.loads(out) == {"N": 1, "braids": []}
    code, out = run(["presentation", "--input", arr_path], capsys)
    assert code == 0
    assert out == "generators: d1\n"


def _never_distinct(monkeypatch):
    from discarr.rng import SplitMix64

    monkeypatch.setattr(SplitMix64, "randint", lambda self, lo, hi: 0)


def _never_concurrent(monkeypatch):
    import discarr.gale as gale

    monkeypatch.setattr(gale, "concurrent_partition_exists", lambda config: (False, None))


def _always_concurrent(monkeypatch):
    import discarr.gale as gale

    witness = ((1, 2), (3, 4), (5, 6))
    monkeypatch.setattr(gale, "concurrent_partition_exists", lambda config: (True, witness))


@pytest.mark.parametrize(
    "reject, argv, message",
    [
        (
            _never_distinct,
            ["planar-verify", "--n", "5", "--cap", "2", "--trials", "2", "--seed", "41"],
            "no 5 distinct slopes after 1000 draws (seed=41)",
        ),
        (
            _never_concurrent,
            ["gale-invariance", "--trials", "1", "--seed", "42"],
            "no concurrent sextuple after 100 draws (seed=42)",
        ),
        (
            _always_concurrent,
            ["gale-invariance", "--trials", "1", "--seed", "43"],
            "no generic sextuple after 100 draws (seed=43)",
        ),
    ],
)
def test_exhausted_rejection_budget_exits_one(capsys, monkeypatch, reject, argv, message):
    reject(monkeypatch)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {message}; try another seed\n"


@pytest.mark.parametrize(
    "budget, argv, remedy",
    [
        ("discarr.arrangement.RESAMPLE_BUDGET", ["gen", "--n", "5", "--k", "2"], "raise the bound"),
        ("discarr.discriminantal.CONSTRUCT_BUDGET", ["dependent-construct", "--s", "2"], None),
        ("discarr.monodromy.SECTION_BUDGET", ["section", "--input", "ARR"], None),
        ("discarr.planar.SLOPE_BUDGET", ["planar-verify", "--n", "5", "--cap", "2"], None),
        ("discarr.gale.SEXTUPLE_BUDGET", ["gale-invariance", "--trials", "1"], None),
    ],
    ids=["resample", "construct", "section", "slope", "sextuple"],
)
def test_spent_budget_names_its_remedy(budget, argv, remedy, tmp_path, capsys, monkeypatch):
    # a budget of 0 draws nothing, so only the message is under test
    arr_path = str(tmp_path / "arr.json")
    assert main(["gen", "--n", "5", "--k", "2", "--output", arr_path]) == 0
    monkeypatch.setattr(budget, 0)
    code = main([arr_path if x == "ARR" else x for x in argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and " after 0 " in captured.err
    assert captured.err.endswith(f"; {remedy or 'try another seed'}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["planar-verify", "--n", "5", "--cap", "2", "--trials", "0", "--seed", "1"],
            "need trials >= 1, got 0",
        ),
        (
            ["planar-verify", "--n", "5", "--cap", "0", "--trials", "2", "--seed", "1"],
            "need cap >= 1, got 0",
        ),
        (
            ["planar-verify", "--n", "5", "--cap", "-3", "--trials", "2", "--seed", "1"],
            "need cap >= 1, got -3",
        ),
        (
            ["planar-verify", "--n", "5", "--cap", "2", "--jobs", "0", "--seed", "1"],
            "need jobs >= 1, got 0",
        ),
        (
            ["planar-verify", "--n", "5", "--cap", "2", "--jobs", "-4", "--seed", "1"],
            "need jobs >= 1, got -4",
        ),
        (["gale-invariance", "--trials", "0", "--seed", "1"], "need trials >= 1, got 0"),
        (
            ["gen", "--n", "5", "--k", "2", "--seed", "1", "--bound", "0"],
            "need bound >= n, got bound=0, n=5",
        ),
    ],
    ids=[
        "planar-verify",
        "planar-verify-cap0",
        "planar-verify-cap-negative",
        "planar-verify-jobs0",
        "planar-verify-jobs-negative",
        "gale-invariance",
        "gen",
    ],
)
def test_empty_or_zero_size_arguments_exit_one(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


# The record formatters against json.dumps(sort_keys=True, indent=2).


def written(write, *args) -> str:
    buf = io.StringIO()
    write(buf, *args)
    return buf.getvalue()


def dumped(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


ORACLE = settings(deadline=None, derandomize=True, database=None, max_examples=200)
ROWS = st.lists(st.integers(1, 12), min_size=1, max_size=6, unique=True).map(
    lambda row: tuple(sorted(row))
)
KINDS = st.sampled_from([GOOD, DEPENDENT, SIMPLE, OTHER])
RECORDS = st.lists(st.tuples(st.lists(ROWS, min_size=2, max_size=5), KINDS), max_size=6).map(
    lambda recs: [StratumRecord(tuple(m), kind) for m, kind in recs]
)


@ORACLE
@given(RECORDS, st.integers(1, 6))
@example([], 2)
@example([StratumRecord(((1, 2, 3, 4), (1, 2, 5, 6), (3, 4, 5, 6)), DEPENDENT)], 3)
@example([StratumRecord(((1, 2, 3), (1, 2, 4), (1, 2, 5), (3, 4, 5)), OTHER)], 2)
def test_census_writer_matches_json_dumps(records, k):
    kinds_members = [(r.kind, r.members) for r in records]
    assert written(_write_census, kinds_members, k) == dumped(census_to_json(records, k))


PAIRS = st.lists(st.tuples(ROWS, ROWS), max_size=5)


@ORACLE
@given(PAIRS, st.lists(st.tuples(ROWS, st.tuples(ROWS, ROWS, ROWS)), max_size=4), PAIRS)
@example([], [], [])
@example([((1, 2), (1, 2, 3))], [], [((1, 2), (3, 4)), ((3, 4), (1, 2))])
@example([], [((1, 2), ((1, 2), (1, 3), (2, 3)))], [])
def test_relations_writer_matches_json_dumps(full_sets, dependents, commuting):
    import discarr.cli as cli

    pairs = lambda family: [{"J": list(j), "K": list(x)} for j, x in family]
    doc = {
        "full_sets": pairs(full_sets),
        "dependents": [{"J": list(j), "triple": [list(m) for m in t]} for j, t in dependents],
        "commuting": pairs(commuting),
        "counts": {
            "full_sets": len(full_sets),
            "dependents": len(dependents),
            "commuting": len(commuting),
        },
    }
    # the commuting family as a tuple, and as the one-pass iterator that
    # nilpotent_relations gives, counted as it is written, a write per pair
    for family, chunk in ((tuple(commuting), CHUNK), (iter(commuting), 1)):
        families = RelationFamilies(tuple(full_sets), tuple(dependents), family)
        with patch.object(cli, "CHUNK", chunk):
            assert written(_write_relations, families) == dumped(doc)


LETTERS = st.integers(-9, 9).filter(bool)
BRAIDS = st.lists(
    st.tuples(
        ROWS,
        st.fractions(max_denominator=50),
        st.lists(LETTERS, max_size=12).map(tuple),
    ),
    max_size=5,
)


@ORACLE
@given(st.integers(1, 60), BRAIDS)
@example(1, [])
@example(4, [((1, 2), Fraction(-3, 4), (1, -2, -3, 2, 1)), ((2, 3), Fraction(5), ())])
def test_monodromy_writer_matches_json_dumps(n, braids):
    doc = {
        "N": n,
        "braids": [
            {"block": list(b), "s": f"{s.numerator}/{s.denominator}", "word": list(w)}
            for b, s, w in braids
        ],
    }
    assert written(_write_monodromy, n, braids) == dumped(doc)


def test_census_records_match_the_dict_oracle(monkeypatch):
    import discarr.cli as cli

    dependent = []
    for arr in (
        construct_dependent(2, 0, seed=11),
        construct_dependent(2, 1, seed=0),
        random_generic(6, 3, seed=4, bound=10),
    ):
        records = full_census(arr)
        expected = dumped(census_to_json(records, arr.k))
        kinds_members = [(r.kind, r.members) for r in records]
        for chunk in (1, 500, CHUNK):  # a write after every record, every few, or once
            monkeypatch.setattr(cli, "CHUNK", chunk)
            assert written(_write_census, kinds_members, arr.k) == expected
        dependent += [(r["s"], r["t"]) for r in json.loads(expected) if r["kind"] == DEPENDENT]
    assert dependent == [(2, 0), (2, 1)]


def test_census_output_file_matches_stdout(tmp_path, capsys):
    arr_path = str(tmp_path / "arr.json")
    run(["gen", "--n", "8", "--k", "3", "--seed", "0", "--output", arr_path], capsys)
    code, out = run(["census", "--input", arr_path], capsys)
    assert code == 0
    assert len(out) > 2 * CHUNK  # several writes
    out_path = tmp_path / "census.json"
    code, printed = run(["census", "--input", arr_path, "--output", str(out_path)], capsys)
    assert code == 0 and printed == ""
    assert out_path.read_bytes() == out.encode()


class CountingHandle:
    """A stdout that keeps only the size of each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(len(text))

    def flush(self):
        pass


@pytest.mark.parametrize("command", ["census", "relations", "monodromy"])
def test_large_outputs_reach_stdout_in_several_writes(command, tmp_path, capsys, monkeypatch):
    # the document is written as it is formatted, never held whole
    import sys

    arr_path = str(tmp_path / "arr.json")
    run(["gen", "--n", "8", "--k", "3", "--seed", "0", "--output", arr_path], capsys)
    handle = CountingHandle()
    monkeypatch.setattr(sys, "stdout", handle)
    assert main([command, "--input", arr_path]) == 0
    assert len(handle.writes) > 1


@pytest.mark.parametrize("command", ["gen", "census"])
def test_unwritable_output_exits_one(command, tmp_path, capsys):
    arr_path = str(tmp_path / "arr.json")
    run(["gen", "--n", "4", "--k", "2", "--seed", "5", "--output", arr_path], capsys)
    argv = {"gen": ["gen", "--n", "4", "--k", "2"], "census": ["census", "--input", arr_path]}
    for output, reason in (
        (tmp_path / "missing" / "x.json", "No such file or directory"),
        (tmp_path, "Is a directory"),
    ):
        code = main([*argv[command], "--output", str(output)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"error: {output}: {reason}\n"
        assert captured.out == ""


def test_closed_stdout_pipe_exits_one(tmp_path):
    # stdout is block-buffered here, as in a user's pipeline, so whatever is
    # left in the buffer is flushed once more at exit
    import os
    import subprocess
    import sys

    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    cli = [sys.executable, "-m", "discarr.cli"]
    arr_path = str(tmp_path / "arr.json")
    made = subprocess.run([*cli, "gen", "--n", "8", "--k", "3", "--output", arr_path])
    assert made.returncode == 0

    def assert_quiet_exit_one(code, err):
        assert code == 1
        assert "Traceback" not in err and "Exception ignored" not in err

    # the (8,3) census is several hundred kB, far more than a pipe holds, so
    # the writer is still writing when the reader goes away
    proc = subprocess.Popen(
        [*cli, "census", "--input", arr_path],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"[\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert_quiet_exit_one(proc.wait(timeout=120), err)

    # a small document stays buffered until the final flush meets the closed pipe
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [*cli, "gen", "--n", "4", "--k", "2"], stdout=write_end,
            stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert_quiet_exit_one(proc.returncode, proc.stderr.decode())
