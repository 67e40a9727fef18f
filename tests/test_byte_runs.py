import tempfile
from pathlib import Path

from tropifs.examples import build_two_point_system

from byte_runs import RUNS, TWO_POINT_DOC, case, check, compare
from oracles import system_to_jsonable
from test_cli import golden_runs

REPO = Path(__file__).resolve().parents[1]


def test_a_slice_of_the_manifest_is_equal_against_the_same_checkout():
    # no benchmark run: both sides would share the one tree's work directory
    names = ["two-point-validate", "demo31-6-none", "fuzzy-explicit-5",
             "invariant-grid-64-1-false-constant"]  # the last exits 2 and writes nothing
    runs = [run for run in RUNS if run.name in names]
    assert len(runs) == len(names)
    assert check(runs, REPO, REPO) == (5, [])


def test_a_mismatching_run_prints_its_stderr_and_keeps_its_files(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    run = case("unknown-builder", "validate", {"system": {"builder": "nope"}}, 0)
    assert check([run], REPO, REPO) == (0, [
        "unknown-builder: exit 3 at head, not 0", "unknown-builder/validation.json: not written at head"])
    out = capsys.readouterr().out
    assert out.count("tropifs: config error:") == 2 and "stderr at head" in out
    [kept] = tmp_path.iterdir()
    assert (kept / "unknown-builder.json").exists()


def test_compare_reports_a_changed_byte_and_a_changed_exit_code(tmp_path):
    run = case("run", "mane", {})
    base, head = tmp_path / "base", tmp_path / "head"
    for side, row in ((base, b"0,-0.5\n"), (head, b"0,-0.7\n")):
        side.mkdir()
        (side / "S.csv").write_bytes(row)
        (side / "aubry.json").write_bytes(b"{}\n")
    quiet = ("", "")
    assert compare(run, (0, 0), quiet, base, head) == (2, ["run/S.csv: differs"])
    assert compare(run, (0, 2), quiet, base, base) == (2, ["run: exit 0 at base, 2 at head"])
    warned = ("", "<stdin>:1: RuntimeWarning: overflow encountered in add\n")
    assert compare(run, (0, 0), warned, base, base) == (2, ["run: stderr differs"])
    # a required exit code and a file written on one side only
    assert compare(run._replace(exit=0), (0, 0), quiet, base, tmp_path) == (
        2, ["run/S.csv: not written at head", "run/S.csv: differs",
            "run/aubry.json: not written at head", "run/aubry.json: differs"])


def test_the_manifest_keeps_every_run_and_file():
    assert len({run.name for run in RUNS}) == len(RUNS) == 163
    assert sum(len(run.files) for run in RUNS) == 281
    golden = golden_runs()
    assert (len(golden), sum(len(run.files) for run in golden)) == (31, 55)
    assert sum(run.command == "bench" for run in RUNS) == 6


def test_the_two_point_literal_is_the_built_system():
    # the manifest imports nothing from tropifs, so it spells the system out
    assert TWO_POINT_DOC == system_to_jsonable(build_two_point_system())
