"""Tests of the benchmark itself: python3 -m pytest bench

The traced-session tests run each workload once at full size (about half a
minute in all).
"""

import json
import shutil
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))

import outputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic(name):
    def generated(seed):
        return [workloads.config_bytes(inv) for inv in workloads.session(name, seed)]

    assert generated(3) == generated(3)
    assert generated(3) != generated(4)


def test_shift_words_match_the_library_order():
    sys.path.insert(0, str(REPO / "src"))
    from tropifs.spaces import build_shift_space

    assert workloads.shift_words(3, 4) == list(build_shift_space(3, 4).points)


def test_self_time_excludes_children():
    dump = {
        "spans": [
            [tracer.ROOT, -1, 0.0, 10.0, 0, False],
            ["mane.mane_potential", 0, 1.0, 5.0, 0, False],
            ["maxplus.kleene_plus", 1, 2.0, 3.0, 0, False],
            ["mpifs.validate", 0, 6.0, 7.0, 0, True],
        ],
        "counts": {},
    }
    s = tracer.summarize(dump)
    assert s["mane.mane_potential.self_s"] == 3.0
    assert s["maxplus.kleene_plus.self_s"] == 1.0
    assert s["mpifs.validate.failed"] == 1
    assert (s["root_s"], s["covered_s"]) == (10.0, 5.0)


def test_combine_adds_totals_and_keeps_largest_sizes():
    total = {}
    tracer.combine(total, {"mane.n": 343, "mane.mane_potential.calls": 1, "fuzzy.d_infty.peak_mib": 2.0})
    tracer.combine(total, {"mane.n": 343, "mane.mane_potential.calls": 1, "fuzzy.d_infty.peak_mib": 1.0})
    assert total == {"mane.n": 343, "mane.mane_potential.calls": 2, "fuzzy.d_infty.peak_mib": 2.0}


@pytest.fixture(scope="module")
def traced_sessions(tmp_path_factory):
    """One span-traced session of every workload at full size.

    Maps each workload to its invocations, the directory holding their
    outputs and the summary of each invocation's trace.
    """
    root = tmp_path_factory.mktemp("traced")
    found = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(REPO)
        for name in workloads.WORKLOADS:
            invocations = workloads.session(name, 11)
            configs = workloads.write_configs(invocations, root / name)
            runner = run.Runner(limit_at=time.monotonic() + 170)
            session = runner.session(invocations, configs, "trace", root / name / "out")
            assert session["ok"], runner.errors
            summaries = [tracer.summarize(dump) for dump in session["traces"]]
            found[name] = (invocations, root / name / "out", summaries)
    return found


def copied_outputs(traced_sessions, name, dest):
    """A copy of one workload's outputs: (invocations, invocation name -> directory)."""
    invocations, out, _ = traced_sessions[name]
    shutil.copytree(out, dest)
    return invocations, {inv.name: dest / inv.name for inv in invocations}


def test_corrupted_density_is_counted_as_failed(traced_sessions, tmp_path):
    invocations, out_dirs = copied_outputs(traced_sessions, "closure", tmp_path / "out")
    runner = run.Runner(limit_at=time.monotonic() + 60)
    assert runner.check(invocations, out_dirs, [0] * 4)
    assert (runner.attempted, runner.failed) == (4, 0)

    path = out_dirs["enumerate"] / "density.json"
    densities = json.loads(path.read_text())
    values = densities[-1]["values"]
    i = next(k for k, v in enumerate(values) if v != 0.0 and v != "-inf")
    values[i] -= 2.0**-20
    path.write_text(json.dumps(densities))
    assert not runner.check(invocations, out_dirs, [0] * 4)
    assert (runner.attempted, runner.failed) == (8, 1)
    assert "not a fixed point" in runner.errors[0]


def test_nonzero_exit_is_counted_as_failed(traced_sessions, tmp_path):
    invocations, out_dirs = copied_outputs(traced_sessions, "closure", tmp_path / "out")
    runner = run.Runner(limit_at=time.monotonic() + 60)
    assert not runner.check(invocations, out_dirs, [0, 0, 0, 1])
    assert (runner.attempted, runner.failed, runner.errors) == (4, 1, ["enumerate: exit code 1"])


def test_perturbed_attractor_is_counted_as_failed(traced_sessions, tmp_path):
    invocations, out_dirs = copied_outputs(traced_sessions, "shift-fuzzy", tmp_path / "out")
    (inv,) = invocations
    out = out_dirs[inv.name]
    assert outputs.check_attractor(inv, out) == []

    rows = (out / "attractor.csv").read_text().splitlines()
    label, value = rows[2].split(",")
    rows[2] = f"{label},{float(value) * 0.5!r}"
    (out / "attractor.csv").write_text("\n".join(rows) + "\n")
    runner = run.Runner(limit_at=time.monotonic() + 60)
    assert not runner.check(invocations, out_dirs, [0])
    assert runner.errors == ["fuzzy: attractor is not fixed under one FHB step"]


def test_every_wrapped_function_is_called(traced_sessions):
    calls = {n: 0 for n in tracer.span_names()}
    for _, _, summaries in traced_sessions.values():
        for s in summaries:
            for n in calls:
                calls[n] += s[f"{n}.calls"]
    assert [n for n, c in calls.items() if c == 0] == []


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_self_times_cover_compute(traced_sessions, name):
    _, _, summaries = traced_sessions[name]
    covered = sum(s["covered_s"] for s in summaries)
    total = sum(s["root_s"] for s in summaries)
    assert covered >= 0.9 * total
