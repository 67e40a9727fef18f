import csv
import json
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tropifs import spaces
from tropifs.errors import ConfigError, DimensionError
from tropifs.examples import build_nonunique_shift_system, build_two_point_system, random_system
from tropifs.fuzzy import FuzzySet, theta_conjugate
from tropifs.mane import mane_potential
from tropifs.maxplus import BOTTOM
from tropifs.measures import Density
from tropifs.mpifs import validate
from tropifs.serialize import (
    aubry_to_jsonable,
    density_to_csv,
    density_to_jsonable,
    fuzzy_to_csv,
    matrix_to_csv,
    space_from_jsonable,
    system_from_jsonable,
    trace_to_csv,
    value_from_jsonable,
    values_from_jsonable,
    write_json,
)
from tropifs.maxplus import MpMatrix
from tropifs.spaces import CHUNK_VALUES, build_grid, build_shift_space

from oracles import (
    QUANT,
    build_point_space,
    dense_closure,
    distance_table,
    labelled_csv,
    normalize,
    space_to_jsonable,
    system_to_jsonable,
    values_to_jsonable,
)


def test_value_tokens():
    assert value_from_jsonable("-inf") == BOTTOM
    assert value_from_jsonable(-1.5) == -1.5
    with pytest.raises(ConfigError):
        value_from_jsonable("nan")


def _read_each(items):
    """Today's reading of a JSON value list, one ``value_from_jsonable`` per item."""
    try:
        return np.array([value_from_jsonable(x) for x in items], dtype=np.float64)
    except ConfigError as exc:
        return str(exc)


json_numbers = st.one_of(
    st.floats(), st.integers(), st.integers(-(10**400), 10**400),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 0, 10**400, "-inf"]),
)
json_values = st.one_of(
    json_numbers, st.sampled_from(["inf", "x", True, False, None]),
    st.lists(st.floats(), max_size=1),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(json_numbers, max_size=8), st.lists(json_values, max_size=8)))
@example([0, -1, "-inf", -0.5, -(2**60) - 1, -0.0])
def test_values_read_in_one_pass_as_one_by_one(items):
    try:
        got = values_from_jsonable(items)
    except ConfigError as exc:
        got = str(exc)
    expected = _read_each(items)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert got.dtype == np.float64 and got.tobytes() == expected.tobytes()


def test_space_round_trip_grid():
    g = build_grid(0.0, 1.0, 5)
    back = space_from_jsonable(json.loads(json.dumps(space_to_jsonable(g))))
    assert np.array_equal(back.dist, distance_table(g))
    assert back.resolution == g.resolution
    # the labels spell the coordinates; the points payload is not serialized
    assert back.labels == g.labels and not hasattr(back, "points")


def test_space_round_trip_shift():
    s = build_shift_space(2, 3)
    back = space_from_jsonable(json.loads(json.dumps(space_to_jsonable(s))))
    # the labels spell the words; the points payload is not serialized
    assert back.labels == s.labels and not hasattr(back, "points")
    assert np.array_equal(back.dist, distance_table(s))


def test_inline_space_points_payload_is_not_read():
    # only builder spaces carry points; an inline payload was read with
    # int(), so the words ["1", 1.9] became (1, 1)
    doc = {"labels": ["a"], "dist": [[0.0]]}
    assert not hasattr(space_from_jsonable({**doc, "words": [["1", 1.9]]}), "points")
    assert not hasattr(space_from_jsonable({**doc, "coordinates": ["0.3"]}), "points")


def test_space_builder_forms():
    assert space_from_jsonable({"grid": {"a": 0, "b": 1, "n": 4}}).n == 4
    assert space_from_jsonable({"shift": {"symbols": 2, "depth": 2}}).n == 4


def test_system_round_trip():
    system = random_system(build_grid(0.0, 1.0, 8), 2, 4)
    doc = json.loads(json.dumps(system_to_jsonable(system)))
    back = system_from_jsonable(doc)
    validate(back)
    assert np.array_equal(back.maps, system.maps)
    assert np.array_equal(back.weights, system.weights)
    assert back.validation.gamma_hat == system.validation.gamma_hat


def test_density_csv(tmp_path):
    space = build_grid(0.0, 1.0, 3)
    lam = Density(space, [0.0, BOTTOM, -0.3])
    path = tmp_path / "d.csv"
    density_to_csv(path, lam)
    rows = list(csv.reader(path.read_text().splitlines()))
    assert rows[0] == ["label", "value"]
    assert rows[2][1] == "-inf"
    # shortest round-trip decimal reloads bit-exactly
    assert float(rows[3][1]) == -0.3


def test_fuzzy_csv(tmp_path):
    system = build_two_point_system()
    u = theta_conjugate(Density(system.space, [0.0, -1.0]))
    path = tmp_path / "u.csv"
    fuzzy_to_csv(path, u)
    rows = list(csv.reader(path.read_text().splitlines()))
    assert float(rows[2][1]) == np.exp(-1.0)


def test_potential_jsonable():
    system = build_nonunique_shift_system(2)
    pot, s = mane_potential(system), dense_closure(system).entries
    s_rows = [values_to_jsonable(row) for row in s]
    doc = json.loads(json.dumps({"s": s_rows, "aubry": aubry_to_jsonable(pot)}))
    flat = [v for row in doc["s"] for v in row]
    assert all(v == "-inf" or isinstance(v, float) or isinstance(v, int) for v in flat)
    assert doc["aubry"]["labels"] == ["11", "22"]
    back = np.vstack([values_from_jsonable(row) for row in doc["s"]])
    assert np.array_equal(back, s)


def test_density_jsonable_round_trip_exact(tmp_path):
    space = build_grid(0.0, 1.0, 4)
    lam = normalize(Density(space, [[-0.1, -2.75, BOTTOM, -1e-9]]))  # a one-row block
    write_json(tmp_path / "density.json", density_to_jsonable(lam))
    (doc,) = json.loads((tmp_path / "density.json").read_text())
    assert np.array_equal(values_from_jsonable(doc["values"]), lam.values[0])


def test_write_json_matches_dumps(tmp_path):
    obj = {
        "z": [0.1, -0.0, 1e-300, "-inf", {"b": [], "a": {}}],
        "a": {"labels": ["11", "x\u00e9"], "values": [0.0, -2.75]},
        "m": [[1, 2], [True, None]],
    }
    path = tmp_path / "o.json"
    write_json(path, obj)
    assert path.read_bytes() == (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


def test_matrix_csv_cells(tmp_path):
    path = tmp_path / "s.csv"
    matrix_to_csv(path, MpMatrix(np.array([[0.0, BOTTOM], [-0.0, -0.3]])), labels=["a", "b"])
    assert path.read_text().splitlines() == [",a,b", "a,0.0,-inf", "b,-0.0,-0.3"]


def dumps(obj) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


SPECIAL_FLOATS = [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 1e-300, 0.1]
json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(),
    st.sampled_from(SPECIAL_FLOATS + [1, 1.0, True, 0, False, "-inf", ""]),
    st.builds(np.float64, st.floats()),
)
json_documents = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner), st.lists(inner).map(tuple), st.dictionaries(st.text(), inner)
    ),
    max_leaves=15,
)


@settings(max_examples=40, deadline=None)
@given(json_documents)
@example([1, 1.0, True, 0, False, None])
@example([0.0, -0.0, 0.0, "-inf", -0.0, 2.5, "", float("nan"), float("inf"), -float("inf")])
@example([np.float64(0.1), np.float64(-0.0), 0.1, -0.0, np.float64("nan")])
@example({"x\u00e9\n\x01\u1234": ["\x7f", "\"", "\\"], "": [], "e": {}})
def test_write_json_is_json_dumps(tmp_path_factory, obj):
    path = tmp_path_factory.getbasetemp() / "o.json"
    write_json(path, obj)
    assert path.read_bytes() == dumps(obj)


@settings(max_examples=30, deadline=None)
@given(st.dictionaries(
    st.one_of(st.integers(), st.floats(), st.booleans()),
    st.lists(st.sampled_from(SPECIAL_FLOATS)),
))
def test_write_json_non_str_keys_are_json_dumps(tmp_path_factory, obj):
    path = tmp_path_factory.getbasetemp() / "o.json"
    write_json(path, obj)
    assert path.read_bytes() == dumps(obj)


@settings(max_examples=30, deadline=None)
@given(
    st.one_of(st.lists(json_scalars, max_size=4), st.lists(json_scalars, max_size=4).map(tuple),
              st.lists(json_documents, max_size=3)),
    st.lists(st.integers(0, 4), max_size=6),
)
def test_write_json_shared_container_at_several_depths(tmp_path_factory, shared, depths):
    # one list object recurs at several indents and several times at one
    obj = [shared, {"a": shared, "b": [shared]}]
    for depth in depths:
        node = shared
        for level in range(depth):
            node = {"k": node, "v": shared} if level % 2 else [node, shared]
        obj.append(node)
    obj.append(shared)
    path = tmp_path_factory.getbasetemp() / "o.json"
    write_json(path, obj)
    assert path.read_bytes() == dumps(obj)


def test_write_json_deep_nesting_and_repeats(tmp_path):
    deep = [0.5]
    for depth in range(60):
        deep = {"k": deep, "v": [-0.0, 0.0, 0.5, "-inf"]} if depth % 2 else [deep, 0.5, -0.0]
    # a value first seen deep recurs at the top
    obj = [deep, [0.5] * 5, {"-0.0": -0.0, "0.0": 0.0}]
    path = tmp_path / "o.json"
    write_json(path, obj)
    assert path.read_bytes() == dumps(obj)


def test_write_json_writes_a_look_alike_block_with_json_dumps(tmp_path):
    # a plain list of {"labels", "values"} documents that density_to_jsonable
    # did not make carries no texts: only json.dumps may write it
    docs = [{"labels": ["a", "b"], "values": [0.0, "-inf"]},
            {"labels": ["a", "b"], "values": [1, [-0.0, None]]}]
    path = tmp_path / "density.json"
    write_json(path, docs)
    assert path.read_bytes() == dumps(docs)


def test_write_json_rejects_what_json_rejects(tmp_path):
    for obj in ([object()], {"a": np.int64(1)}, {1: 1, "a": 2}, {(1,): 2}):
        with pytest.raises(TypeError):
            json.dumps(obj, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            write_json(tmp_path / "o.json", obj)


# Dyadic values (many distinct ones), both zeros and BOTTOM.
csv_values = st.one_of(
    st.integers(-2**28, 0).map(lambda k: k * QUANT), st.sampled_from([0.0, -0.0, BOTTOM])
)
# csv.writer cannot write a NUL below Python 3.11 ("need to escape"), so there the oracle
# draws no NUL; test_a_nul_label_is_written_raw pins that spelling on every version
csv_labels = st.one_of(
    st.text() if sys.version_info >= (3, 11) else st.text().filter(lambda t: "\0" not in t),
    st.sampled_from(["a,b", 'say "hi"', "x\ny", "\r", "", " ", "caf\u00e9", "1.5"]),
)


# Values a density block may hold: both zeros, BOTTOM, subnormals, repeats.
block_values = st.one_of(
    st.integers(-2**28, 0).map(lambda k: k * QUANT),
    st.sampled_from([0.0, -0.0, BOTTOM, 5e-324, -5e-324, -1e-310, -0.1, -1e300]),
)


@settings(max_examples=80, deadline=None)
@given(st.lists(csv_labels, min_size=1, max_size=6), st.integers(0, 5), st.data(),
       st.sampled_from([1, 5, CHUNK_VALUES]))
@example(["a"], 1, None, CHUNK_VALUES)
@example(["a"], 0, None, CHUNK_VALUES)
def test_density_block_json_is_json_dumps(tmp_path_factory, labels, k, data, chunk):
    n = len(labels)
    if data is None:  # n = 1, k rows
        values = np.zeros((k, 1))
    else:
        values = np.array(data.draw(st.lists(block_values, min_size=k * n, max_size=k * n)))
        values = values.reshape(k, n)
    values[(values == BOTTOM).all(axis=1), 0] = -0.0  # a nonempty support
    space = build_point_space(labels, 1.0 - np.eye(n))
    path = tmp_path_factory.mktemp("json") / "density.json"
    with mock.patch.object(spaces, "CHUNK_VALUES", chunk):  # rows spelled in chunks
        obj = density_to_jsonable(Density(space, values))
        write_json(path, obj)
    rows = [{"labels": labels, "values": values_to_jsonable(row)} for row in values]
    assert path.read_bytes() == dumps(rows)  # k = 0 rows write []
    with pytest.raises(DimensionError):
        density_to_csv(path, Density(space, values))


def test_density_block_json_is_written_row_by_row(tmp_path):
    # 729 densities on 343 points drawn from few values, the size of the
    # benchmark's enumerate run: written row by row they peak at 6.3 MiB,
    # and joined into one document before writing at 32 MiB
    space = build_shift_space(7, 3)
    rng = np.random.default_rng(0)
    pool = np.append(-rng.integers(0, 2**20, 300) * 2.0**-16, [0.0, BOTTOM])
    values = rng.choice(pool, size=(729, space.n))
    values[:, 0] = 0.0
    lam = Density(space, values)
    tracemalloc.start()
    try:
        write_json(tmp_path / "density.json", density_to_jsonable(lam))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def _text(path) -> str:
    with open(path, newline="") as fh:
        return fh.read()


@settings(max_examples=60, deadline=None)
@given(st.lists(csv_labels, min_size=1, max_size=8), st.data())
def test_matrix_csv_is_csv_writer(tmp_path_factory, labels, data):
    n = len(labels)
    entries = np.array(data.draw(st.lists(csv_values, min_size=n * n, max_size=n * n)))
    path = tmp_path_factory.mktemp("csv") / "s.csv"
    matrix_to_csv(path, MpMatrix(entries.reshape(n, n)), labels)
    expected = labelled_csv(["", *labels], labels, entries.reshape(n, n))
    assert _text(path) == expected


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(csv_labels, csv_values), min_size=1, max_size=12))
def test_density_and_fuzzy_csv_are_csv_writer(tmp_path_factory, points):
    labels = [label for label, _ in points]
    values = np.array([x for _, x in points])
    values[0] = 0.0  # a nonempty support
    space = build_point_space(labels, 1.0 - np.eye(len(labels)))
    tmp = tmp_path_factory.mktemp("csv")
    density_to_csv(tmp / "d.csv", Density(space, values))
    expected = labelled_csv(["label", "value"], labels, values[:, None])
    assert _text(tmp / "d.csv") == expected
    memberships = np.exp(values)
    fuzzy_to_csv(tmp / "u.csv", FuzzySet(space, memberships))
    expected = labelled_csv(["label", "membership"], labels, memberships[:, None])
    assert _text(tmp / "u.csv") == expected


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(), max_size=12))
def test_trace_csv_is_csv_writer(tmp_path_factory, trace):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    trace_to_csv(path, trace)
    expected = labelled_csv(["iteration", "d_infty"], range(1, len(trace) + 1), [[x] for x in trace])
    assert _text(path) == expected


def test_a_nul_label_is_written_raw(tmp_path):
    # unquoted, or inside the quotes another character asks for; csv.writer writes
    # the same from Python 3.11 and raises below it
    space = build_point_space(["p\0", 'q\0,"'], 1.0 - np.eye(2))
    density_to_csv(tmp_path / "d.csv", Density(space, np.array([0.0, BOTTOM])))
    assert _text(tmp_path / "d.csv") == 'label,value\r\np\0,0.0\r\n"q\0,""",-inf\r\n'
