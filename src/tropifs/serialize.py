"""JSON and CSV encodings of the library objects.

BOTTOM is spelled "-inf" in both formats (on the CSV side that is just
``repr(-inf)``); finite numbers round-trip bit-exactly (shortest
round-trip decimal on the CSV side, native JSON numbers otherwise).

The bytes on disk are fixed: a JSON file is
``json.dumps(obj, indent=2, sort_keys=True)`` plus a newline, and a CSV
file is what ``csv.writer`` writes in the excel dialect (``\r\n`` line
ends, fields quoted only where needed) with ``repr`` of each float as its
cell.  CSV files and JSON densities spell each distinct float once
per file or chunk, so many values drawn from few cost little more than their size.
"""

from __future__ import annotations

import csv
import io
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import ConfigError, DimensionError
from .maxplus import BOTTOM, MpMatrix
from .measures import CHUNK_VALUES, Density
from .mpifs import MpIfs
from .mane import PotentialMatrix
from .fuzzy import FuzzySet
from .spaces import FiniteSpace, IndexSpace, build_grid, build_shift_space

BOTTOM_TOKEN = "-inf"

_KINDS = {float: "a number", int: "an integer", bool: "true or false"}


def scalar(value, kind, name: str, minimum=None):
    """``value`` as a ``kind`` (float, int or bool) read from JSON, else ConfigError.

    Booleans are never numbers; an integer is accepted where a float is
    asked for; ``minimum`` bounds numbers from below.
    """
    if kind is bool:
        ok = isinstance(value, bool)
    else:
        ok = isinstance(value, (int, float) if kind is float else int)
        ok = ok and not isinstance(value, bool)
    if not ok:
        raise ConfigError(f"{name} must be {_KINDS[kind]}, got {value!r}")
    if minimum is not None and not value >= minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value!r}")
    try:
        return kind(value)
    except OverflowError as exc:
        raise ConfigError(f"{name} is out of range") from exc


def table(rows, kind, name: str) -> np.ndarray:
    """A JSON list of lists of ``kind`` (int, or float accepting ints) as an array.

    Entries of any other JSON type, booleans included, are a ConfigError
    naming ``name``; ``np.asarray`` alone would truncate 1.7 to 1 or read
    "1" as a number.
    """
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ConfigError(f"{name} must be a list of lists")
    bad = {type(x) for row in rows for x in row} - ({int} if kind is int else {int, float})
    if bad:
        got = ", ".join(sorted(t.__name__ for t in bad))
        raise ConfigError(f"{name} entries must each be {_KINDS[kind]}, got {got}")
    return np.asarray(rows, dtype=np.intp if kind is int else np.float64)


def string_list(value, name: str) -> list:
    """A JSON list of strings, else ConfigError naming ``name``.

    Labels head the rows of ``S.csv`` and fill ``density.json``; any other
    JSON value would be written there as an empty field or a Python repr.
    """
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise ConfigError(f"{name} must be a list of strings, got {value!r}")
    return list(value)


def floats(items, read) -> np.ndarray:
    """The JSON list ``items`` as a float64 array.

    One scan of the item types and one ``np.array`` when every item is an
    int or a float; otherwise ``read`` (a float from one JSON value, or a
    ConfigError) takes the items one by one, so the first bad one raises
    its own error.  An int too large for a float is left to ``read`` too.
    """
    if set(map(type, items)) <= {int, float}:
        try:
            return np.array(items, dtype=np.float64)
        except OverflowError:
            pass
    return np.array([read(x) for x in items], dtype=np.float64)


def value_from_jsonable(x) -> float:
    if x == BOTTOM_TOKEN:
        return BOTTOM
    v = scalar(x, float, "a max-plus value")
    if np.isnan(v) or v == np.inf:
        raise ConfigError(f"not a max-plus value: {x!r}")
    return v


def values_to_jsonable(arr) -> list:
    """The entries of ``arr``, flattened, as floats with BOTTOM spelled "-inf"."""
    return list(map(_jsonable_value, np.asarray(arr, dtype=np.float64).ravel().tolist()))


def values_from_jsonable(items) -> np.ndarray:
    """Max-plus values, each read as :func:`value_from_jsonable` reads it, in one pass."""
    if str in set(map(type, items)):
        items = [BOTTOM if x == BOTTOM_TOKEN else x for x in items]
    values = floats(items, value_from_jsonable)
    if not (values < np.inf).all():  # NaN or +inf, which only the one pass lets in
        for x in items:
            value_from_jsonable(x)
    return values


def density_to_jsonable(lam: Density):
    """``{"labels", "values"}`` of a density, or a list of them, one per row,
    for a block.  Each chunk of rows is spelled from one table of its
    distinct values; a row holds its :func:`values_to_jsonable` values and
    their JSON texts, which :func:`write_json` writes as they are."""
    block = np.atleast_2d(lam.values)
    step = max(1, CHUNK_VALUES // lam.space.n)
    docs = []
    for first in range(0, len(block), step):
        items, texts = _spelled(block[first:first + step], _jsonable_value, _value_text)
        for row in map(_Items, items.tolist(), texts.tolist()):
            docs.append({"labels": lam.space.labels, "values": row})
    return docs if lam.values.ndim == 2 else docs[0]


def space_to_jsonable(space: FiniteSpace) -> dict:
    return {
        "labels": list(space.labels),
        "dist": [[float(x) for x in row] for row in space.dist],
        "resolution": float(space.resolution),
    }


def space_from_jsonable(obj) -> FiniteSpace:
    if "grid" in obj:
        g = obj["grid"]
        return build_grid(
            scalar(g["a"], float, "grid a"), scalar(g["b"], float, "grid b"),
            scalar(g["n"], int, "grid n"),
        )
    if "shift" in obj:
        s = obj["shift"]
        return build_shift_space(
            scalar(s["symbols"], int, "shift symbols"), scalar(s["depth"], int, "shift depth")
        )
    return FiniteSpace(
        labels=string_list(obj["labels"], "space labels"),
        dist=table(obj["dist"], float, "space dist"),
        resolution=scalar(obj.get("resolution", 0.0), float, "resolution"),
    )


def system_to_jsonable(system: MpIfs) -> dict:
    return {
        "space": space_to_jsonable(system.space),
        "index_space": {
            "labels": list(system.index_space.labels),
            "dist": [[float(x) for x in row] for row in system.index_space.dist],
        },
        "maps": [[int(t) for t in row] for row in system.maps],
        "weights": [values_to_jsonable(row) for row in system.weights],
        "exact_maps": bool(system.exact_maps),
    }


def system_from_jsonable(obj) -> MpIfs:
    space = space_from_jsonable(obj["space"])
    isp = obj["index_space"]
    index_space = IndexSpace(
        labels=string_list(isp["labels"], "index_space labels"),
        dist=table(isp["dist"], float, "index_space dist"),
    )
    weights = np.vstack([values_from_jsonable(row) for row in obj["weights"]])
    return MpIfs(
        space=space,
        index_space=index_space,
        maps=table(obj["maps"], int, "maps"),
        weights=weights,
        exact_maps=scalar(obj.get("exact_maps", False), bool, "exact_maps"),
    )


def _float_text(x: float) -> str:
    """A float as json writes it: ``float.__repr__``, or NaN and ±Infinity."""
    if x != x:
        return "NaN"
    if x == np.inf:
        return "Infinity"
    if x == -np.inf:
        return "-Infinity"
    return float.__repr__(x)


def _jsonable_value(x: float):
    """A max-plus value as JSON data: BOTTOM is the string "-inf"."""
    return BOTTOM_TOKEN if x == BOTTOM else x


def _value_text(x: float) -> str:
    """The JSON text of a max-plus value."""
    return '"-inf"' if x == BOTTOM else _float_text(x)


class _Items(list):
    """A list whose items' JSON ``texts`` are known."""

    def __init__(self, items, texts):
        super().__init__(items)
        self.texts = texts


def _key_text(key) -> str:
    """A dict key as json writes it: non-str keys are quoted spellings."""
    if isinstance(key, str):
        pass
    elif isinstance(key, float):
        key = _float_text(key)
    elif key is True:
        key = "true"
    elif key is False:
        key = "false"
    elif key is None:
        key = "null"
    elif isinstance(key, int):
        key = int.__repr__(key)
    else:
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return encode_basestring_ascii(key)


class _JsonEncoder:
    """``json.dumps(indent=2, sort_keys=True)``, with the rows of a density
    (:class:`_Items`) written from their ready texts.

    Values are dispatched with ``isinstance`` in the order json uses.
    ``lists`` keeps the text of a list or tuple that recurs at one indent,
    such as the labels every density of a space shares: it is keyed by
    ``(id(o), nl)`` and holds ``o``, so no other object can take that id
    while the document is written.  The text is kept from the second time
    it is met, so lists met once cost no memory.
    """

    def __init__(self):
        self.lists = {}

    def value(self, o, nl: str) -> str:
        """The text of ``o`` nested at the indent that ``nl`` (newline + pad) opens."""
        if isinstance(o, str):
            return encode_basestring_ascii(o)
        if o is None:
            return "null"
        if o is True:
            return "true"
        if o is False:
            return "false"
        if isinstance(o, int):
            return int.__repr__(o)
        if isinstance(o, float):
            return _float_text(o)
        if isinstance(o, (list, tuple)):
            return self.sequence(o, nl)
        if isinstance(o, dict):
            return self.container(o, nl, "{}")
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")

    def sequence(self, o, nl: str) -> str:
        """Text of a list or tuple, formatted at most twice per indent."""
        key = (id(o), nl)
        held = self.lists.get(key)
        if held is not None and held[1] is not None:
            return held[1]
        text = self.container(o, nl, "[]")
        self.lists[key] = (o, None if held is None else text)
        return text

    def container(self, o, nl: str, brackets: str) -> str:
        if not o:
            return brackets
        inner = nl + "  "
        return brackets[0] + inner + ("," + inner).join(self.members(o, inner)) + nl + brackets[1]

    def members(self, o, inner: str):
        """Texts of the items of a list, or ``"key": value`` of a dict, in order."""
        if isinstance(o, dict):
            return (f"{_key_text(k)}: {self.value(v, inner)}" for k, v in sorted(o.items()))
        if type(o) is _Items:
            return o.texts
        return (self.value(x, inner) for x in o)


def write_json(path, obj) -> None:
    """Write ``obj`` as indented, key-sorted JSON plus a final newline.

    The bytes equal ``json.dumps(obj, indent=2, sort_keys=True) + "\n"``.
    A top-level list or dict is written one element at a time, so the
    document is never held in memory as one string.
    """
    encoder = _JsonEncoder()
    with open(path, "w") as fh:
        if isinstance(obj, (list, tuple, dict)) and obj:
            brackets = "{}" if isinstance(obj, dict) else "[]"
            sep = brackets[0] + "\n  "
            for text in encoder.members(obj, "\n  "):
                fh.write(sep + text)
                sep = ",\n  "
            fh.write("\n" + brackets[1] + "\n")
        else:
            fh.write(encoder.value(obj, "\n") + "\n")


def _spelled(values, *spells) -> list:
    """For each of ``spells``, an object array of its value at each float64
    of ``values``, in their shape.

    Each distinct bit pattern is spelled once (so -0.0 and 0.0 keep their
    own texts) and the spellings are gathered back in place.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    bits, inverse = np.unique(values.view(np.int64).ravel(), return_inverse=True)
    distinct = bits.view(np.float64).tolist()
    return [np.array(list(map(spell, distinct)), dtype=object).take(inverse).reshape(values.shape)
            for spell in spells]


def _csv_fields(fields) -> list:
    """Each of ``fields`` as ``csv.writer`` spells it in an excel-dialect row."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    spelled = []
    for field in fields:
        # a second, empty field keeps the row from being one empty field,
        # which csv quotes; the ",\r\n" it ends with is sliced off
        writer.writerow([field, None])
        spelled.append(buf.getvalue()[:-3])
        buf.seek(0)
        buf.truncate()
    return spelled


def _labelled_csv(path, header, labels, cells) -> None:
    """Excel-dialect CSV: ``header``, then each label followed by its row of cells.

    The bytes are those ``csv.writer`` writes.  The cells are float reprs,
    which csv never quotes, so only the header and labels go through it.
    """
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(
            head + "," + ",".join(row) + "\r\n" for head, row in zip(_csv_fields(labels), cells)
        )


def matrix_to_csv(path, matrix: MpMatrix, labels) -> None:
    cells = _spelled(matrix.entries, repr)[0].tolist()
    _labelled_csv(path, ["", *labels], labels, cells)


def density_to_csv(path, lam: Density) -> None:
    if lam.values.ndim != 1:
        raise DimensionError("a density CSV file holds one density")
    cells = _spelled(lam.values, repr)[0].reshape(-1, 1).tolist()
    _labelled_csv(path, ["label", "value"], lam.space.labels, cells)


def fuzzy_to_csv(path, u: FuzzySet) -> None:
    cells = _spelled(u.values, repr)[0].reshape(-1, 1).tolist()
    _labelled_csv(path, ["label", "membership"], u.space.labels, cells)


def trace_to_csv(path, trace) -> None:
    cells = _spelled(trace, repr)[0].reshape(-1, 1).tolist()
    _labelled_csv(path, ["iteration", "d_infty"], range(1, len(cells) + 1), cells)


def aubry_to_jsonable(pot: PotentialMatrix) -> dict:
    return {
        "indices": [int(i) for i in pot.aubry],
        "labels": [pot.space.labels[i] for i in pot.aubry],
        "tol_aubry": float(pot.tol_aubry),
    }
