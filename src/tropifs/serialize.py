"""JSON and CSV encodings of the library objects.

BOTTOM is spelled "-inf" in both formats (on the CSV side that is just
``repr(-inf)``); finite numbers round-trip bit-exactly (shortest
round-trip decimal on the CSV side, native JSON numbers otherwise).

The bytes on disk are fixed: a JSON file is
``json.dumps(obj, indent=2, sort_keys=True)`` plus a newline, and a CSV
file is what ``csv.writer`` writes in the excel dialect, spelled here by
its one quoting rule: a field is quoted, each ``"`` doubled, exactly when
it holds ``,``, ``"``, CR or LF, else it is ``str(field)``; a float's cell
is its ``repr`` and rows end in ``\r\n``.  CSV files and blocks of
densities spell each distinct float once per file or chunk, so many
values drawn from few cost little more than their size.  A density block
is the one JSON document not written by ``json.dumps`` itself:
:func:`density_to_jsonable` turns it into text alone (the shared labels
array once, then each row's value texts), and :func:`write_json` streams
that text one density at a time.
"""

from __future__ import annotations

import json
import re
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DimensionError
from .maxplus import BOTTOM, MpMatrix
from .measures import Density
from .mpifs import MpIfs
from .mane import PotentialMatrix
from .fuzzy import FuzzySet
from .spaces import FiniteSpace, build_grid, build_shift_space, row_chunks

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


def values_from_jsonable(items) -> np.ndarray:
    """Max-plus values, each read as :func:`value_from_jsonable` reads it, in one pass."""
    if str in set(map(type, items)):
        items = [BOTTOM if x == BOTTOM_TOKEN else x for x in items]
    values = floats(items, value_from_jsonable)
    if not (values < np.inf).all():  # NaN or +inf, which only the one pass lets in
        for x in items:
            value_from_jsonable(x)
    return values


def density_to_jsonable(lam: Density) -> _DensityBlock:
    """The text of a block of densities as :func:`write_json` writes it.

    No JSON data, only the text of a list of one ``{"labels", "values"}``
    document per row, BOTTOM spelled "-inf"; each chunk of rows is spelled
    from one table of its distinct values.  One density is a one-row block.
    """
    if lam.values.ndim != 2:
        raise DimensionError("density_to_jsonable takes a block, one density per row")
    texts = []
    for s in row_chunks(len(lam.values), lam.space.n):
        texts.extend(_spelled(lam.values[s], _value_text).tolist())
    # the labels array as it is indented inside each document of the list
    head = json.dumps(lam.space.labels, indent=2).replace("\n", "\n    ")
    return _DensityBlock(head, texts)


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


def system_from_jsonable(obj) -> MpIfs:
    space = space_from_jsonable(obj["space"])
    isp = obj["index_space"]
    index_space = FiniteSpace(
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


def _value_text(x: float) -> str:
    """The JSON text of a density value (finite or BOTTOM): its ``repr``."""
    return '"-inf"' if x == BOTTOM else repr(x)


class _DensityBlock(NamedTuple):
    """The JSON text of a block of densities: ``head``, the labels array
    every row shares, and ``texts``, each row's value texts."""

    head: str
    texts: list


def write_json(path, obj) -> None:
    """Write ``json.dumps(obj, indent=2, sort_keys=True)`` plus a newline.

    A block from :func:`density_to_jsonable` is written from its texts to
    the bytes of the list of its ``{"labels", "values"}`` documents (``[]``
    for no rows), one density at a time, so the document is never held in
    memory as one string.
    """
    with open(path, "w") as fh:
        if isinstance(obj, _DensityBlock):
            head = '{\n    "labels": ' + obj.head + ',\n    "values": [\n      '
            sep = "[\n  "
            for texts in obj.texts:
                fh.write(sep + head + ",\n      ".join(texts) + "\n    ]\n  }")
                sep = ",\n  "
            fh.write("\n]\n" if obj.texts else "[]\n")
        else:
            fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _spelled(values, spell) -> np.ndarray:
    """An object array of ``spell`` of each float64 of ``values``, in their shape.

    Each distinct bit pattern is spelled once (so -0.0 and 0.0 keep their
    own texts) and the spellings are gathered back in place.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    bits, inverse = np.unique(values.view(np.int64).ravel(), return_inverse=True)
    spelled = np.array(list(map(spell, bits.view(np.float64).tolist())), dtype=object)
    return spelled.take(inverse).reshape(values.shape)


# what makes the excel dialect quote a field
_QUOTED = re.compile('[,"\r\n]')


def _csv_field(field) -> str:
    """``field`` as ``csv.writer`` spells it in an excel-dialect row of two or more fields."""
    text = str(field)
    return '"' + text.replace('"', '""') + '"' if _QUOTED.search(text) else text


def _labelled_csv(path, header, labels, cells) -> None:
    """Excel-dialect CSV: ``header``, then each label followed by its row of cells.

    Header and labels follow the module's quoting rule, so the bytes are
    ``csv.writer``'s (a NUL raw, as it writes one from Python 3.11); the
    cells are float reprs, which that rule never quotes.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(map(_csv_field, header)) + "\r\n")
        fh.writelines(
            _csv_field(label) + "," + ",".join(row) + "\r\n" for label, row in zip(labels, cells)
        )


def matrix_to_csv(path, matrix: MpMatrix, labels) -> None:
    cells = _spelled(matrix.entries, repr).tolist()
    _labelled_csv(path, ["", *labels], labels, cells)


def density_to_csv(path, lam: Density) -> None:
    if lam.values.ndim != 1:
        raise DimensionError("a density CSV file holds one density")
    cells = _spelled(lam.values, repr).reshape(-1, 1).tolist()
    _labelled_csv(path, ["label", "value"], lam.space.labels, cells)


def fuzzy_to_csv(path, u: FuzzySet) -> None:
    cells = _spelled(u.values, repr).reshape(-1, 1).tolist()
    _labelled_csv(path, ["label", "membership"], u.space.labels, cells)


def trace_to_csv(path, trace) -> None:
    cells = _spelled(trace, repr).reshape(-1, 1).tolist()
    _labelled_csv(path, ["iteration", "d_infty"], range(1, len(cells) + 1), cells)


def aubry_to_jsonable(pot: PotentialMatrix) -> dict:
    return {
        "indices": [int(i) for i in pot.aubry],
        "labels": [pot.space.labels[i] for i in pot.aubry],
        "tol_aubry": float(pot.tol_aubry),
    }
