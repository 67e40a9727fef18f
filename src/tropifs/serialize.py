"""JSON and CSV encodings of the library objects.

BOTTOM is spelled "-inf" in both formats (on the CSV side that is just
``repr(-inf)``); finite numbers round-trip bit-exactly (shortest
round-trip decimal on the CSV side, native JSON numbers otherwise).
"""

from __future__ import annotations

import csv
import json

import numpy as np

from .errors import ConfigError
from .maxplus import BOTTOM, MpMatrix
from .measures import Density
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


def value_to_jsonable(x: float):
    return BOTTOM_TOKEN if x == BOTTOM else float(x)


def value_from_jsonable(x) -> float:
    if x == BOTTOM_TOKEN:
        return BOTTOM
    v = scalar(x, float, "a max-plus value")
    if np.isnan(v) or v == np.inf:
        raise ConfigError(f"not a max-plus value: {x!r}")
    return v


def values_to_jsonable(arr) -> list:
    return [value_to_jsonable(float(x)) for x in np.asarray(arr).reshape(-1)]


def values_from_jsonable(items) -> np.ndarray:
    return np.array([value_from_jsonable(x) for x in items], dtype=np.float64)


def density_to_jsonable(lam: Density) -> dict:
    return {
        "labels": list(lam.space.labels),
        "values": values_to_jsonable(lam.values),
    }


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
        labels=list(obj["labels"]),
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
        labels=list(isp["labels"]), dist=table(isp["dist"], float, "index_space dist")
    )
    weights = np.vstack([values_from_jsonable(row) for row in obj["weights"]])
    return MpIfs(
        space=space,
        index_space=index_space,
        maps=table(obj["maps"], int, "maps"),
        weights=weights,
        exact_maps=scalar(obj.get("exact_maps", False), bool, "exact_maps"),
    )


def write_json(path, obj) -> None:
    """Stream ``obj`` as indented, key-sorted JSON plus a final newline.

    The bytes equal ``json.dumps(obj, indent=2, sort_keys=True) + "\n"``;
    the document is never held in memory as one string.
    """
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def matrix_to_csv(path, matrix: MpMatrix, labels=None) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if labels is not None:
            writer.writerow([""] + list(labels))
        for i, row in enumerate(matrix.entries.tolist()):
            head = [labels[i]] if labels is not None else []
            writer.writerow(head + list(map(repr, row)))


def density_to_csv(path, lam: Density) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "value"])
        for label, x in zip(lam.space.labels, lam.values):
            writer.writerow([label, repr(float(x))])


def fuzzy_to_csv(path, u: FuzzySet) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "membership"])
        for label, x in zip(u.space.labels, u.values):
            writer.writerow([label, repr(float(x))])


def trace_to_csv(path, trace) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "d_infty"])
        for i, d in enumerate(trace, start=1):
            writer.writerow([i, repr(float(d))])


def aubry_to_jsonable(pot: PotentialMatrix) -> dict:
    return {
        "indices": [int(i) for i in pot.aubry],
        "labels": [pot.space.labels[i] for i in pot.aubry],
        "tol_aubry": float(pot.tol_aubry),
    }
