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


def value_to_jsonable(x: float):
    return BOTTOM_TOKEN if x == BOTTOM else float(x)


def value_from_jsonable(x) -> float:
    if x == BOTTOM_TOKEN:
        return BOTTOM
    v = float(x)
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


def density_from_jsonable(space: FiniteSpace, obj) -> Density:
    vals = values_from_jsonable(obj["values"] if isinstance(obj, dict) else obj)
    return Density(space, vals)


def space_to_jsonable(space: FiniteSpace) -> dict:
    out = {
        "labels": list(space.labels),
        "dist": [[float(x) for x in row] for row in space.dist],
        "resolution": float(space.resolution),
    }
    if isinstance(space.points, np.ndarray):
        out["coordinates"] = [float(x) for x in space.points]
    elif isinstance(space.points, tuple):
        out["words"] = [list(w) for w in space.points]
    return out


def space_from_jsonable(obj) -> FiniteSpace:
    if "grid" in obj:
        g = obj["grid"]
        return build_grid(float(g["a"]), float(g["b"]), int(g["n"]))
    if "shift" in obj:
        s = obj["shift"]
        return build_shift_space(int(s["symbols"]), int(s["depth"]))
    points = None
    if "coordinates" in obj:
        points = np.asarray(obj["coordinates"], dtype=np.float64)
    elif "words" in obj:
        points = tuple(tuple(int(s) for s in w) for w in obj["words"])
    return FiniteSpace(
        labels=list(obj["labels"]),
        dist=np.asarray(obj["dist"], dtype=np.float64),
        resolution=float(obj.get("resolution", 0.0)),
        points=points,
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
        labels=list(isp["labels"]), dist=np.asarray(isp["dist"], dtype=np.float64)
    )
    weights = np.vstack([values_from_jsonable(row) for row in obj["weights"]])
    return MpIfs(
        space=space,
        index_space=index_space,
        maps=np.asarray(obj["maps"], dtype=np.intp),
        weights=weights,
        exact_maps=bool(obj.get("exact_maps", False)),
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


def potential_to_jsonable(pot: PotentialMatrix) -> dict:
    return {
        "labels": list(pot.space.labels),
        "s": [values_to_jsonable(row) for row in pot.s.entries],
        "aubry": aubry_to_jsonable(pot),
    }
