"""Run configuration: one JSON document per CLI invocation.

The ``system`` block, needed by every command except ``demo31`` (which
builds its own shift system), names exactly one source:

    {"builder": "two_point"}
    {"builder": "nonunique_shift", "depth": 4}
    {"builder": "grid_random", "a": 0, "b": 1, "n": 32, "num_maps": 2,
     "seed": 7, "constant_weights": false}
    {"builder": "shift_random", "symbols": 2, "depth": 4, "seed": 7,
     "constant_weights": true}
    {"inline": {"space": {"grid": ...} or {"shift": ...} or
                         {"labels": [...], "dist": [[...]], "resolution": 0.0},
                "index_space": {"labels": [...], "dist": [[...]]},
                "maps": [[target of each point, per map]],
                "weights": [[weight of each point, per map; "-inf" is BOTTOM]],
                "exact_maps": false}}

Command blocks ("mane", "invariant", "fuzzy", "demo31") hold the knobs of
the corresponding subcommand; "output" holds format flags.  A key they or
a builder do not read (:data:`BLOCK_KEYS`, :data:`BUILDER_KEYS`) is a
:class:`ConfigError`; the keys of an inline system document are not checked.

Every scalar is read through :func:`serialize.scalar`, the ``maps`` and
``dist`` tables of an inline system through :func:`serialize.table` and
its ``labels`` through :func:`serialize.string_list`:
numbers must be JSON numbers, map targets JSON integers, labels JSON
strings and flags JSON booleans (``"false"`` is not false, and ``true`` is
not 1), so a wrongly
typed value is a :class:`ConfigError`
(exit 3), never a traceback or a silent misreading.  The grid and shift
builders refuse more than ``spaces.MAX_POINTS`` points before allocating
anything.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .errors import ConfigError, DimensionError
from .examples import build_nonunique_shift_system, build_two_point_system, random_system
from .mpifs import MpIfs, validate
from .serialize import scalar, system_from_jsonable
from .spaces import build_grid, build_shift_space

#: The keys each config block may hold: those its command reads.
BLOCK_KEYS = {
    "mane": ("tol_aubry",),
    "invariant": ("mode", "tol", "tol_aubry", "boundary", "levels"),
    "fuzzy": ("tol", "max_iters", "u0"),
    "demo31": ("depth", "alphas"),
    "output": ("csv",),
}

#: The parameters each system builder reads besides ``builder``.
BUILDER_KEYS = {
    "two_point": (),
    "nonunique_shift": ("depth",),
    "grid_random": ("a", "b", "n", "num_maps", "seed", "constant_weights"),
    "shift_random": ("symbols", "depth", "seed", "constant_weights"),
}


def _check_keys(name: str, block: dict, known) -> None:
    unknown = sorted(set(block) - set(known))
    if unknown:
        raise ConfigError(f"unknown keys in {name}: {unknown}")


@dataclass
class RunConfig:
    system: Optional[dict] = None
    mane: dict = field(default_factory=dict)
    invariant: dict = field(default_factory=dict)
    fuzzy: dict = field(default_factory=dict)
    demo31: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.system is not None:
            if not isinstance(self.system, dict):
                raise ConfigError("config needs a 'system' object")
            sources = [k for k in ("builder", "inline") if k in self.system]
            if len(sources) != 1:
                raise ConfigError("system must name exactly one of 'builder' or 'inline'")
        for name, known in BLOCK_KEYS.items():
            block = getattr(self, name)
            if not isinstance(block, dict):
                raise ConfigError(f"config block {name!r} must be an object")
            _check_keys(f"config block {name!r}", block, known)
            for key, val in block.items():
                if key.startswith("tol") and not 0 < scalar(val, float, key) < math.inf:
                    raise ConfigError(f"tolerance {key} must be finite and > 0, got {val!r}")


def load_config(path) -> RunConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError, or an integer too long to parse
        raise ConfigError(f"malformed JSON in {p}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys("config", doc, ("system", *BLOCK_KEYS))
    return RunConfig(**doc)


def build_system(cfg: RunConfig, seed_override: Optional[int] = None) -> MpIfs:
    """Instantiate and validate the configured system."""
    spec = cfg.system
    if spec is None:
        raise ConfigError("config needs a 'system' object")
    if "inline" in spec:
        _check_keys("system block", spec, ("inline",))
        try:
            system = system_from_jsonable(spec["inline"])
        except (DimensionError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed inline system: {exc}") from exc
        validate(system)
        return system
    builder = spec["builder"]
    if not isinstance(builder, str) or builder not in BUILDER_KEYS:
        raise ConfigError(f"unknown system builder {builder!r}")
    _check_keys(f"system builder {builder!r}", spec, ("builder", *BUILDER_KEYS[builder]))
    try:
        if builder == "two_point":
            return build_two_point_system()
        if builder == "nonunique_shift":
            return build_nonunique_shift_system(scalar(spec["depth"], int, "depth"))
        seed = seed_override if seed_override is not None else spec.get("seed", 0)
        seed = scalar(seed, int, "seed", minimum=0)
        constant = scalar(spec.get("constant_weights", False), bool, "constant_weights")
        if builder == "grid_random":
            space = build_grid(
                scalar(spec["a"], float, "a"),
                scalar(spec["b"], float, "b"),
                scalar(spec["n"], int, "n"),
            )
            num_maps = scalar(spec["num_maps"], int, "num_maps")
        else:
            num_maps = scalar(spec["symbols"], int, "symbols")
            space = build_shift_space(num_maps, scalar(spec["depth"], int, "depth"))
        return random_system(space, num_maps, seed, constant_weights=constant)
    except KeyError as exc:
        raise ConfigError(f"builder {builder!r} missing parameter {exc}") from exc
