"""Run configuration: one JSON document per CLI invocation.

The ``system`` block, needed by every command except ``demo31`` (which
builds its own shift system), names exactly one source:

    {"builder": "two_point"}
    {"builder": "nonunique_shift", "depth": 4}
    {"builder": "grid_random", "a": 0, "b": 1, "n": 32, "num_maps": 2,
     "seed": 7, "constant_weights": false}
    {"builder": "shift_random", "symbols": 2, "depth": 4, "seed": 7,
     "constant_weights": true}
    {"inline": {... full system as emitted by serialize.system_to_jsonable ...}}

Command blocks ("mane", "invariant", "fuzzy", "demo31") hold the knobs of
the corresponding subcommand; "output" holds format flags.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .errors import ConfigError, DimensionError
from .examples import build_nonunique_shift_system, build_two_point_system, random_system
from .mpifs import MpIfs, validate
from .serialize import system_from_jsonable
from .spaces import build_grid, build_shift_space


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
        for block in (self.mane, self.invariant, self.fuzzy):
            for key, val in block.items():
                if key.startswith("tol") and not (isinstance(val, (int, float)) and val > 0):
                    raise ConfigError(f"tolerance {key} must be > 0")


def load_config(path) -> RunConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {p}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    known = {"system", "mane", "invariant", "fuzzy", "demo31", "output"}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return RunConfig(**{k: doc[k] for k in known if k in doc})


def build_system(cfg: RunConfig, seed_override: Optional[int] = None) -> MpIfs:
    """Instantiate and validate the configured system."""
    spec = cfg.system
    if spec is None:
        raise ConfigError("config needs a 'system' object")
    if "inline" in spec:
        try:
            system = system_from_jsonable(spec["inline"])
        except (DimensionError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed inline system: {exc}") from exc
        validate(system)
        return system
    builder = spec["builder"]
    args = {k: v for k, v in spec.items() if k != "builder"}
    seed = seed_override if seed_override is not None else args.get("seed", 0)
    try:
        if builder == "two_point":
            return build_two_point_system()
        if builder == "nonunique_shift":
            return build_nonunique_shift_system(int(args["depth"]))
        if builder == "grid_random":
            space = build_grid(float(args["a"]), float(args["b"]), int(args["n"]))
            return random_system(
                space,
                int(args["num_maps"]),
                int(seed),
                constant_weights=bool(args.get("constant_weights", False)),
            )
        if builder == "shift_random":
            space = build_shift_space(int(args["symbols"]), int(args["depth"]))
            return random_system(
                space,
                int(args["symbols"]),
                int(seed),
                constant_weights=bool(args.get("constant_weights", False)),
            )
    except KeyError as exc:
        raise ConfigError(f"builder {builder!r} missing parameter {exc}") from exc
    raise ConfigError(f"unknown system builder {builder!r}")
