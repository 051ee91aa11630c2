"""Run manifests: flat ``key = value`` config files with [section] headers.

Sections and keys:

    [grid]    cells, extent, bc
    [time]    h, T
    [scheme]  interp, path, nu, minimizer_tol, cross_check
    [initial] kind (taylor_green | zero | random_solenoidal | stream_bump
              | snapshot), amplitude, file
    [output]  cadence
    [ladder]  h (comma list), cells (comma list, optional)

Any other section or key, and a key given twice in one section (also
under a repeated header), is an error. Everything has a default except
[time] h and T. Every [ladder] rung is checked when the file is parsed:
its h against the other [time] and [scheme] settings, its cell count as
a grid, and neither list may repeat a value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

from .fields import TWO_PI, BoundaryCondition, GridSpec, parse_enum
from .interpolate import InterpOrder
from .scheme import DnsConfig, SolvePath


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


# the sections and keys of the module docstring, lower case as parsed
_SECTION_KEYS = {
    "grid": {"cells", "extent", "bc"}, "time": {"h", "t"},
    "scheme": {"interp", "path", "nu", "minimizer_tol", "cross_check"},
    "initial": {"kind", "amplitude", "file"}, "output": {"cadence"},
    "ladder": {"h", "cells"},
}


@dataclass(frozen=True)
class InitialSpec:
    kind: str = "taylor_green"
    amplitude: float = 1.0
    file: str | None = None

    KINDS = ("taylor_green", "zero", "random_solenoidal", "stream_bump",
             "snapshot")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ConfigError(f"unknown initial datum kind {self.kind!r}; "
                              f"expected one of {', '.join(self.KINDS)}")
        if self.kind == "snapshot" and not self.file:
            raise ConfigError("initial kind 'snapshot' needs file = <path>")


@dataclass(frozen=True)
class RunManifest:
    cfg: DnsConfig
    initial: InitialSpec = InitialSpec()
    out_dir: str = "out"
    cadence: int = 1
    seed: int = 0
    ladder_hs: tuple[float, ...] = ()
    ladder_cells: tuple[int, ...] = ()

    def __post_init__(self):
        if self.cadence < 1:
            raise ConfigError("emission cadence must be >= 1")


def _parse_sections(text: str) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, value = line.split("=", 1)
        key = key.strip().lower()
        if key in sections[current]:
            raise ConfigError(f"line {lineno}: [{current}] {key} is given twice")
        sections[current][key] = value.strip()
    return sections


def _get_float(sec: dict, key: str, default=None) -> float:
    if key not in sec:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        value = float(sec[key])
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: {sec[key]!r} is not a number") from exc
    if not math.isfinite(value):
        raise ConfigError(f"key {key!r}: {sec[key]!r} is not finite")
    return value


def _get_int(sec: dict, key: str, default: int) -> int:
    if key not in sec:
        return default
    try:
        return int(sec[key])
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: {sec[key]!r} is not an integer") from exc


def _get_bool(sec: dict, key: str, default: bool) -> bool:
    if key not in sec:
        return default
    val = sec[key].lower()
    if val in ("true", "yes", "1", "on"):
        return True
    if val in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"key {key!r}: {sec[key]!r} is not a boolean")


def _get_list(sec: dict, key: str, kind=float) -> tuple:
    if key not in sec:
        return ()
    try:
        values = tuple(kind(tok) for tok in sec[key].split(",")
                       if tok.strip())
    except ValueError as exc:
        noun = "integers" if kind is int else "numbers"
        raise ConfigError(f"key {key!r}: expected a comma list of {noun}") from exc
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"key {key!r}: {sec[key]!r} has non-finite entries")
    return values


def parse_manifest(text: str, out_dir: str = "out",
                   seed: int = 0) -> RunManifest:
    sections = _parse_sections(text)
    unknown = set(sections) - set(_SECTION_KEYS)
    if unknown:
        raise ConfigError(f"unknown sections: {', '.join(sorted(unknown))}")
    for name, sec in sections.items():
        if unknown := sorted(set(sec) - _SECTION_KEYS[name]):
            raise ConfigError(f"unknown keys in [{name}]: "
                              + ", ".join(unknown))

    grid_sec = sections.get("grid", {})
    cells = _get_int(grid_sec, "cells", 64)
    extent = _get_float(grid_sec, "extent", TWO_PI)
    try:
        bc = parse_enum(BoundaryCondition, grid_sec.get("bc", "periodic"),
                        "boundary condition")
        grid = GridSpec(cells, extent, bc)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    time_sec = sections.get("time", {})
    h = _get_float(time_sec, "h")
    T = _get_float(time_sec, "t")

    scheme_sec = sections.get("scheme", {})
    try:
        interp = parse_enum(InterpOrder, scheme_sec.get("interp", "linear"),
                            "interpolation order")
        path = parse_enum(SolvePath, scheme_sec.get("path", "euler_lagrange"),
                          "solve path")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    try:
        cfg = DnsConfig(
            h=h, T=T, grid=grid, interp_order=interp, path=path,
            nu=_get_float(scheme_sec, "nu", 1.0),
            minimizer_tol=_get_float(scheme_sec, "minimizer_tol", 1e-10),
            cross_check=_get_bool(scheme_sec, "cross_check", False),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    init_sec = sections.get("initial", {})
    initial = InitialSpec(
        kind=init_sec.get("kind", "taylor_green"),
        amplitude=_get_float(init_sec, "amplitude", 1.0),
        file=init_sec.get("file"),
    )

    out_sec = sections.get("output", {})
    cadence = _get_int(out_sec, "cadence", 1)

    ladder_sec = sections.get("ladder", {})
    ladder_hs = _get_list(ladder_sec, "h")
    for rung_h in ladder_hs:
        try:
            replace(cfg, h=rung_h)
        except ValueError as exc:
            raise ConfigError(f"[ladder] h = {rung_h:g}: {exc}") from exc
    ladder_cells = _get_list(ladder_sec, "cells", int)
    for rung_cells in ladder_cells:
        try:
            GridSpec(rung_cells, extent, bc)
        except ValueError as exc:
            raise ConfigError(f"[ladder] cells = {rung_cells}: {exc}") from exc
    # a repeated rung runs one case twice, and an order taken between the
    # two divides by log2(h / h) = 0
    for key, values in (("h", ladder_hs), ("cells", ladder_cells)):
        if len(set(values)) < len(values):
            raise ConfigError(
                f"[ladder] {key} needs two or more distinct values when it "
                f"lists more than one; got {key} = "
                + ", ".join(f"{v:g}" for v in values))

    return RunManifest(cfg=cfg, initial=initial, out_dir=out_dir,
                       cadence=cadence, seed=seed,
                       ladder_hs=ladder_hs, ladder_cells=ladder_cells)


def load_manifest(path, out_dir: str = "out", seed: int = 0) -> RunManifest:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file {path} not found")
    try:
        text = p.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError:
        raise ConfigError(f"config file {path} is not UTF-8 text") from None
    return parse_manifest(text, out_dir=out_dir, seed=seed)

