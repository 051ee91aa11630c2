"""Run manifests: flat ``key = value`` config files with [section] headers.

Sections and keys:

    [grid]    cells, extent, bc
    [time]    h, T
    [scheme]  interp, path, nu, minimizer_tol, minimizer_max_iters,
              cross_check, div_tol
    [initial] kind (taylor_green | zero | random_solenoidal | stream_bump
              | snapshot), amplitude, file
    [output]  cadence
    [ladder]  h (comma list), cells (comma list, optional)

Everything has a default except [time] h and T. The parsed manifest
re-serializes to a canonical form (sorted sections, full precision).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

from .fields import TWO_PI, BoundaryCondition, GridSpec
from .interpolate import InterpOrder
from .scheme import DnsConfig, SolvePath


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


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
    threads: int = 1
    ladder_hs: tuple[float, ...] = ()
    ladder_cells: tuple[int, ...] = ()

    def __post_init__(self):
        if self.cadence < 1:
            raise ConfigError("emission cadence must be >= 1")
        if self.threads < 1:
            raise ConfigError("thread count must be >= 1")


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
        sections[current][key.strip().lower()] = value.strip()
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


def _get_float_list(sec: dict, key: str) -> tuple[float, ...]:
    if key not in sec:
        return ()
    try:
        values = tuple(float(tok) for tok in sec[key].split(",")
                       if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: expected a comma list of numbers") from exc
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"key {key!r}: {sec[key]!r} has non-finite entries")
    return values


def parse_manifest(text: str, out_dir: str = "out", seed: int = 0,
                   threads: int = 1) -> RunManifest:
    sections = _parse_sections(text)
    unknown = set(sections) - {"grid", "time", "scheme", "initial", "output",
                               "ladder"}
    if unknown:
        raise ConfigError(f"unknown sections: {', '.join(sorted(unknown))}")

    grid_sec = sections.get("grid", {})
    cells = _get_int(grid_sec, "cells", 64)
    extent = _get_float(grid_sec, "extent", TWO_PI)
    bc_text = grid_sec.get("bc", "periodic")
    try:
        bc = BoundaryCondition.parse(bc_text)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    try:
        grid = GridSpec(cells, extent, bc)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    time_sec = sections.get("time", {})
    h = _get_float(time_sec, "h")
    T = _get_float(time_sec, "t")

    scheme_sec = sections.get("scheme", {})
    try:
        interp = InterpOrder.parse(scheme_sec.get("interp", "linear"))
        path = SolvePath.parse(scheme_sec.get("path", "euler_lagrange"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    try:
        cfg = DnsConfig(
            h=h, T=T, grid=grid, interp_order=interp, path=path,
            nu=_get_float(scheme_sec, "nu", 1.0),
            minimizer_tol=_get_float(scheme_sec, "minimizer_tol", 1e-10),
            minimizer_max_iters=_get_int(scheme_sec, "minimizer_max_iters", 500),
            cross_check=_get_bool(scheme_sec, "cross_check", False),
            div_tol=_get_float(scheme_sec, "div_tol", 1e-9),
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
    ladder_hs = _get_float_list(ladder_sec, "h")
    for rung_h in ladder_hs:
        try:
            replace(cfg, h=rung_h)
        except ValueError as exc:
            raise ConfigError(f"[ladder] h = {rung_h:g}: {exc}") from exc
    ladder_cells = tuple(int(c) for c in _get_float_list(ladder_sec, "cells"))

    return RunManifest(cfg=cfg, initial=initial, out_dir=out_dir,
                       cadence=cadence, seed=seed, threads=threads,
                       ladder_hs=ladder_hs, ladder_cells=ladder_cells)


def load_manifest(path, out_dir: str = "out", seed: int = 0,
                  threads: int = 1) -> RunManifest:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file {path} not found")
    return parse_manifest(p.read_text(), out_dir=out_dir, seed=seed,
                          threads=threads)


def canonical_text(man: RunManifest) -> str:
    """Serialize back to the canonical config form (parse round-trips)."""
    cfg = man.cfg
    lines = [
        "[grid]",
        f"cells = {cfg.grid.cells[0]}",
        f"extent = {cfg.grid.extent[0]:.17g}",
        f"bc = {cfg.grid.bc.value}",
        "",
        "[time]",
        f"h = {cfg.h:.17g}",
        f"t = {cfg.T:.17g}",
        "",
        "[scheme]",
        f"interp = {cfg.interp_order.value}",
        f"path = {cfg.path.value}",
        f"nu = {cfg.nu:.17g}",
        f"minimizer_tol = {cfg.minimizer_tol:.17g}",
        f"minimizer_max_iters = {cfg.minimizer_max_iters}",
        f"cross_check = {'true' if cfg.cross_check else 'false'}",
        f"div_tol = {cfg.div_tol:.17g}",
        "",
        "[initial]",
        f"kind = {man.initial.kind}",
        f"amplitude = {man.initial.amplitude:.17g}",
    ]
    if man.initial.file:
        lines.append(f"file = {man.initial.file}")
    lines += ["", "[output]", f"cadence = {man.cadence}"]
    if man.ladder_hs:
        lines += ["", "[ladder]",
                  "h = " + ", ".join(f"{h:.17g}" for h in man.ladder_hs)]
        if man.ladder_cells:
            lines.append("cells = " + ", ".join(str(c) for c in man.ladder_cells))
    return "\n".join(lines) + "\n"
