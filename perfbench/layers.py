"""Per-layer metrics derived from the spans of one traced command.

A span's self time is its duration minus the time its child spans
cover (spans nest, one thread). A total over a set of span names counts
only the outermost spans of the set, so a set member that calls another
one (check_cumulative_estimate calls check_step_inequality) is not
counted twice. A layer is the span name's prefix, which
is the dnsflow module name; the `fields` operators have no spans of their
own and show up as the self time of the function that calls them, for a
step as `scheme.dns_step_self_s`.
"""

from __future__ import annotations

import statistics

LAYERS = ("cli", "manifest", "bench", "scheme", "interpolate", "projection",
          "snapshot", "analysis")

LEDGER = ("analysis.ledger_from_results", "analysis.build_energy_ledger")
CHECKS = ("analysis.check_step_inequality", "analysis.check_cumulative_estimate",
          "analysis.stable_within_factor", "analysis.monitor_assumption_a",
          "analysis.max_step_increment", "analysis.material_derivative_identity")


def self_times(spans: list[dict]) -> list[float]:
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def outer_total(spans: list[dict], names) -> float:
    """Summed duration of the spans named in names that have no ancestor
    named in names."""
    names = set(names)
    total = 0.0
    for s in spans:
        if s["name"] not in names:
            continue
        p = s["parent"]
        while p >= 0 and spans[p]["name"] not in names:
            p = spans[p]["parent"]
        if p < 0:
            total += s["end"] - s["start"]
    return total


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Every per-layer metric of one traced command, from its spans."""
    own = self_times(spans)
    calls: dict[str, int] = {}
    attr: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s, mine in zip(spans, own):
        name = s["name"]
        d = s["end"] - s["start"]
        calls[name] = calls.get(name, 0) + 1
        durations.setdefault(name, []).append(d)
        for key, value in s["attrs"].items():
            attr[f"{name}:{key}"] = attr.get(f"{name}:{key}", 0) + value
        layer_self[name.split(".", 1)[0]] += mine

    def t(*names):
        return outer_total(spans, names)

    def c(name):
        return calls.get(name, 0)

    def a(key):
        return attr.get(key, 0)

    # the bench generators that build the initial datum, not the oracle
    # evaluated again for the report
    initial_s = sum(s["end"] - s["start"] for s in spans
                    if s["name"].startswith("bench.") and s["parent"] >= 0
                    and spans[s["parent"]]["name"] == "cli.build_initial")
    run_total = t("scheme.run")
    run_self = sum(mine for s, mine in zip(spans, own)
                   if s["name"] == "scheme.run")
    stokes = "projection.solve_implicit_stokes"
    outer = a(f"{stokes}:outer")
    inner = a(f"{stokes}:inner")
    sample_s = t("interpolate.sample_offgrid")
    out = {
        "interpolate.sample_offgrid_s": sample_s,
        "interpolate.nodes_per_s": (a("interpolate.sample_offgrid:nodes")
                                    / sample_s if sample_s > 0 else 0.0),
        "scheme.backtrace_s": t("scheme.backtrace"),
        "scheme.backtrace_calls": c("scheme.backtrace"),
        "projection.stokes_s": t(stokes),
        "projection.stokes_ms_p50": (1e3 * statistics.median(durations[stokes])
                                     if stokes in durations else 0.0),
        "projection.outer_iters": outer,
        "projection.inner_iters": inner,
        "projection.inner_per_outer": inner / outer if outer else 0.0,
        "scheme.dns_step_self_s": sum(mine for s, mine in zip(spans, own)
                                      if s["name"] == "scheme.dns_step"),
        "projection.leray_s": t("projection.leray_project"),
        "projection.leray_calls": c("projection.leray_project"),
        "snapshot.write_s": t("snapshot.write_vtk"),
        "snapshot.write_calls": c("snapshot.write_vtk"),
        "snapshot.write_bytes": a("snapshot.write_vtk:bytes"),
        "snapshot.read_s": t("snapshot.read_vtk"),
        "snapshot.read_bytes": a("snapshot.read_vtk:bytes"),
        "analysis.weak_residual_s": t("analysis.weak_residual"),
        "analysis.weak_residual_calls": c("analysis.weak_residual"),
        "analysis.ledger_s": t(*LEDGER),
        "analysis.checks_s": t(*CHECKS),
        "scheme.retained_mb": a("scheme.run:retained_bytes") / 2**20,
        "manifest.load_s": t("manifest.load_manifest"),
        "bench.initial_s": initial_s,
        "trace.run_uncovered_share": run_self / run_total if run_total else 0.0,
    }
    for layer, value in layer_self.items():
        out[f"layer.{layer}.self_s"] = value
    return out
