"""Run one `dnsflow` CLI command in this process and record its timing.

Usage: python3 perfbench/child.py --trace 0|1 --record FILE --run-id ID
       -- <dnsflow subcommand and arguments>

Untraced (--trace 0): the only hook is a timestamp at each `dns_step`
entry and at each `run` return, which the benchmark turns into step
intervals, set-up time and post-processing time.

Traced (--trace 1): the public functions of each layer are wrapped at
the module bindings their callers use, and every call becomes a span
(name, start, end, parent, run id) kept in memory. Counts that the
layers expose (query nodes, Stokes iterations, snapshot bytes) ride on
the spans as attributes. After the command returns, the cost of one
wrapped call is timed on a no-op function; that cost times the span
count, plus the measured time of the attribute hooks, is the record's
tracing overhead.

Either way the record is written to FILE after the command returns, and
the process exits with the command's exit code. Timestamps come from
`time.perf_counter`, which on Linux reads CLOCK_MONOTONIC and so is
comparable with the parent's clock.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

perf_counter = time.perf_counter


class Tracer:
    """In-memory span recorder; one per process, single-threaded."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []   # [name, start, end, parent, attrs]
        self._stack: list[int] = []
        self.hook_s = 0.0             # time spent in before/after hooks

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, {}])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, before=None, after=None):
        """Replace owner.attr by a span-recording wrapper.

        ``before(args, kwargs)`` returns state handed to
        ``after(attrs, state, args, kwargs, result)``, which runs once the
        span is closed so that its own cost is not charged to the span.
        """
        fn = getattr(owner, attr)
        hooked = before is not None or after is not None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            state = before(args, kwargs) if before else None
            t1 = perf_counter()
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            t2 = perf_counter()
            if after:
                after(self.spans[idx][4], state, args, kwargs, result)
            if hooked:
                self.hook_s += (t1 - t0) + (perf_counter() - t2)
            return result

        setattr(owner, attr, wrapper)
        return wrapper

    def record(self) -> dict:
        return {"run_id": self.run_id,
                "spans": [{"name": n, "start": s, "end": e, "parent": p,
                           "run_id": self.run_id, "attrs": a}
                          for n, s, e, p, a in self.spans]}


def wrapper_cost_s(batches: int = 7, calls: int = 2000) -> float:
    """Seconds one wrapped call adds over a bare call: the median over
    batches of the per-call difference, on a no-op function and a tracer
    of its own, with no hooks."""
    class Owner:
        @staticmethod
        def noop():
            return None

    bare = Owner.noop
    wrapped = Tracer("calibrate").wrap(Owner, "noop", "noop")
    costs = []
    for _ in range(batches):
        t0 = perf_counter()
        for _ in range(calls):
            bare()
        t1 = perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    costs.sort()
    return max(0.0, costs[batches // 2])


def _arg(args, kwargs, pos: int, key: str):
    return kwargs[key] if key in kwargs else (args[pos] if len(args) > pos
                                              else None)


def _retained_bytes(traj) -> int:
    """Bytes of the distinct arrays a Trajectory keeps alive."""
    seen = {}
    for field in traj.snapshots:
        seen[id(field.data)] = field.data.nbytes
    for res in traj.results:
        for field in (res.v, res.p, res.w):
            seen[id(field.data)] = field.data.nbytes
    return sum(seen.values())


def install_spans(tracer: Tracer) -> None:
    import numpy as np

    from dnsflow import analysis, bench, cli, scheme, snapshot

    w = tracer.wrap
    w(cli, "main", "cli.main")
    w(cli, "_build_initial", "cli.build_initial")
    w(cli, "load_manifest", "manifest.load_manifest")
    for fn in ("taylor_green_field", "random_solenoidal_field",
               "stream_bump_field"):
        w(bench, fn, f"bench.{fn}")

    def run_after(attrs, state, args, kwargs, traj):
        attrs["retained_bytes"] = _retained_bytes(traj)

    w(cli, "run", "scheme.run", after=run_after)
    w(scheme, "dns_step", "scheme.dns_step")
    w(scheme, "backtrace", "scheme.backtrace")
    w(analysis, "backtrace", "scheme.backtrace")

    def nodes_before(args, kwargs):
        return np.asarray(_arg(args, kwargs, 1, "points")).size // 2

    def nodes_after(attrs, nodes, args, kwargs, result):
        attrs["nodes"] = nodes

    w(scheme, "sample_offgrid", "interpolate.sample_offgrid",
      before=nodes_before, after=nodes_after)

    def stokes_before(args, kwargs):
        solver = _arg(args, kwargs, 3, "solver")
        return solver, (solver.total_inner if solver is not None else 0)

    def stokes_after(attrs, state, args, kwargs, result):
        solver, inner0 = state
        attrs["outer"] = int(result[2].outer_iterations)
        attrs["inner"] = (solver.total_inner - inner0
                          if solver is not None else 0)

    w(scheme, "solve_implicit_stokes", "projection.solve_implicit_stokes",
      before=stokes_before, after=stokes_after)
    w(scheme, "leray_project", "projection.leray_project")

    def write_after(attrs, state, args, kwargs, result):
        attrs["bytes"] = os.path.getsize(_arg(args, kwargs, 0, "path"))

    def read_before(args, kwargs):
        return os.path.getsize(_arg(args, kwargs, 0, "path"))

    def read_after(attrs, size, args, kwargs, result):
        attrs["bytes"] = size

    w(snapshot, "write_vtk", "snapshot.write_vtk", after=write_after)
    w(snapshot, "read_vtk", "snapshot.read_vtk", before=read_before,
      after=read_after)
    for fn in ("ledger_from_results", "build_energy_ledger", "ledger_to_csv",
               "check_step_inequality", "check_cumulative_estimate",
               "stable_within_factor", "monitor_assumption_a",
               "max_step_increment", "material_derivative_identity",
               "default_test_functions", "weak_residual"):
        w(analysis, fn, f"analysis.{fn}")


def install_stamps(steps: list, returns: list) -> None:
    from dnsflow import cli, scheme

    dns_step = scheme.dns_step
    run = cli.run

    def timed_step(*args, **kwargs):
        steps.append(perf_counter())
        return dns_step(*args, **kwargs)

    def timed_run(*args, **kwargs):
        traj = run(*args, **kwargs)
        returns.append(perf_counter())
        return traj

    scheme.dns_step = timed_step
    cli.run = timed_run


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print("usage: child.py --trace 0|1 --record FILE --run-id ID -- ARGS",
              file=sys.stderr)
        return 2
    split = argv.index("--")
    opts = dict(zip(argv[:split:2], argv[1:split:2]))
    cli_args = argv[split + 1:]
    traced = opts["--trace"] == "1"

    record: dict = {}
    if traced:
        tracer = Tracer(opts["--run-id"])
        idx = tracer.open("cli.import")
        import dnsflow.cli
        tracer.close(idx)
        install_spans(tracer)
    else:
        import dnsflow.cli
        steps: list[float] = []
        returns: list[float] = []
        install_stamps(steps, returns)
    record["dnsflow_file"] = dnsflow.cli.__file__

    code = dnsflow.cli.main(cli_args)

    if traced:
        record.update(tracer.record())
        record["overhead_s"] = (wrapper_cost_s() * len(tracer.spans)
                                + tracer.hook_s)
    else:
        record.update(steps=steps, run_returns=returns)
    with open(opts["--record"], "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
