"""Run the scheme on the Taylor-Green vortex and report every check.

Usage: python scripts/taylor_green_demo.py [--cells 64] [--h 0.0125]
       [--T 0.5] [--out out_tg]
"""

import argparse
import pathlib
import sys

from dnsflow import (
    DnsConfig,
    GridSpec,
    InterpOrder,
    check_cumulative_estimate,
    check_step_inequality,
    ledger_from_results,
    ledger_to_csv,
    norm_l2,
    run,
    taylor_green_field,
)
from dnsflow.snapshot import write_vtk


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--cells", type=int, default=64)
    ap.add_argument("--h", type=float, default=1.0 / 80.0)
    ap.add_argument("--T", type=float, default=0.5)
    ap.add_argument("--out", default="out_tg")
    args = ap.parse_args()

    grid = GridSpec(args.cells)
    cfg = DnsConfig(h=args.h, T=args.T, grid=grid,
                    interp_order=InterpOrder.CUBIC)
    a, _ = taylor_green_field(0.0, grid)
    print(f"running {cfg.n_steps} steps at {args.cells}^2, h = {args.h:g}")
    traj = run(a, cfg)

    exact, _ = taylor_green_field(traj.final_time, grid)
    err = norm_l2(traj.snapshots[-1] - exact)
    max_div = max(r.max_divergence for r in traj.results)
    ledger = ledger_from_results(traj)
    step_rep = check_step_inequality(ledger)
    cum = check_cumulative_estimate(ledger, traj.final_time)

    print(f"final-time L2 error vs oracle : {err:.6e}")
    print(f"max divergence over the run   : {max_div:.3e}")
    print(f"per-step inequality           : holds={step_rep.all_hold} "
          f"max_C={step_rep.max_fitted_c:.3e}")
    print(f"cumulative estimate           : holds={cum.holds} "
          f"lhs={cum.max_lhs:.4e} bound={cum.bound:.4e}")

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "ledger.csv").write_text(ledger_to_csv(ledger))
    write_vtk(out / "final.vtk", traj.snapshots[-1], traj.results[-1].p)
    print(f"wrote {out / 'ledger.csv'} and {out / 'final.vtk'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
