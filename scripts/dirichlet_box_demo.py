"""No-slip box run from a smooth stream-function bump.

Exercises the finite-difference backend: the implicit Stokes step as a
CG-accelerated Uzawa iteration on the pressure with exact DST-I
Helmholtz solves, pinned walls, divergence control per step.

Usage: python scripts/dirichlet_box_demo.py [--cells 32] [--h 0.0125]
       [--T 0.2]
"""

import argparse
import sys
import time

from dnsflow import (
    BoundaryCondition,
    DnsConfig,
    GridSpec,
    check_step_inequality,
    ledger_from_results,
    run,
    stream_bump_field,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--cells", type=int, default=32)
    ap.add_argument("--h", type=float, default=0.0125)
    ap.add_argument("--T", type=float, default=0.2)
    args = ap.parse_args()

    grid = GridSpec(args.cells, bc=BoundaryCondition.DIRICHLET_ZERO)
    cfg = DnsConfig(h=args.h, T=args.T, grid=grid)
    a = stream_bump_field(grid)
    start = time.perf_counter()
    traj = run(a, cfg)
    elapsed = time.perf_counter() - start

    max_div = max(r.max_divergence for r in traj.results)
    ledger = ledger_from_results(traj)
    rep = check_step_inequality(ledger)
    print(f"{cfg.n_steps} steps in {elapsed:.1f}s "
          f"(initial datum projected: {traj.projected_initial})")
    print(f"max divergence      : {max_div:.3e}")
    print(f"dirichlet energy    : {ledger.initial_dirichlet:.4e} -> "
          f"{ledger.rows[-1].dirichlet:.4e}")
    print(f"per-step inequality : holds={rep.all_hold} "
          f"max_C={rep.max_fitted_c:.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
