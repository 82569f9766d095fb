#!/usr/bin/env python3
"""Total-variation convergence of the conditional approximations.

For a fixed level, sweeps the row size and records the TV distance of the
tilted and Gaussian-modulated approximations to the exact grid oracle,
plus the k = 2 joint product against the exact joint.

Usage: python scripts/gibbs_convergence.py [--a 3.0] [--model weibull:k=2]
"""

import argparse
import os
import warnings

import numpy as np

from extreme_gibbs.config import fmt17
from extreme_gibbs.gibbs import fast_growth_approx, fast_growth_params, tilted_approx
from extreme_gibbs.model import model_from_spec
from extreme_gibbs.oracle import _joint_tv, get_oracle, tv_distance


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="weibull:k=2")
    parser.add_argument("--a", type=float, default=3.0)
    parser.add_argument("--n", default="8,16,32,64")
    parser.add_argument("--out", default="results/gibbs_convergence.csv")
    args = parser.parse_args()
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)

    model = model_from_spec(args.model)
    ns = [int(v) for v in args.n.split(",")]
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("n,a,tv_tilted,tv_fast_growth,tv_joint2\n")
        for n in ns:
            orc = get_oracle(model, n, args.a)
            ys = orc.default_ygrid()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                tilted = tilted_approx(model, n, args.a, ys, tp=orc.tp)
                params = fast_growth_params(model, n, args.a, tp=orc.tp)
            fast = fast_growth_approx(params, model, ys)
            exact = orc.conditional_curve(ys)
            tv_t = tv_distance(exact, tilted, ys).tv
            tv_f = tv_distance(exact, fast, ys).tv
            tv_j = float("nan")
            if n > 8:
                s = orc.tp.s
                grid = np.arange(max(model.support_lo, args.a - 8 * s), args.a + 8 * s, 0.02)
                exact2 = orc.joint2_grid(grid, grid)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    marg = tilted_approx(model, n, args.a, grid, tp=orc.tp)
                tv_j = _joint_tv(exact2, marg, 0.02**2).tv
            fh.write(f"{n},{fmt17(args.a)},{fmt17(tv_t)},{fmt17(tv_f)},{fmt17(tv_j)}\n")
            print(f"n={n}: tv_tilted={tv_t:.5f} tv_fast={tv_f:.5f} tv_joint2={tv_j:.5f}")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
