#!/usr/bin/env python3
"""Diagnostics of the exceedance mixture: TV, tail ratio, window spill.

Sweeps the row size at a fixed level and records how the renormalized
mixture tracks the exact exceedance conditional, how the saddlepoint tail
formula tracks the convolution tail, the raw (un-renormalized) prefactor of
the asymptotic formula, and the mass spilling past the mixing window.

Usage: python scripts/exceedance_window.py [--a 2.0]
"""

import argparse
import math
import os

from extreme_gibbs.config import fmt17
from extreme_gibbs.exceedance import ExceedanceMixture, tail_probability, window_tail_masses
from extreme_gibbs.model import model_from_spec
from extreme_gibbs.oracle import get_oracle, tv_distance


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="weibull:k=2")
    parser.add_argument("--a", type=float, default=2.0)
    parser.add_argument("--n", default="8,16,32,64")
    parser.add_argument("--out", default="results/exceedance_window.csv")
    args = parser.parse_args()
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)

    model = model_from_spec(args.model)
    ns = [int(v) for v in args.n.split(",")]
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("n,a,eta,tv,tail_ratio,raw_prefactor,p2_over_p1\n")
        for n in ns:
            orc = get_oracle(model, n, args.a)
            mix = ExceedanceMixture(model, n, args.a)
            ys = orc.default_ygrid()
            tv = tv_distance(orc.exceedance_curve(ys), mix.density(ys), ys).tv
            ratio = math.exp(tail_probability(model, n, args.a) - orc.log_tail())
            lp1, lp2 = window_tail_masses(model, n, args.a)
            spill = math.exp(lp2 - lp1)
            fh.write(
                ",".join(
                    [str(n)]
                    + [fmt17(v) for v in (args.a, mix.eta, tv, ratio, mix.raw_prefactor, spill)]
                )
                + "\n"
            )
            print(
                f"n={n}: tv={tv:.5f} tail_ratio={ratio:.4f} "
                f"raw_prefactor={mix.raw_prefactor:.4f} spill={spill:.2e}"
            )
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
