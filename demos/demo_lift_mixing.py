#!/usr/bin/env python3
"""Mixing on one random n-lift: exact TV curve, worst start, spectrum.

Builds a uniform random n-lift, propagates the walk's distribution
exactly, and shows that the time to reach total-variation 1/4 sits where
log(n) / entropy-rate predicts.

Usage:
    python3 demos/demo_lift_mixing.py [--graph PATH] [--n N] [--seed S]
"""

import argparse
import pathlib

from liftmix import (
    draw_lift,
    entropy,
    parse_graph,
    predict_mixing_time,
    spectrum_inheritance_check,
)
from liftmix.mixing import DEFAULT_EPS_LIST, _cell_curves, _worst_start

HERE = pathlib.Path(__file__).parent


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--graph", default=str(HERE / "graphs" / "theta3.g"))
    ap.add_argument("--n", type=int, default=512)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    g = parse_graph(pathlib.Path(args.graph).read_text())
    report = entropy(g)
    lift = draw_lift(g, args.n, args.seed)  # the lift of `liftmix mix --seed`
    print(f"uniform {args.n}-lift of {args.graph} "
          f"({lift.n_states} states, seed {args.seed})")

    pred = predict_mixing_time(report, args.n, 0.25)
    # the starts and curves of `liftmix mix --starts sample:8 --seed S`; on a
    # periodic lift the raw TV plateaus: mixing times are read from the
    # two-step averaged curve
    starts, _, curves = _cell_curves(g, args.n, args.seed, 0, "sample:8", None,
                                     DEFAULT_EPS_LIST, 10_000)
    crossings = {s: c.mixing_crossings for s, c in zip(starts, curves)}
    times = {s: c[0.25] for s, c in crossings.items()}
    best = min((t for t in times.values() if t is not None), default=None)
    # mix's ranking: an unreached start is the worst, and of equal times the
    # lower start
    w, worst = _worst_start(times)
    worst_text = "not reached" if worst is None else f"{worst} steps"
    print(f"\nmixing to TV 0.25 over {len(starts)} sampled starts: "
          f"best {best}, worst {worst_text} (predicted center {pred.t_center:.1f})")
    if best is None:
        print("\nno sampled start reached TV 0.25 within the step cap")

    print(f"\nexact TV curve from the worst sampled start ({w}):")
    for eps in sorted(crossings[w], reverse=True):
        t = crossings[w][eps]
        print(f"  TV <= {eps:<4} " + ("not reached" if t is None
                                      else f"after {t:>4} steps"))

    chk = spectrum_inheritance_check(lift)
    eigs = ", ".join(f"{z.real:+.4f}{z.imag:+.4f}i" for z in chk.eigenvalues)
    print(f"base eigenvalues inherited by the lift (residual "
          f"{chk.max_residual:.2e}): {eigs}")


if __name__ == "__main__":
    main()
