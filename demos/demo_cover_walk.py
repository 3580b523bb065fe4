#!/usr/bin/env python3
"""Walk on the universal cover tree and cross-check the analyzer.

Simulates one long walk, splits it into renewal excursions, and compares
the sampled entropy rate and speed against their analytic values.  Also
prints how sharply the walk localizes around its limiting ray.

Usage:
    python3 demos/demo_cover_walk.py [--graph PATH] [--steps N] [--seed S]
"""

import argparse
import pathlib

from liftmix import (
    confirmed_ray,
    entropy,
    estimate_clt_params,
    estimate_speed,
    excursion_decomposition,
    parse_graph,
    ray_localization_profile,
    renewal_edge,
    simulate_walk,
    substream,
)

HERE = pathlib.Path(__file__).parent


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--graph", default=str(HERE / "graphs" / "theta3.g"))
    ap.add_argument("--steps", type=int, default=400_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    g = parse_graph(pathlib.Path(args.graph).read_text())
    report = entropy(g)

    rng = substream(args.seed, "demo-cover-walk")
    traj = simulate_walk(g, g.vertices[0], args.steps, rng=rng)
    print(f"walked {len(traj)} steps from {g.vertices[0]!r}; "
          f"final height {traj.heights[-1]} "
          f"(drift {traj.heights[-1] / len(traj):.4f} levels/step, "
          f"analytic speed {report.speed:.4f})")

    # the confirmed ray is read once and feeds both the excursions and the
    # localization profile
    times, ray_labels = confirmed_ray(traj)
    stats = excursion_decomposition(report, renewal_edge(report), times, ray_labels)
    est = estimate_clt_params(stats)
    sp = estimate_speed(stats)
    print(f"\n{stats.n} renewal excursions at edge "
          f"{g.oriented_name(stats.e_star)!r}:")
    print(f"  entropy rate  {est.h_est:.6f} +- {est.h_se:.6f}   "
          f"(analytic {report.entropy_rate:.6f}, "
          f"z = {(est.h_est - report.entropy_rate) / est.h_se:+.2f})")
    print(f"  speed         {sp.value:.6f} +- {sp.se:.6f}   "
          f"(analytic {report.speed:.6f}, "
          f"z = {(sp.value - report.speed) / sp.se:+.2f})")
    print(f"  CLT spread    {est.sigma_est:.6f} +- {est.sigma_se:.6f}")

    profile = ray_localization_profile(traj, ray_labels, 8)
    print(f"\nlocalization around the limiting ray "
          f"({profile.n_samples} confirmed samples):")
    for r, frac in profile.tail_freq.items():
        bar = "#" * max(1, round(50 * frac)) if frac else ""
        print(f"  P(distance > {r}) = {frac:9.6f}  {bar}")


if __name__ == "__main__":
    main()
