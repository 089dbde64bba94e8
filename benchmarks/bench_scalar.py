#!/usr/bin/env python3
"""Time the scalar kernel on three workloads: raw scalar arithmetic, the
full axiom battery on the 8-dimensional algebra, and one pass of the
left-action enumeration (the solver-heavy path).  Each line is the best of
--repeat runs.

Usage: python benchmarks/bench_scalar.py [--repeat N]
"""

import argparse
import time


def bench_scalar_ops(n=200_000):
    from hopffactor.scalar import Scalar

    a = Scalar(3, 7, 1, 2)
    b = Scalar(-5, 11, 2, 3)
    acc = Scalar(0)
    t0 = time.perf_counter()
    for _ in range(n):
        acc = acc + a * b - a
    t1 = time.perf_counter()
    assert not acc.is_zero()
    return t1 - t0


def bench_axiom_battery():
    import hopffactor.hopf
    import hopffactor.presentations as pres

    pres.build_H4.cache_clear()
    pres.build_H8.cache_clear()
    t0 = time.perf_counter()
    H8 = pres.build_H8()
    report = hopffactor.hopf.verify_axioms(H8)
    t1 = time.perf_counter()
    assert report.all_passed
    return t1 - t0


def bench_left_enumeration():
    from hopffactor.actions import enumerate_left_actions

    t0 = time.perf_counter()
    sol = enumerate_left_actions()
    t1 = time.perf_counter()
    assert len(sol.branches) == 16
    return t1 - t0


WORKLOADS = {
    "scalar-ops(200k)": bench_scalar_ops,
    "axiom-battery(H8)": bench_axiom_battery,
    "left-enumeration": bench_left_enumeration,
}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    for name, fn in WORKLOADS.items():
        best = min(fn() for _ in range(args.repeat))
        print(f"{name:24s} {best:9.3f}s")


if __name__ == "__main__":
    main()
