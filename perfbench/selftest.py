"""Self-test of the benchmark's pre-registered counts for one seed.

Usage (from the repository root)::

    python3 perfbench/selftest.py --seed 7

For ``gram_sharp``, ``verify_all`` and ``cli_session`` it builds the
workload twice from the seed, checks that both builds hash to the same
inputs, runs one traced cycle of each and checks that every pre-registered
count repeats exactly and equals its formula:

* ``gns.inner_calls`` per ``gns-build`` of n words is 2n^2 + n;
* ``algebra.mul_term_pairs`` per Gram operation is (terms in the basis)^2,
  and ``states.nonzero_term_ratio`` repeats;
* the ``almost_periodic.evaluate_terms`` under ``sup_norm_bounds`` per
  ``verify`` operation is 1024 x the terms of the polynomials it bounds.

It also checks that running the suites one at a time reproduces
``run_suites(["all"], seed)``, which the ``verify.*_s`` metrics rely on.
Exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import shutil
import sys

import run


def traced_counts(name: str, seed: int, workdir) -> tuple[dict, str]:
    from workloads import WORKLOADS

    try:
        workload = WORKLOADS[name](seed, workdir)
        with workload.session():
            tracer, _ = run.traced_cycles(workload, 0.0, [])
        return run.preregistered(workload, tracer), workload.manifest()["sha256"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def formula_errors(name: str, counts: dict) -> list[str]:
    errors = []
    for op, row in counts.items():
        pairs = [("algebra.mul_term_pairs", "expected_mul_term_pairs"),
                 ("gns.inner_calls", "expected_2n2_plus_n"),
                 ("evaluate_terms_under_sup_norm_bounds", "expected_1024_x_sup_norm_terms")]
        for measured, expected in pairs:
            if measured in row and row[measured] != row[expected]:
                errors.append(f"{name} {op}: {measured} {row[measured]} != {row[expected]}")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    run.import_program()
    sys.path.insert(0, str(run.HERE))
    run.OUT.mkdir(exist_ok=True)
    from weylreps.verify import run_suites

    errors = []
    for name in ("gram_sharp", "verify_all", "cli_session"):
        first, hash1 = traced_counts(name, args.seed, run.OUT / "selftest-a")
        second, hash2 = traced_counts(name, args.seed, run.OUT / "selftest-b")
        if hash1 != hash2:
            errors.append(f"{name}: input hashes differ")
        if first != second:
            errors.append(f"{name}: counts differ between builds: {first} vs {second}")
        errors += formula_errors(name, first)
        print(f"{name}: inputs {hash1[:16]}, {len(first)} operations with pre-registered counts")
        for op, row in first.items():
            print(f"  {op}: {row}")

    one_by_one = [r for suite in ("algebra", "reps", "gns", "ap", "oracle")
                  for r in run_suites([suite], args.seed)]
    if one_by_one != run_suites(["all"], args.seed):
        errors.append("suites run one at a time differ from --suite all")

    for error in errors:
        print(f"MISMATCH {error}")
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
