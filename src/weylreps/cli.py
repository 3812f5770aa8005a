"""Command line surface.

Subcommands: ``product``, ``eval-state``, ``gns-build``, ``continuity-scan``,
``mean``, ``verify``.  Exit codes: 0 all checks pass, 1 a property check
failed, 2 usage or parse error.  The environment variable ``WEYLREPS_SEED``
overrides ``--seed`` wherever randomness is involved, and the effective seed
is always printed so failures reproduce exactly.

Only ``mean`` and ``verify`` compute with numpy, through the grid oracle
and the Gram eigensolver; they import it when they run.  The exact
subcommands start without it, which keeps a short request's process
start cheap.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import gns, serialize
from .algebra import as_fraction
from .verify import SUITE_NAMES, run_suites


class InputError(Exception):
    """User-facing input problem; maps to exit code 2."""


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def _load_element(path: str):
    records = _load_json(path)
    if not isinstance(records, list):
        raise InputError(f"{path}: expected a list of term records")
    try:
        return serialize.element_from_records(records)
    except serialize.RecordError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _state_from_arg(text: str):
    try:
        return serialize.parse_state_arg(text)
    except serialize.RecordError as exc:
        raise InputError(str(exc)) from exc


def _grid_from_arg(text: str) -> list[Fraction]:
    try:
        grid = [as_fraction(part.strip()) for part in text.split(",") if part.strip()]
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad grid entry in {text!r}: {exc}") from exc
    if not grid:
        raise InputError("grid is empty")
    return grid


def _complex_record(value: complex) -> dict:
    return {"re": value.real, "im": value.imag}


def _cmd_product(args) -> int:
    left = _load_element(args.left)
    right = _load_element(args.right)
    json.dump(serialize.element_to_records(left * right), sys.stdout)
    sys.stdout.write("\n")
    return 0


def _cmd_eval_state(args) -> int:
    state = _state_from_arg(args.state)
    element = _load_element(args.element)
    value = state(element)
    json.dump(_complex_record(value), sys.stdout)
    sys.stdout.write("\n")
    return 0


def _cmd_gns_build(args) -> int:
    state = _state_from_arg(args.state)
    payload = _load_json(args.words)
    if not isinstance(payload, list) or not payload:
        raise InputError(f"{args.words}: expected a non-empty list of elements")
    try:
        words = [serialize.element_from_records(recs) for recs in payload]
    except serialize.RecordError as exc:
        raise InputError(f"{args.words}: {exc}") from exc

    omega = gns.cyclic_vector(state)
    vectors = [gns.gns_apply(word, omega) for word in words]
    gram = [[_complex_record(gns.gns_inner(u, v)) for v in vectors] for u in vectors]
    out = {
        "state": serialize.state_to_record(state),
        "norms": [gns.gns_norm(v) for v in vectors],
        "gram": gram,
    }
    reduced = [gns._reduction(v) for v in vectors]
    if reduced[0] is not None:  # a sharp state
        out["reductions"] = [[{"shift": str(key), "re": amp.real, "im": amp.imag}
                              for key, amp in sorted(r.amplitudes.items())] for r in reduced]
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


def _cmd_continuity_scan(args) -> int:
    state = _state_from_arg(args.state)
    grid = _grid_from_arg(args.grid)
    rows = gns.continuity_scan(state, args.direction, grid)
    serialize.scan_to_csv(rows, sys.stdout)
    return 0


def _cmd_mean(args) -> int:
    from . import schrodinger

    records = _load_json(args.polynomial)
    if not isinstance(records, list):
        raise InputError(f"{args.polynomial}: expected a list of coefficient records")
    try:
        poly = serialize.trig_from_records(records)
    except serialize.RecordError as exc:
        raise InputError(f"{args.polynomial}: {exc}") from exc

    exact = poly.invariant_mean()
    approx = schrodinger.mean_quadrature(poly, args.quadrature_n)
    bound = schrodinger.truncation_bound(poly, args.quadrature_n) + 1e-6
    gap = abs(approx - exact)
    print(f"exact mean:        {exact.real!r} {exact.imag!r}")
    print(f"truncated average: {approx.real!r} {approx.imag!r}  (N={args.quadrature_n:g})")
    print(f"difference:        {gap:.3e}  (analytic bound {bound:.3e})")
    if gap > bound:
        print("cross-check FAILED", file=sys.stderr)
        return 1
    return 0


def _cmd_verify(args) -> int:
    seed = args.seed
    env_seed = os.environ.get("WEYLREPS_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError as exc:
            raise InputError(f"WEYLREPS_SEED must be an integer, got {env_seed!r}") from exc
    print(f"seed {seed}")
    results = run_suites([args.suite], seed)
    failed = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        failed += 0 if result.passed else 1
        print(f"[{result.suite}] {result.name}: {status} ({result.detail})")
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylreps",
        description="Exact models of the exponentiated canonical pair: "
        "algebra products, state evaluation, cyclic builds, continuity "
        "scans, invariant means, and seeded verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("product", help="multiply two serialized elements")
    p.add_argument("left", help="JSON file with term records")
    p.add_argument("right", help="JSON file with term records")
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("eval-state", help="evaluate a state on an element")
    p.add_argument("--state", required=True, help="vacuum | position:p/q | momentum:p/q")
    p.add_argument("element", help="JSON file with term records")
    p.set_defaults(func=_cmd_eval_state)

    p = sub.add_parser("gns-build", help="Gram data of words applied to the cyclic vector")
    p.add_argument("--state", required=True, help="vacuum | position:p/q | momentum:p/q")
    p.add_argument("words", help="JSON file: list of elements (lists of term records)")
    p.set_defaults(func=_cmd_gns_build)

    p = sub.add_parser("continuity-scan", help="diagonal matrix elements along one family")
    p.add_argument("--state", required=True, help="vacuum | position:p/q | momentum:p/q")
    p.add_argument("--direction", required=True, choices=["U", "V"], help="which family")
    p.add_argument("--grid", required=True, help="comma-separated rationals, e.g. 0,1/8,1/64")
    p.set_defaults(func=_cmd_continuity_scan)

    p = sub.add_parser("mean", help="exact invariant mean with a quadrature cross-check")
    p.add_argument("polynomial", help="JSON file with coefficient records")
    p.add_argument("--quadrature-n", type=float, default=1000.0,
                   help="averaging half-length N (default 1000)")
    p.set_defaults(func=_cmd_mean)

    p = sub.add_parser("verify", help="run seeded property suites")
    p.add_argument("--suite", choices=list(SUITE_NAMES), default="all")
    p.add_argument("--seed", type=int, default=42,
                   help="RNG seed (overridden by WEYLREPS_SEED)")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
