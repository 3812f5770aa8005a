"""Command line surface.

Subcommands: ``product``, ``eval-state``, ``gns-build``, ``continuity-scan``,
``mean``, ``verify``.  Exit codes: 0 all checks pass, 1 a property check
failed, 2 usage or parse error.  Every refusal of input is a ``ValueError``
(``serialize.RecordError`` included), which ``main`` prints as one
``error:`` line.  The environment variable ``WEYLREPS_SEED`` overrides
``--seed`` wherever randomness is involved, and the effective seed is always
printed so failures reproduce exactly.

Each request is a fresh process, so all it loads before computing is paid
on every request.  This module imports only ``serialize`` and ``algebra``;
each subcommand imports the modules it computes with where it runs and
calls them by module attribute (``LOADED`` in ``tests/test_cli.py`` lists
them).  Only ``verify`` computes with numpy, and imports
``weylreps.verify``: ``--suite`` takes its choices from ``SUITE_NAMES``
here, which a test keeps equal to the registry's.  Each JSON result is
written from one ``json.dumps`` string: ``json.dump`` to a stream bypasses
the C encoder.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import serialize
from .algebra import as_float, as_fraction

#: ``verify.SUITE_NAMES``, written out so that parsing does not load ``verify``
SUITE_NAMES = ("algebra", "reps", "gns", "ap", "oracle", "all")


def _load_records(path: str, read):
    """``read`` applied to the JSON value in a file; each refusal names the file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            records = json.load(handle)
        return read(records)
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:  # nested past the recursion limit of json.load
        raise ValueError(f"{path}: nested too deeply to read") from exc
    except ValueError as exc:  # not UTF-8, serialize.RecordError, or a value the command refuses
        raise ValueError(f"{path}: {exc}") from exc


def _grid_from_arg(text: str) -> list[Fraction]:
    """The entries of ``--grid``; ``gns.continuity_scan`` refuses an empty grid."""
    try:
        return [serialize._fraction_from(part.strip()) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ValueError(f"bad grid entry in {serialize._shown(text)}: {exc}") from exc


def _complex_record(value: complex) -> dict:
    return {"re": value.real, "im": value.imag}


def _write_json(value) -> None:
    """Write ``value`` as one line from one ``json.dumps`` string, the C encoder;
    JSON holds no inf or nan, so a result with one is refused and nothing is written."""
    try:
        text = json.dumps(value, allow_nan=False)
    except ValueError:
        raise ValueError("cannot write the result: a number in it is inf or nan") from None
    sys.stdout.write(text + "\n")


def _cmd_product(args) -> int:
    left = _load_records(args.left, serialize.element_from_records)
    right = _load_records(args.right, serialize.element_from_records)
    _write_json(serialize.element_to_records(left * right))
    return 0


def _cmd_eval_state(args) -> int:
    state = serialize.parse_state_arg(args.state)
    element = _load_records(args.element, serialize.element_from_records)
    _write_json(_complex_record(state(element)))
    return 0


def _elements(payload) -> list:
    """The words of a ``gns-build`` file: a non-empty list of elements."""
    if not isinstance(payload, list) or not payload:
        raise ValueError(f"expected a non-empty list of elements, got {serialize._shown(payload)}")
    return [serialize.element_from_records(records) for records in payload]


def _cmd_gns_build(args) -> int:
    from . import gns

    state = serialize.parse_state_arg(args.state)
    words = _load_records(args.words, _elements)
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
        out["reductions"] = [[{"shift": serialize._rational_text(key, "shift"),
                               "re": amp.real, "im": amp.imag}
                              for key, amp in sorted(r.amplitudes.items())] for r in reduced]
    _write_json(out)
    return 0


def _cmd_continuity_scan(args) -> int:
    from . import gns

    state = serialize.parse_state_arg(args.state)
    grid = _grid_from_arg(args.grid)
    rows = gns.continuity_scan(state, args.direction, grid)
    serialize.scan_to_csv(rows, sys.stdout)
    return 0


def _oracle_polynomial(records):
    """The polynomial, refused unless the oracle can take each frequency and 1/frequency."""
    poly = serialize.trig_from_records(records)
    for freq in poly.coefficients:
        if freq:
            as_float(freq, "frequency")
            as_float(1 / as_fraction(freq), "1/frequency")
    return poly


def _cmd_mean(args) -> int:
    from . import schrodinger

    poly = _load_records(args.polynomial, _oracle_polynomial)

    exact = poly.invariant_mean()
    approx = schrodinger.mean_quadrature(poly, args.quadrature_n)
    bound = schrodinger.truncation_bound(poly, args.quadrature_n) + schrodinger.QUADRATURE_SLACK
    gap = abs(approx - exact)
    print(f"exact mean:        {exact.real!r} {exact.imag!r}")
    print(f"truncated average: {approx.real!r} {approx.imag!r}  (N={args.quadrature_n:g})")
    print(f"difference:        {gap:.3e}  (analytic bound {bound:.3e})")
    if not gap <= bound:  # a nan gap fails, as in the registry's mean_truncation
        print("cross-check FAILED", file=sys.stderr)
        return 1
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_suites

    seed = args.seed
    env_seed = os.environ.get("WEYLREPS_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError as exc:
            raise ValueError(
                f"WEYLREPS_SEED must be an integer, got {serialize._shown(env_seed)}") from exc
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


def _grid_joined(argv: list[str]) -> list[str]:
    """Each ``--grid VALUE`` as one word ``--grid=VALUE``: argparse takes a word
    such as ``-1/2,0`` for an option, not for the value before it."""
    words = list(argv)
    for i in range(len(words) - 2, -1, -1):
        if words[i] == "--grid":
            words[i:i + 2] = ["--grid=" + words[i + 1]]
    return words


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_grid_joined(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
