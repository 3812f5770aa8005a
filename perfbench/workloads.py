"""The benchmark's four workloads: seeded inputs, one timed operation, checks.

Each workload builds all of its inputs from the seed alone, in a fixed
order, so two runs with one seed hand the program byte-identical inputs
(the manifest's ``sha256`` shows it).  Operations follow a fixed cycle; the
seed changes the labels and coefficients, never the mix, so every run
measures the same proportions of sizes, scales and state kinds.

``execute`` is the only timed part.  ``check`` returns ``None`` for a
correct output, else ``(failure_class, detail)``; ``KNOWN_DEFECTS`` names
the classes that are documented defects of the program at the commit that
defined this benchmark (see README.md).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from weylreps import TrigPolynomial, cli, gns, serialize, states
from weylreps.algebra import WeylElement, WeylIndex

import reference

CELL_TOL = 1e-12  # the package's coefficient budget
EIG_FLOOR = -1e-10  # check_positivity's validity bound

PHASE_ACCURACY = "phase-accuracy"
OVERFLOW = "oversized-rational"
KNOWN_DEFECTS = (PHASE_ACCURACY, OVERFLOW)


def _rational(rng: random.Random, scale: float, max_den: int = 12) -> Fraction:
    den = rng.randint(1, max_den)
    bound = int(scale * den)
    return Fraction(rng.randint(-bound, bound), den)


def _distinct(rng: random.Random, count: int, scale: float) -> list[Fraction]:
    values: list[Fraction] = []
    while len(values) < count:
        value = _rational(rng, scale)
        if value not in values:
            values.append(value)
    return values


def _coeff(rng: random.Random) -> complex:
    return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))


def _alphabet_words(rng: random.Random, n_words: int, scale: float) -> list[list]:
    """``n_words`` four-term words over a 4x4 generator alphabet.

    The alphabet has four translation labels b and four boost labels a, so
    two terms share a b (or an a) one time in four: sharp states see about
    3/4 of product terms evaluate to exact 0, yet off-diagonal cells are
    nonzero.
    """
    a_vals, b_vals = _distinct(rng, 4, scale), _distinct(rng, 4, scale)
    alphabet = [(a, b) for a in a_vals for b in b_vals]
    return [[(a, b, _coeff(rng)) for a, b in rng.sample(alphabet, 4)]
            for _ in range(n_words)]


def _element(terms) -> WeylElement:
    return WeylElement({WeylIndex(a, b): c for a, b, c in terms})


def _text(value) -> str:
    """Canonical text of generated data, for the manifest hash."""
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_text(v) for v in value) + "]"
    if isinstance(value, complex):
        return f"({value.real!r},{value.imag!r})"
    return str(value) if isinstance(value, Fraction) else repr(value)


class Workload:
    name = ""
    cycle_length = 1
    pool_cycles = 1

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(f"weylreps-bench/{self.name}/{seed}")
        self.workdir = workdir
        self.ops = [self.make_op(i) for i in range(self.cycle_length * self.pool_cycles)]

    def op(self, i: int):
        """The i-th operation; the pool repeats once it is exhausted."""
        return self.ops[i % len(self.ops)]

    @contextlib.contextmanager
    def session(self):
        """Context the operations run in; see GramWorkload."""
        yield

    def manifest(self) -> dict:
        digest = hashlib.sha256()
        for op in self.ops:
            digest.update(_text(op["data"]).encode())
            digest.update(b"\n")
        sizes: dict = {}
        for op in self.ops:
            key = "|".join(str(op[k]) for k in self.manifest_keys)
            sizes[key] = sizes.get(key, 0) + 1
        return {"operations": len(self.ops), "cycle_length": self.cycle_length,
                "mix (" + ",".join(self.manifest_keys) + ")": sizes,
                "sha256": digest.hexdigest()}


class GramWorkload(Workload):
    """states.check_positivity on a fresh seeded basis per operation.

    A cycle has one 64-word basis and 31 of 16 words.  A run fits about six
    cycles, so the 64-word operations stay well below the eleven that would
    put one at ``op_tail_ms`` (the 11th-largest sample).
    """

    cycle_length = 32
    pool_cycles = 10
    manifest_keys = ("words", "scale", "kind")

    def basis_shape(self, i: int):
        raise NotImplementedError

    def make_op(self, i: int) -> dict:
        n_words, scale, kind = self.basis_shape(i)
        words = _alphabet_words(self.rng, n_words, scale)
        parameter = None if kind == states.VACUUM else _rational(self.rng, scale)
        state = states.StateFunctional(kind, parameter)
        return {"words": n_words, "scale": scale, "kind": kind, "state": state,
                "basis": [_element(w) for w in words],
                "data": [kind, parameter, words], "reference": None}

    def warm_up(self) -> None:
        for kind, parameter in (("position", Fraction(1, 3)), ("momentum", Fraction(2)),
                                ("vacuum", None)):
            state = states.StateFunctional(kind, parameter)
            states.check_positivity(state, [_element(w) for w in
                                            _alphabet_words(random.Random(0), 4, 3)])

    @contextlib.contextmanager
    def session(self):
        """Keep each Gram matrix that check_positivity builds, for the checks.

        check_positivity returns only the minimum eigenvalue; the cells are
        taken from its call of the module-level ``states.gram_matrix``.
        """
        original = states.gram_matrix
        self.captured = []

        def capture(state, basis):
            gram = original(state, basis)
            self.captured.append(gram)
            return gram

        states.gram_matrix = capture
        try:
            yield
        finally:
            states.gram_matrix = original

    def execute(self, op):
        min_eig = states.check_positivity(op["state"], op["basis"])
        return min_eig, self.captured.pop()

    def check(self, op, result):
        min_eig, gram = result
        if op["reference"] is None:
            _, parameter, words = op["data"]
            op["reference"] = reference.gram_reference(op["kind"], parameter, words)
        expected, weights = op["reference"]
        hermitian_gap = float(np.max(np.abs(gram - gram.conj().T)))
        errors = np.abs(gram - expected)
        cell_error = float(np.max(errors))
        if hermitian_gap <= CELL_TOL and min_eig >= EIG_FLOOR and cell_error <= CELL_TOL:
            return None
        detail = (f"{op['words']} words, scale {op['scale']:g}, {op['kind']}: "
                  f"cell error {cell_error:.2e}, hermitian gap {hermitian_gap:.2e}, "
                  f"min eigenvalue {min_eig:.2e}")
        return (PHASE_ACCURACY if self.within_phase_envelope(op, errors, min_eig, hermitian_gap)
                else "gram"), detail

    @staticmethod
    def within_phase_envelope(op, errors, min_eig, hermitian_gap) -> bool:
        """Whether a failure is what ``phase(theta) = exp(i*float(theta))`` explains.

        Every phase of a Gram term has an angle of at most 2 L^2, with L the
        largest label or state parameter, and float(theta) is off by at most
        |theta| 2^-53; a term's three phases together by at most
        eps = 2 L^2 2^-52.  The envelope doubles that, caps it at 2 (a unit
        phase can be off by no more), and scales it by each cell's weights.
        Outside it, or at label scale 10, a failure is not this defect.
        """
        if op["scale"] < 10**4 or hermitian_gap > CELL_TOL:
            return False
        _, parameter, words = op["data"]
        largest = max([abs(parameter or 0)] + [max(abs(a), abs(b))
                                                for word in words for a, b, _ in word])
        eps = min(2.0, 4 * float(largest) ** 2 * 2.0**-52)
        envelope = op["reference"][1] * eps + CELL_TOL
        return bool(np.all(errors <= envelope)) and \
            min_eig >= EIG_FLOOR - float(np.linalg.norm(envelope))


class GramSharp(GramWorkload):
    name = "gram_sharp"
    _scales = {4: 10**4, 8: 10**8, 12: 10**4, 15: 10**8}

    def basis_shape(self, i: int):
        slot, cycle = i % self.cycle_length, i // self.cycle_length
        kind = ("position", "momentum")[(slot + cycle) % 2]
        return (64 if slot == 0 else 16), self._scales.get(slot % 16, 10), kind


class GramVacuum(GramWorkload):
    name = "gram_vacuum"

    def basis_shape(self, i: int):
        return (64 if i % self.cycle_length == 0 else 16), 3, states.VACUUM


class VerifyAll(Workload):
    """In-process ``weylreps verify --suite all --seed k``."""

    name = "verify_all"
    pool_cycles = 32
    manifest_keys = ("suite",)

    def make_op(self, i: int) -> dict:
        k = self.rng.randrange(2**31)
        return {"suite": "all", "argv": ["verify", "--suite", "all", "--seed", str(k)],
                "data": k}

    def warm_up(self) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["verify", "--suite", "oracle", "--seed", "0"])

    def execute(self, op):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(op["argv"])
        return code, out.getvalue()

    def check(self, op, result):
        code, text = result
        last = text.rstrip("\n").rsplit("\n", 1)[-1]
        passed, _, total = last.partition(" ")[0].partition("/")
        if code == 0 and last.endswith(" checks passed") and passed == total:
            return None
        return "verify", f"seed {op['data']}: exit {code}, {last!r}"

# The request mix of one cli_session cycle, in order.  The one gns-build
# alternates position and vacuum from cycle to cycle: with one slowest
# request per cycle, the 11th-largest latency (op_tail_ms) stays among the
# next-slowest requests whether a run fits four cycles or six.
CLI_CYCLE = ("product", "eval:position", "gns", "scan", "mean",
             "product", "eval:momentum", "malformed", "scan",
             "mean", "product", "eval:vacuum", "malformed", "oversized")
MALFORMED = ("bad-json", "bad-state", "bad-grid", "bad-record")


class CliSession(Workload):
    """One fresh ``python -m weylreps.cli`` process per operation."""

    name = "cli_session"
    cycle_length = len(CLI_CYCLE)
    pool_cycles = 8
    manifest_keys = ("request",)

    def __init__(self, seed: int, workdir: Path):
        self.files: dict[str, str] = {}
        self.malformed_seen = 0
        workdir.mkdir(parents=True, exist_ok=True)
        super().__init__(seed, workdir)
        for path, text in self.files.items():
            Path(path).write_text(text, encoding="utf-8")

    def _file(self, i: int, tag: str, payload) -> str:
        path = str(self.workdir / f"{i:04d}-{tag}.json")
        self.files[path] = payload if isinstance(payload, str) else json.dumps(payload)
        return path

    def _element_file(self, i, tag, n_terms):
        terms = [(a, b, _coeff(self.rng)) for a, b in
                 zip(_distinct(self.rng, n_terms, 10), _distinct(self.rng, n_terms, 10))]
        return self._file(i, tag, serialize.element_to_records(_element(terms)))

    def _state_arg(self, kind: str) -> str:
        return "vacuum" if kind == "vacuum" else f"{kind}:{_rational(self.rng, 10)}"

    def make_op(self, i: int) -> dict:
        request = CLI_CYCLE[i % self.cycle_length]
        if request == "gns":
            request += (":position", ":vacuum")[i // self.cycle_length % 2]
        verb, _, kind = request.partition(":")
        rng = self.rng
        expect, value = "reference", None
        if verb == "product":
            argv = ["product", self._element_file(i, "left", 30),
                    self._element_file(i, "right", 30)]
            ref_args = argv[1:]
        elif verb == "eval":
            argv = ["eval-state", "--state", self._state_arg(kind),
                    self._element_file(i, "element", 8)]
            ref_args = argv[2:]
        elif verb == "gns":
            words = [serialize.element_to_records(_element(w))
                     for w in _alphabet_words(rng, 16, 3 if kind == "vacuum" else 10)]
            argv = ["gns-build", "--state", self._state_arg(kind), self._file(i, "words", words)]
            ref_args = argv[2:]
        elif verb == "scan":
            grid = ",".join(str(_rational(rng, 2, 64)) for _ in range(64))
            argv = ["continuity-scan", "--state", self._state_arg(rng.choice(states.KINDS)),
                    "--direction", rng.choice("UV"), f"--grid={grid}"]
            ref_args = [argv[2], argv[4], grid]
        elif verb == "mean":
            coeffs = {Fraction(0): _coeff(rng)}
            while len(coeffs) < 5:
                coeffs[_rational(rng, 3, 8)] = _coeff(rng)
            poly = serialize.trig_to_records(TrigPolynomial(coeffs))
            argv = ["mean", self._file(i, "poly", poly), "--quadrature-n", "1000"]
            ref_args = argv[1:2]
        elif verb == "malformed":
            kind = MALFORMED[self.malformed_seen % len(MALFORMED)]
            self.malformed_seen += 1
            expect = "exit2"
            if kind == "bad-json":
                argv = ["product", self._file(i, "broken", '[{"a": "1/2", "b"'),
                        self._element_file(i, "element", 4)]
            elif kind == "bad-state":
                argv = ["eval-state", "--state", f"position:{rng.randint(1, 9)}/0",
                        self._element_file(i, "element", 4)]
            elif kind == "bad-grid":
                argv = ["continuity-scan", "--state", "vacuum", "--direction", "U",
                        "--grid", f"0,1/{rng.randint(2, 9)},x/3"]
            else:
                argv = ["eval-state", "--state", "vacuum", self._file(
                    i, "record", [{"a": "1/2", "b": "oops", "re": 1.0, "im": 0.0}])]
            request = f"malformed:{kind}"
        else:  # oversized: position:1 followed by 400 zeros, far beyond float range
            a = _rational(rng, 10) or Fraction(1, 3)
            element = self._file(i, "element", serialize.element_to_records(
                _element([(a, Fraction(0), 1.0 + 0j)])))
            lam = Fraction(10**400)
            argv = ["eval-state", "--state", f"position:{lam}", element]
            expect = "exit2-or-value"
            value = reference.exact_unit(a * lam)
        if expect != "reference":
            verb, ref_args = None, []
        prefix = f"{self.workdir}{os.sep}"
        return {"request": request, "argv": argv, "expect": expect, "value": value,
                "verb": verb, "ref_args": [self.files.get(a, a) for a in ref_args],
                "data": [[arg.replace(prefix, "") for arg in argv],
                         [self.files[arg] for arg in argv if arg in self.files]],
                "reference": None}

    def command(self, op, traced_spans: str | None = None) -> list[str]:
        if traced_spans is None:
            return [sys.executable, "-m", "weylreps.cli", *op["argv"]]
        bootstrap = str(Path(__file__).with_name("bootstrap.py"))
        return [sys.executable, bootstrap, traced_spans, *op["argv"]]

    def warm_up(self) -> None:
        self.execute(self.ops[0])

    def execute(self, op, traced_spans: str | None = None):
        proc = subprocess.run(self.command(op, traced_spans), capture_output=True,
                              text=True, env=child_env(), timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, op, result):
        code, out, err = result
        request = op["request"]
        one_line = err.count("\n") <= 1 and "Traceback" not in err
        if op["expect"] == "exit2":
            if code == 2 and one_line and err.startswith("error:"):
                return None
            return "cli", f"{request}: exit {code}, stderr {err[-200:]!r}"
        if op["expect"] == "exit2-or-value":
            # a refusal with exit 2, or the exact value
            if code == 2 and one_line and err.startswith("error:"):
                return None
            if code == 0 and abs(_complex_from(out) - op["value"]) <= CELL_TOL:
                return None
            return OVERFLOW, f"{request}: exit {code}, stderr tail {err[-120:]!r}"
        if op["reference"] is None:
            op["reference"] = library_result(op["verb"], op["ref_args"])
        try:
            matches = code == 0 and child_result(op["verb"], out) == op["reference"]
        except (ValueError, KeyError, TypeError, IndexError):
            matches = False
        if matches and "Traceback" not in err:
            return None
        return "cli", f"{request}: exit {code}, output differs from the in-process reference"


def _pair(value: complex) -> list[float]:
    return [value.real, value.imag]


def library_result(verb: str, args: list[str]):
    """What a request should print, computed in-process from the library.

    Inputs are parsed from the same files and strings the child reads, so
    both sides do the same floating-point work in the same order.
    """
    load = lambda text: serialize.element_from_records(json.loads(text))  # noqa: E731
    if verb == "product":
        return serialize.element_to_records(load(args[0]) * load(args[1]))
    if verb == "eval":
        value = serialize.parse_state_arg(args[0])(load(args[1]))
        return {"re": value.real, "im": value.imag}
    if verb == "gns":
        state = serialize.parse_state_arg(args[0])
        omega = gns.cyclic_vector(state)
        vectors = [gns.gns_apply(serialize.element_from_records(w), omega)
                   for w in json.loads(args[1])]
        result = {"state": serialize.state_to_record(state),
                  "norms": [gns.gns_norm(v) for v in vectors],
                  "gram": [[_pair(gns.gns_inner(u, v)) for v in vectors] for u in vectors]}
        if state.kind != states.VACUUM:
            reduce = gns.reduce_position if state.kind == states.POSITION \
                else gns.reduce_momentum
            result["reductions"] = [
                [{"shift": str(key), "re": amp.real, "im": amp.imag}
                 for key, amp in sorted(reduce(v).amplitudes.items())]
                for v in vectors]
        return result
    if verb == "scan":
        rows = gns.continuity_scan(serialize.parse_state_arg(args[0]), args[1],
                                   [Fraction(t) for t in args[2].split(",")])
        return [[str(t), value.real, value.imag] for t, value in rows]
    mean = serialize.trig_from_records(json.loads(args[0])).invariant_mean()
    return _pair(mean)


def child_result(verb: str, out: str):
    """The child's standard output, in the shape ``library_result`` returns."""
    if verb in ("product", "eval"):
        return json.loads(out)
    if verb == "gns":
        data = json.loads(out)
        data["gram"] = [[[c["re"], c["im"]] for c in row] for row in data["gram"]]
        return data
    if verb == "scan":
        rows = list(csv.reader(io.StringIO(out)))
        if rows[0] != ["parameter", "re", "im"]:
            raise ValueError("bad CSV header")
        return [[t, float(re), float(im)] for t, re, im in rows[1:]]
    label, re, im = out.splitlines()[0].rsplit(" ", 2)
    if label.strip() != "exact mean:":
        raise ValueError("bad mean output")
    return [float(re), float(im)]


def _complex_from(text: str) -> complex:
    try:
        value = json.loads(text)
        return complex(value["re"], value["im"])
    except (ValueError, KeyError, TypeError):
        return complex("nan")


def child_env() -> dict:
    """This process's environment, with the checkout's sources first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parent.parent)
    return env


WORKLOADS = {cls.name: cls for cls in (VerifyAll, GramSharp, GramVacuum, CliSession)}
