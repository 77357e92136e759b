"""Command-line front end: JSON in, JSON out.

Subcommands: construct, quadratic, degree-n, verify, cross-check;
quadratic runs as degree-n at n = 2, plus --a1.  The input document
comes from --input PATH or stdin; results go to stdout, diagnostics to
stderr.  Exit codes are a stable contract:

    0   success
    1   verification found nonzero residuals / cross-check disagreement
    2   construction obstructed (non-invertible, nonzero evaluation)
    3   no polynomial of the requested shape exists
    64  malformed input (JSON or argument syntax, JSON nested too deeply
        to decode, a matrix row that is not an array, an integer literal
        over Python's int/str digit limit, or a rational literal whose
        numerator or denominator as written would be over it)
    65  semantic error (ring mismatch, equal roots, wrong ring kind, a
        limit exceeded: prime modulus, degree over MAX_DEGREE, a verify
        polynomial of degree over MAX_DEGREE, a construct document of
        more than MAX_ROOTS elements, a cross-check over
        MAX_ENUMERATION ring elements or coefficient tuples per pair or
        over MAX_CROSS_CHECK_WORK pair-tuple checks, or a result number
        with more digits than Python's int/str conversion limit)
    70  internal error (an unexpected exception; EX_SOFTWARE)
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import NamedTuple

from .construct import construct_with_roots, verify_roots
from .errors import DomainError, MismatchError, ParseError
from .existence import MAX_DEGREE, constant_term, degree_n_existence
from .polynomials import Polynomial
from .rings import MatrixRing, Ring, ring_from_json

EX_OK = 0
EX_RESIDUAL = 1
EX_OBSTRUCTED = 2
EX_NOT_FOUND = 3
EX_PARSE = 64
EX_SEMANTIC = 65
EX_SOFTWARE = 70

# Most roots a construct document may give.  The result's degree is at
# most the root count, so verify accepts every polynomial construct
# emits.  The library's construct_with_roots stays unlimited.
MAX_ROOTS = MAX_DEGREE


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse's default error path exits with code 2, which this tool
    # reserves for obstructed constructions; route usage errors to 64.
    def error(self, message):
        raise _UsageError(message)


class JobSpec(NamedTuple):
    """Decoded input document for one command."""

    command: str
    ring: Ring | None
    elements: tuple
    polynomial: Polynomial | None
    n: int | None


def _decode_json(text: str):
    """The value of the JSON `text`, or ParseError for bad JSON, an integer
    over the digit limit (both ValueError), or arrays or objects nested too
    deeply to decode (RecursionError)."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(str(exc)) from exc


def _read_document(args):
    if args.input:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    return _decode_json(text)


def _decode_elements(ring, document, exactly=None):
    raw = document.get("elements")
    if exactly is not None:
        if not isinstance(raw, list) or len(raw) != exactly:
            raise ParseError(f"'elements' must be an array of exactly {exactly} entries")
    elif not isinstance(raw, list) or not raw:
        raise ParseError("'elements' must be an array of at least 1 entries")
    return tuple(ring.element_from_json(e) for e in raw)


def _decode_polynomial(obj, ring) -> Polynomial:
    """The verify polynomial, of degree at most MAX_DEGREE.  Entries above
    index MAX_DEGREE are read from the top down: one that is the ring's
    canonical zero encoding is skipped undecoded, any other is decoded,
    and the first nonzero one raises DomainError before anything below it
    is decoded."""
    raw = obj.get("coefficients") if isinstance(obj, dict) else None
    if isinstance(raw, list) and len(raw) > MAX_DEGREE + 1:
        ring = Polynomial.from_json({**obj, "coefficients": []}, ring=ring).ring
        zero = ring.element_to_json(ring.zero)
        for degree in range(len(raw) - 1, MAX_DEGREE, -1):
            entry = raw[degree]
            if not _is_exactly(entry, zero) and not ring.is_zero(ring.element_from_json(entry)):
                raise DomainError(f"polynomial degree {degree} is above the limit "
                                  f"of {MAX_DEGREE} (MAX_DEGREE)")
        obj = {**obj, "coefficients": raw[: MAX_DEGREE + 1]}
    return Polynomial.from_json(obj, ring=ring)


def _is_exactly(value, encoding) -> bool:
    """value == encoding with equal types throughout: JSON 0.0 and false
    compare equal to 0 in Python, yet only the decoder may judge them."""
    if type(value) is not type(encoding):
        return False
    if type(value) is list:
        return len(value) == len(encoding) and all(map(_is_exactly, value, encoding))
    return value == encoding


def parse_job(command: str, document, n_flag=None) -> JobSpec:
    if not isinstance(document, dict):
        raise ParseError("the input document must be a JSON object")
    n = n_flag if n_flag is not None else document.get("n")
    if n is not None and type(n) is not int:  # bool is an int subclass; JSON true is not
        raise ParseError("'n' must be an integer")

    polynomial = None
    ring = None
    if "ring" in document:
        ring = ring_from_json(document["ring"])

    if command == "verify":
        if "polynomial" not in document:
            raise ParseError("verify needs a 'polynomial' entry")
        polynomial = _decode_polynomial(document["polynomial"], ring)
        ring = polynomial.ring
        elements = _decode_elements(ring, document)
    elif ring is None:
        raise ParseError(f"{command} needs a 'ring' entry")
    elif command == "cross-check":
        elements = ()
    elif command in ("quadratic", "degree-n"):
        elements = _decode_elements(ring, document, exactly=2)
    else:
        raw = document.get("elements")
        if isinstance(raw, list) and len(raw) > MAX_ROOTS:
            raise DomainError(f"{len(raw)} elements are above the limit of {MAX_ROOTS} (MAX_ROOTS)")
        elements = _decode_elements(ring, document)

    return JobSpec(command, ring, elements, polynomial, n)


def _emit(obj, pretty: bool):
    if pretty:
        print(json.dumps(obj, indent=2))
    else:
        print(json.dumps(obj, separators=(",", ":")))


def cmd_construct(job: JobSpec, args) -> int:
    trace = construct_with_roots(job.elements, exact_degree=args.exact_degree)
    if args.trace or not trace.succeeded:
        trace_json = trace.to_json()
        out = {"polynomial": trace_json["result"], "trace": trace_json}
    else:
        out = {"polynomial": trace.result.to_json()}
    if trace.succeeded and args.verify:
        residuals = verify_roots(trace.result, job.elements)
        out["residuals"] = [job.ring.element_to_json(r) for r in residuals]
    _emit(out, args.pretty)
    if not trace.succeeded:
        failed = trace.failed_step
        print(
            f"construction obstructed at step {failed.index}: "
            "evaluation value is nonzero and not invertible",
            file=sys.stderr,
        )
        return EX_OBSTRUCTED
    return EX_OK


def _require_matrix_ring(job: JobSpec):
    if not isinstance(job.ring, MatrixRing):
        raise MismatchError(f"{job.command} needs a matrix ring, got {job.ring!r}")


def cmd_criterion(job: JobSpec, args) -> int:
    """quadratic and degree-n.  quadratic is degree-n at n = 2, and its
    --a1 replaces the solver's a1 if it satisfies the coefficient equation."""
    _require_matrix_ring(job)
    n = 2 if job.command == "quadratic" else job.n
    if n is None:
        raise ParseError("degree-n needs --n or an 'n' entry in the document")
    report = degree_n_existence(job.elements[0], job.elements[1], n)
    if getattr(args, "a1", None) is not None:
        a1 = job.ring.element_from_json(_decode_json(args.a1))
        report = report._replace(coefficients=(a1,), a0=constant_term((a1,), *job.elements, 2))
    _emit(report.to_json(), args.pretty)
    return EX_OK if report.exists else EX_NOT_FOUND


def cmd_verify(job: JobSpec, args) -> int:
    residuals = verify_roots(job.polynomial, job.elements)
    ring = job.polynomial.ring
    all_zero = not any(residuals)
    _emit(
        {"residuals": [ring.element_to_json(r) for r in residuals], "all_zero": all_zero},
        args.pretty,
    )
    return EX_OK if all_zero else EX_RESIDUAL


def cmd_cross_check(job: JobSpec, args) -> int:
    _require_matrix_ring(job)
    if job.n is None:
        raise ParseError("cross-check needs --n or an 'n' entry in the document")
    from .oracle import cross_check_criterion  # only this command loads the oracle

    report = cross_check_criterion(job.ring, job.n)
    for record in report.to_json_lines():
        print(json.dumps(record, separators=(",", ":")))
    print(json.dumps(report.summary()), file=sys.stderr)
    return EX_OK if not report.disagreements else EX_RESIDUAL


_COMMANDS = {
    "construct": cmd_construct,
    "quadratic": cmd_criterion,
    "degree-n": cmd_criterion,
    "verify": cmd_verify,
    "cross-check": cmd_cross_check,
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ringroots",
        description="Polynomials with prescribed right roots over non-commutative rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", metavar="PATH", help="read the JSON document from PATH instead of stdin")
        p.add_argument("--pretty", action="store_true", help="indent the JSON output")

    p = sub.add_parser("construct", help="build a monic polynomial with the given roots")
    common(p)
    p.add_argument("--trace", action="store_true", help="include the per-step construction trace")
    p.add_argument("--verify", action="store_true", help="append per-root residuals")
    p.add_argument("--exact-degree", action="store_true", dest="exact_degree",
                   help="pad with x so the degree equals the number of roots")

    p = sub.add_parser("quadratic", help="existence test for a monic quadratic with two roots")
    common(p)
    p.add_argument("--a1", metavar="JSON", help="use this a1 instead of the solver's choice")

    p = sub.add_parser("degree-n", help="existence test for a monic degree-n polynomial with two roots")
    common(p)
    p.add_argument("--n", type=int, help="target degree (>= 2)")

    p = sub.add_parser("verify", help="evaluate a polynomial at the given elements")
    common(p)

    p = sub.add_parser("cross-check", help="compare the rank criterion with exhaustive search")
    common(p)
    p.add_argument("--n", type=int, help="target degree (>= 2)")

    return parser


_PARSER = build_parser()


def _over_digit_limit(exc: ValueError) -> bool:
    # CPython raises a plain ValueError with this wording when an int has
    # more decimal digits than sys.get_int_max_str_digits() allows.
    return "integer string conversion" in str(exc)


def main(argv=None) -> int:
    try:
        return _run(argv)
    except Exception as exc:  # any defect still ends in a documented exit code
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EX_SOFTWARE


def _run(argv) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_PARSE

    try:
        document = _read_document(args)
    # ValueError: input that is not UTF-8; ParseError: see _decode_json
    except (OSError, ValueError, ParseError) as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return EX_PARSE

    try:
        job = parse_job(args.command, document, getattr(args, "n", None))
        return _COMMANDS[args.command](job, args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_PARSE
    except (MismatchError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_SEMANTIC
    except ValueError as exc:
        if not _over_digit_limit(exc):
            raise
        print(
            "error: a number in the result has more decimal digits than the "
            f"int/str conversion limit of {sys.get_int_max_str_digits()} digits",
            file=sys.stderr,
        )
        return EX_SEMANTIC


if __name__ == "__main__":
    sys.exit(main())
