"""Command-line interface.

Subcommands: certify p6 | p5 | generic, verify <report>, info p6 | p5.
Exit codes: 0 certified / verified, 1 certification failed, 2 input or parse
error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from functools import cache

from .certify import certify_generic, certify_p5, certify_p6
from .errors import InputError, InternalError, StructuralError
from .io import builtin_subject, load_document
from .report import BUILTINS, MODES, emit_report
from .schema import INPUTS
from .verify import verify_report_file

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument(
        "--seed", type=int, default=0,
        help="recorded in the report's seeds.root; it steers nothing",
    )
    parser.add_argument(
        "--format", choices=("text", "structured"), default="text",
        help="report format (structured = canonical JSON)",
    )
    parser.add_argument(
        "--output", type=str, default=None, help="write the report to a file"
    )
    parser.add_argument(
        "--parallel", type=int, default=1, help="worker processes (default 1)"
    )
    parser.add_argument(
        "--timings", action="store_true",
        help="add wall-clock timings to the report, text or structured "
             "(off by default so reports are byte-reproducible)",
    )


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="morsecert",
        description="Machine-checked certificates for combinatorial "
                    "circle-valued Morse functions on right-angled polytopes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    certify = sub.add_parser("certify", help="run a certification pipeline")
    csub = certify.add_subparsers(dest="subject", required=True)
    for subject in BUILTINS:
        p = csub.add_parser(subject, help=f"certify the built-in {subject} system")
        _add_common(p)
    g = csub.add_parser("generic", help="certify user-supplied inputs")
    g.add_argument("--polytope", required=True, help="polytope JSON file")
    g.add_argument("--moves", required=True, help="moves JSON file")
    g.add_argument("--state", required=True, help="initial state JSON file")
    g.add_argument(
        "--mode", choices=MODES, default="perfect",
        help="pass criterion: all-Regular, or Regular plus Critical",
    )
    _add_common(g)

    v = sub.add_parser("verify", help="re-validate a structured report")
    v.add_argument("report", help="structured report file")

    info = sub.add_parser("info", help="print structural facts")
    info.add_argument("subject", choices=tuple(BUILTINS))
    return parser


def _emit(cert, args) -> None:
    text = emit_report(cert, args.format, include_timings=args.timings)
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write report to {args.output}: {exc.strerror}") from exc
        print(f"report written to {args.output}")
        print(cert.summary_line())
    else:
        sys.stdout.write(text)


def _cmd_certify(args) -> int:
    if args.subject == "p6":
        cert = certify_p6(seed=args.seed, parallel=args.parallel)
    elif args.subject == "p5":
        cert = certify_p5(seed=args.seed, parallel=args.parallel)
    else:
        inputs = {key: load_document(getattr(args, key), schema)
                  for key, schema in INPUTS.fields.items()}
        cert = certify_generic(inputs, mode=args.mode, seed=args.seed, parallel=args.parallel)
    _emit(cert, args)
    return EXIT_OK if cert.passed else EXIT_FAILED


def _cmd_verify(args) -> int:
    ok, messages = verify_report_file(args.report)
    if ok:
        print("report verified: all certificates replay")
        return EXIT_OK
    for msg in messages[:50]:
        print("FAIL:", msg)
    if len(messages) > 50:
        print(f"... and {len(messages) - 50} more")
    return EXIT_FAILED


def _cmd_info(args) -> int:
    S = builtin_subject(args.subject)
    P = S.P
    print(f"{P.name}: dimension {P.dimension}, {len(P.facets)} facets, "
          f"{len(P.ideal_vertices)} ideal vertices")
    counts = [P.clique_count(k) for k in range(1, P.dimension + 2)]
    print(f"clique counts by size 1..{P.dimension + 1}: {counts}")
    degs = sorted({P.degree(f) for f in P.facet_ids})
    print(f"facet degrees: {degs}")
    print(f"moves: sizes {[len(b) for b in S.m.blocks]}")
    print(f"balanced states: {len(S.states)}")
    for iv in P.ideal_vertices[:3]:
        print(f"  ideal vertex {iv.id}: {len(iv.incident)} incident facets")
    if len(P.ideal_vertices) > 3:
        print(f"  ... and {len(P.ideal_vertices) - 3} more")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "certify":
            return _cmd_certify(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "info":
            return _cmd_info(args)
        raise InputError(f"unknown command {args.command!r}")
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (InternalError, StructuralError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
