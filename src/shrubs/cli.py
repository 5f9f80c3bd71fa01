"""Command line front end.

Thin wrappers over the library: every subcommand prints exactly what the
corresponding library call returns, so results are byte-identical to direct
use.  Domain errors, and input deep enough to exhaust the interpreter's
recursion limit, exit 1 with the error class name on stderr; usage errors
exit 2.

Start-up cost is most of a one-shot command's time, so the module level
imports only ``core`` and ``errors``, and each subcommand imports the
library modules it runs: ``fraction`` and ``reconstruct`` never load
``checks``, ``anticyclic``, ``operad`` or ``zinbiel``.  This last paragraph
is left out of ``--help``.
"""

from __future__ import annotations

import argparse
import json
import sys

from .core import Shrub, enumerate_shrubs_bruteforce, parse_json
from .errors import ShrubError


def _load_shrub(path) -> Shrub:
    with open(path) as fh:
        return Shrub.from_json(fh.read())


def _load_signed(path):
    from .anticyclic import SignedShrub

    with open(path) as fh:
        return SignedShrub.from_json_dict(parse_json(fh.read()))


def _parse_label(text):
    return int(text) if text.isdigit() else text


def positive_int(text) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="shrubs", description=__doc__.rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a shrub JSON file")
    p.add_argument("shrub")

    p = sub.add_parser("enumerate", help="count (or list) shrubs on 1..n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--connected", action="store_true")
    p.add_argument("--up-to-iso", action="store_true")
    p.add_argument("--list", action="store_true", help="also print one JSON line per shrub")

    p = sub.add_parser("compose", help="substitute Q into vertex i of P")
    p.add_argument("P")
    p.add_argument("slot")
    p.add_argument("Q")

    p = sub.add_parser("fraction", help="canonical fraction text of a shrub")
    p.add_argument("shrub")

    p = sub.add_parser("zinbiel", help="sum of compatible orders of a shrub")
    p.add_argument("shrub")

    p = sub.add_parser("decompose", help="generator word of a shrub (JSON)")
    p.add_argument("shrub")

    p = sub.add_parser("evaluate", help="evaluate a generator word JSON file")
    p.add_argument("word")

    p = sub.add_parser("reconstruct", help="rebuild the shrub of a fraction text file")
    p.add_argument("fraction")

    p = sub.add_parser("act", help="apply a permutation of 0..n to a signed shrub")
    p.add_argument("perm", help="one-line notation, e.g. 1,0,2")
    p.add_argument("signed_shrub")

    p = sub.add_parser("orbit", help="orbit and invariant of a signed shrub")
    p.add_argument("signed_shrub")
    p.add_argument("--cap", type=int, default=5)

    p = sub.add_parser("check", help="run a property suite")
    p.add_argument("--suite", default="all")
    p.add_argument("--max-n", type=positive_int, default=5)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("dot", help="DOT drawing of a shrub")
    p.add_argument("shrub")
    return parser


def _cmd_enumerate(args) -> int:
    out = enumerate_shrubs_bruteforce(args.n)
    if args.connected:
        out = [P for P in out if P.is_connected()]
    if args.up_to_iso:
        out = sorted({P.canonical_form()[0] for P in out}, key=Shrub.sort_key)
    if args.list:
        for P in out:
            print(P.to_json())
    print(len(out))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            _load_shrub(args.shrub)
            print("valid")
        elif args.command == "enumerate":
            return _cmd_enumerate(args)
        elif args.command == "compose":
            from .operad import compose

            result = compose(_load_shrub(args.P), _parse_label(args.slot), _load_shrub(args.Q))
            print(result.to_json())
        elif args.command == "fraction":
            from .mould import format_fraction, fraction_of_shrub

            print(format_fraction(fraction_of_shrub(_load_shrub(args.shrub))))
        elif args.command == "zinbiel":
            from .zinbiel import gamma

            print(gamma(_load_shrub(args.shrub)).text())
        elif args.command == "decompose":
            from .operad import decompose

            print(decompose(_load_shrub(args.shrub)).to_json())
        elif args.command == "evaluate":
            from .operad import GenWord, evaluate

            with open(args.word) as fh:
                print(evaluate(GenWord.from_json(fh.read())).to_json())
        elif args.command == "reconstruct":
            from .mould import parse_fraction
            from .reconstruction import reconstruct

            with open(args.fraction) as fh:
                print(reconstruct(parse_fraction(fh.read())).to_json())
        elif args.command == "act":
            from .anticyclic import act

            tokens = tuple(args.perm.replace(",", " ").split())
            try:
                sigma = tuple(map(int, tokens))
            except ValueError:  # act rejects the tokens and names them
                sigma = tokens
            result = act(sigma, _load_signed(args.signed_shrub))
            print(json.dumps(result.to_json_dict()))
        elif args.command == "orbit":
            from .anticyclic import orbit, orbit_invariant

            x = _load_signed(args.signed_shrub)
            orb = orbit(x, cap=args.cap)
            inv = orbit_invariant(x)
            print(
                json.dumps(
                    {
                        "orbit": [y.to_json_dict() for y in orb],
                        "invariant": [list(inv[0]), list(inv[1])],
                    }
                )
            )
        elif args.command == "check":
            from . import checks

            rows = checks.run_suite(args.suite, max_n=args.max_n, seed=args.seed)
            failed = 0
            for name, ok, detail in rows:
                print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
                failed += 0 if ok else 1
            return 1 if failed else 0
        elif args.command == "dot":
            sys.stdout.write(_load_shrub(args.shrub).to_dot())
    except (ShrubError, OSError, ValueError, RecursionError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
