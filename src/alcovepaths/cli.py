"""
Command-line front end.

Subcommands expose the graph builder, beta sequences, path enumeration,
specializations, characters and dimensions, and ``verify``, which runs the
checkers of ``alcovepaths.identities`` on the small-rank cases listed in
``identities.SUITES``.  Each subcommand accepts only the ``--format``
values it prints (``dims`` has none).  All output is deterministic for a
fixed invocation.  ``qbg`` and ``paths`` hand their one exporter
``sys.stdout`` as it is at the call, so a redirect is followed, and it
writes each vertex, edge or path record as it is made.

The CLI checks only what the library cannot see: the ``--type`` and
integer-list syntax, a missing ``--weight``, a non-reduced word, the
formats a command prints, and the suite names.  Every other rule on an
input (a weight's rank and sign, the letters of ``--sigma`` and
``--word``, the ``beta --index`` range, a type of no simple kind) is the
library's, which refuses with ``ValueError``; ``main`` prints either
refusal's message as ``error: <message>`` on stderr.

Exit codes: 0 success, 2 a refused argument (``ValueError``, from the
CLI's syntax checks or the library, or an ``argparse`` usage error), 3 a
size cap exceeded (the group order, or the translation length of
``char``, ``dims`` and ``emac``), 4 identity-verification failure, 141
stdout closed before the output was written (as ``| head`` does; the
status a shell reports for a writer cut off by SIGPIPE), with nothing on
stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from . import lattice
from .lattice import RootDatum
from . import weylgroup as wg
from . import affine as af
from . import qbg
from . import paths as pth
from . import genfun as gf
from . import macdonald as mac
from . import identities as ids

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_IDENTITY = 4
EXIT_PIPE = 141

# the longest l(t_lam) whose fold walk char, dims and emac run: a dims run
# at 64 takes 0.4 s in A1 and 2-3 s in A2, and its time grows fast beyond
TRANSLATION_LENGTH_CAP = 64


class TranslationLengthCapExceeded(RuntimeError):
    """A ``--weight`` whose translation is longer than
    ``TRANSLATION_LENGTH_CAP``; ``main`` exits with ``EXIT_CAP``."""


def _parse_type(s: str, whole_group: bool = True) -> RootDatum:
    """The root datum of ``--type``; with ``whole_group``, a type whose W is
    over the group size cap is refused before its datum is built."""
    m = re.fullmatch(r"([A-G])(\d+)", s.strip())
    if not m:
        raise ValueError(f"bad --type {s!r}; expected e.g. A2, C3, G2")
    family, rank = m.group(1), int(m.group(2))
    lattice.check_type(family, rank)
    if whole_group:
        wg.check_group_size(family, rank)
    return lattice.build_datum(family, rank)


def _parse_ints(s: str) -> tuple:
    s = s.strip()
    if not s:
        return ()
    try:
        return tuple(int(x) for x in s.split(","))
    except ValueError:
        raise ValueError(f"bad integer list {s!r}") from None


def _inputs(args):
    """``(datum, weight, sigma)``: the datum of ``--type`` (over the group
    size cap refused first), the ``--weight`` of the rank or None, and the
    element of the reduced ``--sigma`` word (the identity if none)."""
    datum, weight = _parse_type(args.type), args.weight
    if weight is not None:
        weight = _parse_ints(weight)
        datum.check_rank(weight)
    word = _parse_ints(getattr(args, "sigma", None) or "")
    sigma = wg.from_word(datum, word)
    if wg.length(sigma) != len(word):
        raise ValueError(f"sigma word is not reduced: {word}")
    return datum, weight, sigma


def _antidominant(datum: RootDatum, weight, missing="need --weight") -> tuple:
    if weight is None:
        raise ValueError(missing)
    datum.check_antidominant(weight)
    return weight


def _walk_weight(datum: RootDatum, weight) -> None:
    """Refuse a ``--weight`` that is not anti-dominant, or whose ``l(t_lam)``
    is over ``TRANSLATION_LENGTH_CAP``, before the graph is built."""
    n = af.length_ext(af.translation(datum, _antidominant(datum, weight)))
    if n > TRANSLATION_LENGTH_CAP:
        raise TranslationLengthCapExceeded(
            f"l(t_lam) = {n} at lam = {weight} exceeds the translation "
            f"length cap {TRANSLATION_LENGTH_CAP}")


def _print_poly(poly, fmt: str) -> None:
    if fmt == "json":
        print(gf.to_json(poly))
    else:
        print(repr(poly))


def cmd_qbg(args) -> int:
    graph = qbg.build(_parse_type(args.type))
    # looked up on the module at each call, so a wrapper put there (as
    # perfbench's tracer does) is the one called
    getattr(qbg, f"export_{args.format}")(graph, sys.stdout)
    return EXIT_OK


def cmd_beta(args) -> int:
    # the layout needs no graph, so this also works where W is too large
    datum = _parse_type(args.type, whole_group=False)
    betas = af.canonical_beta_order(datum, args.index)
    if args.format == "json":
        print(json.dumps([{"re": list(b.re), "deg": b.deg} for b in betas]))
    else:
        for b in betas:
            print(f"{list(b.re)} + {b.deg}*delta")
    return EXIT_OK


def cmd_paths(args) -> int:
    datum, weight, sigma = _inputs(args)
    if args.word is not None:  # overrides --weight
        word = _parse_ints(args.word)
        w = af.from_word_ext(datum, word)
        if len(word) != af.length_ext(w):
            raise ValueError(f"word is not reduced: {word}")
    else:
        w = af.translation(datum, _antidominant(datum, weight, "need --weight or --word"))
        _, word = af.reduced_word_ext(datum, w)
    z0 = af.multiply(af.ExtAffineElt((0,) * datum.rank, sigma), w)
    betas = af.beta_sequence(datum, word)
    graph = qbg.build(datum)
    if args.reversed:
        graph = graph.reversed
    pth.export(pth.enumerate_paths(graph, z0, betas), args.format, sys.stdout)
    return EXIT_OK


def cmd_emac(args) -> int:
    datum, weight, _ = _inputs(args)
    _walk_weight(datum, weight)
    if args.spec == "both" and args.format not in (None, "json"):
        raise ValueError("--spec both prints JSON; --format table is not "
                       "implemented")
    graph = qbg.build(datum)
    try:
        if args.spec == "zero":
            poly = mac.e_zero(datum, graph, weight)
        elif args.spec == "infinity":
            poly = mac.e_infinity(datum, graph, weight)
        else:
            report = mac.specialization_report(graph, weight)
            print(report.to_json())
            return EXIT_OK if report.agree else EXIT_IDENTITY
    except mac.SpecializationMismatch as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_IDENTITY
    _print_poly(poly, args.format)
    return EXIT_OK


def cmd_char(args) -> int:
    """``char`` prints the character, ``dims`` its value at x = q = 1."""
    datum, weight, sigma = _inputs(args)
    _walk_weight(datum, weight)
    graph = qbg.build(datum)
    if args.command == "dims":
        print(mac.weyl_dimension(graph, sigma, weight))
    else:
        _print_poly(mac.weyl_character(graph, sigma, weight), args.format)
    return EXIT_OK


def cmd_verify(args) -> int:
    names = sorted(ids.SUITES)
    if args.suites is not None:  # each named suite runs once, in first-seen order
        names = list(dict.fromkeys(args.suites.split(",")))
    for name in names:
        if name not in ids.SUITES:
            raise ValueError(f"unknown suite {name!r}; have {sorted(ids.SUITES)}")
    failures: list = []
    for name in names:
        checker, cases = ids.SUITES[name]
        for family, rank, *inputs in cases:
            graph = qbg.build(lattice.build_datum(family, rank))
            for failure in checker(graph, *inputs):
                failures.append({"suite": name, **failure})
    print(json.dumps({
        "suites": names, "ok": not failures, "failures": failures,
    }))
    return EXIT_OK if not failures else EXIT_IDENTITY


def _add_common(p, formats=("table", "json"), weight=True, sigma=False):
    p.add_argument("--type", required=True, help="simple type, e.g. A2")
    if formats:
        p.add_argument("--format", default="table", choices=formats)
    if weight:
        p.add_argument("--weight", default=None,
                       help="comma-separated fundamental coordinates")
    if sigma:
        p.add_argument("--sigma", default=None,
                       help="reduced word of the finite twist, e.g. 1,2")


@functools.cache  # built once per process; parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="alcovepaths",
        description="Quantum Bruhat graphs, folded alcove paths, and "
                    "specialized Macdonald polynomials.",
    )
    sp = ap.add_subparsers(dest="command", required=True)

    p = sp.add_parser("qbg", help="build and export the graph")
    _add_common(p, ("table", "json", "dot"), weight=False)
    p.set_defaults(func=cmd_qbg)

    p = sp.add_parser("beta", help="canonical coroot sequence of a fundamental")
    _add_common(p, weight=False)
    p.add_argument("--index", type=int, required=True)
    p.set_defaults(func=cmd_beta)

    p = sp.add_parser("paths", help="enumerate folded paths")
    _add_common(p, ("table", "json", "csv"), sigma=True)
    p.add_argument("--word", default=None,
                   help="explicit affine word (0-based letters), overrides --weight")
    p.add_argument("--reversed", action="store_true",
                   help="walk every edge w -> w s_gamma turned around (w0 relabelling)")
    p.set_defaults(func=cmd_paths)

    p = sp.add_parser("emac", help="specialized Macdonald polynomial")
    _add_common(p)
    p.add_argument("--spec", default="zero",
                   choices=["zero", "infinity", "both"])
    # no --format given prints a table, or the JSON report of --spec both
    p.set_defaults(func=cmd_emac, format=None)

    p = sp.add_parser("char", help="generalized Weyl module character")
    _add_common(p, sigma=True)
    p.set_defaults(func=cmd_char)

    p = sp.add_parser("dims", help="generalized Weyl module dimension")
    _add_common(p, (), sigma=True)
    p.set_defaults(func=cmd_char)

    p = sp.add_parser("verify", help="run identity suites")
    p.add_argument("--suites", default=None,
                   help="comma-separated subset of " + ",".join(sorted(ids.SUITES)))
    p.set_defaults(func=cmd_verify)
    return ap


def _join_negative_values(argv):
    """Glue values like ``--weight -1,0`` into ``--weight=-1,0`` so argparse
    does not mistake the leading minus for an option."""
    flags = {"--weight", "--sigma", "--word"}
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in flags and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    ap = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = ap.parse_args(_join_negative_values(list(argv)))
    except SystemExit as exc:
        return EXIT_PARSE if exc.code else EXIT_OK
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe is met here, not at exit
        return code
    except BrokenPipeError:
        # the exit's own flush then writes what is left to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (wg.GroupSizeCapExceeded, TranslationLengthCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
