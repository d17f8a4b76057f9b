"""Command-line front end.

Commands: betti, morse-check, barcode, mv-audit, pair-audit; `main` parses
with one parser per process and runs `cmd_` + the name with `-` as `_`, looked
up at call time. Input is a UTF-8 text file with one simplex per line
(`v0 v1 ... vk [: value]`, `#` starts a comment); membership files list the
simplices of a subcomplex and are closed under faces inside the main complex.
Each input file is read once, and a report's sha256 is that of the bytes parsed.

Exit codes: 0 success / law holds; 1 audited law violated; 2 parse error;
3 not a discrete Morse function (morse-check); 4 covering or subcomplex
hypothesis failed.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from operator import lt
from pathlib import Path
from typing import Optional

from . import __version__
from .complexes import (MalformedSimplexError, NotSubcomplexError, SimplicialComplex,
                        Simplex, betti_numbers, close_under_faces)
from .linalg import _small_prime
from .morse import (Filtration, MorseFunction, NotMorseError, UnknownLabelError,
                    _critical_values, _exact, _in_order, _inherited_values, _perfectness,
                    _ranks, _sublevel, critical_cells)
from .persistence import barcode as compute_barcode
from .persistence import compute_persistence
from .sequences import (MODULE, ORDINARY, PERSISTENT, MayerVietorisSystem,
                        NotCoveringError, PairSystem, SequenceAudit, module_sequence,
                        ordinary_sequence, persistent_sequence)

EXIT_OK = 0
EXIT_LAW_VIOLATED = 1
EXIT_PARSE = 2
EXIT_NOT_MORSE = 3
EXIT_NOT_COVERING = 4


class ParseError(Exception):
    def __init__(self, path, line_no, message):
        self.path, self.line_no, self.message = str(path), line_no, message
        where = f"{path}:{line_no}" if line_no else str(path)
        super().__init__(f"{where}: {message}")


class InputContractError(Exception):
    """Subcomplex / covering hypotheses on the parsed inputs failed."""


_RATIONAL_BOUND = 10 ** 4300  # labels are printed; Python prints ints of <= 4300 digits


def _rational(text: str) -> Fraction | int:
    """An exact rational small enough to print as a label, as `_exact` holds it.
    Integral ASCII decimal text goes straight to `int`, never through a
    `Fraction`. Raises ValueError or ZeroDivisionError; exponents are capped first."""
    text = text.strip()
    if text.lstrip("+-").isdigit() and text.isascii():
        if len(text) <= 4300:  # at most 4,300 digits: below the bound
            return int(text)
        value = int(text)
    elif len(text.lower().partition("e")[2].lstrip("+-")) > 4:
        raise ValueError(f"exponent too large: {text!r}")
    else:
        value = _exact(text)
    if max(abs(value.numerator), value.denominator) >= _RATIONAL_BOUND:
        raise ValueError(f"too many digits: {text!r}")
    return value


def _fraction(text: str, path, line_no) -> Fraction | int:
    try:
        return _rational(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(path, line_no, f"not a rational value: {text.strip()!r}") from None


def _label(text: str, option: str) -> Fraction | int:
    try:
        return _rational(text)
    except (ValueError, ZeroDivisionError):
        raise InputContractError(f"{option} must be a rational, got {text!r}") from None


def _parse_lines(path: Path, digests: Optional[dict] = None
                 ) -> list[tuple[int, Simplex, Optional[Fraction | int]]]:
    """(line_no, Simplex, value or None) for each content line of a UTF-8
    file, read once; given a dict, `digests[path]` gets the sha256 of the
    bytes read."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ParseError(path, 0, f"cannot read file: {exc}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:  # the bad byte's line: that of a character in its place
        line_no = len((data[:exc.start].decode("utf-8") + "?").splitlines())
        raise ParseError(path, line_no, f"not UTF-8 text: byte 0x{data[exc.start]:02x} "
                                        f"({exc.reason})") from None
    if digests is not None:
        digests[path] = hashlib.sha256(data).hexdigest()
    rows = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        head, sep, tail = raw.partition("#")[0].partition(":")
        try:
            verts = (*map(int, head.split()),)
        except ValueError:
            raise ParseError(path, line_no,
                             f"vertex ids must be integers: {head.strip()!r}") from None
        if not (verts and verts[0] >= 0 and all(map(lt, verts, verts[1:]))):
            if not (verts or sep):
                continue  # a blank or comment line
            try:
                Simplex(verts)  # raises: the vertices are not a simplex
            except MalformedSimplexError as exc:
                raise ParseError(path, line_no, str(exc)) from None
        # checked as `Simplex` checks it, without the call
        rows.append((line_no, tuple.__new__(Simplex, verts),
                     _fraction(tail, path, line_no) if sep else None))
    return rows


def load_complex(path: Path, strict_values: bool = False, digests: Optional[dict] = None
                 ) -> tuple[SimplicialComplex, Optional[MorseFunction]]:
    """Parse a complex file; closure-added faces inherit the minimum value of
    the explicitly valued simplices containing them (strict mode rejects
    inheritance instead). A simplex valued twice must get the same value.
    `digests` as for `_parse_lines`."""
    explicit: dict[Simplex, Fraction | int] = {}
    first_line: dict[Simplex, int] = {}
    generators: list[Simplex] = []
    for line_no, simplex, value in _parse_lines(path, digests):
        generators.append(simplex)
        if value is None:
            continue
        if explicit.setdefault(simplex, value) != value:
            raise ParseError(path, line_no,
                             f"simplex {tuple(simplex)} given value {value}, but value "
                             f"{explicit[simplex]} on line {first_line[simplex]}")
        first_line.setdefault(simplex, line_no)
    K = close_under_faces(generators)
    if not explicit:
        return K, None
    if len(explicit) == len(K):  # every cell valued: nothing to inherit
        return K, MorseFunction(K, explicit)
    if strict_values:
        s = next(s for s in K.simplices() if s not in explicit)
        raise ParseError(path, 0, f"strict mode: no explicit value for {tuple(s)}")
    values = dict(zip(K.simplices(), _inherited_values(K, explicit)))
    if None in values.values():
        s = next(s for s, v in values.items() if v is None)
        raise ParseError(path, 0, f"no value given or inheritable for {tuple(s)}")
    values.update(explicit)
    return K, MorseFunction(K, values)


def load_membership(path: Path, K: SimplicialComplex, digests: Optional[dict] = None
                    ) -> SimplicialComplex:
    """Parse a subcomplex membership file and close it inside K, from K's own
    cells; values, if any, are ignored. The whole file is parsed first, then
    a listed simplex that is not in K raises NotSubcomplexError. `digests` as
    for `_parse_lines`."""
    return K.closure([s for _, s, _ in _parse_lines(path, digests)])


def _subspace(path: str, name: str, K: SimplicialComplex, digests: dict) -> SimplicialComplex:
    """Subspace `name` (A or B) from its membership file, closed inside K."""
    try:
        return load_membership(Path(path), K, digests)
    except NotSubcomplexError:
        raise InputContractError(f"subspace {name} is not a subcomplex of the main complex"
                                 ) from None


def _build_filtration(K: SimplicialComplex, f: Optional[MorseFunction],
                      thresholds: Optional[list[Fraction | int]],
                      extra_labels: list[Fraction | int]) -> Filtration:
    """Filtration for a command run.

    Explicit thresholds win; otherwise the critical values when f is a valid
    Morse function, else all distinct values (`_critical_values` tells which
    and builds no violation). Any --u/--v labels are spliced in, so
    persistent groups between arbitrary sublevels stay addressable. A file
    without values yields the one-step filtration of the full complex.
    """
    if f is None:
        if thresholds or extra_labels:
            raise InputContractError("thresholds given but the complex file carries no values")
        return Filtration([0], [K])
    ranked = _ranks(_in_order(K, f))  # once, for the Morse question and the steps
    base = set(thresholds) if thresholds is not None else _critical_values(K, ranked)
    if base is None:  # f is not Morse
        base = set(ranked[0])
    base.update(extra_labels)
    return _sublevel(K, f, base, ranked)


def _parse_threshold_list(text: str) -> list[Fraction | int]:
    items = [tok for chunk in text.split(",") for tok in chunk.split()]
    if not items:
        raise InputContractError("empty threshold list")
    try:
        return [_rational(tok) for tok in items]
    except (ValueError, ZeroDivisionError):
        raise InputContractError(f"thresholds must be rationals, got {text!r}") from None


# ---------------------------------------------------------------------------
# commands

def cmd_betti(args) -> int:
    K, _ = load_complex(Path(args.complex), args.strict_values)
    print(" ".join(f"b{k}={b}" for k, b in enumerate(betti_numbers(K, args.field))))
    return EXIT_OK


def cmd_morse_check(args) -> int:
    K, f = load_complex(Path(args.complex), args.strict_values)
    if f is None:
        raise InputContractError("morse-check needs a complex file with values")
    try:
        crit = critical_cells(K, f)
    except NotMorseError as exc:
        print("NOT a discrete Morse function:")
        for v in exc.violations:
            print(f"  {v}")
        return EXIT_NOT_MORSE
    print("OK: discrete Morse function")
    for k in range(K.dim + 1):
        cells = [tuple(s) for s in crit if s.dim == k]
        print(f"critical {k}-cells ({len(cells)}):"
              + ("" if not cells else " " + " ".join(map(str, cells))))
    report = _perfectness(K, crit, args.field)
    verdict = "yes" if report.perfect else "no"
    print(f"perfect: {verdict} (critical counts {list(report.critical_counts)}, "
          f"betti {list(report.betti)} over F_{args.field})")
    return EXIT_OK


def cmd_barcode(args) -> int:
    digests = {}
    K, f = load_complex(Path(args.complex), args.strict_values, digests)
    thresholds = _parse_threshold_list(args.thresholds) if args.thresholds else None
    if args.degree is not None and args.degree < 0:
        raise InputContractError(f"--degree must be non-negative, got {args.degree}")
    filt = _build_filtration(K, f, thresholds, [])
    result = compute_persistence(filt, args.field)
    degrees = [args.degree] if args.degree is not None else list(range(max(K.dim, 0) + 1))
    rows = []
    for k in degrees:
        bars = compute_barcode(result, k)
        print(f"degree {k}:" + ("" if not bars.intervals else
                                " " + " ".join(str(iv) for iv in bars)))
        rows.append({"degree": k,
                     "intervals": [{"birth": iv.birth_label, "death": iv.death_label}
                                   for iv in bars]})
    if args.json:
        _write_report(args, command="barcode",
                      inputs={"complex": Path(args.complex)}, digests=digests,
                      extra={"degrees": rows,
                             "thresholds": [str(t) for t in filt.thresholds]})
    return EXIT_OK


_LEVELS = {"ordinary": ORDINARY, "persistent": PERSISTENT, "module": MODULE}


def _audit_positions_payload(aud: SequenceAudit) -> list[dict]:
    rows = []
    for pos in aud.positions:
        row = {"term": pos.term, "degree": pos.degree, "dim": pos.dim,
               "image_in": pos.dim_image_in, "kernel_out": pos.dim_kernel_out,
               "order2": pos.order2, "exact": pos.exact, "defect": pos.defect}
        if pos.steps is not None:
            row["steps"] = [{"step": s.step, "dim": s.dim, "image_in": s.dim_image_in,
                             "kernel_out": s.dim_kernel_out, "order2": s.order2,
                             "exact": s.exact, "defect": s.defect} for s in pos.steps]
        rows.append(row)
    return rows


def _print_audit(aud: SequenceAudit) -> None:
    for pos in aud.positions:
        flags = f"order2={'yes' if pos.order2 else 'NO'} exact={'yes' if pos.exact else 'no'}"
        print(f"  k={pos.degree} {pos.term:<6} dim={pos.dim} im={pos.dim_image_in} "
              f"ker={pos.dim_kernel_out} defect={pos.defect} {flags}")


def _run_audit(args, kind: str) -> int:
    level = _LEVELS[args.level]
    complex_path, digests = Path(args.complex), {}
    K, f = load_complex(complex_path, args.strict_values, digests)
    A = _subspace(args.subspace_a, "A", K, digests)
    thresholds = _parse_threshold_list(args.thresholds) if args.thresholds else None
    u_label = _label(args.u, "--u") if args.u is not None else None
    v_label = _label(args.v, "--v") if args.v is not None else None
    filt = _build_filtration(K, f, thresholds, [t for t in (u_label, v_label) if t is not None])

    inputs = {"complex": complex_path, "subspace_a": Path(args.subspace_a)}
    if kind == "mayer-vietoris":
        B = _subspace(args.subspace_b, "B", K, digests)
        system = MayerVietorisSystem(K, A, B, filt, args.field)
        inputs["subspace_b"] = Path(args.subspace_b)
    else:
        system = PairSystem(K, A, filt, args.field)

    payload = {"thresholds": [str(t) for t in filt.thresholds], "level": level,
               "kind": kind}
    if level == ORDINARY:
        u = filt.index_of(u_label) if u_label is not None else len(filt) - 1
        _, aud = ordinary_sequence(system, u)
        law, holds = "exact", aud.exact
        payload["u"] = str(filt.thresholds[u])
    elif level == PERSISTENT:
        if u_label is None or v_label is None:
            raise InputContractError("persistent level needs --u and --v")
        u, v = filt.index_of(u_label), filt.index_of(v_label)
        if u > v:
            raise InputContractError("--u must not exceed --v")
        _, aud = persistent_sequence(system, u, v)
        law, holds = "order-2", aud.order2
        payload["u"] = str(filt.thresholds[u])
        payload["v"] = str(filt.thresholds[v])
        payload["persistent_dims"] = {  # the bars containing [u, v]
            name: [int(((b <= u) & (d > v)).sum())
                   for b, d in (R.bars_alive(k) for k in range(system.top_degree + 1))]
            for name, R in system.spaces.items()}
        for name in system.spaces:
            print(f"  dim H^{{{payload['u']},{payload['v']}}}({name}) by degree: "
                  f"{payload['persistent_dims'][name]}")
    else:
        _, aud = module_sequence(system)
        law, holds = "exact", aud.exact

    print(f"{kind} sequence audit, level {level}, field F_{args.field}")
    _print_audit(aud)
    if holds:
        print(f"law ({law}): holds")
    else:
        where = ", ".join(f"(k={p.degree}, {p.term})" for p in aud.positions
                          if not (p.order2 if law == "order-2" else p.exact))
        print(f"law ({law}): VIOLATED at {where}")
    if level == PERSISTENT and holds and not aud.exact:
        defects = {f"(k={k}, {t})": d for (t, k), d in sorted(aud.defects().items())}
        print(f"note: sequence is of order 2 but not exact; defects {defects}")

    payload["verdict"] = {"law": law, "holds": holds,
                          "order2": aud.order2, "exact": aud.exact}
    payload["positions"] = _audit_positions_payload(aud)
    if args.json:
        _write_report(args, command=f"{'mv' if kind == 'mayer-vietoris' else 'pair'}-audit",
                      inputs=inputs, digests=digests, extra=payload)
    return EXIT_OK if holds else EXIT_LAW_VIOLATED


def cmd_mv_audit(args) -> int:
    return _run_audit(args, "mayer-vietoris")


def cmd_pair_audit(args) -> int:
    return _run_audit(args, "pair")


def _write_report(args, command: str, inputs: dict, digests: dict, extra: dict) -> None:
    """The report, with each input's path and the sha256 of the bytes parsed
    from it, written in one pass; a path that cannot be written is an input
    error, after the command's output."""
    report = dict(extra)
    report["command"] = command
    report["field"] = args.field
    report["inputs"] = {name: {"path": str(p), "sha256": digests[p]}
                        for name, p in inputs.items()}
    report["tool"] = "homaudit"
    report["version"] = __version__
    text = _dumps(report) + "\n"
    try:
        Path(args.json).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InputContractError(f"cannot write report {args.json}: "
                                 f"{exc.strerror or exc}") from None


def _dumps(value, newline: str = "\n") -> str:
    """The text `json.dumps(value, indent=2, sort_keys=True)` gives, written in
    one pass, for a value made of dicts with string keys, lists, tuples,
    strings, ints, bools and None; `newline` is a newline and the indent."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, dict):
        items = [f"{inner}{encode_basestring_ascii(key)}: {_dumps(value[key], inner)}"
                 for key in sorted(value)]
        return "{" + ",".join(items) + newline + "}" if items else "{}"
    if isinstance(value, (list, tuple)):
        items = [inner + _dumps(item, inner) for item in value]
        return "[" + ",".join(items) + newline + "]" if items else "[]"
    raise TypeError(f"a report holds no {type(value).__name__}")


# ---------------------------------------------------------------------------
# argument wiring

def _prime(text: str) -> int:
    value = int(text)
    if not _small_prime(value):
        raise argparse.ArgumentTypeError(f"{text} is not a prime below 2^31")
    return value


# argparse takes "-5,-1" or "-13/2", written apart, for an option of its own
_THRESHOLDS_HELP = ("comma-separated rational threshold labels; a list with a negative "
                    "value goes with '=': --thresholds=-5,-1")


def _add_common(sub):
    sub.add_argument("complex", help="complex file")
    sub.add_argument("--field", type=_prime, default=2, metavar="P",
                     help="prime coefficient field (default 2)")
    sub.add_argument("--strict-values", action="store_true",
                     help="reject files whose closure-added faces lack explicit values")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homaudit",
        description="Persistent homology and exact-sequence audits over prime fields.")
    parser.add_argument("--version", action="version", version=f"homaudit {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("betti", help="Betti numbers of a complex")
    _add_common(p)

    p = subs.add_parser("morse-check", help="validate a discrete Morse function")
    _add_common(p)

    p = subs.add_parser("barcode", help="interval decomposition of the filtration")
    _add_common(p)
    p.add_argument("--thresholds", help=_THRESHOLDS_HELP)
    p.add_argument("--degree", type=int, help="restrict output to one degree")
    p.add_argument("--json", help="write a JSON report to this path")

    for name, help_text in (("mv-audit", "audit the sequence of a triad X = A ∪ B"),
                            ("pair-audit", "audit the long sequence of a pair (X, A)")):
        p = subs.add_parser(name, help=help_text)
        _add_common(p)
        p.add_argument("--subspace-a", required=True, help="membership file for A")
        if name == "mv-audit":
            p.add_argument("--subspace-b", required=True, help="membership file for B")
        p.add_argument("--u", help="sublevel label (ordinary/persistent levels); "
                       "a negative fraction goes with '=': --u=-13/2")
        p.add_argument("--v", help="second sublevel label (persistent level); "
                       "a negative fraction goes with '=': --v=-1/2")
        p.add_argument("--level", required=True, choices=sorted(_LEVELS), help="audit level")
        p.add_argument("--thresholds", help=_THRESHOLDS_HELP)
        p.add_argument("--json", help="write a JSON report to this path")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (NotCoveringError, NotSubcomplexError, InputContractError,
            UnknownLabelError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_NOT_COVERING


if __name__ == "__main__":
    sys.exit(main())
