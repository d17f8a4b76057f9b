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
import re
import sys
from fractions import Fraction
from itertools import compress, repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .complexes import (MalformedSimplexError, NotSubcomplexError, SimplicialComplex,
                        Simplex, _closed, _ids, betti_numbers)
from .linalg import _small_prime
from .morse import (Filtration, MorseFunction, NotMorseError, UnknownLabelError,
                    _critical_values, _exact, _perfectness, critical_cells,
                    sublevel_filtration)
from .persistence import barcode as compute_barcode
from .persistence import compute_persistence
from .sequences import (MODULE, ORDINARY, PERSISTENT, MayerVietorisSystem,
                        NotCoveringError, PairSystem, SequenceAudit, _StepAudits,
                        module_sequence, ordinary_sequence, persistent_sequence)

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


def _lines(text: str) -> list[str]:
    """The lines of a text: each ends at `\\n`, `\\r\\n` or `\\r`, and only there."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


# a vertex id: ASCII decimal digits; a minus sign before a nonzero id reads as
# the negative id it is, which no simplex takes
_VERTEX = re.compile(r"[0-9]+|-0*[1-9][0-9]*")


def _parse_lines(path: Path, digests: Optional[dict] = None) -> tuple:
    """(sizes, ids, valued, values) of the lines of a UTF-8 file, read once:
    each line's number of vertices (0 on a blank or comment line), all their
    ids, one line after another (a batch, as `complexes._batch` gives it),
    whether each line gives a value, and the values given, exact. Lines end
    as `_lines` ends them, and ids are ASCII decimal digits. Ids are
    converted in one batch and checked as arrays; a file whose ids fail a
    check is read again for its first bad line.
    Given a dict, `digests[path]` gets the sha256 of the bytes read."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ParseError(path, 0, f"cannot read file: {exc}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:  # the bad byte's line: that of a character in its place
        line_no = len(_lines(data[:exc.start].decode("utf-8")))
        raise ParseError(path, line_no, f"not UTF-8 text: byte 0x{data[exc.start]:02x} "
                                        f"({exc.reason})") from None
    if digests is not None:
        digests[path] = hashlib.sha256(data).hexdigest()
    lines = [raw.partition("#")[0] for raw in _lines(text)]
    heads = [line.partition(":")[0] for line in lines]
    sizes = np.fromiter(map(len, map(str.split, heads)), np.intp, len(lines))
    valued = np.fromiter(map(str.__contains__, lines, repeat(":")), bool, len(lines))
    try:
        tokens = " ".join(heads).split()
        digits = "".join(tokens)
        if not (digits.isascii() and digits.isdigit() or not digits):
            raise ValueError
        ids = _ids([*map(int, tokens)])
        previous = np.concatenate(([-1], ids))
        previous[np.cumsum(sizes) - sizes] = -1  # a line's first id: not negative
        if not (sizes[valued].all() and (ids > previous[:-1]).all()):
            raise ValueError
    except ValueError:  # the first bad line, read as a line alone: ids, simplex, value
        for line_no, (head, sep, tail) in enumerate(map(str.partition, lines, repeat(":")), 1):
            if not all(map(_VERTEX.fullmatch, head.split())):
                raise ParseError(path, line_no, f"vertex ids must be integers: {head.strip()!r}")
            try:
                if head.split() or sep:
                    Simplex(map(int, head.split()))
            except MalformedSimplexError as exc:
                raise ParseError(path, line_no, str(exc)) from None
            if sep:
                _fraction(tail, path, line_no)
    texts = [line.partition(":")[2] for line in lines if ":" in line]
    return sizes, ids, valued, [_fraction(t, path, n)
                                for t, n in zip(texts, np.flatnonzero(valued) + 1)]


def load_complex(path: Path, strict_values: bool = False, digests: Optional[dict] = None
                 ) -> tuple[SimplicialComplex, Optional[MorseFunction]]:
    """Parse a complex file; closure-added faces inherit the minimum value of
    the explicitly valued simplices containing them (strict mode rejects
    inheritance instead). A simplex valued twice must get the same value.
    `digests` as for `_parse_lines`."""
    sizes, ids, valued, values = _parse_lines(path, digests)
    K, at = _closed(sizes, ids)
    if not values:
        return K, None
    at, explicit = at[valued], np.zeros(len(K), dtype=bool)
    explicit[at] = True
    if np.count_nonzero(explicit) < len(at):  # a cell valued twice: did its value change?
        lines = (np.flatnonzero(valued) + 1).tolist()
        cells, first, inverse = np.unique(at, return_index=True, return_inverse=True)
        for j, i in enumerate(first[inverse].tolist()):
            if values[j] != values[i]:
                raise ParseError(path, lines[j], f"simplex {tuple(K.simplices()[at[j]])} given "
                                                 f"value {values[j]}, but value {values[i]} "
                                                 f"on line {lines[i]}")
        at, values = cells, [values[i] for i in first.tolist()]
    if strict_values and not explicit.all():
        s = K.simplices()[int(np.argmin(explicit))]
        raise ParseError(path, 0, f"strict mode: no explicit value for {tuple(s)}")
    f = MorseFunction._inherited(K, at, values)
    if f is None:  # a cell outside the closure of the valued ones
        valued = K._mask(K.closure(compress(K.simplices(), explicit.tolist())))
        s = K.simplices()[int(np.argmin(valued))]
        raise ParseError(path, 0, f"no value given or inheritable for {tuple(s)}")
    return K, f


def load_membership(path: Path, K: SimplicialComplex, digests: Optional[dict] = None
                    ) -> SimplicialComplex:
    """Parse a subcomplex membership file and close it inside K, as a mask
    over K's cells. Values, if any, are checked as rationals, then ignored.
    The whole file is parsed first, then a listed simplex that is not in K
    raises NotSubcomplexError. `digests` as for `_parse_lines`."""
    sizes, ids, _, _ = _parse_lines(path, digests)
    return K._closure(sizes[sizes > 0], ids)


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
    Morse function, else all distinct values (`_critical_values` gives either
    and builds no violation). The --u/--v labels a level reads are spliced
    in, so persistent groups between arbitrary sublevels stay addressable. A
    file without values yields the one-step filtration of the full complex.
    """
    if f is None:
        if thresholds or extra_labels:
            raise InputContractError("thresholds given but the complex file carries no values")
        return Filtration([0], [K])
    base = set(thresholds) if thresholds is not None else _critical_values(K, f)[0]
    base.update(extra_labels)
    return sublevel_filtration(K, f, base)


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
            row["steps"] = pos.steps  # written by `_step_rows`
        rows.append(row)
    return rows


def _print_audit(aud: SequenceAudit) -> None:
    for pos in aud.positions:
        flags = f"order2={'yes' if pos.order2 else 'NO'} exact={'yes' if pos.exact else 'no'}"
        print(f"  k={pos.degree} {pos.term:<6} dim={pos.dim} im={pos.dim_image_in} "
              f"ker={pos.dim_kernel_out} defect={pos.defect} {flags}")


def _run_audit(args, kind: str) -> int:
    level = _LEVELS[args.level]
    for flag, levels in (("u", ("ordinary", "persistent")), ("v", ("persistent",))):
        if getattr(args, flag) is not None and args.level not in levels:
            raise InputContractError(f"--{flag} is not read at --level {args.level}")
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

    payload = {}
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

    if args.json:
        payload.update(thresholds=[str(t) for t in filt.thresholds], level=level, kind=kind,
                       positions=_audit_positions_payload(aud),
                       verdict={"law": law, "holds": holds,
                                "order2": aud.order2, "exact": aud.exact})
        _write_report(args, command=f"{'mv' if kind == 'mayer-vietoris' else 'pair'}-audit",
                      inputs=inputs, digests=digests, extra=payload)
    return EXIT_OK if holds else EXIT_LAW_VIOLATED


def cmd_mv_audit(args) -> int:
    return _run_audit(args, "mayer-vietoris")


def cmd_pair_audit(args) -> int:
    return _run_audit(args, "pair")


def _write_report(args, command: str, inputs: dict, digests: dict, extra: dict) -> None:
    """The report, with each input's path and the sha256 of the bytes parsed
    from it, written in one pass, piece by piece as `_write` gives it (never
    held whole); a path that cannot be written is an input error, after the
    command's output."""
    report = dict(extra)
    report["command"] = command
    report["field"] = args.field
    report["inputs"] = {name: {"path": str(p), "sha256": digests[p]}
                        for name, p in inputs.items()}
    report["tool"] = "homaudit"
    report["version"] = __version__
    out: list[str] = []
    _write(report, "\n", out, {})
    out.append("\n")
    try:
        with Path(args.json).open("w", encoding="utf-8") as file:
            file.writelines(out)
    except OSError as exc:
        raise InputContractError(f"cannot write report {args.json}: "
                                 f"{exc.strerror or exc}") from None


def _dumps(value, newline: str = "\n") -> str:
    """The text `json.dumps(value, indent=2, sort_keys=True)` gives, written in
    one pass, for a value made of dicts with string keys, lists, tuples, the
    steps of module positions (as lists of dicts, by `_step_rows`), strings,
    ints, bools and None; `newline` is a newline and the indent."""
    out: list[str] = []
    _write(value, newline, out, {})
    return "".join(out)


def _write(value, newline: str, out: list[str], heads: dict) -> None:
    """`value`'s text as for `_dumps`, appended to `out` piece by piece, so
    that no nested value's text is copied into its container's; `heads` as
    for `_step_rows`."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None or isinstance(value, bool):
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, _StepAudits) and value:
        _step_rows(value, newline, out, heads.setdefault(newline, {}))
    elif isinstance(value, (dict, list, tuple, _StepAudits)):
        is_dict, inner = isinstance(value, dict), newline + "  "
        start, end = "{}" if is_dict else "[]"
        for i, item in enumerate(sorted(value) if is_dict else value):
            key = encode_basestring_ascii(item) + ": " if is_dict else ""
            out.append(f"{',' if i else start}{inner}{key}")
            _write(value[item] if is_dict else item, inner, out, heads)
        out.append(newline + end if value else start + end)
    else:
        raise TypeError(f"a report holds no {type(value).__name__}")


def _step_rows(steps: _StepAudits, newline: str, out: list[str], heads: dict) -> None:
    """The steps of a module position as `_write` writes a list of their rows,
    read off the columns. `heads` keeps the text of each distinct row up to
    its step, written once for all the positions of a report: its keys in
    `sort_keys` order, so `step` is last."""
    inner, rows = newline + "  ", [*zip(*steps._columns())]
    key, close = inner + '  "', inner + "}"
    for row in set(rows).difference(heads):
        dim, im, ker, order2, exact, defect = row
        heads[row] = (f'{inner}{{{key}defect": {defect},{key}dim": {dim},{key}exact": '
                      f'{str(exact).lower()},{key}image_in": {im},{key}kernel_out": {ker},'
                      f'{key}order2": {str(order2).lower()},{key}step": ')
    out.extend(("[", (close + ",").join(map(str.__add__, map(heads.__getitem__, rows),
                                                map(str, range(len(rows))))),
                close + newline + "]"))


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
