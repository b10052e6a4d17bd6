"""Command line interface.

Subcommands: info, basis, lr, qmul, qtable, gw, count, nd, selfcheck.
Every command is total and exits with a defined code: 0 success, 1 failed
selfcheck, 2 parse error or unwritable -o PATH, 3 dimension/balance
mismatch, 4 not computable (out-of-scope query or over a work limit).
Errors print a single machine-greppable line to stderr.  Each command
builds one result payload; the text mode renders that payload and the
--json mode wraps it in a stable versioned document, so the two encodings
always carry identical data.  qtable alone streams: its payload holds the
Pieri table's rows as product_table yields them, and each row is written
in either encoding as soon as it is built, in the bytes the whole document
would have had, so its two encodings carry identical data too.  Nothing is
written to disk unless --json -o PATH is given, and PATH is opened only
after the command's limits have been checked.
"""

import argparse
import sys
from collections.abc import Iterator
from contextlib import contextmanager
from operator import itemgetter

from .counting import CountProblem, rational_curve_count
from .errors import (
    BoxError,
    NotComputableError,
    UnbalancedQueryError,
    UnsupportedFamilyError,
    require_within,
)
# gw_3point is unused here; perfbench/tracer.py wraps it until ROADMAP Direction 1
from .gromov_witten import GWQuery, gw_3point, gw_spoint
from .lr import lr_coefficient
from .partitions import Partition, format_partition, parse_partition, weight
from .plane_curves import kontsevich_nd, nd_values
from .quantum import QuantumClass, format_terms, product_table, quantum_product
from .spaces import Grassmannian, parse_space

SCHEMA_VERSION = 1
# qtable writes each row as it is built, so its peak RSS stays near the Pieri
# memo plus one row: 17 MB for G(4,9) --json, where building the whole
# document first took 115 MB.  Time sets the bound: no --json case within it
# may take longer than G(4,9) --json did then, 1.35 s end to end (median of
# runs alternating with the ones below).  The slowest found within it are
# G(2,20) (190 classes) and G(1,209), at about 0.97 s; sizes 191-209 hold only
# G(1,n) and G(n-1,n).  G(4,10), the first space past it (210 classes), takes
# 1.38 s, and G(3,12) (220) 2.1 s.
MAX_QTABLE_BASIS = 209
# qmul, gw and count all reach quantum_product's LR expansion, which grows
# with the rows of the box, so tall spaces set this: the slowest product
# found within the bound squares 2^30 1^30 on G(61,63) (1,953 classes) in
# about 2.1 s in process.  Past it, squaring 3^12 2^12 1^12 on G(37,40) (9,880
# classes) takes 39 s, and 8,7,...,1 squared on G(8,16) (12,870 classes) 6 s.
MAX_QMUL_BASIS = 2_000
# lr's expansion grows about 2.5-fold every 6 cells of NU: the slowest
# coefficients a hill-climbing search found take 1.4 s with 50 cells and
# 3.6 s with 56, and 9,8,...,1 squared onto twice itself (90 cells) 20 s,
# all in process.
MAX_LR_CELLS = 50
MAX_BASIS = 200_000  # G(10,20) lists 184,756 classes in about 2 s; G(11,22) takes about 12 s
# A listing costs its cells, at most classes x rows.  Within this bound the
# slowest found end to end are G(1999,2000) (3,998,000) and G(19,25) at
# 2.5-3 s; G(400,402) (32,240,400, within MAX_BASIS) takes about 16 s.
MAX_BASIS_CELLS = 4_000_000
# info prints C(n, m) and one kernel/span line per degree: G(20000,2300000)
# --json (49,859 digits, 20,000 lines) takes about 0.4 s end to end, while
# G(100000,200000) took 1.7 s and OG(200000,400001) 1.1 s and 4.6 MB.
MAX_INFO_LINES = 20_000
MAX_INFO_DIGITS = 50_000


class _Parser(argparse.ArgumentParser):
    """argparse with single-line errors on stderr and exit code 2."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def build_parser() -> _Parser:
    parser = _Parser(prog="qschub", description="Exact quantum Schubert calculus on Grassmannians.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON document instead of text")
    common.add_argument("-o", "--output", metavar="PATH", default=None,
                        help="write the JSON document to PATH (requires --json)")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("info", parents=[common], help="describe a space")
    p.add_argument("space", help='space notation, e.g. "G(2,4)", "IG(2,6)", "OG(3,9)"')

    p = sub.add_parser("basis", parents=[common], help="list the Schubert basis of a type-A space")
    p.add_argument("space")

    p = sub.add_parser("lr", parents=[common], help="a Littlewood-Richardson coefficient")
    p.add_argument("lam", metavar="LAMBDA")
    p.add_argument("mu", metavar="MU")
    p.add_argument("nu", metavar="NU")

    p = sub.add_parser("qmul", parents=[common], help="quantum product of two Schubert classes")
    p.add_argument("space")
    p.add_argument("lam", metavar="LAMBDA")
    p.add_argument("mu", metavar="MU")

    p = sub.add_parser("qtable", parents=[common],
                       help="the full basis-by-basis quantum multiplication table")
    p.add_argument("space")

    p = sub.add_parser("gw", parents=[common], help="a Gromov-Witten invariant")
    p.add_argument("space")
    p.add_argument("-d", "--degree", type=int, required=True)
    p.add_argument("insertions", metavar="CLASS", nargs="+",
                   help='Schubert conditions as comma lists; "0" is the fundamental class, "pt" the point class')

    p = sub.add_parser(
        "count", parents=[common], help="number of rational curves meeting Schubert conditions",
        description="Counts degree-d rational curves incident to general translates of the given "
                    "Schubert conditions: the Gromov-Witten invariant divided by d^r, with r the "
                    "number of codimension-one conditions.  Note: on orthogonal Grassmannian "
                    "targets the degree-2 invariant with a codimension-one condition would be "
                    "twice the number of conics; isotropic quantum products are out of scope "
                    "here and such queries exit with code 4.")
    p.add_argument("space")
    p.add_argument("-d", "--degree", type=int, required=True)
    p.add_argument("conditions", metavar="COND", nargs="+")

    p = sub.add_parser("nd", parents=[common], help="rational plane curve counts N_d")
    p.add_argument("degree", metavar="D", nargs="?", type=int, default=None)
    p.add_argument("--upto", metavar="D", type=int, default=None,
                   help="print the whole table for d = 1..D")

    p = sub.add_parser("selfcheck", parents=[common], help="run the built-in invariant suites")
    p.add_argument("level", nargs="?", choices=("quick", "full"), default="quick")

    return parser


def _class_arg(text: str, space: Grassmannian) -> Partition:
    """A partition argument; "pt" is the point class of the space."""
    if text.strip() == "pt":
        return space.point_class()
    p = parse_partition(text)
    space.require_in_box(p)
    return p


def _terms_json(qc: QuantumClass) -> list[dict]:
    return [
        {"q": d, "partition": format_partition(p), "coeff": c}
        for d, p, c in qc.sorted_terms()
    ]


# a JSON term as the (q power, partition text, coefficient) triple format_terms takes
_TERM_FIELDS = itemgetter("q", "partition", "coeff")


# -- command handlers: each returns (payload, space, exit_code) ------------


def _cmd_info(args):
    space = parse_space(args.space)
    lines = min(space.critical_degree(), space.m)
    require_within("info", "kernel/span lines", MAX_INFO_LINES, lines)
    data = space.to_json()
    data["critical_degree"] = space.critical_degree()
    if space.family == "A":
        # exact up to the cap, where the float log sum can round either way;
        # that sum (min(m, n - m) = lines terms) only reports the digits
        size = space.basis_size(MAX_INFO_DIGITS)
        if size >= 10**MAX_INFO_DIGITS:
            digits = max(int(space.basis_size_log10()) + 1, MAX_INFO_DIGITS + 1)
            require_within("info", "digits of C(n, m)", MAX_INFO_DIGITS, digits)
        data["dimension"] = space.dimension()
        data["c1_degree"] = space.c1_degree()
        data["box"] = {"rows": space.m, "cols": space.box_cols}
        data["basis_size"] = size
    else:
        data["k"] = space.k_value()
        data["maximal"] = space.is_maximal
    data["kernel_span"] = [
        {"d": d, "kernel": kernel, "span": span}
        for d in range(1, lines + 1)
        for kernel, span in [space.kernel_span_dims(d)]
    ]
    return data, space, 0


def _render_info(payload):
    lines = [f"space: {payload['notation']}", f"family: {payload['family']}",
             f"m: {payload['m']}", f"n: {payload['n']}",
             f"critical degree: {payload['critical_degree']}"]
    if payload["family"] == "A":
        lines += [f"dimension: {payload['dimension']}",
                  f"c1 degree: {payload['c1_degree']}",
                  f"box: {payload['box']['rows']}x{payload['box']['cols']}",
                  f"basis size: {payload['basis_size']}"]
    else:
        lines += [f"k: {payload['k']}", f"maximal: {str(payload['maximal']).lower()}"]
    lines += [
        f"kernel/span dims at d={entry['d']}: ({entry['kernel']}, {entry['span']})"
        for entry in payload["kernel_span"]
    ]
    return lines


def _cmd_basis(args):
    space = parse_space(args.space)
    size = space.basis_size()
    require_within("basis", "basis size", MAX_BASIS, size)
    require_within("basis", "basis size x rows", MAX_BASIS_CELLS, size * space.m)
    return {"partitions": [format_partition(p) for p in space.basis()]}, space, 0


def _cmd_lr(args):
    lam, mu, nu = (parse_partition(t) for t in (args.lam, args.mu, args.nu))
    require_within("lr", "|nu|", MAX_LR_CELLS, weight(nu))
    return {"coefficient": lr_coefficient(lam, mu, nu)}, None, 0


def _cmd_qmul(args):
    space = parse_space(args.space)
    lam = _class_arg(args.lam, space)
    mu = _class_arg(args.mu, space)
    require_within("qmul", "basis size", MAX_QMUL_BASIS, space.basis_size())
    return {"terms": _terms_json(quantum_product(lam, mu, space))}, space, 0


def _cmd_qtable(args):
    space = parse_space(args.space)
    require_within("qtable", "basis size", MAX_QTABLE_BASIS, space.basis_size())
    # rows are built while they are written, by _qtable_text or _qtable_json
    return {"rows": product_table(space)}, space, 0


def _qtable_text(rows) -> Iterator[str]:
    """The text lines of product_table's rows, one chunk per row."""
    names: dict[Partition, str] = {}
    for lam, row in rows:
        names = names or {mu: format_partition(mu) for mu in row}  # every row spans the basis
        left = names[lam]
        yield "".join(
            f"s[{left}] * s[{names[mu]}] = "
            f"{format_terms((d, names[p], c) for (d, p), c in sorted(terms.items()))}\n"
            for mu, terms in row.items()
        )


def _qtable_json(rows) -> Iterator[str]:
    """The JSON list of product_table's rows, one chunk per row, in the
    bytes json.dumps(doc, indent=2) writes for the list at depth 2 of the
    document: its entries at depth 3, their terms at depth 5.  Partition
    text is digits and commas, which JSON does not escape."""
    names: dict[Partition, str] = {}
    opening = "[\n      "
    for lam, row in rows:
        names = names or {mu: format_partition(mu) for mu in row}  # every row spans the basis
        left = names[lam]
        entries = []
        for mu, terms in row.items():
            body = ",\n          ".join([
                f'{{\n            "q": {d},\n            "partition": "{names[p]}",'
                f'\n            "coeff": {c}\n          }}'
                for (d, p), c in sorted(terms.items())
            ])
            body = f"[\n          {body}\n        ]" if body else "[]"
            entries.append(f'{{\n        "left": "{left}",\n        "right": "{names[mu]}",'
                           f'\n        "terms": {body}\n      }}')
        yield opening + ",\n      ".join(entries)
        opening = ",\n      "
    yield "[]" if opening.startswith("[") else "\n    ]"


def _cmd_gw(args):
    space = parse_space(args.space)
    insertions = tuple(_class_arg(t, space) for t in args.insertions)
    require_within("gw", "basis size", MAX_QMUL_BASIS, space.basis_size())
    value = gw_spoint(GWQuery(space, args.degree, insertions))
    payload = {"degree": args.degree, "insertions": [format_partition(p) for p in insertions],
               "value": value}
    return payload, space, 0


def _cmd_count(args):
    space = parse_space(args.space)
    conditions = tuple(_class_arg(t, space) for t in args.conditions)
    require_within("count", "basis size", MAX_QMUL_BASIS, space.basis_size())
    result = rational_curve_count(CountProblem(space, args.degree, conditions))
    payload = {"gw": result.gw_value, "r": result.divisor_conditions, "count": result.curve_count}
    return payload, space, 0


def _cmd_nd(args):
    if (args.degree is None) == (args.upto is None):
        raise ValueError("nd needs exactly one of: a degree argument, or --upto")
    if args.upto is not None:
        return {"values": [{"d": d, "value": n} for d, n in nd_values(args.upto)]}, None, 0
    return {"d": args.degree, "value": kontsevich_nd(args.degree)}, None, 0


def _render_nd(payload):
    if "values" in payload:
        return [f"{entry['d']}: {entry['value']}" for entry in payload["values"]]
    return [str(payload["value"])]


def _cmd_selfcheck(args):
    from .selfcheck import run_selfcheck  # loaded only here, to keep start-up light

    results = run_selfcheck(args.level)
    payload = {
        "level": args.level,
        "suites": [
            {
                "name": s.name,
                "checks": s.checks,
                "failed": len(s.failures),
                "failures": s.failures[:5],
            }
            for s in results
        ],
        "ok": all(s.ok for s in results),
    }
    return payload, None, 0 if payload["ok"] else 1


def _render_selfcheck(payload):
    lines = []
    for suite in payload["suites"]:
        if suite["failed"] == 0:
            lines.append(f"ok {suite['name']}: {suite['checks']} checks")
        else:
            lines.append(f"FAIL {suite['name']}: {suite['failed']} of {suite['checks']} failed")
            lines.extend(f"  {failure}" for failure in suite["failures"])
    lines.append(f"selfcheck {payload['level']}: {'PASS' if payload['ok'] else 'FAIL'}")
    return lines


_HANDLERS = {
    "info": _cmd_info,
    "basis": _cmd_basis,
    "lr": _cmd_lr,
    "qmul": _cmd_qmul,
    "qtable": _cmd_qtable,
    "gw": _cmd_gw,
    "count": _cmd_count,
    "nd": _cmd_nd,
    "selfcheck": _cmd_selfcheck,
}

_TEXT_RENDERERS = {
    "info": _render_info,
    "basis": lambda payload: list(payload["partitions"]),
    "lr": lambda payload: [str(payload["coefficient"])],
    "qmul": lambda payload: [format_terms(map(_TERM_FIELDS, payload["terms"]))],
    "gw": lambda payload: [str(payload["value"])],
    "count": lambda payload: [
        f"GW = {payload['gw']}, r = {payload['r']}, curves = {payload['count']}"
    ],
    "nd": _render_nd,
    "selfcheck": _render_selfcheck,
}


def render_text(command: str, payload: dict) -> list[str]:
    """The text-mode lines for a command's result payload (the same payload
    that --json wraps, so the two modes carry identical data)."""
    return _TEXT_RENDERERS[command](payload)


@contextmanager
def _output(path: str | None):
    """The -o file, opened for writing, or stdout."""
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as out:
            yield out


def _encode(args, payload: dict, space: Grassmannian | None) -> Iterator[str]:
    """The command's output in chunks: its text lines, or its --json
    document, with qtable's rows written as they are built."""
    streamed = args.command == "qtable"
    if not args.json:
        if streamed:
            yield from _qtable_text(payload["rows"])
        else:
            yield "".join(line + "\n" for line in render_text(args.command, payload))
        return
    import json  # only --json output needs it, so text commands start without it

    doc = {
        "schema": SCHEMA_VERSION,
        "command": args.command,
        "space": space.to_json() if space is not None else None,
        "result": {"rows": []} if streamed else payload,
    }
    text = json.dumps(doc, indent=2) + "\n"
    if streamed:
        head, tail = text.split('"rows": []')
        yield head + '"rows": '
        yield from _qtable_json(payload["rows"])
        yield tail
    else:
        yield text


def parse_and_dispatch(argv: list[str]) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        # info prints C(n, m) up to 50,000 digits and reads any n, past the default
        # 4,300; process-wide, as restoring it would race threads printing big ints
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if args.output and not args.json:
        print("error: -o requires --json", file=sys.stderr)
        return 2
    try:
        payload, space, code = _HANDLERS[args.command](args)
        with _output(args.output) as out:
            for chunk in _encode(args, payload, space):
                out.write(chunk)
    except (UnsupportedFamilyError, NotComputableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (BoxError, UnbalancedQueryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def main(argv=None) -> None:
    raise SystemExit(parse_and_dispatch(sys.argv[1:] if argv is None else list(argv)))
