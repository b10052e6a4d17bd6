"""Command line interface.

Subcommands: info, basis, lr, qmul, qtable, gw, count, nd, selfcheck.
Every command is total and exits with a defined code: 0 success, 1 failed
check (selfcheck, or an internal consistency check), 2 parse error or
unwritable -o PATH, 3 dimension/balance mismatch, 4 not computable
(out-of-scope query or over a work limit).
Errors print a single machine-greppable line to stderr.  Each command
builds one result payload; the text mode renders that payload and the
--json mode wraps it in a stable versioned document, so the two encodings
always carry identical data.  qtable alone streams: its payload holds the
Pieri table on basis indices as indexed_table yields it, and each row is
written in either encoding as soon as it is built, in the bytes the whole
document would have had, so its two encodings carry identical data too.
The text of each term (q power and partition) is built once per table, and
each entry's terms already come in the order they print.  Nothing is
written to disk unless --json -o PATH is given, and PATH is opened only
after the command's limits have been checked.  main, the entry of a qschub
process, freezes the heap that the imports made before it runs the
command, so neither the command's collections nor the one at exit walk it.
"""

import argparse
import gc
import sys
from collections.abc import Iterator
from contextlib import contextmanager
from math import log10
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
from .gromov_witten import DIVISOR, GWQuery, gw_3point, gw_spoint
from .lr import lr_coefficient
from .partitions import Partition, format_partition, parse_partition, weight
from .plane_curves import kontsevich_nd, nd_values
from .quantum import QuantumClass, format_terms, indexed_table, quantum_product
from .spaces import Grassmannian, parse_space

SCHEMA_VERSION = 1
# qtable writes each row as it is built, so its peak RSS is the Pieri memo, the
# entries waiting for later rows and one row: 16.7 MB for G(4,9) --json, 19 MB
# for G(2,20) and G(1,209), 30 MB for G(3,13).  Time sets the bound: no --json
# case within it may take longer than 1.35 s end to end (median of alternating
# runs), what G(4,9) --json took when rows were first streamed.  The slowest
# found within it are G(3,13) (286 classes) at 0.67 s and G(2,25) (300) at
# 0.63 s; sizes 301-324 hold only G(1,n) and G(n-1,n).  Past it, G(2,26) (325
# classes) takes 0.71 s and G(4,11) (330) 0.98 s.  Medians of 5 runs, 2 vCPUs,
# Python 3.11, against 0.80, 0.76, 0.97 and 1.19 s when each Pieri product
# was filtered from every shape of its weight; earlier hosts read G(3,13) at
# up to 1.31 s and G(2,26) at up to 1.41 s, so the bound stays.
MAX_QTABLE_BASIS = 324
# qmul, gw and count all reach quantum_product's LR expansion, which grows
# with the rows of the box and of its content.  Each factor is first turned to
# the lightest class of its Seidel orbit, a tall space is computed on its
# short side, and the factor of fewer rows is the content, so the squarest
# spaces within the bound are the slowest: before the rotation a hill-climbing
# search found 5,4,4,3,3,2,1 times 6,5,4,4,3,2,1 on G(7,13) (1,716 classes),
# whose lightest pair 5,4,2,1,1 times 5,4,3,2,1 is expanded on G(6,13); it now
# takes 0.009 s in process and 0.04 s end to end (2 vCPUs, Python 3.11),
# against 0.04 s and 0.075 s before the rotation; G(1999,2000) 1^1000 times
# 1^999 takes 0.03 s end to end.  Past the bound, 8,7,...,1 squared on G(8,16)
# (12,870 classes, expanded as 7,6,...,1 squared) takes 1.2 s in process,
# against 1.9 s before the rotation.
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
# info's C(n, m), and the d^r of gw and count: each s[1] insertion multiplies
# the answer by d, and printing it grows faster than its length.  count
# "G(1,3)" -d 500 with 1,499 points and 180,000 s[1] took 4.7 s for 493 KB;
# the largest d = 500 case within the bound (18,525 s[1]) takes about 1 s.
MAX_DIGITS = 50_000


class _Parser(argparse.ArgumentParser):
    """argparse with single-line errors on stderr and exit code 2."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _int_arg(text: str) -> int:
    """An integer option: an optional "-" and ASCII digits.  int() alone
    would also read "0_1", "+1", " 1" and other scripts' digits."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


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
    p.add_argument("-d", "--degree", type=_int_arg, required=True)
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
    p.add_argument("-d", "--degree", type=_int_arg, required=True)
    p.add_argument("conditions", metavar="COND", nargs="+")

    p = sub.add_parser("nd", parents=[common], help="rational plane curve counts N_d")
    p.add_argument("degree", metavar="D", nargs="?", type=_int_arg, default=None)
    p.add_argument("--upto", metavar="D", type=_int_arg, default=None,
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


def _space_and_classes(args, texts: list[str]) -> tuple[Grassmannian, tuple[Partition, ...]]:
    """The front door of qmul, gw and count: the space, then each class
    parsed and box-checked in turn, then the basis-size limit, so that an
    input error is reported before any limit."""
    space = parse_space(args.space)
    classes = tuple(_class_arg(t, space) for t in texts)
    require_within(args.command, "basis size", MAX_QMUL_BASIS, space.basis_size())
    return space, classes


def _require_power_digits(args, classes: tuple[Partition, ...]) -> None:
    """The limit on the digits of d^r, with r the number of s[1] classes,
    checked before the power is taken.  The logarithm counts them to within
    one; where that decides the limit the power is short, and is compared."""
    d, r = args.degree, classes.count(DIVISOR)
    if d < 2 or not r:
        return  # d^r has one digit; a degree below 0 is refused later
    digits = int(r * log10(d)) + 1
    if digits <= MAX_DIGITS + 2:
        power = d**r
        digits += (power >= 10**digits) - (power < 10 ** (digits - 1))
    require_within(args.command, "digits of d^r", MAX_DIGITS, digits)


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
        size = space.basis_size(MAX_DIGITS)
        if size >= 10**MAX_DIGITS:
            digits = max(int(space.basis_size_log10()) + 1, MAX_DIGITS + 1)
            require_within("info", "digits of C(n, m)", MAX_DIGITS, digits)
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
    space, (lam, mu) = _space_and_classes(args, [args.lam, args.mu])
    return {"terms": _terms_json(quantum_product(lam, mu, space))}, space, 0


def _cmd_qtable(args):
    space = parse_space(args.space)
    require_within("qtable", "basis size", MAX_QTABLE_BASIS, space.basis_size())
    # rows are built while they are written, by _qtable_text or _qtable_json
    return {"table": indexed_table(space)}, space, 0


def _qtable_text(table) -> Iterator[str]:
    """The text lines of indexed_table's rows, one chunk per row, each
    entry's terms in the order they come.  Each term's text with
    coefficient 1 is built once per table; format_terms writes the others."""
    keys, rows = table
    names = [format_partition(p) for _, p in keys]
    plain = [format_terms([(d, name, 1)]) for (d, _), name in zip(keys, names)]
    for lam, row in rows:
        left = f"s[{names[lam]}] * s["
        yield "".join(
            f"{left}{names[mu]}] = " + (" + ".join([
                plain[t] if c == 1 else format_terms([(keys[t][0], names[t], c)])
                for t, c in terms.items()
            ]) or "0") + "\n"
            for mu, terms in row.items()
        )


def _qtable_json(table) -> Iterator[str]:
    """The JSON list of indexed_table's rows, one chunk per row, in the
    bytes json.dumps(doc, indent=2) writes for the list at depth 2 of the
    document: its entries at depth 3, their terms at depth 5, in the order
    they come.  Each term's text up to its coefficient, and its whole text
    with coefficient 1, is built once per table.  Partition text is digits
    and commas, which JSON does not escape."""
    keys, rows = table
    names = [format_partition(p) for _, p in keys]
    heads = [f'{{\n            "q": {d},\n            "partition": "{name}",\n            "coeff": '
             for (d, _), name in zip(keys, names)]
    plain = [f"{head}1\n          }}" for head in heads]
    opening = "[\n      "
    for lam, row in rows:
        left = f'{{\n        "left": "{names[lam]}",\n        "right": "'
        entries = []
        for mu, terms in row.items():
            body = ",\n          ".join([
                plain[t] if c == 1 else f"{heads[t]}{c}\n          }}"
                for t, c in terms.items()
            ])
            body = f"[\n          {body}\n        ]" if body else "[]"
            entries.append(f'{left}{names[mu]}",\n        "terms": {body}\n      }}')
        yield opening + ",\n      ".join(entries)
        opening = ",\n      "
    yield "[]" if opening.startswith("[") else "\n    ]"


def _cmd_gw(args):
    space, insertions = _space_and_classes(args, args.insertions)
    _require_power_digits(args, insertions)
    value = gw_spoint(GWQuery(space, args.degree, insertions))
    payload = {"degree": args.degree, "insertions": [format_partition(p) for p in insertions],
               "value": value}
    return payload, space, 0


def _cmd_count(args):
    space, conditions = _space_and_classes(args, args.conditions)
    _require_power_digits(args, conditions)
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
        if sys.stdout is None:  # started with fd 1 closed
            raise OSError("standard output is closed")
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
            yield from _qtable_text(payload["table"])
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
        yield from _qtable_json(payload["table"])
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
    except RuntimeError as exc:  # the library's "this is a bug" guards
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 1
    return code


def main(argv=None) -> None:
    """The entry of `python -m qschub` and of the `qschub` script: one
    command, then exit.  The heap the imports made lives until exit, so it
    is frozen first: the command's collections then skip it, and so does
    the collect-and-free at exit, which took about 6 ms of a 60 ms command
    (2 vCPUs, Python 3.11).  Atexit handlers, the flush of stdio and the -o file run as
    before.  parse_and_dispatch, which the tests and the library call,
    freezes nothing."""
    gc.freeze()
    raise SystemExit(parse_and_dispatch(sys.argv[1:] if argv is None else list(argv)))
