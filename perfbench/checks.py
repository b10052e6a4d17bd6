"""The output gate: checks that share no code with qschub's product path.

Every check here reads only bytes or plain Python values, never a qschub
object or function, so a defect in the library cannot also hide itself in
the check.  A check returns a list of failure messages; an empty list is a
pass.
"""

import hashlib
import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")

# N_1..N_7, the number of rational plane curves of degree d through 3d-1
# general points (Kontsevich-Manin).
KNOWN_ND = (1, 1, 12, 620, 87304, 26312976, 14616808192)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_golden(size: str) -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))[size]


def conjugate(p: tuple) -> tuple:
    """Transpose of a Young diagram, written independently of qschub."""
    return tuple(sum(1 for x in p if x > j) for j in range(p[0])) if p else ()


def _partition(text: str) -> tuple:
    return () if text == "0" else tuple(int(x) for x in text.split(","))


def _text_terms(text: str) -> dict:
    """Parse the text form of a quantum class ("s[2,1] + 2*q*1") into a map
    (q power, partition) -> coefficient."""
    terms = {}
    if text == "0":
        return terms
    for piece in text.split(" + "):
        coeff, q, shape = 1, 0, ()
        for factor in piece.split("*"):
            if factor.startswith("s[") and factor.endswith("]"):
                shape = _partition(factor[2:-1])
            elif factor == "q":
                q = 1
            elif factor.startswith("q^"):
                q = int(factor[2:])
            elif factor != "1":
                coeff = int(factor)
        terms[(q, shape)] = coeff
    return terms


def parse_table_text(data: bytes) -> dict:
    """Rows "s[lam] * s[mu] = terms" -> {(lam, mu): terms}."""
    rows = {}
    for line in data.decode("utf-8").splitlines():
        left, _, rest = line.partition(" * ")
        right, _, terms = rest.partition(" = ")
        rows[(_partition(left[2:-1]), _partition(right[2:-1]))] = _text_terms(terms)
    return rows


def parse_table_json(data: bytes) -> dict:
    rows = {}
    for row in json.loads(data)["result"]["rows"]:
        rows[(_partition(row["left"]), _partition(row["right"]))] = {
            (t["q"], _partition(t["partition"])): t["coeff"] for t in row["terms"]
        }
    return rows


def check_transpose(text_table: bytes, json_table: bytes) -> list[str]:
    """G(m,n) and G(n-m,n) are one ring under lam -> lam': every row of the
    JSON table must equal the text table's row at the conjugate pair, with
    every term's partition conjugated."""
    try:
        small = parse_table_text(text_table)
        large = parse_table_json(json_table)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"transpose: unparsable table ({exc})"]
    failures = []
    if len(small) != len(large):
        failures.append(f"transpose: {len(small)} text rows but {len(large)} JSON rows")
    for (lam, mu), terms in large.items():
        flipped = {(q, conjugate(p)): c for (q, p), c in terms.items()}
        if small.get((conjugate(lam), conjugate(mu))) != flipped:
            failures.append(f"transpose: row {lam} * {mu} disagrees")
    return failures


def check_nd_table(data: bytes, upto: int) -> list[str]:
    """The lines "d: N_d" run over d = 1..upto and start with KNOWN_ND."""
    try:
        pairs = [line.split(": ") for line in data.decode("utf-8").splitlines()]
        degrees = [int(d) for d, _ in pairs]
        values = [int(v) for _, v in pairs[: len(KNOWN_ND)]]
    except ValueError as exc:
        return [f"nd: unparsable table ({exc})"]
    failures = []
    if degrees != list(range(1, upto + 1)):
        failures.append(f"nd: degrees are not 1..{upto}")
    if tuple(values) != KNOWN_ND[: min(upto, len(KNOWN_ND))]:
        failures.append(f"nd: N_1..N_7 read {values}, expected {list(KNOWN_ND)}")
    return failures


def check_golden(label: str, data: bytes, expected: str) -> list[str]:
    got = sha256(data)
    return [] if got == expected else [f"{label}: sha256 {got} differs from golden {expected}"]


# -- session invariants -------------------------------------------------


def check_count(degree: int, conditions: tuple, base: tuple, plus: tuple) -> list[str]:
    """base and plus are (invariant, r, count) for the conditions and for
    the conditions with one more codimension-one condition appended."""
    r = sum(1 for p in conditions if sum(p) == 1)
    failures = []
    if base[1] != r or plus[1] != r + 1:
        failures.append(f"count {conditions}: r reads {base[1]}/{plus[1]}, expected {r}/{r + 1}")
    if base[0] != degree**r * base[2]:
        failures.append(f"count {conditions}: invariant {base[0]} != d^r * {base[2]}")
    if plus[0] != degree * base[0] or plus[2] != base[2]:
        failures.append(f"count {conditions}: appending a divisor gave {plus}, base {base}")
    return failures


def terms_line(terms: dict) -> str:
    """Canonical text of a map (q power, partition) -> coefficient."""
    return " ".join(f"{q}:{','.join(map(str, p))}:{c}" for (q, p), c in sorted(terms.items()))
