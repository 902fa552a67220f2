"""AIGER ASCII (``aag``) export/import.

Only the combinational subset is supported (no latches), which matches how
this library uses AIGs: flip-flop boundaries are cut before mapping.
"""

from __future__ import annotations

from typing import Dict, List, TextIO, Tuple, Union

from .aig import AIG, FALSE_LIT


def write_aiger(aig: AIG, stream: TextIO, symbols: bool = True) -> None:
    """Write the AIG in ASCII AIGER 1.9 ``aag`` format."""
    m = aig.max_var
    i = aig.num_inputs
    a = aig.num_ands
    o = len(aig.outputs)
    stream.write(f"aag {m} {i} 0 {o} {a}\n")
    for k in range(1, i + 1):
        stream.write(f"{2 * k}\n")
    for _name, lit in aig.outputs:
        stream.write(f"{lit}\n")
    base = i + 1
    for k, (f0, f1) in enumerate(aig._ands):
        lhs = 2 * (base + k)
        hi, lo = max(f0, f1), min(f0, f1)
        stream.write(f"{lhs} {hi} {lo}\n")
    if symbols:
        for k, name in enumerate(aig.input_names):
            stream.write(f"i{k} {name}\n")
        for k, (name, _lit) in enumerate(aig.outputs):
            stream.write(f"o{k} {name}\n")
        stream.write("c\nrepro smaRTLy aigmap\n")


def aiger_str(aig: AIG) -> str:
    import io

    buffer = io.StringIO()
    write_aiger(aig, buffer)
    return buffer.getvalue()


class AigerError(ValueError):
    """Malformed or unsupported ASCII AIGER input."""


def read_aiger(source: Union[str, TextIO]) -> AIG:
    """Parse an ASCII AIGER file (combinational subset, no latches).

    The file may number its variables in any order: each declared input
    literal and AND left-hand side names a variable, and every fanin and
    output is translated through that map.  Inputs become variables
    ``1..I`` in the order they are listed, and AND line ``k`` becomes
    variable ``I + 1 + k``, so the file's AND nodes are kept one for one.

    Raises :class:`AigerError` on an empty input, a malformed header or
    latches, and, naming the line, on a body shorter than the header's
    counts, a non-integer literal, an AND line without three fields, an
    odd, zero or out-of-range definition, a variable defined twice, a
    fanin or output literal that names no variable defined so far (ANDs
    must be listed in topological order) or a symbol whose index is past
    the counts.
    """
    if isinstance(source, str):
        lines: List[str] = source.splitlines()
    else:
        lines = source.read().splitlines()
    if not lines:
        raise AigerError("empty AIGER input")
    header = lines[0].split()
    if (len(header) < 6 or header[0] != "aag"
            or not all(x.isdigit() for x in header[1:6])):
        raise AigerError(f"bad AIGER header: {lines[0]!r}")
    m, i, latches, o, a = (int(x) for x in header[1:6])
    if latches:
        raise AigerError("latches are not supported")

    def literals(pos: int, count: int) -> List[int]:
        """Line ``pos`` (0-based) as exactly ``count`` integer literals."""
        if pos >= len(lines):
            raise AigerError(
                f"line {pos + 1}: input ends early (the header declares "
                f"{i} inputs, {o} outputs and {a} ANDs)"
            )
        fields = lines[pos].split()
        if len(fields) != count:
            raise AigerError(
                f"line {pos + 1}: expected {count} literal(s), "
                f"got {lines[pos]!r}"
            )
        try:
            return [int(field) for field in fields]
        except ValueError:
            raise AigerError(
                f"line {pos + 1}: non-integer literal in {lines[pos]!r}"
            ) from None

    #: the file's variable -> (our literal, 1-based line defining it)
    defined: Dict[int, Tuple[int, int]] = {0: (FALSE_LIT, 0)}

    def check_definition(lit: int, number: int) -> None:
        if lit & 1 or not 0 < lit >> 1 <= m:
            raise AigerError(
                f"line {number}: cannot define literal {lit} (a definition "
                f"is an even literal from 2 to {2 * m})"
            )
        if lit >> 1 in defined:
            raise AigerError(
                f"line {number}: variable {lit >> 1} is defined twice "
                f"(first on line {defined[lit >> 1][1]})"
            )

    def translate(lit: int, number: int) -> int:
        entry = defined.get(lit >> 1)
        if entry is None:
            raise AigerError(
                f"line {number}: literal {lit} names no variable defined "
                f"so far"
            )
        return entry[0] ^ (lit & 1)

    for k in range(i):
        lit = literals(1 + k, 1)[0]
        check_definition(lit, 2 + k)
        defined[lit >> 1] = (2 * (k + 1), 2 + k)
    output_lits = [literals(1 + i + k, 1)[0] for k in range(o)]
    aig = AIG()
    pos = 1 + i + o
    for k in range(a):
        number = pos + k + 1
        lhs, f0, f1 = literals(pos + k, 3)
        check_definition(lhs, number)
        # fanins name inputs or ANDs on earlier lines (topological order)
        f0, f1 = sorted((translate(f0, number), translate(f1, number)))
        ours = 2 * (i + 1 + k)
        defined[lhs >> 1] = (ours, number)
        aig._ands.append((f0, f1))
        aig._strash.setdefault((f0, f1), ours)
    outputs = [
        translate(lit, 2 + i + k) for k, lit in enumerate(output_lits)
    ]
    pos += a
    # symbol table
    names = {
        "i": [f"i{k}" for k in range(i)],
        "o": [f"o{k}" for k in range(o)],
    }
    for number, line in enumerate(lines[pos:], start=pos + 1):
        if line.startswith("c"):
            break
        table = names.get(line[:1])
        if table is None:
            continue
        idx, sep, name = line[1:].partition(" ")
        if not sep or not idx.isdigit() or int(idx) >= len(table):
            raise AigerError(
                f"line {number}: bad symbol {line!r} (the header declares "
                f"{i} inputs and {o} outputs)"
            )
        table[int(idx)] = name
    aig.input_names = names["i"]
    aig.outputs = list(zip(names["o"], outputs))
    return aig
