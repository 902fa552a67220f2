"""AIGER ASCII (``aag``) export/import.

Only the combinational subset is supported (no latches), which matches how
this library uses AIGs: flip-flop boundaries are cut before mapping.
"""

from __future__ import annotations

from typing import List, TextIO, Union

from .aig import AIG


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

    Raises :class:`AigerError` on an empty input, a malformed header or
    latches.
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
    aig = AIG()
    pos = 1
    input_lits = []
    for _ in range(i):
        input_lits.append(int(lines[pos]))
        pos += 1
    output_lits = []
    for _ in range(o):
        output_lits.append(int(lines[pos]))
        pos += 1
    # ands must be declared in topological order in valid files
    for _ in range(a):
        lhs, f0, f1 = (int(x) for x in lines[pos].split())
        pos += 1
        aig._ands.append((min(f0, f1), max(f0, f1)))
        aig._strash[(min(f0, f1), max(f0, f1))] = lhs
    aig.input_names = [f"i{k}" for k in range(i)]
    # symbol table
    for line in lines[pos:]:
        if line.startswith("i"):
            idx, name = line[1:].split(" ", 1)
            aig.input_names[int(idx)] = name
        elif line.startswith("o"):
            idx, name = line[1:].split(" ", 1)
            k = int(idx)
            while len(aig.outputs) <= k:
                aig.outputs.append((f"o{len(aig.outputs)}", output_lits[len(aig.outputs)]))
            aig.outputs[k] = (name, output_lits[k])
        elif line.startswith("c"):
            break
    while len(aig.outputs) < o:
        k = len(aig.outputs)
        aig.outputs.append((f"o{k}", output_lits[k]))
    return aig
