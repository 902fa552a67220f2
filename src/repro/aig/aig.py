"""Structurally-hashed And-Inverter Graph.

Literal convention follows AIGER: variable ``v`` has positive literal
``2*v`` and complemented literal ``2*v + 1``; variable 0 is constant false
(so literal 0 = false, literal 1 = true).  Inputs occupy variables
``1..num_inputs``; AND nodes follow.

Construction folds constants and trivial cases and hashes structurally, so
identical AND nodes are created only once — this mirrors what Yosys's
``aigmap`` + ``strash``-style mapping produces and keeps the area metric
(number of AND nodes) honest.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

FALSE_LIT = 0
TRUE_LIT = 1


class AIG:
    """A combinational AIG with named inputs and outputs."""

    def __init__(self):
        #: fanin literal pairs; node i (0-based) is variable num_inputs+1+i
        self._ands: List[Tuple[int, int]] = []
        self._strash: Dict[Tuple[int, int], int] = {}
        self.input_names: List[str] = []
        self.outputs: List[Tuple[str, int]] = []

    # -- structure ----------------------------------------------------------

    @property
    def num_inputs(self) -> int:
        return len(self.input_names)

    @property
    def num_ands(self) -> int:
        return len(self._ands)

    @property
    def max_var(self) -> int:
        return self.num_inputs + len(self._ands)

    def structural_digest(self, *extra: int) -> str:
        """Name-free BLAKE2b digest of the AND-node structure.

        Covers the input *count* and the fanin-literal table (plus any
        ``extra`` literals the caller wants pinned, e.g. a miter output)
        but not input names: node numbering already encodes how inputs
        feed the structure, so equal digests mean equal graphs up to
        renaming — the property the exportable CEC verdict cache keys on.
        """
        payload = (self.num_inputs, tuple(self._ands), tuple(extra))
        return hashlib.blake2b(
            repr(payload).encode("utf-8"), digest_size=16
        ).hexdigest()

    def and_fanins(self, var: int) -> Tuple[int, int]:
        """Fanin literals of the AND node with the given variable index."""
        index = var - self.num_inputs - 1
        if index < 0:
            raise IndexError(f"variable {var} is not an AND node")
        return self._ands[index]

    def is_and_var(self, var: int) -> bool:
        return var > self.num_inputs

    def is_input_var(self, var: int) -> bool:
        return 1 <= var <= self.num_inputs

    # -- construction -------------------------------------------------------

    def add_input(self, name: Optional[str] = None) -> int:
        """Add a primary input; AND nodes must not exist yet (AIGER order)."""
        if self._ands:
            raise ValueError("all inputs must be added before AND nodes")
        if name is None:
            name = f"i{len(self.input_names)}"
        self.input_names.append(name)
        return 2 * len(self.input_names)

    def add_output(self, lit: int, name: Optional[str] = None) -> None:
        if name is None:
            name = f"o{len(self.outputs)}"
        self.outputs.append((name, lit))

    def not_(self, a: int) -> int:
        return a ^ 1

    def and_(self, a: int, b: int) -> int:
        """AND with constant folding and structural hashing."""
        if a > b:
            a, b = b, a
        if a == FALSE_LIT:
            return FALSE_LIT
        if a == TRUE_LIT:
            return b
        if a == b:
            return a
        if a == b ^ 1:
            return FALSE_LIT
        key = (a, b)
        existing = self._strash.get(key)
        if existing is not None:
            return existing
        self._ands.append(key)
        lit = 2 * (len(self.input_names) + len(self._ands))
        self._strash[key] = lit
        return lit

    def graft(self, other: "AIG", inputs: Sequence[int]) -> List[int]:
        """Copy ``other``'s AND nodes into this AIG, reading its input
        ``i`` as literal ``inputs[i]`` here.  Returns the literal here
        of each of ``other``'s variables (index 0 is constant false).

        Nodes are re-hashed through :meth:`and_` in ``other``'s order.
        When this AIG has no AND nodes yet and ``other``'s inputs are its
        first inputs in order, the node table is copied instead, with its
        AND literals offset past the extra inputs: for a graph that
        :meth:`and_` built, that is the graph re-hashing would build.
        """
        count = other.num_inputs
        if len(inputs) != count:
            raise ValueError(
                f"expected {count} input literals, got {len(inputs)}"
            )
        lits = [FALSE_LIT, *inputs]
        if not self._ands and lits == list(range(0, 2 * count + 1, 2)):
            offset = 2 * (self.num_inputs - count)
            last_input = 2 * count + 1
            self._ands = [
                (a + offset if a > last_input else a,
                 b + offset if b > last_input else b)
                for a, b in other._ands
            ]
            first = 2 * (self.num_inputs + 1)
            ands = range(first, first + 2 * len(self._ands), 2)
            self._strash = dict(zip(self._ands, ands))
            lits.extend(ands)
            return lits
        and_ = self.and_
        for a, b in other._ands:
            lits.append(and_(lits[a >> 1] ^ (a & 1), lits[b >> 1] ^ (b & 1)))
        return lits

    def or_(self, a: int, b: int) -> int:
        return self.and_(a ^ 1, b ^ 1) ^ 1

    def xor(self, a: int, b: int) -> int:
        # ``or_(and_(a, ~b), and_(~a, b))`` with ``or_`` inlined: the
        # three ``and_`` calls are made in the same order
        and_ = self.and_
        return and_(and_(a, b ^ 1) ^ 1, and_(a ^ 1, b) ^ 1) ^ 1

    def xnor(self, a: int, b: int) -> int:
        return self.xor(a, b) ^ 1

    def mux(self, a: int, b: int, s: int) -> int:
        """``s ? b : a`` — 3 AND nodes in the worst case."""
        and_ = self.and_
        return and_(and_(s, b) ^ 1, and_(s ^ 1, a) ^ 1) ^ 1

    def and_reduce(self, lits: Sequence[int]) -> int:
        """Balanced conjunction tree."""
        items = list(lits)
        if not items:
            return TRUE_LIT
        while len(items) > 1:
            nxt = [
                self.and_(items[i], items[i + 1])
                for i in range(0, len(items) - 1, 2)
            ]
            if len(items) % 2:
                nxt.append(items[-1])
            items = nxt
        return items[0]

    def or_reduce(self, lits: Sequence[int]) -> int:
        return self.and_reduce([l ^ 1 for l in lits]) ^ 1

    def xor_reduce(self, lits: Sequence[int]) -> int:
        items = list(lits)
        if not items:
            return FALSE_LIT
        while len(items) > 1:
            nxt = [
                self.xor(items[i], items[i + 1])
                for i in range(0, len(items) - 1, 2)
            ]
            if len(items) % 2:
                nxt.append(items[-1])
            items = nxt
        return items[0]

    # -- evaluation ------------------------------------------------------------

    def eval_masks(self, input_masks: Sequence[int], nvec: int = 1) -> Dict[int, int]:
        """Bit-parallel evaluation: returns a mask per *variable*.

        ``input_masks[i]`` is the mask of input variable ``i+1``; bit *v* of
        a mask is the value in vector *v*.
        """
        if len(input_masks) != self.num_inputs:
            raise ValueError(
                f"expected {self.num_inputs} input masks, got {len(input_masks)}"
            )
        mask = (1 << nvec) - 1
        values: List[int] = [0] * (self.max_var + 1)
        for i, m in enumerate(input_masks):
            values[i + 1] = m & mask

        def lit_val(lit: int) -> int:
            value = values[lit >> 1]
            return (~value & mask) if lit & 1 else value

        base = self.num_inputs + 1
        for i, (f0, f1) in enumerate(self._ands):
            values[base + i] = lit_val(f0) & lit_val(f1)
        return {var: values[var] for var in range(1, self.max_var + 1)}

    def eval_outputs(self, input_values: Sequence[int]) -> List[int]:
        """Single-vector evaluation; inputs/outputs are 0/1 ints."""
        values = self.eval_masks([v & 1 for v in input_values], nvec=1)

        def lit_val(lit: int) -> int:
            if lit <= 1:
                return lit
            value = values[lit >> 1]
            return (value ^ 1) if lit & 1 else value

        return [lit_val(lit) for _name, lit in self.outputs]

    # -- analysis ----------------------------------------------------------------

    def levels(self) -> int:
        """Longest input-to-output path measured in AND nodes."""
        depth: List[int] = [0] * (self.max_var + 1)
        base = self.num_inputs + 1
        for i, (f0, f1) in enumerate(self._ands):
            depth[base + i] = 1 + max(depth[f0 >> 1], depth[f1 >> 1])
        if not self.outputs:
            return max(depth) if depth else 0
        return max((depth[lit >> 1] for _n, lit in self.outputs), default=0)

    def cone_size(self, lits: Iterable[int]) -> int:
        """Number of AND nodes in the transitive fanin of the given literals."""
        seen = set()
        stack = [lit >> 1 for lit in lits]
        count = 0
        while stack:
            var = stack.pop()
            if var in seen or not self.is_and_var(var):
                continue
            seen.add(var)
            count += 1
            f0, f1 = self.and_fanins(var)
            stack.append(f0 >> 1)
            stack.append(f1 >> 1)
        return count

    def __repr__(self) -> str:
        return (
            f"AIG({self.num_inputs} inputs, {self.num_ands} ands, "
            f"{len(self.outputs)} outputs)"
        )
