"""RFLAGS modeling.

Only the five status flags that drive conditional branches in the toy ISA are
modeled: CF, PF, ZF, SF, OF.  They live packed inside the 64-bit ``rflags``
register at their real x86 bit positions, so a fault injected into ``rflags``
flips branch outcomes exactly the way a real soft error would.
"""

from __future__ import annotations

__all__ = [
    "CF", "PF", "ZF", "SF", "OF",
    "FLAG_BITS",
    "PARITY_TABLE",
    "SIGN_BIT",
    "STATUS_MASK",
    "update_flags_logic",
    "update_flags_arith",
    "add_flags",
    "sub_flags",
    "condition_met",
]

CF = 1 << 0   # carry
PF = 1 << 2   # parity (of low byte)
ZF = 1 << 6   # zero
SF = 1 << 7   # sign
OF = 1 << 11  # overflow

#: Name -> mask for every modeled flag.
FLAG_BITS: dict[str, int] = {"cf": CF, "pf": PF, "zf": ZF, "sf": SF, "of": OF}

_ALL = CF | PF | ZF | SF | OF
_MASK64 = (1 << 64) - 1
_SIGN = 1 << 63


#: Precomputed PF contribution for every low-byte value (hot path).
_PARITY_TABLE: tuple[int, ...] = tuple(
    PF if bin(i).count("1") % 2 == 0 else 0 for i in range(256)
)

# Codegen metadata: the translator inlines the flag-update recipes below into
# generated block bodies, indexing the same parity table and clearing the same
# status-flag mask, so translated and interpreted flag results are identical.
PARITY_TABLE: tuple[int, ...] = _PARITY_TABLE
STATUS_MASK = _ALL
SIGN_BIT = _SIGN


def update_flags_logic(rflags: int, result: int) -> int:
    """Flag update for logical ops (AND/OR/XOR/TEST): CF=OF=0, ZF/SF/PF set."""
    result &= _MASK64
    flags = _PARITY_TABLE[result & 0xFF]
    if result == 0:
        flags |= ZF
    elif result & _SIGN:
        flags |= SF
    return (rflags & ~_ALL) | flags


def add_flags(rflags: int, result_wide: int, a: int, b: int) -> int:
    """ADD/INC flag update (CPU fast path; positional args only).

    Signed overflow when the operand signs agree and the result sign differs
    from them — expressed bitwise (``~(a^b) & (a^result)`` has the sign bit
    set exactly then), avoiding per-call bool plumbing.
    """
    result = result_wide & _MASK64
    flags = _PARITY_TABLE[result & 0xFF]
    if result == 0:
        flags |= ZF
    elif result & _SIGN:
        flags |= SF
    if result_wide > _MASK64:
        flags |= CF  # carry out
    if ~(a ^ b) & (a ^ result) & _SIGN:
        flags |= OF
    return (rflags & ~_ALL) | flags


def sub_flags(rflags: int, result_wide: int, a: int, b: int) -> int:
    """SUB/CMP/DEC flag update (CPU fast path; positional args only)."""
    result = result_wide & _MASK64
    flags = _PARITY_TABLE[result & 0xFF]
    if result == 0:
        flags |= ZF
    elif result & _SIGN:
        flags |= SF
    if result_wide < 0:
        flags |= CF  # borrow
    if (a ^ b) & (a ^ result) & _SIGN:
        flags |= OF
    return (rflags & ~_ALL) | flags


def update_flags_arith(
    rflags: int, result_wide: int, a: int, b: int, *, subtraction: bool
) -> int:
    """Flag update for ADD/SUB/CMP/INC/DEC style arithmetic.

    ``result_wide`` is the un-truncated Python integer result (``a + b`` or
    ``a - b``) so carry/borrow can be derived; ``a`` and ``b`` are the 64-bit
    operands as read.
    """
    if subtraction:
        return sub_flags(rflags, result_wide, a, b)
    return add_flags(rflags, result_wide, a, b)


#: Condition-code evaluation table for the ISA's conditional jumps.
_CONDITIONS = {
    "e": lambda f: bool(f & ZF),
    "ne": lambda f: not f & ZF,
    "l": lambda f: bool(f & SF) != bool(f & OF),
    "le": lambda f: bool(f & ZF) or (bool(f & SF) != bool(f & OF)),
    "g": lambda f: (not f & ZF) and (bool(f & SF) == bool(f & OF)),
    "ge": lambda f: bool(f & SF) == bool(f & OF),
    "b": lambda f: bool(f & CF),
    "ae": lambda f: not f & CF,
    "be": lambda f: bool(f & CF) or bool(f & ZF),
    "a": lambda f: (not f & CF) and (not f & ZF),
    "s": lambda f: bool(f & SF),
    "ns": lambda f: not f & SF,
}


def condition_met(code: str, rflags: int) -> bool:
    """Evaluate condition code ``code`` (``"e"``, ``"ne"``, ...) on rflags."""
    return _CONDITIONS[code](rflags)


CONDITION_CODES: tuple[str, ...] = tuple(_CONDITIONS)
__all__.append("CONDITION_CODES")


def _condition_table(code: str) -> int:
    """16-bit truth table over (CF, ZF, SF, OF) combinations for ``code``.

    Bit ``i`` of the table answers the condition for the flag combination
    where CF = bit 0 of ``i``, ZF = bit 1, SF = bit 2, OF = bit 3.  A plain
    int, so it can live on (picklable) decoded instructions; the CPU indexes
    it instead of calling a predicate per conditional branch.
    """
    table = 0
    fn = _CONDITIONS[code]
    for i in range(16):
        rflags = (CF if i & 1 else 0) | (ZF if i & 2 else 0) \
            | (SF if i & 4 else 0) | (OF if i & 8 else 0)
        if fn(rflags):
            table |= 1 << i
    return table


#: code -> truth table (see :func:`_condition_table`).
CONDITION_TABLES: dict[str, int] = {c: _condition_table(c) for c in CONDITION_CODES}
__all__.append("CONDITION_TABLES")
