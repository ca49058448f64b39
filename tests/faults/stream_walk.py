"""Twin classification by walking a recorded address stream: the oracle for
the lock-step slot scan.

Production keeps a golden run's stream as instruction slots bound to
per-program access rows and answers each twin with one scan
(:func:`repro.machine.lockstep.classify_twin`).  This walk decodes every
retired address on its own, the way the stream was lowered before plans
existed, and settles a flip at every index of the run and past it.
"""

from __future__ import annotations

from repro.machine.isa import Op, instr_register_accesses
from repro.machine.lockstep import DEAD, PEEL
from repro.machine.registers import ALL_REGISTERS, RegisterFile


def walk_fates(program, addresses) -> dict[str, list[tuple[str, int | None]]]:
    """``fates[register][index]``: what the scan must answer for a flip of
    ``register`` scheduled at ``index``, for every index in ``[0, n + 2]``."""
    n = len(addresses)
    instrs = [program.instruction_at(address) for address in addresses]
    # A flip applies at the next dispatch: consecutive same-address REP
    # entries are one.
    tops = [
        i for i in range(n)
        if not (i and instrs[i].op is Op.REP_MOVS and addresses[i] == addresses[i - 1])
    ]
    fates = {}
    for register in ALL_REGISTERS:
        reg = RegisterFile.index_of(register)
        # live[i]: the fate of a flip already in the register at retirement i.
        live = [(DEAD, None)] * n
        fate = (DEAD, None)
        for i in range(n - 1, -1, -1):
            reads, writes = instr_register_accesses(instrs[i])
            if reg in reads:
                fate = (PEEL, i)
            elif reg in writes:
                fate = (DEAD, None)
            live[i] = fate
        row = []
        t = 0
        for index in range(n + 3):
            while t < len(tops) and tops[t] < index:
                t += 1
            if register in ("rip", "rflags") or t == len(tops):
                row.append((PEEL, None))
            else:
                row.append(live[tops[t]])
        fates[register] = row
    return fates
