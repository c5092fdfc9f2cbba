"""The :class:`Program` container: code, labels and an initial data image."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.isa.encoding import decode, encode
from repro.isa.instruction import Instruction

__all__ = ["Program"]


@dataclass
class Program:
    """An assembled program.

    Attributes
    ----------
    instructions:
        The text segment, one :class:`Instruction` per word; instruction
        addresses are word indices (the PC counts words).
    labels:
        Text labels -> instruction word index.
    data:
        Initial image of the data segment (byte 0 = data address 0).
    data_labels:
        Data labels -> byte address within the data segment.
    source:
        Original assembly source, if the program came from the assembler.

    The encoded :attr:`words`, their :attr:`decoded` instructions and the
    :attr:`fingerprint` text are computed once, on first use, and kept on
    the program: every processor built on the program fetches the decode,
    and the result cache's job key reads the fingerprint (words, data
    image and both label maps).  :attr:`reference_trace` keeps the dynamic
    functional-unit-type trace of the program's reference run once one has
    recorded it, for every oracle built on the program.  So a program must
    not be edited once any of them has been read: the assembler and a
    kernel that patches its fresh data image write the fields before
    anything reads them.  None of them travels with a pickled or copied
    program.
    """

    instructions: list[Instruction] = field(default_factory=list)
    labels: dict[str, int] = field(default_factory=dict)
    data: bytearray = field(default_factory=bytearray)
    data_labels: dict[str, int] = field(default_factory=dict)
    source: str | None = None
    #: the functional-unit type of every instruction the program's halted
    #: reference run executed, in order; ``None`` until a reference run
    #: records it (:func:`repro.core.baselines.oracle_processor`, the
    #: fuzzer).  Treat it as read-only.
    reference_trace: list | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self.instructions[index]

    @cached_property
    def words(self) -> tuple[int, ...]:
        """The text segment encoded to 32-bit words (the 'legacy binary')."""
        return tuple(map(encode, self.instructions))

    @cached_property
    def decoded(self) -> list[Instruction]:
        """:attr:`words` decoded back, one instruction per PC.

        :func:`~repro.isa.encoding.decode` returns one instruction per
        distinct word for as long as a program holds it, so every live
        program in the process shares these instructions, and with them
        their warmed spec-derived caches and dispatch templates: a word
        that recurs, within a program or across programs, is one object
        (treat the list and its instructions as read-only).
        """
        return list(map(decode, self.words))

    def canonical(self) -> tuple:
        """The program reduced to primitives with a deterministic repr: its
        part of a job's content fingerprint
        (:func:`repro.evaluation.batch.job_key`)."""
        return (
            "program",
            self.words,
            bytes(self.data),
            tuple(sorted(self.labels.items())),
            tuple(sorted(self.data_labels.items())),
        )

    @cached_property
    def fingerprint(self) -> str:
        """``repr`` of :meth:`canonical`, rendered once: a sweep keys one
        program under every policy and parameter point."""
        return repr(self.canonical())

    def __getstate__(self) -> dict:
        # derived from the fields, so a job shipped to a pool worker stays
        # the size of its fields
        state = dict(self.__dict__)
        for derived in ("words", "decoded", "fingerprint", "reference_trace"):
            state.pop(derived, None)
        return state

    def entry(self, label: str = "main") -> int:
        """Start PC: the given label if defined, else word 0."""
        return self.labels.get(label, 0)
