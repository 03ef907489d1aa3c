"""Exception taxonomy shared by all omegalab modules, the budgets whose
exhaustion raises ``ResourceError``, and the line reader of every input
file format (``records`` and ``ints``), whose ``ParseError`` names a line."""

from collections.abc import Iterator
from dataclasses import dataclass, fields


class OmegalabError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(OmegalabError, ValueError):
    """An argument is outside the documented range (e.g. an even functor index)."""


class PreconditionError(OmegalabError, ValueError):
    """An input violates a documented precondition (e.g. a graph is not square-free)."""


class ResourceError(OmegalabError, RuntimeError):
    """A configured budget (vertices, simplices, search nodes) was exhausted.

    Deliberately distinct from a negative answer: callers must never treat
    a budget cutoff as a proof of non-existence.
    """


@dataclass(frozen=True)
class Budgets:
    """The bounds of every bounded stage: the vertices of a graph or an
    omega construction, the distinct faces of a complex, and the search
    nodes of the homomorphism solver.  Each field must be at least 1.

    Entry points that run more than one bounded stage take the record; a
    primitive that enforces one bound takes its int, defaulting to the
    field of ``DEFAULT_BUDGETS``."""

    vertex_budget: int = 10**6
    simplex_budget: int = 10**7
    node_budget: int = 10_000_000

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 1:
                raise ParameterError(f"{f.name.replace('_', ' ')} must be positive")


DEFAULT_BUDGETS = Budgets()


class ContractError(OmegalabError, RuntimeError):
    """An internal consistency check failed; indicates a bug or a falsified claim."""


class ParseError(OmegalabError, ValueError):
    """A text file does not follow the documented format."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def records(text: str) -> Iterator[tuple[int, str, list[str]]]:
    """Each non-blank line of ``text``: (line number, stripped line, fields)."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if line := raw.strip():
            yield lineno, line, line.split()


def ints(words: list[str], message: str, line: int) -> list[int]:
    """The fields ``words`` as ints, or ``ParseError(message, line)``."""
    try:
        return [int(w) for w in words]
    except ValueError:
        raise ParseError(message, line) from None
