"""Symbol model and textual DSL for the geometric message alphabet.

A message is an ordered sequence of symbols, each one of: a tensor object
with contravariant rank r (up marks) and covariant rank s (down marks),
optionally anchored at a point or marked as a non-tensorial affinity; the
spacetime manifold; or the electromagnetic three-structure group.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

MAX_TOTAL_RANK = 9


class SymbolKind(Enum):
    TENSOR = "tensor"
    SPACETIME = "spacetime"
    MAXWELL = "maxwell"


class DslSyntaxError(ValueError):
    """Raised on any malformed DSL input; carries the offending token index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (token {position})")
        self.position = position


@dataclass(frozen=True)
class SymbolSpec:
    """One symbol: kind plus rank/point/affinity structure.

    Non-tensor kinds carry no rank or flags. Affinity symbols use tilde
    marks instead of arrows, never carry a point dot, and need at least
    one mark. Total rank is bounded so rendered glyph runs stay short.
    """

    kind: SymbolKind
    contra_rank: int = 0
    co_rank: int = 0
    at_point: bool = False
    affinity: bool = False

    def __post_init__(self):
        if self.contra_rank < 0 or self.co_rank < 0:
            raise ValueError("ranks must be non-negative")
        if self.kind is not SymbolKind.TENSOR:
            if self.contra_rank or self.co_rank or self.at_point or self.affinity:
                raise ValueError(f"{self.kind.value} symbol admits no rank or flags")
            return
        if self.contra_rank + self.co_rank > MAX_TOTAL_RANK:
            raise ValueError(
                f"total rank {self.contra_rank + self.co_rank} exceeds maximum {MAX_TOTAL_RANK}"
            )
        if self.affinity and self.at_point:
            raise ValueError("affinity symbols carry no point dot")
        if self.affinity and self.contra_rank + self.co_rank == 0:
            raise ValueError("affinity symbols need at least one mark")


def tensor(r: int, s: int, at_point: bool = False) -> SymbolSpec:
    return SymbolSpec(SymbolKind.TENSOR, r, s, at_point=at_point)


def affinity(r: int, s: int) -> SymbolSpec:
    return SymbolSpec(SymbolKind.TENSOR, r, s, affinity=True)


SPACETIME = SymbolSpec(SymbolKind.SPACETIME)
MAXWELL = SymbolSpec(SymbolKind.MAXWELL)


@dataclass(frozen=True)
class Message:
    """Non-empty ordered sequence of symbols; order is meaningful."""

    symbols: tuple[SymbolSpec, ...]

    def __post_init__(self):
        if not self.symbols:
            raise ValueError("message must contain at least one symbol")
        object.__setattr__(self, "symbols", tuple(self.symbols))

    def __iter__(self):
        return iter(self.symbols)

    def __len__(self):
        return len(self.symbols)


_RANKED = re.compile(r"^(tensor|affinity)\((\d+),(\d+)\)(@p)?$")

# The symbols written by name. print_symbol emits these names; parse_dsl
# also reads the alias riemann, which is never printed.
_NAMED = {
    "spacetime": SPACETIME,
    "em": MAXWELL,
    "vector": tensor(1, 0),
    "vector@p": tensor(1, 0, at_point=True),
    "form": tensor(0, 1),
    "form@p": tensor(0, 1, at_point=True),
}
_NAME_OF = {spec: name for name, spec in _NAMED.items()}
_PARSE_NAMED = _NAMED | {"riemann": tensor(1, 3)}


def _parse_token(token: str, position: int) -> SymbolSpec:
    if token in _PARSE_NAMED:
        return _PARSE_NAMED[token]
    m = _RANKED.match(token)
    if m is None:
        raise DslSyntaxError(f"unknown token {token!r}", position)
    name, r, s, at_p = m.groups()
    try:
        return SymbolSpec(
            SymbolKind.TENSOR, int(r), int(s), at_point=bool(at_p), affinity=name == "affinity"
        )
    except ValueError as err:
        raise DslSyntaxError(f"{err} in {token!r}", position) from None


def parse_dsl(text: str) -> Message:
    """Parse whitespace-separated DSL tokens into a Message.

    Accepted tokens: vector, form (each with optional @p), tensor(r,s),
    tensor(r,s)@p, affinity(r,s), spacetime, em, riemann. Anything else
    raises DslSyntaxError with the token position.
    """
    tokens = text.split()
    if not tokens:
        raise DslSyntaxError("empty input", 0)
    return Message(tuple(_parse_token(tok, i) for i, tok in enumerate(tokens)))


def print_symbol(spec: SymbolSpec) -> str:
    """Canonical token for one symbol; parse_dsl inverts it exactly."""
    if spec in _NAME_OF:
        return _NAME_OF[spec]
    word = "affinity" if spec.affinity else "tensor"
    suffix = "@p" if spec.at_point else ""
    return f"{word}({spec.contra_rank},{spec.co_rank}){suffix}"


def print_dsl(msg: Message) -> str:
    """Canonical text of a message: one token per symbol, space-separated.

    vector/form shorthands are emitted for ranks (1,0) and (0,1); the
    riemann parse alias is never printed, so (1,3) comes out structural.
    """
    return " ".join(print_symbol(s) for s in msg)


def canonical_messages() -> dict[str, Message]:
    """The four named golden messages used throughout the test suite."""
    primer = Message(
        (
            tensor(1, 0, at_point=True),
            tensor(1, 0),
            tensor(0, 1, at_point=True),
            tensor(0, 1),
            tensor(2, 3),
            SPACETIME,
            MAXWELL,
            tensor(1, 3),
        )
    )
    return {
        "riemann": Message((tensor(1, 3),)),
        "spacetime": Message((SPACETIME,)),
        "em": Message((MAXWELL,)),
        "primer": primer,
    }
