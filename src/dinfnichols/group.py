"""The infinite dihedral group <h, g | g^2 = 1, g h g = h^-1>.

Elements are kept in the unique normal form g^e h^n (reflection on the
left), so the representation *is* the normal form and equality is plain
field equality.  Exponents are arbitrary-precision ints: braiding index
arithmetic like 2m+n grows without bound under iteration.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class GroupElement:
    """g^reflection * h^exponent, with reflection in {0, 1}.

    The slots are declared by hand rather than with ``slots=True``, so that
    assigning any name raises ``FrozenInstanceError``; ``__reduce__`` lets
    copy and pickle rebuild the value through the validating constructor.
    """

    __slots__ = ("reflection", "exponent")

    reflection: int
    exponent: int

    def __post_init__(self):
        if self.reflection not in (0, 1):
            raise ValueError("reflection bit must be 0 or 1")

    def __reduce__(self):
        return type(self), (self.reflection, self.exponent)

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        # (g^e h^m)(g^d h^n) = g^(e xor d) h^((-1)^d m + n)
        if not isinstance(other, GroupElement):
            return NotImplemented
        m = -self.exponent if other.reflection else self.exponent
        return GroupElement(self.reflection ^ other.reflection, m + other.exponent)

    def inverse(self) -> "GroupElement":
        # reflections are involutions: (g h^n)^-1 = g h^n
        if self.reflection:
            return self
        return GroupElement(0, -self.exponent)

    def conjugate(self, other: "GroupElement") -> "GroupElement":
        """self * other * self^-1."""
        return self * other * self.inverse()

    def __pow__(self, n: int) -> "GroupElement":
        if self.reflection:
            return self if n % 2 else IDENTITY
        return GroupElement(0, self.exponent * n)

    def __str__(self) -> str:
        if self.reflection == 0 and self.exponent == 0:
            return "1"
        parts = []
        if self.reflection:
            parts.append("g")
        if self.exponent == 1:
            parts.append("h")
        elif self.exponent != 0:
            parts.append(f"h^{self.exponent}")
        return " ".join(parts)

    @classmethod
    def identity(cls) -> "GroupElement":
        return IDENTITY

    @classmethod
    def h(cls, n: int = 1) -> "GroupElement":
        return GroupElement(0, n)

    @classmethod
    def g(cls) -> "GroupElement":
        return GroupElement(1, 0)


IDENTITY = GroupElement(0, 0)

_ELEMENT_RE = re.compile(r"^(?:1|(g)?\s*(?:h(?:\^(-?\d+))?)?)$")


def parse_element(text: str) -> GroupElement:
    """Parse "1", "g", "h^-3", "g h^2" (also "h", "gh^2")."""
    s = text.strip()
    m = _ELEMENT_RE.match(s)
    if not m or not s:
        raise ValueError(f"cannot parse group element {text!r}")
    if s == "1":
        return IDENTITY
    refl = 1 if m.group(1) else 0
    if "h" not in s:
        return GroupElement(refl, 0)
    exp = int(m.group(2)) if m.group(2) is not None else 1
    return GroupElement(refl, exp)


# -- conjugacy classes -------------------------------------------------------

ONE = "One"
H_POWER = "HPower"
EVEN_REFLECTIONS = "EvenReflections"
ODD_REFLECTIONS = "OddReflections"


@dataclass(frozen=True)
class ConjClass:
    """One of: the identity class, {h^n, h^-n}, or the two reflection classes."""

    tag: str
    n: int = 0

    def __post_init__(self):
        if self.tag not in (ONE, H_POWER, EVEN_REFLECTIONS, ODD_REFLECTIONS):
            raise ValueError(f"unknown class tag {self.tag!r}")
        if self.tag == H_POWER and self.n < 1:
            raise ValueError("HPower carries a strictly positive integer")
        if self.tag != H_POWER and self.n != 0:
            raise ValueError(f"{self.tag} carries no integer")

    def __str__(self) -> str:
        return f"HPower({self.n})" if self.tag == H_POWER else self.tag

    def base_point(self) -> GroupElement:
        if self.tag == ONE:
            return IDENTITY
        if self.tag == H_POWER:
            return GroupElement(0, self.n)
        if self.tag == EVEN_REFLECTIONS:
            return GroupElement(1, 0)
        return GroupElement(1, 1)

    def contains(self, x: GroupElement) -> bool:
        return conj_class_of(x) == self


def conj_class_of(x: GroupElement) -> ConjClass:
    if x.reflection == 0:
        if x.exponent == 0:
            return ConjClass(ONE)
        return ConjClass(H_POWER, abs(x.exponent))
    if x.exponent % 2 == 0:
        return ConjClass(EVEN_REFLECTIONS)
    return ConjClass(ODD_REFLECTIONS)


def class_is_infinite(c: ConjClass) -> bool:
    return c.tag in (EVEN_REFLECTIONS, ODD_REFLECTIONS)


def centralizer_contains(s: GroupElement, x: GroupElement) -> bool:
    """Whether s commutes with x, by normal-form multiplication."""
    return s * x == x * s


def coset_reps(c: ConjClass) -> Iterator[GroupElement]:
    """Coset representatives of the base point's centralizer, lazily.

    Conjugating the class base point by the yielded elements enumerates
    the class without repetition: {1} for the identity class, {1, g} for
    {h^n, h^-n}, and 1, h^n, g h^n (n = 1, 2, ...) for the two infinite
    reflection classes.
    """
    if c.tag == ONE:
        yield IDENTITY
        return
    if c.tag == H_POWER:
        yield IDENTITY
        yield GroupElement(1, 0)
        return
    # For the odd class, 1 and g h lie in the same centralizer coset (both fix
    # the base point gh), so the reflection branch starts one step later there.
    shift = 1 if c.tag == ODD_REFLECTIONS else 0
    yield IDENTITY
    n = 1
    while True:
        yield GroupElement(0, n)
        yield GroupElement(1, n + shift)
        n += 1
