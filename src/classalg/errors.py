"""Exception types shared across the package, parse_int for digit runs, and
clip and clip_int for the user text and integers that error messages quote."""

from __future__ import annotations


class ClassAlgError(Exception):
    """Base class for all errors raised by this package."""


class GroupTableError(ClassAlgError):
    """A multiplication table failed validation."""


class NotClosed(GroupTableError):
    """Table entry out of range, so the operation is not closed."""

    def __init__(self, i: int, j: int, value: object):
        super().__init__(f"table entry [{i}][{j}] = {value!r} is not an element index")
        self.i, self.j, self.value = i, j, value


class NotAssociative(GroupTableError):
    """Found a triple (x, y, z) with (xy)z != x(yz)."""

    def __init__(self, x: int, y: int, z: int):
        super().__init__(f"(x*y)*z != x*(y*z) for x={x}, y={y}, z={z}")
        self.x, self.y, self.z = x, y, z


class NoIdentity(GroupTableError):
    """No two-sided identity element exists."""


class NoInverse(GroupTableError):
    """Some element has no two-sided inverse."""

    def __init__(self, x: int):
        super().__init__(f"element {x} has no two-sided inverse")
        self.x = x


class UnknownBuiltin(ClassAlgError):
    """Requested base-group name is not a recognized builtin."""


class LevelMismatch(ClassAlgError):
    """Operands live at different levels n."""


class WrongBaseGroup(ClassAlgError):
    """Operation requires a specific base group (e.g. order 2)."""


class BudgetExceeded(ClassAlgError):
    """An enumeration would exceed the configured element budget."""


class InvalidLabel(ClassAlgError):
    """A class or basis label violates its validity constraints."""


class ParseError(ClassAlgError):
    """Malformed label text or group file."""


def parse_int(digits: str, what: str) -> int:
    """int(digits) for a run of decimal digits, or ParseError if the run is
    longer than Python converts (sys.get_int_max_str_digits)."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(
            f"{what} has an integer of {len(digits)} digits, too long to convert"
        ) from None


CLIP_CHARS = 80


def clip(text: str) -> str:
    """text as an error message quotes it: its first CLIP_CHARS characters
    and "..." if it is longer, so a huge argument gives a short message."""
    return text if len(text) <= CLIP_CHARS else text[:CLIP_CHARS] + "..."


def clip_int(n: int) -> str:
    """clip(str(n)), converting only the leading digits (str() refuses an integer
    past sys.get_int_max_str_digits()); n has 3 * n.bit_length() // 10 or more."""
    drop = max(abs(n).bit_length() * 3 // 10 - CLIP_CHARS - 1, 0)
    return clip("-" * (n < 0) + str(abs(n) // 10**drop))
