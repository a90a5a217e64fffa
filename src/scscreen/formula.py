"""Chemical-formula parsing, validation, and normalization.

Grammar (whitespace and the interpunct "·" act as separators and may
appear between any two tokens):

    formula   := item+
    item      := element subscript? | "(" item+ ")" subscript?
    subscript := term (sign term)*     e.g. 2, 0.35, x, 8+x, 2-x, 1+x-y
    term      := number | variable
    number    := digits with an optional decimal point (no exponent form:
                 "1e-2" right after a number is a syntax error)
    variable  := a single alphabetic character that is not part of an
                 element symbol (e.g. the x in La2-xSrxCuO4), or a
                 one-letter element symbol right after a sign (the B in
                 "H-B"): counts after a sign are stoichiometric

Element symbols are matched greedily: an uppercase letter followed by a
lowercase letter is first tried as a two-letter symbol, and if that is not
one of the 118 known symbols the single letter is tried instead, leaving
the lowercase letter to be read as a variable. A subscript that starts
with a sign ("O+x") is read with an implicit leading 1. Counts evaluate
left to right; zero or negative totals are rejected rather than silently
dropped.

Most formulas are plain runs of element and count ("Nb3Sn",
"Ba0.6K0.4Fe2As2"). Those are read by one ASCII regex match, summing the
counts per symbol in order of first appearance, and then checked only for
what the match cannot see: a known symbol, a count > 0 and a finite sum.
Anything else - parentheses, separators, signs, variables, an unknown
symbol, a zero count or an overflowing sum - goes to the tokenizer and
parser below, which give the same counts and raise every error.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterator, Mapping

import numpy as np

from .ptable import ATOMIC_NUMBER


class FormulaError(ValueError):
    """Base class for every parse or normalization failure."""


class MalformedSyntaxError(FormulaError):
    def __init__(self, raw: str, position: int, reason: str):
        super().__init__(f"{reason} at position {position} in {raw!r}")
        self.raw = raw
        self.position = position


class UnknownElementError(FormulaError):
    def __init__(self, raw: str, position: int, token: str):
        super().__init__(f"unknown element {token!r} at position {position} in {raw!r}")
        self.raw = raw
        self.position = position
        self.token = token


class UnresolvedVariableError(FormulaError):
    def __init__(self, raw: str, variables):
        names = sorted(variables)
        super().__init__(f"unresolved stoichiometry variable(s) {names} in {raw!r}")
        self.variables = tuple(names)


class NonPositiveCountError(FormulaError):
    def __init__(self, raw: str, symbol: str, value: float):
        super().__init__(f"element {symbol} has non-positive count {value:g} in {raw!r}")
        self.symbol = symbol
        self.value = value


class EmptyCountsError(FormulaError):
    pass


_SEPARATORS = " \t\r\n·"
_DIGITS = "0123456789"  # ASCII only; unicode "digits" like superscripts are rejected
_EXPONENT = re.compile(r"[eE][+-]?[0-9]")

# ---------------------------------------------------------------------------
# tokenizer

_ELEMENT = "element"
_NUMBER = "number"
_VARIABLE = "variable"
_SIGN = "sign"
_LPAREN = "lparen"
_RPAREN = "rparen"


def _tokenize(raw: str) -> Iterator[tuple[str, object, int]]:
    """Yield (kind, value, position) triples; raises on unknown characters."""
    kind = None  # the kind of the token yielded last
    i, n = 0, len(raw)
    while i < n:
        ch = raw[i]
        end = i + 1
        if ch in _SEPARATORS:
            i = end
            continue
        if ch == "(":
            kind, value = _LPAREN, "("
        elif ch == ")":
            kind, value = _RPAREN, ")"
        elif ch in "+-":
            kind, value = _SIGN, 1.0 if ch == "+" else -1.0
        elif ch in _DIGITS or ch == ".":
            seen_dot = ch == "."
            while end < n and (raw[end] in _DIGITS or (raw[end] == "." and not seen_dot)):
                seen_dot = seen_dot or raw[end] == "."
                end += 1
            text = raw[i:end]
            if text == ".":
                raise MalformedSyntaxError(raw, i, "stray decimal point")
            if _EXPONENT.match(raw, end):
                raise MalformedSyntaxError(raw, end, "exponent form (1e-2) is not read")
            kind, value = _NUMBER, float(text)
        elif ch.isupper():
            two = raw[i : i + 2]
            if len(two) == 2 and two in ATOMIC_NUMBER:
                kind, value, end = _ELEMENT, two, i + 2
            elif ch in ATOMIC_NUMBER:
                # a bare letter after a sign is stoichiometric, never an element
                kind, value = _VARIABLE if kind == _SIGN else _ELEMENT, ch
            else:
                raise UnknownElementError(raw, i, two if two[1:].islower() else ch)
        elif ch.isalpha():
            kind, value = _VARIABLE, ch
        else:
            raise MalformedSyntaxError(raw, i, f"unexpected character {ch!r}")
        yield kind, value, i
        i = end


# ---------------------------------------------------------------------------
# parser
#
# The tree is a list of ("element", symbol, count) and ("group", children,
# count) nodes, count being a subscript's float value or None for an
# implicit 1. Each subscript is evaluated as it is read; a variable in one is
# only collected into `variables`, and parse_formula rejects the formula once
# the whole string has parsed, so a syntax error is always reported first.
# Groups nest at most _MAX_DEPTH deep, which bounds the recursion of both
# parse_items and _evaluate well inside Python's recursion limit.

_MAX_DEPTH = 100


class _Parser:
    def __init__(self, raw: str):
        self.raw = raw
        self.tokens = list(_tokenize(raw))
        self.pos = 0
        self.variables: set[str] = set()

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None, len(self.raw))

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self) -> list:
        items = self.parse_items(depth=0)
        kind, _, at = self.peek()
        if kind is not None:
            raise MalformedSyntaxError(self.raw, at, "unmatched ')'")
        return items

    def parse_items(self, depth: int) -> list:
        items = []
        while True:
            kind, value, at = self.peek()
            if kind == _ELEMENT:
                self.take()
                items.append(("element", value, self.parse_subscript()))
            elif kind == _LPAREN:
                if depth == _MAX_DEPTH:
                    raise MalformedSyntaxError(
                        self.raw, at, f"groups nested more than {_MAX_DEPTH} deep"
                    )
                self.take()
                children = self.parse_items(depth + 1)
                kind2, _, at2 = self.peek()
                if kind2 != _RPAREN:
                    raise MalformedSyntaxError(self.raw, at, "unclosed '('")
                self.take()
                items.append(("group", children, self.parse_subscript()))
            elif kind == _RPAREN and depth:
                break
            elif kind is None:
                break
            else:
                raise MalformedSyntaxError(
                    self.raw, at, "expected an element symbol or '('"
                )
        if not items:
            _, _, at = self.peek()
            raise MalformedSyntaxError(self.raw, at, "empty formula or group")
        return items

    def parse_subscript(self) -> float | None:
        """Parse the subscript's constant, or return None when absent.

        Variables add nothing to the constant; they go to self.variables.
        """
        kind, value, _ = self.peek()
        if kind == _NUMBER:
            self.take()
            const = value
        elif kind == _VARIABLE:
            self.take()
            const = 0.0
            self.variables.add(value)
        elif kind == _SIGN:
            const = 1.0  # "O+x" means a base count of 1
        else:
            return None
        while True:
            kind, sign, _ = self.peek()
            if kind != _SIGN:
                return const
            self.take()
            kind, value, at = self.take()
            if kind == _NUMBER:
                const += sign * value
            elif kind == _VARIABLE:
                self.variables.add(value)
            else:
                raise MalformedSyntaxError(
                    self.raw, at, "expected a number or variable after sign"
                )


def _evaluate(items, raw, counts, multiplier=1.0) -> None:
    for kind, body, value in items:
        if value is None:
            value = 1.0
        if kind == "element":
            total = value * multiplier
            if total <= 0.0:
                raise NonPositiveCountError(raw, body, total)
            total += counts.get(body, 0.0)
            if not math.isfinite(total):  # past the float range, or inf - inf
                raise FormulaError(f"element {body} has non-finite count {total} in {raw!r}")
            counts[body] = total
        else:
            if value <= 0.0:
                raise NonPositiveCountError(raw, "(group)", value)
            _evaluate(body, raw, counts, multiplier * value)


def _parse_full(raw: str) -> dict[str, float]:
    parser = _Parser(raw)
    tree = parser.parse()
    if parser.variables:
        raise UnresolvedVariableError(raw, parser.variables)
    counts: dict[str, float] = {}
    _evaluate(tree, raw, counts)
    return counts


# One element-count run per match; ASCII classes only, because \d would also
# take the Unicode digits the tokenizer rejects.
_PLAIN = re.compile(r"(?:[A-Z][a-z]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)?)+")
_RUN = re.compile(r"([A-Z][a-z]?)([0-9]+(?:\.[0-9]*)?|\.[0-9]+)?")


def _plain_counts(raw: str) -> dict[str, float] | None:
    """The counts of a plain element-count formula, or None when the full
    parser must read it (it is not plain, or it fails a check)."""
    if _PLAIN.fullmatch(raw) is None:
        return None
    counts: dict[str, float] = {}
    for symbol, number in _RUN.findall(raw):
        if symbol not in ATOMIC_NUMBER:
            return None
        value = float(number) if number else 1.0
        if not 0.0 < value < math.inf:
            return None
        if symbol in counts:
            value += counts[symbol]
            if value == math.inf:
                return None
        counts[symbol] = value
    return counts


def parse_formula(raw: str) -> dict[str, float]:
    """Parse a concrete formula into {symbol: count}.

    Counts are un-normalized ("H2O" -> {"H": 2.0, "O": 1.0}); repeated
    mentions of an element accumulate. A formula that still carries a
    stoichiometry variable ("La2-xSrxCuO4") raises UnresolvedVariableError:
    the program never binds one, so a concrete value has to be written into
    the formula before it is parsed.
    """
    counts = _plain_counts(raw)
    return _parse_full(raw) if counts is None else counts


def has_unresolved_variables(raw: str) -> bool:
    """True when the string contains a symbolic stoichiometry variable.

    Works lexically so it never raises: a malformed string reports whether
    a variable appears in the prefix that tokenizes cleanly.
    """
    try:
        return any(kind == _VARIABLE for kind, _, _ in _tokenize(raw))
    except FormulaError:
        return False


def _format_count(value: float) -> str:
    """Shortest exact decimal for a count; integers print without a point.

    Positional notation only - the grammar has no exponent form - and unique
    round-trip, so float(_format_count(v)) == v.
    """
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    if 1e-4 <= abs(value) < 1e16:
        return repr(value)  # positional in this range, and ~10x faster than numpy
    return np.format_float_positional(value, unique=True, trim="-")


_KEY_SCALE = 10**6  # Composition.key() resolution: fractions in steps of 1e-6


class Composition(Mapping):
    """An immutable normalized composition: molar fractions that sum to 1.

    Made by `parse_composition` or `normalize` (`Composition(...)` takes no
    arguments); copy, deepcopy and pickle restore its fractions exactly.
    Iteration order is by atomic number. Identity is `key()`: the same
    elements with every fraction rounded to the same multiple of 1e-6.
    Equality, hashing, dedup, overlap removal, training-filter removal and
    the leakage checks all go through it; the hash of the key is computed
    once, at construction, so sets and dicts of compositions never rebuild
    a key tuple to place one. The one cost of a hashable rule: two
    fractions less than 1e-6 apart that lie on opposite sides of a rounding
    edge count as different materials.
    """

    __slots__ = ("_fractions", "_formula", "_hash")

    @classmethod
    def _from_counts(cls, counts: dict[str, float], shown: Mapping | None = None) -> Composition:
        """normalize() for finite float counts > 0 (what `parse_formula`
        returns). An overflowing sum names `shown` (default counts); then
        each symbol in turn must be known and its fraction not underflow."""
        try:
            total = math.fsum(counts.values())
        except OverflowError:
            shown = dict(shown or counts)
            raise FormulaError(f"the sum of the counts overflows in {shown}") from None
        fractions = {}
        for symbol, value in counts.items():
            if symbol not in ATOMIC_NUMBER:
                raise UnknownElementError(str(symbol), 0, str(symbol))
            f = value / total
            if f <= 0.0:  # underflow
                raise NonPositiveCountError(symbol, symbol, f)
            fractions[symbol] = f
        return cls._of(fractions)

    @classmethod
    def _of(cls, fractions: dict[str, float]) -> Composition:
        """The composition of these exact fractions, never renormalized:
        what `_from_counts` builds and what copy and pickle restore."""
        total = math.fsum(fractions.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"fractions sum to {total!r}, not 1")
        self = object.__new__(cls)
        ordered = {s: fractions[s] for s in sorted(fractions, key=ATOMIC_NUMBER.__getitem__)}
        object.__setattr__(self, "_fractions", ordered)
        object.__setattr__(self, "_formula", None)
        object.__setattr__(self, "_hash", hash(self.key()))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Composition is immutable")

    def __reduce__(self):
        # copy and pickle restore the stored fractions bit for bit; the hash
        # is recomputed, since string hashes differ between processes
        return (Composition._of, (dict(self._fractions),))

    def __getitem__(self, symbol: str) -> float:
        return self._fractions[symbol]

    def __iter__(self):
        return iter(self._fractions)

    def __len__(self) -> int:
        return len(self._fractions)

    def __contains__(self, symbol) -> bool:
        # the dict's own test; Mapping's would call __getitem__ and catch a KeyError
        return symbol in self._fractions

    def items(self):
        # the dict's own view; Mapping's would look up every key again
        return self._fractions.items()

    def __repr__(self) -> str:
        return f"Composition({self.formula()!r})"

    def __eq__(self, other) -> bool:
        if isinstance(other, Composition):
            return self._hash == other._hash and self.key() == other.key()
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def key(self) -> tuple:
        """Identity key: symbol, round(fraction * 10**6), symbol, ... in
        atomic-number order, as one flat tuple. Only its hash is kept."""
        return tuple([x for s, f in self._fractions.items() for x in (s, round(f * _KEY_SCALE))])

    def formula(self) -> str:
        """Canonical formula: atomic-number order, shortest exact fractions.

        Parsing the result and renormalizing recovers the same fractions to
        within a few ulps. This is the name a composition is shown and
        fingerprinted by; identity is `key()`.
        """
        cached = self._formula
        if cached is None:
            fractions = self._fractions
            if len(fractions) == 1:
                cached = next(iter(fractions))
            else:
                # _format_count(f), inlined where it is repr(f): this runs for
                # every composition a fingerprint or a result table names
                cached = "".join([
                    s + (repr(f) if 1e-4 <= f < 1.0 else _format_count(f))
                    for s, f in fractions.items()
                ])
            object.__setattr__(self, "_formula", cached)
        return cached


def normalize(counts: Mapping[str, float]) -> Composition:
    """Scale raw counts to molar fractions."""
    if not counts:
        raise EmptyCountsError("cannot normalize an empty count map")
    values = {}
    for symbol, value in counts.items():
        try:
            value = values[symbol] = float(value)
        except (OverflowError, TypeError) as err:  # too large an int, or not a number
            raise FormulaError(
                f"element {symbol} has count {value!r} in {dict(counts)}: {err}"
            ) from None
        if value <= 0.0:
            raise NonPositiveCountError(str(dict(counts)), symbol, value)
        if not math.isfinite(value):
            raise FormulaError(f"element {symbol} has non-finite count {value} in {dict(counts)}")
    return Composition._from_counts(values, counts)


def parse_composition(raw: str) -> Composition:
    """parse_formula followed by normalize; the one-call path used everywhere."""
    return Composition._from_counts(parse_formula(raw))
