"""Text format for two-sided identities: tokenizer, parser, printer.

Grammar (UTF-8, ``#`` line comments)::

    identity  := header side "==" side
    header    := "params" decl ("," decl)* ";" | "params" ";"
    decl      := name ":" ("nat" | "int" | "rat")
    side      := block ("+" block)*
    block     := "sum" "[" "k" "=" bound ".." bound "]" term "*" kernel
    kernel    := atom ("*" atom)*
    atom      := "x^" exp | "(1-x)^" exp | "(1+x)^" exp
    exp       := affine-atom            # a name, an integer, or "(" affine ")"
    term      := factor ("*" factor)*
    factor    := rational | "(-1)^" exp | "binom(" affine "," affine ")" ["^-1"]
               | "pow(" affine "," affine ")" | "altpowsum(" affine "," affine "," affine ")"
               | quotient | affine-atom | "(" term ")"
    quotient  := affine-atom "/" affine-atom
    bound     := affine | "floor(" halved "/2)" | "min(" affine "," affine ")"
    halved    := affine | "(" affine ")"    # printed bare only for a name or an integer
    affine    := signed linear combination of names with integer coefficients
                 plus a rational constant, e.g. "n - 2k + 1"

The header names every parameter: a name in a block is a declared one or
the index k, and k cannot appear in a bound.  Neither k nor a word of the
grammar (``binom``, ``pow``, ``altpowsum``, ``floor``, ``min``, ``sum``,
``x``) can be declared.  Any other name, and k in a
bound, is a syntax error at that name's line and column.

Printing produces normalized source; ``parse(print(d)) == d`` for every
descriptor this package constructs.  Rationals serialize as ``p/q`` in lowest
terms with the denominator omitted when it is 1.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from .affine import Affine, Bound
from .descriptors import SORTS, IdentityDescriptor, KernelBlock, Side
from .errors import DslArityError, DslSyntaxError
from .terms import (
    AffineFactor,
    AltPowerSum,
    Binom,
    Const,
    Power,
    Product,
    Quot,
    SignPow,
    TermExpr,
    TermSum,
)

__all__ = ["parse_identity", "print_identity"]


# -- tokenizer ---------------------------------------------------------------

class Token(NamedTuple):
    kind: str  # "int", "name", "punct", "end"
    text: str
    offset: int


# each match is whitespace, then one token in one of five groups, the commonest first (comment before bad)
_TOKEN = re.compile(
    r"[ \t\r\n]*(?:(\.\.|==|\^-1|[][(),;:^*/+=-])|([^\W\d]\w*)|(\d+)|(#[^\n]*)|([^ \t\r\n]))"
)
_KINDS = (None, "punct", "name", "int", "comment", "bad")
_NAME, _COMMENT, _BAD = 2, 4, 5
# the end token is repeated so that a peek of up to five tokens ahead, as at
# "(1-x)^", never runs off the list
_LOOKAHEAD = 6
# names that the grammar reads as its own words: as parameters, x^x would be
# the kernel x raised to a parameter
_GRAMMAR_WORDS = frozenset(("binom", "pow", "altpowsum", "floor", "min", "sum", "x"))


def _position(source: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of ``offset``."""
    return source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset)


def _tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    append, new = tokens.append, tuple.__new__  # a Token without its Python-level __new__
    end = len(source)
    for match in _TOKEN.finditer(source):
        group = match.lastindex
        if group == _COMMENT:
            if match.end() == end:
                end = match.start(group)  # the end of input sits where a final comment starts
            continue
        text = match.group(group)
        # a name starts with a letter or "_", not with a numeral such as "½" or "²"
        if group == _BAD or group == _NAME and not (text[0].isalpha() or text[0] == "_"):
            raise DslSyntaxError(f"unexpected character {text[0]!r}", *_position(source, match.start(group)))
        append(new(Token, (_KINDS[group], text, match.start(group))))
    tokens += [Token("end", "", end)] * _LOOKAHEAD
    return tokens


# -- parser ------------------------------------------------------------------

class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0
        self.params: dict[str, str] = {}  # name -> sort, in declaration order
        self.in_bound = False

    # basic machinery

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[self.pos + offset]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def fail(self, message: str, tok: Token | None = None, error=DslSyntaxError):
        tok = tok or self.peek()
        raise error(message, *_position(self.source, tok.offset))

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            found = repr(tok.text) if tok.text else "end of input"
            self.fail(f"expected {text!r}, found {found}", tok)
        return tok

    def at(self, text: str) -> bool:
        return self.tokens[self.pos].text == text

    def accept(self, text: str) -> bool:
        if self.tokens[self.pos].text == text:
            self.pos += 1  # the end token's text is "", which no caller accepts
            return True
        return False

    # grammar

    def identity(self) -> IdentityDescriptor:
        if self.peek().kind == "end":
            self.fail("empty identity source")
        self.header()
        left = self.side()
        self.expect("==")
        right = self.side()
        tok = self.next()
        if tok.kind != "end":
            self.fail(f"trailing input starting at {tok.text!r}", tok)
        return IdentityDescriptor(params=tuple(self.params.items()), left=left, right=right)

    def header(self):
        tok = self.next()
        if tok.text != "params":
            self.fail("identity must start with a params header", tok)
        if self.accept(";"):
            return
        while True:
            name_tok = self.next()
            if name_tok.kind != "name":
                self.fail("expected parameter name", name_tok)
            if name_tok.text == "k":
                self.fail("k is the reserved summation index", name_tok)
            if name_tok.text in _GRAMMAR_WORDS:
                self.fail(f"{name_tok.text} is a word of the grammar, not a parameter name", name_tok)
            self.expect(":")
            sort_tok = self.next()
            if sort_tok.text not in SORTS:
                self.fail(f"unknown sort {sort_tok.text!r}", sort_tok)
            if name_tok.text in self.params:
                self.fail(f"duplicate parameter {name_tok.text!r}", name_tok)
            self.params[name_tok.text] = sort_tok.text
            if self.accept(";"):
                return
            self.expect(",")

    def side(self) -> Side:
        blocks = [self.block()]
        while self.accept("+"):
            blocks.append(self.block())
        return Side(tuple(blocks))

    def block(self) -> KernelBlock:
        self.expect("sum")
        self.expect("[")
        index = self.next()
        if index.text != "k":
            self.fail("summation index must be k", index)
        self.expect("=")
        lo = self.bound()
        self.expect("..")
        hi = self.bound()
        self.expect("]")
        factors = [self.factor()]
        kernel = {}  # "x", "1-x" or "1+x" -> the sum of its exponents
        while self.accept("*"):
            atom = self.try_kernel_atom()
            if atom is not None:
                kernel[atom[0]] = kernel.get(atom[0], Affine.of(0)) + atom[1]
            elif kernel:
                self.fail("only kernel atoms may follow the kernel")
            else:
                factors.append(self.factor())
        if not kernel:
            self.fail("block must end with a kernel such as x^k")
        coef = factors[0] if len(factors) == 1 else Product(tuple(factors))
        zero = Affine.of(0)
        return KernelBlock(lo, hi, coef, *(kernel.get(atom, zero) for atom in ("x", "1-x", "1+x")))

    def try_kernel_atom(self) -> tuple[str, Affine] | None:
        # "x^e" | "(1-x)^e" | "(1+x)^e"
        if self.peek().text == "x" and self.peek(1).text == "^":
            self.next()
            self.next()
            return ("x", self.exponent_atom())
        if (
            self.peek().text == "("
            and self.peek(1).text == "1"
            and self.peek(2).text in ("-", "+")
            and self.peek(3).text == "x"
            and self.peek(4).text == ")"
            and self.peek(5).text == "^"
        ):
            op = self.peek(2).text
            for _ in range(6):
                self.next()
            return ("1-x" if op == "-" else "1+x", self.exponent_atom())
        return None

    def exponent_atom(self) -> Affine:
        if self.accept("("):
            a = self.affine()
            self.expect(")")
            return a
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            return Affine.of(int(tok.text))
        if tok.kind == "name":
            return Affine.var(self.name(self.next()))
        self.fail("expected an exponent")

    def bound(self) -> Bound:
        self.in_bound = True  # an error ends the parse, so the flag needs no reset then
        bound = self.bound_form()
        self.in_bound = False
        return bound

    def bound_form(self) -> Bound:
        if self.peek().text == "floor":
            self.next()
            self.expect("(")
            if self.accept("("):
                base = self.affine()
                self.expect(")")
            else:
                base = self.affine()
            self.expect("/")
            two = self.next()
            if two.text != "2":
                self.fail("only halving bounds are supported", two)
            self.expect(")")
            return Bound(base, half=True)
        if self.peek().text == "min":
            self.next()
            self.expect("(")
            base = self.affine()
            self.expect(",")
            cap = self.affine()
            self.expect(")")
            return Bound(base, cap=cap)
        return Bound(self.affine())

    def affine(self) -> Affine:
        coeffs: dict[str, int] = {}
        const = 0
        sign = -1 if self.accept("-") else 1
        while True:
            name, value = self.affine_term(sign)
            if name is None:
                const += value
            else:
                coeffs[name] = coeffs.get(name, 0) + value
            if self.accept("+"):
                sign = 1
            elif self.accept("-"):
                sign = -1
            else:
                return Affine.build(coeffs, const)

    def affine_term(self, sign: int) -> tuple[str | None, int | Fraction]:
        """One signed term: ``(name, coefficient)``, or ``(None, constant)``."""
        tok = self.next()
        if tok.kind == "int":
            value = int(tok.text)
            if self.peek().kind == "name":
                return self.name(self.next()), sign * value
            if self.at("/") and self.peek(1).kind == "int":
                # rational constant inside an affine form
                self.next()
                return None, Fraction(sign * value, self.denominator())
            return None, sign * value
        if tok.kind == "name":
            return self.name(tok), sign
        self.fail("expected an affine term", tok)

    def name(self, tok: Token) -> str:
        """The text of the name token ``tok``: a declared parameter, or k outside a bound."""
        if tok.text == "k" and self.in_bound:
            self.fail("the summation index k cannot appear in a bound", tok)
        if tok.text != "k" and tok.text not in self.params:
            self.fail(f"undeclared parameter {tok.text!r}", tok)
        return tok.text

    def factor(self) -> TermExpr:
        tok = self.peek()
        # (-1)^e
        if (
            tok.text == "("
            and self.peek(1).text == "-"
            and self.peek(2).text == "1"
            and self.peek(3).text == ")"
            and self.peek(4).text == "^"
        ):
            for _ in range(5):
                self.next()
            return SignPow(self.exponent_atom())
        if tok.text in ("binom", "pow", "altpowsum"):
            return self.call_factor()
        if tok.kind == "int":
            return self.number_or_quotient()
        if tok.text == "-" and self.peek(1).kind == "int":
            self.next()
            inner = self.number_or_quotient()
            if isinstance(inner, Const):
                return Const(-inner.value)
            return Quot(-inner.numer, inner.denom)
        if tok.text == "(":
            return self.paren_factor()
        if tok.kind == "name":
            left = Affine.var(self.name(self.next()))
            if self.accept("/"):
                return Quot(left, self.quotient_operand())
            return AffineFactor(left)
        self.fail("expected a factor")

    def call_factor(self) -> TermExpr:
        name_tok = self.next()
        self.expect("(")
        args = [self.affine()]
        while self.accept(","):
            args.append(self.affine())
        close = self.expect(")")
        arity = {"binom": 2, "pow": 2, "altpowsum": 3}[name_tok.text]
        if len(args) != arity:
            self.fail(f"{name_tok.text} takes {arity} arguments, got {len(args)}", close, DslArityError)
        if name_tok.text == "binom":
            inverted = False
            if self.accept("^-1"):
                inverted = True
            return Binom(args[0], args[1], inverted)
        if name_tok.text == "pow":
            return Power(args[0], args[1])
        return AltPowerSum(args[0], args[1], args[2])

    def number_or_quotient(self) -> TermExpr:
        first = int(self.next().text)
        if self.accept("/"):
            if self.peek().kind == "int":
                return Const(Fraction(first, self.denominator()))
            return Quot(Affine.of(first), self.quotient_operand())
        return Const(Fraction(first))

    def denominator(self) -> int:
        """An integer literal after ``/``; zero is a syntax error at that literal."""
        tok = self.next()
        value = int(tok.text)
        if value == 0:
            self.fail("zero denominator", tok)
        return value

    def quotient_operand(self) -> Affine:
        tok = self.peek()
        if self.accept("("):
            a = self.affine()
            self.expect(")")
        elif tok.kind == "name":
            a = Affine.var(self.name(self.next()))
        elif tok.kind == "int":
            a = Affine.of(self.denominator())
        else:
            self.fail("expected a quotient denominator", self.next())
        if a.is_zero():
            self.fail("zero denominator", tok)
        return a

    def paren_factor(self) -> TermExpr:
        # "(" could open a parenthesized term, a term sum, or an affine factor
        start = self.pos
        self.expect("(")
        try:
            a = self.affine()
            self.expect(")")
        except DslSyntaxError as not_affine:
            self.pos = start
            try:
                return self.paren_term()
            except DslSyntaxError as exc:
                # report the reading that got further, the affine one on a tie: in
                # "(2q)" or "(n - q)" it is the one that names the undeclared q
                further = (exc.line, exc.column) > (not_affine.line, not_affine.column)
                raise (exc if further else not_affine) from None
        if self.accept("/"):
            return Quot(a, self.quotient_operand())
        return AffineFactor(a)

    def paren_term(self) -> TermExpr:
        self.expect("(")
        terms = [self.term_inside_parens()]
        while self.accept("+"):
            terms.append(self.term_inside_parens())
        self.expect(")")
        return terms[0] if len(terms) == 1 else TermSum(tuple(terms))

    def term_inside_parens(self) -> TermExpr:
        factors = [self.factor()]
        while self.accept("*"):
            factors.append(self.factor())
        return factors[0] if len(factors) == 1 else Product(tuple(factors))


def parse_identity(source: str) -> IdentityDescriptor:
    """Parse identity source into a descriptor.

    Raises :class:`DslSyntaxError` (with line and column) on malformed input
    and :class:`DslArityError` for function factors with the wrong arity.
    """
    return _Parser(source).identity()


# -- printer -----------------------------------------------------------------

def _print_exponent(a: Affine) -> str:
    """An exponent, an affine factor or a quotient operand: bare for one name or a constant, else parenthesized."""
    if a.is_constant():
        return str(a.const)
    if len(a.coeffs) == 1 and a.const == 0 and a.coeffs[0][1] == 1:
        return a.coeffs[0][0]
    return f"({a})"


def _print_factor(expr: TermExpr) -> str:
    if isinstance(expr, Const):
        return str(expr.value)
    if isinstance(expr, AffineFactor):
        return _print_exponent(expr.value)
    if isinstance(expr, SignPow):
        return f"(-1)^{_print_exponent(expr.exponent)}"
    if isinstance(expr, Power):
        return f"pow({expr.base}, {expr.exponent})"
    if isinstance(expr, Binom):
        text = f"binom({expr.upper}, {expr.lower})"
        return text + "^-1" if expr.inverted else text
    if isinstance(expr, Quot):
        return f"{_print_exponent(expr.numer)} / {_print_exponent(expr.denom)}"
    if isinstance(expr, AltPowerSum):
        return f"altpowsum({expr.count}, {expr.shift}, {expr.power})"
    if isinstance(expr, Product):
        return " * ".join(_print_factor(f) for f in expr.factors)
    if isinstance(expr, TermSum):
        return "(" + " + ".join(_print_factor(t) for t in expr.terms) + ")"
    raise TypeError(f"cannot print {expr!r}")


def _print_bound(b: Bound) -> str:
    if b.half and b.cap is not None:
        raise ValueError("bounds cannot combine floor and min in source form")
    if b.half:
        return f"floor({_print_exponent(b.base)}/2)"
    if b.cap is not None:
        return f"min({b.base}, {b.cap})"
    return str(b.base)


def _print_block(block: KernelBlock) -> str:
    kernel_atoms = []
    if not block.x_exp.is_zero():
        kernel_atoms.append(f"x^{_print_exponent(block.x_exp)}")
    if not block.one_minus_exp.is_zero():
        kernel_atoms.append(f"(1-x)^{_print_exponent(block.one_minus_exp)}")
    if not block.one_plus_exp.is_zero():
        kernel_atoms.append(f"(1+x)^{_print_exponent(block.one_plus_exp)}")
    if not kernel_atoms:
        kernel_atoms.append("x^0")
    header = f"sum[k={_print_bound(block.lo)}..{_print_bound(block.hi)}]"
    return f"{header} {_print_factor(block.coef)} * " + " * ".join(kernel_atoms)


def _print_side(side: Side) -> str:
    return " + ".join(_print_block(b) for b in side.blocks)


def print_identity(desc: IdentityDescriptor) -> str:
    decls = ", ".join(f"{name}:{sort}" for name, sort in desc.params)
    header = f"params {decls};" if decls else "params ;"
    return f"{header}\n{_print_side(desc.left)}\n  == {_print_side(desc.right)}\n"
