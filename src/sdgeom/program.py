"""Parser and pretty-printer for the .sdg surface language.

Grammar (EBNF):
    program := stmt*
    stmt    := "dim" INT
             | "var" IDENT+
             | "form" IDENT "=" formexpr
             | "vector" IDENT "=" "(" scalarexpr {"," scalarexpr} ")"
             | "dist" IDENT "=" ("span"|"ker") "(" IDENT {"," IDENT} ")"
             | "patch" IDENT "(" IDENT {"," IDENT} ")" "="
                   "(" scalarexpr {"," scalarexpr} ")"
             | "conn" IDENT "=" "[" row {";" row} "]"

Precedence, loosest to tightest: +/- then "*" (scalar-times-form) then "^"
(wedge).  Powers are spelled pow(x, n).  "#" starts a comment.

A distribution, a patch or a connection is built on its first lookup, which
imports `distributions` or `connections` (and numpy with them); parsing
checks its declaration and loads none of these.
"""

from collections.abc import Mapping
from functools import partial

from . import expr as ex
from .errors import ParseError
from .forms import ClassicalForm, wedge_classical

KEYWORDS = {"dim", "var", "form", "vector", "dist", "patch", "conn",
            "span", "ker", "pow"}

_PUNCT = ("=", "(", ")", ",", ";", "[", "]", "+", "-", "*", "/", "^")


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def tokenize(text):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or text[j] == "."
                             or text[j] in "eE"
                             or (text[j] in "+-" and text[j - 1] in "eE")):
                if text[j] == ".":
                    if seen_dot:
                        break
                    seen_dot = True
                j += 1
            tokens.append(Token("number", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("ident", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in "".join(_PUNCT):
            tokens.append(Token(ch, ch, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Declared(Mapping):
    """Name -> object, each built by its builder on first lookup; the
    declaration it was parsed from is kept for printing."""

    def __init__(self):
        self._declared = {}  # name -> (declaration, build)
        self._built = {}

    def declare(self, name, declaration, build):
        self._declared[name] = (declaration, build)

    def declaration(self, name):
        return self._declared[name][0]

    def __getitem__(self, name):
        if name not in self._built:
            self._built[name] = self._declared[name][1]()
        return self._built[name]

    def __contains__(self, name):
        return name in self._declared

    def __iter__(self):
        return iter(self._declared)

    def __len__(self):
        return len(self._declared)


class Program:
    """Parsed .sdg module: a chart plus named geometric entities."""

    def __init__(self):
        self.dim = None
        self.vars = ()
        self.order = []  # (kind, name) in declaration order, for printing
        self.forms = {}
        self.vectors = {}
        self.dists = _Declared()
        self.patches = _Declared()
        self.conns = _Declared()

    def lookup(self, table, name, what):
        try:
            return getattr(self, table)[name]
        except KeyError:
            raise ParseError(f"unknown {what} {name!r}") from None


class _Parser:
    def __init__(self, text):
        self.tokens = tokenize(text)
        self.pos = 0
        self.prog = Program()

    # -- token helpers -------------------------------------------------------

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, what=None):
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {what or kind}, found {tok.text!r}",
                             tok.line, tok.col)
        return tok

    def error(self, msg, tok=None):
        tok = tok or self.peek()
        raise ParseError(msg, tok.line, tok.col)

    def separated(self, item, sep=","):
        """What `item()` parses, once and again after each `sep` token, as
        a list."""
        items = [item()]
        while self.peek().kind == sep:
            self.next()
            items.append(item())
        return items

    # -- statements ----------------------------------------------------------

    def parse(self):
        while self.peek().kind != "eof":
            tok = self.expect("ident", "a statement keyword")
            handler = getattr(self, f"_stmt_{tok.text}", None)
            if handler is None:
                self.error(f"unknown statement {tok.text!r}", tok)
            handler(tok)
        if self.prog.dim is None:
            raise ParseError("missing 'dim' declaration")
        if len(self.prog.vars) != self.prog.dim:
            raise ParseError(
                f"declared {len(self.prog.vars)} variables for dim {self.prog.dim}")
        return self.prog

    def _chart_ready(self, tok):
        if self.prog.dim is None or not self.prog.vars:
            self.error("chart ('dim' and 'var') must be declared first", tok)

    def _fresh_name(self, tok):
        name = tok.text
        if name in KEYWORDS:
            self.error(f"{name!r} is a reserved word", tok)
        for table in ("forms", "vectors", "dists", "patches", "conns"):
            if name in getattr(self.prog, table):
                self.error(f"duplicate name {name!r}", tok)
        if name in self.prog.vars:
            self.error(f"{name!r} is already a chart variable", tok)
        return name

    def _stmt_dim(self, tok):
        num = self.expect("number", "an integer dimension")
        try:
            dim = int(num.text)
        except ValueError:
            self.error("dimension must be an integer", num)
        if self.prog.dim is not None:
            self.error("duplicate 'dim' declaration", tok)
        if dim < 1:
            self.error("dimension must be positive", num)
        self.prog.dim = dim

    def _stmt_var(self, tok):
        if self.prog.vars:
            self.error("duplicate 'var' declaration", tok)
        toks = []
        # the names end with the line: a word on the next is a statement
        while (self.peek().kind == "ident" and self.peek().text not in KEYWORDS
               and self.peek().line == tok.line):
            toks.append(self.next())
        if not toks:
            self.error("expected variable names after 'var'")
        self.prog.vars = tuple(t.text for t in toks)
        if len(set(self.prog.vars)) != len(toks):
            self.error("duplicate variable names", tok)
        # in a form, dx is the differential of the variable x
        for t in toks:
            if self._is_differential(t.text):
                self.error(f"variable {t.text!r} reads as the differential of {t.text[1:]!r}", t)

    def _stmt_form(self, tok):
        self._chart_ready(tok)
        name = self._fresh_name(self.expect("ident", "a form name"))
        self.expect("=")
        form = self.parse_form_expr()
        self.prog.forms[name] = form
        self.prog.order.append(("form", name))

    def _stmt_vector(self, tok):
        self._chart_ready(tok)
        name = self._fresh_name(self.expect("ident", "a vector name"))
        self.expect("=")
        comps = self._paren_scalar_list(self.prog.vars)
        if len(comps) != self.prog.dim:
            self.error(f"vector needs {self.prog.dim} components", tok)
        self.prog.vectors[name] = comps
        self.prog.order.append(("vector", name))

    def _stmt_dist(self, tok):
        self._chart_ready(tok)
        name = self._fresh_name(self.expect("ident", "a distribution name"))
        self.expect("=")
        kind_tok = self.expect("ident", "'span' or 'ker'")
        if kind_tok.text not in ("span", "ker"):
            self.error("expected 'span' or 'ker'", kind_tok)
        self.expect("(")
        members = self.separated(partial(self.expect, "ident", "an entity name"))
        self.expect(")")
        n, vars = self.prog.dim, self.prog.vars
        if len(members) > n:
            self.error(f"{kind_tok.text} has {len(members)} members, more than dim {n}",
                       members[n])
        if kind_tok.text == "span":
            fields = []
            for m in members:
                if m.text not in self.prog.vectors:
                    self.error(f"unknown vector {m.text!r}", m)
                fields.append(self.prog.vectors[m.text])
            options = {"rank": len(fields), "span": fields}
        else:
            kforms = []
            for m in members:
                if m.text not in self.prog.forms:
                    self.error(f"unknown form {m.text!r}", m)
                w = self.prog.forms[m.text]
                if w.degree != 1:
                    self.error(f"kernel member {m.text!r} is not a 1-form", m)
                kforms.append(w)
            options = {"rank": n - len(kforms), "kernel": kforms}

        def build():
            from .distributions import Distribution

            return Distribution(n, vars=vars, **options)

        self.prog.dists.declare(name, (kind_tok.text, [m.text for m in members]), build)
        self.prog.order.append(("dist", name))

    def _stmt_patch(self, tok):
        self._chart_ready(tok)
        name = self._fresh_name(self.expect("ident", "a patch name"))
        self.expect("(")
        params = []
        for param in self.separated(partial(self.expect, "ident", "a parameter name")):
            if param.text in params:
                self.error(f"duplicate parameter name {param.text!r}", param)
            params.append(param.text)
        self.expect(")")
        self.expect("=")
        # a patch is a function of its parameters alone
        comps = self._paren_scalar_list(params)
        if len(comps) != self.prog.dim:
            self.error(f"patch needs {self.prog.dim} components", tok)

        def build():
            from .distributions import IntegralPatch

            return IntegralPatch(params, comps)

        self.prog.patches.declare(name, (params, comps), build)
        self.prog.order.append(("patch", name))

    def _stmt_conn(self, tok):
        self._chart_ready(tok)
        name = self._fresh_name(self.expect("ident", "a connection name"))
        self.expect("=")
        self.expect("[")
        rows = self.separated(self._conn_row, ";")
        self.expect("]")
        m = len(rows)
        if any(len(r) != m for r in rows):
            self.error("connection matrix must be square", tok)
        n, vars = self.prog.dim, self.prog.vars
        zero = ex.Const(0.0)
        A = [[[zero for _ in range(m)] for _ in range(m)] for _ in range(n)]
        for r in range(m):
            for c in range(m):
                entry = rows[r][c]
                for (i,), e in entry.coeffs.items():
                    A[i - 1][r][c] = e

        def build():
            from .connections import ConnectionData

            return ConnectionData(n, A, vars=vars)

        self.prog.conns.declare(name, rows, build)
        self.prog.order.append(("conn", name))

    def _conn_row(self):
        row = self.separated(self.parse_form_expr)
        for entry in row:
            if entry.degree != 1:
                self.error("connection entries must be 1-forms")
        return row

    def _paren_scalar_list(self, names):
        """A parenthesised list of scalar expressions in the variables `names`."""
        self.expect("(")
        allowed = set(names)
        comps = self.separated(partial(self._scal_sum, allowed))
        self.expect(")")
        return comps

    # -- scalar expressions ----------------------------------------------

    def _scal_sum(self, allowed):
        left = self._scal_term(allowed)
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            right = self._scal_term(allowed)
            left = ex.Add(left, right) if op == "+" else ex.Sub(left, right)
        return left

    def _scal_term(self, allowed):
        left = self._scal_factor(allowed)
        while self.peek().kind in ("*", "/"):
            op = self.next().kind
            right = self._scal_factor(allowed)
            left = ex.Mul(left, right) if op == "*" else ex.Div(left, right)
        return left

    def _scal_factor(self, allowed):
        tok = self.peek()
        if tok.kind == "-":
            self.next()
            inner = self._scal_factor(allowed)
            if isinstance(inner, ex.Const):
                return ex.Const(-inner.value)
            if isinstance(inner, ex.Neg):
                return inner.arg
            return ex.Neg(inner)
        return self._scal_atom(allowed)

    def _scal_atom(self, allowed):
        tok = self.next()
        if tok.kind == "number":
            try:
                return ex.Const(float(tok.text))
            except ValueError:
                self.error(f"bad number {tok.text!r}", tok)
        if tok.kind == "(":
            e = self._scal_sum(allowed)
            self.expect(")")
            return e
        if tok.kind == "ident":
            if tok.text == "pow":
                self.expect("(")
                base = self._scal_sum(allowed)
                self.expect(",")
                num = self.next()
                neg = False
                if num.kind == "-":
                    neg = True
                    num = self.next()
                if num.kind != "number" or "." in num.text:
                    self.error("pow exponent must be an integer", num)
                self.expect(")")
                return ex.Pow(base, -int(num.text) if neg else int(num.text))
            if tok.text in ex.FUNCTIONS:
                self.expect("(")
                arg = self._scal_sum(allowed)
                self.expect(")")
                return ex.Call(tok.text, arg)
            if tok.text in allowed:
                return ex.Var(tok.text)
            self.error(f"unknown identifier {tok.text!r}", tok)
        self.error(f"unexpected token {tok.text!r}", tok)

    # -- form expressions --------------------------------------------------

    def parse_form_expr(self):
        left = self._form_term()
        while self.peek().kind in ("+", "-"):
            op_tok = self.next()
            right = self._form_term()
            if left.degree != right.degree:
                self.error(
                    f"degree mismatch: {left.degree}-form "
                    f"{'+' if op_tok.kind == '+' else '-'} {right.degree}-form",
                    op_tok)
            left = left + right if op_tok.kind == "+" else left - right
        return left

    def _form_term(self):
        """A '*'-chain of scalar factors and at most one wedge chain; a '/'
        divides the scalar part by the scalar factor after it."""
        scalar = None
        form_part = None
        negate = False
        while self.peek().kind == "-":
            self.next()
            negate = not negate
        allowed = set(self.prog.vars)
        while True:
            start = self.peek()
            factor_form = self._try_form_factor()
            if factor_form is not None:
                if form_part is not None:
                    self.error("two form factors in a product; use '^' to wedge", start)
                form_part = factor_form
            else:
                s = self._scal_factor(allowed)
                scalar = s if scalar is None else ex.Mul(scalar, s)
            while self.peek().kind == "/":
                self.next()
                divisor = self._scal_factor(allowed)
                scalar = ex.Div(ex.Const(1.0) if scalar is None else scalar, divisor)
            if self.peek().kind == "*":
                self.next()
                continue
            break
        if negate:
            scalar = ex.Const(-1.0) if scalar is None else ex.Mul(ex.Const(-1.0), scalar)
        if form_part is None:
            # pure scalar term: a 0-form
            return ClassicalForm(0, self.prog.dim,
                                 {(): scalar if scalar is not None else ex.Const(1.0)},
                                 self.prog.vars)
        return form_part if scalar is None else form_part.scale(scalar)

    def _try_form_factor(self):
        """Parse a wedge chain if the next token starts a form; else None."""
        tok = self.peek()
        if tok.kind == "ident":
            if self._is_differential(tok.text) or tok.text in self.prog.forms:
                return self._form_wedge(self._form_atom())
        if tok.kind == "(":
            # lookahead: a parenthesized form vs a parenthesized scalar
            save = self.pos
            self.next()
            inner = self.parse_form_expr()
            self.expect(")")
            if inner.degree == 0 and self.peek().kind != "^":
                self.pos = save
                return None
            return self._form_wedge(inner)
        return None

    def _form_wedge(self, left):
        """The wedge chain left ^ atom ^ atom ..., `left` parsed already."""
        while self.peek().kind == "^":
            self.next()
            right = self._form_atom()
            left = wedge_classical(left, right)
        return left

    def _form_atom(self):
        tok = self.next()
        if tok.kind == "(":
            inner = self.parse_form_expr()
            self.expect(")")
            return inner
        if tok.kind == "ident":
            if self._is_differential(tok.text):
                i = self.prog.vars.index(tok.text[1:]) + 1
                return ClassicalForm.dx(i, self.prog.dim, self.prog.vars)
            if tok.text in self.prog.forms:
                return self.prog.forms[tok.text]
            self.error(f"unknown form {tok.text!r}", tok)
        self.error(f"expected a form, found {tok.text!r}", tok)

    def _is_differential(self, name):
        return (len(name) > 1 and name[0] == "d"
                and name[1:] in self.prog.vars)


def parse(text):
    """Parse .sdg source text into a Program."""
    return _Parser(text).parse()


def parse_file(path):
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())


# -- pretty printer ---------------------------------------------------------

def form_to_str(form, vars):
    if not form.coeffs:
        return "0*" + "^".join(f"d{v}" for v in vars[:max(form.degree, 1)])
    parts = []
    for T, e in sorted(form.coeffs.items()):
        dxs = "^".join(f"d{vars[t - 1]}" for t in T)
        s = ex.to_str(e)
        if not T:
            parts.append(s)
        elif isinstance(e, ex.Const) and e.value == 1.0:
            parts.append(dxs)
        else:
            if not isinstance(e, (ex.Const, ex.Var, ex.Call, ex.Pow)):
                s = f"({s})"
            parts.append(f"{s}*{dxs}")
    return " + ".join(parts)


def pretty_print(prog):
    """Canonical rendering; parse(pretty_print(p)) reproduces p."""
    lines = [f"dim {prog.dim}", "var " + " ".join(prog.vars)]
    for kind, name in prog.order:
        if kind == "form":
            lines.append(f"form {name} = {form_to_str(prog.forms[name], prog.vars)}")
        elif kind == "vector":
            comps = ", ".join(ex.to_str(c) for c in prog.vectors[name])
            lines.append(f"vector {name} = ({comps})")
        elif kind == "dist":
            dkind, members = prog.dists.declaration(name)
            lines.append(f"dist {name} = {dkind}({', '.join(members)})")
        elif kind == "patch":
            params, comps = prog.patches.declaration(name)
            comps = ", ".join(ex.to_str(c) for c in comps)
            lines.append(f"patch {name}({', '.join(params)}) = ({comps})")
        elif kind == "conn":
            rows = prog.conns.declaration(name)
            body = "; ".join(", ".join(form_to_str(e, prog.vars) for e in row)
                             for row in rows)
            lines.append(f"conn {name} = [{body}]")
    return "\n".join(lines) + "\n"
