"""Traced program: standard-library source processing over a module corpus.

Each input is the text of a Python module.  ``run`` parses it with
``ast.parse``, walks it with the ``ast.walk`` generator and a
``NodeVisitor``, regenerates source with ``ast.unparse``, re-tokenizes
that source with the pure-Python ``tokenize`` generator, scans it with
``re`` (including a Python-level substitution callback called from C)
and round-trips a summary through ``json`` with the pure-Python indented
encoder.  The traced code is almost all standard library: hundreds of
code objects, thousands of distinct calling contexts, shallow stacks
and many C calls, so frontend mapping, decode and frame serialisation
do most of the work.

The modules are generated from the seed rather than read from the
installed ``Lib/`` tree, so the benchmark reads nothing outside its
checkout and the input does not change with the interpreter's patch
release.  ``probe()`` is called from inside ``NodeVisitor`` dispatch at
the first function definition of every ``check_every``-th module.
"""

import ast
import io
import json
import pprint
import random
import re
import textwrap
import tokenize
import zlib

_NAMES = (
    "alpha", "beta", "gamma", "delta", "item", "items", "key", "value",
    "node", "nodes", "count", "total", "index", "result", "buffer", "path",
    "name", "state", "config", "cache", "entry", "limit", "offset", "data",
)
_ATTRS = ("append", "get", "items", "keys", "split", "strip", "join", "update")
_BINOPS = ("+", "-", "*", "//", "%", "<<", "|", "&")
_CMPOPS = ("<", "<=", "==", "!=", ">", "in", "not in", "is")

_IDENT = re.compile(r"\b[A-Za-z_]\w*\b")
_NUMBER = re.compile(r"\b\d+\b")
_STRING = re.compile(r"'[^'\n]*'|\"[^\"\n]*\"")


class _SourceWriter:
    """Seeded generator of syntactically varied module source."""

    def __init__(self, rng):
        self.rng = rng
        self.lines = []

    def name(self):
        return self.rng.choice(_NAMES)

    def expr(self, depth=0):
        rng = self.rng
        if depth > 2 or rng.random() < 0.25:
            return rng.choice(
                (self.name(), str(rng.randint(0, 999)), repr(self.name()))
            )
        kind = rng.randrange(10)
        sub = depth + 1
        if kind == 0:
            return "(%s %s %s)" % (self.expr(sub), rng.choice(_BINOPS), self.expr(sub))
        if kind == 1:
            return "%s.%s(%s)" % (self.name(), rng.choice(_ATTRS), self.expr(sub))
        if kind == 2:
            return "%s(%s, %s)" % (self.name(), self.expr(sub), self.expr(sub))
        if kind == 3:
            return "[%s for %s in %s if %s]" % (
                self.expr(sub), self.name(), self.name(), self.cond(sub))
        if kind == 4:
            return "{%s: %s, %r: %s}" % (
                repr(self.name()), self.expr(sub), self.name(), self.expr(sub))
        if kind == 5:
            return "%s[%s]" % (self.name(), self.expr(sub))
        if kind == 6:
            return "(lambda %s: %s)" % (self.name(), self.expr(sub))
        if kind == 7:
            return "f'{%s}-{%s!r}'" % (self.name(), self.name())
        if kind == 8:
            return "(%s if %s else %s)" % (
                self.expr(sub), self.cond(sub), self.expr(sub))
        return "(%s, %s)" % (self.expr(sub), self.expr(sub))

    def cond(self, depth=0):
        left = "%s %s %s" % (self.expr(depth + 1), self.rng.choice(_CMPOPS),
                             self.expr(depth + 1))
        if self.rng.random() < 0.3:
            return "%s and not %s" % (left, self.name())
        return left

    def emit(self, indent, text):
        self.lines.append("    " * indent + text)

    def block(self, indent, depth):
        for _ in range(self.rng.randint(1, 3)):
            self.statement(indent, depth)

    def statement(self, indent, depth):
        rng = self.rng
        kind = rng.randrange(9) if depth < 2 else rng.randrange(3)
        if kind == 0:
            self.emit(indent, "%s = %s" % (self.name(), self.expr()))
        elif kind == 1:
            self.emit(indent, "%s %s= %s" % (
                self.name(), rng.choice(_BINOPS), self.expr()))
        elif kind == 2:
            self.emit(indent, "%s.%s(%s)" % (
                self.name(), rng.choice(_ATTRS), self.expr()))
        elif kind == 3:
            self.emit(indent, "if %s:" % self.cond())
            self.block(indent + 1, depth + 1)
            if rng.random() < 0.5:
                self.emit(indent, "else:")
                self.block(indent + 1, depth + 1)
        elif kind == 4:
            self.emit(indent, "for %s, %s in enumerate(%s):" % (
                self.name(), self.name(), self.expr()))
            self.block(indent + 1, depth + 1)
        elif kind == 5:
            self.emit(indent, "while %s:" % self.cond())
            self.block(indent + 1, depth + 1)
            self.emit(indent + 1, "break")
        elif kind == 6:
            self.emit(indent, "try:")
            self.block(indent + 1, depth + 1)
            self.emit(indent, "except (KeyError, ValueError) as %s:" % self.name())
            self.block(indent + 1, depth + 1)
            self.emit(indent, "finally:")
            self.emit(indent + 1, "%s = None" % self.name())
        elif kind == 7:
            self.emit(indent, "with %s(%s) as %s:" % (
                self.name(), self.expr(), self.name()))
            self.block(indent + 1, depth + 1)
        else:
            self.emit(indent, "return %s" % self.expr())

    def function(self, indent, index):
        params = ", ".join(sorted({self.name() for _ in range(self.rng.randint(0, 3))}))
        if self.rng.random() < 0.3:
            self.emit(indent, "@%s" % self.name())
        self.emit(indent, "def f%d(%s):" % (index, params))
        self.emit(indent + 1, repr("Function %d." % index))
        self.block(indent + 1, 1)
        self.emit(indent + 1, "return %s" % self.expr())

    def module(self, functions):
        self.emit(0, repr("Generated module."))
        self.emit(0, "import os")
        self.emit(0, "from collections import %s" % self.name())
        self.emit(0, "LIMIT = %d" % self.rng.randint(1, 1000))
        for index in range(functions):
            if self.rng.random() < 0.25:
                self.emit(0, "class C%d(%s):" % (index, self.name()))
                self.emit(1, "kind = %r" % self.name())
                self.function(1, index)
            else:
                self.function(0, index)
        return "\n".join(self.lines) + "\n"


def make_inputs(seed, size):
    """Seeded module sources totalling at least ``size`` characters.

    Bounding the total text rather than the module count keeps the work
    per pass nearly the same for every seed.
    """
    rng = random.Random(seed)
    modules = []
    total = 0
    while total < size:
        modules.append(_SourceWriter(rng).module(rng.randint(1, 2)))
        total += len(modules[-1])
    return modules


class _Summary(ast.NodeVisitor):
    """Collects definitions and call targets; fires the checkpoint."""

    def __init__(self, probe):
        self.probe = probe
        self.defs = []
        self.calls = 0

    def visit_FunctionDef(self, node):
        if self.probe is not None:
            self.probe()
            self.probe = None
        self.defs.append("%s: %s" % (node.name, ast.get_docstring(node)))
        self.generic_visit(node)

    def visit_Call(self, node):
        self.calls += 1
        self.generic_visit(node)


def _mask_number(match):
    return "N" * len(match.group(0))


def process(source, probe):
    tree = ast.parse(source)
    kinds = {}
    for node in ast.walk(tree):
        name = type(node).__name__
        kinds[name] = kinds.get(name, 0) + 1
    summary = _Summary(probe)
    summary.visit(tree)
    text = ast.unparse(tree)
    tokens = 0
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type == tokenize.NAME:
            tokens += 1
    idents = _IDENT.findall(text)
    masked = _NUMBER.sub(_mask_number, text)
    strings = len(_STRING.findall(masked))
    document = {
        "kinds": kinds,
        "defs": summary.defs,
        "calls": summary.calls,
        "tokens": tokens,
        "idents": len(idents),
        "strings": strings,
    }
    encoded = json.dumps(document, indent=1, sort_keys=True)
    if json.loads(encoded) != document:
        raise ValueError("json round-trip changed the summary")
    if ast.literal_eval(pprint.pformat(kinds, width=40)) != kinds:
        raise ValueError("pprint/literal_eval round-trip changed the counts")
    wrapped = textwrap.fill(" ".join(idents[:200]), width=60)
    encoded += wrapped
    return zlib.crc32(encoded.encode("utf-8"), zlib.crc32(masked.encode("utf-8")))


def run(batch, probe, check_every):
    digest = 0
    for index, source in enumerate(batch):
        checked = probe if index % check_every == 0 else None
        digest = zlib.crc32(b"%d" % process(source, checked), digest)
    return digest
