"""Traced program: a recursive-descent expression interpreter.

A frozen copy of the interpreter in ``examples/python_profiler.py``, kept
here so the traced code is identical on every commit the benchmark
measures.  It has only six code objects but mutual recursion
(``parse_expression`` -> ``parse_term`` -> ``parse_factor`` ->
``parse_expression``), so the engine's back-edge handling and the
re-encoding loop do most of the work while frontend mapping and decode
stay cheap.

``run(batch, probe, check_every)`` evaluates the batch; for every
``check_every``-th expression ``probe()`` is called once, at the first
number leaf (the bottom of the leftmost recursion).  A fixed number of
probes per pass keeps their cost the same for every seed.  The harness
passes a no-op probe to untraced passes and a context checker to traced
ones, so every configuration executes the same calls.
"""

import random


def tokenize(text):
    tokens = []
    number = ""
    for char in text:
        if char.isdigit():
            number += char
            continue
        if number:
            tokens.append(int(number))
            number = ""
        if char in "+-*/()":
            tokens.append(char)
    if number:
        tokens.append(int(number))
    return tokens


def parse_expression(tokens, pos, pending):
    value, pos = parse_term(tokens, pos, pending)
    while pos < len(tokens) and tokens[pos] in "+-":
        op = tokens[pos]
        rhs, pos = parse_term(tokens, pos + 1, pending)
        value = value + rhs if op == "+" else value - rhs
    return value, pos


def parse_term(tokens, pos, pending):
    value, pos = parse_factor(tokens, pos, pending)
    while pos < len(tokens) and tokens[pos] in "*/":
        op = tokens[pos]
        rhs, pos = parse_factor(tokens, pos + 1, pending)
        value = value * rhs if op == "*" else value // max(1, rhs)
    return value, pos


def parse_factor(tokens, pos, pending):
    token = tokens[pos]
    if token == "(":
        value, pos = parse_expression(tokens, pos + 1, pending)
        return value, pos + 1  # skip ')'
    if pending:
        pending.pop()()
    return token, pos + 1


def random_expression(rng, depth=0):
    if depth > 4 or rng.random() < 0.3:
        return str(rng.randint(1, 99))
    op = rng.choice("+-*/")
    left = random_expression(rng, depth + 1)
    right = random_expression(rng, depth + 1)
    return "(%s %s %s)" % (left, op, right)


def make_inputs(seed, size):
    """``size`` seeded expressions (the program's only input)."""
    rng = random.Random(seed)
    return [random_expression(rng) for _ in range(size)]


def run(batch, probe, check_every):
    total = 0
    for index, expression in enumerate(batch):
        pending = [probe] if index % check_every == 0 else None
        value, _ = parse_expression(tokenize(expression), 0, pending)
        total += value
    return total
