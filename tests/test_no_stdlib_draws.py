"""Per-request draws go through the exact helpers, not the stdlib's.

``random.Random.expovariate`` costs one Python frame per draw and
``lognormvariate`` two (it calls ``normalvariate``); the modules that
draw once per request use ``repro.workloads.synthetic``'s
``exponential_ns`` and ``lognormal_ns`` instead, which return the same
integers from the same uniforms (``tests/workloads/test_exact_draws.py``
checks that).  This test walks the AST of each per-request module and
fails on any call of a method with one of the stdlib names.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

#: modules that draw on every request
PER_REQUEST_MODULES = (
    "repro/workloads/base.py",
    "repro/workloads/memcached.py",
    "repro/workloads/synthetic.py",
    "repro/net/client.py",
)
#: stdlib draws the helpers replace
STDLIB_DRAWS = {"expovariate", "lognormvariate", "normalvariate"}


def stdlib_draws(tree):
    """``(method, line)`` for every call of a stdlib draw method."""
    return [(node.func.attr, node.lineno) for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in STDLIB_DRAWS]


def test_per_request_modules_make_no_stdlib_draws():
    found = {}
    for module in PER_REQUEST_MODULES:
        path = os.path.join(SRC, module)
        with open(path, encoding="utf-8") as handle:
            calls = stdlib_draws(ast.parse(handle.read(), filename=path))
        if calls:
            found[module] = calls
    assert not found, (
        "stdlib draw on a per-request path (use lognormal_ns or "
        f"exponential_ns from repro.workloads.synthetic): {found}")


def test_scan_finds_draws_through_any_receiver():
    tree = ast.parse(
        "def f(self, rng):\n"
        "    a = rng.expovariate(1.0)\n"
        "    b = self.rng.lognormvariate(0.0, 1.0)\n"
        "    c = random.normalvariate()\n"
        "    d = rng.random()\n")
    assert sorted(stdlib_draws(tree)) == [
        ("expovariate", 2), ("lognormvariate", 3), ("normalvariate", 4)]
