#!/usr/bin/env python3
"""AST lint: ban nondeterminism sources in ``src/repro``.

Reproducibility is a headline claim of this codebase — every simulation is
replayable from one master seed.  This linter statically rejects the
constructs that silently break that promise:

* ``random-global`` — the ``random`` module's global convenience API
  (``random.random()``, ``random.shuffle()``, ...).  Shared global state;
  use an explicit ``random.Random(seed)`` instance instead.
* ``wall-clock`` — ``datetime.now()`` / ``utcnow()`` / ``today()`` and
  ``time.time()`` / ``time_ns()``.  Wall-clock reads make output depend on
  when it ran; monotonic timers (``perf_counter``) for *durations* are
  fine and remain allowed.
* ``numpy-random`` — numpy's global convenience API
  (``np.random.rand()``, ``np.random.seed()``, ...) and **unseeded**
  generator construction (``default_rng()`` / ``RandomState()`` with no
  arguments).  Seeded construction is the supported idiom.
* ``set-iteration`` — iterating a set (``for x in set(...)``, set
  literals/comprehensions as loop iterables, ``list(set(...))``).
  CPython's set order is insertion-and-hash dependent; wrap in
  ``sorted(...)`` to pin the order.
* ``hash-id`` — the ``hash()`` and ``id()`` builtins.  ``hash()`` of a
  string varies per process (``PYTHONHASHSEED``) and ``id()`` is a memory
  address; neither may leak into persisted payloads or cache fingerprints.
  Opt-in: applied only where ``STRICT_RULES`` says so (``repro/persist``),
  where every emitted byte must be stable across processes.
* ``env-read`` — ``os.environ`` / ``os.getenv`` (and ``from os import
  environ/getenv``).  An environment variable is a hidden switch: the same
  call behaves differently depending on the shell it ran in.  Behaviour
  comes from explicit arguments and config objects; deployment settings
  are allowlisted per file with a reason.

Per-file exemptions live in ``ALLOWLIST`` (path suffix -> rule ids), each
with a reason a reviewer can audit; ``STRICT_RULES`` is the inverse — path
fragments where *extra* opt-in rules apply.  Run
``python tools/lint_determinism.py`` from the repository root; exit
status 1 means findings.
"""

from __future__ import annotations

import argparse
import ast
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Mapping, Tuple

#: Path suffix -> rule ids exempted there.  Keep reasons next to entries.
ALLOWLIST: Mapping[str, FrozenSet[str]] = {
    # REPRO_CACHE_DIR is a deployment setting: it says where compiled
    # artifacts may be stored, never how a program compiles — a cache hit
    # returns the same bytes a fresh compile would.
    "persist/cache.py": frozenset({"env-read"}),
    "core/pipeline.py": frozenset({"env-read"}),
}

#: Path fragment -> extra opt-in rule ids enforced there.  The persistence
#: layer writes content-addressed artifacts, so anything process-dependent
#: (hash randomisation, object addresses) is banned outright.
STRICT_RULES: Mapping[str, FrozenSet[str]] = {
    "repro/persist/": frozenset({"hash-id"}),
}

_RANDOM_GLOBAL_FNS = {
    "betavariate", "choice", "choices", "expovariate", "gammavariate",
    "gauss", "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
    "randbytes", "randint", "random", "randrange", "sample", "seed",
    "shuffle", "triangular", "uniform", "vonmisesvariate", "weibullvariate",
}
_WALL_CLOCK_FNS = {"now", "utcnow", "today"}
_TIME_FNS = {"time", "time_ns", "ctime"}
_ENV_NAMES = {"environ", "getenv"}
#: Rules that apply only where STRICT_RULES opts a path in.
_OPT_IN_RULES = frozenset({"hash-id"})

_NUMPY_RANDOM_FNS = {
    "beta", "binomial", "bytes", "chisquare", "choice", "dirichlet",
    "exponential", "gamma", "geometric", "normal", "permutation", "poisson",
    "rand", "randint", "randn", "random", "random_sample", "ranf", "sample",
    "seed", "shuffle", "standard_normal", "uniform",
}


@dataclass(frozen=True)
class Finding:
    """One determinism violation at one source location."""

    path: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


def _dotted(node: ast.AST) -> str:
    """Best-effort dotted name of an expression ('' when not a name chain)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _is_set_expression(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset"))


class _DeterminismVisitor(ast.NodeVisitor):
    def __init__(self, path: str) -> None:
        self.path = path
        self.findings: List[Finding] = []
        #: Names bound by ``from random import shuffle``-style imports.
        self._random_from_imports: Dict[str, str] = {}

    def _add(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(Finding(self.path, node.lineno, rule, message))

    # ----------------------------------------------------------- imports

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "os":
            for alias in node.names:
                if alias.name in _ENV_NAMES:
                    self._add(node, "env-read",
                              f"'from os import {alias.name}' reads the "
                              "environment; pass the setting explicitly")
        if node.module == "random":
            for alias in node.names:
                if alias.name in _RANDOM_GLOBAL_FNS:
                    bound = alias.asname or alias.name
                    self._random_from_imports[bound] = alias.name
                    self._add(node, "random-global",
                              f"'from random import {alias.name}' binds the "
                              "shared global RNG; use a seeded "
                              "random.Random instance")
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr in _ENV_NAMES and _dotted(node.value) == "os":
            self._add(node, "env-read",
                      f"os.{node.attr} reads the environment, a hidden "
                      "switch; pass the setting explicitly")
        self.generic_visit(node)

    # ------------------------------------------------------------- calls

    def visit_Call(self, node: ast.Call) -> None:
        name = _dotted(node.func)
        self._check_call(node, name)
        if isinstance(node.func, ast.Name) and node.func.id in ("hash", "id"):
            self._add(node, "hash-id",
                      f"{node.func.id}() is process-dependent "
                      f"({'PYTHONHASHSEED' if node.func.id == 'hash' else 'a memory address'}); "
                      "it must not shape persisted payloads or fingerprints")
        if (isinstance(node.func, ast.Name)
                and node.func.id in ("list", "tuple")
                and len(node.args) == 1
                and _is_set_expression(node.args[0])):
            self._add(node, "set-iteration",
                      f"{node.func.id}(set(...)) freezes a hash-dependent "
                      "order; use sorted(...)")
        self.generic_visit(node)

    def _check_call(self, node: ast.Call, name: str) -> None:
        if not name:
            return
        head, _, tail = name.partition(".")
        last = name.rsplit(".", 1)[-1]
        if name in self._random_from_imports:
            self._add(node, "random-global",
                      f"{name}() draws from the shared global RNG")
            return
        if head == "random" and tail in _RANDOM_GLOBAL_FNS:
            self._add(node, "random-global",
                      f"{name}() draws from the shared global RNG; use a "
                      "seeded random.Random instance")
            return
        if last in _WALL_CLOCK_FNS and any(
                part in ("datetime", "date") for part in name.split(".")[:-1]):
            self._add(node, "wall-clock",
                      f"{name}() reads the wall clock; results become "
                      "time-of-run dependent")
            return
        if head == "time" and tail in _TIME_FNS:
            self._add(node, "wall-clock",
                      f"{name}() reads the wall clock; use a monotonic "
                      "timer for durations")
            return
        if self._is_numpy_random(name, last):
            if last in ("default_rng", "RandomState"):
                if not node.args and not node.keywords:
                    self._add(node, "numpy-random",
                              f"{name}() without a seed is entropy-seeded "
                              "and unreproducible")
            else:
                self._add(node, "numpy-random",
                          f"{name}() uses numpy's global RNG; construct a "
                          "seeded Generator instead")

    @staticmethod
    def _is_numpy_random(name: str, last: str) -> bool:
        parts = name.split(".")
        if last in ("default_rng", "RandomState"):
            return len(parts) == 1 or "random" in parts[:-1] or \
                parts[0] in ("np", "numpy")
        return (len(parts) >= 3 and parts[0] in ("np", "numpy")
                and parts[1] == "random" and last in _NUMPY_RANDOM_FNS)

    # --------------------------------------------------------- iteration

    def visit_For(self, node: ast.For) -> None:
        self._check_iterable(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iterable(node.iter)
        self.generic_visit(node)

    def _check_iterable(self, iterable: ast.AST) -> None:
        if _is_set_expression(iterable):
            self._add(iterable, "set-iteration",
                      "iterating a set has hash-dependent order; wrap in "
                      "sorted(...)")


def check_source(source: str, filename: str,
                 allow: FrozenSet[str] = frozenset(),
                 extra: FrozenSet[str] = frozenset()) -> List[Finding]:
    """Lint one module's source text; returns the findings not allowed.

    ``extra`` activates opt-in rules (see ``STRICT_RULES``) for this file;
    opt-in findings are dropped everywhere else.
    """
    tree = ast.parse(source, filename=filename)
    visitor = _DeterminismVisitor(filename)
    visitor.visit(tree)
    return [f for f in visitor.findings
            if f.rule not in allow
            and (f.rule not in _OPT_IN_RULES or f.rule in extra)]


def _allowed_rules(path: Path) -> FrozenSet[str]:
    posix = path.as_posix()
    for suffix, rules in ALLOWLIST.items():
        if posix.endswith(suffix):
            return rules
    return frozenset()


def _extra_rules(path: Path) -> FrozenSet[str]:
    posix = path.as_posix()
    extra: FrozenSet[str] = frozenset()
    for fragment, rules in STRICT_RULES.items():
        if fragment in posix:
            extra |= rules
    return extra


def check_file(path: Path) -> List[Finding]:
    return check_source(path.read_text(), str(path), _allowed_rules(path),
                        _extra_rules(path))


def iter_py_files(root: Path) -> Iterable[Path]:
    yield from sorted(root.rglob("*.py"))


def main(argv: Tuple[str, ...] = None) -> int:
    parser = argparse.ArgumentParser(
        description="ban nondeterminism sources (global RNGs, wall-clock "
                    "reads, set-order iteration, environment reads) from "
                    "the package sources")
    parser.add_argument("paths", nargs="*", type=Path,
                        default=[Path("src/repro")],
                        help="files or directories to lint "
                             "(default: src/repro)")
    args = parser.parse_args(argv)
    findings: List[Finding] = []
    for target in args.paths:
        if target.is_dir():
            for path in iter_py_files(target):
                findings.extend(check_file(path))
        else:
            findings.extend(check_file(target))
    for finding in findings:
        print(finding)
    if findings:
        print(f"{len(findings)} determinism finding"
              f"{'s' if len(findings) != 1 else ''}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
