"""Mask-boundary rules (RPL2xx).

PR 2 rewrote six hot-path modules onto interned integer bitmasks; the
frozenset representation crosses into them only through the
:class:`~repro.core.bitspace.PropertySpace` boundary (``mask_of`` /
``set_of``).  The verbatim pre-change kernels live in
``core/reference.py`` as an equivalence oracle that nothing in the
package proper may import.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.devtools.reprolint.model import SourceModule, Violation
from repro.devtools.reprolint.registry import Rule, register
from repro.devtools.reprolint.scopes import (
    in_mask_scope,
    in_src,
    in_tests_or_benchmarks,
    is_reference_module,
)

# ----------------------------------------------------------------------
# RPL201 — frozenset operations in mask-rewritten modules
# ----------------------------------------------------------------------

_FROZENSET_METHODS = {
    "issubset",
    "issuperset",
    "union",
    "intersection",
    "difference",
    "symmetric_difference",
    "isdisjoint",
}

#: Frozenset-based enumeration helpers superseded by the PropertySpace
#: mask enumerators (iter_subset_masks & co.).
_FROZENSET_ENUMERATORS = {
    "iter_nonempty_subsets",
    "iter_two_partitions",
    "iter_two_covers",
}


@register
class FrozensetInMaskModuleRule(Rule):
    rule_id = "RPL201"
    name = "frozenset-in-mask-module"
    summary = (
        "no direct frozenset operations in the mask-rewritten modules "
        "outside the PropertySpace boundary"
    )
    rationale = (
        "core/mincover, preprocess/dominated, preprocess/decompose, "
        "reductions/mc3_to_wsc, setcover/greedy and setcover/"
        "bucket_greedy run on interned bitmasks (PR 2); a frozenset "
        "construction, set-method call, or frozenset enumerator "
        "reintroduced there bypasses the interning and silently "
        "forfeits both the speedup and the bit-identical equivalence "
        "the reference oracle checks.  Marshal through "
        "PropertySpace.mask_of / set_of instead."
    )

    def applies_to(self, module: SourceModule) -> bool:
        return in_mask_scope(module.scope_key)

    def check(self, module: SourceModule) -> Iterable[Violation]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name) and func.id == "frozenset":
                    yield module.violation(
                        self,
                        node,
                        "frozenset() constructed in a mask-rewritten module; "
                        "marshal through PropertySpace.set_of/mask_of",
                    )
                elif isinstance(func, ast.Name) and func.id in _FROZENSET_ENUMERATORS:
                    yield module.violation(
                        self,
                        node,
                        f"{func.id}() enumerates frozensets; use the "
                        "PropertySpace mask enumerators "
                        "(iter_subset_masks & co.)",
                    )
                elif isinstance(func, ast.Attribute) and (
                    func.attr in _FROZENSET_METHODS
                ):
                    yield module.violation(
                        self,
                        node,
                        f".{func.attr}() set-method call in a mask-rewritten "
                        "module; use mask algebra (&, |, ^, & ~) instead",
                    )
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name in _FROZENSET_ENUMERATORS:
                        yield module.violation(
                            self,
                            node,
                            f"import of frozenset enumerator {alias.name!r} "
                            "in a mask-rewritten module",
                        )


# ----------------------------------------------------------------------
# RPL202 — importing the reference oracle from package code
# ----------------------------------------------------------------------

_REFERENCE_DOTTED = "repro.core.reference"


@register
class ReferenceImportRule(Rule):
    rule_id = "RPL202"
    name = "reference-kernel-import"
    summary = (
        "core/reference.py may only be reached via "
        "patch_reference_kernels(), tests, or benchmarks"
    )
    rationale = (
        "The reference module keeps the pre-bitset kernels verbatim as "
        "an equivalence oracle; importing it from package code would "
        "turn the oracle into a dependency and let a 'fallback' quietly "
        "serve the slow path.  Tests and benchmarks reach it through "
        "patch_reference_kernels(); nothing else imports it."
    )

    def applies_to(self, module: SourceModule) -> bool:
        return (
            in_src(module.scope_key)
            and not is_reference_module(module.scope_key)
            and not in_tests_or_benchmarks(module.path)
        )

    def check(self, module: SourceModule) -> Iterable[Violation]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith(_REFERENCE_DOTTED):
                        yield self._flag(module, node)
            elif isinstance(node, ast.ImportFrom):
                if node.module == _REFERENCE_DOTTED or (
                    node.level > 0 and node.module == "reference"
                ):
                    yield self._flag(module, node)
            elif isinstance(node, ast.Call):
                func = node.func
                is_import_module = (
                    isinstance(func, ast.Attribute) and func.attr == "import_module"
                ) or (isinstance(func, ast.Name) and func.id == "import_module")
                if is_import_module and any(
                    isinstance(arg, ast.Constant)
                    and isinstance(arg.value, str)
                    and _REFERENCE_DOTTED in arg.value
                    for arg in node.args
                ):
                    yield self._flag(module, node)

    def _flag(self, module: SourceModule, node: ast.AST) -> Violation:
        return module.violation(
            self,
            node,
            "package code imports the reference oracle "
            f"({_REFERENCE_DOTTED}); only patch_reference_kernels(), "
            "tests, and benchmarks may reach it",
        )
