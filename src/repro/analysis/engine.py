"""The analysis engine: repo walker, module contexts, rule runner."""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.findings import Finding, LintReport
from repro.analysis.project import PaperConstant, load_paper_constants
from repro.analysis.registry import RULE_REGISTRY, Rule
from repro.analysis.suppressions import SuppressionIndex
from repro.errors import ConfigurationError

#: Directories never walked into.
_SKIP_DIRS = {"__pycache__", ".git", ".mypy_cache", ".pytest_cache"}


@dataclass
class ModuleContext:
    """One parsed module, as rules see it."""

    path: Path
    #: Path relative to the lint root, forward slashes ("server/gateway.py").
    relpath: str
    source: str
    tree: ast.Module
    suppressions: SuppressionIndex
    #: Guarded-constant table of the tree being linted.
    constants: Tuple[PaperConstant, ...]
    _parents: Dict[int, ast.AST] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[id(child)] = parent

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(id(node))

    def ancestors(self, node: ast.AST) -> Iterable[ast.AST]:
        cur = self.parent(node)
        while cur is not None:
            yield cur
            cur = self.parent(cur)

    def is_lazy(self, node: ast.AST) -> bool:
        """True for code that only runs on call (or never, for typing).

        Function bodies and ``if TYPE_CHECKING:`` blocks are "lazy":
        imports there cannot participate in import-time cycles.
        """
        for anc in self.ancestors(node):
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return True
            if isinstance(anc, ast.If) and _is_type_checking_test(anc.test):
                return True
        return False

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        """Build a finding, resolving any suppression on the statement.

        The suppression comment may sit on any line of the flagged
        statement's header span — the first line, a decorator line, or a
        continuation line of a multi-line call — not just ``node.lineno``.
        """
        line = getattr(node, "lineno", 0)
        supp = None
        for cand in _suppression_lines(node):
            supp = self.suppressions.lookup(cand, rule)
            if supp is not None:
                break
        if supp is not None and supp.justification:
            return Finding(
                rule=rule,
                path=self.relpath,
                line=line,
                message=message,
                suppressed=True,
                justification=supp.justification,
            )
        # A bare (unjustified) suppression does not silence anything; the
        # engine additionally reports it as its own finding.
        return Finding(rule=rule, path=self.relpath, line=line, message=message)


def _suppression_lines(node: ast.AST) -> Iterable[int]:
    """Candidate lines a suppression for ``node`` may live on.

    ``node.lineno`` first (the historical behaviour), then the rest of
    the statement span: for ``def``/``class`` that is decorator lines
    plus the (possibly multi-line) header — *not* the body, so a
    suppression inside a function never silences a finding on the
    ``def`` itself; for other nodes it is ``lineno..end_lineno``.
    """
    lineno = getattr(node, "lineno", 0)
    if not lineno:
        return (0,)
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        start = min([d.lineno for d in node.decorator_list] + [lineno])
        body_start = node.body[0].lineno if node.body else lineno + 1
        end = max(lineno, body_start - 1)
    else:
        start = lineno
        end = getattr(node, "end_lineno", None) or lineno
    span = [lineno]
    span.extend(n for n in range(start, end + 1) if n != lineno)
    return span


def _is_type_checking_test(test: ast.expr) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def discover_files(root: Path) -> List[Path]:
    """Every ``.py`` file under ``root`` (or ``root`` itself), sorted."""
    if root.is_file():
        return [root]
    files: List[Path] = []
    for path in sorted(root.rglob("*.py")):
        if any(part in _SKIP_DIRS or part.endswith(".egg-info") for part in path.parts):
            continue
        files.append(path)
    return files


def lint_anchor(root: Path) -> Path:
    """The directory project-relative paths are measured from.

    The topmost *package* directory containing ``root`` (walking up
    while ``__init__.py`` is present) — so linting a single file such as
    ``src/repro/server/scheduler.py`` still yields the project-relative
    ``server/scheduler.py`` that scoped rules match against.  For roots
    outside any package (rule-test fixture trees) it is the root itself.
    """
    anchor = root if root.is_dir() else root.parent
    cur = anchor
    while (cur / "__init__.py").is_file() and cur.parent != cur:
        anchor = cur
        cur = cur.parent
    return anchor


def load_module(
    path: Path, root: Path, constants: Tuple[PaperConstant, ...]
) -> ModuleContext:
    # utf-8-sig: tolerate a BOM (files written by Windows editors) —
    # a leading U+FEFF would otherwise be a SyntaxError from ast.parse.
    source = path.read_text(encoding="utf-8-sig")
    tree = ast.parse(source, filename=str(path))
    try:
        rel = str(path.relative_to(root)).replace("\\", "/")
    except ValueError:
        rel = path.name
    return ModuleContext(
        path=path,
        relpath=rel,
        source=source,
        tree=tree,
        suppressions=SuppressionIndex(source),
        constants=constants,
    )


def run_analysis(
    root: "Path | str",
    rule_ids: Optional[Sequence[str]] = None,
    strict_suppressions: bool = False,
) -> LintReport:
    """Run the (selected) rules over every module under ``root``.

    ``strict_suppressions`` promotes the suppression-hygiene findings
    (``bare-suppression``, ``unused-suppression``) from advisory to
    blocking — the CI setting, so stale escapes fail the build instead
    of accumulating as debt.
    """
    # Importing the rules package registers the project rule set.
    import repro.analysis.rules  # noqa: F401  (import-for-effect)

    root = Path(root)
    if not root.exists():
        raise ConfigurationError(f"lint root {str(root)!r} does not exist")
    rules: List[Rule] = RULE_REGISTRY.select(rule_ids)
    selected = frozenset(r.id for r in rules)
    running_all = rule_ids is None
    anchor = lint_anchor(root)
    constants = load_paper_constants(anchor)
    report = LintReport(rules_run=tuple(r.id for r in rules))
    for path in discover_files(root):
        try:
            ctx = load_module(path, anchor, constants)
        except SyntaxError as exc:
            report.findings.append(
                Finding(
                    rule="parse-error",
                    path=str(path),
                    line=exc.lineno or 0,
                    message=f"could not parse: {exc.msg}",
                )
            )
            report.files_checked += 1
            continue
        report.files_checked += 1
        for rule in rules:
            report.findings.extend(rule.check(ctx))
        for supp in ctx.suppressions.bare():
            report.findings.append(
                Finding(
                    rule="bare-suppression",
                    path=ctx.relpath,
                    line=supp.line,
                    message=(
                        "suppression without justification: write "
                        "'# repro: ignore[<rule>]: <why this is safe>'"
                    ),
                    advisory=not strict_suppressions,
                )
            )
        for supp in ctx.suppressions.unused():
            # Under a --rules subset, a suppression for an unselected
            # rule is legitimately unused in *this* run — only report it
            # when every rule it names actually ran ("*" counts as "all").
            if not running_all and not (
                set(supp.rules) - {"*"} and set(supp.rules) <= selected
            ):
                continue
            report.findings.append(
                Finding(
                    rule="unused-suppression",
                    path=ctx.relpath,
                    line=supp.line,
                    message=(
                        "suppression matches no finding "
                        f"(rules: {', '.join(supp.rules)}); remove it"
                    ),
                    advisory=not strict_suppressions,
                )
            )
    return report
