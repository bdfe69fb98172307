"""Static genotype validation against the declared SANE search space.

Two layers:

* :func:`collect_op_tables` statically parses the op-name declarations
  — the ``NODE_OPS``/``LAYER_OPS``/``SKIP_OPS`` tuples of
  ``core/search_space.py`` and the ``NODE_AGGREGATORS``/
  ``LAYER_AGGREGATORS`` registry dict literals of ``gnn/`` — without
  importing anything;
* :class:`GenotypeRule` checks every ``Architecture(...)`` call whose
  arguments are literals: op names must exist in the tables and the
  skip vector must have one entry per layer — one of 2 skip ops per
  layer, so the space is ``11^K * 2^K * 3`` (31,944 for K=3, as
  ``SearchSpace.size()`` computes), and ``Architecture.__post_init__``
  enforces the same invariant at runtime;
* :func:`consistency_findings` cross-checks the declarations
  themselves: every op named in a ``*_OPS`` tuple must have a registry
  factory, no tuple may repeat a name, and deviations from the paper's
  11/3/2 op counts are reported at warning severity.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path
from typing import Iterable, Iterator

from repro.analysis.engine import Context, Rule
from repro.analysis.findings import Finding, Severity

__all__ = ["OpTables", "collect_op_tables", "consistency_findings", "GenotypeRule"]

# Paper Table I op counts (the 11^K * 2^K * 3 space of Section III-C).
_PAPER_SIZES = {"NODE_OPS": 11, "LAYER_OPS": 3, "SKIP_OPS": 2}

_TUPLE_NAMES = ("NODE_OPS", "LAYER_OPS", "SKIP_OPS")
_REGISTRY_NAMES = ("NODE_AGGREGATORS", "LAYER_AGGREGATORS")


@dataclasses.dataclass
class _Declaration:
    names: tuple[str, ...]
    path: str
    line: int


@dataclasses.dataclass
class OpTables:
    """Statically collected op-name declarations, keyed by constant name."""

    declarations: dict[str, _Declaration] = dataclasses.field(default_factory=dict)

    def names(self, constant: str) -> tuple[str, ...] | None:
        declaration = self.declarations.get(constant)
        return declaration.names if declaration else None

    @property
    def node_names(self) -> tuple[str, ...] | None:
        """Valid node-aggregator names (registry wins over the tuple)."""
        return self.names("NODE_AGGREGATORS") or self.names("NODE_OPS")

    @property
    def layer_names(self) -> tuple[str, ...] | None:
        return self.names("LAYER_AGGREGATORS") or self.names("LAYER_OPS")

    @property
    def skip_names(self) -> tuple[str, ...] | None:
        return self.names("SKIP_OPS")


def _string_tuple(node: ast.AST) -> tuple[str, ...] | None:
    """The literal value of a tuple/list of string constants, else None."""
    if not isinstance(node, (ast.Tuple, ast.List)):
        return None
    values = []
    for element in node.elts:
        if not (isinstance(element, ast.Constant) and isinstance(element.value, str)):
            return None
        values.append(element.value)
    return tuple(values)


def collect_op_tables(files: Iterable[tuple[str, str]]) -> OpTables:
    """Scan ``(path, source)`` pairs for op-table declarations."""
    tables = OpTables()
    for path, source in files:
        try:
            tree = ast.parse(source)
        except SyntaxError:
            continue  # analyze_source reports the parse failure itself
        for node in tree.body:
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                if target.id in _TUPLE_NAMES:
                    names = _string_tuple(node.value)
                    if names is not None:
                        tables.declarations[target.id] = _Declaration(
                            names, path, node.lineno
                        )
                elif target.id in _REGISTRY_NAMES and isinstance(node.value, ast.Dict):
                    keys = []
                    for key in node.value.keys:
                        if isinstance(key, ast.Constant) and isinstance(key.value, str):
                            keys.append(key.value)
                    tables.declarations[target.id] = _Declaration(
                        tuple(keys), path, node.lineno
                    )
    return tables


def consistency_findings(tables: OpTables) -> list[Finding]:
    """Cross-file drift checks between op tuples and their registries."""
    findings: list[Finding] = []

    def emit(declaration: _Declaration, rule_id: str, severity: Severity, message: str):
        findings.append(
            Finding(
                rule_id=rule_id,
                severity=severity,
                path=declaration.path,
                line=declaration.line,
                col=0,
                message=message,
            )
        )

    for ops_name, registry_name in (
        ("NODE_OPS", "NODE_AGGREGATORS"),
        ("LAYER_OPS", "LAYER_AGGREGATORS"),
    ):
        ops = tables.declarations.get(ops_name)
        registry = tables.declarations.get(registry_name)
        if ops and registry:
            missing = sorted(set(ops.names) - set(registry.names))
            if missing:
                emit(
                    ops,
                    "registry-drift",
                    Severity.ERROR,
                    f"{ops_name} declares ops with no {registry_name} factory: "
                    f"{missing}",
                )

    for constant in _TUPLE_NAMES + _REGISTRY_NAMES:
        declaration = tables.declarations.get(constant)
        if declaration is None:
            continue
        duplicates = sorted(
            {name for name in declaration.names if declaration.names.count(name) > 1}
        )
        if duplicates:
            emit(
                declaration,
                "registry-drift",
                Severity.ERROR,
                f"{constant} repeats op names: {duplicates}",
            )

    for constant, expected in _PAPER_SIZES.items():
        declaration = tables.declarations.get(constant)
        if declaration is not None and len(declaration.names) != expected:
            emit(
                declaration,
                "paper-space-size",
                Severity.WARNING,
                f"{constant} has {len(declaration.names)} ops; paper Table I "
                f"defines {expected} (11^K * 2^K * 3 space)",
            )
    return findings


class GenotypeRule(Rule):
    """Validate literal ``Architecture(...)`` genotypes against the space."""

    rule_id = "invalid-genotype"
    severity = Severity.ERROR
    description = "Architecture literal outside the declared search space"
    node_types = (ast.Call,)

    def __init__(self, tables: OpTables | None = None):
        self.tables = tables or OpTables()

    def check(self, node: ast.Call, ctx: Context) -> Iterator[Finding]:
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name != "Architecture":
            return

        fields: dict[str, ast.expr] = {}
        positional = ("node_aggregators", "skip_connections", "layer_aggregator")
        for field, arg in zip(positional, node.args):
            fields[field] = arg
        for keyword in node.keywords:
            if keyword.arg in positional:
                fields[keyword.arg] = keyword.value

        nodes = _string_tuple(fields.get("node_aggregators"))
        skips = _string_tuple(fields.get("skip_connections"))
        layer_value = fields.get("layer_aggregator")
        layer = (
            layer_value.value
            if isinstance(layer_value, ast.Constant)
            and isinstance(layer_value.value, str)
            else None
        )

        if nodes is not None and skips is not None and len(nodes) != len(skips):
            yield self.finding(
                node,
                ctx,
                f"genotype has {len(nodes)} node aggregators but {len(skips)} "
                "skip choices; one skip per layer is required",
            )
        yield from self._check_names(node, ctx, nodes, self.tables.node_names, "node")
        yield from self._check_names(node, ctx, skips, self.tables.skip_names, "skip")
        if layer is not None:
            yield from self._check_names(
                node, ctx, (layer,), self.tables.layer_names, "layer"
            )

    def _check_names(
        self,
        node: ast.Call,
        ctx: Context,
        names: tuple[str, ...] | None,
        valid: tuple[str, ...] | None,
        kind: str,
    ) -> Iterator[Finding]:
        if names is None or valid is None:
            return
        unknown = sorted(set(names) - set(valid))
        if unknown:
            yield self.finding(
                node,
                ctx,
                f"unknown {kind} op name(s) {unknown}; declared ops: "
                f"{sorted(valid)}",
            )
