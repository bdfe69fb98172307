"""Genotype validation: op-table collection, Architecture literals and
the cross-file registry-consistency checks."""

import textwrap
from pathlib import Path

import repro
from repro.analysis import (
    GenotypeRule,
    Severity,
    analyze_source,
    collect_op_tables,
    consistency_findings,
)

SPACE_SRC = textwrap.dedent(
    """
    NODE_OPS = ("gcn", "gat")
    LAYER_OPS = ("concat",)
    SKIP_OPS = ("identity", "zero")
    """
)
REGISTRY_SRC = textwrap.dedent(
    """
    NODE_AGGREGATORS = {"gcn": object, "gat": object}
    LAYER_AGGREGATORS = {"concat": object}
    """
)


def tables():
    return collect_op_tables(
        [("space.py", SPACE_SRC), ("registry.py", REGISTRY_SRC)]
    )


def run(source: str):
    return analyze_source(
        textwrap.dedent(source), path="snippet.py", rules=[GenotypeRule(tables())]
    )


class TestOpTables:
    def test_collects_tuples_and_registry_keys(self):
        t = tables()
        assert t.names("NODE_OPS") == ("gcn", "gat")
        assert t.names("NODE_AGGREGATORS") == ("gcn", "gat")
        assert t.skip_names == ("identity", "zero")
        assert t.layer_names == ("concat",)

    def test_registry_wins_over_tuple_for_validation(self):
        t = collect_op_tables(
            [("a.py", "NODE_OPS = ('gcn',)\nNODE_AGGREGATORS = {'gcn': 1, 'extra': 2}\n")]
        )
        assert t.node_names == ("gcn", "extra")


class TestGenotypeRule:
    def test_unknown_node_op_flagged(self):
        result = run(
            """
            arch = Architecture(("gcn", "bogus"), ("identity", "zero"), "concat")
            """
        )
        assert [f.rule_id for f in result.findings] == ["invalid-genotype"]
        assert "bogus" in result.findings[0].message

    def test_arity_mismatch_flagged(self):
        result = run(
            """
            arch = Architecture(("gcn",), ("identity", "zero"), "concat")
            """
        )
        assert [f.rule_id for f in result.findings] == ["invalid-genotype"]
        assert "skip" in result.findings[0].message

    def test_unknown_skip_and_layer_ops_flagged(self):
        result = run(
            """
            arch = Architecture(
                node_aggregators=("gcn",),
                skip_connections=("residual",),
                layer_aggregator="attention",
            )
            """
        )
        ids = [f.rule_id for f in result.findings]
        assert ids == ["invalid-genotype", "invalid-genotype"]

    def test_valid_literal_is_clean(self):
        result = run(
            """
            arch = Architecture(("gcn", "gat"), ("identity", "zero"), "concat")
            """
        )
        assert result.findings == []

    def test_dynamic_arguments_are_skipped(self):
        result = run(
            """
            arch = Architecture(tuple(nodes), skips, layer_op)
            """
        )
        assert result.findings == []


class TestConsistency:
    def test_registry_drift_is_an_error(self):
        drifted = collect_op_tables(
            [
                ("space.py", "NODE_OPS = ('gcn', 'gat')\n"),
                ("registry.py", "NODE_AGGREGATORS = {'gcn': 1}\n"),
            ]
        )
        findings = consistency_findings(drifted)
        drift = [f for f in findings if f.rule_id == "registry-drift"]
        assert len(drift) == 1
        assert drift[0].severity is Severity.ERROR
        assert "gat" in drift[0].message

    def test_duplicate_names_in_tuple_flagged(self):
        duplicated = collect_op_tables(
            [("space.py", "SKIP_OPS = ('zero', 'zero')\n")]
        )
        findings = consistency_findings(duplicated)
        assert any(
            f.rule_id == "registry-drift" and "zero" in f.message for f in findings
        )

    def test_paper_size_deviation_is_a_warning(self):
        findings = consistency_findings(tables())
        sizes = [f for f in findings if f.rule_id == "paper-space-size"]
        # NODE_OPS has 2 ops (paper: 11) and LAYER_OPS has 1 (paper: 3).
        assert len(sizes) == 2
        assert all(f.severity is Severity.WARNING for f in sizes)


class TestRealSearchSpace:
    """The shipped declarations must validate against themselves."""

    def test_repo_tables_are_consistent(self):
        root = Path(repro.__file__).parent
        sources = [
            (str(p), p.read_text(encoding="utf-8"))
            for p in (
                root / "core" / "search_space.py",
                root / "gnn" / "aggregators.py",
                root / "gnn" / "layer_aggregators.py",
            )
        ]
        t = collect_op_tables(sources)
        assert t.names("NODE_OPS") is not None
        assert len(t.names("NODE_OPS")) == 11
        assert "sage-sum" in t.node_names
        assert consistency_findings(t) == []

    def test_declared_tables_give_the_paper_space_size(self):
        """The op counts the analyzer checks against multiply out to the
        space ``SearchSpace`` enumerates: 11^K * 2^K * 3, 31,944 at K=3."""
        from repro.core.search_space import SearchSpace

        assert SearchSpace(3).size() == 31944
        assert 11**3 * 2**3 * 3 == 31944
        findings = consistency_findings(tables())
        message = next(f.message for f in findings if f.rule_id == "paper-space-size")
        assert "11^K * 2^K * 3" in message
