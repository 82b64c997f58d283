"""Command-line interface, end to end on temp files."""

import json
from unittest import mock

import pytest

from ctxve import ENGINES, Context, TreeVE, load, min_size_order, save
from ctxve.cli import INFERENCE_ERROR, USAGE_ERROR, main

from conftest import tree_network


@pytest.fixture
def tree_path(tmp_path):
    path = tmp_path / "tree.json"
    save(tree_network(), path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_clean_network(self, capsys, tree_path):
        code, out, _ = run(capsys, "validate", tree_path)
        assert code == 0
        assert out.strip() == "OK"

    def test_broken_network(self, capsys, tree_path, tmp_path):
        with open(tree_path) as fh:
            doc = json.load(fh)
        del doc["families"][6]["confactors"][3]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 1
        assert "cover" in err


class TestInfer:
    def test_posterior_lines(self, capsys, tree_path):
        code, out, _ = run(
            capsys, "infer", tree_path, "--query", "e", "--engine", "cve"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2
        label, prob = lines[0].split("\t")
        assert label == "true"
        assert 0.0 < float(prob) < 1.0
        assert float(lines[0].split("\t")[1]) + float(lines[1].split("\t")[1]) == pytest.approx(1.0)

    def test_engines_agree_through_cli(self, capsys, tree_path):
        outputs = {}
        for engine in ["ve", "cve", "tve", "enum"]:
            code, out, _ = run(
                capsys,
                "infer",
                tree_path,
                "--query",
                "e",
                "--evidence",
                "d=false,z=false",
                "--engine",
                engine,
            )
            assert code == 0
            outputs[engine] = out
        assert len(set(outputs.values())) == 1

    def test_explicit_order_and_stats(self, capsys, tree_path):
        code, out, err = run(
            capsys,
            "infer",
            tree_path,
            "--query",
            "e",
            "--order",
            "b,d,c,a,y,z",
            "--engine",
            "cve",
            "--stats",
            "--audit",
        )
        assert code == 0
        assert "max_elim=16" in err
        assert "order=b,d,c,a,y,z" in err
        # without --order, --stats prints the default order the engine ran
        net = load(tree_path)
        cat = net.catalog
        default = min_size_order(net, [cat.index("e")], Context())
        for engine in ("ve", "cve", "tve"):
            code, _, err = run(
                capsys, "infer", tree_path, "--query", "e", "--engine", engine, "--stats"
            )
            assert code == 0
            assert "order=" + ",".join(cat.names[v] for v in default) in err

    def test_variable_given_twice_in_evidence_is_usage_error(self, capsys, tree_path):
        code, out, err = run(
            capsys, "infer", tree_path, "--query", "e",
            "--evidence", "d=true,d=false",
        )
        assert code == 1
        assert out == ""
        assert "given twice" in err

    def test_audit_needs_the_cve_engine(self, capsys, tree_path):
        for engine in ("ve", "tve", "enum"):
            code, out, err = run(
                capsys, "infer", tree_path, "--query", "e", "--engine", engine, "--audit"
            )
            assert code == 1, engine
            assert out == ""
            assert "--audit" in err

    def test_order_and_stats_need_an_elimination_engine(self, capsys, tree_path):
        for flags in (["--order", "d,c,b,a,y,z"], ["--stats"]):
            code, out, err = run(
                capsys, "infer", tree_path, "--query", "e", "--engine", "enum", *flags
            )
            assert code == 1, flags
            assert out == ""
            assert "--order and --stats" in err

    def test_argparse_errors_are_usage_errors(self, capsys, tree_path):
        for argv in (
            ["infer", tree_path],
            ["infer", tree_path, "--query", "e", "--engine", "bogus"],
            ["frobnicate"],
            [],
        ):
            code, out, err = run(capsys, *argv)
            assert code == USAGE_ERROR != INFERENCE_ERROR, argv
            assert out == "" and "usage:" in err, argv
        code, out, _ = run(capsys, "infer", "--help")
        assert code == 0
        assert "--query" in out

    def test_unknown_variable_is_usage_error(self, capsys, tree_path):
        code, _, err = run(capsys, "infer", tree_path, "--query", "nope")
        assert code == 1
        assert "nope" in err

    def test_zero_probability_evidence_is_inference_error(self, capsys, tmp_path):
        from ctxve import Confactor, Context, ContextualBeliefNetwork, DomainCatalog

        cat = DomainCatalog([("x", ("0", "1")), ("y", ("0", "1"))])
        point = ContextualBeliefNetwork(
            cat,
            [
                [Confactor(Context(), cat.table((0,), [1.0, 0.0]))],
                [Confactor(Context(), cat.table((0, 1), [0.5, 0.5, 0.5, 0.5]))],
            ],
        )
        # a -> b with P(b=1 | a) = 0 for both values of a, and an
        # independent c: the zero only appears once a is summed out
        cat = DomainCatalog([(n, ("0", "1")) for n in ["a", "b", "c"]])
        deterministic = ContextualBeliefNetwork(
            cat,
            [
                [Confactor(Context(), cat.table((0,), [0.5, 0.5]))],
                [Confactor(Context(), cat.table((0, 1), [1.0, 0.0, 1.0, 0.0]))],
                [Confactor(Context(), cat.table((2,), [0.4, 0.6]))],
            ],
        )
        cases = [(point, "y", "x=1"), (deterministic, "c", "b=1")]
        for net, query, evidence in cases:
            path = tmp_path / "net.json"
            save(net, path)
            for engine in ("ve", "cve", "tve", "enum"):
                code, _, err = run(
                    capsys, "infer", str(path), "--query", query,
                    "--evidence", evidence, "--engine", engine,
                )
                assert code == 2, (query, engine)
                assert "probability zero" in err


class TestGenCompressBench:
    def test_gen_validate_round_trip(self, capsys, tmp_path):
        out_path = tmp_path / "gen.json"
        code, _, _ = run(
            capsys, "gen", "--n", "8", "--s", "3", "--p", "0.2",
            "--seed", "42", "-o", str(out_path),
        )
        assert code == 0
        net = load(out_path)
        assert net.validate() == []
        # regenerating with the same seed writes the identical document
        again = tmp_path / "gen2.json"
        run(capsys, "gen", "--n", "8", "--s", "3", "--p", "0.2", "--seed", "42",
            "-o", str(again))
        assert out_path.read_text() == again.read_text()

    def test_impossible_split_budget_is_usage_error(self, capsys, tmp_path):
        out_path = tmp_path / "x.json"
        code, out, err = run(capsys, "gen", "--n", "1", "--s", "1", "-o", str(out_path))
        assert code == USAGE_ERROR
        assert out == "" and err == "error: split budget cannot be met for these parameters\n"
        assert not out_path.exists()

    def test_compress_produces_smaller_valid_network(self, capsys, tmp_path, tree_path):
        # first expand the tree network to dense families
        from ctxve import ContextualBeliefNetwork, from_tabular_cpt

        net = load(tree_path)
        cat = net.catalog
        families = []
        for x in range(net.n_vars()):
            dense = net.tabular_factor(x)
            families.append(
                from_tabular_cpt(cat, x, [v for v in dense.vars if v != x], dense)
            )
        dense_path = tmp_path / "dense.json"
        save(ContextualBeliefNetwork(cat, families), dense_path)
        out_path = tmp_path / "compressed.json"
        report_path = tmp_path / "report.txt"
        code, _, _ = run(
            capsys, "compress", str(dense_path), "--threshold", "0.05",
            "--accept-ratio", "0.51", "-o", str(out_path),
            "--report", str(report_path),
        )
        assert code == 0
        compressed = load(out_path)
        assert compressed.validate() == []
        assert compressed.total_confactor_size() < load(dense_path).total_confactor_size()
        assert "e: 32 -> 12" in report_path.read_text()

    def test_bench_writes_csv(self, capsys, tmp_path):
        net_path = tmp_path / "bench-net.json"
        run(capsys, "gen", "--n", "7", "--s", "3", "--p", "0.3", "--seed", "5",
            "-o", str(net_path))
        csv_path = tmp_path / "out.csv"
        code, _, _ = run(
            capsys, "bench", str(net_path), "--obs-counts", "0,2",
            "--seed", "1", "-o", str(csv_path),
        )
        assert code == 0
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0].startswith("network,query,evidence,engine,time_ms")
        assert len(lines) == 1 + 2 * 3

    def test_bench_on_network_with_constant_groups(self, capsys, tmp_path):
        # Eliminating x3, x4 and x5 leaves constants; tve must drop them,
        # as ve does, or the campaign's mults check fails.
        net_path = tmp_path / "n5.json"
        run(capsys, "gen", "--n", "5", "--s", "2", "--seed", "1", "-o", str(net_path))
        code, out, err = run(capsys, "bench", str(net_path), "--obs-counts", "0")
        assert code == 0, err
        assert len(out.strip().split("\n")) == 1 + 3

    def test_bench_reports_failed_rows(self, capsys, tmp_path):
        class Failing(TreeVE):
            # begin, not eliminate: a row whose pruned order is empty
            # never eliminates anything
            def begin(self, obs=None):
                raise RuntimeError("boom")

        net_path = tmp_path / "bench-net.json"
        run(capsys, "gen", "--n", "7", "--s", "3", "--seed", "5", "-o", str(net_path))
        code, before, _ = run(capsys, "bench", str(net_path), "--obs-counts", "0,2")
        assert code == 0
        with mock.patch.dict(ENGINES, {"tve": Failing}):
            code, out, err = run(capsys, "bench", str(net_path), "--obs-counts", "0,2")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == before.split("\n")[0]
        failed = [line for line in lines if ",tve," in line]
        assert len(failed) == 2 and all(line.endswith(",error" * 7) for line in failed)
        reports = err.strip().split("\n")
        assert len(reports) == 2
        for line, report in zip(failed, reports):
            network, query, evidence = line.split(",")[:3]
            assert report == (
                f"failed: {network} query {query} evidence '{evidence}' "
                "engine tve: RuntimeError: boom"
            )

    def test_failed_bench_check_is_inference_error(self, capsys, tmp_path):
        class Wasteful(TreeVE):
            def query(self, *args, **kwargs):
                posterior = super().query(*args, **kwargs)
                self.counters.multiplications += 1 << 20
                return posterior

        net_path = tmp_path / "bench-net.json"
        run(capsys, "gen", "--n", "7", "--s", "3", "--seed", "5", "-o", str(net_path))
        with mock.patch.dict(ENGINES, {"tve": Wasteful}):
            code, out, err = run(capsys, "bench", str(net_path), "--obs-counts", "0")
        assert code == INFERENCE_ERROR
        assert out == ""
        assert err.startswith("inference error: tree engine multiplied more than")
        assert err.count("\n") == 1

    def test_bench_rejects_bad_counts(self, capsys, tmp_path):
        net_path = tmp_path / "bench-net.json"
        run(capsys, "gen", "--n", "7", "--s", "3", "--seed", "5", "-o", str(net_path))
        for flag in ("--queries-per-net=0", "--queries-per-net=-2", "--obs-counts=-3"):
            code, out, err = run(capsys, "bench", str(net_path), flag)
            assert code == 1, flag
            assert out == "" and err.startswith("error:"), flag
