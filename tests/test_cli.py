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

    @pytest.mark.parametrize(
        "name, families",
        [
            ("a", [1]),
            ("a", [{"child": "a", "confactors": [3]}]),
            # --query and a bench row would read "a,b" as two names.
            ("a,b", [{"child": "a,b", "confactors": [{"vars": ["a,b"], "table": [1.0]}]}]),
        ],
        ids=["families0", "families1", "name-comma"],
    )
    def test_malformed_document_is_one_error_line(self, capsys, tmp_path, name, families):
        bad = tmp_path / "malformed.json"
        doc = {"variables": [{"name": name, "values": ["t"]}], "families": families}
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, "validate", str(bad))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


    def test_integer_value_labels_are_one_error_line(self, capsys, tmp_path):
        bad = tmp_path / "int-labels.json"
        family = {"child": "a", "confactors": [{"vars": ["a"], "table": [0.5, 0.5]}]}
        bad.write_text(json.dumps(
            {"variables": [{"name": "a", "values": [0, 1]}], "families": [family]}
        ))
        code, out, err = run(capsys, "infer", str(bad), "--query", "a")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("verb", ["infer", "bench", "compress"])
    def test_invalid_network_is_one_error_line(self, capsys, tree_path, tmp_path, verb):
        # validate prints one line per fault; a verb that loads the network
        # prints them all on one error line.
        with open(tree_path) as fh:
            doc = json.load(fh)
        doc["families"][0]["confactors"] = []
        del doc["families"][6]["confactors"][3]
        bad = str(tmp_path / "bad.json")
        with open(bad, "w") as fh:
            json.dump(doc, fh)
        code, _, err = run(capsys, "validate", bad)
        faults = ["y: empty family", "e: bodies cover 7 of 8 cells (not exhaustive)"]
        assert code == 1 and err.splitlines() == faults
        argv = {
            "infer": ["infer", bad, "--query", "e"],
            "bench": ["bench", bad],
            "compress": ["compress", bad, "-o", str(tmp_path / "out.json")],
        }[verb]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == "error: network failed validation: " + "; ".join(faults) + "\n"


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

    def test_empty_list_items_are_dropped(self, capsys, tree_path):
        code, want, _ = run(capsys, "infer", tree_path, "--query", "e", "--order", "b,d,c,a,y,z")
        assert code == 0
        code, out, err = run(
            capsys, "infer", tree_path, "--query", "e,", "--order", "b,d,c,a,y,z,"
        )
        assert (code, out, err) == (0, want, "")
        code, want, _ = run(capsys, "infer", tree_path, "--query", "e", "--evidence", "d=true")
        assert code == 0
        code, out, err = run(
            capsys, "infer", tree_path, "--query", "e", "--evidence", "d=true,"
        )
        assert (code, out, err) == (0, want, "")
        # An order with no items is no order: the default one, on any engine.
        code, want, _ = run(capsys, "infer", tree_path, "--query", "e")
        assert code == 0
        for order in ("", ","):
            for engine in ("cve", "enum"):
                code, out, err = run(
                    capsys, "infer", tree_path, "--query", "e", "--engine", engine,
                    "--order", order,
                )
                assert (code, out, err) == (0, want, ""), (order, engine)

    def test_evidence_item_without_a_value_is_usage_error(self, capsys, tree_path):
        code, out, err = run(capsys, "infer", tree_path, "--query", "e", "--evidence", "d")
        assert (code, out, err) == (1, "", "error: expected name=value, got 'd'\n")

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
        for argv in (["--query", "nope"], ["--query", "e", "--order", "nope"]):
            code, out, err = run(capsys, "infer", tree_path, *argv)
            assert code == 1 and out == "", argv
            assert err == "error: unknown variable: 'nope'\n", argv

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
        for argv, message in [
            (["--n", "1", "--s", "1"], "split budget cannot be met for these parameters"),
            (["--n", "0"], "n must be at least 1"),
            (["--n", "2", "--s=-1"], "s must be non-negative"),
            (["--n", "2", "--p", "1.5"], "p must be in [0, 1]"),
        ]:
            code, out, err = run(capsys, "gen", *argv, "-o", str(out_path))
            assert code == USAGE_ERROR
            assert out == "" and err == f"error: {message}\n"
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
        # Without --report, the same lines, one per family, go to stderr.
        code, out, err = run(capsys, "compress", str(dense_path), "-o", str(out_path))
        assert code == 0 and out == f"wrote {out_path}\n"
        assert err.splitlines() == report_path.read_text().splitlines()
        assert len(err.splitlines()) == net.n_vars()
        for flag, message in [
            ("--threshold=2", "threshold must be in (0, 1)"),
            ("--accept-ratio=0", "accept_ratio must be in (0, 1]"),
        ]:
            code, out, err = run(capsys, "compress", str(dense_path), flag, "-o", str(out_path))
            assert code == USAGE_ERROR, flag
            assert out == "" and err == f"error: {message}\n", flag

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
        # --obs-counts=0 first, so that only the flag under test is bad
        for flag, message in [
            ("--queries-per-net=0", "queries per network must be at least 1, got 0"),
            ("--queries-per-net=-2", "queries per network must be at least 1, got -2"),
            ("--obs-counts=-3", "observation counts must be non-negative, got [-3]"),
            ("--obs-counts=", "no observation counts to run"),
            ("--engines=", "no engines to run"),
            ("--engines=,", "no engines to run"),
            ("--engines=ve,ve", "repeated engines: ['ve']"),
            ("--obs-counts=7", "cannot observe that many variables"),
        ]:
            code, out, err = run(capsys, "bench", str(net_path), "--obs-counts=0", flag)
            assert code == 1, flag
            assert out == "" and err == f"error: {message}\n", flag
