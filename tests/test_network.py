"""Network model: validation, family construction and the JSON format."""

import itertools
import json

import numpy as np
import pytest

from ctxve import (
    Confactor,
    Context,
    ContextualBeliefNetwork,
    NetworkFormatError,
    ParentSkeleton,
    from_skeleton,
    from_tabular_cpt,
    joint_table,
    load,
    save,
)
from ctxve.network import from_document, to_document

from conftest import (
    F,
    T,
    ctx,
    dense_e_rows,
    hvac_network,
    table,
    tree_catalog,
    tree_network,
)


def test_tree_network_validates_clean(tree_net):
    assert tree_net.validate() == []


def test_dense_expansion_matches_row_table(tree_net):
    cat = tree_net.catalog
    dense = tree_net.tabular_factor(cat.index("e"))
    assert dense.vars == tuple(cat.index(n) for n in ["a", "b", "c", "d", "e"])
    for (a, b, c, d), p in dense_e_rows().items():
        assignment = dict(zip(dense.vars, (a, b, c, d, T)))
        assert dense.lookup(assignment) == pytest.approx(p)


def test_scopes_and_sizes_need_no_dense_expansion():
    # Each family's scope is cached once; the dense size of the network is
    # counted from the scopes, so no family is expanded to count it.
    net = hvac_network()
    assert net.total_tabular_size() == sum(
        int(np.prod(net.catalog.shape(scope))) for scope in net.scopes
    )
    assert net._tabular_cache == {}
    for x, scope in enumerate(net.scopes):
        assert scope == tuple(sorted({v for r in net.families[x] for v in r.variables()}))
        assert net.tabular_factor(x).vars == scope
    assert net.total_tabular_size() == sum(net.tabular_factor(x).size for x in range(net.n_vars()))


def test_missing_cover_is_reported(tree_net):
    cat = tree_net.catalog
    e = cat.index("e")
    families = [list(f) for f in tree_net.families]
    families[e] = families[e][:-1]  # drop the a=false,c=false,d=false leaf
    broken = ContextualBeliefNetwork(cat, families)
    assert any("cover" in v for v in broken.validate())


def test_overlapping_bodies_are_reported(tree_net):
    cat = tree_net.catalog
    e = cat.index("e")
    families = [list(f) for f in tree_net.families]
    families[e] = families[e] + [
        Confactor(ctx(cat, "a=true,c=true"), table(cat, ["e"], [0.5, 0.5]))
    ]
    broken = ContextualBeliefNetwork(cat, families)
    msgs = broken.validate()
    assert any("compatible" in v for v in msgs)


def test_unnormalized_column_is_reported(tree_net):
    cat = tree_net.catalog
    e = cat.index("e")
    families = [list(f) for f in tree_net.families]
    families[e] = list(families[e])
    families[e][0] = Confactor(
        ctx(cat, "a=true"), table(cat, ["b", "e"], [0.55, 0.65, 0.3, 0.7])
    )
    broken = ContextualBeliefNetwork(cat, families)
    assert any("not normalized" in v for v in broken.validate())


class TestFromTabular:
    def test_dense_conditional_becomes_single_confactor(self):
        cat = tree_catalog()
        net = tree_network()
        e = cat.index("e")
        dense = net.tabular_factor(e)
        fam = from_tabular_cpt(cat, e, [v for v in dense.vars if v != e], dense)
        assert len(fam) == 1
        assert fam[0].body == Context()
        assert fam[0].table.size == 32

    def test_prior(self):
        cat = tree_catalog()
        y = cat.index("y")
        fam = from_tabular_cpt(cat, y, [], table(cat, ["y"], [0.6, 0.4]))
        assert fam[0].table.size == 2

    def test_rejects_unnormalized(self):
        cat = tree_catalog()
        y = cat.index("y")
        with pytest.raises(ValueError, match="not normalized"):
            from_tabular_cpt(cat, y, [], table(cat, ["y"], [0.6, 0.5]))

    def test_dense_d_family_matches_contextual_one(self):
        # expanding the two-confactor family for d and re-ingesting it as a
        # dense CPT preserves every conditional value
        net = tree_network()
        cat = net.catalog
        d = cat.index("d")
        dense = net.tabular_factor(d)
        fam = from_tabular_cpt(cat, d, [v for v in dense.vars if v != d], dense)
        rebuilt = ContextualBeliefNetwork(
            cat, [fam if x == d else list(f) for x, f in enumerate(net.families)]
        )
        for combo in itertools.product((T, F), repeat=3):
            assignment = dict(zip(dense.vars, combo + (T,)))
            assert rebuilt.tabular_factor(d).lookup(assignment) == pytest.approx(
                dense.lookup(assignment)
            )


class TestFromSkeleton:
    def test_tree_structured_family(self):
        cat = tree_catalog()
        e, b = cat.index("e"), cat.index("b")
        skeleton = ParentSkeleton(
            e,
            [
                (ctx(cat, "a=true"), [b]),
                (ctx(cat, "a=false,c=true"), []),
                (ctx(cat, "a=false,c=false,d=true"), [b]),
                (ctx(cat, "a=false,c=false,d=false"), []),
            ],
        )
        dists = [
            table(cat, ["b", "e"], [0.55, 0.45, 0.3, 0.7]),
            table(cat, ["e"], [0.08, 0.92]),
            table(cat, ["b", "e"], [0.025, 0.975, 0.85, 0.15]),
            table(cat, ["e"], [0.5, 0.5]),
        ]
        fam = from_skeleton(cat, skeleton, dists)
        want = tree_network().families[e]
        assert [r.body for r in fam] == [r.body for r in want]
        for got, expected in zip(fam, want):
            np.testing.assert_allclose(got.table.array, expected.table.array)

    def test_degenerate_skeleton_is_tabular(self):
        cat = tree_catalog()
        d, y, z = cat.index("d"), cat.index("y"), cat.index("z")
        dense = tree_network().tabular_factor(d)
        fam = from_skeleton(
            cat, ParentSkeleton(d, [(Context(), [y, z])]), [dense]
        )
        assert len(fam) == 1 and fam[0].body == Context()

    def test_switching_parent_family(self):
        # one parent set when the switch is on, another when it is off
        from conftest import hvac_catalog

        cat = hvac_catalog()
        fh, ot, ft = cat.index("fh"), cat.index("ot"), cat.index("ft")
        skeleton = ParentSkeleton(
            fh,
            [
                (ctx(cat, "fb=true"), [ot]),
                (ctx(cat, "fb=false"), [ft]),
            ],
        )
        dists = [
            table(cat, ["ot", "fh"], [0.9, 0.1, 0.3, 0.7]),
            table(cat, ["ft", "fh"], [0.8, 0.2, 0.2, 0.8]),
        ]
        fam = from_skeleton(cat, skeleton, dists)
        assert [r.body for r in fam] == [ctx(cat, "fb=true"), ctx(cat, "fb=false")]

    def test_rejects_non_exhaustive(self):
        cat = tree_catalog()
        e, b = cat.index("e"), cat.index("b")
        skeleton = ParentSkeleton(e, [(ctx(cat, "a=true"), [b])])
        with pytest.raises(ValueError, match="not exhaustive"):
            from_skeleton(cat, skeleton, [table(cat, ["b", "e"], [0.55, 0.45, 0.3, 0.7])])


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path, tree_net):
        path = tmp_path / "tree.json"
        save(tree_net, path)
        back = load(path)
        assert back.catalog.names == tree_net.catalog.names
        assert back.catalog.domains == tree_net.catalog.domains
        for x in range(tree_net.n_vars()):
            assert len(back.families[x]) == len(tree_net.families[x])
            for got, want in zip(back.families[x], tree_net.families[x]):
                assert got.body == want.body
                assert got.table.vars == want.table.vars
                np.testing.assert_allclose(
                    got.table.array, want.table.array, atol=1e-12
                )

    def test_malformed_value_label(self, tree_net):
        doc = to_document(tree_net)
        doc["families"][6]["confactors"][0]["context"]["a"] = "maybe"
        with pytest.raises(NetworkFormatError, match="'a'"):
            from_document(doc)

    def test_short_table_is_not_broadcast(self):
        doc = {
            "variables": [{"name": "a", "values": ["t", "f"]}],
            "families": [{"child": "a", "confactors": [{"vars": ["a"], "table": [0.5]}]}],
        }
        with pytest.raises(NetworkFormatError, match="expected 2 table values, got 1"):
            from_document(doc)
        doc["families"][0]["confactors"][0]["table"] = [0.5, 0.5]
        assert from_document(doc).families[0][0].table.flat.tolist() == [0.5, 0.5]

    def test_parse_error_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"variables": [}', encoding="utf-8")
        with pytest.raises(NetworkFormatError, match="line 1"):
            load(path)

    def test_invalid_network_rejected_unless_forced(self, tmp_path, tree_net):
        doc = to_document(tree_net)
        del doc["families"][6]["confactors"][3]
        path = tmp_path / "invalid.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(NetworkFormatError, match="validation"):
            load(path)
        forced = load(path, force=True)
        assert forced.validate() != []


def test_exactly_one_applicable_confactor_per_assignment(tree_net):
    cat = tree_net.catalog
    n = tree_net.n_vars()
    for combo in itertools.product((T, F), repeat=n):
        full = Context(list(enumerate(combo)))
        for fam in tree_net.families:
            hits = [
                r
                for r in fam
                if all(full.get(v) == val for v, val in r.body.items())
            ]
            assert len(hits) == 1


@pytest.mark.parametrize("maker", [tree_network, hvac_network])
def test_joint_sums_to_one(maker):
    net = maker()
    joint = joint_table(net)
    assert float(joint.array.sum()) == pytest.approx(1.0, abs=1e-6)
