"""Network model: validation, family construction and the JSON format."""

import itertools
import json
import re

import numpy as np
import pytest

from ctxve import (
    Confactor,
    Context,
    ContextualBeliefNetwork,
    DomainCatalog,
    NetworkFormatError,
    Table,
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
    lookup,
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
        assert lookup(dense, assignment) == pytest.approx(p)


def test_scopes_and_sizes_need_no_dense_expansion():
    # Each family's scope is cached once; the dense size of the network is
    # counted from the scopes, so no family is expanded to count it.
    net = hvac_network()
    assert net.total_tabular_size() == sum(
        int(np.prod(net.catalog.shape(scope))) for scope in net.scopes
    )
    assert net._tabular_cache == {}
    for x, scope in enumerate(net.scopes):
        assert scope == tuple(sorted({v for r in net.families[x] for v in r.vars}))
        assert net.tabular_factor(x).vars == scope
    assert net.total_tabular_size() == sum(net.tabular_factor(x).size for x in range(net.n_vars()))


def test_one_piece_family_is_its_own_table():
    # x's table lists its variables as (x, b); the dense table puts them in
    # ascending id order as a view of that table, never a copy.
    cat = tree_catalog()
    b, x = cat.index("b"), cat.index("e")
    own = table(cat, ["e", "b"], [0.55, 0.3, 0.45, 0.7])
    families = [list(f) for f in tree_network().families]
    families[x] = from_tabular_cpt(cat, x, [b], own)
    net = ContextualBeliefNetwork(cat, families)
    dense = net.tabular_factor(x)
    assert dense.vars == net.scopes[x] == (b, x)
    assert np.shares_memory(dense.array, net.families[x][0].table.array)
    np.testing.assert_array_equal(dense.array, own.array.T)
    assert net.tabular_factor(x) is dense


def test_missing_cover_is_reported(tree_net):
    cat = tree_net.catalog
    e = cat.index("e")
    families = [list(f) for f in tree_net.families]
    families[e] = families[e][:-1]  # drop the a=false,c=false,d=false leaf
    broken = ContextualBeliefNetwork(cat, families)
    assert any("cover" in v for v in broken.validate())
    with pytest.raises(ValueError, match="one family required per variable"):
        ContextualBeliefNetwork(cat, families[:-1])


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


@pytest.mark.parametrize(
    "values, fault",
    [
        ([0.55, 0.45, 0.3, 0.7], None),
        ([0.55, 0.45 + 2e-6, 0.3, 0.7], "not normalized over e"),
        ([1.2, -0.2, 0.3, 0.7], "has negative or non-finite entries"),
        ([float("nan"), 0.45, 0.3, 0.7], "has negative or non-finite entries"),
        ([float("inf"), 0.45, 0.3, 0.7], "has negative or non-finite entries"),
        ([-float("inf"), 0.45, 0.3, 0.7], "has negative or non-finite entries"),
    ],
    ids=["normalized", "off-by-2e-6", "negative", "nan", "inf", "minus-inf"],
)
def test_entry_faults(tree_net, values, fault):
    cat = tree_net.catalog
    e = cat.index("e")
    families = [list(f) for f in tree_net.families]
    families[e][0] = Confactor(ctx(cat, "a=true"), table(cat, ["b", "e"], values))
    faults = ContextualBeliefNetwork(cat, families).validate()
    assert faults == ([] if fault is None else [f"e: confactor 0 {fault}"])


def test_negative_body_value_is_out_of_domain():
    # {a=-1} and {a=0} are disjoint and count two cells of a's two, so only
    # the domain check can catch the -1.
    cat = DomainCatalog([("a", ("t", "f")), ("b", ("t", "f"))])
    b_given = cat.table((1,), [0.5, 0.5])
    net = ContextualBeliefNetwork(
        cat,
        [
            [Confactor(Context(), cat.table((0,), [0.5, 0.5]))],
            [Confactor(Context([(0, -1)]), b_given), Confactor(Context([(0, 0)]), b_given)],
        ],
    )
    assert net.validate() == ["b: confactor 0 assigns out-of-domain value to a"]


@pytest.mark.parametrize(
    "body, vars", [(Context([(5, 0)]), (0,)), (Context(), (0, 5))], ids=["body", "table"]
)
def test_unknown_variable_id_is_a_fault(body, vars):
    # Variable 5 is outside the one-variable catalog: its name and domain
    # are undefined, so it is reported once and checked no further.
    cat = DomainCatalog([("a", ("t", "f"))])
    dist = Table(vars, np.full((2,) * len(vars), 0.5))
    net = ContextualBeliefNetwork(cat, [[Confactor(body, dist)]])
    assert net.validate() == ["a: confactor 0 mentions unknown variable id 5"]
    with pytest.raises(ValueError, match="confactor 0 mentions unknown variable id 5"):
        from_skeleton(cat, 0, [(body, dist)])


@pytest.mark.parametrize(
    "x, body, vars, shape, faults",
    [
        (1, Context(), (0,), (2,), ["confactor 0 has no b in its table"]),
        (0, Context([(1, 0)]), (0,), (2,), [
            "confactor 0 body mentions non-predecessor b",
            "bodies cover 1 of 2 cells (not exhaustive)",
        ]),
        (0, Context(), (1, 0), (2, 2), ["confactor 0 table mentions non-predecessor b"]),
        (1, Context(), (0, 1), (3, 2), ["confactor 0 table dimension mismatch for a"]),
    ],
    ids=["child-missing", "body-successor", "table-successor", "wrong-shape"],
)
def test_structure_faults(x, body, vars, shape, faults):
    # Tables built in code: a document's tables take their shape from the catalog.
    cat = DomainCatalog([("a", ("t", "f")), ("b", ("t", "f"))])
    families = [[Confactor(Context(), cat.table((v,), [0.5, 0.5]))] for v in (0, 1)]
    families[x] = [Confactor(body, Table(vars, np.full(shape, 0.5)))]
    name = cat.names[x]
    assert ContextualBeliefNetwork(cat, families).validate() == [f"{name}: {f}" for f in faults]


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

    def test_rejects_a_table_over_other_parents(self):
        cat = tree_catalog()
        y, z, d = cat.index("y"), cat.index("z"), cat.index("d")
        dense = tree_network().tabular_factor(d)
        with pytest.raises(ValueError, match="table must range over the parents plus the child"):
            from_tabular_cpt(cat, d, [y], dense)
        assert len(from_tabular_cpt(cat, d, [z, y], dense)) == 1

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
            assert lookup(rebuilt.tabular_factor(d), assignment) == pytest.approx(
                lookup(dense, assignment)
            )


class TestFromSkeleton:
    def test_tree_structured_family(self):
        cat = tree_catalog()
        e = cat.index("e")
        pairs = [
            (ctx(cat, "a=true"), table(cat, ["b", "e"], [0.55, 0.45, 0.3, 0.7])),
            (ctx(cat, "a=false,c=true"), table(cat, ["e"], [0.08, 0.92])),
            (
                ctx(cat, "a=false,c=false,d=true"),
                table(cat, ["b", "e"], [0.025, 0.975, 0.85, 0.15]),
            ),
            (ctx(cat, "a=false,c=false,d=false"), table(cat, ["e"], [0.5, 0.5])),
        ]
        fam = from_skeleton(cat, e, pairs)
        want = tree_network().families[e]
        assert [r.body for r in fam] == [r.body for r in want]
        for got, expected in zip(fam, want):
            np.testing.assert_allclose(got.table.array, expected.table.array)

    def test_degenerate_skeleton_is_tabular(self):
        cat = tree_catalog()
        d, y, z = cat.index("d"), cat.index("y"), cat.index("z")
        dense = tree_network().tabular_factor(d)
        assert set(dense.vars) == {y, z, d}
        fam = from_skeleton(cat, d, [(Context(), dense)])
        assert len(fam) == 1 and fam[0].body == Context()

    def test_switching_parent_family(self):
        # one parent set when the switch is on, another when it is off
        from conftest import hvac_catalog

        cat = hvac_catalog()
        fh, ot, ft = cat.index("fh"), cat.index("ot"), cat.index("ft")
        pairs = [
            (ctx(cat, "fb=true"), table(cat, ["ot", "fh"], [0.9, 0.1, 0.3, 0.7])),
            (ctx(cat, "fb=false"), table(cat, ["ft", "fh"], [0.8, 0.2, 0.2, 0.8])),
        ]
        fam = from_skeleton(cat, fh, pairs)
        assert [r.body for r in fam] == [ctx(cat, "fb=true"), ctx(cat, "fb=false")]
        assert [r.table.vars for r in fam] == [(ot, fh), (ft, fh)]

    def test_rejects_non_exhaustive(self):
        cat = tree_catalog()
        e = cat.index("e")
        pairs = [(ctx(cat, "a=true"), table(cat, ["b", "e"], [0.55, 0.45, 0.3, 0.7]))]
        with pytest.raises(ValueError, match="not exhaustive"):
            from_skeleton(cat, e, pairs)


# The starts of the messages for a name or a label that a comma list, a
# ``name=value`` item or a campaign CSV row could not carry.
NAME = (
    "variables: variable name must be non-empty, "
    "with no ',', ';', '=' or surrounding whitespace: "
)
LABEL = "variables: variable 'b' has a value label with ',', ';' or surrounding whitespace: "


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

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d.clear(), "document: missing field 'variables'"),
            (lambda d: d["variables"][1].update(values="tf"),
             "variable 1: field 'values' must be a list, got str"),
            (lambda d: d.update(families=[1]), "family 0: expected an object, got int"),
            (lambda d: d["families"][1].update(confactors=[3]),
             "family of 'b', confactor 0: expected an object, got int"),
            (lambda d: d["families"][1].update(confactors={"x": 1}),
             "family 1: field 'confactors' must be a list, got dict"),
            (lambda d: d["families"][1]["confactors"][0].update(vars="ab"),
             "family of 'b', confactor 0: field 'vars' must be a list, got str"),
            (lambda d: d["families"][1]["confactors"][0].update(context={"a": "t"}),
             "family of 'b', confactor 0: body and table share variables"),
            (lambda d: d["variables"][0].update(values=[0, 1]),
             "variables: variable 'a' has a value label that is not a string: 0"),
            (lambda d: d["variables"][1].update(values=["t", None]),
             "variables: variable 'b' has a value label that is not a string: None"),
            (lambda d: d["families"][0]["confactors"][0].update(table=[True, False]),
             "family of 'a', confactor 0: table entry 0 must be a number, got bool"),
            (lambda d: d["families"][0]["confactors"][0].update(table=["0.3", "0.7"]),
             "family of 'a', confactor 0: table entry 0 must be a number, got str"),
            (lambda d: d["families"][1].update(child="nope"),
             "family 1: unknown variable: 'nope'"),
            (lambda d: d["families"][1].update(child="a"),
             "family 1: duplicate family for variable 'a'"),
            (lambda d: d["families"].pop(), "variables without families: ['b']"),
            (lambda d: d["variables"][1].update(name="a"),
             "variables: duplicate variable name: 'a'"),
            (lambda d: d["variables"][1].update(values=[]),
             "variables: variable 'b' has an empty domain"),
            (lambda d: d["variables"][1].update(values=["t", "t"]),
             "variables: variable 'b' has duplicate value labels"),
            (lambda d: d["families"][1]["confactors"][0].update(vars=["a", "a"]),
             "family of 'b', confactor 0: duplicate variables in table"),
            # Names and labels the command line and the campaign CSV can write.
            (lambda d: d["variables"][0].update(name="a,b"), NAME + "'a,b'"),
            (lambda d: d["variables"][0].update(name="a;b"), NAME + "'a;b'"),
            (lambda d: d["variables"][0].update(name="a=b"), NAME + "'a=b'"),
            (lambda d: d["variables"][0].update(name=""), NAME + "''"),
            (lambda d: d["variables"][0].update(name=" a"), NAME + "' a'"),
            (lambda d: d["variables"][1].update(values=["t,u", "f"]), LABEL + "'t,u'"),
            (lambda d: d["variables"][1].update(values=["t", "f;g"]), LABEL + "'f;g'"),
            (lambda d: d["variables"][1].update(values=["t", "f\t"]), LABEL + "'f\\t'"),
        ],
        ids=["no-variables", "values-str", "family-int", "confactor-int",
             "confactors-dict", "vars-str", "body-in-table", "label-int", "label-null",
             "entry-bool", "entry-str", "child-unknown", "family-twice", "family-missing",
             "name-twice", "domain-empty", "labels-twice", "table-vars-twice",
             "name-comma", "name-semicolon", "name-equals", "name-empty", "name-space",
             "label-comma", "label-semicolon", "label-space"],
    )
    def test_malformed_entry_is_named(self, tmp_path, edit, message):
        doc = {
            "variables": [{"name": "a", "values": ["t", "f"]}, {"name": "b", "values": ["t", "f"]}],
            "families": [
                {"child": "a", "confactors": [{"vars": ["a"], "table": [0.5, 0.5]}]},
                {"child": "b", "confactors": [{"vars": ["a", "b"], "table": [0.5] * 4}]},
            ],
        }
        edit(doc)
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(NetworkFormatError, match=re.escape(message)):
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
