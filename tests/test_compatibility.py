"""Hinge-table losses, total-loss assembly and pairwise scoring."""

import hashlib
from itertools import combinations

import numpy as np
import pytest

from outfitrec.compatibility import (SIM, VSE, LossWeights, pair_score,
                                     plan_pairs, training_loss, triplet_loss)
from outfitrec.data import (Item, ItemType, SyntheticSpec, canonical_pair,
                            generate_synthetic)
from outfitrec.errors import (ConfigError, DimensionError, DomainError,
                             UnseenTypePairError)
from outfitrec.model import FUSION_KINDS, ModelDims, init_model, item_features
from outfitrec.optim import grad_check
from outfitrec.tensor import (Tensor, grouped_projection, linear, no_grad,
                              parameter, role_cosines, take_rows)


def cos(a, b):
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def loss_comp(rep_u, rep_p, rep_n, space, margin):
    """Reference: triplet loss after projecting the reps into one type-pair
    space, one `linear` map per rep."""
    return triplet_loss(linear(rep_u, space), linear(rep_p, space),
                        linear(rep_n, space), margin)


def total_loss(comp, vsim, tsim, vse, weights):
    """Reference: the weighted total of the four loss terms, op by op."""
    return (comp + weights.lambda_vsim * vsim + weights.lambda_tsim * tsim
            + weights.lambda_vse * vse)


def tl(a, p, n, m=0.2):
    return triplet_loss(Tensor(a), Tensor(p), Tensor(n), m).item()


def hinges_chain(cos, negative_rows, positive_rows, margin):
    """Each triplet's mean margin hinge over a role-cosine table's entries,
    op by op, as `triplet_loss` computes its one entry (the reference of
    the same name in test_tensor.py)."""
    rows = cos.reshape((cos.shape[0] ** 2,) + cos.shape[2:])
    negative = take_rows(rows, negative_rows)
    positive = take_rows(rows, positive_rows)
    return (negative + positive * -1.0 + margin).relu().mean(axis=0)


def vsim(u, p, n, m):
    """The vsim (or tsim) term of one anchor/positive/negative triplet."""
    roles = Tensor(np.stack([u, p, n]))
    return hinges_chain(role_cosines(roles, roles), *SIM, m).item()


def vse(imgs, txts, m):
    """The vse term of one triplet's three images and three texts."""
    return hinges_chain(role_cosines(Tensor(np.stack(imgs)),
                                     Tensor(np.stack(txts))), *VSE, m).item()


class TestTripletLoss:
    def test_positive_equals_negative_gives_margin(self):
        a, p = np.array([1.0, 2.0]), np.array([-0.5, 1.0])
        assert tl(a, p, p) == pytest.approx(0.2, abs=1e-12)

    def test_perfectly_separated_triplet_is_zero(self):
        a = np.array([1.0, 0.0])
        assert tl(a, 2.0 * a, -a) == 0.0

    def test_hand_computed_value(self):
        # f(a,p) = 0, f(a,n) = 0.5 -> max(0, 0.5 - 0 + 0.2) = 0.7
        a = np.array([1.0, 0.0])
        p = np.array([0.0, 1.0])
        n = np.array([0.5, np.sqrt(3.0) / 2.0])
        assert tl(a, p, n) == pytest.approx(0.7, abs=1e-12)

    def test_bounded_by_margin_plus_two(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, p, n = rng.normal(size=(3, 5))
            val = tl(a, p, n)
            assert 0.0 <= val <= 0.2 + 2.0 + 1e-12


# An anchor, a positive and a negative whose cosines with the anchor are
# exactly 0.5 and 0.25, so at margin 0.25 the hinge is exactly 0.
AT_ZERO = np.array([[1.0, 0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0, 0.0],
                    [1.0, 3.0, 2.0, 1.0, 1.0]])
# One vector triplet whose hinge is active: the negative is near the anchor.
ACTIVE = np.array([[0.3, -1.2, 0.7, 2.0, -0.4], [-1.0, 0.5, 0.2, -0.3, 0.9],
                   [0.4, -0.8, 1.1, 1.5, 0.1]])


class TestTripletLossPin:
    """`triplet_loss` on fixed inputs: each value's `float.hex` and the
    SHA-256 of the three input gradients under a fixed upstream gradient,
    so a rewrite of the loss keeps every bit, signed zeros included."""

    def roles(self, case):
        rng = np.random.default_rng(29)
        if case == "batched":
            return rng.normal(size=(3, 7, 4)), 0.2
        if case == "single":
            return ACTIVE, 0.2
        if case == "hinge_at_zero":
            return np.stack([AT_ZERO, ACTIVE], axis=1), 0.25
        a, p = rng.normal(size=(2, 2, 6))
        return np.stack([a, p, p]), 0.2   # p == n

    @pytest.mark.parametrize("case, values, grads", [
        ("batched",
         ["0x1.d7b4a0c8edad6p-3", "0x1.4bc291a1f311cp+0",
          "0x1.f6f11d7a75889p-2", "0x0.0p+0", "0x1.9f385ed631a68p+0",
          "0x1.1cd5e19ae155ap+0", "0x0.0p+0"],
         "d1f185a4967b968422b963e3a98c40f6f3f23e12e645f0276b3d97b948710d83"),
        ("single", ["0x1.9a97e1e1a86d0p+0"],
         "c19cccec555f19a029394fd259c0e4eb255197d8a5dfb0ad0923b5471e98f379"),
        ("hinge_at_zero", ["0x0.0p+0", "0x1.a764aeae7539dp+0"],
         "0a234dbb83a3a276d5ebb5ee8496d6cc13d4a948b1b0f5df4f2b289b43fdb1a3"),
        ("p_equals_n", ["0x1.999999999999ap-3", "0x1.999999999999ap-3"],
         "8791add6eacf55110df56062ffc136842504184ff62440ae255321d54b547cc1"),
    ])
    def test_bits_are_pinned(self, case, values, grads):
        roles, margin = self.roles(case)
        leaves = [parameter(r) for r in roles]
        out = triplet_loss(*leaves, margin)
        assert [float(v).hex() for v in out.data.ravel()] == values
        g = np.random.default_rng(30).normal(size=out.shape)
        (out * Tensor(g)).sum().backward()
        assert hashlib.sha256(b"".join(
            t.grad.tobytes() for t in leaves)).hexdigest() == grads


class TestSimilarityLosses:
    def test_vse_degenerate_texts_give_margin(self):
        rng = np.random.default_rng(1)
        imgs = rng.normal(size=(3, 4))
        t = rng.normal(size=4)
        val = vse(imgs, [t, t, t], 0.2)
        assert val == pytest.approx(0.2, abs=1e-12)

    def test_vse_matches_six_term_oracle(self):
        rng = np.random.default_rng(2)
        iu, ip, in_ = rng.normal(size=(3, 6))
        tu, tp, tn = rng.normal(size=(3, 6))
        m = 0.2

        def term(img, own, other):
            return max(0.0, cos(img, other) - cos(img, own) + m)

        expected = (term(iu, tu, tp) + term(iu, tu, tn)
                    + term(ip, tp, tu) + term(ip, tp, tn)
                    + term(in_, tn, tu) + term(in_, tn, tp)) / 6.0
        got = vse([iu, ip, in_], [tu, tp, tn], m)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_vsim_symmetric_in_same_type_pair(self):
        rng = np.random.default_rng(3)
        u, p, n = rng.normal(size=(3, 5))
        a = vsim(u, p, n, 0.2)
        b = vsim(u, n, p, 0.2)
        assert a == pytest.approx(b, abs=1e-12)

    def test_vsim_matches_two_term_oracle(self):
        rng = np.random.default_rng(4)
        u, p, n = rng.normal(size=(3, 5))
        m = 0.2
        expected = (max(0.0, cos(p, u) - cos(p, n) + m)
                    + max(0.0, cos(n, u) - cos(n, p) + m)) / 2.0
        got = vsim(u, p, n, m)
        assert got == pytest.approx(expected, abs=1e-12)


class TestLossComp:
    def test_identity_space_reduces_to_plain_triplet(self):
        rng = np.random.default_rng(6)
        u, p, n = rng.normal(size=(3, 4))
        space = Tensor(np.eye(4))
        got = loss_comp(Tensor(u), Tensor(p), Tensor(n), space, 0.2).item()
        assert got == pytest.approx(tl(u, p, n), abs=1e-12)

    def test_orthogonal_space_preserves_cosines(self):
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        u, p, n = rng.normal(size=(3, 4))
        got = loss_comp(Tensor(u), Tensor(p), Tensor(n), Tensor(q), 0.2).item()
        assert got == pytest.approx(tl(u, p, n), abs=1e-12)

    def test_general_space_matches_composition_oracle(self):
        rng = np.random.default_rng(8)
        space = rng.normal(size=(3, 5))
        u, p, n = rng.normal(size=(3, 5))
        expected = max(0.0, cos(space @ u, space @ n)
                       - cos(space @ u, space @ p) + 0.2)
        got = loss_comp(Tensor(u), Tensor(p), Tensor(n),
                        Tensor(space), 0.2).item()
        assert got == pytest.approx(expected, abs=1e-12)


class TestTotalLoss:
    def test_zero_lambdas_keep_only_comp(self):
        w = LossWeights(lambda_vsim=0.0, lambda_tsim=0.0, lambda_vse=0.0)
        parts = [Tensor(np.array(v)) for v in (0.3, 9.0, 9.0, 9.0)]
        assert total_loss(*parts, w).item() == pytest.approx(0.3, abs=1e-15)

    def test_default_weights_on_unit_terms(self):
        parts = [Tensor(np.array(1.0))] * 4
        got = total_loss(*parts, LossWeights()).item()
        assert got == pytest.approx(1.0 + 5e-5 + 5e-5 + 5e-3, abs=1e-15)

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError):
            LossWeights(margin=0.0)
        with pytest.raises(ValueError):
            LossWeights(lambda_vse=-1.0)

    @pytest.mark.parametrize("field, value", [
        ("margin", float("nan")), ("margin", float("inf")),
        ("lambda_vse", float("inf")), ("lambda_vse", float("nan")),
        ("lambda_vsim", float("nan")), ("lambda_tsim", float("-inf")),
    ])
    def test_non_finite_weights_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be .*finite"):
            LossWeights(**{field: value})


def make_model(fusion="baseline", pairs=(("tops", "shoes"),), seed=0):
    dims = ModelDims(d_g=6, d_c=5, h=4, hops=2, mfb_factor=2,
                     region_dim=3, word_dim=4)
    return init_model(fusion, dims, set(pairs), seed=seed)


def make_item(rng, item_id, type_name, type_index):
    return Item(id=item_id, type=ItemType(type_name, type_index),
                regions=rng.normal(size=(2, 3)), words=rng.normal(size=(3, 4)),
                description="desc")


class TestPairScore:
    def test_self_score_is_one(self):
        rng = np.random.default_rng(9)
        model = make_model(pairs={("tops", "tops")})
        item = make_item(rng, "a", "tops", 0)
        assert pair_score(model, item, item) == pytest.approx(1.0, abs=1e-12)

    def test_score_is_symmetric(self):
        rng = np.random.default_rng(10)
        model = make_model()
        a = make_item(rng, "a", "tops", 0)
        b = make_item(rng, "b", "shoes", 1)
        assert pair_score(model, a, b) == pair_score(model, b, a)

    def test_baseline_score_matches_pipeline_oracle(self):
        rng = np.random.default_rng(11)
        model = make_model()
        a = make_item(rng, "a", "tops", 0)
        b = make_item(rng, "b", "shoes", 1)
        w_img = model.projector.w_img.data
        space = model.spaces[("shoes", "tops")].data
        pa = space @ (a.regions @ w_img.T).mean(axis=0)
        pb = space @ (b.regions @ w_img.T).mean(axis=0)
        assert pair_score(model, a, b) == pytest.approx(cos(pa, pb), abs=1e-12)

    def test_unseen_pair_raises(self):
        rng = np.random.default_rng(12)
        model = make_model()
        a = make_item(rng, "a", "tops", 0)
        c = make_item(rng, "c", "hats", 2)
        with pytest.raises(UnseenTypePairError):
            pair_score(model, a, c)

    @pytest.mark.parametrize("fusion", FUSION_KINDS)
    def test_same_type_score_is_exactly_symmetric(self, fusion):
        """Both orders fuse the pair in one (type, id) order, so the two
        scores are equal bit for bit, whatever the BLAS kernel."""
        rng = np.random.default_rng(13)
        model = make_model(fusion, pairs={("tops", "tops")})
        a = make_item(rng, "a", "tops", 0)
        b = make_item(rng, "b", "tops", 0)
        assert pair_score(model, a, b) == pair_score(model, b, a)

    def test_undescribed_item_raises_domain_error(self):
        rng = np.random.default_rng(14)
        model = make_model()
        a = make_item(rng, "a", "tops", 0)
        b = Item(id="b", type=ItemType("shoes", 1),
                 regions=rng.normal(size=(2, 3)), words=np.zeros((0, 4)))
        for first, second in ((a, b), (b, a)):
            with pytest.raises(DomainError, match="described"):
                pair_score(model, first, second)

    def test_undescribed_item_is_named_before_the_type_pair(self):
        """An untrained type pair with an undescribed item reports the
        missing description, whichever order the items come in."""
        rng = np.random.default_rng(16)
        model = make_model()
        a = make_item(rng, "a", "tops", 0)
        c = Item(id="c", type=ItemType("hats", 2),
                 regions=rng.normal(size=(2, 3)), words=np.zeros((0, 4)))
        for first, second in ((a, c), (c, a)):
            with pytest.raises(DomainError,
                               match="item 'c' has no description; "
                                     "pair_score needs two described items"):
                pair_score(model, first, second)

    @pytest.mark.parametrize("field, shape", [("regions", (3, 3)),
                                              ("words", (2, 4))])
    def test_unequal_row_counts_raise_dimension_error(self, field, shape):
        rng = np.random.default_rng(15)
        model = make_model()
        a = make_item(rng, "a", "tops", 0)
        b = make_item(rng, "b", "shoes", 1)
        setattr(b, field, rng.normal(size=shape))
        with pytest.raises(DimensionError, match="word count"):
            pair_score(model, a, b)


PLAN_SPEC = SyntheticSpec(num_types=4, num_styles=3, train_outfits=4,
                         valid_outfits=0, fc_questions=20, fitb_questions=10,
                         outfit_size=3)


class TestPlanPairs:
    def test_groups_match_a_per_pair_canonical_pair_loop(self):
        """Each trained type pair's group holds the positions of its pairs,
        ascending, in the first-seen order of a per-pair `canonical_pair`
        loop; an untrained type pair has no group."""
        ds = generate_synthetic(PLAN_SPEC, seed=2)
        pairs = [p for q in ds.fc_questions for p in combinations(q.items, 2)]
        want: dict = {}
        for k, (a, b) in enumerate(pairs):
            want.setdefault(canonical_pair(ds.items[a].type.name,
                                           ds.items[b].type.name),
                            []).append(k)
        trained = set(list(want)[::2])
        plan = plan_pairs(ds, pairs, trained)
        ids = [ds.ids[r] for r in plan.rows]
        assert ids == list(dict.fromkeys(i for p in pairs for i in p))
        assert plan.size == len(pairs)
        assert [g[0] for g in plan.groups] == [p for p in want if p in trained]
        for pair, positions, rows, left, right in plan.groups:
            assert positions.tolist() == want[pair]
            assert (np.diff(positions) > 0).all()
            assert [(ids[rows[i]], ids[rows[j]])
                    for i, j in zip(left, right)] == [pairs[k]
                                                      for k in positions]

    def test_no_pairs_give_an_empty_plan(self):
        ds = generate_synthetic(PLAN_SPEC, seed=2)
        plan = plan_pairs(ds, [], ds.trained_type_pairs())
        assert (plan.rows.tolist(), plan.size, plan.groups) == ([], 0, [])


class TestTrainingLoss:
    def items(self, rng, n):
        return rng.normal(size=(n, 2, 3)), rng.normal(size=(n, 3, 4))

    @pytest.mark.parametrize("row", [5, -1], ids=["past_end", "negative"])
    def test_item_row_outside_batch_rejected(self, row):
        model = make_model(pairs={("tops", "shoes"), ("tops", "hats")})
        regions, words = self.items(np.random.default_rng(13), 5)
        groups = {("shoes", "tops"): np.array([[0, 1], [1, 2], [2, 3]]),
                  ("hats", "tops"): np.array([[0], [4], [row]])}
        with pytest.raises(DomainError, match="outside the batch's 5 items"):
            training_loss(model, regions, words, groups, LossWeights())

    def test_unequal_item_counts_rejected(self):
        model = make_model()
        rng = np.random.default_rng(13)
        regions, words = self.items(rng, 3)[0], self.items(rng, 2)[1]
        groups = {("shoes", "tops"): np.array([[0], [1], [2]])}
        with pytest.raises(DimensionError, match="3 items but words hold 2"):
            training_loss(model, regions, words, groups, LossWeights())

    def test_empty_batch_rejected(self):
        model = make_model()
        regions, words = self.items(np.random.default_rng(13), 3)
        with pytest.raises(DomainError, match="at least one triplet"):
            training_loss(model, regions, words, {}, LossWeights())

    @pytest.mark.parametrize("group", [
        np.array([0, 1, 2]), np.array([[0, 1], [1, 2]]),
        np.array([[0.0], [1.0], [2.0]]),
    ], ids=["one_dim", "two_roles", "float_rows"])
    def test_malformed_pair_group_rejected(self, group):
        model = make_model()
        regions, words = self.items(np.random.default_rng(13), 3)
        with pytest.raises(DimensionError, match="pair groups must"):
            training_loss(model, regions, words, {("shoes", "tops"): group},
                          LossWeights())

    def test_graph_size_does_not_grow_with_type_pairs(self):
        pairs = [("tops", "shoes"), ("tops", "hats"), ("shoes", "hats")]
        model = make_model("stacked", pairs=pairs)
        regions, words = self.items(np.random.default_rng(15), 8)
        rows = np.array([[0, 1, 2, 3, 4, 5], [1, 2, 3, 4, 5, 6],
                         [7, 7, 0, 1, 2, 3]])
        keys = sorted(model.spaces)
        one = {keys[0]: rows}
        three = {keys[0]: rows[:, [4]], keys[1]: rows[:, [0, 5]],
                 keys[2]: rows[:, [1, 2, 3]]}
        counts = []
        for groups in (one, three):
            loss = training_loss(model, regions, words, groups, LossWeights())
            nodes = graph_nodes(loss)
            counts.append((sum(1 for n in nodes if n._parents),
                           sum(1 for n in nodes if n.requires_grad
                               and not n._parents)))
        (ops_one, leaves_one), (ops_three, leaves_three) = counts
        assert ops_one == ops_three
        assert leaves_three == leaves_one + 2   # the two extra spaces

    @pytest.mark.parametrize("fusion, bound", [
        ("baseline", 14), ("dot_product", 22), ("stacked", 47),
        ("coattention", 64)])
    def test_graph_node_count_is_bounded(self, fusion, bound):
        """The four loss terms and their weighted total are one `loss_head`
        node and each mean pooling is one `pool_rows` node; a `role_cosines`
        table and a one-node margin hinge per term, with the means and the
        total op by op, took 32 more, the op-by-op hinge chains 44 more
        again, and one node chain per cosine 151 more again."""
        regions, words = self.items(np.random.default_rng(16), 5)
        groups = {("shoes", "tops"): np.array([[0, 1, 2], [1, 2, 3],
                                               [2, 3, 4]])}
        loss = training_loss(make_model(fusion), regions, words, groups,
                             LossWeights())
        assert len(graph_nodes(loss)) <= bound

    def test_matches_per_triplet_oracle(self):
        rng = np.random.default_rng(14)
        model = make_model("coattention",
                           pairs={("tops", "shoes"), ("tops", "hats")})
        regions, words = self.items(rng, 5)
        # item 0 is an anchor in both pairs and a positive; triplet (0, 1, 2)
        # is trained twice
        groups = {("shoes", "tops"): np.array([[0, 1, 0], [1, 0, 1],
                                               [2, 3, 2]]),
                  ("hats", "tops"): np.array([[0], [4], [3]])}
        w = LossWeights()
        terms = {}
        got = training_loss(model, regions, words, groups, w, terms_out=terms)

        comp = v_sim = t_sim = v_se = 0.0
        with no_grad():
            # recompute per triplet with the single-triplet loss terms
            for pair, rows in groups.items():
                for triplet in rows.T:
                    feats = [item_features(model, regions[i], words[i])
                             for i in triplet]
                    reps, imgs, txts = zip(*feats)
                    imgs = [t.data for t in imgs]
                    txts = [t.data for t in txts]
                    comp += loss_comp(*reps, model.space(*pair),
                                      w.margin).item()
                    v_sim += vsim(*imgs, w.margin)
                    t_sim += vsim(*txts, w.margin)
                    v_se += vse(imgs, txts, w.margin)
        comp, v_sim, t_sim, v_se = (v / 4.0 for v in (comp, v_sim, t_sim, v_se))
        expected = comp + w.lambda_vsim * v_sim + w.lambda_tsim * t_sim \
            + w.lambda_vse * v_se
        assert got.item() == pytest.approx(expected, abs=1e-10)
        assert terms["comp"] == pytest.approx(comp, abs=1e-10)
        assert terms["vse"] == pytest.approx(v_se, abs=1e-10)


def graph_nodes(root):
    """Every node reachable from `root` through recorded parents."""
    seen, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


class TestGroupedProjection:
    """`grouped_projection` against a loop of single-space `loss_comp`s:
    three spaces with unequal column ranges of a (3, B, d) role stack."""

    B, D, D_C = 5, 4, 3
    SIZES = [3, 0, 2]   # an empty range: a space with no triplets

    def operands(self, seed):
        rng = np.random.default_rng(seed)
        reps = parameter(rng.normal(size=(3, self.B, self.D)))
        spaces = [parameter(rng.normal(size=(self.D_C, self.D)))
                  for _ in self.SIZES]
        return reps, spaces

    def test_matches_per_group_loss_comp(self):
        reps, spaces = self.operands(20)
        proj = grouped_projection(reps, spaces, self.SIZES)
        got = triplet_loss(*map(Tensor, proj.data), 0.2).data
        ends = np.cumsum(self.SIZES)
        for n, end, space in zip(self.SIZES, ends, spaces):
            cols = slice(end - n, end)
            roles = [Tensor(reps.data[r, cols]) for r in range(3)]
            want = loss_comp(*roles, space, 0.2).data
            np.testing.assert_allclose(got[cols], want, rtol=0, atol=1e-12)

    def test_gradients_match_finite_differences(self):
        reps, spaces = self.operands(21)
        weights = np.random.default_rng(22).normal(size=(3, self.B, self.D_C))

        def loss():
            proj = grouped_projection(reps, spaces, self.SIZES)
            return (proj * proj * weights).sum()

        params = [("reps", reps)] + [(f"space{k}", w)
                                     for k, w in enumerate(spaces)]
        report = grad_check(loss, params, h_scale=1e-3, rel_tol=1e-4)
        assert report.passed, str(report)

    @pytest.mark.parametrize("x_shape, w_shapes", [
        ((3, 2), [(2, 2)]), ((1, 3, 3, 2), [(2, 2)]),
        ((3, 3, 2), [(2, 2), (3, 2)]), ((3, 3, 2), [(2, 2), (2, 3)]),
    ], ids=["2d_x", "4d_x", "weights_differ_out", "weights_differ_in"])
    def test_malformed_stack_or_weights_rejected(self, x_shape, w_shapes):
        x = Tensor(np.ones(x_shape))
        spaces = [Tensor(np.ones(shape)) for shape in w_shapes]
        sizes = [x_shape[1] - len(spaces) + 1] + [1] * (len(spaces) - 1)
        with pytest.raises(DimensionError, match="grouped_projection"):
            grouped_projection(x, spaces, sizes)

    @pytest.mark.parametrize("sizes", [[1, 1], [2, 2], [4, -1]],
                             ids=["short", "long", "negative"])
    def test_column_counts_must_cover_the_batch(self, sizes):
        x = Tensor(np.ones((3, 3, 2)))
        spaces = [Tensor(np.eye(2)), Tensor(np.eye(2))]
        with pytest.raises(DomainError, match="column counts"):
            grouped_projection(x, spaces, sizes)
