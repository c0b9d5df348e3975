import warnings

import numpy as np
import pytest

from helpers import (fit_linear_probe_allocating, knn_readout_negated_product,
                     knn_readout_reference, linear_probe_reference)
from mmcl import config as cfgmod
from mmcl import fit_linear_probe, knn_readout, linear_probe, train
from mmcl.training import eval_embeddings, evaluation_split, held_out_accuracies


def brute_force_knn(train_emb, train_labels, test_emb, test_labels, k):
    """Independent reference: plain loops, cosine similarity, majority vote
    with summed-similarity tie break."""
    def cos(a, b):
        return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

    correct = 0
    for t, label in zip(test_emb, test_labels):
        sims = sorted(((cos(t, x), y) for x, y in zip(train_emb, train_labels)),
                      key=lambda p: -p[0])[:k]
        counts, sim_sums = {}, {}
        for s, y in sims:
            counts[y] = counts.get(y, 0) + 1
            sim_sums[y] = sim_sums.get(y, 0.0) + s
        best = max(counts.values())
        tied = [y for y, c in counts.items() if c == best]
        pred = max(tied, key=lambda y: sim_sums[y])
        correct += int(pred == label)
    return correct / len(test_emb)


class TestKnnReadout:
    def test_exact_match_wins_at_k1(self):
        train = np.array([[1.0, 0.0], [0.0, 1.0]])
        labels = np.array([3, 1])
        acc = knn_readout(train, labels, np.array([[0.0, 1.0]]), np.array([1]), k=1)
        assert acc == 1.0

    def test_antipodal_clusters(self):
        rng = np.random.default_rng(0)
        a = np.array([1.0, 0.0]) + 0.01 * rng.standard_normal((20, 2))
        b = np.array([-1.0, 0.0]) + 0.01 * rng.standard_normal((20, 2))
        train = np.concatenate([a, b])
        labels = np.array([0] * 20 + [1] * 20)
        acc = knn_readout(train, labels, train, labels, k=3)
        assert acc == 1.0

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("k", [1, 5, 17])
    def test_agrees_with_brute_force(self, seed, k):
        rng = np.random.default_rng(seed)
        train = rng.standard_normal((40, 6))
        test = rng.standard_normal((15, 6))
        train_labels = rng.integers(0, 3, 40)
        test_labels = rng.integers(0, 3, 15)
        fast = knn_readout(train, train_labels, test, test_labels, k=k)
        slow = brute_force_knn(train, train_labels, test, test_labels, k)
        assert fast == slow

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        train = rng.standard_normal((30, 5))
        test = rng.standard_normal((10, 5))
        yl = rng.integers(0, 2, 30)
        yt = rng.integers(0, 2, 10)
        base = knn_readout(train, yl, test, yt, k=7)
        assert knn_readout(train * 37.5, yl, test * 0.001, yt, k=7) == base

    def test_k_clipped_with_warning(self):
        train = np.eye(3)
        labels = np.array([0, 1, 2])
        with pytest.warns(UserWarning, match="clipp"):
            acc = knn_readout(train, labels, train, labels, k=100)
        assert 0.0 <= acc <= 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            knn_readout(np.zeros((0, 2)), np.zeros(0), np.ones((1, 2)), np.ones(1), k=1)

    @staticmethod
    def _accuracies(train, train_labels, test, test_labels, k, reference=knn_readout_reference):
        """``knn_readout``'s and ``reference``'s (by default the per-row
        loop's) accuracies, checking that each warns about clipping exactly
        when k exceeds the train set."""
        accs = []
        for readout in (knn_readout, reference):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                accs.append(readout(train, train_labels, test, test_labels, k))
            assert any("clipp" in str(w.message) for w in caught) == (k > len(train))
        return accs

    @pytest.mark.parametrize("k", [2, 4, 6, 16])
    def test_vote_matches_per_row_loop_on_integer_grid(self, k):
        # entries in {-1, 0, 1}: duplicate rows, symmetric rows and zero rows
        # give exact similarity ties, and an even k gives vote ties; k = 16
        # exceeds every train set and is clipped
        for seed in range(120):
            rng = np.random.default_rng(seed)
            n_train = int(rng.integers(4, 15))
            train = rng.integers(-1, 2, (n_train, 3)).astype(float)
            test = rng.integers(-1, 2, (9, 3)).astype(float)
            train_labels = rng.integers(0, 3, n_train)
            test_labels = rng.integers(0, 3, 9)
            fast, loop = self._accuracies(train, train_labels, test, test_labels, k)
            assert fast == loop, seed

    @pytest.mark.parametrize("k", [2, 4, 6, 16])
    def test_ties_match_brute_force_on_axis_grid(self, k):
        # train rows are m * (+-e_j), m in {1, 2, 4}, labelled by direction, so
        # every similarity tie is between rows of one label, and test rows
        # have distinct nonzero |coordinates|, so tied votes have distinct
        # similarity sums; all similarities are exact in both references
        dim, boundary_ties, vote_ties = 3, 0, 0
        for seed in range(120):
            rng = np.random.default_rng(seed)
            n_train = int(rng.integers(4, 15))
            direction = rng.integers(0, 2 * dim, n_train)
            train = np.zeros((n_train, dim))
            train[np.arange(n_train), direction % dim] = (
                np.where(direction < dim, 1.0, -1.0) * rng.choice([1.0, 2.0, 4.0], n_train))
            train_labels = rng.permutation(2 * dim)[direction]
            test = np.stack([rng.choice([-1.0, 1.0], dim) * rng.permutation(np.arange(1.0, 6.0))[:dim]
                             for _ in range(9)])
            test_labels = rng.integers(0, 2 * dim, 9)
            fast, loop = self._accuracies(train, train_labels, test, test_labels, k)
            assert fast == loop == brute_force_knn(train, train_labels, test, test_labels, k), seed
            sims = test @ (train / np.linalg.norm(train, axis=1, keepdims=True)).T
            for row in sims:
                order = np.argsort(-row, kind="stable")
                if k < n_train:
                    boundary_ties += row[order[k - 1]] == row[order[k]]
                votes = np.bincount(train_labels[order[:k]])
                vote_ties += np.count_nonzero(votes == votes.max()) > 1
        assert vote_ties > 100
        assert boundary_ties > 100 or k > 14

    @pytest.mark.parametrize("k", [1, 5, 200])
    def test_bit_identical_to_negated_product_on_random_inputs(self, k):
        # evaluation-sized sets (410 train rows of 64 features, as pgd_b32
        # evaluates) and small ones, some with fewer train rows than k
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n_train, n_test, d = (410, 102, 64) if seed < 4 else (int(rng.integers(3, 60)), 11, 5)
            train, test = rng.standard_normal((n_train, d)), rng.standard_normal((n_test, d))
            train_labels, test_labels = rng.integers(0, 4, n_train), rng.integers(0, 4, n_test)
            fast, ref = self._accuracies(train, train_labels, test, test_labels, k,
                                         knn_readout_negated_product)
            assert fast == ref, seed

    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_bit_identical_to_negated_product_on_integer_grid(self, k):
        # entries in {-1, 0, 1}: exact similarity ties at the k-th place,
        # similarities of exactly 0 and vote ties
        boundary_ties = 0
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n_train = int(rng.integers(4, 30))
            train = rng.integers(-1, 2, (n_train, 3)).astype(float)
            test = rng.integers(-1, 2, (9, 3)).astype(float)
            train_labels, test_labels = rng.integers(0, 3, n_train), rng.integers(0, 3, 9)
            fast, ref = self._accuracies(train, train_labels, test, test_labels, k,
                                         knn_readout_negated_product)
            assert fast == ref, seed
            if k < n_train:
                unit = train / np.maximum(np.linalg.norm(train, axis=1, keepdims=True), 1e-12)
                sims = -np.sort(-(test @ unit.T), axis=1)
                boundary_ties += np.count_nonzero(sims[:, k - 1] == sims[:, k])
        assert boundary_ties > 500

    @pytest.mark.parametrize("which", ["train", "test"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rows_rejected(self, which, value):
        rng = np.random.default_rng(6)
        sets = {"train": rng.standard_normal((20, 4)), "test": rng.standard_normal((8, 4))}
        sets[which][[2, 5], 1] = value
        with pytest.raises(ValueError, match=f"{which} embeddings have 2 of"):
            knn_readout(sets["train"], rng.integers(0, 2, 20), sets["test"], rng.integers(0, 2, 8), k=3)


class TestLinearProbe:
    def test_separable_reaches_perfect_accuracy(self):
        rng = np.random.default_rng(1)
        a = np.array([3.0, 0.0]) + 0.1 * rng.standard_normal((30, 2))
        b = np.array([-3.0, 0.0]) + 0.1 * rng.standard_normal((30, 2))
        X = np.concatenate([a, b])
        y = np.array([0] * 30 + [1] * 30)
        assert linear_probe(X, y, X, y, epochs=400, lr=0.5) == 1.0

    def test_random_labels_near_chance(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((400, 8))
        y = rng.integers(0, 2, 400)
        X_test = rng.standard_normal((200, 8))
        y_test = rng.integers(0, 2, 200)
        acc = linear_probe(X, y, X_test, y_test, epochs=300, lr=0.1)
        assert abs(acc - 0.5) <= 0.1

    def test_loss_decreases_monotonically_small_lr(self):
        # the training cross-entropy of the probe fitted for e epochs,
        # e = 0..200; e = 0 is the zero start, which a fit never returns
        rng = np.random.default_rng(3)
        X = rng.standard_normal((60, 4))
        y = rng.integers(0, 3, 60)
        losses = []
        for epochs in range(201):
            if epochs == 0:
                W, b = np.zeros((4, y.max() + 1)), np.zeros(y.max() + 1)
            else:
                W, b = fit_linear_probe(X, y, epochs=epochs, lr=0.01)
            logits = X @ W + b
            logits -= logits.max(axis=1, keepdims=True)
            log_probs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
            losses.append(-np.mean(log_probs[np.arange(len(y)), y]))
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
        assert losses[-1] < losses[0]

    def test_single_class_rejected(self):
        # whichever id the one class has
        for label in (0, 1):
            labels = np.full(3, label)
            with pytest.raises(ValueError, match="at least 2 classes, got 1"):
                linear_probe(np.eye(3), labels, np.eye(3), labels, epochs=500, lr=0.1)

    @pytest.mark.parametrize("epochs", [1, 500])
    @pytest.mark.parametrize("n,d,classes", [
        (60, 5, [0, 1]),
        (80, 6, [0, 1, 2, 3]),
        (150, 8, list(range(10))),
        (90, 6, [0, 1, 3]),  # class id 2 is absent but keeps its column
        (12, 30, [0, 1, 2]),  # fewer samples than dimensions
    ])
    def test_matches_sample_major_reference(self, n, d, classes, epochs):
        rng = np.random.default_rng(n + d)
        centers = 2.0 * rng.standard_normal((max(classes) + 1, d))
        y = rng.choice(classes, n)
        X = centers[y] + rng.standard_normal((n, d))
        X_test = rng.standard_normal((40, d)) + centers[rng.choice(classes, 40)]
        W, b = fit_linear_probe(X, y, epochs=epochs, lr=0.5)
        W_ref, b_ref = linear_probe_reference(X, y, epochs=epochs, lr=0.5)
        assert W.shape == (d, max(classes) + 1) and b.shape == (max(classes) + 1,)
        assert np.max(np.abs(W - W_ref)) <= 1e-12
        assert np.max(np.abs(b - b_ref)) <= 1e-12
        assert np.array_equal(np.argmax(X_test @ W + b, axis=1),
                              np.argmax(X_test @ W_ref + b_ref, axis=1))

    @pytest.mark.parametrize("d", [1, 8, 64])
    @pytest.mark.parametrize("n", [2, 37, 410, 1638])
    def test_bit_identical_to_allocating_steps(self, n, d):
        # 2-7 classes present and one id below the largest absent, whose
        # column is fitted from no sample
        rng = np.random.default_rng(100 * n + d)
        for present in range(2, 8):
            absent = int(rng.integers(0, present))
            ids = np.delete(np.arange(present + 1), absent)
            y = ids[rng.integers(0, present, n)]
            y[:2] = ids[[0, -1]]  # 2 classes and the largest id, also at n = 2
            X = 2.0 * rng.standard_normal((present + 1, d))[y] + rng.standard_normal((n, d))
            X_before = X.copy()
            for epochs in (1, 5, 60):
                for lr in (0.1, 0.5):
                    W, b = fit_linear_probe(X, y, epochs=epochs, lr=lr)
                    W_ref, b_ref = fit_linear_probe_allocating(X, y, epochs, lr)
                    assert W.shape == (d, present + 1)
                    assert np.array_equal(W, W_ref) and np.array_equal(b, b_ref), (present, epochs, lr)
            assert np.array_equal(X, X_before)

    @pytest.mark.parametrize("epochs,lr,message", [
        (0, 0.1, "epochs must be >= 1, got 0"), (-3, 0.1, "epochs must be >= 1, got -3"),
        (10, 0.0, "lr must be positive and finite, got 0.0"),
        (10, -0.5, "lr must be positive and finite, got -0.5"),
        (10, np.inf, "lr must be positive and finite, got inf"),
        (10, np.nan, "lr must be positive and finite, got nan")])
    def test_unusable_epochs_or_lr_rejected(self, epochs, lr, message):
        rng = np.random.default_rng(8)
        X, y = rng.standard_normal((20, 3)), rng.integers(0, 2, 20)
        with pytest.raises(ValueError, match=message):
            fit_linear_probe(X, y, epochs=epochs, lr=lr)
        with pytest.raises(ValueError, match=message):
            linear_probe(X, y, X, y, epochs=epochs, lr=lr)

    @pytest.mark.parametrize("which", ["train", "test"])
    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_non_finite_rows_rejected(self, which, value):
        rng = np.random.default_rng(7)
        sets = {"train": rng.standard_normal((20, 4)), "test": rng.standard_normal((8, 4))}
        sets[which][3] = value
        with pytest.raises(ValueError, match=f"{which} embeddings have 1 of"):
            linear_probe(sets["train"], rng.integers(0, 2, 20), sets["test"], rng.integers(0, 2, 8),
                         epochs=10, lr=0.1)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((50, 4))
        y = rng.integers(0, 2, 50)
        a = linear_probe(X, y, X, y, epochs=100, lr=0.1)
        b = linear_probe(X, y, X, y, epochs=100, lr=0.1)
        assert a == b


class TestHeldOutAccuracies:
    @pytest.mark.parametrize("features", ["backbone", "head"])
    def test_training_logs_the_reference_readouts(self, features):
        # a short seeded mmcl_pgd run at batch size 32 on the default blobs,
        # evaluated after each of 2 epochs
        cfg = cfgmod.default_config()
        cfgmod.apply_overrides(cfg, ["loss=mmcl_pgd", "batch_size=32", "seed=3", "data.seed=3",
                                     "epochs=2", "eval_every=1", f"eval_features={features}"])
        config, dataset = cfgmod.build_train_config(cfg), cfgmod.load_dataset(cfg)
        split = evaluation_split(config, dataset)
        state = train(config, dataset)
        accuracies = held_out_accuracies(config, state.params, dataset, split)

        train_idx, test_idx = split
        emb_train = eval_embeddings(state.params, dataset.samples[train_idx], features)
        emb_test = eval_embeddings(state.params, dataset.samples[test_idx], features)
        labels_train, labels_test = dataset.labels[train_idx], dataset.labels[test_idx]
        knn_ref = knn_readout_reference(emb_train, labels_train, emb_test, labels_test,
                                        config.eval_k)
        W, b = linear_probe_reference(emb_train, labels_train, config.probe_epochs, config.probe_lr)
        linear_ref = float(np.mean(np.argmax(emb_test @ W + b, axis=1) == labels_test))
        assert accuracies == (knn_ref, linear_ref)
        assert state.history[-1][4:6] == accuracies
