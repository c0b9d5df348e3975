import numpy as np
import pytest

from mmcl import fit_linear_probe, knn_readout, linear_probe


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
        # the training cross-entropy of the probe fitted for e epochs, e = 0..200
        rng = np.random.default_rng(3)
        X = rng.standard_normal((60, 4))
        y = rng.integers(0, 3, 60)
        losses = []
        for epochs in range(201):
            W, b = fit_linear_probe(X, y, epochs=epochs, lr=0.01)
            logits = X @ W + b
            logits -= logits.max(axis=1, keepdims=True)
            log_probs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
            losses.append(-np.mean(log_probs[np.arange(len(y)), y]))
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
        assert losses[-1] < losses[0]

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            linear_probe(np.eye(3), np.zeros(3, dtype=int), np.eye(3), np.zeros(3, dtype=int),
                         epochs=500, lr=0.1)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((50, 4))
        y = rng.integers(0, 2, 50)
        a = linear_probe(X, y, X, y, epochs=100, lr=0.1)
        b = linear_probe(X, y, X, y, epochs=100, lr=0.1)
        assert a == b
