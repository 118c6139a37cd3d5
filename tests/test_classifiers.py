"""Classifier tests: label order, CNN wrapper, PCA/LDA with a high-precision
Bayes oracle."""

import dataclasses

import mpmath
import numpy as np
import pytest

from emonet import classifiers, nn
from emonet.classifiers import (LABELS, EmotionScores, EmptyClass,
                                ClassTooSmall, DegenerateData, LdaModel)
from emonet.glyphs import make_glyph_dataset, split_dataset


def bayes_oracle(model, z):
    """Direct high-precision evaluation of pi_k f_k(z) / sum_l pi_l f_l(z)."""
    mpmath.mp.dps = 60
    d = model.covariance.shape[0]
    cov = mpmath.matrix(model.covariance.tolist())
    inv = cov ** -1
    det = mpmath.det(cov)
    norm = 1 / mpmath.sqrt((2 * mpmath.pi) ** d * det)
    weights = []
    for k in range(len(model.priors)):
        diff = mpmath.matrix([float(z[i] - model.class_means[k, i]) for i in range(d)])
        quad = (diff.T * inv * diff)[0, 0]
        weights.append(mpmath.mpf(float(model.priors[k])) * norm * mpmath.exp(-quad / 2))
    total = sum(weights)
    return np.array([float(w / total) for w in weights])


def random_lda_model(rng, k=4, d=3):
    means = rng.standard_normal((k, d)) * 2.0
    m = rng.standard_normal((d, d))
    cov = m @ m.T + 0.5 * np.eye(d)
    priors = rng.random(k) + 0.1
    priors /= priors.sum()
    return LdaModel(pca_mean=np.zeros(1), pca_basis=np.zeros((1, 1)),
                    class_means=means, covariance=cov, priors=priors)


def noisy_glyph_lda():
    """An 8x8 PCA+LDA model that misclassifies some of its own samples."""
    x, y = make_glyph_dataset(n_per_class=10, side=8, seed=3, noise_sigma=0.3)
    return classifiers.lda_train(x, y), x, y


class TestLabels:
    def test_fixed_order(self):
        assert LABELS == ("angry", "disgust", "scared", "happy",
                          "sad", "surprised", "neutral")

    def test_scores_argmax_tie_breaks_low(self):
        probs = np.full(7, 1 / 7)
        assert EmotionScores(probs=probs).argmax == 0

    def test_scores_shape_checked(self):
        with pytest.raises(ValueError):
            EmotionScores(probs=np.zeros(6))


class TestCnnWrapper:
    def test_zero_weight_model_uniform(self):
        m = nn.build_model(8, [nn.LayerSpec("dense", width=7),
                               nn.LayerSpec("softmax")], seed=0)
        for p in m.params:
            for key in p:
                p[key] = np.zeros_like(p[key])
        scores = classifiers.cnn_predict(m, np.zeros((8, 8), dtype=np.float32))
        np.testing.assert_allclose(scores.probs, 1 / 7, atol=1e-9)

    def test_scores_sum_to_one(self):
        m = nn.build_model(8, [nn.LayerSpec("dense", width=7),
                               nn.LayerSpec("softmax")], seed=1)
        rng = np.random.default_rng(0)
        for _ in range(10):
            s = classifiers.cnn_predict(m, rng.random((8, 8)).astype(np.float32))
            assert abs(s.probs.sum() - 1.0) < 1e-9

    def test_predict_proba_rows_equal_one_sample_predict_proba(self):
        m = nn.build_model(8, [nn.LayerSpec("conv", kernel_size=3, filters=2),
                               nn.LayerSpec("sigmoid"), nn.LayerSpec("maxpool"),
                               nn.LayerSpec("dense", width=7),
                               nn.LayerSpec("softmax")], seed=3)
        x = np.random.default_rng(5).random((9, 8, 8)).astype(np.float32)
        probs = m.predict_proba(x)
        assert probs.shape == (9, 7)
        for row, sample in zip(probs, x):
            np.testing.assert_array_equal(row, m.predict_proba(sample)[0])

    def test_train_missing_class_rejected(self):
        x = np.zeros((10, 8, 8), dtype=np.float32)
        y = np.zeros(10, dtype=np.int64)  # only class 0 present
        with pytest.raises(EmptyClass) as exc:
            classifiers.cnn_train(x, y, epochs=1)
        assert "disgust" in str(exc.value)

    def test_train_epochs_validated(self):
        x = np.zeros((7, 8, 8), dtype=np.float32)
        y = np.arange(7, dtype=np.int64)
        with pytest.raises(ValueError):
            classifiers.cnn_train(x, y, epochs=0)

    def test_train_lr_zero_keeps_init(self):
        rng = np.random.default_rng(3)
        x = rng.random((14, 12, 12)).astype(np.float32)
        y = np.tile(np.arange(7), 2).astype(np.int64)
        layers = [nn.LayerSpec("dense", width=7), nn.LayerSpec("softmax")]
        m, _ = classifiers.cnn_train(x, y, epochs=1, lr=0.0, seed=5, layers=layers)
        init = nn.build_model(12, layers, seed=5)
        for pa, pb in zip(m.params, init.params):
            for key in pa:
                np.testing.assert_array_equal(pa[key], pb[key])

    def test_train_deterministic_per_seed(self):
        rng = np.random.default_rng(4)
        x = rng.random((21, 10, 10)).astype(np.float32)
        y = np.tile(np.arange(7), 3).astype(np.int64)
        layers = [nn.LayerSpec("conv", kernel_size=3, filters=2),
                  nn.LayerSpec("sigmoid"), nn.LayerSpec("dense", width=7),
                  nn.LayerSpec("softmax")]
        m1, h1 = classifiers.cnn_train(x, y, epochs=3, seed=9, layers=layers)
        m2, h2 = classifiers.cnn_train(x, y, epochs=3, seed=9, layers=layers)
        assert [h.mean_loss for h in h1] == [h.mean_loss for h in h2]
        assert [h.train_accuracy for h in h1] == [h.train_accuracy for h in h2]
        for pa, pb in zip(m1.params, m2.params):
            for key in pa:
                np.testing.assert_array_equal(pa[key], pb[key])

    POOLED = [nn.LayerSpec("conv", kernel_size=3, filters=2), nn.LayerSpec("sigmoid"),
              nn.LayerSpec("maxpool"), nn.LayerSpec("dense", width=7), nn.LayerSpec("softmax")]

    def test_train_never_rescores_the_training_set(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("cnn_train ran a separate accuracy pass")

        monkeypatch.setattr(classifiers, "_batch_argmax", refuse)
        x = np.random.default_rng(5).random((21, 10, 10)).astype(np.float32)
        y = np.tile(np.arange(7), 3).astype(np.int64)
        _, history = classifiers.cnn_train(x, y, epochs=2, seed=5, layers=self.POOLED)
        assert all(0.0 <= h.train_accuracy <= 1.0 for h in history)

    @pytest.mark.parametrize("batch_size", [1, 3, 32])
    def test_train_accuracy_at_lr_zero_is_the_models_accuracy(self, batch_size):
        # 40 samples: batches of 3 and of 32 leave a partial last batch
        x = np.random.default_rng(5).random((40, 10, 10)).astype(np.float32)
        y = np.tile(np.arange(7), 6)[:40].astype(np.int64)
        m, history = classifiers.cnn_train(x, y, epochs=2, lr=0.0, seed=5,
                                           batch_size=batch_size, layers=self.POOLED)
        acc, confusion = classifiers.evaluate(m, x, y)
        assert np.count_nonzero(confusion.sum(axis=0)) > 1   # not all one label
        assert 0.0 < acc < 1.0
        assert [h.train_accuracy for h in history] == [acc, acc]

    def test_epoch_loss_is_the_mean_over_samples(self):
        # at lr 0 every batch scores the same model, so the epoch's loss is
        # that model's mean cross-entropy; 40 samples in batches of 32 leave
        # a last batch of 8, which weighs 8/40 of it, not half
        x = np.random.default_rng(6).random((40, 10, 10)).astype(np.float32)
        y = np.tile(np.arange(7), 6)[:40].astype(np.int64)
        m, history = classifiers.cnn_train(x, y, epochs=1, lr=0.0, seed=5,
                                           batch_size=32, layers=self.POOLED)
        p = m.predict_proba(x)[np.arange(len(y)), y]
        assert history[0].mean_loss == pytest.approx(float(-np.log(p).mean()), rel=1e-12)


class TestPca:
    def test_line_data_rank_one(self):
        rng = np.random.default_rng(0)
        t = rng.standard_normal(30)
        direction = np.array([3.0, 4.0]) / 5.0
        x = np.outer(t, direction)
        _, basis = classifiers.pca_fit(x, 1)
        cross = abs(float(basis[:, 0] @ direction))
        assert cross == pytest.approx(1.0, abs=1e-6)

    def test_complete_basis_zero_reconstruction_error(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((20, 5))
        mean, basis = classifiers.pca_fit(x, 5)
        z = (x - mean) @ basis
        back = z @ basis.T + mean
        np.testing.assert_allclose(back, x, atol=1e-6)

    def test_projected_variance_matches_2x2_closed_form(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((40, 2)) @ np.array([[2.0, 0.3], [0.3, 0.5]])
        mean, basis = classifiers.pca_fit(x, 2)
        xc = x - mean
        cov = xc.T @ xc / (len(x) - 1)
        tr = cov[0, 0] + cov[1, 1]
        det = cov[0, 0] * cov[1, 1] - cov[0, 1] ** 2
        disc = np.sqrt(tr * tr / 4 - det)
        expected = [tr / 2 + disc, tr / 2 - disc]  # descending
        proj_var = ((xc @ basis) ** 2).sum(axis=0) / (len(x) - 1)
        np.testing.assert_allclose(proj_var, expected, atol=1e-8)

    def test_basis_orthonormal(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((30, 6))
        _, basis = classifiers.pca_fit(x, 4)
        np.testing.assert_allclose(basis.T @ basis, np.eye(4), atol=1e-8)

    def test_degenerate_data_rejected(self):
        with pytest.raises(DegenerateData):
            classifiers.pca_fit(np.ones((5, 3)), 1)

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((25, 4))
        _, basis = classifiers.pca_fit(x, 3)
        for j in range(3):
            assert basis[np.argmax(np.abs(basis[:, j])), j] > 0


class TestLdaFit:
    def test_symmetric_clusters(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((50, 2)) * 0.1 + np.array([2.0, 0.0])
        b = -a
        z = np.vstack([a, b])
        y = np.array([0] * 50 + [1] * 50)
        means, _, priors = classifiers.lda_fit(z, y)
        np.testing.assert_allclose(means[0], -means[1], atol=1e-9)
        np.testing.assert_allclose(priors, [0.5, 0.5], atol=1e-12)

    def test_pooled_covariance_matches_summation_oracle(self):
        rng = np.random.default_rng(6)
        z = rng.standard_normal((60, 3))
        y = rng.integers(0, 3, size=60)
        y[:6] = [0, 0, 1, 1, 2, 2]  # guarantee 2 per class
        lam = 1e-4
        _, cov, _ = classifiers.lda_fit(z, y, lam=lam)
        # independent scalar-loop pooled covariance
        k = 3
        d = 3
        scatter = np.zeros((d, d))
        for c in range(k):
            zc = z[y == c]
            mu = zc.mean(axis=0)
            for row in zc:
                diff = row - mu
                for i in range(d):
                    for j in range(d):
                        scatter[i, j] += diff[i] * diff[j]
        expected = scatter / (len(z) - k) + lam * np.eye(d)
        np.testing.assert_allclose(cov, expected, atol=1e-10)

    def test_large_lambda_nearest_mean_limit(self):
        rng = np.random.default_rng(7)
        z = np.vstack([rng.standard_normal((20, 2)) + [5, 0],
                       rng.standard_normal((20, 2)) - [5, 0]])
        y = np.array([0] * 20 + [1] * 20)
        means, cov, priors = classifiers.lda_fit(z, y, lam=1e6)
        model = LdaModel(pca_mean=np.zeros(1), pca_basis=np.zeros((1, 1)),
                         class_means=means, covariance=cov, priors=priors)
        post = classifiers.lda_posterior(model, np.array([4.0, 0.0]))
        assert post[0] > 0.5  # closer to class 0 mean

    def test_class_too_small(self):
        z = np.random.default_rng(8).standard_normal((5, 2))
        y = np.array([0, 0, 0, 0, 1])
        with pytest.raises(ClassTooSmall):
            classifiers.lda_fit(z, y)


class TestSmallTrainingSet:
    def test_lda_trains_and_scores_on_four_glyphs_per_label(self):
        # 28 samples: the PCA keeps 27 dimensions, one fewer than the samples
        x, y = make_glyph_dataset(n_per_class=4, seed=7)
        model = classifiers.lda_train(x, y)
        assert model.pca_basis.shape == (28 * 28, 27)
        acc, confusion = classifiers.evaluate(model, x, y)
        assert confusion.sum() == len(y) and acc > 0.5

    def test_split_with_an_empty_side_indexes_nothing(self):
        x, y = make_glyph_dataset(n_per_class=2, side=8)
        xtr, ytr, xte, yte = split_dataset(x, y)
        assert (xtr.shape, ytr.shape) == ((14, 8, 8), (14,))
        assert (xte.shape, yte.shape) == ((0, 8, 8), (0,))


class TestLdaPosterior:
    def test_equidistant_equal_priors(self):
        model = LdaModel(pca_mean=np.zeros(1), pca_basis=np.zeros((1, 1)),
                         class_means=np.array([[1.0, 0.0], [-1.0, 0.0]]),
                         covariance=np.eye(2), priors=np.array([0.5, 0.5]))
        post = classifiers.lda_posterior(model, np.array([0.0, 3.0]))
        np.testing.assert_allclose(post, [0.5, 0.5], atol=1e-12)

    def test_dominance_at_class_mean(self):
        model = LdaModel(pca_mean=np.zeros(1), pca_basis=np.zeros((1, 1)),
                         class_means=np.array([[10.0, 0.0], [-10.0, 0.0]]),
                         covariance=np.eye(2), priors=np.array([0.5, 0.5]))
        post = classifiers.lda_posterior(model, np.array([10.0, 0.0]))
        assert post[0] > 0.99

    def test_matches_bayes_oracle_1000_draws(self):
        rng = np.random.default_rng(9)
        for trial in range(1000):
            model = random_lda_model(rng)
            z = rng.standard_normal(3) * 3.0
            post = classifiers.lda_posterior(model, z)
            assert abs(post.sum() - 1.0) < 1e-12
            np.testing.assert_allclose(post, bayes_oracle(model, z), atol=1e-10)

    def test_prior_scaling_invariance(self):
        rng = np.random.default_rng(10)
        model = random_lda_model(rng)
        z = rng.standard_normal(3)
        base = classifiers.lda_posterior(model, z)
        scaled = LdaModel(pca_mean=model.pca_mean, pca_basis=model.pca_basis,
                          class_means=model.class_means,
                          covariance=model.covariance,
                          priors=model.priors * 37.5)
        np.testing.assert_allclose(classifiers.lda_posterior(scaled, z),
                                   base, atol=1e-12)

    def test_no_underflow_far_from_means(self):
        model = LdaModel(pca_mean=np.zeros(1), pca_basis=np.zeros((1, 1)),
                         class_means=np.array([[0.0, 0.0], [1.0, 0.0]]),
                         covariance=np.eye(2) * 0.01, priors=np.array([0.5, 0.5]))
        post = classifiers.lda_posterior(model, np.array([1000.0, 1000.0]))
        assert np.all(np.isfinite(post)) and abs(post.sum() - 1.0) < 1e-12

    def test_predict_proba_rows_match_per_sample_posterior(self):
        model, x, _ = noisy_glyph_lda()
        z = (x.reshape(len(x), -1) - model.pca_mean) @ model.pca_basis
        probs = model.predict_proba(x)
        assert probs.shape == (len(x), len(LABELS))
        for row, zi in zip(probs, z):
            np.testing.assert_allclose(row, classifiers.lda_posterior(model, zi),
                                       rtol=0, atol=1e-15)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_batch_rows_are_byte_equal_to_samples_scored_alone(self):
        model, x, _ = noisy_glyph_lda()
        z = (x.reshape(len(x), -1) - model.pca_mean) @ model.pca_basis
        alone = [classifiers.lda_posterior(model, zi).tobytes() for zi in z]
        assert [row.tobytes() for row in model.predict_proba(x)] == alone
        stacked = classifiers.lda_posterior(model, z.reshape(7, 10, -1))
        assert [row.tobytes() for row in stacked.reshape(len(z), -1)] == alone

    def test_replaced_or_reassigned_model_scores_with_its_own_constants(self):
        """Each model's linear map is made at its first score and kept on it;
        a model made from it, or given new arrays, must not reuse it."""
        model, x, _ = noisy_glyph_lda()
        base = model.predict_proba(x)
        priors = np.arange(1.0, 8.0) / 28.0
        means = model.class_means[::-1].copy()
        variants = [dataclasses.replace(model, priors=priors),
                    dataclasses.replace(model, class_means=means)]
        reassigned = dataclasses.replace(model)
        reassigned.predict_proba(x)
        reassigned.priors = priors
        variants.append(reassigned)
        for variant in variants:
            fresh = LdaModel(pca_mean=variant.pca_mean, pca_basis=variant.pca_basis,
                             class_means=variant.class_means,
                             covariance=variant.covariance, priors=variant.priors)
            probs = variant.predict_proba(x)
            assert probs.tobytes() == fresh.predict_proba(x).tobytes()
            assert probs.tobytes() != base.tobytes()
        assert model.predict_proba(x).tobytes() == base.tobytes()

    def test_scored_model_refuses_an_in_place_edit(self):
        """A scored model keeps its linear map while its means, covariance
        and priors are the same arrays, so an in-place edit of one would
        score stale values: once scored, each raises ValueError instead."""
        model, x, _ = noisy_glyph_lda()
        base = model.predict_proba(x)
        for name in ("class_means", "covariance", "priors"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(model, name)[...] = 1.0 / 7
        assert model.predict_proba(x).tobytes() == base.tobytes()

    def test_sample_of_wrong_size_rejected(self):
        model, _, _ = noisy_glyph_lda()
        for shape in ((16, 16), (63,), (4, 8, 9)):  # 16x16 holds four 8x8 samples
            with pytest.raises(ValueError):
                classifiers.lda_predict(model, np.zeros(shape))


class TestEvaluate:
    def test_constant_predictor_balanced_set(self):
        m = nn.build_model(8, [nn.LayerSpec("dense", width=7),
                               nn.LayerSpec("softmax")], seed=0)
        for p in m.params:
            for key in p:
                p[key] = np.zeros_like(p[key])
        m.params[0]["b"][0] = 10.0  # always predicts class 0
        x = np.random.default_rng(0).random((70, 8, 8)).astype(np.float32)
        y = np.tile(np.arange(7), 10).astype(np.int64)
        acc, confusion = classifiers.evaluate(m, x, y)
        assert acc == pytest.approx(1 / 7)
        assert confusion.sum() == 70
        assert confusion[:, 0].sum() == 70

    def test_confusion_rows_are_true_counts(self):
        m = nn.build_model(8, [nn.LayerSpec("dense", width=7),
                               nn.LayerSpec("softmax")], seed=2)
        x = np.random.default_rng(1).random((21, 8, 8)).astype(np.float32)
        y = np.repeat(np.arange(7), 3).astype(np.int64)
        _, confusion = classifiers.evaluate(m, x, y)
        np.testing.assert_array_equal(confusion.sum(axis=1), np.full(7, 3))

    def test_lda_confusion_matches_per_sample_argmax(self):
        model, x, y = noisy_glyph_lda()
        expected = np.zeros((len(LABELS), len(LABELS)), dtype=np.int64)
        for sample, label in zip(x, y):
            z = (sample.reshape(-1).astype(np.float64) - model.pca_mean) @ model.pca_basis
            expected[label, np.argmax(classifiers.lda_posterior(model, z))] += 1
        acc, confusion = classifiers.evaluate(model, x, y)
        assert np.trace(expected) < len(y)  # the oracle sees some mistakes
        np.testing.assert_array_equal(confusion, expected)
        assert acc == np.trace(expected) / len(y)

    def test_empty_dataset_rejected(self):
        m = nn.build_model(8, [nn.LayerSpec("dense", width=7),
                               nn.LayerSpec("softmax")], seed=0)
        with pytest.raises(ValueError):
            classifiers.evaluate(m, np.zeros((0, 8, 8)), np.zeros(0, dtype=np.int64))


class TestBatchArgmax:
    def test_same_indices_at_chunk_sizes_1_32_256(self):
        x, y = make_glyph_dataset(n_per_class=40, seed=5)
        model = nn.build_model(x.shape[1], nn.emotion_layer_stack(), seed=7)
        rng = np.random.default_rng(0)
        for _ in range(15):
            idx = rng.choice(len(x), 32, replace=False)
            nn.model_backward_and_step(model, x[idx], y[idx], 0.1)
        by_chunk = [classifiers._batch_argmax(model, x, chunk=chunk) for chunk in (1, 32, 256)]
        assert len(set(by_chunk[0].tolist())) > 1      # the scores are not all one label
        for got in by_chunk[1:]:
            np.testing.assert_array_equal(got, by_chunk[0])
