"""Model persistence tests: byte-identical round-trips and named failures."""

import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emonet import model_io, nn
from emonet.classifiers import cnn_predict, lda_predict, lda_train
from emonet.glyphs import make_glyph_dataset


@pytest.fixture(scope="module")
def cnn_model():
    layers = [
        nn.LayerSpec("conv", kernel_size=3, filters=2),
        nn.LayerSpec("sigmoid"),
        nn.LayerSpec("maxpool"),
        nn.LayerSpec("dense", width=7),
        nn.LayerSpec("softmax"),
    ]
    return nn.build_model(10, layers, seed=13)


@pytest.fixture(scope="module")
def lda_model():
    rng = np.random.default_rng(4)
    x = rng.random((7 * 12, 36)).astype(np.float32)
    y = np.repeat(np.arange(7), 12)
    return lda_train(x, y, d=5)


class TestCnnRoundTrip:
    def test_save_load_save_byte_identical(self, cnn_model):
        blob = model_io.save_model(cnn_model)
        again = model_io.save_model(model_io.load_model(blob))
        assert blob == again

    def test_predictions_bit_identical(self, cnn_model):
        rng = np.random.default_rng(8)
        x = rng.random((10, 10), dtype=np.float32)
        loaded = model_io.load_model(model_io.save_model(cnn_model))
        a = cnn_predict(cnn_model, x).probs
        b = cnn_predict(loaded, x).probs
        np.testing.assert_array_equal(a, b)

    def test_structure_survives(self, cnn_model):
        loaded = model_io.load_model(model_io.save_model(cnn_model))
        assert loaded.input_side == cnn_model.input_side
        assert loaded.seed == cnn_model.seed
        assert [s.kind for s in loaded.layers] == [s.kind for s in cnn_model.layers]
        for got, want in zip(loaded.params, cnn_model.params):
            assert sorted(got) == sorted(want)
            for key in got:
                np.testing.assert_array_equal(got[key], want[key])

    def test_layer_table_bytes(self, cnn_model):
        """The layer codes are part of the format: conv 0, maxpool 1, dense 2,
        sigmoid 3, softmax 4, whatever order nn lists the kinds in."""
        rows = [(0, 3, 2, 0), (3, 0, 0, 0), (1, 0, 0, 0), (2, 0, 0, 7), (4, 0, 0, 0)]
        table = struct.pack("<HBB", 10, 1, 5) + b"".join(
            struct.pack("<BHHH", *row) for row in rows)
        offset = struct.calcsize("<4sHBQ")
        assert model_io.save_model(cnn_model)[offset:offset + len(table)] == table

    def test_file_round_trip(self, cnn_model, tmp_path):
        path = tmp_path / "model.emn1"
        model_io.save_model_file(cnn_model, str(path))
        loaded = model_io.load_model_file(str(path))
        assert model_io.save_model(loaded) == model_io.save_model(cnn_model)
        assert not list(tmp_path.glob("*.tmp.*"))  # temp file was renamed away

    def test_failed_write_leaves_only_the_target(self, cnn_model, tmp_path):
        target = tmp_path / "model.emn1"
        target.mkdir()                   # the rename onto a directory fails
        with pytest.raises(IsADirectoryError):
            model_io.save_model_file(cnn_model, str(target))
        assert [p.name for p in tmp_path.iterdir()] == ["model.emn1"]
        assert target.is_dir() and not any(target.iterdir())


class TestLdaRoundTrip:
    def test_second_round_trip_is_idempotent(self, lda_model):
        blob1 = model_io.save_model(lda_model)
        m1 = model_io.load_model(blob1)
        blob2 = model_io.save_model(m1)
        assert blob1 == blob2
        # float32 quantization happened exactly once
        m2 = model_io.load_model(blob2)
        np.testing.assert_array_equal(m1.class_means, m2.class_means)

    def test_posteriors_match_after_reload(self, lda_model):
        rng = np.random.default_rng(9)
        loaded = model_io.load_model(model_io.save_model(lda_model))
        quantized = model_io.load_model(model_io.save_model(loaded))
        for _ in range(5):
            x = rng.random(36)
            np.testing.assert_array_equal(lda_predict(loaded, x).probs,
                                          lda_predict(quantized, x).probs)

    def test_input_side_survives(self):
        x, y = make_glyph_dataset(n_per_class=6, side=8, seed=2)
        model = lda_train(x, y)
        assert model.input_side == 8
        assert model_io.load_model(model_io.save_model(model)).input_side == 8

    def test_loaded_arrays_are_float64(self, lda_model):
        loaded = model_io.load_model(model_io.save_model(lda_model))
        for arr in (loaded.pca_mean, loaded.pca_basis, loaded.class_means,
                    loaded.covariance, loaded.priors):
            assert arr.dtype == np.float64


class TestFailures:
    def test_bad_magic(self, cnn_model):
        blob = bytearray(model_io.save_model(cnn_model))
        blob[0] ^= 0xFF
        with pytest.raises(model_io.BadMagic):
            model_io.load_model(bytes(blob))

    def test_version_unsupported(self, cnn_model):
        blob = bytearray(model_io.save_model(cnn_model))
        blob[4] = 99
        with pytest.raises(model_io.VersionUnsupported):
            model_io.load_model(bytes(blob))

    def test_truncated_payload(self, cnn_model):
        blob = model_io.save_model(cnn_model)
        with pytest.raises(model_io.TruncatedPayload):
            model_io.load_model(blob[:-4])

    def test_empty_input(self):
        with pytest.raises(model_io.TruncatedPayload):
            model_io.load_model(b"")

    def test_unknown_kind(self, cnn_model):
        blob = bytearray(model_io.save_model(cnn_model))
        blob[6] = 7  # kind byte
        with pytest.raises(model_io.ModelFileError):
            model_io.load_model(bytes(blob))

    def test_errors_are_model_file_errors(self):
        assert issubclass(model_io.BadMagic, model_io.ModelFileError)
        assert issubclass(model_io.TruncatedPayload, model_io.ModelFileError)
        assert issubclass(model_io.VersionUnsupported, model_io.ModelFileError)


def _lda_blob(*tensors) -> bytes:
    """An LDA file holding the given (shape, values) tensors, values all 0 when None."""
    out = [struct.pack("<4sHBQH", model_io.MAGIC, model_io.VERSION, 1, 0, len(tensors))]
    for shape, values in tensors:
        out.append(struct.pack(f"<B{len(shape)}I", len(shape), *shape))
        if values is None:
            values = np.zeros(shape)
        out.append(np.asarray(values, dtype="<f4").tobytes())
    return b"".join(out)


def _replaced(model, **fields) -> bytes:
    return model_io.save_model(dataclasses.replace(model, **fields))


def _lopsided(d: int) -> np.ndarray:
    """A singular d x d matrix whose lower triangle is positive-definite, so
    that a Cholesky factorization alone accepts it."""
    cov = np.eye(d)
    cov[1, 0], cov[0, 1] = 0.5, 2.0
    return cov


HOSTILE = {
    "rank_above_four": lambda cnn, lda: _lda_blob(((1,) * 181, [0.0])),
    "extents_overflow_int64": lambda cnn, lda: _lda_blob(((2**32 - 1,) * 4, [])),
    "four_lda_tensors": lambda cnn, lda: _lda_blob(
        ((4,), None), ((4, 2), None), ((7, 2), None), ((2, 2), np.eye(2))),
    "lda_shapes_disagree": lambda cnn, lda: _replaced(lda, class_means=lda.class_means[:, :3]),
    "lda_six_classes": lambda cnn, lda: _replaced(
        lda, class_means=lda.class_means[:6], priors=np.full(6, 1 / 6)),
    "lda_not_square": lambda cnn, lda: _replaced(
        lda, pca_mean=lda.pca_mean[:-1], pca_basis=lda.pca_basis[:-1]),
    "lda_negative_prior": lambda cnn, lda: _replaced(lda, priors=-lda.priors),
    "lda_nan_covariance": lambda cnn, lda: _replaced(lda, covariance=lda.covariance * np.nan),
    "lda_zero_covariance": lambda cnn, lda: _replaced(
        lda, covariance=np.zeros_like(lda.covariance)),
    "lda_asymmetric_covariance": lambda cnn, lda: _replaced(
        lda, covariance=_lopsided(len(lda.covariance))),
    "cnn_inf_weight": lambda cnn, lda: _replaced(
        cnn, params=[{k: v + np.inf for k, v in p.items()} for p in cnn.params]),
    "cnn_kernel_size_disagrees": lambda cnn, lda: _replaced(
        cnn, layers=[nn.LayerSpec("conv", kernel_size=5, filters=2)] + cnn.layers[1:]),
    "cnn_channels_disagree": lambda cnn, lda: _replaced(cnn, channels=3),
    "cnn_three_channels": lambda cnn, lda: model_io.save_model(
        nn.build_model(cnn.input_side, cnn.layers, seed=cnn.seed, channels=3)),
    "cnn_zero_channels": lambda cnn, lda: _replaced(
        cnn, channels=0, params=[{**cnn.params[0], "k": np.zeros((3, 3, 0, 2))}] + cnn.params[1:]),
    "cnn_trailing_bytes": lambda cnn, lda: model_io.save_model(cnn) + b"\0",
    "cnn_three_classes": lambda cnn, lda: _replaced(
        cnn, layers=cnn.layers[:3] + [nn.LayerSpec("dense", width=3), nn.LayerSpec("softmax")],
        params=cnn.params[:3] + [{"w": cnn.params[3]["w"][:, :3], "b": cnn.params[3]["b"][:3]},
                                 {}]),
    "cnn_no_dense": lambda cnn, lda: _replaced(
        cnn, layers=[nn.LayerSpec("conv", kernel_size=1, filters=1)],
        params=[{"k": np.ones((1, 1, 1, 1)), "b": np.zeros(1)}]),
}


class TestHostileFiles:
    @pytest.mark.parametrize("case", sorted(HOSTILE))
    def test_rejected_at_load(self, case, cnn_model, lda_model):
        with pytest.raises(model_io.ModelFileError):
            model_io.load_model(HOSTILE[case](cnn_model, lda_model))

    @pytest.mark.parametrize("kind", ["cnn", "lda"])
    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_corrupt_blob_rejected_or_predicts_finite(self, kind, cnn_model, lda_model, data):
        """A flipped or truncated file raises ModelFileError or loads a usable model."""
        blob = model_io.save_model(cnn_model if kind == "cnn" else lda_model)
        if data.draw(st.booleans(), label="truncate"):
            blob = blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]
        else:
            flips = data.draw(st.lists(st.tuples(st.integers(0, len(blob) - 1),
                                                 st.integers(1, 255)),
                                       min_size=1, max_size=8), label="flips")
            mutable = bytearray(blob)
            for pos, mask in flips:
                mutable[pos] ^= mask
            blob = bytes(mutable)
        try:
            model = model_io.load_model(blob)
        except model_io.ModelFileError:
            return
        probs = model.predict_proba(np.zeros((model.input_side, model.input_side)))
        assert probs.shape == (1, 7)
        assert np.all(np.isfinite(probs))
