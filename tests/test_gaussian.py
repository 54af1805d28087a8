import numpy as np
import pytest
from numpy.testing import assert_allclose

from lindiff.gaussian import (
    CovarianceModel,
    DataMoments,
    SpectrumSpec,
    empirical_moments,
    make_covariance,
    read_samples,
    sample_gaussian,
)


class TestMakeCovariance:
    def test_explicit_identity_spectrum(self):
        spec = SpectrumSpec("explicit", {"values": [1.0, 1.0, 1.0]})
        model = make_covariance(spec, 3, seed=0)
        assert_allclose(model.spectrum, [1.0, 1.0, 1.0])
        assert_allclose(model.basis.T @ model.basis, np.eye(3), atol=1e-12)

    def test_log_spaced_endpoints_and_ratios(self):
        spec = SpectrumSpec("log-spaced", {"lo": 1e-3, "hi": 10.0})
        model = make_covariance(spec, 32, seed=1)
        assert_allclose(model.spectrum[0], 10.0)
        assert_allclose(model.spectrum[-1], 1e-3)
        ratios = model.spectrum[:-1] / model.spectrum[1:]
        assert_allclose(ratios, ratios[0])

    def test_log_normal_normalized_mean(self):
        spec = SpectrumSpec("log-normal", normalize_mean_to_one=True)
        model = make_covariance(spec, 128, seed=2)
        assert abs(model.spectrum.mean() - 1.0) < 1e-12
        assert np.all(np.diff(model.spectrum) <= 0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            make_covariance(SpectrumSpec("log-spaced", {"lo": -1.0, "hi": 1.0}), 4, 0)
        with pytest.raises(ValueError):
            make_covariance(SpectrumSpec("explicit", {"values": [1.0, 0.0]}), 2, 0)
        with pytest.raises(ValueError):
            SpectrumSpec("no-such-kind")

    def test_sign_convention(self):
        model = make_covariance(SpectrumSpec("log-normal"), 12, seed=5)
        idx = np.argmax(np.abs(model.basis), axis=0)
        assert np.all(model.basis[idx, np.arange(12)] > 0)

    def test_seed_determinism(self):
        spec = SpectrumSpec("log-normal")
        a = make_covariance(spec, 8, seed=9)
        b = make_covariance(spec, 8, seed=9)
        assert np.array_equal(a.basis, b.basis)
        assert np.array_equal(a.spectrum, b.spectrum)

    def test_seed_is_any_nonnegative_integer(self):
        spec = SpectrumSpec("log-spaced", {"lo": 0.1, "hi": 1.0})
        with pytest.raises(ValueError, match="nonnegative"):
            make_covariance(spec, 3, -1)
        with pytest.raises(TypeError):
            make_covariance(spec, 3, 1.5)
        a, b = make_covariance(spec, 3, np.int64(2**40)), make_covariance(spec, 3, 2**40)
        assert np.array_equal(a.basis, b.basis)

    def test_log_normal_spectrum_is_numpys_draw(self):
        # the basis comes from the standard library; the spectrum keeps NumPy's
        # PCG64 draws, so seeded log-normal tables do not move
        lam = make_covariance(SpectrumSpec("log-normal", {"mu": 0.5, "sd": 2.0}), 9, 5).spectrum
        want = np.sort(np.exp(0.5 + 2.0 * np.random.default_rng(5).standard_normal(9)))[::-1]
        assert np.array_equal(lam, want)

    def test_eigendecomposition_roundtrip(self):
        model = make_covariance(SpectrumSpec("log-normal"), 16, seed=4)
        evals = np.sort(np.linalg.eigvalsh(model.covariance()))[::-1]
        assert_allclose(evals, model.spectrum, atol=1e-8, rtol=1e-8)


class TestSampleGaussian:
    def test_degenerate_spectrum_returns_mean(self):
        model = CovarianceModel(np.eye(3), np.zeros(3))
        mu = np.array([1.0, -2.0, 0.5])
        samples = sample_gaussian(model, mu, 10, seed=0)
        assert_allclose(samples, np.tile(mu, (10, 1)))

    def test_per_mode_variances_law_of_large_numbers(self):
        lam = np.array([4.0, 1.0, 0.25, 0.0625])
        model = make_covariance(SpectrumSpec("explicit", {"values": lam}), 4, seed=3)
        samples = sample_gaussian(model, np.zeros(4), 200_000, seed=11)
        emp = np.diagonal(model.basis.T @ empirical_moments(samples).covariance @ model.basis)
        assert np.all(np.abs(emp - lam) / lam < 0.02)

    def test_mean_clt_bound(self):
        lam = np.array([4.0, 1.0, 0.25, 0.0625])
        model = make_covariance(SpectrumSpec("explicit", {"values": lam}), 4, seed=3)
        samples = sample_gaussian(model, np.zeros(4), 100_000, seed=13)
        bound = 5.0 * np.sqrt(lam.sum() / 100_000)  # five-sigma CLT envelope
        assert np.linalg.norm(samples.mean(axis=0)) < bound


class TestEmpiricalMoments:
    def test_antipodal_pair(self):
        x = np.array([1.0, 2.0, -1.0])
        mm = empirical_moments(np.stack([x, -x]))
        assert_allclose(mm.mean, 0.0, atol=1e-15)
        assert_allclose(mm.covariance, 2.0 * np.outer(x, x))

    def test_repeated_row_zero_covariance(self):
        row = np.array([0.3, -0.7])
        mm = empirical_moments(np.tile(row, (5, 1)))
        assert_allclose(mm.covariance, 0.0, atol=1e-15)
        assert_allclose(mm.mean, row)

    def test_insufficient_data(self):
        with pytest.raises(ValueError):
            empirical_moments(np.ones((1, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_rejected_without_warnings(self, bad, recwarn):
        samples = np.array([[1.0, 2.0], [3.0, bad], [5.0, 6.0]])
        with pytest.raises(ValueError, match="1 of 6 sample values are not finite"):
            empirical_moments(samples)
        assert not recwarn.list

    def test_round_trip_with_sampler(self, model6):
        samples = sample_gaussian(model6, np.zeros(6), 300_000, seed=21)
        mm = empirical_moments(samples)
        assert np.max(np.abs(mm.covariance - model6.covariance())) < 0.05


class TestValidation:
    def test_non_orthonormal_basis_rejected(self):
        with pytest.raises(ValueError):
            CovarianceModel(np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([1.0, 0.5]))

    def test_unsorted_spectrum_rejected(self):
        with pytest.raises(ValueError):
            CovarianceModel(np.eye(2), np.array([0.5, 1.0]))

    def test_non_finite_moments_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            DataMoments(np.zeros(2), np.array([[1.0, np.nan], [np.nan, 1.0]]))
        with pytest.raises(ValueError, match="finite"):
            DataMoments(np.array([0.0, np.inf]), np.eye(2))


class TestReadSamples:
    def test_csv_roundtrip(self, tmp_path):
        data = np.arange(12.0).reshape(4, 3)
        path = tmp_path / "samples.csv"
        np.savetxt(path, data, delimiter=",")
        assert_allclose(read_samples(str(path)), data)

    def test_binary_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(7, 5))
        path = tmp_path / "samples.bin"
        with open(path, "wb") as fh:
            fh.write(b'{"rows": 7, "cols": 5}\n')
            fh.write(data.astype("<f8").tobytes())
        assert_allclose(read_samples(str(path)), data)

    @pytest.mark.parametrize("first", ["1", "-2.5", "1e3"])
    def test_one_column_csv_is_not_a_binary_header(self, tmp_path, first):
        # each first line is also a JSON number; only a JSON object is a header
        path = tmp_path / "one.csv"
        path.write_text(f"{first}\n2\n4\n")
        assert_allclose(read_samples(str(path)), [[float(first)], [2.0], [4.0]])

    def test_empty_csv_reads_as_no_samples_without_warnings(self, tmp_path, recwarn):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert read_samples(str(path)).size == 0
        assert not recwarn.list

    @pytest.mark.parametrize(
        "header, values",
        [(b'{"rows": 2.9, "cols": 2}', 4), (b'{"rows": 2, "cols": false}', 0), (b'{"rows": 2, "cols": 2}', 6)],
        ids=["fractional-rows", "boolean-cols", "extra-values"],
    )
    def test_binary_header_must_count_the_payload_exactly(self, tmp_path, header, values):
        path = tmp_path / "bad.bin"
        path.write_bytes(header + b"\n" + np.zeros(values).astype("<f8").tobytes())
        with pytest.raises(ValueError):
            read_samples(str(path))

    def test_truncated_binary_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        with open(path, "wb") as fh:
            fh.write(b'{"rows": 4, "cols": 4}\n')
            fh.write(np.zeros(3).astype("<f8").tobytes())
        with pytest.raises(ValueError):
            read_samples(str(path))
