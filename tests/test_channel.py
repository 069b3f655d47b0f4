import copy
import math
import pickle
import re
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from lvsim.channel import (
    CovarianceError,
    GeometryError,
    NetworkGeometry,
    ShadowingModel,
    build_covariance,
    mean_vector,
    sample_observation,
    sample_observations,
)

from lvsim.detector import build_d_matrix
from lvsim.experiments import builtin_scenario

from conftest import FIG1_BS, CLAIMED, make_geometry


class TestMeanVector:
    def test_reference_distance_gives_reference_power(self):
        # three stations at unit distance from the origin
        geo = make_geometry(
            [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]], claimed=[0.5, 0.5], p=-10.0, d=1.0
        )
        u = mean_vector(geo, [0.0, 0.0])
        np.testing.assert_allclose(u, -10.0, rtol=0, atol=1e-12)

    def test_one_decade_is_thirty_db_at_gamma_three(self):
        geo = make_geometry([[10.0, 0.0], [0.0, 10.0]], claimed=[1.0, 1.0])
        u = mean_vector(geo, [0.0, 0.0])
        np.testing.assert_allclose(u, -40.0, rtol=0, atol=1e-12)

    def test_fig1_vector_matches_per_element_evaluation(self, fig1_geometry):
        # oracle: scalar evaluation of the log-distance law, element by element
        expected = [
            -10.0 - 30.0 * math.log10(math.hypot(CLAIMED[0] - bx, CLAIMED[1] - by))
            for bx, by in FIG1_BS
        ]
        got = mean_vector(fig1_geometry, CLAIMED)
        np.testing.assert_allclose(got, expected, rtol=1e-15)
        # frozen values from an independent run of the same scalar oracle
        np.testing.assert_allclose(
            got,
            [-84.31544695064984, -61.53049759918992, -79.03497010887007],
            rtol=1e-13,
        )

    def test_result_is_fresh_and_inputs_untouched(self):
        stack = make_geometry(np.stack([FIG1_BS] * 2), claimed=[CLAIMED] * 2, gamma=[3.0, 2.5])
        inputs = [stack.bs_positions, stack.ref_power_db, stack.ref_distance_m]
        inputs += [stack.path_loss_exponent]
        before = [a.copy() for a in inputs]
        pts = np.array([[[550.0, 5.0]], [[0.0, 100.0]]])
        got = mean_vector(stack, pts)
        assert got.shape == (2, 1, 3) and got.flags.owndata
        np.testing.assert_array_equal(pts, [[[550.0, 5.0]], [[0.0, 100.0]]])
        for a, b in zip(inputs, before):
            np.testing.assert_array_equal(a, b)
        assert not any(np.shares_memory(got, a) for a in inputs + [pts])

    def test_vectorized_matches_scalar(self, fig1_geometry):
        pts = np.array([[550.0, 5.0], [0.0, 100.0], [-300.0, -40.0]])
        batch = mean_vector(fig1_geometry, pts)
        for i, p in enumerate(pts):
            np.testing.assert_array_equal(batch[i], mean_vector(fig1_geometry, p))

    def test_permutation_of_stations_permutes_entries(self, fig1_geometry):
        perm = [2, 0, 1]
        geo = make_geometry(np.asarray(FIG1_BS)[perm])
        np.testing.assert_array_equal(
            mean_vector(geo, [10.0, 3.0]), mean_vector(fig1_geometry, [10.0, 3.0])[perm]
        )

    def test_coincident_location_raises(self, fig1_geometry):
        with pytest.raises(GeometryError):
            mean_vector(fig1_geometry, FIG1_BS[1])

    @pytest.mark.parametrize("location", [[1.0, 2.0, 3.0], [[1.0], [2.0]], 5.0])
    def test_location_without_two_coordinates_raises(self, fig1_geometry, location):
        with pytest.raises(GeometryError, match="shape"):
            mean_vector(fig1_geometry, location)


class TestClaimedMean:
    def test_equals_mean_vector_at_the_claim_bit_for_bit(self, fig1_geometry):
        np.testing.assert_array_equal(
            fig1_geometry.claimed_mean, mean_vector(fig1_geometry, CLAIMED)
        )

    def test_is_read_only(self, fig1_geometry):
        with pytest.raises(ValueError, match="read-only"):
            fig1_geometry.claimed_mean[0] = 0.0

    def test_replace_recomputes_it(self, fig1_geometry):
        moved = replace(fig1_geometry, claimed_location=np.array([120.0, -30.0]))
        np.testing.assert_array_equal(
            moved.claimed_mean, mean_vector(fig1_geometry, [120.0, -30.0])
        )
        assert not np.array_equal(moved.claimed_mean, fig1_geometry.claimed_mean)

    @pytest.mark.parametrize(
        "clone", [copy.copy, copy.deepcopy, lambda g: pickle.loads(pickle.dumps(g))]
    )
    def test_copies_stay_read_only(self, fig1_geometry, clone):
        twin = clone(fig1_geometry)
        assert twin == fig1_geometry
        np.testing.assert_array_equal(twin.claimed_mean, fig1_geometry.claimed_mean)
        assert not twin.claimed_mean.flags.writeable


class TestGeometryValidation:
    def test_duplicate_stations_rejected(self):
        with pytest.raises(GeometryError):
            make_geometry([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])

    def test_claimed_on_station_rejected(self):
        with pytest.raises(GeometryError):
            make_geometry([[0.0, 0.0], [1.0, 1.0]], claimed=[1.0, 1.0])

    def test_single_station_rejected(self):
        with pytest.raises(GeometryError):
            make_geometry([[0.0, 0.0]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_station_rejected(self, bad):
        with pytest.raises(GeometryError, match="finite"):
            make_geometry([[0.0, 0.0], [bad, 1.0], [5.0, 5.0]], claimed=[2.0, 2.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_claim_rejected(self, bad):
        with pytest.raises(GeometryError, match="finite"):
            make_geometry(FIG1_BS, claimed=[50.0, bad])

    def test_non_finite_path_loss_rejected(self):
        with pytest.raises(GeometryError, match="finite"):
            make_geometry(FIG1_BS, gamma=math.nan)

    @pytest.mark.parametrize(
        "change",
        [
            {"gamma": 1e308},
            {"d": 1e-320},
            {"claimed": [1e200, 1e200]},
            {"bs": [[1e200, 0.0], [0.0, -10.0], [250.0, 10.0]]},
        ],
        ids=["path-loss-exponent", "ref-distance", "claim", "station"],
    )
    def test_claimed_mean_must_be_finite(self, change):
        # finite inputs whose mean overflows to -inf
        with pytest.raises(GeometryError, match="^mean received power is not finite$"):
            make_geometry(**{"bs": FIG1_BS, **change})


STACK_BS = [
    [[-250.0, 10.0], [0.0, -10.0], [250.0, 10.0]],
    [[0.0, 10.0], [131.4, -9.3], [20.6, -0.9]],
]
STACK_CLAIMS = [[50.0, 5.0], [120.0, -30.0]]


class TestGeometryStack:
    def stack(self, bs=STACK_BS, claims=STACK_CLAIMS):
        return make_geometry(np.array(bs), claimed=np.array(claims))

    def test_rows_match_single_geometries_bit_for_bit(self):
        stack = self.stack()
        assert stack.n_stations == 3 and stack.claimed_mean.shape == (2, 3)
        assert not stack.claimed_mean.flags.writeable
        pts = np.random.default_rng(3).uniform(-600.0, 600.0, (2, 4, 5, 2))
        got = mean_vector(stack, pts)
        assert got.shape == (2, 4, 5, 3)
        for t, (bs, claim) in enumerate(zip(STACK_BS, STACK_CLAIMS)):
            one = make_geometry(bs, claimed=claim)
            np.testing.assert_array_equal(stack.claimed_mean[t], one.claimed_mean)
            np.testing.assert_array_equal(got[t], mean_vector(one, pts[t]))

    @pytest.mark.parametrize(
        "bs, claims, message",
        [
            ([STACK_BS[0], [[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]]], STACK_CLAIMS, "distinct"),
            (STACK_BS, [STACK_CLAIMS[0], STACK_BS[1][2]], "coincides"),
            (STACK_BS, [STACK_CLAIMS[0], [np.nan, 0.0]], "finite"),
            (STACK_BS, [STACK_CLAIMS[0]], "one 2-D point per geometry"),
            (STACK_BS, [STACK_CLAIMS[0], [1e200, 1e200]], "mean received power is not finite"),
        ],
        ids=[
            "duplicate-stations",
            "claim-on-station",
            "non-finite-claim",
            "claims-short",
            "non-finite-mean",
        ],
    )
    def test_each_row_is_checked(self, bs, claims, message):
        with pytest.raises(GeometryError, match=message):
            self.stack(bs, claims)

    @pytest.mark.parametrize("location", [[1.0, 2.0], np.zeros((3, 2))])
    def test_locations_need_one_row_per_geometry(self, location):
        with pytest.raises(GeometryError, match="shape \\(T, ..., 2\\)"):
            mean_vector(self.stack(), location)

    def test_stack_and_take_rows(self):
        singles = [make_geometry(bs, claimed=c) for bs, c in zip(STACK_BS, STACK_CLAIMS)]
        stack = NetworkGeometry.stack(singles)
        assert stack == self.stack()
        np.testing.assert_array_equal(stack.claimed_mean, self.stack().claimed_mean)
        assert stack.take(slice(1, 2)) == NetworkGeometry.stack(singles[1:])
        models = [build_covariance(g, 6.0, 40.0) for g in singles]
        rows = ShadowingModel.stack(models).take(slice(1, 2))
        for f in fields(ShadowingModel):
            np.testing.assert_array_equal(getattr(rows, f.name), [getattr(models[1], f.name)])

    @pytest.mark.parametrize(
        "rows",
        [slice(2, 5), slice(None, None, 2), np.array([4, 0, 6]), np.arange(7) % 3 == 1],
        ids=["slice", "strided", "index-array", "mask"],
    )
    def test_take_equals_constructor_bitwise(self, monkeypatch, rows):
        rng = np.random.default_rng(5)
        singles = [
            make_geometry(
                rng.uniform(-300.0, 300.0, (4, 2)),
                claimed=rng.uniform(-50.0, 50.0, 2),
                p=rng.uniform(-30.0, 0.0),
                d=rng.uniform(0.5, 5.0),
                gamma=rng.uniform(2.0, 4.0),
            )
            for _ in range(7)
        ]
        built = NetworkGeometry.stack([singles[i] for i in np.arange(7)[rows]])
        stack = NetworkGeometry.stack(singles)
        # the rows were checked when the stack was built: take computes nothing
        monkeypatch.setattr("lvsim.channel.mean_vector", None)
        taken = stack.take(rows)
        for name in ("bs_positions", "claimed_location", "claimed_mean"):
            got, want = getattr(taken, name), getattr(built, name)
            assert (got.shape, got.dtype) == (want.shape, want.dtype)
            assert got.tobytes() == want.tobytes()
        for f in fields(NetworkGeometry):
            if f.name not in ("bs_positions", "claimed_location"):
                assert np.array_equal(getattr(taken, f.name), getattr(built, f.name))
        assert not taken.claimed_mean.flags.writeable

    def test_stack_needs_same_n(self):
        three = make_geometry(STACK_BS[0], claimed=STACK_CLAIMS[0])
        two = make_geometry(STACK_BS[0][:2], claimed=STACK_CLAIMS[0])
        with pytest.raises(GeometryError, match="same N"):
            NetworkGeometry.stack([three, two])

    def test_stack_of_mixed_path_loss_scalars(self):
        singles = [
            make_geometry(STACK_BS[0], claimed=STACK_CLAIMS[0], p=-10.0, d=1.0, gamma=3.0),
            make_geometry(STACK_BS[1], claimed=STACK_CLAIMS[1], p=-27.5, d=2.5, gamma=2.2),
            make_geometry(STACK_BS[0], claimed=STACK_CLAIMS[1], p=3.0, d=0.7, gamma=3.9),
        ]
        stack = NetworkGeometry.stack(singles)
        for name in ("ref_power_db", "ref_distance_m", "path_loss_exponent"):
            got = getattr(stack, name)
            assert got.shape == (3,) and got.dtype == float
            assert got.tolist() == [getattr(g, name) for g in singles]
        pts = np.random.default_rng(8).uniform(-600.0, 600.0, (3, 4, 2))
        got = mean_vector(stack, pts)
        for t, one in enumerate(singles):
            np.testing.assert_array_equal(stack.claimed_mean[t], one.claimed_mean)
            np.testing.assert_array_equal(got[t], mean_vector(one, pts[t]))
            assert stack.take([t]) == NetworkGeometry.stack([one])
        assert stack == NetworkGeometry.stack(singles)
        nearer = replace(singles[2], ref_distance_m=1.0)
        assert stack != NetworkGeometry.stack(singles[:2] + [nearer])
        for clone in (copy.copy, copy.deepcopy, lambda g: pickle.loads(pickle.dumps(g))):
            twin = clone(stack)
            assert twin == stack
            np.testing.assert_array_equal(twin.claimed_mean, stack.claimed_mean)
            assert not twin.claimed_mean.flags.writeable

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"gamma": [3.0, 0.0]}, "path loss exponent must be positive"),
            ({"d": [1.0, -2.0]}, "reference distance must be positive"),
            ({"p": [np.nan, -10.0]}, "finite"),
            ({"gamma": [3.0, 3.0, 3.0]}, "floats or \\(T,\\) arrays"),
            ({"gamma": [1e308, 3.0]}, "mean received power is not finite"),
        ],
        ids=["exponent", "ref-distance", "ref-power", "wrong-length", "non-finite-mean"],
    )
    def test_each_rows_path_loss_scalars_are_checked(self, change, message):
        with pytest.raises(GeometryError, match=message):
            make_geometry(np.array(STACK_BS), claimed=np.array(STACK_CLAIMS), **change)

    def test_model_take_keeps_cached_whitened_vectors(self):
        singles = [make_geometry(bs, claimed=c) for bs, c in zip(STACK_BS, STACK_CLAIMS)]
        models = ShadowingModel.stack([build_covariance(g, 6.0, 40.0) for g in singles])
        unit = models.whitened_unit
        taken = models.take(np.array([1]))
        # sliced from the stack's cache, not recomputed from the whitener
        assert vars(taken)["whitened_ones"].tobytes() == models.whitened_ones[[1]].tobytes()
        assert vars(taken)["whitened_unit"].tobytes() == unit[[1]].tobytes()

    def test_empty_stack_is_rejected_when_built(self):
        with pytest.raises(GeometryError, match="at least one geometry"):
            NetworkGeometry(np.zeros((0, 3, 2)), np.zeros((0, 2)), -10.0, 1.0, 3.0)

    def test_stack_of_no_geometries_is_rejected(self):
        with pytest.raises(GeometryError, match="at least one geometry"):
            NetworkGeometry.stack([])

    def test_stack_of_no_models_is_rejected(self):
        with pytest.raises(CovarianceError, match="at least one model"):
            ShadowingModel.stack([])

    @pytest.mark.parametrize(
        "rows", [slice(2, 2), np.array([], dtype=int)], ids=["slice", "index-array"]
    )
    def test_empty_take_is_rejected(self, rows):
        singles = [make_geometry(bs, claimed=c) for bs, c in zip(STACK_BS, STACK_CLAIMS)]
        with pytest.raises(GeometryError, match="at least one geometry"):
            NetworkGeometry.stack(singles).take(rows)
        models = ShadowingModel.stack([build_covariance(g, 6.0, 40.0) for g in singles])
        with pytest.raises(CovarianceError, match="at least one model"):
            models.take(rows)


def stack_case(kind):
    """(a single item, a stack of two, a differing single item, the named error)
    of the given kind, "geometry" or "model"."""
    singles = [make_geometry(bs, claimed=c) for bs, c in zip(STACK_BS, STACK_CLAIMS)]
    if kind == "geometry":
        other = replace(singles[0], path_loss_exponent=3.5)
        return singles[0], NetworkGeometry.stack(singles), other, GeometryError
    models = [build_covariance(g, 6.0, 40.0) for g in singles]
    other = build_covariance(singles[0], 6.0, 41.0)
    return models[0], ShadowingModel.stack(models), other, CovarianceError


CLONES = {
    "same": lambda x: x,
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
}


class TestStackRules:
    """stack, take and == follow one rule for geometries and models."""

    @pytest.mark.parametrize("clone", CLONES.values(), ids=CLONES.keys())
    @pytest.mark.parametrize("kind", ["geometry", "model"])
    def test_equal_to_its_copies(self, kind, clone):
        single, stack, other, _ = stack_case(kind)
        for item in (single, stack):
            twin = clone(item)
            assert twin == item and not twin != item
        assert single != other and not single == other
        assert stack != type(stack).stack([other, other])
        assert single != stack and stack.take([0]) != single

    def test_fig1_model_equals_its_deepcopy(self):
        model = builtin_scenario("fig1").shadowing()
        assert copy.deepcopy(model) == model
        assert model == builtin_scenario("fig1").shadowing()
        assert model != builtin_scenario("fig1").geometry

    @pytest.mark.parametrize("kind", ["geometry", "model"])
    def test_unhashable(self, kind):
        for item in stack_case(kind)[:2]:
            with pytest.raises(TypeError, match="unhashable"):
                hash(item)

    @pytest.mark.parametrize("kind", ["geometry", "model"])
    def test_take_on_a_single_item_is_rejected(self, kind):
        single, _, _, error = stack_case(kind)
        with pytest.raises(error, match=f"rows of a {kind} stack, not of one {kind}"):
            single.take(slice(0, 2))

    @pytest.mark.parametrize("kind", ["geometry", "model"])
    def test_stack_of_stacks_is_rejected(self, kind):
        single, stack, _, error = stack_case(kind)
        for items in ([stack, stack], [single, stack], [stack, single]):
            with pytest.raises(error, match=f"{kind} stack needs single items"):
                type(stack).stack(items)

    def test_model_stack_needs_same_n(self):
        three = build_covariance(make_geometry(STACK_BS[0], claimed=STACK_CLAIMS[0]), 6.0, 40.0)
        four = build_covariance(make_geometry(FIG1_BS + [[400.0, 300.0]]), 6.0, 40.0)
        with pytest.raises(CovarianceError, match="same N"):
            ShadowingModel.stack([three, four])

    @pytest.mark.parametrize(
        "rows", [slice(0, 1), np.array([1, 0]), np.array([True, False])],
        ids=["slice", "index-array", "mask"],
    )
    @pytest.mark.parametrize("kind", ["geometry", "model"])
    def test_take_keeps_each_writeable_flag(self, kind, rows):
        stack = stack_case(kind)[1]
        if kind == "model":
            assert stack.whitened_unit.shape == (2, 3)  # now cached, so take slices it too
        taken = stack.take(rows)
        assert vars(taken).keys() == vars(stack).keys()
        for name, value in vars(stack).items():
            assert vars(taken)[name].flags.writeable == value.flags.writeable, name


class TestCovariance:
    def test_halving_at_correlation_distance(self):
        geo = make_geometry([[0.0, 0.0], [30.0, 0.0]], claimed=[5.0, 5.0])
        model = build_covariance(geo, 4.0, 30.0)
        assert model.covariance[0, 1] == pytest.approx(8.0, rel=1e-14)

    @pytest.mark.parametrize(
        "bs, dc",
        [(FIG1_BS, 5e-324), (FIG1_BS, 1e-306), (STACK_BS[1], 5e-324)],
        ids=["fig1-subnormal", "fig1-1e-306", "close-stations-subnormal"],
    )
    def test_tiny_correlation_distance_is_the_uncorrelated_limit(self, bs, dc):
        # d / D_c overflows to inf, and exp(-inf) = 0 is the kernel's limit
        geo = make_geometry(bs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = build_covariance(geo, 6.0, dc)
        uncorrelated = build_covariance(geo, 6.0, 0.0)
        for name in ("covariance", "chol_lower", "whitener", "d_whitener", "diag_jitter"):
            assert np.array_equal(getattr(model, name), getattr(uncorrelated, name)), name

    def test_uncorrelated_limit_is_diagonal(self, fig1_geometry):
        model = build_covariance(fig1_geometry, 6.0, 0.0)
        np.testing.assert_array_equal(model.covariance, 36.0 * np.eye(3))

    def test_fig1_matrix_matches_per_entry_evaluation(self, fig1_model):
        # oracle: direct per-entry evaluation of the exponential-decay kernel
        bs = np.asarray(FIG1_BS)
        for i in range(3):
            for j in range(3):
                dij = math.dist(bs[i], bs[j])
                expected = 56.25 * math.exp(-dij / 50.0 * math.log(2.0))
                assert fig1_model.covariance[i, j] == pytest.approx(expected, rel=1e-14)
        np.testing.assert_array_equal(np.diag(fig1_model.covariance), 56.25)
        # station 1 to station 3 spans exactly ten halving distances
        assert fig1_model.covariance[0, 2] == 56.25 / 1024

    def test_bitwise_symmetry(self, fig1_model):
        assert np.array_equal(fig1_model.covariance, fig1_model.covariance.T)

    def test_monotone_in_correlation_distance(self, fig1_geometry):
        prev = None
        for dc in (10.0, 25.0, 50.0, 100.0, 400.0):
            off = build_covariance(fig1_geometry, 7.5, dc).covariance[0, 1]
            if prev is not None:
                assert off > prev
            prev = off

    def test_decays_with_station_separation(self):
        prev = None
        for sep in (10.0, 50.0, 200.0, 1000.0):
            geo = make_geometry([[0.0, 0.0], [sep, 0.0]], claimed=[1.0, 5.0])
            off = build_covariance(geo, 7.5, 50.0).covariance[0, 1]
            if prev is not None:
                assert off < prev
            prev = off
        assert prev < 1e-4

    def test_invalid_parameters_rejected(self, fig1_geometry):
        with pytest.raises(ValueError):
            build_covariance(fig1_geometry, 0.0, 50.0)
        with pytest.raises(ValueError):
            build_covariance(fig1_geometry, 5.0, -1.0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_non_finite_sigma_rejected(self, fig1_geometry, sigma):
        with pytest.raises(CovarianceError, match="sigma_db"):
            build_covariance(fig1_geometry, sigma, 50.0)

    @pytest.mark.parametrize("sigma", [1e200, 1e-200, 1e-160])
    def test_sigma_whose_square_is_not_a_normal_float_rejected(self, fig1_geometry, sigma):
        # 1e200 squares to inf, 1e-200 to zero and 1e-160 to a subnormal float
        with pytest.raises(CovarianceError, match=f"^sigma_db .*, got {re.escape(repr(sigma))}$"):
            build_covariance(fig1_geometry, sigma, 50.0)

    def test_nan_correlation_distance_rejected(self, fig1_geometry):
        with pytest.raises(CovarianceError, match="correlation_distance"):
            build_covariance(fig1_geometry, 7.5, math.nan)

    def test_infinite_correlation_distance_rejected(self, fig1_geometry):
        # the kernel limit is the singular rank-1 matrix sigma^2 11^T; it must
        # not be rescued by diagonal jitter
        with pytest.raises(CovarianceError, match="correlation_distance"):
            build_covariance(fig1_geometry, 7.5, math.inf)

    def test_jitter_rescue_warns(self):
        # stations 1e-8 m apart under D_c = 1e8 m: kappa(R) is about 3e10 and
        # the exact kernel matrix does not factor
        geometry = make_geometry([[0.0, 0.0], [1e-8, 0.0], [100.0, 0.0]])
        with pytest.warns(RuntimeWarning, match=r"diagonal jitter 2\.5e-09 on sigma_db\^2 = 25$"):
            model = build_covariance(geometry, 5.0, 1e8)
        assert model.diag_jitter == 2.5e-9

    def test_whiteners_stored_once(self, fig1_model):
        w, wd = fig1_model.whitener, fig1_model.d_whitener
        np.testing.assert_allclose(w @ fig1_model.covariance @ w.T, np.eye(3), atol=1e-12)
        d = build_d_matrix(fig1_model.covariance)
        np.testing.assert_allclose(wd @ d @ wd.T, np.eye(2), atol=1e-12)


class TestSampling:
    def test_tiny_variance_collapses_to_mean(self, fig1_geometry):
        model = build_covariance(fig1_geometry, 1e-9, 50.0)
        mean = mean_vector(fig1_geometry, CLAIMED)
        y = sample_observation(model, mean, np.random.default_rng(0))
        np.testing.assert_allclose(y, mean, atol=1e-6)

    @pytest.mark.parametrize("name", ["fig1", "fig2", "fig3", "fig4", "fig5", "fig6"])
    @pytest.mark.parametrize("n", [1, 17, 4096])
    def test_blocks_station_contiguous_and_bitwise(self, name, n):
        scenario = builtin_scenario(name)
        model = scenario.shadowing()
        mean = scenario.geometry.claimed_mean
        y = sample_observations(model, mean, np.random.default_rng(n), n)
        # each station's n draws are adjacent in memory
        assert y.shape == (n, len(mean))
        assert y.T.flags.c_contiguous
        z = np.random.default_rng(n).standard_normal((n, len(mean)))
        want = z @ model.chol_lower.T
        want += mean
        assert np.ascontiguousarray(y).tobytes() == want.tobytes()

    def test_seeded_stream_reproducible(self, fig1_model, fig1_geometry):
        mean = mean_vector(fig1_geometry, CLAIMED)
        a = sample_observations(fig1_model, mean, np.random.default_rng(42), 10)
        b = sample_observations(fig1_model, mean, np.random.default_rng(42), 10)
        np.testing.assert_array_equal(a, b)

    def test_empirical_moments_match(self, fig1_model, fig1_geometry):
        n = 100_000
        mean = mean_vector(fig1_geometry, CLAIMED)
        samples = sample_observations(fig1_model, mean, np.random.default_rng(7), n)
        emp_mean = samples.mean(axis=0)
        np.testing.assert_allclose(
            emp_mean, mean, atol=5 * fig1_model.sigma_db / np.sqrt(n)
        )
        emp_cov = np.cov(samples.T)
        r = fig1_model.covariance
        stderr = np.sqrt((np.outer(np.diag(r), np.diag(r)) + r**2) / n)
        assert np.all(np.abs(emp_cov - r) <= 5 * stderr)
