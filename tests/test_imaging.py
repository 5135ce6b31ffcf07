"""Image parsing, log-polar resampling, descriptors, and registration."""

import gc
import weakref

import numpy as np
import pytest
from imagegen import _bilinear_sample, blob_image, disk_image, warp_similarity

from clifford_mellin import cfmt, imaging
from clifford_mellin.algebra import CL02, CL11, CL20, Multivector
from clifford_mellin.errors import (
    ContractError,
    DomainError,
    FormatError,
    GeometryError,
    ImageParseError,
)
from clifford_mellin.imaging import (
    Descriptor,
    ImageSignalSource,
    RasterImage,
    RegistrationResult,
    descriptor,
    ingest,
    read_image,
    register,
    to_log_polar,
    write_pgm,
    write_ppm,
)
from clifford_mellin.roots import default_pair, make_pair
from clifford_mellin.signal import GridGeometry, default_geometry, random_signal
from helpers import (
    channelwise_correlation,
    correlation_register,
    field_log_polar_samples,
    multivector_field,
    plane_correlation,
    row_gather_bilinear,
    wild_pairs,
)

GEO = default_geometry(64)


# -- file parsing ------------------------------------------------------------------


def test_pgm_round_trip(tmp_path):
    path = tmp_path / "img.pgm"
    gray = blob_image(32, seed=1)
    write_pgm(path, gray)
    image = read_image(path)
    assert image.channels == 1
    assert image.width == 32 and image.height == 32
    assert np.max(np.abs(image.pixels[..., 0] - np.round(gray * 255) / 255)) <= 1e-12


def test_ppm_round_trip(tmp_path):
    path = tmp_path / "img.ppm"
    rgb = np.stack([blob_image(16, seed=s) for s in (1, 2, 3)], axis=-1)
    write_ppm(path, rgb)
    image = read_image(path)
    assert image.channels == 3
    assert image.pixels.shape == (16, 16, 3)


def test_pgm_with_comments(tmp_path):
    path = tmp_path / "img.pgm"
    raster = bytes(range(64)) * 4
    path.write_bytes(b"P5 # magic\n# a comment line\n16 # width\n16\n255\n" + raster)
    image = read_image(path)
    assert image.width == 16 and image.height == 16


def test_image_parse_errors(tmp_path):
    path = tmp_path / "bad"
    path.write_bytes(b"P7\n8 8\n255\n" + bytes(64))
    with pytest.raises(ImageParseError) as err:
        read_image(path)
    assert err.value.offset == 0

    path.write_bytes(b"P5\n16 16\n255\n" + bytes(100))
    with pytest.raises(ImageParseError) as err:
        read_image(path)
    assert err.value.offset > 0

    path.write_bytes(b"P5\n16 16\n65535\n" + bytes(512))
    with pytest.raises(FormatError):
        read_image(path)

    path.write_bytes(b"P5\nab cd\n255\n")
    with pytest.raises(ImageParseError):
        read_image(path)

    path.write_bytes(b"P5\n128")
    with pytest.raises(ImageParseError, match="unexpected end of header"):
        read_image(path)

    path.write_bytes(b"P5\n0 8\n255\n")
    with pytest.raises(ImageParseError, match="bad dimensions 0x8"):
        read_image(path)


def test_pixel_decode_is_bitwise_the_float_division_for_all_levels(tmp_path):
    levels = np.arange(256, dtype=np.uint8)
    want = levels.astype(float) / 255.0
    gray = tmp_path / "levels.pgm"
    gray.write_bytes(b"P5\n16 16\n255\n" + levels.tobytes())
    rgb = tmp_path / "levels.ppm"
    rgb.write_bytes(b"P6\n16 16\n255\n" + np.repeat(levels, 3).tobytes())
    assert read_image(gray).pixels.tobytes() == want.tobytes()
    assert read_image(rgb).pixels.tobytes() == np.repeat(want, 3).tobytes()


def test_raster_image_validation():
    with pytest.raises(DomainError):
        RasterImage(np.zeros((4, 4)))
    with pytest.raises(DomainError, match="expected \\(h, w\\) or \\(h, w, 3\\) pixels"):
        RasterImage(np.zeros((8, 8, 2)))
    raw = np.full((8, 8), 2.0)
    image = RasterImage(raw)
    assert float(image.pixels.max()) == 1.0
    # the caller's array is copied before it is clamped
    assert float(raw.max()) == 2.0 and raw.flags.writeable


# -- channel mapping ----------------------------------------------------------------


def test_ingest_gray_maps_to_scalar(tmp_path):
    path = tmp_path / "gray.pgm"
    write_pgm(path, np.full((8, 8), 128 / 255))
    source = ingest(path, CL02)
    field = multivector_field(source)
    assert field[0, 0, 0] == pytest.approx(128 / 255)
    assert np.max(np.abs(field[..., 1:])) == 0.0


def test_ingest_rgb_maps_to_vector_blades(tmp_path):
    path = tmp_path / "rgb.ppm"
    rgb = np.zeros((8, 8, 3))
    rgb[..., 0] = 1.0  # pure red
    write_ppm(path, rgb)
    source = ingest(path, CL02)
    field = multivector_field(source)
    assert np.all(field[..., 1] == 1.0)
    assert np.max(np.abs(field[..., [0, 2, 3]])) == 0.0


def test_ingest_mapping_override(tmp_path):
    path = tmp_path / "gray.pgm"
    write_pgm(path, np.full((8, 8), 1.0))
    source = ingest(path, CL20, mapping=(3,))
    assert np.all(multivector_field(source)[..., 3] == 1.0)
    with pytest.raises(DomainError):
        ingest(path, CL20, mapping=(1, 2))
    rgb = RasterImage(np.zeros((8, 8, 3)))
    with pytest.raises(DomainError, match="must be distinct blade indices"):
        ImageSignalSource(rgb, CL20, (1, 1, 2))


def test_centroid_of_an_all_black_image_is_its_center():
    assert RasterImage(np.zeros((8, 12))).centroid() == (5.5, 3.5)


# -- log-polar resampling --------------------------------------------------------------


def small_log_geometry(n=32, s_max=np.log(24.0)):
    return GridGeometry(n, n, -s_max, s_max)


def test_constant_image_resamples_to_constant():
    image = RasterImage(np.full((64, 64), 0.5))
    source = ImageSignalSource(image, CL02, (0,))
    geo = small_log_geometry()
    signal = to_log_polar(source, geo, center=(31.5, 31.5))
    assert np.max(np.abs(signal.samples[..., 0] - 0.5)) <= 1e-12
    assert np.max(np.abs(signal.samples[..., 1:])) == 0.0


def test_rotation_is_cyclic_shift():
    image = blob_image(128, seed=2)
    center = (63.5, 63.5)
    geo = default_geometry(64)
    source = ImageSignalSource(RasterImage(image), CL02, (0,))
    base = to_log_polar(source, geo, center=center)
    rotated = warp_similarity(image, geo.dtheta, 1.0, center=center)
    rotated_signal = to_log_polar(
        ImageSignalSource(RasterImage(rotated), CL02, (0,)), geo, center=center
    )
    shifted = np.roll(base.samples, -1, axis=1)
    assert np.max(np.abs(rotated_signal.samples - shifted)) <= 0.05


def test_disk_becomes_radial_step():
    radius = 16.0
    image = disk_image(128, radius=radius)
    geo = small_log_geometry(64, s_max=np.log(40.0))
    source = ImageSignalSource(RasterImage(image), CL02, (0,))
    signal = to_log_polar(source, geo, center=(63.5, 63.5))
    s0 = np.log(radius)
    inside = geo.s_values < s0 - 2 * geo.ds
    outside = geo.s_values > s0 + 2 * geo.ds
    assert np.min(signal.samples[inside, :, 0]) >= 0.99
    assert np.max(signal.samples[outside, :, 0]) <= 0.01


def test_resampling_guards():
    image = RasterImage(np.zeros((32, 32)))
    source = ImageSignalSource(image, CL02, (0,))
    with pytest.raises(GeometryError):
        to_log_polar(source, GridGeometry(16, 16, -1.0, np.log(30.0)), center=(16, 16))
    with pytest.raises(GeometryError):
        to_log_polar(source, small_log_geometry(16, s_max=1.0), center=(200.0, 16.0))


def test_log_polar_matches_four_channel_field_resampling():
    # only the image's channels are sampled, through cached sampling plans; two
    # rounds over more (geometry, center, size) keys than the cache holds must
    # stay bit-identical to the four-channel reference
    rng = np.random.default_rng(40)
    gray = blob_image(64, seed=41)
    rgb = np.stack([blob_image(64, seed=s) for s in (42, 43, 44)], axis=-1)
    cases = [(gray, (0,)), (gray, (2,)), (rgb, (1, 2, 3)), (rgb, (0, 2, 1)),
             (blob_image(48, seed=52), (0,))]
    geometries = [GridGeometry(24, 20, -1.0, np.log(20.0)),
                  GridGeometry(16, 32, np.log(2.0), np.log(22.0))]
    # the centroid, and centers whose outer rings leave the raster
    centers = [None, (3.0, 5.5), tuple(rng.uniform(20.0, 43.0, size=2)),
               (0.0, 0.0), (-0.0, 0.0), (0.0, -0.0)]
    for _ in range(2):
        for center in centers:
            for geo in geometries:
                for pixels, mapping in cases:
                    source = ImageSignalSource(RasterImage(pixels), CL20, mapping)
                    got = to_log_polar(source, geo, center=center)
                    want = field_log_polar_samples(
                        source, geo, center or source.image.centroid())
                    assert got.samples.tobytes() == want.tobytes()
    cache = imaging._log_polar_plan.cache_info()
    assert cache.hits > 0
    assert cache.currsize <= imaging.SAMPLING_PLAN_CACHE_SIZE
    # the identity warp, through the uncached sampler, reads every pixel exactly
    assert np.array_equal(warp_similarity(rgb, 0.0, 1.0), rgb)


def test_plane_gather_is_bitwise_the_row_gather():
    # one channel plane at a time, its corner rows summed from 0.0, against
    # whole pixel rows per corner; positions run off every edge of the raster
    rng = np.random.default_rng(79)
    gray = blob_image(48, seed=80)[..., None]
    rgb = np.stack([blob_image(48, seed=s) for s in (81, 82, 83)], axis=-1)
    wide = rng.random((40, 56, 4)) * 10.0 ** rng.uniform(-3, 3, size=(40, 56, 4))
    wide[10:30, 10:30] = -0.0  # the sum starts at 0.0, so these read as +0.0
    for field in (gray, rgb, wide):
        h, w = field.shape[:2]
        xs = rng.uniform(-3.0, w + 2.0, size=(33, 27))
        ys = rng.uniform(-3.0, h + 2.0, size=(33, 27))
        xs[0, :4], ys[0, :4] = (0.0, w - 1.0, -1.0, w), (0.0, h - 1.0, h, -1.0)
        assert _bilinear_sample(field, xs, ys).tobytes() == \
            row_gather_bilinear(field, xs, ys).tobytes()
    for angle, scale in ((0.0, 1.0), (0.5, 1.2), (-2.2, 0.8)):
        for pixels in (gray[..., 0], rgb):
            field = pixels[..., None] if pixels.ndim == 2 else pixels
            h, w = pixels.shape[:2]
            ys, xs = np.mgrid[0:h, 0:w].astype(float)
            c = (w - 1) / 2.0
            src_x = c + scale * (np.cos(angle) * (xs - c) - np.sin(angle) * (ys - c))
            src_y = c + scale * (np.sin(angle) * (xs - c) + np.cos(angle) * (ys - c))
            want = row_gather_bilinear(field, src_x, src_y).reshape(pixels.shape)
            assert warp_similarity(pixels, angle, scale).tobytes() == want.tobytes()


def test_sampling_plan_is_cached_per_center_and_read_only():
    # a -0.0 coordinate shares the plan of +0.0; the byte-level resampling
    # test above covers the centers (0, 0), (-0, 0) and (0, -0)
    geo = GridGeometry(16, 16, -1.0, np.log(12.0))
    plan = imaging._log_polar_plan(geo, (0.0, 0.0), 32, 32)
    assert imaging._log_polar_plan(geo, (0.0, 0.0), 32, 32) is plan
    assert imaging._log_polar_plan(geo, (-0.0, 0.0), 32, 32) is plan
    assert imaging._log_polar_plan(geo, (0.0, 0.5), 32, 32) is not plan
    assert imaging._log_polar_plan(geo, (0.0, 0.0), 32, 33) is not plan
    indices, weights = plan
    assert indices.shape == weights.shape == (4, 16, 16)
    assert indices.nbytes + weights.nbytes == 64 * 16 * 16
    assert not indices.flags.writeable and not weights.flags.writeable
    with pytest.raises(ValueError):
        weights[0, 0, 0] = 1.0
    # rows in the order (x0, y0), (x1, y0), (x0, y1), (x1, y1); an off-raster
    # corner reads a clipped index with weight zero
    indices, weights = imaging._corner_plan(np.array([0.25, -0.5]), np.array([0.5, 31.5]), 32, 32)
    assert indices.tolist() == [[0, 992], [1, 992], [32, 992], [33, 992]]
    assert weights.tolist() == [[0.375, 0.0], [0.125, 0.25], [0.375, 0.0], [0.125, 0.0]]


# -- descriptors -------------------------------------------------------------------------


def test_descriptor_invariant_under_grid_shifts():
    pair = default_pair(CL02)
    h = random_signal(GEO, CL02, seed=3)
    base = descriptor(h, pair)
    rng = np.random.default_rng(4)
    for _ in range(6):
        p, q = int(rng.integers(-20, 21)), int(rng.integers(-20, 21))
        moved = cfmt.apply_scale_rotate(h, p, q)
        assert np.max(np.abs(descriptor(moved, pair).magnitudes - base.magnitudes)) <= 1e-10


def test_descriptor_zero_signal():
    pair = default_pair(CL02)
    h = random_signal(GEO, CL02, seed=5).with_samples(
        np.zeros((GEO.n_s, GEO.n_theta, 4))
    )
    assert np.max(descriptor(h, pair).magnitudes) == 0.0


def test_descriptor_rejects_non_blade_like():
    pair = wild_pairs(CL20, 1, seed=6)[0]
    h = random_signal(GEO, CL20, seed=7)
    with pytest.raises(ContractError):
        descriptor(h, pair)


def test_descriptor_discriminates_shapes():
    pair = default_pair(CL02)
    geo = default_geometry(64)
    center = (63.5, 63.5)

    def signal_of(image):
        return to_log_polar(
            ImageSignalSource(RasterImage(image), CL02, (0,)), geo, center=center
        )

    shape = blob_image(128, seed=8)
    rotated = warp_similarity(shape, np.pi / 7, 1.0, center=center)
    unrelated = blob_image(128, seed=99)

    d_shape = descriptor(signal_of(shape), pair)
    d_rot = descriptor(signal_of(rotated), pair)
    d_other = descriptor(signal_of(unrelated), pair)

    close = d_shape.l2_distance(d_rot)
    far = d_shape.l2_distance(d_other)
    assert far > 10.0 * close


def test_descriptor_distance_refuses_mixed_pairs():
    # both pairs are blade-like, and their descriptors of one signal differ
    h = random_signal(default_geometry(16), CL02, seed=4)
    e1, e12 = (Multivector.blade(CL02, i) for i in (1, 3))
    other = descriptor(h, make_pair(e12, e1))
    mine = descriptor(h, default_pair(CL02))
    assert not np.array_equal(mine.magnitudes, other.magnitudes)
    with pytest.raises(ContractError, match="different root pairs"):
        mine.l2_distance(other)
    # an equal pair built separately is the same pair
    assert mine.l2_distance(descriptor(h, default_pair(CL02))) == 0.0
    # and likewise for grids; a different grid is refused
    assert mine.l2_distance(Descriptor(mine.magnitudes, default_geometry(16), mine.pair)) == 0.0
    other_grid = GridGeometry(16, 16, 0.0, 1.0)
    with pytest.raises(GeometryError, match="different grids"):
        mine.l2_distance(Descriptor(mine.magnitudes, other_grid, mine.pair))


def test_descriptor_refuses_magnitudes_off_its_grid():
    geo, pair = default_geometry(16), default_pair(CL02)
    for shape in ((1, 16), (16, 15), (16, 16, 1), (256,)):
        with pytest.raises(GeometryError, match="does not match grid"):
            Descriptor(np.ones(shape), geo, pair)


def test_descriptor_refuses_non_finite_magnitudes():
    geo, pair = default_geometry(16), default_pair(CL02)
    for value in (np.nan, np.inf, -np.inf):
        magnitudes = np.ones((16, 16))
        magnitudes[3, 4] = value
        with pytest.raises(DomainError, match="finite"):
            Descriptor(magnitudes, geo, pair)


def test_descriptor_magnitudes_are_read_only():
    geo, pair = default_geometry(16), default_pair(CL02)
    made = descriptor(random_signal(geo, CL02, seed=84), pair)
    mine = np.ones((16, 16))
    given = Descriptor(mine, geo, pair)
    for desc in (made, given):
        assert not desc.magnitudes.flags.writeable
        with pytest.raises(ValueError):
            desc.magnitudes[0, 0] = 1.0
    # a caller's array is copied, not frozen in place
    assert mine.flags.writeable and not np.shares_memory(mine, given.magnitudes)


def test_l2_distance_is_bitwise_the_sum_of_squares_formula():
    rng = np.random.default_rng(57)
    pair = default_pair(CL02)
    for k in range(1000):
        n = 2 * int(rng.integers(1, 17))
        geo = default_geometry(n)
        scale = 10.0 ** rng.uniform(-8, 8)
        a, b = (scale * rng.random((n, n)) for _ in range(2))
        if k % 10 == 0:
            b = a.copy()
        got = Descriptor(a, geo, pair).l2_distance(Descriptor(b, geo, pair))
        want = float(np.sqrt(np.sum((a - b) ** 2)))
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


# -- registration ------------------------------------------------------------------------


def test_register_identity():
    h = random_signal(GEO, CL02, seed=9)
    result = register(h, h)
    assert result.matched
    assert result.scale == 1.0
    assert result.angle == 0.0
    assert result.steps == (0, 0)


def test_register_exhaustive_grid_shifts():
    geo = default_geometry(16)
    h = random_signal(geo, CL02, seed=10)
    for p in range(geo.n_s):
        for q in range(geo.n_theta):
            moved = cfmt.apply_scale_rotate(h, p, q)
            result = register(h, moved)
            assert (result.steps[0] - p) % geo.n_s == 0
            assert (result.steps[1] - q) % geo.n_theta == 0
            assert result.scale == pytest.approx(
                np.exp(result.steps[0] * geo.ds), rel=1e-12
            )


def test_register_recovers_continuous_rotation_and_scale():
    # radius window matched to where the image content lives (2..55 px)
    geo = GridGeometry(64, 64, np.log(2.0), np.log(55.0))
    center = (63.5, 63.5)
    image = blob_image(128, seed=11)

    def signal_of(pixels):
        return to_log_polar(
            ImageSignalSource(RasterImage(pixels), CL02, (0,)), geo, center=center
        )

    base = signal_of(image)
    angle, scale = np.pi / 8, 1.15
    warped = signal_of(warp_similarity(image, angle, scale, center=center))
    result = register(base, warped)
    assert result.matched
    assert abs(result.angle - angle) <= geo.dtheta
    assert abs(np.log(result.scale) - np.log(scale)) <= geo.ds


def test_register_matches_channelwise_correlation():
    # one real FFT per signal over all channels against one complex FFT per channel
    image_geo = GridGeometry(32, 32, np.log(2.0), np.log(55.0))
    center = (63.5, 63.5)
    gray = blob_image(128, seed=45)
    rgb = np.stack([blob_image(128, seed=s) for s in (46, 47, 48)], axis=-1)
    cases = []
    for pixels, mapping in ((gray, (0,)), (rgb, (1, 2, 3))):
        def signal_of(p):
            source = ImageSignalSource(RasterImage(p), CL02, mapping)
            return to_log_polar(source, image_geo, center=center)

        base = signal_of(pixels)
        for angle, scale in ((0.3, 1.1), (-2.0, 0.9)):
            cases.append((base, signal_of(warp_similarity(pixels, angle, scale, center=center))))
    # random four-channel signals; at 8x8 the exclusion window wraps the grid edge
    for n in (8, 16, 32):
        geo = default_geometry(n)
        h = random_signal(geo, CL02, seed=49 + n)
        noise = random_signal(geo, CL02, seed=50 + n).samples
        for p, q in ((0, 0), (1, -2), (n // 2, n - 1)):
            moved = cfmt.apply_scale_rotate(h, p, q)
            cases.append((h, moved.with_samples(moved.samples + 0.5 * noise)))
        cases.append((h, random_signal(geo, CL02, seed=51 + n)))
    for h1, h2 in cases:
        result = register(h1, h2)
        steps, matched, confidence = correlation_register(
            channelwise_correlation(h1, h2), h1.geometry
        )
        assert result.steps == steps
        assert result.matched == matched
        assert result.confidence == pytest.approx(confidence, rel=1e-12)


def _image_signals(seeds, geo, center):
    """Gray and RGB blob images, each unwarped and under two warps, resampled
    about center, or about their centroids when center is None."""
    gray = blob_image(128, seed=seeds[0])
    rgb = np.stack([blob_image(128, seed=s) for s in seeds[1:]], axis=-1)
    groups = []
    for pixels, mapping in ((gray, (0,)), (rgb, (1, 2, 3))):
        group = []
        for angle, scale in ((0.0, 1.0), (0.4, 1.1), (-2.5, 0.9)):
            warped = RasterImage(warp_similarity(pixels, angle, scale, center=(63.5, 63.5)))
            source = ImageSignalSource(warped, CL02, mapping)
            group.append(to_log_polar(source, geo, center=center))
        groups.append(group)
    return groups


def test_register_is_the_split_plane_correlation():
    # the peak search, the confidence and the score of the planes' correlation,
    # against one fft2/ifft2 per plane of the mean-subtracted planes
    image_geo = GridGeometry(32, 32, np.log(2.0), np.log(55.0))
    grays, rgbs = _image_signals((63, 64, 65, 66), image_geo, (63.5, 63.5))
    cases = [(a, b) for group in (grays, rgbs) for a in group for b in group]
    # a constant channel beside a zero one, and random four-channel signals
    for n in (8, 16, 32):
        geo = default_geometry(n)
        h = random_signal(geo, CL02, seed=67 + n)
        moved = cfmt.apply_scale_rotate(h, 1, -2).samples
        noise = random_signal(geo, CL02, seed=n).samples
        cases.append((h, h.with_samples(moved + 0.5 * noise)))
        cases.append((h, random_signal(geo, CL02, seed=68 + n)))
        constant = random_signal(geo, CL02, seed=69 + n, channels=(0, 2)).samples.copy()
        constant[..., 1] = 0.37
        constant = h.with_samples(constant)
        cases += [(constant, cfmt.apply_scale_rotate(constant, 2, 3)), (h, constant)]
    for pair in (default_pair(CL02), wild_pairs(CL02, 1, seed=78)[0]):
        for h1, h2 in cases:
            result = register(h1, h2, pair)
            corr, score = plane_correlation(h1, h2, pair)
            steps, matched, confidence = correlation_register(corr, h1.geometry)
            assert result.steps == steps
            assert result.matched == matched
            assert result.confidence == pytest.approx(confidence, rel=1e-12)
            assert result.score == pytest.approx(score, rel=1e-12)
            assert 0.0 < result.score <= 1.0 + 1e-12
            assert result.scale == float(np.exp(steps[0] * h1.geometry.ds))
            assert result.angle == float(steps[1] * h1.geometry.dtheta)
            if pair is default_pair(CL02):
                # an orthogonal split basis: the verdicts of the channel correlation
                channel = correlation_register(channelwise_correlation(h1, h2), h1.geometry)
                assert (result.steps, result.matched) == channel[:2]
    # no pair argument: the signals' default pair
    for h1, h2 in cases[:4]:
        assert register(h1, h2) == register(h1, h2, default_pair(CL02))


def test_register_of_signals_without_a_common_channel_is_the_zero_result():
    # gray against RGB correlates to exactly zero channel by channel, and to
    # roundoff in the planes, which the score floor turns back into zero
    image_geo = GridGeometry(32, 32, np.log(2.0), np.log(55.0))
    for center in ((63.5, 63.5), None):
        grays, rgbs = _image_signals((79, 80, 81, 82), image_geo, center)
        for a in grays:
            for b in rgbs:
                for h1, h2 in ((a, b), (b, a)):
                    assert not channelwise_correlation(h1, h2).any()
                    result = register(h1, h2)
                    assert result == RegistrationResult(1.0, 0.0, 1.0, False, (0, 0), result.score)
                    assert 0.0 <= result.score < imaging.ROUNDOFF_SCORE


def test_register_recovers_grid_shifts_under_any_pair():
    geo = default_geometry(16)
    for k, sig in enumerate((CL02, CL20, CL11)):
        h = random_signal(geo, sig, seed=83 + k)
        for pair in (default_pair(sig), *wild_pairs(sig, 2, seed=86 + k)):
            for p, q in ((0, 0), (3, -5), (-8, 7)):
                result = register(h, cfmt.apply_scale_rotate(h, p, q), pair)
                assert result.steps == (p, q)
                assert result.matched
                assert result.score == pytest.approx(1.0, rel=1e-12)


def test_split_planes_are_what_cfmt_fast_transforms():
    # the planes are fft2 of the split-basis coordinates with plane 0's rows
    # read at -j, and cfmt_fast's memo hands register them unmodified
    image_geo = GridGeometry(32, 32, np.log(2.0), np.log(55.0))
    grays, rgbs = _image_signals((71, 72, 73, 74), image_geo, (63.5, 63.5))
    large = random_signal(image_geo, CL02, seed=77)
    signals = grays + rgbs + [random_signal(image_geo, CL02, seed=75),
                              large.with_samples(1e6 * large.samples)]
    reversal = (-np.arange(32)) % 32
    for pair in (default_pair(CL02), wild_pairs(CL02, 1, seed=78)[0]):
        unreversed = []
        for h in signals:
            coords = cfmt._map(h.samples, pair.plan.inv_split).view(complex)
            fft_order = np.fft.fft2(coords, axes=(0, 1))
            unreversed.append(fft_order)
            want = fft_order.copy()
            want[:, :, 0] = fft_order[reversal, :, 0]
            planes = cfmt._split_planes(h, pair)
            assert planes.shape == (32, 32, 2) and planes.dtype == complex
            assert not planes.flags.writeable
            assert planes.tobytes() == want.tobytes()
            cfmt.cfmt_fast(h, pair)
            memo = cfmt._fast_planes(h, pair)
            assert memo is cfmt._FAST_PLANES[h][1]
            assert memo.tobytes() == want.tobytes()
            with pytest.raises(ValueError):
                memo[1, 0, 0] = 0.0
            # only the last signal, and only under the very pair object
            equal_pair = make_pair(pair.f.value, pair.g.value)
            assert cfmt._fast_planes(h, equal_pair) is not memo
            assert cfmt._fast_planes(h, equal_pair).tobytes() == want.tobytes()
        assert len(cfmt._FAST_PLANES) == 1
        # the correlation reads plane 0 back at -j: bit for bit the cross-power
        # of the planes in FFT order, so a missing or doubled reversal shows
        for k, (h1, p1) in enumerate(zip(signals, unreversed)):
            for h2, p2 in zip(signals[k:k + 3], unreversed[k:k + 3]):
                cross = np.conj(p2) * p1
                power = cross[:, :, 0] + cross[:, :, 1]
                power[0, 0] = 0.0
                want = np.fft.ifft2(power).real
                got = cfmt._plane_correlation(cfmt._split_planes(h1, pair),
                                              cfmt._split_planes(h2, pair))
                assert got.tobytes() == want.tobytes()
            varying = p1.reshape(-1)[2:]
            norm = np.sqrt(np.vdot(varying, varying).real / 32 ** 2)
            assert cfmt._plane_norm(cfmt._split_planes(h1, pair)) == pytest.approx(norm, rel=1e-15)


def test_register_reports_no_match_on_flat_correlation():
    h = random_signal(GEO, CL02, seed=12)
    flat = h.with_samples(np.broadcast_to([0.5, 0, 0, 0], h.samples.shape).copy())
    result = register(flat, flat)
    assert not result.matched
    assert result.confidence <= 1.05


def test_register_geometry_mismatch():
    h1 = random_signal(GEO, CL02, seed=13)
    h2 = random_signal(default_geometry(32), CL02, seed=13)
    with pytest.raises(GeometryError):
        register(h1, h2)


def test_register_transforms_each_signal_once(monkeypatch):
    # the image-match flow: corpus descriptors, then per query a descriptor
    # and registrations against corpus entries
    image_geo = GridGeometry(32, 32, np.log(2.0), np.log(55.0))
    pair = default_pair(CL02)
    computed = []
    split_planes = cfmt._split_planes

    def counting(h, pair):
        computed.append(h)
        return split_planes(h, pair)

    monkeypatch.setattr(cfmt, "_split_planes", counting)
    corpus = [random_signal(image_geo, CL02, seed=90 + k) for k in range(3)]
    for h in corpus:
        descriptor(h, pair)
    assert computed == corpus
    computed.clear()
    queries = [cfmt.apply_scale_rotate(h, 2, -3) for h in corpus + corpus]
    for k, query in enumerate(queries):
        descriptor(query, pair)
        for entry in corpus:
            result = register(entry, query, pair)
            assert (result.steps == (2, -3)) == (entry is corpus[k % 3])
    # each query once, by its descriptor, and each corpus entry once more, by
    # its first registration
    assert [id(h) for h in computed] == [id(h) for h in queries[:1] + corpus + queries[1:]]


def test_register_planes_give_cold_results_and_die_with_the_signal():
    image_geo = GridGeometry(32, 32, np.log(2.0), np.log(55.0))
    center = (63.5, 63.5)
    rgb = np.stack([blob_image(128, seed=s) for s in (58, 59, 60)], axis=-1)

    def signal_of(p):
        return to_log_polar(ImageSignalSource(RasterImage(p), CL02, (1, 2, 3)), image_geo,
                            center=center)

    base = signal_of(rgb)
    queries = [signal_of(warp_similarity(rgb, angle, scale, center=center))
               for angle, scale in ((0.3, 1.1), (-2.0, 0.9), (1.0, 1.0))]
    queries.append(random_signal(image_geo, CL02, seed=61))
    for query in queries:
        imaging._REGISTERED_PLANES.clear()
        cold = register(base, query)
        warm = register(base, query)
        assert base in imaging._REGISTERED_PLANES and query in imaging._REGISTERED_PLANES
        assert warm == cold
        steps, matched, confidence = correlation_register(
            channelwise_correlation(base, query), image_geo
        )
        assert cold.steps == steps
        assert cold.matched == matched
        assert cold.confidence == pytest.approx(confidence, rel=1e-12)

    planes, norm = imaging._registered_planes(base, default_pair(CL02))
    assert not planes.flags.writeable
    with pytest.raises(ValueError):
        planes[0, 0, 0] = 0.0
    centred = base.samples - base.samples.mean(axis=(0, 1))
    # the Cl(0,2) default pair's split basis is sqrt(2) times an orthogonal one
    assert norm == pytest.approx(np.sqrt(2.0) * np.linalg.norm(centred), rel=1e-12)

    imaging._REGISTERED_PLANES.clear()
    h = random_signal(image_geo, CL02, seed=62)
    descriptor(h, default_pair(CL02))
    register(h, h)
    assert len(imaging._REGISTERED_PLANES) == 1 and h in cfmt._FAST_PLANES
    alive = weakref.ref(h)
    del h
    gc.collect()
    assert alive() is None
    assert len(imaging._REGISTERED_PLANES) == 0
    assert len(cfmt._FAST_PLANES) == 0
