import itertools
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import mereokit as mk
from mereokit import cli
from mereokit.models import SIGMA

from conftest import random_hermitian


def binary_entropy(p):
    out = np.zeros_like(p)
    inside = (p > 0) & (p < 1)
    q = p[inside]
    out[inside] = -(q * np.log(q) + (1 - q) * np.log(1 - q))
    return out


class TestSymmetryDims:
    @pytest.mark.parametrize(
        "factors,stab,bound,total",
        [((2, 2), 7, 3, 4), ((2, 2, 2), 10, 4, 8), ((3, 4), 24, 6, 12), ((2, 2, 2, 2), 13, 5, 16)],
    )
    def test_formulas(self, factors, stab, bound, total):
        sd = mk.symmetry_dims(mk.Dims(factors))
        assert sd.stab_tps_dim == stab
        assert sd.abelian_bound == bound
        assert sd.dims.total == total
        assert sd.abelian_bound < sd.dims.total

    def test_sweep(self):
        # the commutant of every H (dimension D) exceeds every commutative stabilizer subgroup
        for n in range(2, 5):
            for factors in itertools.product(range(2, 5), repeat=n):
                sd = mk.symmetry_dims(mk.Dims(factors))
                assert sd.abelian_bound < sd.dims.total, factors


class TestFindNonlocalSymmetry:
    def test_one_local_none_found(self, dims22):
        H = mk.HermitianOp(np.kron(SIGMA["Z"], np.eye(2)) + np.kron(np.eye(2), SIGMA["X"]))
        assert mk.find_nonlocal_symmetry(H, mk.canonical(dims22)) is None

    def test_xx_at_quarter_pi(self, dims22):
        H = mk.pauli_string("XX")
        T = mk.canonical(dims22)
        hit = mk.find_nonlocal_symmetry(H, T)
        assert hit is not None
        t, U = hit
        assert t == pytest.approx(np.pi / 4)
        assert np.abs(U.mat @ H.mat - H.mat @ U.mat).max() < 1e-9
        assert not mk.equivalent(mk.act(U, T), T)

    def test_ising_found_on_grid(self, dims222):
        H = mk.ising_chain(3, 1.0, 1.0)
        T = mk.canonical(dims222)
        hit = mk.find_nonlocal_symmetry(H, T)
        assert hit is not None
        t, U = hit
        assert np.abs(U.mat @ H.mat - H.mat @ U.mat).max() < 1e-9

    def test_identity_none(self, dims22):
        assert mk.find_nonlocal_symmetry(mk.HermitianOp(8 * np.eye(4)), mk.canonical(dims22)) is None

    @pytest.mark.parametrize("c", [1e5, 1e8, 1e12])
    def test_shifted_ising_moves(self, dims222, c):
        # eigenvectors of H + c I are accurate to about eps * c, so [U, H] is bounded relative to |H|
        H = mk.HermitianOp(mk.ising_chain(3, 1.0, 1.0).mat + c * np.eye(8))
        T = mk.canonical(dims222)
        t, U = mk.find_nonlocal_symmetry(H, T)
        assert not mk.equivalent(mk.act(U, T), T)
        assert np.abs(U.mat @ H.mat - H.mat @ U.mat).max() <= 1e-9 * (1.0 + np.abs(H.mat).max())

    @pytest.mark.parametrize("K", [1, 2])
    def test_one_locality_decided_on_seven_qubits(self, K):
        # a scrambled K = 1 instance in its planted structure is consistent with 1-locality and has
        # no moving evolution; a K = 2 one is not, and equivalent confirms its move
        dims = mk.Dims((2,) * 7)
        H, V = mk.scrambled_klocal(dims, K, mk.stream(1, K))
        T = mk.act(V, mk.canonical(dims))
        probes = [mk.random_product_probe(T, mk.stream(1, K, k)) for k in range(2)]
        verdict = mk.one_local_evolution_check(H, T, mk.default_time_grid(H, 16), probes)
        hit = mk.find_nonlocal_symmetry(H, T)
        assert verdict.consistent == (K == 1)
        assert (hit is not None) == (K == 2)
        assert hit is None or not mk.equivalent(mk.act(hit[1], T), T)

    @pytest.mark.parametrize("factors", [(2, 2), (2, 2, 3), (3, 3, 3), (2,) * 7])
    def test_evolution_commutes_with_h(self, factors):
        # the bound find_nonlocal_symmetry once checked on every call, now held here at the t it picks
        dims = mk.Dims(factors)
        H = random_hermitian(dims.total, mk.stream(505, len(factors)))
        t, U = mk.find_nonlocal_symmetry(H, mk.canonical(dims))
        assert np.abs(U.mat @ H.mat - H.mat @ U.mat).max() <= 1e-9 * (1.0 + np.abs(H.mat).max())

    def test_kept_structure_raises(self, dims22, monkeypatch):
        from mereokit import dynamics

        monkeypatch.setattr(dynamics, "equivalent", lambda *a: True)
        with pytest.raises(mk.InvariantViolation, match="keeps the structure"):
            mk.find_nonlocal_symmetry(mk.pauli_string("XX"), mk.canonical(dims22))


class TestEntropyOrbit:
    def test_one_local_constant_zero(self, dims22):
        H = mk.HermitianOp(np.kron(SIGMA["Z"], np.eye(2)) + np.kron(np.eye(2), SIGMA["X"]))
        T = mk.canonical(dims22)
        probe = mk.random_product_probe(T, mk.stream(503))
        ents = mk.entropy_orbit(H, T, probe, 0, np.linspace(0, 2 * np.pi, 64))
        assert ents.max() < 1e-9
        assert mk.distinct_value_count(ents, 1e-4) == 1

    def test_xx_closed_form(self, dims22):
        # e^{-itXX}|00> = cos t |00> - i sin t |11>: marginal spectrum (cos^2, sin^2)
        H = mk.pauli_string("XX")
        T = mk.canonical(dims22)
        probe = mk.StateVec(np.array([1, 0, 0, 0], dtype=complex))
        grid = np.linspace(0, np.pi / 2, 65)
        ents = mk.entropy_orbit(H, T, probe, 0, grid)
        oracle = binary_entropy(np.cos(grid) ** 2)
        assert np.abs(ents - oracle).max() < 1e-12
        assert ents[32] == pytest.approx(np.log(2), abs=1e-9)

    def test_local_representative_invariance(self, dims22):
        rng = mk.stream(504)
        H = random_hermitian(4, rng)
        T = mk.random_tps(dims22, rng)
        probe = mk.random_product_probe(T, rng)
        grid = np.linspace(0, 2.0, 16)
        base = mk.entropy_orbit(H, T, probe, 0, grid)
        L = mk.kron_all([mk.haar_unitary(2, rng).mat for _ in range(2)])
        U = mk.UnitaryOp(T.iso.mat.conj().T @ L @ T.iso.mat)
        moved = mk.entropy_orbit(H, mk.act(U, T), probe, 0, grid)
        assert np.abs(base - moved).max() < 1e-9

    def test_entropy_bound(self):
        rng = mk.stream(505)
        dims = mk.Dims((3, 2))
        H = random_hermitian(6, rng)
        T = mk.random_tps(dims, rng)
        probe = mk.random_product_probe(T, rng)
        ents = mk.entropy_orbit(H, T, probe, 0, np.linspace(0, 4, 32))
        assert ents.max() <= np.log(3) + 1e-9

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        factors=st.sampled_from([(2, 2), (2, 2, 2), (2,) * 4, (2,) * 5, (2, 3, 2), (3, 3), (4, 2)]),
        seed=st.integers(0, 2**16),
    )
    def test_one_site_orbit_is_all_site_column(self, factors, seed):
        from mereokit.locality import _evolved_entropies

        dims = mk.Dims(factors)
        rng = mk.stream(508, seed)
        H = random_hermitian(dims.total, rng)
        T = mk.random_tps(dims, rng)
        probe = mk.random_product_probe(T, rng)
        grid = np.linspace(0, 3, 17)
        every = _evolved_entropies(H, T, [probe], grid)[:, 0]
        for site, d in enumerate(factors):
            ents = mk.entropy_orbit(H, T, probe, site, grid)
            assert np.abs(ents - every[:, site]).max() <= 1e-15
            assert ents.max() <= np.log(d) + 1e-9

    @pytest.mark.parametrize("points", [1, 64])
    def test_site_entropies_calls_independent_of_grid(self, dims222, points, monkeypatch):
        from mereokit import tps

        calls = []
        real = tps.site_entropies
        monkeypatch.setattr(tps, "site_entropies", lambda *a: calls.append(a[2:]) or real(*a))
        rng = mk.stream(506)
        H = random_hermitian(8, rng)
        T = mk.random_tps(dims222, rng)
        ents = mk.entropy_orbit(H, T, mk.random_product_probe(T, rng), 2, np.linspace(0, 2, points))
        # the product-probe check reads impurities, not spectra; one call reads the whole curve
        # at the orbit's site alone
        assert calls == [((2,),)] and ents.shape == (points,)

    def test_non_product_probe_rejected(self, dims22):
        bell = mk.StateVec(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))
        with pytest.raises(mk.InvariantViolation):
            mk.entropy_orbit(mk.pauli_string("XX"), mk.canonical(dims22), bell, 0, [0.1])

    def test_operator_dim_unlike_the_structure_rejected(self, dims22):
        # an 8 x 8 H on a 4-dim structure once reached numpy's matmul ValueError
        probe = mk.StateVec(np.array([1, 0, 0, 0], dtype=complex))
        with pytest.raises(mk.DimensionMismatch, match="operator dim 8 != product dim 4"):
            mk.entropy_orbit(mk.pauli_string("XXX"), mk.canonical(dims22), probe, 0, [0.1])

    def test_time_grid_refuses_negative_points(self):
        H = mk.pauli_string("XX")
        assert mk.default_time_grid(H, 0).shape == (0,)
        with pytest.raises(mk.DimensionMismatch, match="points >= 0, got -1"):
            mk.default_time_grid(H, -1)

    @pytest.mark.parametrize("grid", [[np.nan, 0.3], [0.0, np.inf]])
    @pytest.mark.filterwarnings("error")
    def test_non_finite_grid_rejected(self, dims22, grid):
        probe = mk.StateVec(np.array([1, 0, 0, 0], dtype=complex))
        with pytest.raises(mk.DimensionMismatch, match="finite"):
            mk.entropy_orbit(mk.pauli_string("XX"), mk.canonical(dims22), probe, 0, grid)

    def test_overflowing_phase_rejected(self, dims22):
        # t * lambda = 1e309 overflows: the phases, and with them the entropies, once read NaN
        H = mk.HermitianOp(1e10 * mk.pauli_string("XX").mat)
        T, probe = mk.canonical(dims22), mk.StateVec(np.array([1, 0, 0, 0], dtype=complex))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(mk.DimensionMismatch, match="overflow"):
                mk.entropy_orbit(H, T, probe, 0, [0, 1e299, 1e300])
            with pytest.raises(mk.DimensionMismatch, match="overflow"):
                mk.one_local_evolution_check(H, T, [0, 1e300], [probe])
            # the largest grid whose phases stay finite is still read
            assert np.isfinite(mk.entropy_orbit(H, T, probe, 0, [0, 1e298])).all()

    def test_returns_read_only_entropies_shaped_like_the_grid(self, dims22):
        probe = mk.StateVec(np.array([1, 0, 0, 0], dtype=complex))
        ents = mk.entropy_orbit(mk.pauli_string("XX"), mk.canonical(dims22), probe, 0, np.linspace(0, 1, 5))
        assert ents.shape == (5,) and not ents.flags.writeable


class TestOrbitBlocks:
    """The curve is evaluated in blocks of at most 2**16 // D grid times."""

    def instance(self):
        rng = mk.stream(507)
        dims = mk.Dims((2,) * 6)
        H = random_hermitian(dims.total, rng)
        T = mk.random_tps(dims, rng)
        return H, T, mk.random_product_probe(T, rng)

    def test_peak_memory_bounded(self):
        H, T, probe = self.instance()
        grid = np.linspace(0, 3, 10_000)
        H.eig  # the cached eigendecomposition is not part of the curve
        tracemalloc.start()
        try:
            mk.entropy_orbit(H, T, probe, 1, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20

    @pytest.mark.parametrize("offset", [-1, 0, 1, "2B+1"])
    def test_blocks_bit_equal_to_one_call(self, offset):
        from mereokit.tps import _eigen_entropies

        H, T, probe = self.instance()
        B = 2**16 // H.dim
        grid = np.linspace(0, 3, 2 * B + 1 if offset == "2B+1" else B + offset)
        c = probe.vec[None] @ H.eig[1].conj()  # eigenbasis amplitudes, as one (1, D) product
        ref = _eigen_entropies(H, [T], np.exp(-1j * np.multiply.outer(grid, H.eig[0])) * c)[0, :, 3]
        assert np.array_equal(mk.entropy_orbit(H, T, probe, 3, grid), ref)


class TestDistinctValues:
    def test_xx_rich_curve(self, dims22):
        H = mk.pauli_string("XX")
        T = mk.canonical(dims22)
        probe = mk.StateVec(np.array([1, 0, 0, 0], dtype=complex))
        grid = np.arange(256) * (np.pi / 2) / 256
        ents = mk.entropy_orbit(H, T, probe, 0, grid)
        assert mk.distinct_value_count(ents, 1e-4) >= 100

    def test_coarse_bin(self, dims22):
        H = mk.pauli_string("XX")
        T = mk.canonical(dims22)
        probe = mk.StateVec(np.array([1, 0, 0, 0], dtype=complex))
        grid = np.arange(256) * (np.pi / 2) / 256
        ents = mk.entropy_orbit(H, T, probe, 0, grid)
        assert mk.distinct_value_count(ents, 2 * np.log(2)) <= 2

    @pytest.mark.filterwarnings("error")
    def test_tiny_bin_counts_every_value(self, dims22):
        # quotients near 1e300 once overflowed an int64 cast and all read as one value
        H = mk.ising_chain(2, 1.0, 1.0)
        probe = mk.StateVec(np.array([1, 0, 0, 0], dtype=complex))
        ents = mk.entropy_orbit(H, mk.canonical(dims22), probe, 0, mk.default_time_grid(H, 64))
        assert mk.distinct_value_count(ents, 1e-300) == np.unique(ents).size == 64

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        ents=st.lists(st.sampled_from([0.0, -0.0, 1e-4, 1.5e-4, 0.3, np.log(2)]) | st.floats(-2.0, 2.0),
                      min_size=1, max_size=40),
        bin_=st.sampled_from([1e-4, 1e-2, 0.3]),
    )
    @example(ents=[-0.0, 0.0], bin_=1e-4)
    @example(ents=[0.3], bin_=1e-4)
    def test_counts_as_np_unique(self, ents, bin_):
        # ties, signed zeros and a single value count as np.unique counts the rounded bins
        q = np.round(np.array(ents) / bin_)
        assert mk.distinct_value_count(ents, bin_) == np.unique(q).size

    def test_bin_must_be_positive(self, dims22):
        H = mk.pauli_string("XX")
        probe = mk.StateVec(np.array([1, 0, 0, 0], dtype=complex))
        ents = mk.entropy_orbit(H, mk.canonical(dims22), probe, 0, [0.0])
        with pytest.raises(mk.DimensionMismatch):
            mk.distinct_value_count(ents, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.filterwarnings("error")
    def test_non_finite_entropy_named(self, bad):
        with pytest.raises(mk.DimensionMismatch, match="entropies must be finite"):
            mk.distinct_value_count(np.array([0.0, bad]), 1e-4)

    # at 5e-324 the quotient entropy / bin overflows
    @pytest.mark.parametrize("bin_", [float("nan"), float("inf"), -1.0, 5e-324])
    @pytest.mark.filterwarnings("error")
    def test_bin_must_be_finite_and_positive(self, dims22, bin_):
        H = mk.pauli_string("XX")
        probe = mk.StateVec(np.array([1, 0, 0, 0], dtype=complex))
        ents = mk.entropy_orbit(H, mk.canonical(dims22), probe, 0, [0.0, 0.5])
        with pytest.raises(mk.DimensionMismatch, match="bin"):
            mk.distinct_value_count(ents, bin_)


class TestCsvRows:
    def test_rows_match_curve(self, dims22, tmp_path):
        # the orbit CSV pairs each grid time with the entropy entropy_orbit returns there
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"model": {"name": "pauli", "string": "XX"}, "grid": {"points": 8, "t_max": 1.0}}))
        out = tmp_path / "o.csv"
        assert cli.main(["orbit", "--config", str(cfg), "--out", str(out)]) == 0
        grid = np.arange(8) / 8
        probe = mk.StateVec(np.array([1, 0, 0, 0], dtype=complex))
        ents = mk.entropy_orbit(mk.pauli_string("XX"), mk.canonical(dims22), probe, 0, grid)
        rows = [tuple(map(float, line.split(","))) for line in out.read_text().splitlines()[2:]]
        assert rows == list(zip(grid.tolist(), ents.tolist()))
