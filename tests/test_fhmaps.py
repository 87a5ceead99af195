"""Power-map layer: generators, alpha matrices, omega, minors, phi, term data."""

import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from bfsyz import fhmaps, homres, polyring, sl2rep
from bfsyz.errors import ResourceLimitError
from bfsyz.exactalg import ExactMatrix, blocked_kernel_basis, dump_matrix, load_matrix, rank
from bfsyz.exactalg.matrix import draw_primes
from bfsyz.fhmaps import (
    fh_rank_report,
    foulkes_howe,
    hw_triple_report,
    ix_kernel_ideal,
    maximal_minors,
    minors_generate_check,
    minors_ideal,
    omega_matrix,
    phi_matrix,
    phi_syzygy_check,
    power_generators,
    power_ideal,
    skew_normalizable,
    sr_wr_terms,
)
from bfsyz.polyring import GradedIdeal, MultiPoly
from bfsyz.sl2rep import BinaryForm, plethysm_basis, plethysm_index

from blockref import assert_primitive, dict_rows, reference_kernel, slice_matrix, transpose


# ---------------------------------------------------------------------------
# power generators


def test_power_generators_2_2_pinned():
    pg = power_generators(2, 2)
    assert pg.d == 4
    expect = ["c0^2", "2*c0*c1", "2*c0*c2 + c1^2", "2*c1*c2", "c2^2"]
    assert [str(p) for p in pg.polys] == expect


def test_power_generators_2_1_pinned():
    pg = power_generators(2, 1)
    assert [str(p) for p in pg.polys] == ["c0^2", "2*c0*c1", "c1^2"]


def test_power_generators_a1_are_variables():
    pg = power_generators(1, 3)
    for j, p in enumerate(pg.polys):
        assert p == pg.ring.variable(j)


def test_power_generators_reverse_under_reversed_coefficients():
    # reversing the c_i swaps x1 and x2 in G, so P_j(rev c) = P_{d-j}(c)
    for a in (1, 2, 3):
        for b in (1, 2, 3, 4):
            pg = power_generators(a, b)
            for j, p in enumerate(pg.polys):
                reversed_terms = {e[::-1]: v for e, v in p.terms.items()}
                assert reversed_terms == pg.polys[pg.d - j].terms, (a, b, j)


def test_power_generators_expand_identity():
    rng = random.Random(6)
    for a, b in [(2, 2), (3, 2), (2, 3), (4, 1)]:
        pg = power_generators(a, b)
        c = [rng.randint(-5, 5) for _ in range(b + 1)]
        g = BinaryForm(b, c)
        lhs = g.power(a)
        rhs = [p.evaluate(c) for p in pg.polys]
        assert list(lhs.coeffs) == rhs
        assert pg.polys[0] == pg.ring.variable(0) ** a
        assert pg.polys[-1] == pg.ring.variable(b) ** a
        for j, p in enumerate(pg.polys):
            assert p.homogeneous_degree == a
            assert p.weight() == 2 * j - a * b


# ---------------------------------------------------------------------------
# alpha matrices


def test_fh_degree_one_is_inclusion():
    m = slice_matrix(foulkes_howe(2, 2, 1))
    assert m.shape == (6, 5)
    assert rank(m, "exact") == 5  # full column rank d+1
    m = slice_matrix(foulkes_howe(2, 3, 1))
    assert m.shape == (10, 7)
    assert rank(m, "exact") == 7


def test_fh_degree_zero_identity():
    m = slice_matrix(foulkes_howe(3, 2, 0))
    assert m.shape == (1, 1)
    assert m.entries == {(0, 0): 1}


def test_fh_2_2_shapes_and_ranks():
    m2 = slice_matrix(foulkes_howe(2, 2, 2))
    assert m2.shape == (15, 15)
    assert rank(m2, "exact") == 15
    m3 = slice_matrix(foulkes_howe(2, 2, 3))
    assert m3.shape == (28, 35)
    assert rank(m3, "exact") == 28


def reference_slice_entries(a, b, k):
    """Entries of alpha_k from a product tree keyed by exponent tuples."""
    polys = [dict(p.terms) for p in power_generators(a, b).polys]
    memo = {(0,) * (a * b + 1): {(0,) * (b + 1): 1}}

    def product(beta):
        if beta not in memo:
            j = next(i for i, v in enumerate(beta) if v)
            parent = list(beta)
            parent[j] -= 1
            out = {}
            for e1, c1 in product(tuple(parent)).items():
                for e2, c2 in polys[j].items():
                    key = tuple(x + y for x, y in zip(e1, e2))
                    out[key] = out.get(key, 0) + c1 * c2
            memo[beta] = out
        return memo[beta]

    row_index = plethysm_index(a * k, b)
    entries = {}
    for colno, beta in enumerate(plethysm_basis(k, a * b)):
        for exp, coeff in product(beta).items():
            entries[(row_index[exp], colno)] = coeff
    return entries


CRITERION_1_SLICES = [(a, b, k) for a in (1, 2, 3) for b in (1, 2, 3) for k in range(b + 2)]


@pytest.mark.parametrize(
    "a, b, k",
    sorted(
        {(1, 1, 4), (1, 3, 3), (3, 1, 2), (3, 4, 4), (2, 4, 4), (2, 6, 4)}
        | set(CRITERION_1_SLICES)
    ),
)
def test_fh_matches_tuple_keyed_reference(a, b, k):
    m = slice_matrix(foulkes_howe(a, b, k))
    reference = reference_slice_entries(a, b, k)
    assert m.entries == reference
    assert m.shape == (comb(a * k + b, b), comb(k + a * b, k))
    # the entries come in the reference's order, so every consumer sees the same matrix
    assert list(m.entries.items()) == list(reference.items())


@pytest.mark.parametrize("a, b, k", CRITERION_1_SLICES)
def test_slice_column_equals_the_reference_column(a, b, k):
    fh = foulkes_howe(a, b, k)
    rows = plethysm_basis(a * k, b)
    want: dict = {}
    for (r, c), v in reference_slice_entries(a, b, k).items():
        want.setdefault(c, {})[rows[r]] = v
    for c, beta in enumerate(plethysm_basis(k, a * b)):
        assert fh.column(beta) == want[c], beta


def test_slice_column_builds_only_its_block(tmp_path):
    fh = foulkes_howe(2, 3, 3, cache=str(tmp_path))
    fh.column((1, 0, 0, 0, 0, 1, 1))  # s = 11, weight 2 * 11 - 18 = 4
    assert [p.name for p in tmp_path.iterdir()] == ["fhw-a2-b3-k3-w4.mat"]


def test_fh_multiplicativity():
    # column(beta + delta_j) = P_j * column(beta), sampled over (2, 2)
    rng = random.Random(10)
    pg = power_generators(2, 2)
    fh2 = foulkes_howe(2, 2, 2)
    fh3 = foulkes_howe(2, 2, 3)

    for _ in range(10):
        beta = rng.choice(fh2.col_basis)
        j = rng.randrange(5)
        lifted = list(beta)
        lifted[j] += 1
        lhs = MultiPoly(pg.ring, fh3.column(lifted))
        rhs = pg.polys[j] * MultiPoly(pg.ring, fh2.column(beta))
        assert lhs == rhs


def block_files(fh) -> list:
    """The cache file names of the blocks of a slice, in weight order."""
    a, b, k = fh.a, fh.b, fh.k
    return [f"fhw-a{a}-b{b}-k{k}-w{w}.mat" for w in fh.shapes()]


def test_fh_cache_roundtrip(tmp_path):
    cold = foulkes_howe(2, 2, 2, cache=str(tmp_path))
    # nothing is built, and nothing written, before a block is read
    assert list(tmp_path.iterdir()) == []
    cold_matrix = slice_matrix(cold)
    assert {p.name for p in tmp_path.iterdir()} == set(block_files(cold))
    warm = foulkes_howe(2, 2, 2, cache=str(tmp_path))
    assert slice_matrix(warm) == cold_matrix == slice_matrix(foulkes_howe(2, 2, 2))


def test_fh_damaged_cache_is_rebuilt(tmp_path):
    cold = foulkes_howe(2, 3, 2, cache=str(tmp_path / "cold"))
    cold_matrix = slice_matrix(cold)
    name = "fhw-a2-b3-k2-w0.mat"
    cold_bytes = (tmp_path / "cold" / name).read_bytes()
    other = tmp_path / "other"
    fh_rank_report(2, 3, 3, cache=str(other))  # writes the weight-0 block alone
    wrong_shape = (other / "fhw-a2-b3-k3-w0.mat").read_bytes()
    damaged = {
        "wrong shape": wrong_shape,
        "unparseable": b"BFSYZ-MAT v1 35 28 sparse QQ\n0 0 1/0\n",
        "not a matrix": b"\xff\xfe",
        "wrong field": cold_bytes.replace(b" QQ ", b" GF:7 ", 1),
    }
    for what, data in damaged.items():
        path = tmp_path / name
        path.write_bytes(data)
        warm = foulkes_howe(2, 3, 2, cache=str(tmp_path))
        assert slice_matrix(warm) == cold_matrix, what
        assert path.read_bytes() == cold_bytes, what


def test_fh_cached_block_of_another_shape_is_rebuilt(tmp_path):
    cold = foulkes_howe(2, 3, 2, cache=str(tmp_path / "cold"))
    cold_matrix = slice_matrix(cold)
    cold_bytes = (tmp_path / "cold" / "fhw-a2-b3-k2-w0.mat").read_bytes()
    # the weight-2 block under the weight-0 block's stem passes every check
    # of the file format: right sha256, right key, right field
    block = load_matrix(tmp_path / "cold" / "fhw-a2-b3-k2-w2.mat")
    assert block.shape != cold.shapes()[0]
    path = tmp_path / "fhw-a2-b3-k2-w0.mat"
    dump_matrix(block, path, key=path.stem)
    assert load_matrix(path, key=path.stem) == block
    warm = foulkes_howe(2, 3, 2, cache=str(tmp_path))
    assert slice_matrix(warm) == cold_matrix
    assert path.read_bytes() == cold_bytes


def test_fh_full_cache_file_is_never_loaded(tmp_path, monkeypatch):
    # a full slice under the stem that held full slices, and the weight >= 0
    # half under the stem that held halves
    fh = foulkes_howe(2, 3, 2)
    want = slice_matrix(fh)
    stale = tmp_path / "fh-a2-b3-k2.mat"
    dump_matrix(want, stale, key=stale.stem)
    half = tmp_path / "fhw-a2-b3-k2.mat"
    kept = {key: v for key, v in want.entries.items() if fh.col_weights[key[1]] >= 0}
    dump_matrix(ExactMatrix(*want.shape, kept), half, key=half.stem)
    legacy = {path: path.read_bytes() for path in (stale, half)}
    loaded = []

    def recording(path, key=None):
        loaded.append(path.name)
        return load_matrix(path, key)

    monkeypatch.setattr(polyring, "load_matrix", recording)
    for _ in range(2):
        fh = foulkes_howe(2, 3, 2, cache=str(tmp_path))
        assert slice_matrix(fh) == want
    # the first run builds and writes every block, the second loads each once
    assert loaded == block_files(fh)
    assert {path: path.read_bytes() for path in legacy} == legacy


def test_fh_rank_builds_and_caches_only_the_eliminated_block(tmp_path, monkeypatch):
    plain = fh_rank_report(3, 4, 5, rng=random.Random(2))
    built, loaded, dumped = [], [], []
    build, load, dump = fhmaps.Slice.build, polyring.load_matrix, polyring.dump_matrix
    monkeypatch.setattr(fhmaps.Slice, "build", lambda self, w: built.append(w) or build(self, w))
    monkeypatch.setattr(polyring, "load_matrix", lambda path, key=None: loaded.append(key) or load(path, key))
    monkeypatch.setattr(polyring, "dump_matrix", lambda m, path, key=None: dumped.append(key) or dump(m, path, key))
    cold = fh_rank_report(3, 4, 5, rng=random.Random(2), cache=str(tmp_path))
    assert (built, loaded, dumped) == ([0], [], ["fhw-a3-b4-k5-w0"])
    assert [p.name for p in tmp_path.iterdir()] == ["fhw-a3-b4-k5-w0.mat"]
    built.clear(), dumped.clear()
    warm = fh_rank_report(3, 4, 5, rng=random.Random(2), cache=str(tmp_path))
    assert (built, loaded, dumped) == ([], ["fhw-a3-b4-k5-w0"], [])
    assert cold == warm == plain


def test_fh_matrix_after_a_rank_only_run_builds_the_missing_blocks(tmp_path):
    fh_rank_report(2, 3, 2, cache=str(tmp_path))
    assert [p.name for p in tmp_path.iterdir()] == ["fhw-a2-b3-k2-w0.mat"]
    full = foulkes_howe(2, 3, 2, cache=str(tmp_path))
    assert slice_matrix(full).entries == reference_slice_entries(2, 3, 2)
    assert {p.name for p in tmp_path.iterdir()} == set(block_files(full))


SHAPE_GRID = [
    (1, 1, 0), (1, 1, 3), (1, 3, 2), (2, 1, 3), (3, 1, 0), (2, 2, 2),
    (2, 3, 3), (3, 2, 4), (1, 5, 1), (3, 4, 4), (2, 6, 4), (3, 4, 5),
]


@pytest.mark.parametrize("a, b, k", SHAPE_GRID)
def test_fh_counted_shapes_equal_the_enumerated_ones(a, b, k):
    rows = plethysm_basis(a * k, b)
    cols = plethysm_basis(k, a * b)
    row_weights = [sum(e * (2 * i - b) for i, e in enumerate(m)) for m in rows]
    col_weights = [sum(e * (2 * j - a * b) for j, e in enumerate(m)) for m in cols]
    by_row, by_col = Counter(row_weights), Counter(col_weights)
    want = {w: (by_row[w], by_col[w]) for w in sorted(set(by_row) | set(by_col))}
    fh = foulkes_howe(a, b, k)
    assert fh.shapes() == want
    assert list(fh.shapes()) == list(want)
    # every weight 2s - abk, 0 <= s <= abk, has rows and columns on both
    # sides, so no slice has a block without columns or without rows
    assert [w for w, (r, c) in want.items() if not r or not c] == []
    assert (fh.source_dim, fh.target_dim) == (len(cols), len(rows))
    assert (fh.row_basis, fh.col_basis) == (rows, cols)
    assert (list(fh.row_weights), list(fh.col_weights)) == (row_weights, col_weights)
    # listed once per slice
    assert fh.col_weights is fh.col_weights


def forbid_basis_listing(monkeypatch):
    """Make every reference to ``plethysm_basis`` in the package fail."""

    def listed(m, n):
        raise AssertionError(f"plethysm_basis({m}, {n}) was listed")

    for module in (sl2rep, fhmaps, polyring, homres):
        monkeypatch.setattr(module, "plethysm_basis", listed)


def test_fh_rank_lists_no_basis_cold_or_warm(tmp_path, monkeypatch):
    plain = fh_rank_report(3, 4, 5, rng=random.Random(2))
    forbid_basis_listing(monkeypatch)
    cold = fh_rank_report(3, 4, 5, rng=random.Random(2), cache=str(tmp_path))
    (path,) = tmp_path.iterdir()
    assert path.name == "fhw-a3-b4-k5-w0.mat"
    stamp = (path.read_bytes(), path.stat().st_mtime_ns)
    warm = fh_rank_report(3, 4, 5, rng=random.Random(2), cache=str(tmp_path))
    assert list(tmp_path.iterdir()) == [path]
    assert (path.read_bytes(), path.stat().st_mtime_ns) == stamp
    assert cold == warm == plain


def test_fh_oversize_slice_is_refused_before_listing(monkeypatch):
    # 237,336 x 888,030: the counted shape alone is over any budget
    forbid_basis_listing(monkeypatch)
    with pytest.raises(ResourceLimitError, match="237336 x 888030"):
        fh_rank_report(4, 5, 7)


def test_fh_rank_report_bijective_cases():
    r = fh_rank_report(2, 3, 3)
    assert (r["source_dim"], r["target_dim"], r["rank"]) == (84, 84, 84)
    assert r["injective"] and r["surjective"] and r["maximal_rank"]
    r = fh_rank_report(3, 2, 2)
    assert (r["source_dim"], r["target_dim"], r["rank"]) == (28, 28, 28)
    assert r["maximal_rank"] and r["status"] == "ok"


def test_fh_rank_report_2_4_4():
    r = fh_rank_report(2, 4, 4)
    assert r["source_dim"] == r["target_dim"] == r["rank"] == 495
    assert r["injective"] and r["surjective"]


def test_fh_rank_report_modular_mode():
    r = fh_rank_report(2, 2, 2, mode="modular", rng=random.Random(3))
    assert r["rank"] == 15 and r["mode"] == "modular"
    assert len(r["primes"]) == 2


BENCH_SLICES = [(3, 4, 4), (2, 6, 4), (3, 4, 5)]


@pytest.mark.parametrize("abk", BENCH_SLICES)
def test_fh_full_rank_settles_on_one_prime(abk):
    """In auto a full rank modulo the fixed prime is exact, names that prime
    and draws nothing from the generator."""
    rng = random.Random(2)
    state = rng.getstate()
    r = fh_rank_report(*abk, rng=rng)
    assert rng.getstate() == state
    assert (r["mode"], r["primes"], r["escalated"]) == ("exact", [fhmaps.FULL_RANK_PRIME], False)
    exact = fh_rank_report(*abk, mode="exact")
    assert r["rank"] == exact["rank"] == min(r["source_dim"], r["target_dim"])
    assert r["maximal_rank"] is exact["maximal_rank"] is True


def one_prime_short(monkeypatch):
    """Make every one-prime kernel call report one less than the rank;
    returns the list of prime counts the kernel was called with."""
    from bfsyz.exactalg import _modp

    real = _modp.rank_mod_p_dense
    calls = []

    def short(a, primes):
        calls.append(len(primes))
        r = real(a, primes)
        return r - 1 if len(primes) == 1 else r

    monkeypatch.setattr(_modp, "rank_mod_p_dense", short)
    return calls


@pytest.mark.parametrize("abk, fallback", [((3, 4, 5), "modular"), ((3, 4, 4), "exact")])
def test_fh_short_one_prime_rank_takes_the_full_path(monkeypatch, exact_dim_limit, abk, fallback):
    """Below the bound the one-prime rank proves nothing: the report is the
    one the largest eliminable block's mode gives, with the same verdict: at
    a limit of 100, two drawn primes at (3,4,5), whose weight-0 block is
    150 x 252, and Bareiss at (3,4,4), whose blocks are at most 86 x 86."""
    exact_dim_limit(100)
    calls = one_prime_short(monkeypatch)
    r = fh_rank_report(*abk, rng=random.Random(2))
    assert calls[0] == 1
    assert r == fh_rank_report(*abk, mode=fallback, rng=random.Random(2))
    assert r["maximal_rank"] is True and r["status"] == "ok"
    assert r["primes"] == ([] if fallback == "exact" else draw_primes(random.Random(2)))


def test_minors_check_span_settles_on_one_prime():
    rng = random.Random(5)
    state = rng.getstate()
    rep = minors_generate_check(2, 3, rng=rng)
    assert rng.getstate() == state
    assert rep["span_dim"] == rep["kernel_dim"] == 45 and rep["equal"] is True
    assert (rep["mode"], rep["primes"], rep["status"]) == ("exact", [fhmaps.FULL_RANK_PRIME], "ok")


def test_minors_check_short_one_prime_span_takes_the_full_path(monkeypatch):
    calls = one_prime_short(monkeypatch)
    rep = minors_generate_check(2, 3, rng=random.Random(5))
    # every kernel call was a one-prime pass; alpha and the span were then
    # retaken by exact elimination, as the full shapes choose
    assert calls and set(calls) == {1}
    assert rep == minors_generate_check(2, 3, "exact")


def test_fh_maximal_rank_small_grid():
    for a in (1, 2):
        for b in (1, 2, 3):
            for k in range(b + 2):
                r = fh_rank_report(a, b, k)
                assert r["maximal_rank"], (a, b, k)
                if k <= b:
                    assert r["injective"], (a, b, k)
                if k >= b:
                    assert r["surjective"], (a, b, k)


def test_fh_validation():
    with pytest.raises(ValueError):
        foulkes_howe(0, 2, 1)
    with pytest.raises(ValueError):
        fh_rank_report(2, 2, -1)


@pytest.mark.parametrize("mem_mb", [0, -5])
def test_fh_rank_report_rejects_non_positive_mem_mb(mem_mb):
    # a usage error, as for --mem-mb and BFSYZ_MEM_MB, not an inconclusive budget
    with pytest.raises(ValueError, match="mem_mb must be a positive integer"):
        fh_rank_report(2, 3, 3, "modular", mem_mb=mem_mb)


# ---------------------------------------------------------------------------
# omega matrix and maximal minors


def test_omega_2_1_is_the_conic():
    m = omega_matrix(2, 1)
    assert (m.nrows, m.ncols) == (2, 2)
    minors = maximal_minors(m)
    assert len(minors) == 1
    z = m.ring
    conic = 4 * (z.variable(0) * z.variable(2)) - z.variable(1) * z.variable(1)
    assert minors[0] == conic


def test_omega_closed_form():
    # entry (r, j) = (d*j - i*b) * z_i with i = r - j + 1
    for a, b in [(2, 2), (3, 2), (2, 3)]:
        d = a * b
        m = omega_matrix(a, b)
        assert (m.nrows, m.ncols) == (d + b - 1, b + 1)
        for r in range(m.nrows):
            for j in range(m.ncols):
                i = r - j + 1
                entry = m.entry(r, j)
                if 0 <= i <= d and d * j - i * b != 0:
                    assert entry == (d * j - i * b) * m.ring.variable(i)
                else:
                    assert entry.is_zero()


def evaluate(m, point) -> ExactMatrix:
    """The numeric matrix of the linear-form matrix ``m`` at a rational point of the z-space."""
    return ExactMatrix(m.nrows, m.ncols, {key: poly.evaluate(point) for key, poly in m.entries.items()})


def test_omega_rank_drop_on_powers():
    rng = random.Random(14)
    for a, b in [(2, 2), (3, 2), (2, 3)]:
        m = omega_matrix(a, b)
        pg = power_generators(a, b)
        for _ in range(10):
            c = [rng.randint(-6, 6) for _ in range(b + 1)]
            point = [p.evaluate(c) for p in pg.polys]
            assert rank(evaluate(m, point), "exact") <= b
        hits = 0
        for _ in range(10):
            pt = [rng.randint(-1000, 1000) for _ in range(a * b + 1)]
            if rank(evaluate(m, pt), "exact") == b + 1:
                hits += 1
        assert hits == 10  # genericity at this seed


def test_minors_count_and_degree():
    minors = maximal_minors(omega_matrix(2, 2))
    assert len(minors) == comb(5, 3) == 10
    assert all(p.homogeneous_degree == 3 for p in minors if not p.is_zero())
    # the ideal drops repeated minors: 3 of the 70 at (2, 3)
    assert len(minors_ideal(2, 3).generators) == 67
    assert minors_ideal(2, 3).spanning_data(4).shape == (comb(10, 4), 67)


def test_minors_vanish_on_power_substitution():
    for a, b in [(2, 2), (2, 3)]:
        pg = power_generators(a, b)
        for minor in maximal_minors(omega_matrix(a, b)):
            assert minor.evaluate(pg.polys).is_zero()


def test_minors_generate_check_values():
    rep = minors_generate_check(2, 2)
    assert rep["span_dim"] == rep["kernel_dim"] == 7
    assert rep["contained"] and rep["equal"] and rep["status"] == "ok"
    rep = minors_generate_check(3, 2)
    assert rep["span_dim"] == rep["kernel_dim"] == 29
    assert rep["equal"]


def test_minors_check_sees_a_column_outside_the_kernel(monkeypatch):
    """A planted generator that alpha does not annihilate breaks containment:
    z_0^(b+1) goes to P_0^(b+1) = c_0^(a(b+1))."""
    original = fhmaps.minors_ideal

    def planted(a, b):
        ideal = original(a, b)
        return GradedIdeal(ideal.ring, [*ideal.generators, ideal.ring.variable(0) ** (b + 1)])

    monkeypatch.setattr(fhmaps, "minors_ideal", planted)
    rep = minors_generate_check(2, 2, rng=random.Random(5))
    assert rep["contained"] is False and rep["equal"] is False
    assert rep["kernel_dim"] == 7 and rep["span_dim"] == 8


# ---------------------------------------------------------------------------
# phi


def test_phi_hilbert_burch_shape():
    for a in (1, 2, 3):
        phi = phi_matrix(a, 1)
        assert (phi.nrows, phi.ncols) == (a + 1, a)
        assert phi_syzygy_check(phi)


def test_phi_2_3_kernel_dimension():
    phi = phi_matrix(2, 3)
    assert (phi.nrows, phi.ncols) == (7, 8)
    assert phi_syzygy_check(phi)
    assert list(phi.col_weights) == sorted(phi.col_weights)
    assert len(set(phi.col_weights)) == 8


def test_phi_entries_are_linear():
    phi = phi_matrix(2, 2)
    for poly in phi.entries.values():
        assert poly.homogeneous_degree == 1


def test_phi_skew_normalizable_b2():
    for a in (2, 3):
        phi = phi_matrix(a, 2)
        assert (phi.nrows, phi.ncols) == (2 * a + 1, 2 * a + 1)
        assert skew_normalizable(phi)
    with pytest.raises(ValueError):
        skew_normalizable(phi_matrix(2, 1))


# ---------------------------------------------------------------------------
# term tables


def test_sr_terms_r1():
    t = sr_wr_terms(2, 3, 1)
    assert [(tp.i, tp.twist, tp.s_dim) for tp in t.terms] == [(0, 0, 7), (1, -1, 8)]
    assert t.char_match is None  # r != b-1


def test_sr_wr_char_match_at_top():
    assert sr_wr_terms(2, 3, 2).char_match == (True, True, True)
    assert sr_wr_terms(1, 4, 3).char_match == (True, True, True, True)
    assert sr_wr_terms(3, 2, 1).char_match == (True, True)


# ---------------------------------------------------------------------------
# highest weight triple and the kernel ideal


def test_hw_triple_report(tmp_path):
    rep = hw_triple_report()
    assert rep["triple"] == [Fraction(1), Fraction(-1, 3), Fraction(4, 3)]
    assert rep["reference"] == [Fraction(1), Fraction(1, 4), Fraction(1, 2)]
    assert rep["differs"]
    # each hw vector is pushed through the columns at its weight only
    assert hw_triple_report(cache=str(tmp_path)) == rep
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "fhw-a2-b2-k2-w0.mat", "fhw-a2-b2-k2-w4.mat", "fhw-a2-b2-k2-w8.mat",
    ]


def test_slice_kernels_match_the_dense_reference():
    # the slices of criterion 1's grid; those with k > b have a kernel
    nonzero = 0
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            for k in range(b + 2):
                fh = foulkes_howe(a, b, k)
                kernel = blocked_kernel_basis(fh, fh.col_weights)
                assert kernel == reference_kernel(slice_matrix(fh), fh.col_weights), (a, b, k)
                for vec in kernel:
                    assert_primitive(vec)
                nonzero += bool(kernel)
    assert nonzero


def test_ix_kernel_ideal_2_2():
    ix = ix_kernel_ideal(2, 2)
    assert len(ix.generators) == 7
    assert all(g.homogeneous_degree == 3 for g in ix.generators)
    assert ix.graded_piece(3).ncols == 7
    # generated in degree b+1: the degree-4 piece already fills ker(alpha_4)
    assert ix.graded_piece(4).ncols == comb(8, 4) - comb(10, 2)


def test_minor_span_inside_ix_ideal():
    ix = ix_kernel_ideal(2, 2)
    ring = ix.ring
    index = plethysm_index(3, ring.nvars - 1)
    piece = ix.graded_piece(3)
    from bfsyz.exactalg.matrix import bareiss_rank_rows

    base_rows = dict_rows(transpose(piece))
    for minor in maximal_minors(omega_matrix(2, 2)):
        row = {index[exp]: coeff for exp, coeff in minor.terms.items()}
        assert bareiss_rank_rows(base_rows + [row], ring.dimension(3)) == piece.ncols


def test_power_ideal_matches_generators():
    ideal = power_ideal(2, 2)
    assert len(ideal.generators) == 5
    assert ideal.graded_piece(2).ncols == 5
