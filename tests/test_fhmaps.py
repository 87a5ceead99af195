"""Power-map layer: generators, alpha matrices, omega, minors, phi, term data."""

import random
from fractions import Fraction
from math import comb

import pytest

from bfsyz import fhmaps, polyring
from bfsyz.exactalg import ExactMatrix, dump_matrix, load_matrix, rank
from bfsyz.fhmaps import (
    fh_rank_report,
    foulkes_howe,
    hw_triple_report,
    ix_kernel_ideal,
    maximal_minors,
    minors_generate_check,
    mirror,
    omega_matrix,
    phi_matrix,
    phi_syzygy_check,
    power_generators,
    power_ideal,
    skew_normalizable,
    sr_wr_terms,
)
from bfsyz.polyring import MultiPoly, PolyRing
from bfsyz.sl2rep import BinaryForm, plethysm_basis, plethysm_index


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
    fh = mirror(foulkes_howe(2, 2, 1))
    assert fh.matrix.shape == (6, 5)
    assert rank(fh.matrix, "exact") == 5  # full column rank d+1
    fh = mirror(foulkes_howe(2, 3, 1))
    assert fh.matrix.shape == (10, 7)
    assert rank(fh.matrix, "exact") == 7


def test_fh_degree_zero_identity():
    fh = foulkes_howe(3, 2, 0)
    assert fh.matrix.shape == (1, 1)
    assert fh.matrix.entries == {(0, 0): 1}


def test_fh_2_2_shapes_and_ranks():
    fh2 = mirror(foulkes_howe(2, 2, 2))
    assert fh2.matrix.shape == (15, 15)
    assert rank(fh2.matrix, "exact") == 15
    fh3 = mirror(foulkes_howe(2, 2, 3))
    assert fh3.matrix.shape == (28, 35)
    assert rank(fh3.matrix, "exact") == 28


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
    fh = foulkes_howe(a, b, k)
    reference = reference_slice_entries(a, b, k)
    # the half holds the reference's entries in the columns of weight >= 0, in
    # the same order, so every consumer sees the same matrix
    half = [(key, v) for key, v in reference.items() if fh.col_weights[key[1]] >= 0]
    assert list(fh.matrix.entries.items()) == half
    assert fh.matrix.shape == (comb(a * k + b, b), comb(k + a * b, k))
    full = mirror(fh)
    assert full.matrix.entries == reference
    assert full.matrix.shape == fh.matrix.shape
    assert full[:4] == fh[:4] and full[5:] == fh[5:]


def test_fh_multiplicativity():
    # column(beta + delta_j) = P_j * column(beta), sampled over (2, 2)
    rng = random.Random(10)
    pg = power_generators(2, 2)
    fh2 = mirror(foulkes_howe(2, 2, 2))
    fh3 = mirror(foulkes_howe(2, 2, 3))

    def column_poly(fh, colno, degree):
        terms = {}
        for (r, c), v in fh.matrix.entries.items():
            if c == colno:
                terms[fh.row_basis[r]] = v
        return MultiPoly(pg.ring, terms)

    col3_index = {m: i for i, m in enumerate(fh3.col_basis)}
    for _ in range(10):
        beta = rng.choice(fh2.col_basis)
        j = rng.randrange(5)
        lifted = list(beta)
        lifted[j] += 1
        lhs = column_poly(fh3, col3_index[tuple(lifted)], 6)
        rhs = pg.polys[j] * column_poly(fh2, fh2.col_basis.index(beta), 4)
        assert lhs == rhs


def block_files(fh) -> list:
    """The cache file names of the blocks of weight >= 0 of a slice, in weight order."""
    a, b, k = fh.a, fh.b, fh.k
    return [f"fhw-a{a}-b{b}-k{k}-w{w}.mat" for w in sorted({w for w in fh.col_weights if w >= 0})]


def test_fh_cache_roundtrip(tmp_path):
    cold = foulkes_howe(2, 2, 2, cache=str(tmp_path))
    # nothing is built, and nothing written, before a block is read
    assert list(tmp_path.iterdir()) == []
    cold_matrix = cold.matrix
    assert {p.name for p in tmp_path.iterdir()} == set(block_files(cold))
    warm = foulkes_howe(2, 2, 2, cache=str(tmp_path))
    assert warm.matrix == cold_matrix == foulkes_howe(2, 2, 2).matrix


def test_fh_damaged_cache_is_rebuilt(tmp_path):
    cold = foulkes_howe(2, 3, 2, cache=str(tmp_path / "cold"))
    cold_matrix = cold.matrix
    name = "fhw-a2-b3-k2-w0.mat"
    cold_bytes = (tmp_path / "cold" / name).read_bytes()
    other = tmp_path / "other"
    fh_rank_report(2, 3, 3, cache=str(other))  # writes the weight-0 block alone
    wrong_shape = (other / "fhw-a2-b3-k3-w0.mat").read_bytes()
    gf = other / name
    dump_matrix(ExactMatrix(*cold.blocks.shapes()[0], {(0, 0): 1}, field="GF:7"), gf, key=gf.stem)
    damaged = {
        "wrong shape": wrong_shape,
        "unparseable": b"BFSYZ-MAT v1 35 28 sparse QQ\n0 0 1/0\n",
        "not a matrix": b"\xff\xfe",
        "wrong field": gf.read_bytes(),
    }
    for what, data in damaged.items():
        path = tmp_path / name
        path.write_bytes(data)
        warm = foulkes_howe(2, 3, 2, cache=str(tmp_path))
        assert warm.matrix == cold_matrix, what
        assert path.read_bytes() == cold_bytes, what


def test_fh_cached_block_of_another_shape_is_rebuilt(tmp_path):
    cold = foulkes_howe(2, 3, 2, cache=str(tmp_path / "cold"))
    cold_matrix = cold.matrix
    cold_bytes = (tmp_path / "cold" / "fhw-a2-b3-k2-w0.mat").read_bytes()
    # the weight-2 block under the weight-0 block's stem passes every check
    # of the file format: right sha256, right key, right field
    block = load_matrix(tmp_path / "cold" / "fhw-a2-b3-k2-w2.mat")
    assert block.shape != cold.blocks.shapes()[0]
    path = tmp_path / "fhw-a2-b3-k2-w0.mat"
    dump_matrix(block, path, key=path.stem)
    assert load_matrix(path, key=path.stem) == block
    warm = foulkes_howe(2, 3, 2, cache=str(tmp_path))
    assert warm.matrix == cold_matrix
    assert path.read_bytes() == cold_bytes


def test_fh_full_cache_file_is_never_loaded(tmp_path, monkeypatch):
    # a full slice under the stem that held full slices, and the weight >= 0
    # half under the stem that held halves
    want = foulkes_howe(2, 3, 2).matrix
    stale = tmp_path / "fh-a2-b3-k2.mat"
    dump_matrix(mirror(foulkes_howe(2, 3, 2)).matrix, stale, key=stale.stem)
    half = tmp_path / "fhw-a2-b3-k2.mat"
    dump_matrix(want, half, key=half.stem)
    legacy = {path: path.read_bytes() for path in (stale, half)}
    loaded = []

    def recording(path, key=None):
        loaded.append(path.name)
        return load_matrix(path, key)

    monkeypatch.setattr(polyring, "load_matrix", recording)
    for _ in range(2):
        fh = foulkes_howe(2, 3, 2, cache=str(tmp_path))
        assert fh.matrix == want
    # the first run builds and writes every block, the second loads each once
    assert loaded == block_files(fh)
    assert {path: path.read_bytes() for path in legacy} == legacy


def test_fh_rank_builds_and_caches_only_the_eliminated_block(tmp_path, monkeypatch):
    plain = fh_rank_report(3, 4, 5, rng=random.Random(2))
    built, loaded, dumped = [], [], []
    build, load, dump = fhmaps._SliceSource.build, polyring.load_matrix, polyring.dump_matrix
    monkeypatch.setattr(fhmaps._SliceSource, "build", lambda self, w: built.append(w) or build(self, w))
    monkeypatch.setattr(polyring, "load_matrix", lambda path, key=None: loaded.append(key) or load(path, key))
    monkeypatch.setattr(polyring, "dump_matrix", lambda m, path, key=None: dumped.append(key) or dump(m, path, key))
    cold = fh_rank_report(3, 4, 5, rng=random.Random(2), cache=str(tmp_path))
    assert (built, loaded, dumped) == ([0], [], ["fhw-a3-b4-k5-w0"])
    assert [p.name for p in tmp_path.iterdir()] == ["fhw-a3-b4-k5-w0.mat"]
    built.clear(), dumped.clear()
    warm = fh_rank_report(3, 4, 5, rng=random.Random(2), cache=str(tmp_path))
    assert (built, loaded, dumped) == ([], ["fhw-a3-b4-k5-w0"], [])
    assert cold == warm == plain


def test_fh_mirror_after_a_rank_only_run_builds_the_missing_blocks(tmp_path):
    fh_rank_report(2, 3, 2, cache=str(tmp_path))
    assert [p.name for p in tmp_path.iterdir()] == ["fhw-a2-b3-k2-w0.mat"]
    full = mirror(foulkes_howe(2, 3, 2, cache=str(tmp_path)))
    assert full.matrix.entries == reference_slice_entries(2, 3, 2)
    assert {p.name for p in tmp_path.iterdir()} == set(block_files(full))


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


def test_omega_rank_drop_on_powers():
    rng = random.Random(14)
    for a, b in [(2, 2), (3, 2), (2, 3)]:
        m = omega_matrix(a, b)
        pg = power_generators(a, b)
        for _ in range(10):
            c = [rng.randint(-6, 6) for _ in range(b + 1)]
            point = [p.evaluate(c) for p in pg.polys]
            assert rank(m.evaluate(point), "exact") <= b
        hits = 0
        for _ in range(10):
            pt = [rng.randint(-1000, 1000) for _ in range(a * b + 1)]
            if rank(m.evaluate(pt), "exact") == b + 1:
                hits += 1
        assert hits == 10  # genericity at this seed


def test_minors_count_and_degree():
    minors = maximal_minors(omega_matrix(2, 2))
    assert len(minors) == comb(5, 3) == 10
    assert all(p.homogeneous_degree == 3 for p in minors if not p.is_zero())


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
    """A planted unit vector that alpha does not annihilate breaks containment."""
    fh = foulkes_howe(2, 2, 3)
    c = min(c for _r, c in fh.matrix.entries)  # alpha's column c is nonzero
    original = fhmaps.minors_span_matrix

    def planted(a, b):
        entries, ncols, row_labels, col_labels = original(a, b)
        entries = {**entries, (c, ncols): 1}
        return entries, ncols + 1, row_labels, col_labels + [row_labels[c]]

    monkeypatch.setattr(fhmaps, "minors_span_matrix", planted)
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


def test_hw_triple_report():
    rep = hw_triple_report()
    assert rep["triple"] == [Fraction(1), Fraction(-1, 3), Fraction(4, 3)]
    assert rep["reference"] == [Fraction(1), Fraction(1, 4), Fraction(1, 2)]
    assert rep["differs"]


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
    index = ring.monomial_index(3)
    piece = ix.graded_piece(3)
    from bfsyz.exactalg.matrix import bareiss_rank_rows

    base_rows = piece.transpose().to_rows()
    for minor in maximal_minors(omega_matrix(2, 2)):
        row = [0] * ring.dimension(3)
        for exp, coeff in minor.terms.items():
            row[index[exp]] = coeff
        assert bareiss_rank_rows(base_rows + [row], ring.dimension(3)) == piece.ncols


def test_power_ideal_matches_generators():
    ideal = power_ideal(2, 2)
    assert len(ideal.generators) == 5
    assert ideal.graded_piece(2).ncols == 5
