"""CLI layer: subcommands, exit codes, report envelopes, determinism."""

import hashlib
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from bfsyz import __version__, cli
from bfsyz.cli import main
from bfsyz.exactalg import load_matrix


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# exit codes


def test_fh_rank_bijective_slice_verifies(capsys):
    code, rep = run_json(capsys, "fh-rank", "--a", "2", "--b", "2", "--k", "2")
    assert code == 0
    assert rep["status"] == "verified"
    assert rep["report"]["rank"] == 15
    assert rep["bijective"] is True
    assert rep["version"] == __version__


def test_fh_rank_oversize_slice_is_inconclusive(capsys, monkeypatch):
    from bfsyz import fhmaps, homres, polyring, sl2rep

    def listed(m, n):
        raise AssertionError("a basis was listed before the budget refused the slice")

    for module in (sl2rep, fhmaps, polyring, homres):
        monkeypatch.setattr(module, "plethysm_basis", listed)
    code, rep = run_json(capsys, "fh-rank", "--a", "4", "--b", "5", "--k", "7")
    assert code == 2
    assert rep["status"] == "inconclusive"
    assert "237336 x 888030" in rep["reason"]


def test_fh_rank_rejects_zero_a():
    with pytest.raises(SystemExit) as err:
        main(["fh-rank", "--a", "0", "--b", "2", "--k", "1"])
    assert err.value.code == 3


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 3


@pytest.mark.parametrize("argv", [
    # the certificate's prime count is fixed at two
    pytest.param(("fh-rank", "--a", "2", "--b", "2", "--k", "2", "--trials", "2"), id="trials"),
    # each command takes only the options it reads
    pytest.param(("gens", "--a", "2", "--b", "2", "--mode", "exact"), id="gens-mode"),
    pytest.param(("phi", "--a", "2", "--b", "2", "--seed", "1"), id="phi-seed"),
    pytest.param(("char-check", "--mem-mb", "64"), id="char-check-mem-mb"),
    pytest.param(("hw-triple", "--mode", "modular"), id="hw-triple-mode"),
    pytest.param(("repro", "--only", "2", "--mode", "modular"), id="repro-mode"),
])
def test_options_a_command_does_not_read_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(list(argv))
    assert err.value.code == 3
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["phi", "exactness"])
@pytest.mark.parametrize("b", [3, 4])
def test_phi_of_linear_generators_past_b_2_is_usage_error(capsys, command, b):
    # for a = 1 the linear syzygies number C(b+1, 2), not d + b - 1
    assert main([command, "--a", "1", "--b", str(b)]) == 3
    assert "a = 1 needs b <= 2" in capsys.readouterr().err


def test_iab_pow_requires_power(capsys):
    code = main(["betti", "--target", "iab-pow", "--a", "2", "--b", "2"])
    capsys.readouterr()
    assert code == 3


@pytest.mark.parametrize("target", ["ix", "iab"])
def test_power_outside_iab_pow_is_usage_error(capsys, target):
    # --j names the power of --target iab-pow; elsewhere it would be ignored
    code = main(["betti", "--target", target, "--a", "2", "--b", "2", "--j", "5"])
    assert code == 3
    assert "--j" in capsys.readouterr().err


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "bfsyz", "--version"], capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"bfsyz {__version__}"


def test_installed_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "bfsyz.cli", "hw-triple"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["report"]["triple"] == ["1", "-1/3", "4/3"]
    assert rep["report"]["differs"] is True


# ---------------------------------------------------------------------------
# betti


def test_betti_power_locus_2_2(capsys):
    code, rep = run_json(capsys, "betti", "--target", "ix", "--a", "2", "--b", "2")
    assert code == 0
    assert rep["status"] == "verified"
    values = {(e["i"], e["j"]): e["value"] for e in rep["table"]["entries"] if e["value"]}
    assert values == {(0, 3): 7, (1, 4): 10, (2, 5): 5, (3, 6): 1}
    assert rep["verification"]["ok"] is True


@pytest.mark.parametrize(
    "a,b,nonzero,pd",
    [
        (1, 1, {}, None),  # a = 1: the zero ideal, every closed-form value vanishes
        (1, 2, {}, None),
        (2, 1, {(0, 2): 1}, 0),  # b = 1: the top closed-form values vanish
        (3, 1, {(0, 2): 3, (1, 3): 2}, 1),
        (2, 2, {(0, 3): 7, (1, 4): 10, (2, 5): 5, (3, 6): 1}, 3),
    ],
)
def test_betti_power_locus_degenerate_cases_verify(capsys, a, b, nonzero, pd):
    code, rep = run_json(capsys, "betti", "--target", "ix", "--a", str(a), "--b", str(b))
    assert code == 0
    assert rep["status"] == "verified"
    values = {(e["i"], e["j"]): e["value"] for e in rep["table"]["entries"] if e["value"]}
    assert values == nonzero
    assert rep["verification"]["projective_dimension"] == {"expected": pd, "computed": pd, "match": True}


def test_betti_text_render_has_strand_row(capsys):
    code, out = run_cli(
        capsys, "betti", "--target", "ix", "--a", "2", "--b", "2", "--format", "text"
    )
    assert code == 0
    strand_rows = [ln for ln in out.splitlines() if ln.strip().startswith("3 ")]
    assert strand_rows and strand_rows[0].split() == ["3", "7", "10", "5", "1", ".", "."]
    assert "closed-form comparison: ok" in out


def test_betti_cubic_reference(capsys):
    code, rep = run_json(capsys, "betti", "--target", "iab", "--a", "2", "--b", "3")
    assert code == 0
    assert rep["status"] == "verified"
    assert all(row["match"] for row in rep["reference"]["entries"])


def test_betti_power_two_strands(capsys):
    code, rep = run_json(
        capsys, "betti", "--target", "iab-pow", "--a", "2", "--b", "2", "--j", "1"
    )
    assert code == 0
    assert rep["status"] == "verified"
    values = {(e["i"], e["j"]): e["value"] for e in rep["table"]["entries"] if e["value"]}
    assert values == {(0, 2): 5, (1, 3): 5, (2, 5): 1}


def test_betti_unreferenced_power_reports_computed(capsys):
    code, rep = run_json(
        capsys, "betti", "--target", "iab-pow", "--a", "1", "--b", "2", "--j", "3"
    )
    assert code == 0
    assert rep["status"] == "computed"
    assert rep["reference"] is None


def test_betti_unreferenced_table_with_unknown_entries_is_inconclusive(capsys):
    # (2, 4) has no reference table; 1 MiB leaves three entries unknown
    code, rep = run_json(capsys, "betti", "--target", "iab", "--a", "2", "--b", "4", "--mem-mb", "1")
    assert code == 2
    assert rep["status"] == "inconclusive"
    assert rep["reference"] is None
    assert rep["table"]["unknown"] == [[2, 10], [3, 10], [3, 11]]


# ---------------------------------------------------------------------------
# regularity, initial ideal, scan


def test_reg_both_routes_agree(capsys):
    code, rep = run_json(capsys, "reg", "--a", "2", "--b", "2")
    assert code == 0
    assert rep["formula"] == 3
    assert [r["value"] for r in rep["routes"]] == [3, 3]
    # both routes rest on Weyl-halved ranks: Betti tables and piece dimensions
    assert [r.get("symmetry") for r in rep["routes"]] == ["sl2-weyl", "sl2-weyl"]


def test_initial_ideal_generator_count_and_agreement(capsys):
    code, rep = run_json(capsys, "initial-ideal", "--a", "2", "--b", "2")
    assert code == 0
    assert rep["generator_count"] == 5
    assert rep["agree"] is True
    assert rep["hf_initial_quotient"] == rep["hf_power_quotient"]
    assert rep["symmetry"] == "sl2-weyl"


def test_conjecture_scan_is_labeled_evidence(capsys):
    code, rep = run_json(capsys, "conjecture-scan", "--a", "2", "--b", "2", "--jmax", "2")
    assert code == 0
    assert rep["label"] == "evidence"
    assert [e["status"] for e in rep["entries"]] == ["matches", "matches"]
    assert [e["computed"] for e in rep["entries"]] == [3, 4]
    assert [e["symmetry"] for e in rep["entries"]] == ["sl2-weyl", "sl2-weyl"]


# ---------------------------------------------------------------------------
# the remaining verifications


def test_minors_check_verifies(capsys):
    code, rep = run_json(capsys, "minors-check", "--a", "2", "--b", "2")
    assert code == 0
    assert rep["report"]["span_dim"] == 7
    assert rep["report"]["symmetry"] == "sl2-weyl"


def test_phi_reports_syzygy_and_skew(capsys):
    code, rep = run_json(capsys, "phi", "--a", "2", "--b", "2")
    assert code == 0
    # phi draws no primes and picks no mode, so its report names neither
    assert "mode" not in rep and "seed" not in rep
    assert rep["shape"] == [5, 5]
    assert rep["syzygy_ok"] is True
    assert rep["skew_normalizable"] is True


def test_char_check_counts(capsys):
    code, rep = run_json(capsys, "char-check", "--a-max", "3", "--b-max", "3")
    assert code == 0
    assert rep["checked"] == 18
    assert rep["failures"] == []


def test_coker_hf_values(capsys):
    code, rep = run_json(capsys, "coker-hf", "--a", "2", "--b", "2", "--kmax", "3")
    assert code == 0
    assert rep["values"] == [0, 1, 0, 0]
    assert rep["vanishes_from_b_on"] is True
    assert rep["symmetry"] == "sl2-weyl"


def test_exactness_certificate(capsys):
    code, rep = run_json(capsys, "exactness", "--a", "2", "--b", "2")
    assert code == 0
    assert rep["status"] == "verified"
    assert [s["rank"] for s in rep["shape"]] == [5, 5, 1]
    # the ideal's piece dimensions are Weyl-halved, the complex's ranks are not
    assert rep["certificate"]["symmetry"] == "sl2-weyl"
    assert json.dumps(rep).count("symmetry") == 1
    assert rep["certificate"]["resolves"] is True


def test_exactness_window_must_reach_the_top_generators(capsys):
    # at (2, 2) the position-2 generator, which carries the connecting map,
    # sits in degree d + b - 1 = 5: a window below it certifies nothing
    assert main(["exactness", "--a", "2", "--b", "2", "--window-hi", "4"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "below 5 = d + b - 1" in captured.err
    code, rep = run_json(capsys, "exactness", "--a", "2", "--b", "2", "--window-hi", "5")
    assert code == 0
    assert rep["certificate"]["window"] == [0, 5] and rep["certificate"]["resolves"] is True


def test_repro_single_criterion(capsys):
    code, rep = run_json(capsys, "repro", "--only", "2")
    assert code == 0
    assert "mode" not in rep and "seed" in rep
    assert rep["overall"] == "verified"
    assert rep["criteria"][0]["status"] == "pass"


# ---------------------------------------------------------------------------
# report discipline


def test_reports_are_byte_identical_across_runs(capsys):
    _, first = run_cli(capsys, "betti", "--target", "ix", "--a", "2", "--b", "2",
                       "--mode", "modular")
    _, second = run_cli(capsys, "betti", "--target", "ix", "--a", "2", "--b", "2",
                        "--mode", "modular")
    assert first == second


# the stdout sha256 of reports whose maps are read as weight blocks; a change
# that alters these bytes on purpose updates them and says so
PINNED_REPORTS = {
    ("minors-check", "--a", "2", "--b", "3", "--mode", "modular", "--seed", "1"):
        "8af5523b69ee126979a8d86fc6bf245c4ae7c3b632dcd8a51ea18dd515f93b67",
    ("phi", "--a", "3", "--b", "3"):
        "92aa4ca7ed6a624834188515c86c3cd7778b49a229d96a73ead8c13bf803807c",
    ("hw-triple",):
        "7a00bc4a40af2bcbf9e0efadc15bf84f19df5397c57acada55f0535c5b014015",
    ("exactness", "--a", "2", "--b", "3", "--seed", "1"):
        "e1ec25acdcede1d6ecc567cd16413f84bd4111dd5c33d9f5aba2d49e8526345c",
    # ideal_power and the Koszul path of an ideal
    ("betti", "--target", "iab-pow", "--a", "2", "--b", "3", "--j", "2", "--seed", "1"):
        "8db0ceb2feb0de88b9c33f469d9bf4c51df64a0d4a5559e3ff9b9515dd131f47",
    ("conjecture-scan", "--a", "2", "--b", "2", "--jmax", "3", "--seed", "1"):
        "7d011f975f7560cc2ba321e2e04153df1d041b6f9a68f857798d5817b31476e1",
    ("betti", "--target", "iab", "--a", "3", "--b", "3", "--seed", "1"):
        "6096f9f616b36887b6e49c083315a60232da6d8875bbef357aaa75463db1af9e",
}


def test_pinned_report_bytes(capsys, monkeypatch):
    for name in ("BFSYZ_CACHE", "BFSYZ_SEED", "BFSYZ_MEM_MB"):
        monkeypatch.delenv(name, raising=False)
    for argv, digest in PINNED_REPORTS.items():
        _, out = run_cli(capsys, *argv)
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_thread_count_does_not_change_the_report(capsys):
    _, serial = run_cli(capsys, "betti", "--target", "iab", "--a", "2", "--b", "2")
    _, threaded = run_cli(capsys, "betti", "--target", "iab", "--a", "2", "--b", "2",
                          "--threads", "4")
    assert serial == threaded


def test_cache_does_not_change_the_report(capsys, tmp_path):
    _, cold = run_cli(capsys, "fh-rank", "--a", "2", "--b", "2", "--k", "2",
                      "--cache", str(tmp_path))
    _, warm = run_cli(capsys, "fh-rank", "--a", "2", "--b", "2", "--k", "2",
                      "--cache", str(tmp_path))
    _, plain = run_cli(capsys, "fh-rank", "--a", "2", "--b", "2", "--k", "2")
    assert cold == warm == plain


def test_damaged_cache_gives_the_cold_report(capsys, tmp_path):
    argv = ("fh-rank", "--a", "2", "--b", "3", "--k", "2", "--cache")
    _, cold = run_cli(capsys, *argv, str(tmp_path / "cold"))
    run_cli(capsys, "fh-rank", "--a", "2", "--b", "3", "--k", "3", "--cache", str(tmp_path))
    # a rank reads the weight-0 block of these slices only (8 x 8 and 5 x 4)
    wrong_shape = (tmp_path / "fhw-a2-b3-k3-w0.mat").read_bytes()
    for data in (wrong_shape, b"BFSYZ-MAT v1 35 28 sparse QQ\n0 0\n"):
        (tmp_path / "fhw-a2-b3-k2-w0.mat").write_bytes(data)
        code, out = run_cli(capsys, *argv, str(tmp_path))
        assert (code, out) == (0, cold)


def v1_text(matrix) -> str:
    """The matrix in the retired text format v1, as earlier releases cached it."""
    lines = [f"BFSYZ-MAT v1 {matrix.nrows} {matrix.ncols} sparse QQ"]
    for (i, j), v in sorted(matrix.entries.items()):
        lines.append(f"{i} {j} {Fraction(v).numerator}/{Fraction(v).denominator}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("kind", ["truncated", "flipped byte", "wrong key", "v1"])
def test_damaged_cache_file_is_rebuilt_with_the_cold_report(capsys, tmp_path, kind):
    argv = ("fh-rank", "--a", "3", "--b", "2", "--k", "1", "--cache", str(tmp_path))
    path = tmp_path / "fhw-a3-b2-k1-w0.mat"
    cold_code, cold = run_cli(capsys, *argv)
    good = path.read_bytes()
    header, body = good.split(b"\n", 1)
    if kind == "truncated":
        path.write_bytes(header + b"\n" + body[: len(body) // 2])
    elif kind == "flipped byte":
        # the top byte of the last int64 value: only the sha256 can tell
        flipped = bytearray(body)
        flipped[-1] ^= 0x01
        path.write_bytes(header + b"\n" + bytes(flipped))
    elif kind == "wrong key":
        # the weight-0 block of alpha_1 of (2, 3) has the same 2 x 1 shape as
        # that of alpha_1 of (3, 2)
        run_cli(capsys, "fh-rank", "--a", "2", "--b", "3", "--k", "1", "--cache", str(tmp_path))
        other = (tmp_path / "fhw-a2-b3-k1-w0.mat").read_bytes()
        assert other != good and load_matrix(tmp_path / "fhw-a2-b3-k1-w0.mat").shape == (2, 1)
        path.write_bytes(other)
    else:
        path.write_text(v1_text(load_matrix(path)))
    assert path.read_bytes() != good
    assert run_cli(capsys, *argv) == (cold_code, cold) == (0, cold)
    assert path.read_bytes() == good


FH_RANK = ("fh-rank", "--a", "2", "--b", "3", "--k", "3")


@pytest.mark.parametrize("via,under,command", [
    pytest.param("flag", "", FH_RANK, id="flag-"),
    pytest.param("env", "", FH_RANK, id="env-"),
    pytest.param("flag", "sub", FH_RANK, id="flag-sub"),
    # this route reads no cache, and the path is still checked
    pytest.param("flag", "", ("reg", "--a", "2", "--b", "2", "--route", "initial"), id="reg-initial"),
])
def test_cache_path_that_is_a_file_is_usage_error(capsys, monkeypatch, tmp_path, via, under, command):
    regular = tmp_path / "F"
    regular.write_text("")
    cache = str(regular / under) if under else str(regular)
    argv = list(command)
    if via == "flag":
        argv += ["--cache", cache]
    else:
        monkeypatch.setenv("BFSYZ_CACHE", cache)
    assert main(argv) == 3
    assert cache in capsys.readouterr().err
    assert regular.read_text() == ""


def test_cache_entry_that_is_a_directory_is_usage_error(capsys, tmp_path):
    entry = tmp_path / "fhw-a2-b3-k3-w0.mat"
    entry.mkdir()
    assert main(["fh-rank", "--a", "2", "--b", "3", "--k", "3", "--cache", str(tmp_path)]) == 3
    assert str(entry) in capsys.readouterr().err
    assert entry.is_dir() and not any(entry.iterdir())


def test_seed_env_and_flag_precedence(capsys, monkeypatch):
    monkeypatch.setenv("BFSYZ_SEED", "7")
    _, rep = run_json(capsys, "fh-rank", "--a", "2", "--b", "2", "--k", "1")
    assert rep["seed"] == 7
    _, rep = run_json(capsys, "fh-rank", "--a", "2", "--b", "2", "--k", "1", "--seed", "3")
    assert rep["seed"] == 3
    monkeypatch.setenv("BFSYZ_SEED", "abc")
    assert main(["fh-rank", "--a", "2", "--b", "2", "--k", "1"]) == 3


@pytest.mark.parametrize("value", ["abc", "", "1e3"])
def test_bad_seed_env_is_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("BFSYZ_SEED", value)
    assert main(["betti", "--target", "iab", "--a", "2", "--b", "2"]) == 3
    assert f"BFSYZ_SEED must be an integer, got {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "0", "-5"])
def test_bad_mem_mb_env_is_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("BFSYZ_MEM_MB", value)
    assert main(["fh-rank", "--a", "2", "--b", "3", "--k", "3"]) == 3
    assert "BFSYZ_MEM_MB" in capsys.readouterr().err


def test_out_flag_writes_file_and_silences_stdout(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out = run_cli(capsys, "gens", "--a", "2", "--b", "2", "--out", str(target))
    assert code == 0
    assert out == ""
    rep = json.loads(target.read_text())
    assert rep["generators"][0] == "c0^2"


@pytest.mark.parametrize("where", ["directory", "missing-dir"])
def test_unusable_out_path_is_usage_error_before_computing(capsys, monkeypatch, tmp_path, where):
    target = tmp_path if where == "directory" else tmp_path / "missing" / "report.json"

    def computed(*args):
        raise AssertionError("computed before the --out path was checked")

    monkeypatch.setattr(cli, "power_generators", computed)
    assert main(["gens", "--a", "2", "--b", "2", "--out", str(target)]) == 3
    captured = capsys.readouterr()
    assert str(target) in captured.err and captured.out == ""
    assert not (tmp_path / "missing").exists()


def test_failed_out_write_is_usage_error(capsys, monkeypatch, tmp_path):
    # a path that passes the check but cannot be opened for writing
    monkeypatch.setattr(cli, "_check_out", lambda path: None)
    assert main(["gens", "--a", "2", "--b", "2", "--out", str(tmp_path)]) == 3
    assert str(tmp_path) in capsys.readouterr().err


def test_inconclusive_report_goes_to_out(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out = run_cli(capsys, "fh-rank", "--a", "2", "--b", "6", "--k", "7", "--out", str(target))
    assert code == 2
    assert out == ""
    rep = json.loads(target.read_text())
    assert rep["command"] == "fh-rank" and rep["status"] == "inconclusive"


def test_failed_out_write_of_an_inconclusive_report_is_usage_error(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "_check_out", lambda path: None)
    assert main(["fh-rank", "--a", "2", "--b", "6", "--k", "7", "--out", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert str(tmp_path) in captured.err and captured.out == ""


def test_initial_ideal_escalates_a_modular_deficit(capsys, monkeypatch):
    from bfsyz.exactalg import _modp

    argv = ("initial-ideal", "--a", "2", "--b", "3", "--mode", "modular")
    _, want = run_cli(capsys, *argv)
    real = _modp.rank_mod_p_dense
    # every mod-p rank one short of the true rank, the primes agreeing
    monkeypatch.setattr(_modp, "rank_mod_p_dense", lambda a, primes: max(real(a, primes) - 1, 0))
    code, got = run_cli(capsys, *argv)
    want, got = json.loads(want), json.loads(got)
    # each degree ranked modulo its primes escalates, and says so
    assert [rec for rec in want["hf_power_provenance"] if rec["mode"] == "modular"]
    assert got.pop("hf_power_provenance") == [
        {**rec, "mode": "exact", "escalated": True} if rec["mode"] == "modular" else rec
        for rec in want.pop("hf_power_provenance")
    ]
    assert (code, got) == (0, want)


def test_reports_have_no_timestamps(capsys):
    _, rep = run_json(capsys, "minors-check", "--a", "2", "--b", "2")
    flat = json.dumps(rep)
    assert "time" not in flat and "date" not in flat
