"""CLI layer: subcommands, exit codes, report envelopes, determinism."""

import json
import subprocess
import sys
from fractions import Fraction

import pytest

from bfsyz import __version__
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


def test_reports_have_no_timestamps(capsys):
    _, rep = run_json(capsys, "minors-check", "--a", "2", "--b", "2")
    flat = json.dumps(rep)
    assert "time" not in flat and "date" not in flat
