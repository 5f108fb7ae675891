import argparse
import hashlib
import json

import pytest

from transferchain.cli import (
    MAX_GRID_N,
    MAX_PATH_FLOATS,
    MAX_SCHUR_DEPTH,
    SYSTEMS,
    _build_parser,
    main,
)


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main(list(argv) + ["--out", str(out)])
    report_path = out / "report.json"
    report = json.loads(report_path.read_text()) if report_path.exists() else None
    return code, out, report


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_invariant_gauss(tmp_path):
    code, out, report = run(tmp_path, "invariant", "--system", "gauss",
                            "--grid-n", "512")
    assert code == 0
    names = {c["name"]: c for c in report["checks"]}
    assert names["gauss-stationary-l1"]["status"] == "pass"
    assert float(names["gauss-stationary-l1"]["statistic"]) <= 0.02
    lines = (out / "density.csv").read_text().splitlines()
    assert lines[0] == "x_mid,density,reference_density,abs_err"
    assert len(lines) == 513
    # floats serialized with 17 significant digits round-trip exactly
    val = lines[1].split(",")[1]
    assert float(val) == float(f"{float(val):.17g}")


def test_invariant_doubling_and_random_control(tmp_path):
    code, _, report = run(tmp_path / "a", "invariant", "--system", "doubling")
    assert code == 0
    assert all(c["status"] == "pass" for c in report["checks"])
    code2, _, report2 = run(tmp_path / "b", "invariant", "--system",
                            "random-control", "--grid-n", "1024")
    assert code2 == 0
    stat = float(next(c["statistic"] for c in report2["checks"]
                      if c["name"].endswith("-l1")))
    assert stat <= 0.03


def test_simulate_reproducible_bytes(tmp_path):
    args = ("simulate", "--system", "doubling", "--paths", "2000",
            "--steps", "5", "--master-seed", "11")
    _, out1, _ = run(tmp_path / "r1", *args)
    _, out2, _ = run(tmp_path / "r2", *args)
    assert read_bytes(out1 / "paths_head.csv") == read_bytes(out2 / "paths_head.csv")
    assert read_bytes(out1 / "marginals.csv") == read_bytes(out2 / "marginals.csv")
    assert read_bytes(out1 / "report.json") == read_bytes(out2 / "report.json")


def test_simulate_random_control_marginals(tmp_path):
    code, _, report = run(tmp_path, "simulate", "--system", "random-control",
                          "--steps", "25", "--paths", "20000")
    assert code == 0
    ks = next(c for c in report["checks"] if c["name"] == "marginal-ks-vs-stationary")
    assert ks["status"] == "pass"


def test_simulate_haar_solenoid_constraint(tmp_path):
    code, _, report = run(tmp_path, "simulate", "--system", "haar",
                          "--steps", "10", "--paths", "3000")
    assert code == 0
    c = next(c for c in report["checks"] if c["name"] == "solenoid-constraint")
    assert float(c["statistic"]) <= 1e-10


@pytest.mark.parametrize("system", ["doubling", "gauss", "random-control", "bernoulli-a"])
def test_simulate_zero_steps_reports_no_transition_check(tmp_path, system):
    # with no transition there is no step marginal to compare and no
    # constraint to check: a statistic of 0 would be a vacuous pass
    code, out, report = run(tmp_path, "simulate", "-s", system, "--paths", "1",
                            "--steps", "0")
    assert code == 0
    assert [c["name"] for c in report["checks"]] == ["simulation-completed"]
    assert len((out / "marginals.csv").read_text().splitlines()) == 1 + 128


def test_verify_wavelet_all_pass(tmp_path):
    code, _, report = run(tmp_path, "verify", "--suite", "wavelet")
    assert code == 0
    assert all(c["status"] == "pass" for c in report["checks"])


def test_verify_deterministic_reports(tmp_path):
    # the chains suite samples ensembles of up to 10^6 paths, many blocks each
    reports = set()
    for threads in ("1", "2", "3"):
        _, out, _ = run(tmp_path / f"t{threads}", "verify", "--suite", "chains",
                        "--master-seed", "7", "--threads", threads)
        reports.add(read_bytes(out / "report.json"))
    assert len(reports) == 1


@pytest.mark.parametrize("system", ["doubling", "random-control", "gauss", "haar", "fejer-m"])
def test_simulate_artifacts_identical_at_any_thread_count(tmp_path, system):
    # three full blocks of paths and five more
    artifacts = []
    for threads in ("1", "3"):
        _, out, report = run(tmp_path / f"t{threads}", "simulate", "-s", system,
                             "--paths", str(3 * 2**16 + 5), "--steps", "4",
                             "--master-seed", "7", "--threads", threads)
        names = sorted(set(report["manifest"]) - {"timings.csv"})
        assert "paths_head.csv" in names and "marginals.csv" in names
        artifacts.append({name: read_bytes(out / name) for name in names + ["report.json"]})
    assert artifacts[0] == artifacts[1]


# sha256 of report.json, marginals.csv and paths_head.csv of simulate at 2e4
# paths x 3 steps, seed 7: a bit that moves in a sampler step, a histogram
# or a reduction fails here
SIMULATE_SHA256 = {
    "doubling": ("75675641ec0f71169246ec575d3627f007779b76451a9d4c4fcad857c2307037",
                 "aba47e8e3535b7c2109755051a5a745ff7dce3b325a76be22709a33c9fc1d14b",
                 "0bc9e04cf9d8e3eeedec1fa90f941bfa8a553812eb49232c2a4cd07c080b76a8"),
    "random-control": ("7f2051c9ed828f82383b1df06130174ee4c470983f83a7f809a935a40e187792",
                       "d0dbf00731cf6d58b7be23e5862315d2f7949899ff80888d916f63fed51ec230",
                       "717e30799b72608541fb4e3f16f2c3f6734b7138864e8abf9cfc086721045835"),
    "gauss": ("39aa629a0853e48cf83ea0f445a16d144193f0dd3b4c11d612a0d965dbdb32de",
              "0f1baffce4308fd9128ae5456f0aa132162af34c038054a0c163f02c5d65280a",
              "5d488fbd5c87e969945e20bf4a184c68eb0d249b084d1d0d5321c5215109b99f"),
    "haar": ("3026b56dcdeeb55ac8a5e831bc65cea5588378a19ea62171846d4fd4dbb58711",
             "4d3301069e0bc73aabf49bf39dbe37ba6ff1ff923ed444992648d1b9ba0356e2",
             "99e0a82584a6f16089aaaf3fc2d7898130eb2b29798dc0b8dbb96288e625946f"),
}


@pytest.mark.parametrize("threads", ["1", "3"])
@pytest.mark.parametrize("system", sorted(SIMULATE_SHA256))
def test_simulate_bytes_are_pinned(tmp_path, system, threads):
    _, out, _ = run(tmp_path, "simulate", "-s", system, "--paths", "20000", "--steps", "3",
                    "--master-seed", "7", "--threads", threads)
    got = tuple(hashlib.sha256(read_bytes(out / name)).hexdigest()
                for name in ("report.json", "marginals.csv", "paths_head.csv"))
    assert got == SIMULATE_SHA256[system]


def test_verify_operators_known_defect_only(tmp_path):
    # the logistic separation check is expected red (the arcsine law is
    # exactly invariant under the uniform-weight backward move); nothing
    # else may fail
    code, _, report = run(tmp_path, "verify", "--suite", "operators")
    failing = {c["name"] for c in report["checks"] if c["status"] == "fail"}
    assert failing == {"operators/logistic-uniform-weight-separation"}
    assert code == 1  # exit status is nonzero iff any check fails


def test_verify_fault_injection(tmp_path):
    _, _, clean = run(tmp_path / "c", "verify", "--suite", "operators")
    _, _, faulty = run(tmp_path / "f", "verify", "--suite", "operators",
                       "--inject-fault", "mis-normalized-filter")
    clean_fail = {c["name"] for c in clean["checks"] if c["status"] == "fail"}
    fault_fail = {c["name"] for c in faulty["checks"] if c["status"] == "fail"}
    assert fault_fail - clean_fail == {"operators/normalization-R1"}


def test_schur_constant_padded(tmp_path):
    code, out, report = run(tmp_path, "schur", "--schur-spec", "constant:0.3")
    assert code == 0
    lines = (out / "schur_params.csv").read_text().splitlines()
    assert lines[0] == "index,rho_re,rho_im"
    first = lines[1].split(",")
    assert float(first[1]) == 0.3 and float(first[2]) == 0.0
    for line in lines[2:]:
        _, re_, im_ = line.split(",")
        assert float(re_) == 0.0 and float(im_) == 0.0


def test_schur_blaschke_terminates(tmp_path):
    code, _, report = run(tmp_path, "schur", "--schur-spec", "blaschke:0.5,0.2")
    assert code == 0
    c = next(c for c in report["checks"] if c["name"] == "blaschke-terminated")
    assert c["status"] == "pass"


def test_schur_blaschke_eight_zeros_terminates(tmp_path):
    # degree 8 terminates at step 9, past the 8 parameters of the default
    code, out, report = run(tmp_path, "schur", "--schur-spec",
                            "blaschke:0.1,0.2,0.1j,-0.2,0.3,-0.1j,0.05,0.15")
    assert code == 0
    c = next(c for c in report["checks"] if c["name"] == "blaschke-terminated")
    assert c["status"] == "pass" and c["detail"] == "stopped after 9 parameters"
    assert len((out / "schur_params.csv").read_text().splitlines()) == 10


def test_schur_random_stopped_recursion_is_red(tmp_path):
    # at radius 0.99 the 32-step recursion loses |rho| < 1 to round-off and
    # stops early; the unrecovered parameters read as an infinite residual
    code, out, report = run(tmp_path, "schur", "--schur-spec", "random:0.99,32")
    assert code == 1
    c = next(c for c in report["checks"] if c["name"] == "roundtrip-residual")
    assert c["status"] == "fail" and c["statistic"] == "inf"
    assert c["detail"].startswith("recursion stopped after ")
    assert c["detail"].endswith(" of 32 parameters")
    lines = (out / "schur_params.csv").read_text().splitlines()
    assert len(lines) == 33 and lines[-1].endswith(",inf")


def test_schur_random_roundtrip(tmp_path):
    code, out, report = run(tmp_path, "schur", "--schur-spec", "random:0.9,8")
    assert code == 0
    c = next(c for c in report["checks"] if c["name"] == "roundtrip-residual")
    assert float(c["statistic"]) <= 1e-8
    lines = (out / "schur_params.csv").read_text().splitlines()
    assert lines[0] == "index,rho_re,rho_im,roundtrip_residual"
    assert len(lines) == 9


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": "doubling", "grid_n": 256,
                               "master_seed": 5}))
    code, _, report = run(tmp_path, "invariant", "--config", str(cfg),
                          "--grid-n", "128")
    assert code == 0
    assert report["config"]["system"] == "doubling"
    assert report["config"]["grid_n"] == 128       # flag wins
    assert report["config"]["master_seed"] == 5    # file value survives


def test_unknown_param_rejected(tmp_path):
    with pytest.raises(SystemExit):
        run(tmp_path, "invariant", "--system", "doubling", "--param", "zeta=3")


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": "doubling", "wat": 1}))
    with pytest.raises(SystemExit):
        run(tmp_path, "invariant", "--config", str(cfg))


@pytest.mark.parametrize("flag, value, message", [
    ("--paths", "0", "paths must be >= 1, got 0"),
    ("--paths", "-5", "paths must be >= 1, got -5"),
    ("--grid-n", "0", "grid_n must be >= 2, got 0"),
    ("--grid-n", "1", "grid_n must be >= 2, got 1"),
    # too many cells for numpy to index, so refused before any allocation;
    # the first overflows a float, the second does not
    ("--grid-n", "1" + "0" * 400, rf"grid_n must be <= {MAX_GRID_N}, got 10{{400}}$"),
    ("--grid-n", "1" + "0" * 20, rf"grid_n must be <= {MAX_GRID_N}, got 10{{20}}$"),
    ("--steps", "-1", "steps must be >= 0, got -1"),
    # more path floats than numpy can index, so refused before any allocation
    ("--paths", "1" + "0" * 20, rf"paths must be <= {MAX_PATH_FLOATS}, got 10{{20}}$"),
    ("--steps", "1" + "0" * 20,  # with the default 10^5 paths
     rf"steps must be <= {MAX_PATH_FLOATS // 100_000 - 1}, got 10{{20}}$"),
    ("--threads", "0", "threads must be >= 1, got 0"),
])
def test_bad_size_flag_rejected(tmp_path, flag, value, message):
    with pytest.raises(SystemExit, match=message):
        run(tmp_path, "simulate", "--system", "doubling", flag, value)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value, message", [
    ("paths", 0, "paths must be >= 1, got 0"),
    ("paths", -5, "paths must be >= 1, got -5"),
    ("grid_n", 0, "grid_n must be >= 2, got 0"),
    ("grid_n", 10**20, rf"grid_n must be <= {MAX_GRID_N}, got 10{{20}}$"),
    ("steps", -1, "steps must be >= 0, got -1"),
    ("paths", 10**20, rf"paths must be <= {MAX_PATH_FLOATS}, got 10{{20}}$"),
    ("steps", 10**20, rf"steps must be <= {MAX_PATH_FLOATS // 100_000 - 1}, got 10{{20}}$"),
    ("paths", "many", "paths must be an integer, got 'many'"),
    ("paths", 100.7, "paths must be an integer, got 100.7"),
    ("master_seed", 2.5, "master_seed must be an integer, got 2.5"),
    ("master_seed", -1, "master_seed must be >= 0, got -1"),
    ("threads", "many", "threads must be an integer, got 'many'"),
    ("threads", 2.5, "threads must be an integer, got 2.5"),
    ("threads", 0, "threads must be >= 1, got 0"),
])
def test_bad_size_config_rejected(tmp_path, key, value, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": "doubling", key: value}))
    with pytest.raises(SystemExit, match=message):
        run(tmp_path, "simulate", "--config", str(cfg))
    assert not (tmp_path / "out").exists()


# the path array holds paths x (steps + 1) floats, so the steps bound
# follows the paths: with 2^32 paths, steps + 1 <= MAX_PATH_FLOATS // 2^32
JOINT = rf"--steps / steps must be <= {MAX_PATH_FLOATS // 2**32 - 1}, got 4294967296$"


@pytest.mark.parametrize("argv, config, message", [
    (["--paths", "1" + "0" * 20, "--steps", "1"], {},
     rf"paths must be <= {MAX_PATH_FLOATS}, got 10{{20}}$"),
    (["--paths", "10", "--steps", "1" + "0" * 20], {},
     rf"steps must be <= {MAX_PATH_FLOATS // 10 - 1}, got 10{{20}}$"),
    # 2^32 steps alone fit, but not with 2^32 paths, whether both come from
    # flags, from the file, or one from each
    (["--paths", str(2**32), "--steps", str(2**32)], {}, JOINT),
    ([], {"paths": 2**32, "steps": 2**32}, JOINT),
    (["--steps", str(2**32)], {"paths": 2**32}, JOINT),
])
def test_path_floats_bounded(tmp_path, argv, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    with pytest.raises(SystemExit, match=message):
        run(tmp_path, "simulate", "--system", "doubling", "--config", str(cfg), *argv)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, message", [
    (["-s", "gauss", "--param", "K=abc"], "--param K must be int, got 'abc'"),
    (["-s", "gauss", "--param", "K=1"], r"--param K=1: need at least 2 Gauss branches"),
    (["-s", "parametric-u", "--param", "u=2"], r"--param u=2.0: u must lie in \(0, 1\)"),
    (["-s", "fejer-m", "--param", "m=0"], "--param m=0: m must be >= 1"),
    (["-s", "bernoulli-a", "--param", "a=1.5"], r"--param a=1.5: a must lie in \(0, 1\)"),
    (["-s", "doubling", "--master-seed", "-3"], "master_seed must be >= 0, got -3"),
    (["-s", "bernoulli-a", "--param", "a=1e-320"],
     r"--param a=1e-320: grid needs finite cells at least 2\.23e-308 wide, "
     r"got 512 cells on \[-1e-320, 1e-320\]"),
])
def test_bad_param_or_seed_rejected(tmp_path, argv, message):
    with pytest.raises(SystemExit, match=message):
        run(tmp_path, "simulate", "--paths", "100", *argv)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["invariant", "simulate"])
def test_gauss_truncation_above_the_cap_rejected(tmp_path, command):
    # refused before any Gauss build, whose digits past 10^6 break the solenoid constraint
    with pytest.raises(SystemExit, match=r"--param K=100000000: need at most 1000000 Gauss "
                                         r"branches"):
        run(tmp_path, command, "-s", "gauss", "--grid-n", "64", "--param", "K=100000000")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value, message", [
    ("inject_fault", "bogus",
     r"inject-fault / inject_fault must be one of \['mis-normalized-filter'\], got 'bogus'"),
    ("suite", "nope", r"suite / suite must be one of \[.*\], got 'nope'"),
])
def test_bad_verify_config_rejected(tmp_path, key, value, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    with pytest.raises(SystemExit, match=message):
        run(tmp_path, "verify", "--config", str(cfg))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "schur"],
    ["schur", "--schur-spec", "constant:0.3"],
])
def test_param_on_command_without_parameters_rejected(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, *argv, "--param", "K=5")
    assert exc.value.code == 2
    assert "unrecognized arguments: --param" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# the settings each command reads; every command also takes --master-seed,
# --out and --config
READS = {
    "invariant": {"--system", "-s", "--grid-n", "--param"},
    "simulate": {"--system", "-s", "--grid-n", "--paths", "--steps", "--threads", "--param"},
    "verify": {"--suite", "--inject-fault", "--threads"},
    "schur": {"--schur-spec"},
}


def test_each_command_takes_only_the_flags_it_reads():
    parser = _build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert set(commands) == set(READS)
    for name, sub in commands.items():
        flags = {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
        assert flags == READS[name] | {"--master-seed", "--out", "--config"}, name


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "schur", "-s", "gauss", "--grid-n", "64", "--paths", "5"],
    ["schur", "--schur-spec", "constant:0.3", "-s", "gauss"],
    ["schur", "--schur-spec", "constant:0.3", "--grid-n", "64"],
    ["schur", "--schur-spec", "constant:0.3", "--paths", "5"],
    ["schur", "--schur-spec", "constant:0.3", "--steps", "3"],
    ["schur", "--schur-spec", "constant:0.3", "--threads", "2"],
    ["invariant", "-s", "doubling", "--paths", "7"],
    ["invariant", "-s", "doubling", "--steps", "3"],
    ["invariant", "-s", "doubling", "--threads", "2"],
    ["verify", "--config", {"suite": "schur", "system": "gauss"}],
    ["verify", "--config", {"suite": "schur", "grid_n": 64}],
    ["verify", "--config", {"suite": "schur", "paths": 5}],
    ["schur", "--config", {"schur_spec": "constant:0.3", "system": "gauss"}],
    ["schur", "--config", {"schur_spec": "constant:0.3", "grid_n": 64}],
    ["schur", "--config", {"schur_spec": "constant:0.3", "paths": 5}],
    ["schur", "--config", {"schur_spec": "constant:0.3", "steps": 3}],
    ["schur", "--config", {"schur_spec": "constant:0.3", "threads": 2}],
    ["invariant", "--config", {"system": "doubling", "paths": 7}],
    ["invariant", "--config", {"system": "doubling", "steps": 3}],
    ["invariant", "--config", {"system": "doubling", "threads": 2}],
    ["invariant", "--config", {"system": "doubling", "suite": "all"}],
    ["invariant", "--config", {"system": "doubling", "schur_spec": "constant:0.3"}],
])
def test_setting_the_command_does_not_read_rejected(tmp_path, argv):
    if isinstance(argv[-1], dict):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(argv[-1]))
        argv = argv[:-1] + [str(cfg)]
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, *argv)
    assert exc.value.code not in (0, None)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, text, message", [
    ("invariant", None, r"--config cfg\.json: .*No such file"),
    ("invariant", '{"system": "doubling",', r"--config cfg\.json: Expecting"),
    ("invariant", '["system", "doubling"]', r"--config cfg\.json: must hold a JSON object"),
    ("simulate", '{"system": "gauss", "param": ["K=5"]}',
     r"param must be an object of KEY: VALUE, got \['K=5'\]"),
    ("invariant", '{"system": "doubling", "out": 5}',
     "--out / out must be a non-empty string, got 5"),
    ("schur", '{"schur_spec": 5}', "--schur-spec / schur_spec must be a non-empty string, got 5"),
    # a file value is checked even where a flag overrides it
    ("invariant -s doubling --out x", '{"out": 5}',
     "--out / out must be a non-empty string, got 5"),
    ("invariant --grid-n 64", '{"system": "doubling", "grid_n": "many"}',
     "--grid-n / grid_n must be an integer, got 'many'"),
    ("simulate -s gauss --param K=50", '{"param": {"K": "abc"}}',
     "--param K must be int, got 'abc'"),
])
def test_malformed_config_rejected(tmp_path, monkeypatch, command, text, message):
    # run in tmp_path: an out directory from the file, a flag or the default
    # would appear there
    monkeypatch.chdir(tmp_path)
    if text is not None:
        (tmp_path / "cfg.json").write_text(text)
    with pytest.raises(SystemExit, match=message):
        main([*command.split(), "--config", "cfg.json"])
    assert sorted(p.name for p in tmp_path.iterdir()) == (["cfg.json"] if text else [])


@pytest.mark.parametrize("spec", [
    "random:abc", "random:0.5,0", "random:0.5,2.5", "random:1.5", "random:0.5,8,3",
    f"random:0.5,{MAX_SCHUR_DEPTH + 1}",
    "constant:abc", "constant:2", "blaschke:abc", "blaschke:0.5,1", "moebius:0.5",
])
def test_bad_schur_spec_rejected(tmp_path, spec):
    with pytest.raises(SystemExit, match="schur spec must be constant:C, "
                                         r"blaschke:Z1\[,Z2..\] or random:R\[,DEPTH\]"):
        run(tmp_path, "schur", "--schur-spec", spec)
    assert not (tmp_path / "out").exists()


def test_config_params_typed_like_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": "gauss", "param": {"K": 2.5}}))
    with pytest.raises(SystemExit, match="--param K must be int, got 2.5"):
        run(tmp_path, "simulate", "--config", str(cfg))
    cfg.write_text(json.dumps({"system": "parametric-u", "param": {"u": 0.4}}))
    code, _, report = run(tmp_path, "simulate", "--config", str(cfg),
                          "--paths", "1000", "--steps", "2")
    assert code == 0
    assert report["config"]["params"] == {"u": 0.4}


def test_simulate_overlapping_bernoulli(tmp_path):
    # a = 0.6 > 1/2: the branch images overlap, so there is no sigma and no
    # solenoid constraint to check
    code, _, report = run(tmp_path, "simulate", "-s", "bernoulli-a", "--param", "a=0.6",
                          "--paths", "1000", "--steps", "5")
    assert code == 0
    assert [c["name"] for c in report["checks"]] == ["simulation-completed"]


def test_zero_steps_accepted(tmp_path):
    code, _, report = run(tmp_path, "simulate", "--system", "doubling",
                          "--paths", "1000", "--steps", "0")
    assert code == 0
    assert report["config"]["n_steps"] == 0


# the config block of each command's report: the settings it reads, under
# their report names, without out and threads
CONFIG_KEYS = {
    "invariant": {"command", "system", "params", "grid_n", "master_seed"},
    "simulate": {"command", "system", "params", "grid_n", "master_seed", "n_paths", "n_steps"},
    "verify": {"command", "suite", "inject_fault", "master_seed"},
    "schur": {"command", "schur_spec", "master_seed"},
}


def test_report_schema_and_manifest(tmp_path):
    _, out, report = run(tmp_path, "invariant", "--system", "doubling")
    assert set(report) == {"version", "config", "checks", "manifest"}
    assert "density.csv" in report["manifest"]
    assert "timings.csv" in report["manifest"]
    for name in report["manifest"]:
        assert (out / name).exists()
    # timings live outside the report so that reruns stay byte-identical
    assert "runtime_ms" not in json.dumps(report)
    for argv in (["invariant", "-s", "doubling", "--grid-n", "16"],
                 ["simulate", "-s", "doubling", "--paths", "10", "--steps", "1", "--threads", "2"],
                 ["verify", "--suite", "schur", "--threads", "2"],
                 ["schur", "--schur-spec", "constant:0.3"]):
        _, _, report = run(tmp_path / argv[0], *argv)
        assert set(report["config"]) == CONFIG_KEYS[argv[0]], argv[0]


# the systems each command serves, and a tiny size for it
SERVED = {"invariant": {"gauss", "doubling", "random-control", "logistic", "halving"},
          "simulate": {"gauss", "doubling", "random-control", "logistic", "parametric-u",
                       "bernoulli-a", "haar", "fejer-m", "two-state"}}
SIZES = {"invariant": ["--grid-n", "64"], "simulate": ["--paths", "200", "--steps", "2"]}


@pytest.mark.parametrize("command", sorted(SERVED))
@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_every_system_under_every_command(tmp_path, command, system):
    argv = [command, "-s", system, *SIZES[command]]
    if system not in SERVED[command]:
        with pytest.raises(SystemExit, match=f"{command} supports systems"):
            run(tmp_path, *argv)
        assert not (tmp_path / "out").exists()
        return
    code, out, report = run(tmp_path, *argv)
    assert code == 0, report["checks"]
    assert report["config"]["system"] == system
    assert set(report["manifest"]) <= {p.name for p in out.iterdir()}
