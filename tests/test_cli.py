import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import swarmdoppler as sd
from swarmdoppler import simulate
from swarmdoppler.cli import PRESETS, main
from swarmdoppler.validation import validate


def config_doc(**overrides):
    return {**PRESETS["mavic-like"], **overrides}


def write_config(tmp_path, name="config.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(config_doc(**overrides)))
    return path


def manifest_of(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


def assert_digests_match(out_dir):
    manifest = manifest_of(out_dir)
    assert manifest["outputs"], "manifest lists no outputs"
    for entry in manifest["outputs"]:
        digest = hashlib.sha256((out_dir / entry["path"]).read_bytes()).hexdigest()
        assert digest == entry["sha256"], entry["path"]
    return manifest


def test_acf_command_with_preset(tmp_path):
    out = tmp_path / "run"
    code = main(["acf", "--preset", "mavic-like", "--out", str(out),
                 "--tau-max", "0.002", "--points", "301"])
    assert code == 0
    manifest = assert_digests_match(out)
    assert manifest["command"] == "acf"
    assert manifest["mainlobe_width_s"] == pytest.approx(5.216769508611702e-05,
                                                         rel=1e-9)
    header, first = (out / "acf.csv").read_text().splitlines()[:2]
    assert header == "lag_s,y_re,y_im"
    assert float(first.split(",")[0]) == 0.0
    assert (out / "acf.svg").read_text().startswith("<svg")


def test_acf_outputs_are_rerunnable_bit_identically(tmp_path):
    args = ["acf", "--preset", "mavic-like", "--tau-max", "0.001",
            "--points", "101"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    m1, m2 = manifest_of(out1), manifest_of(out2)
    assert m1["outputs"] == m2["outputs"]


def test_run_reconstructed_from_manifest_alone(tmp_path):
    # the manifest carries the resolved config and arguments; replaying them
    # must reproduce every output digest
    first = tmp_path / "first"
    config = write_config(tmp_path, grid={"n_samples": 64},
                          estimator={"n_realizations": 3, "seed": 11})
    assert main(["simulate", "--config", str(config), "--out", str(first)]) == 0
    manifest = manifest_of(first)
    replay_config = tmp_path / "replay.json"
    replay_config.write_text(json.dumps(manifest["config"]))
    replay_out = tmp_path / "replay"
    argv = ["simulate", "--config", str(replay_config), "--out", str(replay_out)]
    arguments = manifest["arguments"]
    if arguments["n"] is not None:
        argv += ["--n", str(arguments["n"])]
    argv += ["--workers", str(arguments["workers"]),
             "--dtype", arguments["dtype"]]
    if arguments["spectrogram"]:
        argv.append("--spectrogram")
    assert main(argv) == 0
    assert manifest_of(replay_out)["outputs"] == manifest["outputs"]


def test_acf_degenerate_single_point(tmp_path):
    out = tmp_path / "run"
    assert main(["acf", "--preset", "mavic-like", "--out", str(out),
                 "--tau-max", "0"]) == 0
    rows = (out / "acf.csv").read_text().splitlines()
    assert len(rows) == 2
    value = float(rows[1].split(",")[1])
    acf = sd.build_acf(sd.SwarmParams(1, 4, 2, 0.21, 0.03, 523.0, 27.0))
    assert value == pytest.approx(sd.acf_eval(acf, 0.0), rel=1e-12)


def test_missing_config_exits_with_config_error(tmp_path, capsys):
    code = main(["acf", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "config not found" in capsys.readouterr().err


def test_malformed_config_exits_with_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code = main(["acf", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "parse error" in capsys.readouterr().err


def test_non_utf8_config_exits_with_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{")
    code = main(["acf", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "is not UTF-8 text" in capsys.readouterr().err


def test_any_library_error_exits_with_the_config_code(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise sd.SwarmModelError("no such swarm")

    monkeypatch.setattr("swarmdoppler.cli.build_acf", refuse)
    code = main(["acf", "--preset", "mavic-like", "--out", str(tmp_path / "run")])
    assert code == 2
    assert capsys.readouterr().err == "error: no such swarm\n"
    assert not (tmp_path / "run").exists()


def test_usage_error_exit_code():
    assert main(["acf"]) == 2          # neither --config nor --preset
    assert main(["frobnicate"]) == 2   # unknown command


@pytest.mark.parametrize("argv", [
    ["acf", "--points", "0"],
    ["psd", "--points", "-3"],
    ["simulate", "--workers", "0"],
    ["validate", "--workers", "0"],
    ["validate", "--workers", "two"],
    ["acf", "--tau-max", "nan"],
    ["acf", "--tau-max", "inf"],
    ["acf", "--tau-max", "-1"],
    ["coeffs", "--l-sweep=-5"],
    ["coeffs", "--l-sweep", "0"],
    ["coeffs", "--l-sweep", "nan"],
    ["validate", "--n", "0"],
    ["simulate", "--n", "0"],
    ["coeffs", "--max-n", "-2"],
    ["coeffs", "--max-n", "0"],
])
def test_count_flags_below_one_are_usage_errors(tmp_path, argv, capsys):
    code = main(argv + ["--preset", "mavic-like", "--out", str(tmp_path / "run")])
    assert code == 2
    assert "argument --" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv", [
    ["acf", "--seed", "3"],
    ["acf", "--hz"],
    ["psd", "--seed", "3"],
    ["simulate", "--format", "json"],
    ["simulate", "--hz"],
    ["validate", "--format", "json"],
    ["validate", "--hz"],
    ["coeffs", "--seed", "3"],
    ["coeffs", "--format", "json"],
    ["coeffs", "--hz"],
])
def test_commands_refuse_flags_they_do_not_read(tmp_path, argv, capsys):
    code = main(argv + ["--preset", "mavic-like", "--out", str(tmp_path / "run")])
    assert code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv, config, message", [
    (["coeffs", "--l-sweep", "5000"], {}, "blade/wavelength <= 159.15"),
    (["acf", "--deterministic"], {"blade_length_m": 4.8},   # blade/wavelength 160
     "blade/wavelength <= 159.15"),
])
def test_failing_command_leaves_no_output_directory(tmp_path, argv, config, message,
                                                    capsys):
    path = write_config(tmp_path, **config)
    code = main(argv + ["--config", str(path), "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


# on mavic-like a rotor speed times t_start overflows float64 from ~3.4e305 s
# on: at 3.32e305 for some draws, at -1e306 for every draw
@pytest.mark.parametrize("t_start", [1e12, 1e15, 3.32e305, -1e306])
def test_validate_on_a_late_grid_stays_inside_the_seed_spread(tmp_path, t_start):
    # mavic-like, validate --n 4000 --workers 2: over seeds 1-3 and 5 at
    # t_start 0 the ACF nRMSE spreads over 0.030-0.074 (seed 5: 0.0488).
    # With absolute sample times, float64 rounding at 1e12 s moved the
    # fastest phase by up to 2.9 rad and the nRMSE read 0.53
    path = write_config(tmp_path, grid={"t_start_s": t_start})
    out = tmp_path / "run"
    code = main(["validate", "--config", str(path), "--n", "4000", "--seed", "5",
                 "--workers", "2", "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    assert code in (0, 4), report      # 0.05 is inside the spread: either verdict
    assert 0.030 <= report["acf"]["nrmse"] <= 0.074


def test_curve_files_are_the_model_serializations(tmp_path):
    params = sd.SwarmParams(1, 4, 2, 0.21, 0.03, 523.0, 27.0)
    assert main(["acf", "--preset", "mavic-like", "--tau-max", "0.001",
                 "--points", "51", "--out", str(tmp_path / "acf")]) == 0
    acf = sd.build_acf(params)
    taus = np.linspace(0.0, 0.001, 51)
    acf_curve = sd.Curve(axis="lag_s", x=taus, y=sd.acf_eval(acf, taus))
    assert (tmp_path / "acf" / "acf.csv").read_text() == sd.curve_to_csv(acf_curve)

    psd = sd.build_psd(params)
    freqs = np.linspace(*sd.psd_support(params), 64)
    meta = {"kind": "psd_mixture", "dc_dirac_weight": psd.dc_weight,
            "convention_constant": sd.analytic.CONVENTION_CONSTANT}
    psd_curve = sd.Curve(axis="angular_frequency_rad_per_s", x=freqs,
                         y=sd.psd_eval(psd, freqs), meta=meta)
    hz_curve = sd.Curve(axis="frequency_hz", x=freqs / (2.0 * np.pi), y=psd_curve.y)
    for fmt, hz, name, text in [("json", [], "psd.json", sd.curve_to_json(psd_curve) + "\n"),
                                ("csv", ["--hz"], "psd.csv", sd.curve_to_csv(hz_curve))]:
        out = tmp_path / f"psd-{fmt}"
        assert main(["psd", "--preset", "mavic-like", "--points", "64",
                     "--format", fmt, "--out", str(out)] + hz) == 0
        assert (out / name).read_text() == text


def test_coeffs_sweep_beyond_the_series_envelope_names_the_limit(tmp_path, capsys):
    code = main(["coeffs", "--preset", "mavic-like", "--l-sweep", "5000",
                 "--out", str(tmp_path / "run")])
    assert code == 2
    assert "blade/wavelength <= 159.15" in capsys.readouterr().err


def test_io_error_exit_code(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    code = main(["acf", "--preset", "mavic-like",
                 "--out", str(blocker / "sub")])
    assert code == 3
    assert "i/o error" in capsys.readouterr().err


@pytest.mark.parametrize("argv, target", [
    (["acf"], "build_acf"),
    (["simulate", "--n", "2"], "simulate_ensemble"),
])
def test_out_of_memory_exits_with_the_io_code(tmp_path, monkeypatch, argv, target,
                                              capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB")

    monkeypatch.setattr(f"swarmdoppler.cli.{target}", exhausted)
    code = main(argv + ["--preset", "mavic-like", "--out", str(tmp_path / "run")])
    assert code == 3
    assert "error: out of memory: Unable to allocate 74.5 GiB" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def files_under(out):
    return {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}


@pytest.mark.parametrize("argv, target", [
    (["simulate", "--n", "2"], "ensemble.bin"),
    (["validate", "--n", "40"], "report.json"),
    (["acf"], "manifest.json"),
    (["acf", "--points", "51", "--deterministic", "--format", "json"],
     "acf_deterministic.json"),
    (["psd", "--points", "64"], "psd.csv"),
    (["coeffs", "--max-n", "200", "--l-sweep", "10"], "power_fractions.csv"),
    (["simulate", "--n", "2", "--spectrogram", "--workers", "2"], "spectrogram.svg"),
])
def test_output_written_halfway_is_never_left_behind(tmp_path, full_disk, argv, target,
                                                     capsys):
    config = write_config(tmp_path, grid={"n_samples": 256})
    run = argv + ["--config", str(config), "--out"]
    done = tmp_path / "done"
    full_disk.fail_from_now(None)
    assert main(run + [str(done)]) in (0, 4)
    before = files_under(done)
    assert target in before
    for fail_at in range(len(before)):    # each file in turn, the manifest last
        full_disk.fail_from_now(fail_at)
        fresh = tmp_path / f"fresh{fail_at}"
        assert main(run + [str(fresh)]) == 3
        assert "No space" in capsys.readouterr().err
        assert files_under(fresh) == {}
        full_disk.fail_from_now(fail_at)
        assert main(run + [str(done)]) == 3
        assert files_under(done) == before


# each command's own flags, with valid and invalid values mixed; the sizes
# are always given and kept small, so no draw runs a preset's full default
_SIZES = {
    "acf": ("--points", ["1", "64", "64", "0"]),
    "psd": ("--points", ["2", "64", "64", "-3"]),
    "simulate": ("--n", ["1", "64", "64", "1.5"]),
    "validate": ("--n", ["2", "64", "64", "0"]),
    "coeffs": ("--max-n", ["1", "200", "200", "0"]),
}
_FLAGS = {
    "acf": {"--format": ["csv", "json", "xml"], "--tau-max": ["0", "0.001", "nan"],
            "--deterministic": None},
    "psd": {"--format": ["csv", "json"], "--hz": None},
    "simulate": {"--seed": ["0", "7", "-1"], "--workers": ["1", "2", "0"],
                 "--dtype": ["complex64", "complex128", "float32"],
                 "--spectrogram": None},
    "validate": {"--seed": ["0", "3", "-1"], "--workers": ["1", "2", "0"]},
    "coeffs": {"--l-sweep": ["10", "10,300", "0", "5000"]},
}
_FOREIGN = ["--hz", "--seed=1", "--format=json", "--deterministic", "--bogus"]
# config documents: small and valid, beyond the Bessel envelope
# (blade/wavelength 160), and a 128-sample grid
_CONFIGS = {
    "small": {"grid": {"n_samples": 256}},
    "large blades": {"blade_length_m": 4.8, "grid": {"n_samples": 256}},
    "short grid": {"grid": {"n_samples": 128}},
}


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    size_flag, sizes = _SIZES[command]
    words = [[size_flag, draw(st.sampled_from(sizes))]]
    for flag, values in _FLAGS[command].items():
        if draw(st.booleans()):
            words.append([flag] if values is None else [flag, draw(st.sampled_from(values))])
    if draw(st.integers(0, 5)) == 0:
        words.append([draw(st.sampled_from(_FOREIGN))])
    source = draw(st.sampled_from(sorted(_CONFIGS) * 2 + ["preset", "both", "none"]))
    return command, [w for group in draw(st.permutations(words)) for w in group], source


@settings(max_examples=25, deadline=None)
@given(drawn=cli_argv())
def test_generated_argv_exits_with_a_code_and_fails_without_output(drawn):
    command, flags, source = drawn
    with tempfile.TemporaryDirectory() as tmp:
        preset = ["--preset", "mavic-like"]
        sources = {"preset": preset, "none": []}
        for name, doc in _CONFIGS.items():
            config = write_config(Path(tmp), f"{name}.json", **doc,
                                  estimator={"n_realizations": 8, "seed": 1})
            sources[name] = ["--config", str(config)]
        sources["both"] = sources["small"] + preset
        out = Path(tmp) / "run"
        code = main([command] + flags + sources[source] + ["--out", str(out)])
        assert code in (0, 2, 3, 4)
        if code in (0, 4):
            assert_digests_match(out)
        else:
            assert not out.exists() or not any(out.iterdir())


def test_runtime_imports_numpy_only():
    src = Path(sd.__file__).resolve().parent.parent
    code = ("import sys, swarmdoppler, swarmdoppler.cli, swarmdoppler.validation; "
            "print(' '.join(sorted(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(src))
    loaded = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                            capture_output=True, text=True).stdout.split()
    packages = {name.split(".")[0] for name in loaded}
    assert "numpy" in packages
    assert not packages & {"scipy", "hypothesis", "pytest"}


def test_psd_command_continuous(tmp_path):
    out = tmp_path / "run"
    config = write_config(tmp_path)
    assert main(["psd", "--config", str(config), "--out", str(out),
                 "--points", "501"]) == 0
    manifest = assert_digests_match(out)
    lo, hi = manifest["support_rad_s"]
    assert hi == pytest.approx(48290.87001810405, rel=1e-9)
    assert lo == -hi
    assert manifest["convention_constant"] == 1.0
    assert manifest["dc_dirac_weight"] > 0.0
    rows = (out / "psd.csv").read_text().splitlines()
    assert rows[0] == "angular_frequency_rad_per_s,y_re,y_im"


def test_psd_command_hz_display(tmp_path):
    out = tmp_path / "run"
    config = write_config(tmp_path)
    assert main(["psd", "--config", str(config), "--out", str(out),
                 "--points", "101", "--hz"]) == 0
    rows = (out / "psd.csv").read_text().splitlines()
    assert rows[0] == "frequency_hz,y_re,y_im"
    edge_hz = float(rows[-1].split(",")[0])
    assert edge_hz == pytest.approx(48290.87001810405 / (2 * np.pi), rel=1e-9)


def test_psd_command_json_format(tmp_path):
    out = tmp_path / "run"
    config = write_config(tmp_path)
    assert main(["psd", "--config", str(config), "--out", str(out),
                 "--points", "64", "--format", "json"]) == 0
    doc = json.loads((out / "psd.json").read_text())
    assert doc["axis"] == "angular_frequency_rad_per_s"
    assert len(doc["x"]) == 64


def test_psd_command_line_spectrum(tmp_path):
    out = tmp_path / "run"
    config = write_config(tmp_path, speed_variance=0.0)
    assert main(["psd", "--config", str(config), "--out", str(out)]) == 0
    manifest = assert_digests_match(out)
    assert manifest["line_count"] == 89
    assert manifest["line_spacing_rad_s"] == 1046.0
    rows = (out / "psd_lines.csv").read_text().splitlines()
    assert rows[0] == "angular_frequency_rad_per_s,weight"
    assert len(rows) == 90


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_psd_line_spectrum_table_follows_the_format(tmp_path, fmt):
    out = tmp_path / "run"
    config = write_config(tmp_path, speed_variance=0.0)
    assert main(["psd", "--config", str(config), "--out", str(out),
                 "--format", fmt]) == 0
    manifest = assert_digests_match(out)
    assert manifest["arguments"]["format"] == fmt
    assert {path.name for path in out.iterdir()} == \
        {f"psd_lines.{fmt}", "psd.svg", "manifest.json"}
    lines = sd.psd_line_spectrum(sd.SwarmParams(1, 4, 2, 0.21, 0.03, 523.0, 0.0))
    text = (out / f"psd_lines.{fmt}").read_text()
    if fmt == "json":
        doc = json.loads(text)
        assert doc["meta"] == {"kind": "psd_line_spectrum"}
        assert doc["x"] == lines.x.tolist()
        assert doc["y_re"] == lines.y.tolist()
    else:
        assert text.splitlines()[0] == "angular_frequency_rad_per_s,weight"
        assert len(text.splitlines()) == len(lines.x) + 1


def test_simulate_command_determinism(tmp_path):
    config = write_config(tmp_path, grid={"n_samples": 64},
                          estimator={"n_realizations": 2, "seed": 5})
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["simulate", "--config", str(config), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(config), "--out", str(out2)]) == 0
    d1 = manifest_of(out1)["outputs"]
    d2 = manifest_of(out2)["outputs"]
    assert d1 == d2
    ens = sd.load_ensemble(out1 / "ensemble.bin")
    assert ens.n_realizations == 2
    assert ens.master_seed == 5


def test_simulate_command_seed_override_changes_output(tmp_path):
    config = write_config(tmp_path, grid={"n_samples": 64},
                          estimator={"n_realizations": 2, "seed": 5})
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["simulate", "--config", str(config), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(config), "--out", str(out2),
                 "--seed", "6"]) == 0
    ens1 = manifest_of(out1)["outputs"]
    ens2 = manifest_of(out2)["outputs"]
    assert ens1 != ens2
    assert manifest_of(out2)["config"]["estimator"]["seed"] == 6


def test_simulate_command_spectrogram(tmp_path):
    config = write_config(tmp_path, grid={"n_samples": 600},
                          estimator={"n_realizations": 1, "seed": 5})
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(config), "--out", str(out),
                 "--spectrogram"]) == 0
    svg = (out / "spectrogram.svg").read_text()
    assert "image/png;base64" in svg


def test_simulate_refuses_a_spectrogram_longer_than_the_grid_before_synthesis(
        tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("simulate_ensemble was called")

    monkeypatch.setattr("swarmdoppler.cli.simulate_ensemble", never)
    window = simulate._STFT_WINDOW
    config = write_config(tmp_path, grid={"n_samples": window - 1})
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(config), "--out", str(out), "--n", "10000",
                 "--spectrogram"]) == 2
    assert capsys.readouterr().err == (f"error: --spectrogram needs one {window}-sample "
                                       f"window, got grid.n_samples {window - 1}\n")
    assert not out.exists()


def test_validate_command_passes_at_scale(tmp_path):
    config = write_config(tmp_path, grid={"n_samples": 512},
                          estimator={"n_realizations": 10_000, "seed": 31415})
    out = tmp_path / "run"
    code = main(["validate", "--config", str(config), "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    assert code == 0, report
    assert report["overall_pass"] is True
    assert report["acf"]["nrmse"] <= 0.05
    assert report["acf"]["estimator"] == "single_reference"
    assert report["psd"]["nrmse"] <= 0.10
    assert report["psd"]["estimator"] == "time_average"
    assert report["advisories"] == []
    assert (out / "acf_overlay.svg").exists()
    assert (out / "psd_overlay.svg").exists()


def test_validate_command_flags_insufficient_n(tmp_path):
    config = write_config(tmp_path, grid={"n_samples": 256},
                          estimator={"n_realizations": 40, "seed": 2})
    out = tmp_path / "run"
    code = main(["validate", "--config", str(config), "--out", str(out)])
    assert code == 4
    report = json.loads((out / "report.json").read_text())
    assert report["overall_pass"] is False
    assert any("insufficient" in a for a in report["advisories"])
    # report is still written alongside the failing exit code
    assert_digests_match(out)


def test_validate_command_zero_variance_consistency(tmp_path):
    config = write_config(tmp_path, speed_variance=0.0,
                          grid={"n_samples": 128},
                          estimator={"n_realizations": 20, "seed": 3})
    out = tmp_path / "run"
    code = main(["validate", "--config", str(config), "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    assert report["sigma_zero_consistency"]["pass"] is True
    assert report["sigma_zero_consistency"]["max_relative_error"] <= 1e-6
    assert code in (0, 4)   # the small-N Monte Carlo side may legitimately fail


@pytest.mark.parametrize("variance", [27.0, 0.0])
def test_validate_command_writes_the_library_report(tmp_path, variance):
    config = write_config(tmp_path, speed_variance=variance, grid={"n_samples": 256},
                          estimator={"n_realizations": 40, "seed": 2})
    main(["validate", "--config", str(config), "--out", str(tmp_path / "run")])
    loaded = sd.load_config(config.read_text())
    report = validate(loaded.params, loaded.grid, 40, 2).report
    assert (tmp_path / "run" / "report.json").read_text() == \
        json.dumps(report, sort_keys=True, indent=1) + "\n"


def test_coeffs_command(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["coeffs", "--config", str(config), "--out", str(out),
                 "--max-n", "200", "--l-sweep", "10,100"]) == 0
    manifest = assert_digests_match(out)
    assert manifest["truncation_index"] == 44
    rows = (out / "power_fractions.csv").read_text().splitlines()
    assert rows[0] == "electrical_size,fraction,k_magnitude_order,k_index_order"
    # per size, the needed coefficient count grows with the fraction
    table = {}
    for line in rows[1:]:
        size, fraction, k_mag, k_idx = line.split(",")
        table.setdefault(size, []).append((float(fraction), int(k_mag), int(k_idx)))
    for entries in table.values():
        fractions, k_mags, k_idxs = zip(*sorted(entries))
        assert list(k_mags) == sorted(k_mags)
        assert list(k_idxs) == sorted(k_idxs)
    coeff_rows = (out / "coefficients.csv").read_text().splitlines()
    assert len(coeff_rows) == 201
