import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bunchlidar import cli, correlator, presets, tagio
from bunchlidar.photonsim import DetectorSpec, ScenarioConfig

MINI_CONFIG = {
    "scenario": {
        "wavelength_nm": 518.0,
        "coherence_time_ns": 23.2,
        "source_rate_hz": 2.4e6,
        "distance_m": 0.5,
        "refractive_index": 1.0,
        "split_probe": 0.5,
        "split_ref": 0.5,
        "duration_s": 0.05,
        "seed": 9,
        "detectors": [
            {"efficiency": 1.0, "jitter_fwhm_ps": 0.0, "dead_time_ps": 0.0, "dark_rate_hz": 0.0},
            {"efficiency": 1.0, "jitter_fwhm_ps": 0.0, "dead_time_ps": 0.0, "dark_rate_hz": 0.0},
        ],
    },
    "correlation": {"bin_width_ps": 1000, "window_ps": [-100_000, 100_000]},
    "output": {"resolution_ps": 1},
}


@pytest.fixture
def mini_config(tmp_path):
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(MINI_CONFIG))
    return str(path)


@pytest.fixture
def histogram_csv(tmp_path, mini_config, capsys):
    tags, csv = tmp_path / "t.bin", tmp_path / "h.csv"
    assert cli.main(["simulate", "--config", mini_config, "--out", str(tags)]) == 0
    # +-300 ns leaves bins beyond 5 tau_c of the peak for the SNR measurement
    assert cli.main(["correlate", "--in", str(tags), "--bin-width-ps", "4000",
                     "--window-ps=-300000:300000", "--out", str(csv)]) == 0
    capsys.readouterr()
    return str(csv)


class TestConfigHandling:
    def test_all_presets_parse(self):
        for name in presets.PRESET_FILES:
            doc = presets.load_preset(name)
            presets.scenario_from_document(doc)
            presets.correlation_from_document(doc)
            presets.fit_from_document(doc)
            presets.output_from_document(doc)

    def test_unknown_preset(self):
        with pytest.raises(presets.ConfigError):
            presets.load_preset("no-such-preset")

    def test_unknown_keys_rejected(self):
        with pytest.raises(presets.ConfigError):
            presets.validate_document({"scenario": {"lazer_power": 9000}})
        with pytest.raises(presets.ConfigError):
            presets.validate_document({"simulation": {}})
        with pytest.raises(presets.ConfigError):
            presets.validate_document({"scenario": {"detectors": [{"qe": 0.5}, {}]}})

    @pytest.mark.parametrize("section, key", [
        ("detectors", "saturation_rate_hz"),
        ("output", "histogram_path"),
        ("output", "fit_path"),
        ("scenario", "field_step_ps"),
        ("correlation", "chunk_ticks"),
    ])
    def test_removed_keys_rejected(self, section, key):
        doc = presets.load_preset("short-range")
        if section == "detectors":
            doc["scenario"]["detectors"][0][key] = 1.0e7
        else:
            doc[section][key] = None
        with pytest.raises(presets.ConfigError, match=key):
            presets.validate_document(doc)

    @pytest.mark.parametrize("key, value", [
        ("bin_width_ps", [1]), ("window_ps", 10), ("window_ps", ["a", 1]),
    ])
    def test_bad_correlation_value_names_key(self, key, value):
        doc = presets.load_preset("short-range")
        doc["correlation"][key] = value
        with pytest.raises(presets.ConfigError, match=key):
            presets.correlation_from_document(doc)

    @pytest.mark.parametrize("section, key, value", [
        ("scenario", "seed", 1.5), ("scenario", "seed", True),
        ("correlation", "bin_width_ps", 1000.7), ("correlation", "bin_width_ps", True),
        ("correlation", "window_ps", [-100.5, 100]), ("correlation", "window_ps", [False, 100]),
        ("fit", "max_iterations", 20.5), ("fit", "max_iterations", True),
        ("output", "resolution_ps", True), ("output", "resolution_ps", 2.5),
    ])
    def test_bad_integer_value_names_key(self, section, key, value):
        doc = presets.load_preset("short-range")
        doc.setdefault(section, {})[key] = value
        build = {"scenario": presets.scenario_from_document,
                 "correlation": presets.correlation_from_document,
                 "fit": presets.fit_from_document,
                 "output": presets.output_from_document}[section]
        with pytest.raises(presets.ConfigError, match=key):
            build(doc)

    def test_integral_float_is_an_integer(self):
        doc = {"correlation": {"bin_width_ps": 40.0, "window_ps": [-80.0, 80]}}
        assert presets.correlation_from_document(doc) == presets.CorrelationSettings(40, (-80, 80))

    def test_omitted_keys_take_dataclass_defaults(self):
        required = {"wavelength_nm": 518.0, "coherence_time_ns": 23.2,
                    "source_rate_hz": 1e6, "duration_s": 0.1, "seed": 3}
        config = presets.scenario_from_document({"scenario": required})
        passed = {"source", "duration_s", "seed"}
        for field in dataclasses.fields(ScenarioConfig):
            if field.name not in passed:
                assert getattr(config, field.name) == field.default, field.name
        assert config.split_probe == 0.92 and config.split_ref == 0.04
        assert presets.fit_from_document({}) == {}
        assert presets.output_from_document({}) == presets.OutputSettings()

    def test_empty_detector_entry_is_default_spec(self):
        doc = {"scenario": {"wavelength_nm": 518.0, "coherence_time_ns": 1.0,
                            "source_rate_hz": 1e6, "duration_s": 0.1, "seed": 3,
                            "detectors": [{}, {"efficiency": 0.25}]}}
        config = presets.scenario_from_document(doc)
        assert config.detector_ref == DetectorSpec()
        assert config.detector_probe == DetectorSpec(efficiency=0.25)

    def test_dotted_override(self):
        doc = {"scenario": {"detectors": [{"efficiency": 0.5}, {"efficiency": 0.5}]}}
        presets.apply_dotted_override(doc, "scenario.detectors.1.efficiency=0.25")
        assert doc["scenario"]["detectors"][1]["efficiency"] == 0.25
        presets.apply_dotted_override(doc, "scenario.seed=42")
        assert doc["scenario"]["seed"] == 42

    def test_bad_override_path(self):
        with pytest.raises(presets.ConfigError):
            presets.apply_dotted_override({}, "justakey")
        with pytest.raises(presets.ConfigError):
            presets.apply_dotted_override({"scenario": {"detectors": []}},
                                          "scenario.detectors.3.efficiency=1")

    def test_merge_deep(self):
        base = presets.load_preset("short-range")
        merged = presets.merge_documents(base, {"scenario": {"seed": 1}})
        assert merged["scenario"]["seed"] == 1
        assert merged["scenario"]["wavelength_nm"] == base["scenario"]["wavelength_nm"]


class TestHelp:
    def test_every_flag_documented(self):
        parser = cli.build_parser()
        subparsers = next(
            a for a in parser._actions if isinstance(a, cli.argparse._SubParsersAction)
        )
        for name, sub in subparsers.choices.items():
            help_text = sub.format_help()
            for action in sub._actions:
                assert action.help, f"{name}: {action.option_strings} lacks help"
                for flag in action.option_strings:
                    assert flag in help_text

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        assert cli.main(["simulate", "--help"]) == 0
        capsys.readouterr()


class TestSimulate:
    def test_deterministic_bytes(self, tmp_path, mini_config, capsys):
        out1, out2 = tmp_path / "a.bin", tmp_path / "b.bin"
        assert cli.main(["simulate", "--config", mini_config, "--out", str(out1)]) == 0
        assert cli.main(["simulate", "--config", mini_config, "--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()
        truth1 = json.loads((tmp_path / "a.bin.truth.json").read_text())
        truth2 = json.loads((tmp_path / "b.bin.truth.json").read_text())
        assert truth1 == truth2

    def test_zero_duration_valid_file(self, tmp_path, mini_config, capsys):
        out = tmp_path / "empty.bin"
        code = cli.main(["simulate", "--config", mini_config, "--duration-s", "0", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        streams, header = tagio.read_tags(out)
        assert header["channel_count"] == 2
        assert all(len(s) == 0 for s in streams)

    def test_seed_flag_changes_output(self, tmp_path, mini_config, capsys):
        out1, out2 = tmp_path / "a.bin", tmp_path / "b.bin"
        cli.main(["simulate", "--config", mini_config, "--out", str(out1)])
        cli.main(["simulate", "--config", mini_config, "--seed", "10", "--out", str(out2)])
        capsys.readouterr()
        assert out1.read_bytes() != out2.read_bytes()

    def test_missing_out_is_user_error(self, mini_config, capsys):
        assert cli.main(["simulate", "--config", mini_config]) == 1
        assert "output path" in capsys.readouterr().err

    def test_short_range_preset_writes_two_channel_file(self, tmp_path, capsys):
        out = tmp_path / "fig4.bin"
        code = cli.main(["simulate", "--preset", "short-range",
                         "--set", "scenario.duration_s=0.002", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        streams, header = tagio.read_tags(out)
        assert header == {"resolution_ps": 1, "channel_count": 2}
        assert all(len(s) > 0 for s in streams)

    def test_truth_sidecar_contents(self, tmp_path, mini_config, capsys):
        out = tmp_path / "t.bin"
        cli.main(["simulate", "--config", mini_config, "--out", str(out)])
        capsys.readouterr()
        truth = json.loads((tmp_path / "t.bin.truth.json").read_text())["truth"]
        assert truth["seed"] == 9
        assert truth["distance_m"] == 0.5
        assert truth["delay_ticks"] == round(2 * 0.5 / 299792458.0 * 1e12)


class TestCorrelateFitRange:
    @pytest.fixture
    def tag_file(self, tmp_path, mini_config, capsys):
        out = tmp_path / "t.bin"
        assert cli.main(["simulate", "--config", mini_config, "--out", str(out)]) == 0
        capsys.readouterr()
        return str(out)

    def test_correlate_flags_without_config(self, tmp_path, tag_file, capsys):
        csv = tmp_path / "h.csv"
        code = cli.main(["correlate", "--in", tag_file, "--bin-width-ps", "1000",
                         "--window-ps=-100000:100000", "--out", str(csv)])
        assert code == 0
        assert "pairs" in capsys.readouterr().out

    def test_correlate_needs_two_channels(self, tmp_path, capsys):
        single = tmp_path / "single.bin"
        from tests.test_tagio import make_streams
        tagio.write_tags(make_streams([[100, 200]]), 1, single)
        code = cli.main(["correlate", "--in", str(single), "--bin-width-ps", "10",
                         "--window-ps=0:100", "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "2-channel" in capsys.readouterr().err

    def test_correlate_empty_file_errors(self, tmp_path, mini_config, capsys):
        empty = tmp_path / "empty.bin"
        cli.main(["simulate", "--config", mini_config, "--duration-s", "0", "--out", str(empty)])
        code = cli.main(["correlate", "--config", mini_config, "--in", str(empty),
                         "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "no events" in capsys.readouterr().err

    def test_fit_and_range_pipeline(self, tmp_path, tag_file, mini_config, capsys):
        csv = tmp_path / "h.csv"
        cli.main(["correlate", "--config", mini_config, "--in", tag_file, "--out", str(csv)])
        fit_json = tmp_path / "fit.json"
        assert cli.main(["fit", "--in", str(csv), "--out", str(fit_json)]) == 0
        record = json.loads(fit_json.read_text())
        assert record["converged"] is True
        assert list(record) == sorted(record)
        out = capsys.readouterr().out
        assert "amplitude" in out
        assert cli.main(["range", "--in", str(csv)]) == 0
        out = capsys.readouterr().out
        assert "d = " in out and "+/-" in out
        # recovered distance within a broad statistical band of the 0.5 m truth
        # (sigma_d ~ 8 cm at these mini-scenario statistics)
        distance = float(out.split("d = ")[1].split(" ")[0])
        assert abs(distance - 0.5) < 0.25

    def test_degenerate_fit_is_user_error(self, tmp_path, capsys):
        path = tmp_path / "spike.csv"
        with open(path, "w", newline="\n") as f:
            f.write("tau_ps,counts,g2,sigma\n")
            for i in range(64):
                g2 = 6.0 if i == 32 else 1.0
                f.write(f"{(i + 0.5) * 1000:.1f},{100},{g2!r},{0.01!r}\n")
        assert cli.main(["fit", "--in", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("bad_row, expected", [
        ("2500.0,100,1.0", "line 4: expected 4 fields, got 3"),
        ("2500.0,100,1.0,0.01,7", "line 4: expected 4 fields, got 5"),
        ("2500.0,many,1.0,0.01", "line 4"),
        ("2500.0,100,1.0,tiny", "line 4"),
    ])
    def test_malformed_csv_row_names_line(self, tmp_path, capsys, bad_row, expected):
        path = tmp_path / "bad.csv"
        rows = ["tau_ps,counts,g2,sigma", "500.0,100,1.0,0.01", "1500.0,100,1.0,0.01",
                bad_row, "3500.0,100,1.0,0.01"]
        path.write_text("\n".join(rows) + "\n")
        assert cli.main(["fit", "--in", str(path)]) == 1
        err = capsys.readouterr().err
        assert expected in err and "Traceback" not in err


class TestSnrCommand:
    def test_predict_mode(self, capsys):
        assert cli.main(["snr", "--rate-hz", "1e7", "--v2", "0.6",
                         "--tauc-ns", "23", "--dt-ms", "1"]) == 0
        out = capsys.readouterr().out
        assert "28.77" in out

    def test_predict_needs_inputs(self, capsys):
        assert cli.main(["snr", "--rate-hz", "1e7", "--dt-ms", "1"]) == 1
        capsys.readouterr()

    def test_measure_mode(self, tmp_path, histogram_csv, capsys):
        out = tmp_path / "snr.json"
        assert cli.main(["snr", "--in", histogram_csv, "--rate-hz", "1.2e6",
                         "--dt-ms", "50", "--out", str(out)]) == 0
        capsys.readouterr()
        record = json.loads(out.read_text())
        assert record["measured_snr"] > 0

    def test_measure_mode_rejects_nonuniform_bins(self, tmp_path, capsys):
        path = tmp_path / "uneven.csv"
        with open(path, "w", newline="\n") as f:
            f.write("tau_ps,counts,g2,sigma\n")
            for i, tau in enumerate((500.0, 1500.0, 3500.0, 4500.0, 5500.0)):
                f.write(f"{tau!r},100,{1.0 + 0.1 * i!r},{0.01!r}\n")
        assert cli.main(["snr", "--in", str(path), "--rate-hz", "1e6", "--dt-ms", "1"]) == 1
        assert "not uniformly spaced" in capsys.readouterr().err


class TestConvert:
    @pytest.mark.parametrize("last", [2**53 + 1, 2**62 + 1, 2**63 - 2])
    def test_full_tick_range_round_trip_and_correlate(self, tmp_path, last, capsys):
        text, binary = tmp_path / "t.txt", tmp_path / "t.bin"
        text_back, binary_back = tmp_path / "back.txt", tmp_path / "back.bin"
        text.write_text(f"# resolution_ps=1\n# channels=2\n0,0\n1,1\n{last - 3},0\n"
                        f"{last - 1},1\n{last},0\n")
        assert cli.main(["convert", "--in", str(text), "--out", str(binary), "--to", "binary"]) == 0
        assert cli.main(["convert", "--in", str(binary), "--out", str(text_back), "--to", "text"]) == 0
        assert text_back.read_text() == text.read_text()
        assert cli.main(["convert", "--in", str(text_back), "--out", str(binary_back),
                         "--to", "binary"]) == 0
        assert binary_back.read_bytes() == binary.read_bytes()
        csv = tmp_path / "h.csv"
        assert cli.main(["correlate", "--in", str(binary), "--bin-width-ps", "1",
                         "--window-ps=-4:4", "--out", str(csv)]) == 0
        capsys.readouterr()
        _, counts, _, _ = correlator.read_histogram_csv(csv)
        assert counts.tolist() == [0, 0, 0, 1, 0, 1, 1, 0]

    def test_simulated_text_off_grid_correlates_like_binary(self, tmp_path, mini_config, capsys):
        # at 25 ps the simulated times are off the grid; the text writer
        # rounds them as the binary writer does, so correlate reads both alike
        csvs = []
        for fmt in ("binary", "text"):
            tags, csv = tmp_path / f"t.{fmt}", tmp_path / f"{fmt}.csv"
            flags = ["--text"] if fmt == "text" else []
            assert cli.main(["simulate", "--config", mini_config, "--resolution-ps", "25",
                             *flags, "--out", str(tags)]) == 0
            assert cli.main(["correlate", "--config", mini_config, "--in", str(tags),
                             "--out", str(csv)]) == 0
            csvs.append(csv.read_bytes())
        capsys.readouterr()
        assert csvs[0] == csvs[1]

    def test_round_trip_via_text(self, tmp_path, mini_config, capsys):
        binary = tmp_path / "t.bin"
        cli.main(["simulate", "--config", mini_config, "--out", str(binary)])
        text = tmp_path / "t.txt"
        back = tmp_path / "back.bin"
        assert cli.main(["convert", "--in", str(binary), "--out", str(text), "--to", "text"]) == 0
        assert cli.main(["convert", "--in", str(text), "--out", str(back), "--to", "binary"]) == 0
        capsys.readouterr()
        assert binary.read_bytes() == back.read_bytes()


class TestExitCodes:
    def test_unknown_flag_is_user_error(self, capsys):
        assert cli.main(["simulate", "--frobnicate"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["fit", "--in", "/nonexistent/h.csv"],
        ["fit", "--in", "{dir}"],
        ["correlate", "--in", "{dir}", "--bin-width-ps", "10", "--window-ps=-10:10", "--out", "x"],
        ["simulate", "--preset", "short-range", "--duration-s", "1e-6", "--out", "{dir}"],
    ], ids=["missing", "directory-fit", "directory-correlate", "directory-simulate"])
    def test_missing_file_is_user_error(self, tmp_path, argv, capsys):
        assert cli.main([arg.format(dir=tmp_path) for arg in argv]) == 1
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("assignment, key", [
        ("scenario.detectors=5", "detectors"),
        ("scenario.source_rate_hz=[1]", "source_rate_hz"),
        ("scenario.field_step_ps=null", "field_step_ps"),
    ])
    def test_bad_config_value_is_user_error(self, tmp_path, assignment, key, capsys):
        code = cli.main(["simulate", "--preset", "short-range", "--set", assignment,
                         "--out", str(tmp_path / "x.bin")])
        assert code == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["--set", "scenario.seed=1.5"], "seed"),
        (["--set", "scenario.seed=true"], "seed"),
        (["--set", "output.resolution_ps=true"], "resolution_ps"),
        (["--seed", "-1"], "seed must be non-negative"),
    ])
    def test_bad_integer_is_user_error(self, tmp_path, mini_config, argv, message, capsys):
        code = cli.main(["simulate", "--config", mini_config, *argv,
                         "--out", str(tmp_path / "x.bin")])
        assert code == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not (tmp_path / "x.bin").exists()

    def test_window_beyond_tick_range_is_user_error(self, tmp_path, capsys):
        tags = tmp_path / "t.txt"
        tags.write_text("# resolution_ps=1\n# channels=2\n0,0\n1,1\n")
        code = cli.main(["correlate", "--in", str(tags), "--bin-width-ps", "10000000000000",
                         "--window-ps=-100000000000000000000:0", "--out", str(tmp_path / "h.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert "64-bit" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag, value", [
        ("--distance-m", "2e15"), ("--duration-s", "1e8"), ("--duration-s", "inf"),
        ("--duration-s", "1e300"), ("--distance-m", "inf"), ("--duration-s", "nan"),
    ])
    def test_tick_overflow_is_user_error(self, tmp_path, mini_config, flag, value, capsys):
        code = cli.main(["simulate", "--config", mini_config, flag, value,
                         "--out", str(tmp_path / "x.bin")])
        assert code == 1
        err = capsys.readouterr().err
        assert "64-bit" in err
        assert "Traceback" not in err

    def test_text_tick_overflow_is_user_error(self, tmp_path, capsys):
        text = tmp_path / "t.txt"
        text.write_text("# resolution_ps=1\n0,0\n9223372036854775808,0\n")
        assert cli.main(["convert", "--in", str(text), "--out", str(tmp_path / "t.bin"),
                         "--to", "binary"]) == 1
        err = capsys.readouterr().err
        assert "line 3" in err
        assert "Traceback" not in err

    def test_bad_window_format(self, tmp_path, mini_config, capsys):
        assert cli.main(["correlate", "--in", "x", "--bin-width-ps", "10",
                         "--window-ps", "10", "--out", "y"]) == 1
        capsys.readouterr()


class TestDependencies:
    def test_cli_import_pulls_in_no_scipy(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        code = ("import bunchlidar.cli, sys; assert not any("
                "m == 'scipy' or m.startswith('scipy.') for m in sys.modules)")
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
