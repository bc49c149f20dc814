"""File formats, plotting, scenario configs, the scenario runner, and the CLI."""

import json
import os

import numpy as np
import pytest

from quasidiff.cli import main
from quasidiff.errors import (
    ConfigError,
    DuplicatePointError,
    EmptySpectrumError,
    FormatError,
    InvalidArgumentError,
    UnknownScenarioError,
)
from quasidiff.io import read_points, read_spectrum, sidecar_path, write_points, write_spectrum
from quasidiff.perturb import NoiseModel, recover
from quasidiff.pointset import gen_fibonacci, gen_lattice, window
from quasidiff.scenarios import SCENARIOS, ScenarioConfig, run_scenario
from quasidiff.spectral import FrequencyGrid, amplitude_spectrum
from quasidiff.svg import Table, plot_emit


class TestPointsIO:
    def test_round_trip_lattice(self, tmp_path):
        x = gen_lattice(1, 1.0, 100.0)
        path = str(tmp_path / "z.pts")
        write_points(path, x)
        back = read_points(path)
        assert back.dim == x.dim
        assert back.sep_radius == x.sep_radius
        assert back.extent == x.extent
        assert back.label == x.label
        assert np.array_equal(back.points, x.points)

    def test_round_trip_2d(self, tmp_path):
        x = gen_lattice(2, 1.0, 10.0, label="plane")
        path = str(tmp_path / "z2.pts")
        write_points(path, x)
        back = read_points(path)
        assert back.dim == 2
        assert back.label == "plane"
        assert np.array_equal(back.points, x.points)

    def test_round_trip_is_bit_exact_on_irrational_coordinates(self, tmp_path):
        x = gen_fibonacci(200.0)
        path = str(tmp_path / "fib.pts")
        write_points(path, x)
        back = read_points(path)
        # shortest round-trip decimals reproduce every double bit for bit
        assert np.array_equal(back.points, x.points)

    def test_label_free_header_reads_with_empty_label(self, tmp_path):
        path = tmp_path / "bare.pts"
        path.write_text("# d=1 r0=1.0 extent=5.0\n0.0\n1.0\n2.0\n")
        back = read_points(str(path))
        assert back.label == ""
        assert back.dim == 1
        assert back.extent == 5.0
        assert np.array_equal(back.points, np.array([[0.0], [1.0], [2.0]]))

    def test_duplicate_row_rejected(self, tmp_path):
        path = tmp_path / "dup.pts"
        path.write_text("# d=1 r0=1.0 extent=5.0\n0.0\n1.0\n1.0\n")
        with pytest.raises(DuplicatePointError):
            read_points(str(path))

    def test_unsorted_rows_rejected(self, tmp_path):
        path = tmp_path / "unsorted.pts"
        path.write_text("# d=1 r0=1.0 extent=5.0\n1.0\n0.0\n")
        with pytest.raises(FormatError, match="sorted"):
            read_points(str(path))

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "badhead.pts"
        path.write_text("# dim=1 r0=1.0 extent=5.0\n0.0\n")
        with pytest.raises(FormatError, match="header"):
            read_points(str(path))

    def test_wrong_coordinate_count_rejected(self, tmp_path):
        path = tmp_path / "ragged.pts"
        path.write_text("# d=2 r0=1.0 extent=5.0\n0.0,0.0\n1.0\n")
        with pytest.raises(FormatError, match="coordinates"):
            read_points(str(path))

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_coordinate_rejected(self, tmp_path, value):
        path = tmp_path / "nonfinite.pts"
        path.write_text(f"# d=2 r0=1.0 extent=5.0\n0.0,0.0\n1.0,{value}\n")
        with pytest.raises(FormatError, match=":3: non-finite coordinate"):
            read_points(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.pts"
        path.write_text("")
        with pytest.raises(FormatError, match="empty"):
            read_points(str(path))


GRID = FrequencyGrid(axes=((-1.2, 1.2, 0.3),))


class TestSpectrumIO:
    @pytest.fixture()
    def spectrum(self):
        return amplitude_spectrum(gen_fibonacci(40.0), 30.0, GRID)

    def test_round_trip_is_bit_exact(self, tmp_path, spectrum):
        path = str(tmp_path / "spec.csv")
        write_spectrum(path, spectrum)
        back = read_spectrum(path)
        assert back.grid.axes == spectrum.grid.axes
        assert back.window_radius == spectrum.window_radius
        assert back.label == spectrum.label
        assert np.array_equal(back.amplitude, spectrum.amplitude)
        assert np.array_equal(back.power, spectrum.power)
        assert bool(back.valid.all())

    def test_invalid_nodes_survive_round_trip(self, tmp_path):
        # uniform noise of half-width 0.25 has a transform zero at frequency
        # 2, so recovery marks that node invalid; the file must keep the mask
        grid = FrequencyGrid(axes=((0.0, 2.0, 0.5),))
        spec = amplitude_spectrum(gen_lattice(1, 1.0, 10.0), 5.0, grid)
        rec = recover(spec, NoiseModel.uniform(1, 0.25))
        assert not rec.valid.all() and rec.valid.any()
        path = str(tmp_path / "rec.csv")
        write_spectrum(path, rec)
        back = read_spectrum(path)
        assert np.array_equal(back.valid, rec.valid)
        assert np.array_equal(back.amplitude[rec.valid], rec.amplitude[rec.valid])
        assert np.isnan(back.amplitude[~rec.valid]).all()
        assert np.isnan(back.power[~rec.valid]).all()

    def test_tampered_power_column_rejected(self, tmp_path, spectrum):
        path = str(tmp_path / "tampered.csv")
        write_spectrum(path, spectrum)
        lines = (tmp_path / "tampered.csv").read_text().splitlines()
        parts = lines[3].split(",")
        parts[3] = "999.0"
        lines[3] = ",".join(parts)
        (tmp_path / "tampered.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="power"):
            read_spectrum(path)

    def test_missing_sidecar_rejected(self, tmp_path, spectrum):
        path = str(tmp_path / "orphan.csv")
        write_spectrum(path, spectrum)
        os.unlink(sidecar_path(path))
        with pytest.raises(FormatError, match="sidecar"):
            read_spectrum(path)

    def test_header_only_file_rejected_as_empty(self, tmp_path, spectrum):
        path = str(tmp_path / "hollow.csv")
        write_spectrum(path, spectrum)
        header = (tmp_path / "hollow.csv").read_text().splitlines()[0]
        (tmp_path / "hollow.csv").write_text(header + "\n")
        with pytest.raises(EmptySpectrumError):
            read_spectrum(path)

    def test_row_count_must_match_grid(self, tmp_path, spectrum):
        path = str(tmp_path / "short.csv")
        write_spectrum(path, spectrum)
        lines = (tmp_path / "short.csv").read_text().splitlines()
        (tmp_path / "short.csv").write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(FormatError, match="rows"):
            read_spectrum(path)


LINE_TABLE = Table(("x", "y"), ((0.0, 1.0), (1.0, 3.0), (2.0, 2.0)))


class TestSvg:
    @pytest.mark.parametrize(
        "kind,table",
        [("line", LINE_TABLE), ("scatter", LINE_TABLE)],
    )
    def test_emits_svg_document(self, tmp_path, kind, table):
        path = str(tmp_path / f"{kind}.svg")
        plot_emit(table, kind, path, title="demo", config_hash="cafef00d")
        text = (tmp_path / f"{kind}.svg").read_text()
        assert text.startswith("<svg")
        assert "</svg>" in text
        assert "cafef00d" in text
        assert "demo" in text

    def test_identical_arguments_give_identical_bytes(self, tmp_path):
        a, b = str(tmp_path / "a.svg"), str(tmp_path / "b.svg")
        plot_emit(LINE_TABLE, "line", a, title="t", config_hash="h")
        plot_emit(LINE_TABLE, "line", b, title="t", config_hash="h")
        assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()

    def test_unknown_kind_rejected(self, tmp_path):
        for kind in ("pie", "heatmap"):
            with pytest.raises(InvalidArgumentError, match="kind"):
                plot_emit(LINE_TABLE, kind, str(tmp_path / "x.svg"))

    def test_line_needs_two_columns(self, tmp_path):
        one = Table(("x",), ((0.0,), (1.0,)))
        with pytest.raises(InvalidArgumentError):
            plot_emit(one, "line", str(tmp_path / "x.svg"))

    def test_table_rejects_empty_and_ragged(self):
        with pytest.raises(InvalidArgumentError):
            Table((), ((1.0,),))
        with pytest.raises(InvalidArgumentError):
            Table(("x",), ())
        with pytest.raises(InvalidArgumentError, match="ragged"):
            Table(("x", "y"), ((0.0, 1.0), (2.0,)))

    def test_column_accessor(self):
        assert LINE_TABLE.column(1) == [1.0, 3.0, 2.0]


class TestScenarioConfig:
    def test_from_json_round_trip(self):
        text = json.dumps(
            {
                "scenario": "completeness",
                "seed": 3,
                "out_dir": "somewhere",
                "tolerances": {"eps_tol": 1e-7},
            }
        )
        cfg = ScenarioConfig.from_json(text)
        assert cfg.scenario == "completeness"
        assert cfg.seed == 3
        assert cfg.out_dir == "somewhere"
        assert cfg.tol("eps_tol", 1e-6) == 1e-7
        assert cfg.tol("absent", 0.25) == 0.25

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="frobnicate"):
            ScenarioConfig.from_json('{"scenario": "completeness", "frobnicate": 1}')

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_json("[1, 2, 3]")

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_json("{not json")

    def test_missing_scenario_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_json('{"seed": 1}')

    def test_tolerances_must_be_a_mapping(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_json('{"scenario": "completeness", "tolerances": [1]}')

    def test_hash_ignores_out_dir_but_not_seed(self):
        a = ScenarioConfig(scenario="completeness", out_dir="a")
        b = ScenarioConfig(scenario="completeness", out_dir="b")
        c = ScenarioConfig(scenario="completeness", out_dir="a", seed=1)
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()


class TestRunScenario:
    def test_unknown_scenario_lists_registered_names(self, tmp_path):
        cfg = ScenarioConfig(scenario="frobnicate", out_dir=str(tmp_path))
        with pytest.raises(UnknownScenarioError, match="completeness"):
            run_scenario(cfg)

    def test_unwritable_out_dir_rejected(self):
        cfg = ScenarioConfig(scenario="completeness", out_dir="/proc/nonexistent/x")
        with pytest.raises(ConfigError, match="writable"):
            run_scenario(cfg)

    def test_completeness_passes_and_writes_artifacts(self, tmp_path):
        cfg = ScenarioConfig(scenario="completeness", out_dir=str(tmp_path))
        result = run_scenario(cfg)
        assert result.passed
        assert result.criteria
        assert all(c.passed for c in result.criteria)
        doc = json.loads((tmp_path / "completeness-result.json").read_text())
        assert doc["passed"] is True
        assert doc["config_hash"] == cfg.config_hash()
        assert {c["name"] for c in doc["criteria"]} == {c.name for c in result.criteria}
        for path in result.manifest:
            assert os.path.exists(path)

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_artifacts_reproduce_byte_for_byte_across_out_dirs(self, tmp_path, name):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            result = run_scenario(ScenarioConfig(scenario=name, out_dir=str(out)))
            assert result.passed, [c for c in result.criteria if not c.passed]
        assert (out_a / f"{name}-result.json").exists()
        names_a = sorted(os.listdir(out_a))
        assert names_a == sorted(os.listdir(out_b))
        for fname in names_a:
            assert (out_a / fname).read_bytes() == (out_b / fname).read_bytes(), fname


def noise_free_lattice(tmp_path, extent=60.0):
    path = str(tmp_path / "z.pts")
    assert main(["gen", "--kind", "lattice", "--extent", str(extent), "--out", path]) == 0
    return path


class TestCli:
    def test_gen_reports_count(self, tmp_path, capsys):
        path = noise_free_lattice(tmp_path)
        out = capsys.readouterr().out
        assert out.startswith("wrote 121 points")
        assert read_points(path).extent == 60.0

    def test_window_truncates(self, tmp_path, capsys):
        src = noise_free_lattice(tmp_path)
        dst = str(tmp_path / "win.pts")
        assert main(["window", "--input", src, "--radius", "20", "--out", dst]) == 0
        back = read_points(dst)
        assert len(back) == 41
        assert back.extent == 20.0

    def test_dist_prints_json(self, tmp_path, capsys):
        src = noise_free_lattice(tmp_path)
        dst = str(tmp_path / "win.pts")
        main(["window", "--input", src, "--radius", "20", "--out", dst])
        capsys.readouterr()
        assert main(["dist", "--kind", "hausdorff", "--a", src, "--b", dst]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"kind": "hausdorff", "value": 40.0}

    def test_dist_stat_on_identical_inputs_is_zero(self, tmp_path, capsys):
        src = noise_free_lattice(tmp_path)
        capsys.readouterr()
        assert main(["dist", "--kind", "stat", "--a", src, "--b", src, "--l-max", "50"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "stat"
        assert doc["value"] == 0.0
        assert doc["capped"] is False

    def test_autocorr_writes_csv(self, tmp_path, capsys):
        src = noise_free_lattice(tmp_path)
        dst = str(tmp_path / "gamma.csv")
        assert main(["autocorr", "--input", src, "--radius", "10", "--out", dst]) == 0
        lines = (tmp_path / "gamma.csv").read_text().splitlines()
        assert lines[0] == "offset_1,re,im"
        assert len(lines) == 1 + 41  # offsets -20..20

    def test_spectrum_then_peaks(self, tmp_path, capsys):
        src = noise_free_lattice(tmp_path)
        spec = str(tmp_path / "spec.csv")
        assert (
            main(
                [
                    "spectrum",
                    "--input",
                    src,
                    "--radius",
                    "50",
                    "--grid=-1.5:1.5:0.01",
                    "--out",
                    spec,
                ]
            )
            == 0
        )
        capsys.readouterr()
        svg = str(tmp_path / "peaks.svg")
        assert main(["peaks", "--input", spec, "--svg", svg]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["peak_count"] == 3
        locations = sorted(p["location"] for p in doc["peaks"])
        assert np.allclose(locations, [-1.0, 0.0, 1.0], atol=1e-2)
        for p in doc["peaks"]:
            assert 1.5 < p["mass"] < 2.5
        assert (tmp_path / "peaks.svg").read_text().startswith("<svg")

    def test_perturb_preserves_count(self, tmp_path):
        src = noise_free_lattice(tmp_path)
        dst = str(tmp_path / "noisy.pts")
        assert main(["perturb", "--input", src, "--noise", "gaussian:0.1", "--out", dst]) == 0
        noisy = read_points(dst)
        clean = read_points(src)
        assert len(noisy) == len(clean)
        assert not np.array_equal(noisy.points, clean.points)

    def test_recover_round_trip(self, tmp_path):
        src = noise_free_lattice(tmp_path)
        spec = str(tmp_path / "spec.csv")
        main(["spectrum", "--input", src, "--radius", "50", "--grid=-1.5:1.5:0.25",
              "--out", spec])
        dst = str(tmp_path / "rec.csv")
        assert main(["recover", "--input", spec, "--noise", "gaussian:0.1", "--out", dst]) == 0
        back = read_spectrum(dst)
        assert bool(back.valid.all())  # gaussian transform never vanishes

    def test_scenario_by_name(self, tmp_path, capsys):
        code = main(["scenario", "--name", "completeness", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "[PASS]" in out
        assert (tmp_path / "completeness-result.json").exists()

    def test_scenario_failure_exits_one(self, tmp_path, capsys):
        # an attainable bound pushed to an absurd level must fail honestly
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "scenario": "gh-counterexample",
                    "out_dir": str(tmp_path),
                    "tolerances": {"gap_floor": 10.0},
                }
            )
        )
        code = main(["scenario", "--config", str(cfg)])
        out = capsys.readouterr().out
        assert code == 1
        assert "[FAIL]" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["scenario", "--name", "frobnicate"],
            ["dist", "--kind", "stat", "--a", "/nonexistent/a.pts", "--b", "/nonexistent/b.pts"],
            ["gen", "--kind", "lattice", "--extent", "10"],  # no --out
        ],
    )
    def test_runtime_errors_exit_two(self, argv, capsys):
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "grid",
        [
            "oops", "0:inf:1", "0:1e300:1e-300", "a:1:0.1", "0:1:nan", "-inf:0:1",
            # 1e27 nodes: more than an int64 holds
            "0:1:1e-9;0:1:1e-9;0:1:1e-9",
        ],
    )
    def test_bad_grid_string_exits_two(self, tmp_path, capsys, grid):
        src = noise_free_lattice(tmp_path)
        code = main(
            ["spectrum", "--input", src, "--radius", "10", f"--grid={grid}",
             "--out", str(tmp_path / "s.csv")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("noise", ["triangular:1", "gaussian:x", "pareto:1", "pareto:a:2"])
    def test_bad_noise_string_exits_two(self, tmp_path, capsys, noise):
        src = noise_free_lattice(tmp_path)
        code = main(
            ["perturb", "--input", src, "--noise", noise,
             "--out", str(tmp_path / "n.pts")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["stat", "alignment"])
    def test_zero_eps_tol_exits_two(self, tmp_path, capsys, kind):
        src = noise_free_lattice(tmp_path)
        code = main(["dist", "--kind", kind, "--a", src, "--b", src, "--eps-tol", "0"])
        assert code == 2
        assert "eps_tol must be positive" in capsys.readouterr().err

    def test_non_positive_radius_exits_two(self, tmp_path, capsys):
        src = noise_free_lattice(tmp_path)
        assert main(["autocorr", "--input", src, "--radius", "-3"]) == 2
        assert "must be a positive finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("noise", ["gaussian:nan", "uniform:inf", "pareto:inf:0.1"])
    def test_non_finite_noise_exits_two(self, tmp_path, capsys, noise):
        src = noise_free_lattice(tmp_path)
        spec = str(tmp_path / "s.csv")
        assert main(
            ["spectrum", "--input", src, "--radius", "10", "--grid=0:1:0.25", "--out", spec]
        ) == 0
        capsys.readouterr()
        for argv in (["perturb", "--input", src], ["recover", "--input", spec]):
            assert main([*argv, "--noise", noise, "--out", str(tmp_path / "o")]) == 2
            assert "must be finite" in capsys.readouterr().err

    def test_scenario_config_with_unknown_key_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        for key, val in (
            ("frobnicate", 1), ("grid_axes", [[1, 2]]), ("noise_kind", "uniform"),
            ("extent", [1]), ("l_values", 5), ("noise_scale", 0.2),
        ):
            cfg.write_text(json.dumps({"scenario": "completeness", key: val}))
            assert main(["scenario", "--config", str(cfg)]) == 2
            assert f"unknown config keys: [{key!r}]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fields",
        [{"seed": "x"}, {"seed": None}, {"tolerances": {"a": None}}, {"tolerances": {"a": "b"}}],
    )
    def test_scenario_config_value_of_wrong_type_exits_two(self, tmp_path, capsys, fields):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"scenario": "completeness", **fields}))
        assert main(["scenario", "--config", str(cfg)]) == 2
        assert f"config key {next(iter(fields))!r}" in capsys.readouterr().err
