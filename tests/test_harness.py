"""File formats, plotting, scenario configs, the scenario runner, and the CLI."""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

try:
    import resource
except ImportError:  # not POSIX
    resource = None

import quasidiff
from quasidiff import scenarios
from quasidiff.cli import _build_parser, main
from quasidiff.errors import (
    ConfigError,
    DuplicatePointError,
    EmptySpectrumError,
    FormatError,
    InvalidArgumentError,
    UnknownScenarioError,
)
from quasidiff.measures import autocorrelation
from quasidiff.io import _sidecar_path, read_points, read_spectrum, write_points, write_spectrum
from quasidiff.perturb import NoiseModel, recover
from quasidiff.pointset import PointSet, gen_fibonacci, gen_lattice, window
from quasidiff.scenarios import SCENARIOS, ScenarioConfig, run_scenario
from quasidiff.spectral import FrequencyGrid, Spectrum, amplitude_spectrum
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

    @pytest.mark.parametrize(
        "points",
        [
            [[-2.5e15], [-0.0], [5e-324], [0.1], [1234567890123456.7]],
            [[-1.5e15, -0.0], [-0.0, 5e-324], [0.1, -0.0], [0.1, 2.5e15]],
        ],
    )
    def test_bytes_are_the_per_coordinate_reprs(self, tmp_path, points):
        # negative zero, a subnormal and a coordinate past 1e15
        x = PointSet(len(points[0]), 0.0, 3e15, points, label="edge")
        path = tmp_path / "edge.pts"
        write_points(str(path), x)
        rows = [",".join(repr(float(v)) for v in row) for row in x.points]
        expected = "\n".join([f"# d={x.dim} r0=0.0 extent=3000000000000000.0 label=edge", *rows])
        assert path.read_bytes() == (expected + "\n").encode()
        back = read_points(str(path))
        assert back.points.tobytes() == x.points.tobytes()

    @pytest.mark.parametrize("real", [np.float64, np.float32, float])
    def test_numpy_scalars_write_the_header_of_python_floats(self, tmp_path, real):
        # np.float64(0.5) was stored as given and written as its repr,
        # "r0=np.float64(0.5)", which read_points refused
        x = PointSet(1, real(0.5), real(10.0), [[0.0], [1.0]], "a")
        path = tmp_path / "a.pts"
        write_points(str(path), x)
        assert path.read_text().splitlines()[0] == "# d=1 r0=0.5 extent=10.0 label=a"
        back = read_points(str(path))
        assert (back.sep_radius, back.extent) == (0.5, 10.0) and back == x
        write_points(str(path), window(gen_lattice(1, 1.0, 10.0, "z"), real(5.0)))
        assert read_points(str(path)).extent == 5.0
        # np.float32 was no JSON number for the spectrum sidecar
        grid = FrequencyGrid(((0.0, 1.0, 0.5),))
        write_spectrum(str(path), Spectrum(grid, real(5.0), "a", np.zeros(3)))
        assert read_spectrum(str(path)).window_radius == 5.0

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

    @pytest.mark.parametrize("dim", ["0", "-1"])
    def test_header_dimension_below_one_rejected(self, tmp_path, dim):
        path = tmp_path / "nodim.pts"
        path.write_text(f"# d={dim} r0=1 extent=5\n")
        with pytest.raises(FormatError, match=f"dimension d={dim} is below 1"):
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

    def test_a_path_object_round_trips(self, tmp_path, spectrum):
        # the sidecar's name was the path plus ".json", a TypeError for a Path
        path = tmp_path / "spec.csv"
        write_spectrum(path, spectrum)
        assert np.array_equal(read_spectrum(path).amplitude, spectrum.amplitude)

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
        os.unlink(_sidecar_path(path))
        with pytest.raises(FormatError, match="sidecar"):
            read_spectrum(path)

    @pytest.mark.parametrize("axes", [None, [[0.0, 1.0]], "abc", [[0.0, 1.0, "a"]], 5])
    def test_bad_sidecar_axes_name_the_sidecar(self, tmp_path, spectrum, axes):
        path = str(tmp_path / "axes.csv")
        write_spectrum(path, spectrum)
        side = Path(_sidecar_path(path))
        side.write_text(json.dumps(dict(json.loads(side.read_text()), axes=axes)))
        with pytest.raises(FormatError, match=f"^{re.escape(str(side))}: bad metadata: "):
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


def _per_element_text(header, columns, blank=None):
    """The row format as one repr(float(v)) per element, blank rows' values
    (all but the first and last columns) written as nan."""
    lines = [header]
    for k, row in enumerate(zip(*columns)):
        cells = [repr(float(v)) for v in row]
        if blank is not None and blank[k]:
            cells[1:-1] = ["nan"] * (len(cells) - 2)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _edge_spectrum():
    # negative zero, a subnormal and a value past 1e15 in both parts
    amp = np.array([complex(-0.0, 5e-324), complex(1234567890123456.7, -0.0), complex(5e-324, 2.5e15)])
    return Spectrum(FrequencyGrid(axes=((-0.5, 0.5, 0.5),)), 3.0, "edge", amp)


class TestRowCodec:
    @pytest.mark.parametrize("make", ["recovered", "planar", "edge"])
    def test_spectrum_bytes_are_the_per_element_reprs(self, tmp_path, make):
        if make == "recovered":  # uniform noise blanks the node at frequency 2
            spec = amplitude_spectrum(gen_lattice(1, 1.0, 10.0), 5.0,
                                      FrequencyGrid(axes=((0.0, 2.0, 0.25),)))
            spec = recover(spec, NoiseModel.uniform(1, 0.25))
            assert not spec.valid.all()
        elif make == "planar":
            spec = amplitude_spectrum(gen_lattice(2, 1.0, 6.0), 5.5,
                                      FrequencyGrid(axes=((-0.5, 0.5, 0.125), (0.0, 1.0, 0.25))))
        else:
            spec = _edge_spectrum()
        path = tmp_path / "spec.csv"
        write_spectrum(str(path), spec)
        d = spec.grid.dim
        nodes = spec.grid.nodes()
        columns = [*nodes.T, spec.amplitude.real, spec.amplitude.imag, spec.power,
                   np.full(len(nodes), spec.window_radius)]
        header = ",".join([f"lambda_{i + 1}" for i in range(d)] + ["re", "im", "power", "L"])
        if d == 1:
            expected = _per_element_text(header, columns, ~spec.valid)
        else:  # every node valid
            expected = _per_element_text(header, columns)
        assert path.read_bytes() == expected.encode()
        back = read_spectrum(str(path))
        assert np.array_equal(back.valid, spec.valid)
        assert back.amplitude[spec.valid].tobytes() == spec.amplitude[spec.valid].tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_a_table_of_zero_rows_is_its_header(self, tmp_path, dim):
        x = PointSet(dim, 0.0, 1.0, np.empty((0, dim)), "none")
        path = tmp_path / "none.pts"
        write_points(str(path), x)
        assert path.read_bytes() == f"# d={dim} r0=0.0 extent=1.0 label=none\n".encode()
        assert read_points(str(path)) == x

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_points_bytes_are_the_per_element_reprs(self, tmp_path, dim):
        x = gen_lattice(dim, 0.1, 1.0)
        path = tmp_path / "x.pts"
        write_points(str(path), x)
        header = f"# d={dim} r0=0.1 extent=1.0 label={x.label}"
        assert path.read_bytes() == _per_element_text(header, x.points.T).encode()

    @pytest.mark.parametrize("dim", [1, 2])
    def test_autocorr_bytes_are_the_per_element_reprs(self, tmp_path, dim):
        x = gen_lattice(dim, 0.75, 8.0)
        path = tmp_path / "x.pts"
        write_points(str(path), x)
        out = tmp_path / "gamma.csv"
        assert main(["autocorr", "--input", str(path), "--radius", "4", "--max-range", "2",
                     "--out", str(out)]) == 0
        gamma = autocorrelation(x, 4.0, max_range=2.0)
        header = ",".join([f"offset_{i + 1}" for i in range(dim)] + ["re", "im"])
        columns = [*gamma.locations.T, gamma.weights.real, gamma.weights.imag]
        assert out.read_bytes() == _per_element_text(header, columns).encode()

    P1 = "# d=1 r0=0.5 extent=5.0 label=t\n"
    P2 = "# d=2 r0=0.5 extent=5.0 label=t\n"

    # one fault per file; the messages are those of the per-row reader, but a
    # blank line before the fault no longer shifts the reported line
    @pytest.mark.parametrize(
        "text, error, message",
        [
            (P2 + "0.0,0.0\n1.0\n", FormatError, "{path}:3: expected 2 coordinates, got 1"),
            (P2 + "0.0,0.0\n1.0,x1\n", FormatError,
             "{path}:3: bad coordinate: could not convert string to float: 'x1'"),
            (P2 + "0.0,0.0\n1.0,inf\n", FormatError,
             "{path}:3: non-finite coordinate in '1.0,inf'"),
            (P1 + "1.0\n0.0\n", FormatError,
             "{path}: points not lexicographically sorted at line 3"),
            (P1 + "0.0\n1.0\n1.0\n", DuplicatePointError, "{path}: duplicate point on line 4"),
            (P2 + "0.0,0.0\n  \n1.0\n", FormatError, "{path}:4: expected 2 coordinates, got 1"),
            (P1 + "1.0\n\n0.0\n", FormatError,
             "{path}: points not lexicographically sorted at line 4"),
            (P1 + "0.0\n\n1.0\n1.0\n", DuplicatePointError,
             "{path}: duplicate point on line 5"),
        ],
        ids=["columns", "number", "non-finite", "unsorted", "duplicate",
             "blank-columns", "blank-unsorted", "blank-duplicate"],
    )
    def test_points_fault_names_its_line(self, tmp_path, text, error, message):
        path = tmp_path / "fault.pts"
        path.write_text(text)
        with pytest.raises(error) as info:
            read_points(str(path))
        assert type(info.value) is error
        assert str(info.value) == message.format(path=path)

    SPEC_ROWS = ("0.0,0.5,0.0,0.5,2.0", "0.5,0.25,-0.5,0.625,2.0", "1.0,0.5,0.0,0.5,2.0")

    @pytest.mark.parametrize(
        "row, fault, blank, message",
        [
            (1, "0.75,0.25,-0.5,0.625,2.0", False,
             "{path}:3: frequency row does not match the declared grid"),
            (1, "0.5,0.25,-0.5,0.625,3.0", False,
             "{path}:3: window radius differs from the sidecar"),
            (1, "0.5,nan,-0.5,nan,2.0", False, "{path}:3: partially-nan row"),
            (2, "1.0,0.5,0.0,999.0,2.0", False,
             "{path}:4: stored power 999.0 disagrees with recomputed 0.5"),
            (1, "0.5,0.25,-0.5,0.625", False, "{path}:3: expected 5 columns, got 4"),
            (1, "0.5,0.25,-0.5,0.625,two", False,
             "{path}:3: bad number: could not convert string to float: 'two'"),
            (1, "0.75,0.25,-0.5,0.625,2.0", True,
             "{path}:4: frequency row does not match the declared grid"),
            (1, "0.5,0.25,-0.5,0.625,3.0", True,
             "{path}:4: window radius differs from the sidecar"),
            (1, "0.5,nan,-0.5,nan,2.0", True, "{path}:4: partially-nan row"),
            (2, "1.0,0.5,0.0,999.0,2.0", True,
             "{path}:5: stored power 999.0 disagrees with recomputed 0.5"),
        ],
        ids=["frequency", "radius", "partial-nan", "power", "columns", "number",
             "blank-frequency", "blank-radius", "blank-partial-nan", "blank-power"],
    )
    def test_spectrum_fault_names_its_line(self, tmp_path, row, fault, blank, message):
        rows = list(self.SPEC_ROWS)
        rows[row] = fault
        if blank:  # a blank line after the first row
            rows[0] += "\n"
        path = tmp_path / "fault.csv"
        path.write_text("lambda_1,re,im,power,L\n" + "\n".join(rows) + "\n")
        Path(_sidecar_path(str(path))).write_text(
            json.dumps({"axes": [[0.0, 1.0, 0.5]], "window_radius": 2.0, "label": "t"})
        )
        with pytest.raises(FormatError) as info:
            read_spectrum(str(path))
        assert type(info.value) is FormatError
        assert str(info.value) == message.format(path=path)


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
        assert cfg.tolerances == {"eps_tol": 1e-7}

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

    @pytest.mark.parametrize(
        "key, value",
        [("seed", True), ("seed", 1.5), ("seed", "7"), ("out_dir", None),
         ("tolerances", {"eps_tol": float("nan")}), ("tolerances", {1: 1.0})],
    )
    def test_api_and_json_configs_are_checked_alike(self, key, value):
        with pytest.raises(ConfigError, match=f"config key {key!r}"):
            ScenarioConfig(scenario="completeness", **{key: value})
        if isinstance(value, dict) and not all(isinstance(k, str) for k in value):
            return  # JSON object keys are always strings
        with pytest.raises(ConfigError, match=f"config key {key!r}"):
            ScenarioConfig.from_json(json.dumps({"scenario": "completeness", key: value}))

    def test_integer_values_are_kept_as_their_numbers(self):
        cfg = ScenarioConfig(scenario="completeness", seed=np.int64(3), tolerances={"eps_tol": 1})
        assert type(cfg.seed) is int and cfg.tolerances == {"eps_tol": 1.0}
        assert cfg.config_hash() == ScenarioConfig.from_json(
            '{"scenario": "completeness", "seed": 3, "tolerances": {"eps_tol": 1.0}}'
        ).config_hash()


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

    def test_a_count_runs_as_often_however_it_is_spelled(self, tmp_path):
        # metric-axioms counts its triples: 2 and 2.0 are two triples, one config
        docs = []
        for n, triples in enumerate((2, 2.0)):
            out = tmp_path / str(n)
            run_scenario(ScenarioConfig("metric-axioms", out_dir=str(out),
                                        tolerances={"triples": triples}))
            docs.append(json.loads((out / "metric-axioms-result.json").read_text()))
        assert docs[0] == docs[1]
        assert len(docs[0]["tables"]["triples"]["rows"]) == 2

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

    def test_gh_vs_vague_checks_each_sequence_in_its_own_criterion(self, tmp_path, monkeypatch):
        # a constant vague gap never shrinks, while every distance still does
        monkeypatch.setattr(scenarios, "vague_gap", lambda *args: 0.5)
        cfg = ScenarioConfig(
            scenario="gh-vs-vague", out_dir=str(tmp_path), tolerances={"pairing_tol": 1.0}
        )
        verdicts = {c.name: c.passed for c in run_scenario(cfg).criteria}
        assert verdicts == {
            "distance-shrinks": True,
            "gap-shrinks-with-distance": False,
            "control-stays-apart": True,
        }


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

    def test_noise_drawn_past_the_float_range_exits_two(self, tmp_path, capsys):
        # this said "extent must be a positive finite number, got inf" after
        # an overflow warning
        src = str(tmp_path / "z2.pts")
        assert main(["gen", "--kind", "lattice", "--dim", "2", "--extent", "50", "--out", src]) == 0
        capsys.readouterr()
        with pytest.warns(RuntimeWarning, match="infinite"):
            code = main(["perturb", "--input", src, "--noise", "pareto:0.01:1.0",
                         "--out", str(tmp_path / "n.pts")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: pareto_radial noise (alpha=0.01, scale=1.0) in dimension 2 draws a "
            "displacement past the float range\n"
        )

    @pytest.mark.parametrize("kind", ["stat", "alignment"])
    def test_zero_eps_tol_exits_two(self, tmp_path, capsys, kind):
        src = noise_free_lattice(tmp_path)
        code = main(["dist", "--kind", kind, "--a", src, "--b", src, "--eps-tol", "0"])
        assert code == 2
        assert "eps_tol must be a positive finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["stat", "alignment"])
    @pytest.mark.parametrize("eps_tol", ["inf", "nan"])
    def test_non_finite_eps_tol_exits_two(self, tmp_path, capsys, kind, eps_tol):
        src = noise_free_lattice(tmp_path)
        code = main(["dist", "--kind", kind, "--a", src, "--b", src, "--eps-tol", eps_tol])
        assert code == 2
        assert "eps_tol must be a positive finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("guard", ["inf", "nan", "0"])
    def test_non_finite_guard_exits_two(self, tmp_path, capsys, guard):
        src = noise_free_lattice(tmp_path)
        spec = str(tmp_path / "s.csv")
        assert main(
            ["spectrum", "--input", src, "--radius", "10", "--grid=0:1:0.25", "--out", spec]
        ) == 0
        capsys.readouterr()
        code = main(
            ["recover", "--input", spec, "--noise", "gaussian:0.1", "--guard", guard,
             "--out", str(tmp_path / "r.csv")]
        )
        assert code == 2
        assert "guard must be a positive finite number" in capsys.readouterr().err

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
            # pareto's alpha must also be positive, and says so
            assert re.search("must be (a positive )?finite", capsys.readouterr().err)

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_unknown_tolerance_exits_two_and_lists_the_allowed(self, tmp_path, capsys, name):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"scenario": name, "tolerances": {"frobnicate": 1.0}}))
        assert main(["scenario", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        allowed = sorted(SCENARIOS[name][1])
        err = capsys.readouterr().err
        assert f"does not use tolerances ['frobnicate']; allowed: {allowed}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["--kind", "lattice", "--extent", "inf"],
            ["--kind", "lattice", "--extent", "nan"],
            ["--kind", "lattice", "--extent", "10", "--spacing", "inf"],
            ["--kind", "visible", "--extent", "inf"],
            ["--kind", "poisson", "--extent", "inf"],
            ["--kind", "poisson", "--extent", "10", "--intensity", "inf"],
            ["--kind", "fibonacci", "--extent", "inf"],
            ["--kind", "fibonacci-cut-project", "--extent", "inf"],
            ["--kind", "ammann-beenker", "--extent", "inf"],
        ],
    )
    def test_non_finite_generator_input_exits_two(self, tmp_path, capsys, argv):
        assert main(["gen", *argv, "--out", str(tmp_path / "x.pts")]) == 2
        assert "must be a positive finite number, got" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--kind", "lattice", "--dim", "40", "--extent", "1.5"],  # a 3^40 candidate box
            ["--kind", "lattice", "--extent", "1e308", "--spacing", "1e-10"],  # k overflows
        ],
    )
    def test_oversize_lattice_box_exits_two(self, tmp_path, capsys, argv):
        assert main(["gen", *argv, "--out", str(tmp_path / "z.pts")]) == 2
        err = capsys.readouterr().err
        assert "-d box of reach " in err and "over the budget of 20000000" in err
        assert not (tmp_path / "z.pts").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["--extent", "1e300"],
            ["--extent", "10", "--intensity", "1e300"],
            ["--extent", "1e300", "--dim", "2"],  # the ball volume overflows
        ],
    )
    def test_oversize_poisson_count_exits_two(self, tmp_path, capsys, argv):
        assert main(["gen", "--kind", "poisson", *argv, "--out", str(tmp_path / "z.pts")]) == 2
        assert "expected Poisson points, over the budget of 20000000" in capsys.readouterr().err
        assert not (tmp_path / "z.pts").exists()

    @pytest.mark.parametrize(
        "gen, autocorr",
        [
            # 198,001 window points: a 221 GiB candidate array without the budget
            (["--kind", "lattice", "--extent", "100000"], ["--radius", "99000", "--max-range", "1e5"]),
            # the 2-d cell list: 11,352 points, all within max_range of each other
            (["--kind", "ammann-beenker", "--extent", "60"], ["--radius", "60", "--max-range", "200"]),
        ],
    )
    def test_oversize_pair_search_exits_two(self, tmp_path, capsys, gen, autocorr):
        path = str(tmp_path / "x.pts")
        assert main(["gen", *gen, "--out", path]) == 0
        capsys.readouterr()
        assert main(["autocorr", "--input", path, *autocorr]) == 2
        err = capsys.readouterr().err
        assert "over the budget of 33554432" in err and "Traceback" not in err
        assert "--max-range" in err

    def test_bucket_edge_copies_merge_on_the_command_line(self, tmp_path, capsys):
        # copies of k + sqrt(5) straddle a 1e-9 rounding edge at this window
        src, dst = str(tmp_path / "fib.pts"), str(tmp_path / "gamma.csv")
        assert main(["gen", "--kind", "fibonacci", "--extent", "4100", "--out", src]) == 0
        assert main(["autocorr", "--input", src, "--radius", "4000", "--max-range", "6",
                     "--out", dst]) == 0
        rows = np.loadtxt(dst, delimiter=",", skiprows=1, ndmin=2)
        p = window(read_points(src), 4000.0).points[:, 0]
        pairs = (np.searchsorted(p, p + 6.0, side="right") - np.searchsorted(p, p - 6.0)).sum()
        assert len(rows) == 17 and round(rows[:, 1].sum() * 4000.0) == pairs

    def test_fibonacci_past_two_to_the_21_generates(self, tmp_path, capsys):
        # the tile crossing 2^21 reads 1 - 2.3e-10 in float64
        path = tmp_path / "f.pts"
        assert main(["gen", "--kind", "fibonacci", "--extent", "2097153", "--out", str(path)]) == 0
        with open(path, encoding="utf-8") as handle:
            assert handle.readline().startswith("# d=1 r0=0.9999999997671694 ")

    def test_oversize_l_max_exits_two(self, tmp_path, capsys):
        src = noise_free_lattice(tmp_path)
        code = main(["dist", "--kind", "stat", "--a", src, "--b", src, "--l-max", "10000000"])
        assert code == 2
        assert "window radii in an LGrid, over the budget of 4194304" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--kind", "poisson", "--extent", "10", "--out", "x.pts"],
            ["scenario", "--name", "metric-axioms", "--out", "out"],
            ["scenario", "--name", "diffraction-catalog", "--out", "out"],
            ["perturb", "--noise", "gaussian:0.1", "--out", "p.pts"],
        ],
    )
    def test_negative_seed_exits_two(self, tmp_path_factory, tmp_path, capsys, monkeypatch, argv):
        if argv[0] == "perturb":  # its input lies outside the directory checked below
            argv = [*argv, "--input", noise_free_lattice(tmp_path_factory.mktemp("input"))]
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--seed", "-1"]) == 2
        assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())  # no output file or directory

    @pytest.mark.parametrize(
        "flag", [["--width", "nan"], ["--width", "inf"],
                 ["--threshold-ratio", "nan"], ["--threshold-ratio", "inf"]],
    )
    def test_non_finite_peak_setting_exits_two(self, tmp_path, capsys, flag):
        src = noise_free_lattice(tmp_path)
        spec = str(tmp_path / "s.csv")
        assert main(
            ["spectrum", "--input", src, "--radius", "50", "--grid=-1.5:1.5:0.01", "--out", spec]
        ) == 0
        capsys.readouterr()
        assert main(["peaks", "--input", spec, *flag]) == 2
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
        [
            {"seed": "x"}, {"seed": None}, {"tolerances": {"a": None}}, {"tolerances": {"a": "b"}},
            {"seed": 1.5}, {"seed": True}, {"seed": "7"}, {"seed": -1},
            {"out_dir": None}, {"out_dir": 5}, {"scenario": 3}, {"tolerances": None},
            {"tolerances": {"eps_tol": "nan"}}, {"tolerances": {"eps_tol": True}},
            # JSON's NaN and Infinity literals, as json.dumps writes them
            {"tolerances": {"eps_tol": float("nan")}}, {"tolerances": {"eps_tol": float("inf")}},
            {"tolerances": {"eps_tol": 10**400}},  # an int past the float range
            # a count: 1.9 ran int(1.9) = 1 triple, 0 none at all
            {"tolerances": {"triples": 1.9}, "scenario": "metric-axioms"},
            {"tolerances": {"triples": 0}, "scenario": "metric-axioms"},
        ],
    )
    def test_scenario_config_value_of_wrong_type_exits_two(self, tmp_path, capsys, fields):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"scenario": "completeness", **fields}))
        assert main(["scenario", "--config", str(cfg)]) == 2
        assert f"config key {next(iter(fields))!r}" in capsys.readouterr().err

    # every flag a subcommand declares is read on the path it configures
    FLAGS = {
        "gen": {"--kind", "--extent", "--dim", "--spacing", "--intensity", "--seed", "--label",
                "--out"},
        "window": {"--input", "--radius", "--out"},
        "dist": {"--kind", "--a", "--b", "--l-max", "--eps-tol", "--out"},
        "autocorr": {"--input", "--radius", "--bucket-tol", "--max-range", "--out"},
        "spectrum": {"--input", "--radius", "--grid", "--out"},
        "peaks": {"--input", "--width", "--threshold-ratio", "--svg"},
        "perturb": {"--input", "--noise", "--seed", "--out"},
        "recover": {"--input", "--noise", "--guard", "--out"},
        "scenario": {"--name", "--config", "--seed", "--out"},
    }

    def test_each_subcommand_declares_only_the_flags_it_reads(self):
        parser = _build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        declared = {
            name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
            for name, p in sub.choices.items()
        }
        assert declared == self.FLAGS
        assert sum(map(len, declared.values())) == 42
        assert {s for a in parser._actions for s in a.option_strings} == {"-h", "--help"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["--seed", "3", "perturb", "--input", "z.pts", "--noise", "gaussian:0.1",
             "--out", "n.pts"],
            ["--out", "n.pts", "perturb", "--input", "z.pts", "--noise", "gaussian:0.1"],
            ["--config", "c.json", "scenario"],
            ["peaks", "--input", "s.csv", "--out", "p.json"],
            ["window", "--input", "z.pts", "--radius", "5", "--seed", "3", "--out", "w.pts"],
            ["gen", "--kind", "lattice", "--extent", "5", "--config", "c.json", "--out", "x.pts"],
        ],
        ids=["global-seed", "global-out", "global-config", "peaks-out", "window-seed",
             "gen-config"],
    )
    def test_undeclared_flag_exits_two(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert len([ln for ln in capsys.readouterr().err.splitlines() if "error:" in ln]) == 1
        assert not list(tmp_path.iterdir())

    # the optional flags each generator reads; the signatures decide
    GEN_READS = {
        "lattice": {"--dim", "--spacing", "--label"},
        "fibonacci": {"--label"},
        "visible": {"--label"},
        "poisson": {"--dim", "--intensity", "--seed"},
        "fibonacci-cut-project": {"--label"},
        "ammann-beenker": {"--label"},
    }

    @pytest.mark.parametrize("kind", sorted(GEN_READS))
    @pytest.mark.parametrize(
        "flag, value",
        [("--dim", "2"), ("--spacing", "2"), ("--intensity", "2"), ("--seed", "3"),
         ("--label", "x")],
    )
    def test_gen_flag_is_read_or_refused(self, tmp_path, capsys, kind, flag, value):
        plain, flagged = str(tmp_path / "plain.pts"), str(tmp_path / "flagged.pts")
        assert main(["gen", "--kind", kind, "--extent", "6", "--out", plain]) == 0
        code = main(["gen", "--kind", kind, "--extent", "6", flag, value, "--out", flagged])
        if flag in self.GEN_READS[kind]:
            assert code == 0
            with open(plain) as a, open(flagged) as b:
                assert a.read() != b.read()
        else:
            assert code == 2
            err = capsys.readouterr().err
            assert err == f"error: {flag} is not read by --kind {kind}\n"
            assert not os.path.exists(flagged)

    DIST_READS = {
        "stat": {"--l-max", "--eps-tol"},
        "alignment": {"--eps-tol"},
        "symmetric-difference": {"--l-max"},
        "hausdorff": set(),
    }

    @pytest.mark.parametrize("kind", sorted(DIST_READS))
    @pytest.mark.parametrize("flag, value", [("--l-max", "5"), ("--eps-tol", "0.01")])
    def test_dist_flag_is_read_or_refused(self, tmp_path, capsys, kind, flag, value):
        src = noise_free_lattice(tmp_path)
        out = str(tmp_path / "d.json")
        code = main(["dist", "--kind", kind, "--a", src, "--b", src, flag, value, "--out", out])
        if flag in self.DIST_READS[kind]:
            assert code == 0
        else:
            assert code == 2
            err = capsys.readouterr().err
            assert err == f"error: {flag} is not read by --kind {kind}\n"
            assert not os.path.exists(out)

    @pytest.mark.parametrize("config", [{}, {"seed": 0}])
    def test_scenario_seed_conflicting_with_config_exits_two(self, tmp_path, capsys, config):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"scenario": "completeness", **config}))
        out = tmp_path / "out"
        assert main(["scenario", "--config", str(cfg), "--seed", "7", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --seed 7 conflicts with config seed 0\n"
        assert not out.exists()

    def test_scenario_name_conflicting_with_config_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"scenario": "completeness"}))
        out = tmp_path / "out"
        assert main(["scenario", "--config", str(cfg), "--name", "boundary",
                     "--out", str(out)]) == 2
        assert "--name 'boundary' conflicts with config scenario 'completeness'" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_scenario_seed_agreeing_with_config_runs_that_seed(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"scenario": "completeness", "seed": 5}))
        for argv, out in ((["--seed", "5"], "a"), ([], "b")):
            assert main(["scenario", "--config", str(cfg), *argv,
                         "--out", str(tmp_path / out)]) == 0
            doc = json.loads((tmp_path / out / "completeness-result.json").read_text())
            assert doc["config"]["seed"] == 5


# The command line under a hard address-space limit: each extreme input
# exits 0 or 2, never 1 and never with a traceback.
_LIMIT = 2**30
_MAIN = "import sys; from quasidiff.cli import main; sys.exit(main())"


def _limit_address_space():  # runs in the child only, between fork and exec
    resource.setrlimit(resource.RLIMIT_AS, (_LIMIT, _LIMIT))


def _run_limited(args, cwd):
    """``python -c *args`` under the address-space limit."""
    src = os.path.dirname(os.path.dirname(quasidiff.__file__))
    # one BLAS thread keeps the interpreter's own reservations far below the limit
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300, preexec_fn=_limit_address_space,
    )


@pytest.mark.skipif(resource is None, reason="needs the POSIX resource module")
@pytest.mark.parametrize(
    "argv, code",
    [
        (["gen", "--kind", "fibonacci", "--extent", "1e9", "--out", "f.pts"], 2),
        # candidate counts cast to int64 wrapped to 0: no points, and exit 0
        (["gen", "--kind", "ammann-beenker", "--extent", "1e20", "--out", "ab.pts"], 2),
        # an extent whose square overflows
        (["gen", "--kind", "lattice", "--extent", "1e300", "--spacing", "1e300",
          "--out", "z.pts"], 2),
        (["window", "--input", "huge.pts", "--radius", "5", "--out", "w.pts"], 2),
        # the unit-ball volume underflows: an empty sample
        (["gen", "--kind", "poisson", "--dim", "342", "--extent", "1", "--out", "p.pts"], 0),
        (["window", "--input", "nodim.pts", "--radius", "1", "--out", "w.pts"], 2),
        # 198,001 window points: a 221 GiB candidate array without the budget
        (["autocorr", "--input", "lattice.pts", "--radius", "99000", "--max-range", "1e5"], 2),
        # the same window in full: 3.9e10 ordered pairs
        (["autocorr", "--input", "lattice.pts", "--radius", "99000"], 2),
        # an infinite declared separation: rho_stat bisected up to r = inf
        (["dist", "--kind", "stat", "--a", "sep-inf.pts", "--b", "sep-inf-b.pts",
          "--l-max", "1"], 2),
        # L^d overflows: in the spectrum's power, and in the window weight
        (["peaks", "--input", "wide.csv"], 2),
        (["spectrum", "--input", "cube.pts", "--radius", "1e120",
          "--grid=0:1:1;0:1:1;0:1:1", "--out", "s.csv"], 2),
        # 4,000,001 nodes over 198,001 window points: 8,100,000 fine-grid
        # nodes and 6,336,032 kernel taps, over the spread budget (12 GiB
        # of phase tables in the direct sum)
        (["spectrum", "--input", "lattice.pts", "--radius", "99000",
          "--grid", "0:1:2.5e-7", "--out", "s.csv"], 2),
        # a rho_gh scan of 2.5e11 window radii
        (["dist", "--kind", "alignment", "--a", "two.pts", "--b", "two-b.pts",
          "--eps-tol", "1e-12"], 2),
        # the point 2 times the step 1e308 overflows: a NaN spectrum, with
        # RuntimeWarnings, before phases were checked
        (["spectrum", "--input", "two-b.pts", "--radius", "5", "--grid", "0:1.5e308:1e308",
          "--out", "s.csv"], 2),
        # a box of 11^100000 points: its count printed a traceback, past
        # Python's 4,300 digits
        (["gen", "--kind", "lattice", "--dim", "100000", "--extent", "5", "--out", "z.pts"], 2),
        # the box count as a power of 10^20 in Python ints did not return
        (["gen", "--kind", "lattice", "--dim", "100000000000000000000", "--extent", "5",
          "--out", "z.pts"], 2),
    ],
    ids=["fibonacci-1e9", "gen-ab-1e20", "lattice-1e300", "read-extent-1e300", "poisson-d342",
         "read-d-1", "autocorr-221GiB", "autocorr-full-window", "dist-sep-inf",
         "peaks-radius-1e200-d2", "spectrum-extent-1e120-d3", "spectrum-12GiB-tables",
         "alignment-scan-2.5e11", "spectrum-phase-overflow", "lattice-d1e5", "lattice-d1e20"],
)
def test_extreme_input_exits_cleanly_under_a_memory_limit(tmp_path, argv, code):
    (tmp_path / "huge.pts").write_text("# d=1 r0=1 extent=1e300\n-1e300\n0.0\n1e300\n")
    (tmp_path / "nodim.pts").write_text("# d=-1 r0=1 extent=5\n")
    (tmp_path / "sep-inf.pts").write_text("# d=1 r0=inf extent=5\n0.0\n")
    (tmp_path / "sep-inf-b.pts").write_text("# d=1 r0=inf extent=5\n1.0\n")
    (tmp_path / "cube.pts").write_text("# d=3 r0=0 extent=1e120\n0.0,0.0,0.0\n")
    (tmp_path / "two.pts").write_text("# d=1 r0=1 extent=1e12\n0.0\n1.0\n")
    (tmp_path / "two-b.pts").write_text("# d=1 r0=1 extent=1e12\n0.0\n2.0\n")
    (tmp_path / "wide.csv").write_text(
        "lambda_1,lambda_2,re,im,power,L\n0.0,0.0,1.0,0.0,inf,1e+200\n"
    )
    (tmp_path / "wide.csv.json").write_text(
        json.dumps({"axes": [[0.0, 0.5, 1.0], [0.0, 0.5, 1.0]], "window_radius": 1e200})
    )
    if "lattice.pts" in argv:
        write_points(str(tmp_path / "lattice.pts"), gen_lattice(1, 1.0, 100000.0))
    run = _run_limited([_MAIN, *argv], tmp_path)
    assert "Traceback" not in run.stderr
    assert run.returncode == code, run.stderr
    if code == 2:  # one line
        assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1
    if argv[0] == "autocorr":  # naming the way out
        assert "--max-range" in run.stderr


# Library calls under the same limit: each is refused with the library's
# error before anything of its size exists.
_REFUSED = """
from quasidiff.errors import InvalidArgumentError
from quasidiff.perturb import NoiseModel, char_fn_mc
try:
    # 10^10 samples: hours of drawing, one block at a time, without the sample budget
    char_fn_mc(NoiseModel.gaussian(1, 0.1), [0.5], 10**10)
except InvalidArgumentError as error:
    print(error)
"""


@pytest.mark.skipif(resource is None, reason="needs the POSIX resource module")
def test_oversize_library_calls_are_refused_under_a_memory_limit(tmp_path):
    run = _run_limited([_REFUSED], tmp_path)
    assert run.returncode == 0 and run.stderr == "", run.stderr
    assert run.stdout.endswith(", over the budget of 8388608\n")
