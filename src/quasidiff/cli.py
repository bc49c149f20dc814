"""Command-line interface.

``quasidiff <subcommand> [flags]``.  Each subcommand declares only the flags
it reads: ``--out`` every one but ``peaks``, ``--seed`` ``gen``, ``perturb``
and ``scenario``, ``--config`` (JSON file for the scenario runner)
``scenario`` alone.  A flag that the chosen ``--kind`` of ``gen`` or ``dist``
does not read is refused.

Exit codes: 0 on success / all criteria passing, 1 when a scenario criterion
fails, 2 on usage, format, or configuration errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import sys

from . import io as qio
from .errors import InvalidArgumentError, QuasidiffError
from .measures import autocorrelation
from .metrics import LGrid, hausdorff_distance, rho_aut, rho_gh, rho_stat
from .perturb import NoiseModel, perturb, recover
from .pointset import (
    ammann_beenker_config,
    fibonacci_cut_project_config,
    gen_cut_project,
    gen_fibonacci,
    gen_lattice,
    gen_poisson,
    gen_visible,
    window,
)
from .scenarios import ScenarioConfig, run_scenario
from .spectral import FrequencyGrid, amplitude_spectrum, analyze_peaks
from .svg import Table, plot_emit

__all__ = ["main"]


def _numbers(pieces: list[str], what: str) -> list[float]:
    try:
        return [float(v) for v in pieces]
    except ValueError:
        raise InvalidArgumentError(f"bad {what}: expected numbers, got {':'.join(pieces)!r}") from None


def _parse_grid(text: str) -> FrequencyGrid:
    axes = []
    for part in text.split(";"):
        pieces = part.split(":")
        if len(pieces) != 3:
            raise InvalidArgumentError(
                f"bad grid axis {part!r}; expected lo:hi:step (';'-separated per axis)"
            )
        axes.append(tuple(_numbers(pieces, "grid axis")))
    return FrequencyGrid(axes=tuple(axes))


_NOISE_KINDS = {
    "gaussian": (1, NoiseModel.gaussian),
    "uniform": (1, NoiseModel.uniform),
    "pareto": (2, NoiseModel.pareto_radial),
}


def _parse_noise(text: str, dim: int) -> NoiseModel:
    kind, *params = text.split(":")
    arity, make = _NOISE_KINDS.get(kind, (None, None))
    if len(params) != arity:
        raise InvalidArgumentError(
            f"bad noise argument {text!r}; expected gaussian:<sigma>, "
            f"uniform:<half-width>, or pareto:<alpha>:<scale>"
        )
    return make(dim, *_numbers(params, f"{kind} noise parameters"))


def _given(args, *names: str) -> dict:
    """The named options present on the command line; the library supplies
    the defaults of the rest."""
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def _require_out(args) -> str:
    if not getattr(args, "out", None):
        raise InvalidArgumentError("this subcommand needs --out")
    return args.out


def _refuse_unread(args, params, *names: str) -> None:
    """Refuse each named option present on the command line that is not among
    ``params``, the parameters of the function that ``--kind`` picks."""
    for name in names:
        if hasattr(args, name) and name not in params:
            raise InvalidArgumentError(
                f"--{name.replace('_', '-')} is not read by --kind {args.kind}"
            )


# each generator's signature names the optional flags it reads
_GENERATORS = {
    "lattice": lambda extent, dim=1, spacing=1.0, label=None: gen_lattice(
        dim, spacing, extent, label
    ),
    "fibonacci": gen_fibonacci,
    "visible": gen_visible,
    "poisson": lambda extent, dim=1, intensity=1.0, seed=0: gen_poisson(
        intensity, dim, extent, seed
    ),
    "fibonacci-cut-project": lambda extent, label="fibonacci-cut-project": gen_cut_project(
        fibonacci_cut_project_config(extent), label
    ),
    "ammann-beenker": lambda extent, label="ammann-beenker": gen_cut_project(
        ammann_beenker_config(extent), label
    ),
}
_GEN_FLAGS = ("dim", "spacing", "intensity", "seed", "label")


def _cmd_gen(args) -> int:
    make = _GENERATORS[args.kind]
    _refuse_unread(args, inspect.signature(make).parameters, *_GEN_FLAGS)
    x = make(args.extent, **_given(args, *_GEN_FLAGS))
    qio.write_points(_require_out(args), x)
    print(f"wrote {len(x)} points to {args.out}")
    return 0


def _cmd_window(args) -> int:
    x = qio.read_points(args.input)
    qio.write_points(_require_out(args), window(x, args.radius))
    return 0


_DISTANCES = {
    "stat": rho_stat,
    "alignment": rho_gh,
    "symmetric-difference": rho_aut,
    "hausdorff": hausdorff_distance,
}


def _cmd_dist(args) -> int:
    measure = _DISTANCES[args.kind]
    params = set(inspect.signature(measure).parameters)
    if "grid" in params:
        params.add("l_max")  # --l-max sets the window grid 1..l-max
    _refuse_unread(args, params, "l_max", "eps_tol")
    a = qio.read_points(args.a)
    b = qio.read_points(args.b)
    options = _given(args, "eps_tol")
    if "grid" in params:
        options["grid"] = LGrid.integers(getattr(args, "l_max", 1000))
    res = measure(a, b, **options)
    if args.kind == "hausdorff":
        doc = {"kind": "hausdorff", "value": res}
    else:
        doc = {"kind": args.kind, "value": res.value, "capped": res.capped}
        if "grid" in params:
            doc["attained_L"] = res.attained_L
    text = json.dumps(doc, sort_keys=True)
    print(text)
    if hasattr(args, "out"):
        qio.atomic_write_text(args.out, text + "\n")
    return 0


def _cmd_autocorr(args) -> int:
    x = qio.read_points(args.input)
    gamma = autocorrelation(x, args.radius, **_given(args, "bucket_tol", "max_range"))
    header = ",".join([f"offset_{i + 1}" for i in range(gamma.dim)] + ["re", "im"])
    text = qio._format_rows(header, gamma.locations, gamma.weights.real, gamma.weights.imag)
    if hasattr(args, "out"):
        qio.atomic_write_text(args.out, text)
        print(f"wrote {len(gamma)} atoms to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_spectrum(args) -> int:
    x = qio.read_points(args.input)
    spec = amplitude_spectrum(x, args.radius, _parse_grid(args.grid))
    qio.write_spectrum(_require_out(args), spec)
    print(f"wrote {spec.grid.node_count} nodes to {args.out}")
    return 0


def _cmd_peaks(args) -> int:
    spec = qio.read_spectrum(args.input)
    report = analyze_peaks(spec, **_given(args, "peak_window_width", "threshold_ratio"))
    doc = {
        "window_radius": spec.window_radius,
        "peak_count": len(report.peaks),
        "background_level": report.background_level,
        "background_mean": report.background_mean,
        "total_peak_mass": report.total_peak_mass,
        "total_grid_mass": report.total_grid_mass,
        "peaks": [
            {
                "location": p.location,
                "height": p.height,
                "mass": p.mass,
            }
            for p in report.peaks
        ],
    }
    print(json.dumps(doc, indent=2, sort_keys=True))
    if args.svg:
        rows = qio._rows(spec.grid.axis_values(0)[spec.valid], spec.power[spec.valid])
        table = Table(("frequency", "power"), tuple(map(tuple, rows)))
        plot_emit(table, "line", args.svg, title="periodogram")
        print(f"wrote plot to {args.svg}", file=sys.stderr)
    return 0


def _cmd_perturb(args) -> int:
    x = qio.read_points(args.input)
    model = _parse_noise(args.noise, x.dim)
    qio.write_points(_require_out(args), perturb(x, model, args.seed))
    return 0


def _cmd_recover(args) -> int:
    spec = qio.read_spectrum(args.input)
    model = _parse_noise(args.noise, spec.grid.dim)
    qio.write_spectrum(_require_out(args), recover(spec, model, **_given(args, "guard")))
    return 0


def _cmd_scenario(args) -> int:
    if args.config:
        with open(args.config, "r", encoding="utf-8") as handle:
            cfg = ScenarioConfig.from_json(handle.read())
        for flag, field in (("name", "scenario"), ("seed", "seed")):
            value = getattr(args, flag, None)
            if value is not None and value != getattr(cfg, field):
                raise InvalidArgumentError(
                    f"--{flag} {value!r} conflicts with config {field} {getattr(cfg, field)!r}"
                )
        if args.out:
            cfg = dataclasses.replace(cfg, out_dir=args.out)
    else:
        if not args.name:
            raise InvalidArgumentError("scenario needs --name or --config")
        cfg = ScenarioConfig(scenario=args.name, out_dir=args.out or ".", **_given(args, "seed"))
    result = run_scenario(cfg)
    for crit in result.criteria:
        status = "PASS" if crit.passed else "FAIL"
        print(f"[{status}] {result.scenario} / {crit.name}: {crit.measured} "
              f"(threshold: {crit.threshold})")
    print(
        f"{result.scenario}: {'all criteria passed' if result.passed else 'criterion failure'}"
        f" in {result.elapsed_seconds:.2f}s; wrote {len(result.manifest)} files"
    )
    return 0 if result.passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasidiff",
        description=(
            "Generate uniformly discrete point sets, compare them with "
            "window-based distances, approximate their diffraction, and run "
            "perturbation/recovery experiments."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # an option left off the command line is absent from the namespace, so
    # the library's own default applies (see _given)
    def add_parser(name, **kwargs):
        return sub.add_parser(name, argument_default=argparse.SUPPRESS, **kwargs)

    p = add_parser("gen", help="generate a point set and write it to --out")
    p.add_argument("--kind", required=True, choices=list(_GENERATORS))
    p.add_argument("--extent", type=float, required=True)
    p.add_argument("--dim", type=int, help="lattice, poisson (default 1)")
    p.add_argument("--spacing", type=float, help="lattice (default 1)")
    p.add_argument("--intensity", type=float, help="poisson (default 1)")
    p.add_argument("--seed", type=int, help="poisson (default 0)")
    p.add_argument("--label", help="every kind but poisson")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

    p = add_parser("window", help="restrict a point set to a closed ball")
    p.add_argument("--input", required=True)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_window)

    p = add_parser("dist", help="distance between two point-set files")
    p.add_argument("--kind", required=True, choices=list(_DISTANCES))
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument(
        "--l-max", type=int, help="stat, symmetric-difference: window grid 1..l-max (default 1000)"
    )
    p.add_argument("--eps-tol", type=float, help="stat, alignment")
    p.add_argument("--out", help="also write the JSON here")
    p.set_defaults(func=_cmd_dist)

    p = add_parser("autocorr", help="windowed autocorrelation atoms as CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--bucket-tol", type=float)
    p.add_argument("--max-range", type=float)
    p.add_argument("--out", help="CSV file (default: stdout)")
    p.set_defaults(func=_cmd_autocorr)

    p = add_parser("spectrum", help="windowed amplitude spectrum / periodogram")
    p.add_argument("--input", required=True)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--grid", required=True, help="lo:hi:step per axis, ';'-separated")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_spectrum)

    p = add_parser("peaks", help="peak analysis of a stored spectrum")
    p.add_argument("--input", required=True)
    p.add_argument("--width", dest="peak_window_width", metavar="WIDTH", type=float)
    p.add_argument("--threshold-ratio", type=float)
    p.add_argument("--svg", default=None, help="also plot the power data")
    p.set_defaults(func=_cmd_peaks)

    p = add_parser("perturb", help="displace every point with keyed noise")
    p.add_argument("--input", required=True)
    p.add_argument("--noise", required=True, help="gaussian:<sigma> | uniform:<a> | pareto:<alpha>:<scale>")
    p.add_argument("--seed", type=int, default=0, help="stream seed (default 0)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_perturb)

    p = add_parser("recover", help="divide a spectrum by the noise characteristic function")
    p.add_argument("--input", required=True)
    p.add_argument("--noise", required=True, help="gaussian:<sigma> | uniform:<a>")
    p.add_argument("--guard", type=float)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_recover)

    p = add_parser("scenario", help="run a registered experiment pipeline")
    p.add_argument("--name", default=None)
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--seed", type=int, help="default 0, or the config's")
    p.add_argument("--out", default=None, help="output directory (default ., or the config's)")
    p.set_defaults(func=_cmd_scenario)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except QuasidiffError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
