"""Command-line interface.

``quasidiff <subcommand>`` with global flags ``--seed``, ``--out`` and
``--config`` (JSON file for the scenario runner), accepted before or after
the subcommand.

Exit codes: 0 on success / all criteria passing, 1 when a scenario criterion
fails, 2 on usage, format, or configuration errors.
"""

from __future__ import annotations

import argparse
import dataclasses
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
    if not args.out:
        raise InvalidArgumentError("this subcommand needs --out")
    return args.out


def _cmd_gen(args) -> int:
    kind = args.kind
    if kind == "lattice":
        x = gen_lattice(args.dim, args.spacing, args.extent, label=args.label)
    elif kind == "fibonacci":
        x = gen_fibonacci(args.extent, label=args.label or "fibonacci")
    elif kind == "visible":
        x = gen_visible(args.extent, label=args.label or "visible")
    elif kind == "poisson":
        x = gen_poisson(args.intensity, args.dim, args.extent, seed=args.seed)
    elif kind == "fibonacci-cut-project":
        x = gen_cut_project(
            fibonacci_cut_project_config(args.extent), label=args.label or kind
        )
    elif kind == "ammann-beenker":
        x = gen_cut_project(ammann_beenker_config(args.extent), label=args.label or kind)
    else:  # pragma: no cover - argparse restricts choices
        raise InvalidArgumentError(f"unknown generator {kind!r}")
    qio.write_points(_require_out(args), x)
    print(f"wrote {len(x)} points to {args.out}")
    return 0


def _cmd_window(args) -> int:
    x = qio.read_points(args.input)
    qio.write_points(_require_out(args), window(x, args.radius))
    return 0


def _cmd_dist(args) -> int:
    a = qio.read_points(args.a)
    b = qio.read_points(args.b)
    if args.kind == "hausdorff":
        doc = {"kind": "hausdorff", "value": hausdorff_distance(a, b)}
    elif args.kind == "alignment":
        res = rho_gh(a, b, **_given(args, "eps_tol"))
        doc = {"kind": "alignment", "value": res.value, "capped": res.capped}
    else:
        grid = LGrid.integers(args.l_max)
        if args.kind == "stat":
            res = rho_stat(a, b, grid, **_given(args, "eps_tol"))
        else:
            res = rho_aut(a, b, grid)
        doc = {
            "kind": args.kind,
            "value": res.value,
            "attained_L": res.attained_L,
            "capped": res.capped,
        }
    text = json.dumps(doc, sort_keys=True)
    print(text)
    if args.out:
        qio.atomic_write_text(args.out, text + "\n")
    return 0


def _cmd_autocorr(args) -> int:
    x = qio.read_points(args.input)
    gamma = autocorrelation(x, args.radius, **_given(args, "bucket_tol", "max_range"))
    lines = [",".join([f"offset_{i + 1}" for i in range(gamma.dim)] + ["re", "im"])]
    for loc, w in zip(gamma.locations, gamma.weights):
        lines.append(
            ",".join(
                [repr(float(v)) for v in loc]
                + [repr(float(w.real)), repr(float(w.imag))]
            )
        )
    text = "\n".join(lines) + "\n"
    if args.out:
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
        nodes = spec.grid.axis_values(0)
        table = Table(
            ("frequency", "power"),
            tuple(
                (float(nodes[i]), float(spec.power[i]))
                for i in range(len(nodes))
                if spec.valid[i]
            ),
        )
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
        if args.name and args.name != cfg.scenario:
            raise InvalidArgumentError(
                f"--name {args.name!r} conflicts with config scenario {cfg.scenario!r}"
            )
        if args.out and args.out != cfg.out_dir:
            cfg = dataclasses.replace(cfg, out_dir=args.out)
    else:
        if not args.name:
            raise InvalidArgumentError("scenario needs --name or --config")
        cfg = ScenarioConfig(
            scenario=args.name, seed=args.seed, out_dir=args.out or "."
        )
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
    parser.add_argument("--seed", type=int, default=0, help="stream seed (default 0)")
    parser.add_argument("--out", default=None, help="output file or directory")
    parser.add_argument("--config", default=None, help="JSON config file (scenario)")

    # The same flags are accepted after the subcommand; suppressed defaults
    # keep a subcommand-position flag from clobbering a global-position one.
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int)
    common.add_argument("--out")
    common.add_argument("--config")

    sub = parser.add_subparsers(dest="command", required=True)

    # an option left off the command line is absent from the namespace, so
    # the library's own default applies (see _given)
    def add_parser(name, **kwargs):
        return sub.add_parser(
            name, parents=[common], argument_default=argparse.SUPPRESS, **kwargs
        )

    p = add_parser("gen", help="generate a point set and write it to --out")
    p.add_argument(
        "--kind",
        required=True,
        choices=[
            "lattice",
            "fibonacci",
            "visible",
            "poisson",
            "fibonacci-cut-project",
            "ammann-beenker",
        ],
    )
    p.add_argument("--extent", type=float, required=True)
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--spacing", type=float, default=1.0)
    p.add_argument("--intensity", type=float, default=1.0)
    p.add_argument("--label", default=None)
    p.set_defaults(func=_cmd_gen)

    p = add_parser("window", help="restrict a point set to a closed ball")
    p.add_argument("--input", required=True)
    p.add_argument("--radius", type=float, required=True)
    p.set_defaults(func=_cmd_window)

    p = add_parser("dist", help="distance between two point-set files")
    p.add_argument(
        "--kind",
        required=True,
        choices=["stat", "alignment", "symmetric-difference", "hausdorff"],
    )
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--l-max", type=int, default=1000, help="window grid 1..l-max")
    p.add_argument("--eps-tol", type=float)
    p.set_defaults(func=_cmd_dist)

    p = add_parser("autocorr", help="windowed autocorrelation atoms as CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--bucket-tol", type=float)
    p.add_argument("--max-range", type=float)
    p.set_defaults(func=_cmd_autocorr)

    p = add_parser("spectrum", help="windowed amplitude spectrum / periodogram")
    p.add_argument("--input", required=True)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--grid", required=True, help="lo:hi:step per axis, ';'-separated")
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
    p.set_defaults(func=_cmd_perturb)

    p = add_parser("recover", help="divide a spectrum by the noise characteristic function")
    p.add_argument("--input", required=True)
    p.add_argument("--noise", required=True, help="gaussian:<sigma> | uniform:<a>")
    p.add_argument("--guard", type=float)
    p.set_defaults(func=_cmd_recover)

    p = add_parser("scenario", help="run a registered experiment pipeline")
    p.add_argument("--name", default=None)
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
