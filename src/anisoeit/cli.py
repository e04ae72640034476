"""Command line entry point.

Subcommands: mesh, simulate, reconstruct, verify, report.  Every failure
exits nonzero with a stage-tagged diagnostic on stderr.  reconstruct and
verify take -v/--verbose, which logs each finished barrier stage to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

from anisoeit import fem, harness

_FLAGS = {
    "--config": dict(type=str, help="experiment config JSON path"),
    "--case": dict(type=str, choices=sorted(harness.builtin_configs()),
                   help="use a shipped benchmark config instead of --config"),
    "--seed": dict(type=int, default=None, help="override the config noise seed"),
    "--mode": dict(type=str, choices=harness.MODES, default=None,
                   help="run the per-case baseline of this mode"),
    "--inverse-crime": dict(action="store_true",
                            help="reconstruct on the simulation mesh (solver validation only)"),
    "--out": dict(type=str, default="out", help="output directory"),
    "--suite": dict(choices=("invariance", "locality"), required=True),
    "--c": dict(type=float, help="radial map strength (default 0.3)"),
    "--perturbation-center": dict(type=float, nargs=2, help="default 0.5 0.22"),
    "--perturbation-radius": dict(type=float, help="default 0.25"),
    "--perturbation-amplitude": dict(type=float, help="default 1.0"),
    "--verbose": dict(action="store_true", help="log each barrier stage to stderr"),
}
_SHORT = {"--verbose": "-v"}
# verify suite -> the argparse names of the suite-specific flags it reads and
# their values when absent; the invariance suite builds its own disk scene
_SUITE_FLAGS = {
    "invariance": {"c": 0.3},
    "locality": {"config": None, "case": None, "seed": None, "perturbation_center": (0.5, 0.22),
                 "perturbation_radius": 0.25, "perturbation_amplitude": 1.0},
}


def _load_config(args) -> harness.ExperimentConfig:
    if args.config:
        config = harness.load_config(args.config)
    elif args.case:
        config = harness.builtin_configs()[args.case]
    else:
        raise harness.HarnessError("config", "need --config or --case")
    if getattr(args, "seed", None) is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if getattr(args, "mode", None):
        config = harness.with_mode(config, args.mode)
    return config


def _tagged(report, command: str) -> str:
    """The failure message of `report` with one stage tag: that of its stage
    (or `command`) is added unless the message already starts with a tag."""
    if report.message.startswith("[stage:"):
        return report.message
    return f"[stage:{report.stage or command}] {report.message}"


def cmd_mesh(args) -> int:
    config = _load_config(args)
    scene = harness.build_scene(config, inverse_crime=args.inverse_crime)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for which, mesh in (("true", scene.mesh_sim), ("model", scene.mesh_recon)):
        path = out / f"{config.name}_mesh_{which}.json"
        path.write_text(mesh.to_json())
        print(f"{path}  nodes={mesh.n_nodes} elements={mesh.n_elements}")
    return 0


def cmd_simulate(args) -> int:
    config = _load_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    scene = harness.build_scene(config)
    path = out / f"{config.name}_data.csv"
    path.write_text(fem.data_vector_to_csv(scene.data))
    print(f"{path}  N={scene.data.N} noise={scene.data.noise_fraction} seed={scene.data.seed}")
    return 0


def cmd_reconstruct(args) -> int:
    config = _load_config(args)
    report = harness.run_experiment(config, args.out, inverse_crime=args.inverse_crime)
    if not report.success:
        print(_tagged(report, "reconstruct"), file=sys.stderr)
        return 2
    m = report.metrics
    print(f"{report.run_id}: converged={m['converged']} misfit={m['final_misfit']:.4e} "
          f"lambda={m['lambda_final']:.4f} blobs={m['blob_count']}")
    return 0


def cmd_verify(args) -> int:
    reads = _SUITE_FLAGS[args.suite]
    unread = ["--" + dest.replace("_", "-") for flags in _SUITE_FLAGS.values() for dest in flags
              if dest not in reads and getattr(args, dest) is not None]
    if unread:
        raise harness.HarnessError(
            "config", f"--suite {args.suite} does not read {', '.join(unread)}")
    vars(args).update({dest: v for dest, v in reads.items() if getattr(args, dest) is None})
    if args.suite == "invariance":
        report = harness.verify_invariance(args.out, c=args.c)
    else:
        config = _load_config(args)
        pert = harness.Inclusion(center=tuple(args.perturbation_center),
                                 radius=args.perturbation_radius,
                                 amplitude=args.perturbation_amplitude)
        report = harness.verify_locality(config, pert, args.out)
    print(json.dumps(report.metrics, indent=1, default=harness._json_default))
    if not report.success:
        print(_tagged(report, "verify"), file=sys.stderr)
        return 2
    return 0


def cmd_report(args) -> int:
    summary = harness.aggregate_reports(args.out)
    print(json.dumps(summary, indent=1))
    return 0 if summary["count"] == summary["succeeded"] else 2


# subcommand, help, handler and the flags its handler reads
_COMMANDS = (
    ("mesh", "emit the simulation and reconstruction meshes as JSON", cmd_mesh,
     ("--config", "--case", "--mode", "--inverse-crime", "--out")),
    ("simulate", "emit simulated data CSV", cmd_simulate,
     ("--config", "--case", "--seed", "--out")),
    ("reconstruct", "run an experiment end to end", cmd_reconstruct,
     ("--config", "--case", "--seed", "--mode", "--inverse-crime", "--out", "--verbose")),
    ("verify", "invariance / locality verification suites", cmd_verify,
     ("--config", "--case", "--seed", "--out", "--suite", "--c", "--perturbation-center",
      "--perturbation-radius", "--perturbation-amplitude", "--verbose")),
    ("report", "aggregate run reports under --out", cmd_report, ("--out",)),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="anisoeit",
                                     description="2-D EIT simulation and reconstruction")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, func, flags in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(*([_SHORT[flag]] if flag in _SHORT else []), flag, **_FLAGS[flag])
        p.set_defaults(func=func)

    args = parser.parse_args(argv)
    logger, handler = logging.getLogger("anisoeit"), logging.StreamHandler(sys.stderr)
    level = logger.level
    if getattr(args, "verbose", False):
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
    try:
        return args.func(args)
    except harness.HarnessError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - unexpected failure path
        print(f"[stage:internal] {exc}", file=sys.stderr)
        return 3
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
