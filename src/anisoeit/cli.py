"""Command line entry point.

Subcommands: mesh, simulate, reconstruct, verify, report.  Every failure
exits nonzero with a stage-tagged diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from anisoeit import fem, harness
from anisoeit.geometry import build_boundary, place_electrodes, triangulate


def _add_common(p):
    p.add_argument("--config", type=str, help="experiment config JSON path")
    p.add_argument("--case", type=str, choices=sorted(harness.builtin_configs()),
                   help="use a shipped benchmark config instead of --config")
    p.add_argument("--seed", type=int, default=None, help="override the config noise seed")
    p.add_argument("--out", type=str, default="out", help="output directory")
    p.add_argument("--inverse-crime", action="store_true",
                   help="reconstruct on the simulation mesh (solver validation only)")
    p.add_argument("--mode", type=str, choices=harness.MODES, default=None,
                   help="override the config reconstruction mode")


def _load_config(args) -> harness.ExperimentConfig:
    if args.config:
        config = harness.load_config(args.config)
    elif args.case:
        config = harness.builtin_configs()[args.case]
    else:
        raise harness.HarnessError("config", "need --config or --case")
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if getattr(args, "mode", None):
        config = dataclasses.replace(config, mode=args.mode)
    return config


def cmd_mesh(args) -> int:
    config = _load_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        for which, spec, target in (("true", config.true_domain, config.sim_elements),
                                    ("model", config.model_domain, config.recon_elements)):
            curve = build_boundary(spec, config.boundary_samples)
            layout = place_electrodes(curve, config.n_electrodes, config.coverage,
                                      contact_impedance=config.contact_impedance)
            mesh = triangulate(curve, layout, target)
            path = out / f"{config.name}_mesh_{which}.json"
            path.write_text(mesh.to_json())
            print(f"{path}  nodes={mesh.n_nodes} elements={mesh.n_elements}")
    except Exception as exc:
        raise harness.HarnessError("geometry", str(exc)) from exc
    return 0


def cmd_simulate(args) -> int:
    config = _load_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    scene = harness.build_scene(config, inverse_crime=args.inverse_crime, seed=args.seed)
    path = out / f"{config.name}_data.csv"
    path.write_text(fem.data_vector_to_csv(scene.data))
    print(f"{path}  N={scene.data.N} noise={scene.data.noise_fraction} seed={scene.data.seed}")
    return 0


def cmd_reconstruct(args) -> int:
    config = _load_config(args)
    report = harness.run_experiment(config, args.out, inverse_crime=args.inverse_crime,
                                    seed=args.seed)
    if not report.success:
        print(report.message, file=sys.stderr)
        return 2
    m = report.metrics
    print(f"{report.run_id}: converged={m['converged']} misfit={m['final_misfit']:.4e} "
          f"lambda={m['lambda_final']:.4f} blobs={m['blob_count']}")
    return 0


def cmd_verify(args) -> int:
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
        print(f"[stage:{report.stage or 'verify'}] {report.message}", file=sys.stderr)
        return 2
    return 0


def cmd_report(args) -> int:
    summary = harness.aggregate_reports(args.out)
    print(json.dumps(summary, indent=1))
    return 0 if summary["count"] == summary["succeeded"] else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="anisoeit",
                                     description="2-D EIT simulation and reconstruction")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mesh", help="emit true/model meshes as JSON")
    _add_common(p)
    p.set_defaults(func=cmd_mesh)

    p = sub.add_parser("simulate", help="emit simulated data CSV")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reconstruct", help="run an experiment end to end")
    _add_common(p)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("verify", help="invariance / locality verification suites")
    _add_common(p)
    p.add_argument("--suite", choices=("invariance", "locality"), required=True)
    p.add_argument("--c", type=float, default=0.3, help="radial map strength")
    p.add_argument("--perturbation-center", type=float, nargs=2, default=(0.5, 0.22))
    p.add_argument("--perturbation-radius", type=float, default=0.25)
    p.add_argument("--perturbation-amplitude", type=float, default=1.0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("report", help="aggregate run reports under --out")
    p.add_argument("--out", type=str, default="out")
    p.set_defaults(func=cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except harness.HarnessError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - unexpected failure path
        print(f"[stage:internal] {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
