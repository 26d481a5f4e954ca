"""Command-line front end: one subcommand per experiment, plus a generator.

Exit status is 0 exactly when every verdict in the produced report passed
(``gen`` always exits 0 on success). Four-sigma gate lines print the oracle
value, the sample mean, and the sigma the gate used, pass or fail; sigma is
the standard error, at the trial count, of the exact law the trials sample
(the bhm majority vote has no exact law yet and uses its sampled one).
"""
from __future__ import annotations

import argparse
import sys

from .errors import PairsketchError
from .harness import (
    EXPERIMENTS,
    ExperimentConfig,
    GENERATOR_KINDS,
    Report,
    generate_graph,
    run_experiment,
    seed_override,
    write_instance,
)


def _build_parser() -> argparse.ArgumentParser:
    # an experiment's flags store into its param names, `instance` and `trials`
    parser = argparse.ArgumentParser(
        prog="pairsketch",
        description="Seeded experiments for the pair-sampling sketch estimators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, trials: int | None = None) -> None:
        if trials is not None:
            p.add_argument("--trials", type=int, default=trials)
        p.add_argument("--seed", type=int, default=0, help="master seed")
        p.add_argument("--out", default=None, help="write JSON report (and .csv) here")

    def stream(p: argparse.ArgumentParser, help: str) -> None:
        p.add_argument("--stream", dest="instance", metavar="STREAM", required=True, help=help)

    p = sub.add_parser("bhm", help="hidden-matching sign estimation")
    p.add_argument("--instance", default=None, help="instance file (header 'n alpha b')")
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--alpha", default="1/4")
    p.add_argument("--b", type=int, choices=(0, 1), default=None)
    p.add_argument("--meta-trials", type=int, default=None, help="majority-vote committees")
    p.add_argument("--copies", type=int, default=None, help="votes per committee")
    common(p, 200_000)

    p = sub.add_parser("triangle", help="estimate the damped triangle count T_less")
    stream(p, "undirected stream file")
    p.add_argument("--k", type=int, required=True)
    common(p, 200_000)

    p = sub.add_parser("heavy", help="count head-and-tail-heavy directed edges")
    stream(p, "directed stream file")
    p.add_argument("--dh", dest="d_H", metavar="DH", type=int, required=True,
                   help="head degree threshold")
    p.add_argument("--dt", dest="d_T", metavar="DT", type=int, required=True,
                   help="tail degree threshold")
    common(p, 200_000)

    p = sub.add_parser("snapshot", help="binned degree-bias matrix estimation")
    stream(p, "directed stream file")
    p.add_argument("--kappa", type=int, required=True)
    p.add_argument("--eps", required=True, help="grid parameter, e.g. 1/2")
    p.add_argument("--thresholds", required=True, help="comma list, e.g. --thresholds=-1,0",
                   type=lambda text: [t.strip() for t in text.split(",") if t.strip()])
    p.add_argument("--alpha", type=int, required=True, help="head degree level index")
    p.add_argument("--beta", type=int, required=True, help="tail degree level index")
    p.add_argument("--copies", dest="trials", metavar="COPIES", type=int, default=300_000,
                   help="independent runs")
    p.add_argument("--hash-seed", type=int, default=None)
    common(p)

    p = sub.add_parser("equivalence", help="stochastic vs quantum backend agreement")
    p.add_argument("--universe", type=int, default=8)
    p.add_argument("--max-size", type=int, default=4)
    p.add_argument("--max-len", type=int, default=5)
    p.add_argument("--scripts", dest="trials", metavar="SCRIPTS", type=int, default=200)
    common(p)

    p = sub.add_parser("gen", help="write a seeded instance file")
    p.add_argument("--kind", required=True, choices=GENERATOR_KINDS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", default=None, help="edge probability (gnp)")
    p.add_argument("--t", type=int, default=None, help="planted triangle count")
    p.add_argument("--alpha", default=None, help="matching density (matching)")
    p.add_argument("--b", type=int, choices=(0, 1), default=None, help="hidden bit")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="instance file to write")
    return parser


def _set_flags(args: argparse.Namespace, names) -> dict:
    """The values of the flags ``names`` that are set (not None), by name."""
    return {name: getattr(args, name) for name in names if getattr(args, name, None) is not None}


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    # a param that no flag sets keeps its default in the harness table
    params = _set_flags(args, EXPERIMENTS[args.command].params)
    instance = getattr(args, "instance", None)
    if args.command == "bhm" and instance is None:
        instance = {"kind": "matching", **_set_flags(args, ("n", "alpha", "b"))}
    return ExperimentConfig(args.command, params, args.trials, args.seed, instance, args.out)


def _print_report(report: Report) -> None:
    gates = report.results.get("gates", {})
    for name in sorted(report.verdicts):
        ok = report.verdicts[name]
        line = f"{'PASS' if ok else 'FAIL'} {name}"
        gate = gates.get(name)
        if gate is not None:
            line += (
                f" oracle={gate['oracle']:.6g}"
                f" mean={gate['value']:.6g} sigma={gate['sigma']:.6g}"
            )
        print(line)
    print(f"{'PASS' if report.passed else 'FAIL'} overall")


def _run_gen(args: argparse.Namespace) -> int:
    params = _set_flags(args, ("n", "p", "t", "alpha", "b"))
    obj, sidecar = generate_graph(args.kind, params, seed_override(args.seed))
    write_instance(obj, args.out)
    lines = [f"wrote {args.out}"]
    for key in sorted(sidecar):
        lines.append(f"  {key}={sidecar[key]}")
    print("\n".join(lines))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "gen":
            return _run_gen(args)
        report = run_experiment(_config_from_args(args))
    except (PairsketchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_report(report)
    if report.config["output"] is not None:
        print(f"report written to {report.config['output']}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
