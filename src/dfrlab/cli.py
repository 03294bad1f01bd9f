"""Command-line pipeline: demos, estimator and policy fits, rollouts, experiments.

Exit codes: 0 success, 2 invalid input (bad flags, malformed or missing
files, thin demo slices), 3 dual-solver non-convergence, 4 experiment gate
failure.  Outputs are written atomically and no command mutates its inputs.

Value precedence for experiment commands: built-in defaults, then flags,
then the config file; where the config file specifies a field it wins, so
flags only fill fields the file omits.
"""

import argparse
import os
import sys

from .controllers import (
    CONTROLLER_KINDS,
    PolicyConfig,
    SwitchConfig,
    fit_policy,
    load_policy,
    save_policy,
)
from .envs import load_env_spec
from .errors import (
    GateFailureError,
    InvalidInputError,
    SolverNonConvergenceError,
)
from .harness import (
    fit_support,
    load_experiment_config,
    record_to_document,
    rollout,
    run_experiment,
)
from .kernel_ocsvm import KernelParams, OcsvmParams
from .supervisor import generate_demos, load_demos, save_demos
from .support import load_support, save_support
from .util import atomic_write_text, dump_json


def _parse_projection(text):
    if text is None:
        return None
    try:
        indices = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise InvalidInputError(f"bad projection {text!r}: expected comma-separated ints") from exc
    if not indices:
        raise InvalidInputError("projection must name at least one coordinate")
    return indices


def _cmd_demos(args):
    spec = load_env_spec(args.env)
    demos = generate_demos(spec, args.n, seed=args.seed, jitter_sigma=args.jitter)
    save_demos(demos, args.out)
    print(f"wrote {len(demos)} demonstrations to {args.out}")
    return 0


def _cmd_fit_support(args):
    demos = load_demos(args.demos)
    params = OcsvmParams(
        nu=args.nu,
        kernel=KernelParams(gamma=args.gamma),
        solver_tol=args.solver_tol,
        max_solver_iters=args.max_solver_iters,
    )
    support = fit_support(demos, params, _parse_projection(args.projection), args.pooled)
    save_support(support, args.out)
    print(f"wrote a {support.horizon}-slice support bundle to {args.out}")
    return 0


def _cmd_fit_policy(args):
    demos = load_demos(args.demos)
    config = PolicyConfig(centers=args.centers, bandwidth=args.bandwidth, ridge=args.ridge)
    policy = fit_policy(demos, config)
    save_policy(policy, args.out)
    print(f"wrote policy to {args.out} (train loss {policy.train_loss:.6g})")
    return 0


def _cmd_rollout(args):
    spec = load_env_spec(args.env)
    support = load_support(args.support) if args.support else None
    policy = load_policy(args.policy) if args.policy else None
    lam = args.lam
    if lam is None and args.lambda_mode == "manual":
        lam = 1.0
    cfg = SwitchConfig(
        lam=lam,
        eta=args.eta,
        epsilon=args.epsilon,
        max_recovery_iters=args.cap,
        lambda_mode=args.lambda_mode,
    )
    disturbance = {"auto": None, "on": True, "off": False}[args.disturbance]
    record = rollout(
        spec, args.controller, support, policy, args.seed,
        cfg=cfg, disturbance=disturbance,
    )
    if args.out:
        atomic_write_text(args.out, dump_json(record_to_document(record)))
    reason = f" ({record.halt_reason})" if record.halt_reason else ""
    g_min = "n/a" if record.g_min is None else f"{record.g_min:.6g}"
    print(
        f"{args.controller} seed={args.seed}: {record.outcome}{reason} "
        f"steps={len(record.steps)} recovery_iterations={record.recovery_iterations} "
        f"g_min={g_min} wall={record.wall_clock_s:.3f}s"
    )
    return 0


def _experiment_overrides(args):
    overrides = {}
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.eval_samples is not None:
        overrides["eval_samples"] = args.eval_samples
    if args.seed is not None:
        overrides["seed"] = args.seed
    return overrides


def _cmd_experiment(name):
    def run(args):
        config = load_experiment_config(args.config, overrides=_experiment_overrides(args))
        result = run_experiment(name, config, out_dir=args.out, jobs=args.jobs,
                                enforce_gates=True)
        gates = ", ".join(
            f"{k}={'pass' if v['passed'] else 'FAIL'}" for k, v in result["gates"].items()
        )
        print(f"{name}: wrote {args.out} ({gates})")
        return 0

    return run


def _add_experiment_parser(sub, command, runner, help_text):
    p = sub.add_parser(
        command, help=help_text, formatter_class=argparse.ArgumentDefaultsHelpFormatter
    )
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument(
        "--jobs", type=int, default=os.cpu_count() or 1,
        help="rollout worker processes",
    )
    p.add_argument(
        "--trials", type=int, default=None,
        help="trial count when the config omits it (the config file wins)",
    )
    p.add_argument(
        "--eval-samples", type=int, default=None,
        help="eval rollouts per cell when the config omits it (the config file wins)",
    )
    p.add_argument(
        "--seed", type=int, default=None,
        help="master seed when the config omits it (the config file wins)",
    )
    p.set_defaults(func=_cmd_experiment(runner))
    return p


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dfrlab",
        description=(
            "Support-estimation safety layers and derivative-free recovery "
            "control in 2D quasi-static environments."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "demos", help="generate scripted demonstrations",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    p.add_argument("--env", required=True, help="environment name (point_push, line_track) or spec path")
    p.add_argument("--n", type=int, required=True, help="number of demonstrations")
    p.add_argument("--seed", type=int, default=0, help="generation seed")
    p.add_argument("--jitter", type=float, default=0.0, help="control jitter sigma")
    p.add_argument("--out", required=True, help="demo file to write")
    p.set_defaults(func=_cmd_demos)

    p = sub.add_parser(
        "fit-support", help="fit per-time-slice support estimators",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    p.add_argument("--demos", required=True, help="demo file")
    p.add_argument("--nu", type=float, default=0.05, help="target training-outlier fraction")
    p.add_argument("--gamma", type=float, default=5.0, help="Gaussian kernel width")
    p.add_argument("--projection", default=None,
                   help="comma-separated state coordinates to train on (default: all)")
    p.add_argument("--pooled", action="store_true",
                   help="fit one estimator on all time slices pooled")
    p.add_argument("--solver-tol", type=float, default=1e-8, help="dual KKT gap tolerance")
    p.add_argument("--max-solver-iters", type=int, default=200_000,
                   help="dual solver iteration cap")
    p.add_argument("--out", required=True, help="bundle directory to write")
    p.set_defaults(func=_cmd_fit_support)

    p = sub.add_parser(
        "fit-policy", help="fit the behavior-cloned control policy",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    p.add_argument("--demos", required=True, help="demo file")
    p.add_argument("--centers", type=int, default=100, help="RBF feature centers")
    p.add_argument("--bandwidth", type=float, default=0.3, help="RBF bandwidth")
    p.add_argument("--ridge", type=float, default=1e-6, help="ridge regularizer")
    p.add_argument("--out", required=True, help="policy file to write")
    p.set_defaults(func=_cmd_fit_policy)

    p = sub.add_parser(
        "rollout", help="run one seeded episode",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    p.add_argument("--env", required=True, help="environment name or spec path")
    p.add_argument("--support", default=None, help="support bundle directory")
    p.add_argument("--policy", default=None, help="policy file")
    p.add_argument("--controller", required=True,
                   choices=CONTROLLER_KINDS,
                   help="controller to run")
    p.add_argument("--lambda-mode", choices=("manual", "certified"), default="manual",
                   help="switching threshold mode")
    p.add_argument("--lam", type=float, default=None,
                   help="manual threshold scale (default 1.0 in manual mode; derived in certified)")
    p.add_argument("--eta", type=float, default=None,
                   help="recovery step magnitude (default: adaptive)")
    p.add_argument("--epsilon", type=float, default=0.1, help="probe budget fraction")
    p.add_argument("--cap", type=int, default=500, help="recovery iterations per activation")
    p.add_argument("--seed", type=int, default=0, help="episode seed")
    p.add_argument("--disturbance", choices=("auto", "on", "off"), default="auto",
                   help="disturbance stream (auto: environment default)")
    p.add_argument("--out", default=None, help="record file to write")
    p.set_defaults(func=_cmd_rollout)

    _add_experiment_parser(
        sub, "exp-learning-curve", "learning-curve",
        "outcome fractions vs demonstration count, with pooled gates",
    )
    _add_experiment_parser(
        sub, "exp-ascent", "ascent",
        "normalized recovery ascent curves for the dfr and oracle arms",
    )
    _add_experiment_parser(
        sub, "exp-disturbance", "disturbance",
        "baseline vs recovery under the test-time disturbance",
    )
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverNonConvergenceError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except GateFailureError as exc:
        print(f"gate failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
