"""Command line front end.

Exit codes: 0 success, 1 validation or usage problems, 2 verification
failures, 3 numeric/runtime failures.  Wall-clock timings go to the
terminal only; files written by `eval` depend solely on inputs and seeds.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .atomic import atomic_open
from .errors import DpdlError, NumericError, ValidationError
from .evaluation import format_report, run_experiment, score_dataset, write_report
from .features import (make_splits, parse_synth_config, read_feature_file,
                       synth_generate, write_feature_file)
from .scoring import write_scores_csv
from .training import (format_training_log, load_checkpoint, parse_train_config,
                       save_checkpoint, train)
from .verify import run_bridge_suite

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_VERIFY_FAILED = 2
EXIT_NUMERIC = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; route through our taxonomy.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(f"{self.prog}: error: {message}")


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dpdl", description="Distribution-prototype anomaly detection.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("synth", help="generate a synthetic feature dataset",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--config", required=True, help="synthetic generator config file")
    p.add_argument("--seed", required=True, type=_nonneg_int, help="generator seed")
    p.add_argument("--out", required=True, help="output feature file")
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("train", help="train on a feature dataset",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--data", required=True, help="feature file")
    p.add_argument("--protocol", required=True, choices=("general", "hard"))
    p.add_argument("--m", required=True, type=_nonneg_int, help="observed anomaly budget")
    p.add_argument("--seed", required=True, type=_nonneg_int, help="split and training seed")
    p.add_argument("--config", default=None, help="training config file (defaults otherwise)")
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("score", help="score a feature dataset with a checkpoint",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--data", required=True, help="feature file")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(handler=_cmd_score)

    p = sub.add_parser("eval", help="repeated split/train/score evaluation",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--data", required=True, help="feature file")
    p.add_argument("--protocol", required=True, choices=("general", "hard"))
    p.add_argument("--m", required=True, type=_nonneg_int, help="observed anomaly budget")
    p.add_argument("--runs", default=5, type=_nonneg_int, help="number of seeded runs")
    p.add_argument("--seed", required=True, type=_nonneg_int, help="base seed")
    p.add_argument("--config", default=None, help="training config file (defaults otherwise)")
    p.add_argument("--out", required=True, help="report path; CSV sibling gets .csv appended")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("verify", help="run built-in oracle suites")
    p.add_argument("suite", choices=("bridge",), help="which suite to run")
    p.set_defaults(handler=_cmd_verify)
    return parser


def _cmd_synth(args) -> int:
    config = parse_synth_config(args.config)
    dataset = synth_generate(config, args.seed)
    write_feature_file(args.out, dataset)
    h, w, d = dataset.dims
    print(f"wrote {len(dataset)} items ({h}x{w}x{d}) to {args.out}")
    return EXIT_OK


def _cmd_train(args) -> int:
    dataset = read_feature_file(args.data)
    config = parse_train_config(args.config, protocol=args.protocol, m=args.m, seed=args.seed)
    split = make_splits(dataset, config.protocol, config.m, config.seed)
    started = time.monotonic()
    result = train(dataset, split, config)
    save_checkpoint(args.out, result.checkpoint)
    log_path = Path(str(args.out) + ".log.csv")
    with atomic_open(log_path, encoding="utf-8") as fh:
        fh.write(format_training_log(result.log))
    print(f"trained {config.epochs} epochs in {time.monotonic() - started:.1f}s")
    print(f"checkpoint: {args.out}")
    print(f"training log: {log_path}")
    return EXIT_OK


def _cmd_score(args) -> int:
    ckpt = load_checkpoint(args.model)
    dataset = read_feature_file(args.data)
    rows = score_dataset(ckpt, dataset)
    write_scores_csv(args.out, rows)
    print(f"scored {len(rows)} items to {args.out}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    dataset = read_feature_file(args.data)
    config = parse_train_config(args.config, protocol=args.protocol, m=args.m, seed=args.seed)
    started = time.monotonic()
    report, results = run_experiment(dataset, args.protocol, args.m, args.runs, args.seed, config)
    sibling = write_report(args.out, report)
    for k, result in enumerate(results):
        save_checkpoint(f"{args.out}.run{k}.ckpt", result.checkpoint)
    sys.stdout.write(format_report(report))
    print(f"report: {args.out} (csv: {sibling})")
    print(f"runtime: {time.monotonic() - started:.1f}s")
    return EXIT_OK


def _cmd_verify(args) -> int:
    ok = run_bridge_suite(stream=sys.stdout)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_VALIDATION
    except SystemExit as exc:           # --help
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except ValidationError as exc:
        print(f"dpdl: error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericError as exc:
        print(f"dpdl: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except DpdlError as exc:
        print(f"dpdl: error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"dpdl: error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
