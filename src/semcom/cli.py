"""Command-line interface for the simulator."""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from . import baseline, cspace, encoder, funcomp, harness, scenegen
from .errors import InvalidParameterError, SemcomError


def _snr(text: str) -> float | None:
    """One SNR in dB; ``none`` is the noiseless channel."""
    try:
        return None if text.strip().lower() == "none" else float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an SNR in dB or 'none', got {text!r}") from None


def _snr_list(text: str) -> tuple[float | None, ...]:
    """Comma-separated SNRs, each as _snr reads it."""
    return tuple(_snr(v) for v in text.split(","))


def _seed(text: str) -> int:
    """A base seed: numpy's generators take no negative seed."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer seed, got {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be at least 0, got {text}")
    return seed


def _add_batch(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trials", type=int, default=10_000)
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--workers", type=int, default=1)


def _add_link(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--nb", type=int, default=8)
    parser.add_argument("--snr-db", type=_snr_list, default=harness.ExperimentConfig.snr_db_list)
    parser.add_argument("--system", choices=("semantic", "traditional"),
                        default="semantic")


def _add_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None)
    parser.add_argument("--plot-data", action="store_true",
                        help="write whitespace-delimited plot data instead of CSV")


def _emit(rows, args, header) -> None:
    config = {k: v for k, v in vars(args).items() if k != "func"}
    if args.out:
        harness.emit_csv(rows, args.out, header, config, args.plot_data)
        print(f"wrote {args.out}")
    else:
        print(harness.format_rows(rows, header, args.plot_data), end="")


def cmd_simulate(args) -> int:
    if len(args.snr_db) > 1:
        raise InvalidParameterError(
            f"simulate runs one SNR, got {len(args.snr_db)}; use sweep-snr for more")
    snr = args.snr_db[0]
    agg = harness.run_trials(args.system, args.nb, snr, args.trials,
                             args.seed, args.workers)
    print(f"system={args.system} nb={args.nb} snr_db={snr} trials={agg.trials}")
    print(f"p_syntactic={agg.p_syntactic:.6g} "
          f"p_semantic={agg.p_semantic:.6g} "
          f"mean_distortion={agg.mean_distortion:.6g} "
          f"degenerate={agg.degenerate}")
    return 0


def cmd_sweep_snr(args) -> int:
    cfg = harness.ExperimentConfig(system=args.system, n_b=args.nb,
                                   snr_db_list=args.snr_db, trials=args.trials,
                                   base_seed=args.seed, workers=args.workers)
    rows = harness.sweep_snr(cfg)
    _emit(rows, args, harness.SNR_SWEEP_HEADER)
    return 0


def cmd_sweep_rate(args) -> int:
    rows = harness.sweep_rate(args.trials, args.seed, args.workers)
    _emit(rows, args, harness.RATE_SWEEP_HEADER)
    print(f"rate reduction: {100.0 * baseline.rate_reduction():.2f}%")
    return 0


def cmd_render_dataset(args) -> int:
    rng = np.random.default_rng(args.seed)
    labels = scenegen.dump_dataset(args.out, args.per_concept, rng)
    print(f"wrote {labels}")
    return 0


def cmd_prototypes(args) -> int:
    text = cspace.prototypes_csv()
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def cmd_inspect(args) -> int:
    img = scenegen.read_ppm(args.image)
    point = encoder.encode(img)
    print(f"r={point.r:.6f} h={point.h:.6f} s={point.s:.6f} b={point.b:.6f}")
    decoded = cspace.decode_concept(point)
    print(f"decoded concept: {decoded.label}")
    return 0


def cmd_funcomp_classes(args) -> int:
    mapping = {}
    probs = {}
    try:
        with open(args.spec, newline="") as f:
            reader = csv.DictReader(f)
            if not {"element", "output"} <= set(reader.fieldnames or ()):
                raise InvalidParameterError(
                    f"{args.spec}: needs the columns element,output")
            for row in reader:
                x = row["element"]
                if x is None or row["output"] is None:
                    raise InvalidParameterError(
                        f"{args.spec}: line {reader.line_num} is short")
                if x in mapping:
                    raise InvalidParameterError(
                        f"{args.spec}: element {x!r} repeated on line {reader.line_num}")
                mapping[x] = row["output"]
                if row.get("probability"):
                    probs[x] = float(row["probability"])
    except (ValueError, csv.Error) as exc:  # a non-numeric probability, undecodable text
        raise InvalidParameterError(f"{args.spec}: {exc}") from exc
    fn = funcomp.FiniteFunction(mapping, probs or None)
    classes = funcomp.equivalence_classes(fn)
    for cls in classes:
        print("{" + ",".join(str(x) for x in cls) + "}")
    print(f"min_bits={funcomp.min_bits(classes)}")
    print(f"expected_code_length={funcomp.expected_code_length(fn):.6g}")
    return 0


def cmd_funcomp_rate_search(args) -> int:
    result = funcomp.semantic_rate_search(args.tau, snr_db=args.snr,
                                          trials=args.trials, base_seed=args.seed)
    rows = [{"nb": p.n_b, "mean_distortion": p.mean_distortion,
             "stderr": p.stderr, "feasible": int(p.feasible)} for p in result.points]
    print(harness.format_rows(rows, "nb,mean_distortion,stderr,feasible"), end="")
    if result.feasible:
        print(f"minimal_nb={result.minimal_n_b}")
    else:
        print("infeasible")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semcom",
        description="Semantic communication over conceptual spaces: "
                    "link-level simulator and experiment runner.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="one configuration, aggregate stats")
    _add_batch(p)
    _add_link(p)
    p.set_defaults(func=cmd_simulate, snr_db=(0.0,))

    p = sub.add_parser("sweep-snr", help="error/distortion curves vs SNR")
    _add_batch(p)
    _add_link(p)
    _add_output(p)
    p.set_defaults(func=cmd_sweep_snr)

    p = sub.add_parser("sweep-rate", help="rate table for both systems at 15 dB")
    _add_batch(p)
    _add_output(p)
    p.set_defaults(func=cmd_sweep_rate)

    p = sub.add_parser("render-dataset", help="dump labeled PPM scenes")
    p.add_argument("--per-concept", type=int, default=100)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default="dataset")
    p.set_defaults(func=cmd_render_dataset)

    p = sub.add_parser("prototypes", help="dump the prototype table as CSV")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_prototypes)

    p = sub.add_parser("inspect", help="print (r,h,s,b) for a PPM image")
    p.add_argument("image")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("funcomp", help="functional compression tools")
    fsub = p.add_subparsers(dest="subcommand", required=True)
    pc = fsub.add_parser("classes", help="equivalence classes of a CSV function")
    pc.add_argument("--spec", required=True,
                    help="CSV with columns element,output,probability")
    pc.set_defaults(func=cmd_funcomp_classes)
    pr = fsub.add_parser("rate-search", help="minimal n_b meeting a threshold")
    pr.add_argument("--tau", type=float, required=True)
    pr.add_argument("--snr", type=_snr, default=None)
    pr.add_argument("--trials", type=int, default=1000)
    pr.add_argument("--seed", type=_seed, default=0)
    pr.set_defaults(func=cmd_funcomp_rate_search)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SemcomError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
