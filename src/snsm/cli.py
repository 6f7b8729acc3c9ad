"""Command-line front end: train / sweep / rates / noise / mem / bound.

Exit status: 0 success, 1 usage error (also a sweep whose forked process
for some betas ended without a result), 2 numeric failure (a diverged
seed, also in any row of a sweep, or a factorization that did not
converge), 3 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings
from dataclasses import asdict

import numpy as np

from . import analysis, harness
from .linalg import NumericError
from .noise_models import MLP2, NoiseModel, Quadratic, check_size, parse_shape
from .optim import make_preset

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_CHECK_FAILED = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _fmt(value) -> str:
    """One CSV field: a float to 17 significant digits; text that holds a
    comma, a quote or a line break is quoted, as RFC 4180 says."""
    if isinstance(value, float):
        return format(value, ".17g")
    text = str(value)
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def rows_to_csv(rows, fields) -> str:
    """UTF-8 CSV text with \\n line endings and a fixed header row."""
    lines = [",".join(fields)]
    for r in rows:
        d = r if isinstance(r, dict) else asdict(r)
        lines.append(",".join(_fmt(d[f]) for f in fields))
    return "\n".join(lines) + "\n"


def _emit(rows, fields, fmt: str, out_path: str | None):
    if fmt == "csv":
        text = rows_to_csv(rows, fields)
    else:
        text = json.dumps([r if isinstance(r, dict) else asdict(r) for r in rows],
                          indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _items(s: str) -> list:
    """The comma-separated items of a list flag; the empty string is the
    empty list, and an empty item (a doubled, leading or trailing comma)
    is a usage error that argparse reports under the flag's name."""
    if not s:
        return []
    items = s.split(",")
    if "" in items:
        raise argparse.ArgumentTypeError(f"empty item in the list {s!r}")
    return items


def _int_list(s: str):
    return [int(x) for x in _items(s)]


def _float_list(s: str):
    return [float(x) for x in _items(s)]


def _train_flags(t):
    t.add_argument("--seed-base", type=int, default=0)
    t.add_argument("--objective", choices=("quadratic", "mlp2"), default="quadratic")
    t.add_argument("--d", type=int, default=100)
    t.add_argument("--hidden", type=int, default=None, help="mlp2 hidden width")
    t.add_argument("--T", type=int, default=1000)
    t.add_argument("--preset", default="Adam")
    t.add_argument("--lr", type=float, default=1e-3)
    t.add_argument("--n-seeds", type=int, default=1)
    t.add_argument("--sigma", type=float, default=None,
                   help="dense noise level (default 0)")
    t.add_argument("--noise-beta", type=float, default=None,
                   help="density exponent: ceil(d^beta) noisy coordinates")
    t.add_argument("--noise-alpha", type=float, default=None,
                   help="noise level of --noise-beta noise (default 1)")
    t.add_argument("--delta1", type=float, default=None)
    t.add_argument("--record-every", type=int, default=1)
    t.add_argument("--rank", type=int, default=4)
    t.add_argument("--refresh-gap", type=int, default=200)
    t.add_argument("--frame", default="svd")
    t.add_argument("--subset-rule", default="heuristic2d")
    t.add_argument("--subset-size", type=int, default=None)
    t.add_argument("--param-shape", default=None,
                   help="quadratic only: its parameter's shape, e.g. 10x10")
    t.add_argument("--clip-norm", type=float, default=None)
    t.add_argument("--weight-decay", type=float, default=0.0)


def _sweep_flags(s):
    s.add_argument("--seed-base", type=int, default=0)
    s.add_argument("--betas", type=_float_list, default=(0.0, 0.5, 1.0))
    s.add_argument("--d", type=int, default=1024)
    s.add_argument("--T", type=int, default=1000)
    s.add_argument("--n-seeds", type=int, default=5)
    s.add_argument("--subset-sizes", type=_int_list, default=())
    s.add_argument("--alpha", type=float, default=1.0)
    s.add_argument("--lr", type=float, default=0.1)


def _rates_flags(r):
    r.add_argument("--beta", type=float, required=True)


def _noise_flags(n):
    n.add_argument("--samples", required=True,
                   help="(n, d) array: .npy or whitespace-delimited text")
    n.add_argument("--threshold", type=float, default=1e-12)


def _mem_flags(m):
    m.add_argument("--manifest", required=True)
    m.add_argument("--preset", required=True)
    m.add_argument("--rank", type=int, default=4)
    m.add_argument("--subset-rule", default="heuristic2d")
    m.add_argument("--subset-size", type=int, default=None)


def _bound_flags(b):
    b.add_argument("--thm", choices=("2", "3"), required=True)
    b.add_argument("--delta1", type=float, default=1.0)
    b.add_argument("--L", type=float, default=1.0)
    b.add_argument("--sigma", type=float, default=None, help="thm 2")
    b.add_argument("--T", type=int, default=10000)
    b.add_argument("--beta1", type=float, default=None, help="thm 2")
    b.add_argument("--delta", type=float, default=0.1, help="failure probability")
    b.add_argument("--eta", type=float, default=None, help="thm 3 step size")
    b.add_argument("--sigma-subsets", type=_float_list, default=None,
                   help="thm 3: per-subset noise levels, comma-separated")
    b.add_argument("--b0", type=_float_list, default=None,
                   help="thm 3: per-subset initial accumulators")
    b.add_argument("--verify", action="store_true",
                   help="thm 2: Monte-Carlo check over seeds (needs --L 1)")
    b.add_argument("--d", type=int, default=None, help="--verify only")
    b.add_argument("--n-seeds", type=int, default=None, help="--verify only")
    b.add_argument("--rank", type=int, default=None, help="--verify only")
    b.add_argument("--frame", default=None, help="--verify only")
    b.add_argument("--seed-base", type=int, default=None, help="--verify only")
    b.set_defaults(usage_error=b.error)


@functools.cache
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``snsm`` parser, built on the first call for each ``command``
    and shared by every later call in the process: callers must not mutate
    it.

    Every command has its subparser, so the usage line, ``-h`` and the
    top-level errors are the same for any ``command``; only the flags of
    ``command`` are registered, or those of every command when it is None.
    """
    p = _Parser(prog="snsm", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)
    for name, (help_, add_flags, _) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_)
        if command is None or command == name:
            sp.add_argument("--format", choices=("csv", "json"), default="csv")
            sp.add_argument("--out", default=None, help="output file (default stdout)")
            add_flags(sp)
    return p


def _train_noise(args) -> NoiseModel:
    """Dense noise from --sigma, or d^beta-dense noise from --noise-beta at
    --noise-alpha; a flag of the other form is an error, not ignored."""
    if args.noise_beta is None and args.noise_alpha is not None:
        raise ValueError("--noise-alpha sets the level of --noise-beta noise; "
                         "pass --noise-beta too")
    if args.noise_beta is not None and args.sigma is not None:
        raise ValueError("--sigma sets dense noise and --noise-beta sparse "
                         "noise; pass one of them")
    return NoiseModel(sigma=0.0 if args.sigma is None else args.sigma,
                      density_beta=args.noise_beta,
                      density_alpha=1.0 if args.noise_alpha is None
                      else args.noise_alpha)


def _seeds(args, fewest: int = 1, why: str = "seeds must be non-empty") -> tuple:
    """The seeds of --seed-base and --n-seeds: ``fewest`` or more, else ``why``."""
    if args.n_seeds < fewest:
        raise ValueError(f"{why}: --n-seeds is {args.n_seeds}")
    return tuple(range(args.seed_base, args.seed_base + args.n_seeds))


def _cmd_train(args) -> tuple:
    seeds = _seeds(args)
    if args.objective == "quadratic":
        if args.hidden is not None:
            raise ValueError("--hidden sets mlp2's hidden width; the quadratic "
                             "has no hidden layer")
        shape = parse_shape(args.param_shape) if args.param_shape else None
        obj = Quadratic.isotropic(args.d, shape=shape)
    else:
        if args.param_shape is not None:
            raise ValueError("--param-shape sets the quadratic's parameter; "
                             "mlp2 has its own layout, W1 and W2")
        if args.delta1 is not None:
            raise ValueError("--delta1 sets the quadratic's f(x_1); mlp2 draws "
                             "its x_1 from each seed")
        # before the data is drawn from the first seed, with d columns
        harness.check_seeds(seeds)
        check_size("mlp2", "d", args.d)
        rng = np.random.default_rng(args.seed_base)
        X = rng.standard_normal((64, args.d))
        y = rng.standard_normal(64)
        obj = MLP2(X, y, hidden=16 if args.hidden is None else args.hidden)
    config = harness.ExperimentConfig(
        objective=obj, noise=_train_noise(args), T=args.T, seeds=seeds,
        delta1=1.0 if args.delta1 is None else args.delta1,
        record_every=args.record_every)
    spec = make_preset(
        args.preset, lr=args.lr, rank=args.rank, refresh_gap=args.refresh_gap,
        frame_kind=args.frame, subset_rule=args.subset_rule,
        subset_size=args.subset_size, clip_norm=args.clip_norm,
        weight_decay=args.weight_decay)
    result = harness.run(config, spec)
    notes = [f"seed={s.seed} mean_grad_norm_sq={s.mean_grad_norm_sq:.17g} "
             f"final_loss={s.final_loss:.17g} diverged={s.diverged}"
             for s in result.summaries]
    return (result.records, harness.RECORD_FIELDS, notes,
            EXIT_NUMERIC if result.any_diverged else EXIT_OK)


def _cmd_sweep(args) -> tuple:
    rows = harness.sweep_beta(
        args.betas, d=args.d, T=args.T,
        seeds=_seeds(args, 2, "a sweep needs at least two seeds to report a stderr"),
        subset_sizes=args.subset_sizes, alpha=args.alpha, lr=args.lr)
    # the paper's comparison: each row of a beta against coordinate-wise
    # AdaGrad at that beta, whose rows come in one group per beta
    notes = []
    per_beta = len(rows) // len(args.betas)
    for i in range(0, len(rows), per_beta):
        group = rows[i:i + per_beta]
        coord = next(r for r in group if r.optimizer == "AdaGrad")
        for r in group:
            if r is not coord:
                name = (f"{r.optimizer}({r.subset_size})" if r.optimizer == "AdaGradSN"
                        else r.optimizer)
                notes.append(f"beta={r.beta:.17g} {name} vs AdaGrad: "
                             f"{harness.sweep_verdict(r, coord)}")
    fields = ("beta", "optimizer", "subset_size", "mean_metric", "stderr", "n_diverged")
    code = EXIT_NUMERIC if any(r.n_diverged for r in rows) else EXIT_OK
    return rows, fields, notes, code


def _cmd_rates(args) -> tuple:
    r = analysis.rate_exponents(args.beta)
    row = dict(beta=args.beta,
               coord_slow=r.coord[0], coord_fast=r.coord[1],
               norm_slow=r.norm[0], norm_fast=r.norm[1],
               subset_slow=r.subset_slow, subset_fast=r.subset_fast,
               optimal_k_exponent=r.optimal_k_exponent)
    return [row], tuple(row), [], EXIT_OK


def _cmd_noise(args) -> tuple:
    if args.samples.endswith(".npy"):
        try:
            samples = np.load(args.samples)
        except EOFError:  # np.load's error for an empty file
            raise ValueError(f"{args.samples} is empty, not a .npy array") from None
        if not isinstance(samples, np.ndarray):  # an NpzFile, open until closed
            samples.close()
            raise ValueError(f"{args.samples} is an .npz archive, not a .npy array")
    else:
        with warnings.catch_warnings():  # an empty file: estimate_noise says why
            warnings.simplefilter("ignore", UserWarning)
            samples = np.loadtxt(args.samples, ndmin=2)  # one column: d = 1
    est = analysis.estimate_noise(samples, threshold=args.threshold)
    d = samples.shape[1]
    row = dict(d=d, n=samples.shape[0], noisy_count=est.noisy_count,
               noisy_fraction=est.noisy_count / d,
               mean_noisy_var=est.mean_noisy_var)
    return [row], tuple(row), [], EXIT_OK


def _cmd_mem(args) -> tuple:
    manifest = harness.load_manifest(args.manifest)
    spec = make_preset(args.preset, rank=args.rank, subset_rule=args.subset_rule,
                       subset_size=args.subset_size)
    report = harness.mem_report(manifest, spec)
    return (report["entries"], ("name", "tag", "shape", "state_elems", "frame_elems"),
            [f"preset={args.preset} total={report['total']} "
             f"frame_elements={report['frame_elements']}"], EXIT_OK)


# the flags that one mode of `bound` alone reads, with their defaults; the
# other modes exit 1 on them rather than ignore them
_BOUND_MODE_FLAGS = {
    "--thm 2": dict(sigma=1.0, beta1=0.9),
    "--thm 3": dict(eta=0.01, sigma_subsets=None, b0=None),
    "--verify": dict(d=100, n_seeds=20, rank=10, frame="gaussian_ortho", seed_base=0),
}


def _cmd_bound(args) -> tuple:
    if args.thm == "3" and args.verify:
        args.usage_error("--verify checks --thm 2 only; --thm 3 has no "
                         "Monte-Carlo check")
    modes = (f"--thm {args.thm}", "--verify" if args.verify else None)
    for mode, defaults in _BOUND_MODE_FLAGS.items():
        given = [f"--{dest.replace('_', '-')}" for dest in defaults
                 if getattr(args, dest) is not None]
        if given and mode not in modes:
            args.usage_error(f"--thm {args.thm} does not read "
                             f"{' or '.join(given)} ({mode} only)")
        for dest, default in defaults.items():
            if getattr(args, dest) is None:
                setattr(args, dest, default)
    if args.thm == "2":
        if args.verify and args.L != 1.0:
            args.usage_error(f"--verify needs --L 1, the smoothness of its "
                             f"objective; got --L {args.L}")
        mb = analysis.momentum_bound(args.delta1, args.L, args.sigma, args.T,
                                     args.beta1, args.delta)
        row = dict(asdict(mb), total=mb.total)
        if not args.verify:
            return [row], tuple(row), [], EXIT_OK
        _seeds(args)  # checked here, so that the error names --n-seeds
        check = harness.verify_thm2(
            d=args.d, sigma=args.sigma, delta1=args.delta1, T=args.T,
            fail_prob=args.delta, n_seeds=args.n_seeds, rank=args.rank,
            frame_kind=args.frame, beta1=args.beta1, seed_base=args.seed_base)
        return ([row], tuple(row),
                [f"verify: fraction={check.fraction:.4f} "
                 f"threshold={check.threshold:.4f} passed={check.passed}"],
                EXIT_OK if check.passed else EXIT_CHECK_FAILED)
    thm3_inputs = (("--sigma-subsets", args.sigma_subsets), ("--b0", args.b0))
    missing = [flag for flag, value in thm3_inputs if value is None]
    if missing:
        args.usage_error(f"--thm 3 requires {' and '.join(missing)}")
    b0 = args.b0
    if len(b0) == 1:
        b0 = b0 * len(args.sigma_subsets)
    sb = analysis.subsetnorm_bound(args.delta1, args.L, args.eta, args.T,
                                   np.array(args.sigma_subsets), np.array(b0),
                                   args.delta)
    return [sb], tuple(asdict(sb)), [], EXIT_OK


# each command's help line, the function that registers its flags and the one
# that runs it, in the order of the usage line; a command returns its rows, their
# fields, its notes and its exit status, and main alone writes them
_COMMANDS = {
    "train": ("run one optimizer config over seeds", _train_flags, _cmd_train),
    "sweep": ("beta-sweep over step-size families", _sweep_flags, _cmd_sweep),
    "rates": ("dimension-dependence exponents at beta", _rates_flags, _cmd_rates),
    "noise": ("noise-variance report from gradient samples", _noise_flags,
              _cmd_noise),
    "mem": ("optimizer state size over a shape manifest", _mem_flags, _cmd_mem),
    "bound": ("evaluate a convergence bound", _bound_flags, _cmd_bound),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a parser with only the named command's flags: a one-shot process
    # registers no flag of the five commands that do not run
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        rows, fields, notes, code = _COMMANDS[args.cmd][2](args)
        _emit(rows, fields, args.format, args.out)
        for note in notes:
            print(f"# {note}", file=sys.stderr)
        return code
    except (ValueError, OSError) as exc:
        print(f"snsm: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        print(f"snsm: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
