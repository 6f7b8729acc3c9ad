"""The three benchmark workloads: the CLI calls of one pass and their checkers.

A pass is the list of ``snsm`` command lines a workload runs once. An op is
the unit the checkers count: one output row of ``sweep``, one ``train`` run
per preset, one ``mem`` report per preset. Each checker returns one boolean
per op (True = op passed), so a broken output shows up as a failed op.
"""

from __future__ import annotations

import json
import math
import re

# beta_sweep: the configuration of acceptance criterion 7 at T=1000, 5 seeds.
SWEEP_BETAS = (0.0, 1.0)
SWEEP_D = 1024
SWEEP_SUBSET = 256
SWEEP_T = 1000
SWEEP_SEEDS = 5
SWEEP_ROWS = (("AdaGradNorm", SWEEP_D), ("AdaGrad", 1), ("AdaGradSN", SWEEP_SUBSET))

# matrix_train: one 512x512 quadratic parameter, refreshes at t = 10, 20, 30, 40.
TRAIN_SHAPE = (512, 512)
TRAIN_RANK = 64
TRAIN_T = 40
TRAIN_GAP = 10
TRAIN_LR = 1e-3
TRAIN_SIGMA = 1e-3
TRAIN_RUNS = (("Adam", "svd"), ("AdamSN", "svd"), ("AdamSNSM", "svd"),
              ("AdamSNSM", "srht"), ("GaLore", "svd"))

# mem_manifest: the LLaMA-60M shape manifest, rank 4 (the CLI default).
MEM_MANIFEST = "manifests/llama60m.manifest"
MEM_RANK = 4
MEM_PRESETS = ("Adam", "AdamSN", "AdamSNSM", "GaLore")

NAMES = ("beta_sweep", "matrix_train", "mem_manifest")


# ---------------------------------------------------------------------------
# closed forms (acceptance criterion 6)

def state_elems(preset: str, tag: str, shape: tuple, rank: int) -> int:
    """Persistent optimizer-state elements of one parameter, frame excluded."""
    numel = math.prod(shape)
    if tag != "linear" or len(shape) != 2:
        return 2 * numel
    big, small = max(shape), min(shape)
    return {"Adam": 2 * numel, "AdamSN": numel + big,
            "AdamSNSM": rank * small + big, "GaLore": 2 * rank * small}[preset]


def frame_elems(preset: str, tag: str, shape: tuple, rank: int) -> int:
    if preset in ("AdamSNSM", "GaLore") and tag == "linear" and len(shape) == 2:
        return rank * max(shape)
    return 0


def read_manifest(path) -> list:
    """(name, tag, shape) per manifest line, parsed independently of snsm."""
    entries = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                name, tag, dims = line.split("\t")
                entries.append((name, tag, tuple(int(s) for s in dims.split("x"))))
    return entries


# ---------------------------------------------------------------------------
# command lines of one pass

def calls(workload: str, seed: int) -> list:
    """(label, argv) for every entry-point call of one pass."""
    if workload == "beta_sweep":
        return [("sweep", [
            "sweep", "--betas", ",".join(str(b) for b in SWEEP_BETAS),
            "--d", str(SWEEP_D), "--subset-sizes", str(SWEEP_SUBSET),
            "--lr", "0.3", "--T", str(SWEEP_T), "--n-seeds", str(SWEEP_SEEDS),
            "--seed-base", str(seed * SWEEP_SEEDS), "--format", "json"])]
    if workload == "matrix_train":
        m, n = TRAIN_SHAPE
        return [(f"{preset}/{frame}", [
            "train", "--d", str(m * n), "--param-shape", f"{m}x{n}",
            "--rank", str(TRAIN_RANK), "--preset", preset, "--frame", frame,
            "--T", str(TRAIN_T), "--refresh-gap", str(TRAIN_GAP),
            "--lr", str(TRAIN_LR), "--sigma", str(TRAIN_SIGMA),
            "--seed-base", str(seed), "--n-seeds", "1", "--format", "json"])
            for preset, frame in TRAIN_RUNS]
    if workload == "mem_manifest":
        return [(preset, ["mem", "--manifest", MEM_MANIFEST, "--preset", preset,
                          "--rank", str(MEM_RANK), "--format", "json"])
                for preset in MEM_PRESETS]
    raise ValueError(f"unknown workload {workload!r}")


def ops_per_pass(workload: str) -> int:
    return {"beta_sweep": len(SWEEP_BETAS) * len(SWEEP_ROWS),
            "matrix_train": len(TRAIN_RUNS),
            "mem_manifest": len(MEM_PRESETS)}[workload]


def steps_per_pass(workload: str) -> int:
    """Optimizer steps one pass asks for (0 for mem, which never steps)."""
    return {"beta_sweep": len(SWEEP_BETAS) * len(SWEEP_ROWS) * SWEEP_SEEDS * SWEEP_T,
            "matrix_train": len(TRAIN_RUNS) * TRAIN_T,
            "mem_manifest": 0}[workload]


# ---------------------------------------------------------------------------
# checkers: (label, exit code, stdout, stderr) -> one boolean per op

def _loads(text):
    try:
        return json.loads(text)
    except ValueError:
        return None


def _loses(a: dict, b: dict) -> bool:
    """a loses to b when their +-1 stderr intervals do not overlap."""
    return b["mean_metric"] + b["stderr"] < a["mean_metric"] - a["stderr"]


def check_sweep(label, rc, out, err) -> list:
    rows = _loads(out) if rc == 0 else None
    n_ops = ops_per_pass("beta_sweep")
    if not isinstance(rows, list) or len(rows) != n_ops:
        return [False] * n_ops
    by = {(r.get("beta"), r.get("optimizer"), r.get("subset_size")): i
          for i, r in enumerate(rows)}
    want = [(b, name, k) for b in SWEEP_BETAS for name, k in SWEEP_ROWS]
    if set(by) != set(want):
        return [False] * n_ops
    ok = [all(isinstance(r.get(f), (int, float)) and math.isfinite(r[f])
              for f in ("mean_metric", "stderr")) for r in rows]
    k_of = dict(SWEEP_ROWS)
    # beta=0: AdaGradNorm must not lose to AdaGrad; beta=1: AdaGradSN must not.
    for beta, name in ((0.0, "AdaGradNorm"), (1.0, "AdaGradSN")):
        i, j = by[(beta, name, k_of[name])], by[(beta, "AdaGrad", 1)]
        if ok[i] and ok[j] and _loses(rows[i], rows[j]):
            ok[i] = False
    return ok


def check_train(label, rc, out, err) -> list:
    preset = label.split("/")[0]
    want = state_elems(preset, "linear", TRAIN_SHAPE, TRAIN_RANK)
    recs = _loads(out) if rc == 0 else None
    if not isinstance(recs, list) or len(recs) != TRAIN_T:
        return [False]
    losses = [r.get("loss") for r in recs]
    finite = all(isinstance(v, (int, float)) and math.isfinite(v) for v in losses)
    return [finite and losses[-1] < losses[0]
            and all(r.get("state_elems") == want for r in recs)
            and "diverged=True" not in err]


_MEM_SUMMARY = re.compile(r"# preset=(\S+) total=(\d+) frame_elements=(\d+)")


def check_mem(label, rc, out, err, entries) -> list:
    rows = _loads(out) if rc == 0 else None
    summary = _MEM_SUMMARY.search(err)
    if not isinstance(rows, list) or summary is None or len(rows) != len(entries):
        return [False]
    per_entry = [state_elems(label, tag, shape, MEM_RANK) for _, tag, shape in entries]
    frames = [frame_elems(label, tag, shape, MEM_RANK) for _, tag, shape in entries]
    rows_ok = all(r.get("name") == name and r.get("state_elems") == want
                  and r.get("frame_elems") == frame
                  for r, (name, _, _), want, frame in zip(rows, entries, per_entry, frames))
    return [rows_ok and summary.group(1) == label
            and int(summary.group(2)) == sum(per_entry)
            and int(summary.group(3)) == sum(frames)]


def checker(workload: str, entries=None):
    if workload == "beta_sweep":
        return check_sweep
    if workload == "matrix_train":
        return check_train
    return lambda label, rc, out, err: check_mem(label, rc, out, err, entries)


# ---------------------------------------------------------------------------
# checker self-test: a correct synthetic output passes, each broken one fails

def _good_sweep():
    return [dict(beta=beta, optimizer=name, subset_size=k, stderr=0.01,
                 mean_metric=1.0 if name == "AdaGrad" else 0.5)
            for beta in SWEEP_BETAS for name, k in SWEEP_ROWS]


def _good_train(preset):
    want = state_elems(preset, "linear", TRAIN_SHAPE, TRAIN_RANK)
    return [dict(step=t, seed=0, loss=1.0 / t, grad_norm_sq=1.0, lr=TRAIN_LR,
                 state_elems=want) for t in range(1, TRAIN_T + 1)]


def _good_mem(preset, entries):
    rows = [dict(name=name, tag=tag, shape="x".join(map(str, shape)),
                 state_elems=state_elems(preset, tag, shape, MEM_RANK),
                 frame_elems=frame_elems(preset, tag, shape, MEM_RANK))
            for name, tag, shape in entries]
    err = (f"# preset={preset} total={sum(r['state_elems'] for r in rows)} "
           f"frame_elements={sum(r['frame_elems'] for r in rows)}\n")
    return rows, err


def self_test(entries) -> dict:
    """Failed-op counts of correct and deliberately broken outputs.

    Returns {case: (failed ops counted, failed ops expected)}; the checkers
    are sound only if every pair is equal.
    """
    cases = {}

    def count(fn, label, rc, rows, err=""):
        return sum(not ok for ok in fn(label, rc, json.dumps(rows), err))

    good = _good_sweep()
    nan_row = [dict(r) for r in good]
    nan_row[4]["mean_metric"] = math.nan
    losing = [dict(r) for r in good]
    losing[0]["mean_metric"] = 2.0  # beta=0 AdaGradNorm far behind AdaGrad
    cases["sweep.good"] = (count(check_sweep, "sweep", 0, good), 0)
    cases["sweep.nan_mean_metric"] = (count(check_sweep, "sweep", 0, nan_row), 1)
    cases["sweep.norm_loses_at_beta0"] = (count(check_sweep, "sweep", 0, losing), 1)
    cases["sweep.exit_code"] = (count(check_sweep, "sweep", 3, good), len(good))

    recs = _good_train("AdamSN")
    wrong = [dict(r, state_elems=r["state_elems"] + 1) for r in recs]
    rising = [dict(r, loss=float(r["step"])) for r in recs]
    cases["train.good"] = (count(check_train, "AdamSN/svd", 0, recs), 0)
    cases["train.wrong_state_elems"] = (count(check_train, "AdamSN/svd", 0, wrong), 1)
    cases["train.loss_not_falling"] = (count(check_train, "AdamSN/svd", 0, rising), 1)
    cases["train.diverged"] = (count(check_train, "AdamSN/svd", 2, recs[:3]), 1)

    check = checker("mem_manifest", entries)
    rows, err = _good_mem("AdamSNSM", entries)
    total = int(_MEM_SUMMARY.search(err).group(2))
    bad_total = err.replace(f"total={total}", f"total={total + 1}")
    bad_frame = err.replace("frame_elements=", "frame_elements=1")
    cases["mem.good"] = (count(check, "AdamSNSM", 0, rows, err), 0)
    cases["mem.wrong_total"] = (count(check, "AdamSNSM", 0, rows, bad_total), 1)
    cases["mem.wrong_frame_elements"] = (count(check, "AdamSNSM", 0, rows, bad_frame), 1)
    cases["mem.missing_row"] = (count(check, "AdamSNSM", 0, rows[:-1], err), 1)
    return cases
