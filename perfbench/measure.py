"""Untraced rounds: the end-to-end metrics, and the checks every run makes."""

from __future__ import annotations

import itertools
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

# A final test loss at or above half the chance level ln(10) means the
# optimizer did not learn the (easily separable) classes.
MAX_FINAL_TEST_LOSS = math.log(10) / 2
# Checks made on every run_train call, and the further ones on an fngd call;
# a call that raises counts them all as failed, so each round attempts the
# same operations.
CSV_CHECKS = 2
FNGD_CHECKS = 2
# Set-ups timed per round; set-up takes milliseconds, so it is repeated to
# give its median enough samples.
SETUP_REPS = 3


def read_metrics(path: Path) -> list[dict]:
    """Rows of an fngd-metrics-v1 CSV, numbers parsed."""
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        row = dict(zip(header, ln.split(",")))
        rows.append({
            "step": int(row["step"]), "split": row["split"],
            "loss": float(row["loss"]), "wall_ms": float(row["wall_ms"]),
        })
    return rows


class Tally:
    """Operations attempted and failed; one step or one check is one operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return ok

    def steps(self, count: int, ok: bool) -> None:
        """Count `count` operations that all passed or all failed."""
        self.attempted += count
        if not ok:
            self.failed += count


def train_once(train, cfg, wl, metrics_path: Path, tally: Tally):
    """One run_train call: (result, train_s, train rows, test rows) or None if it raised."""
    steps = wl.epochs * wl.steps_per_epoch
    start = time.perf_counter()
    try:
        result = train.run_train(cfg)
    except Exception:
        traceback.print_exc()
        tally.steps(steps, ok=False)
        tally.steps(CSV_CHECKS, ok=False)
        return None
    train_s = time.perf_counter() - start
    tally.steps(steps, ok=True)
    rows = read_metrics(metrics_path)
    train_rows = [r for r in rows if r["split"] == "train"]
    test_rows = [r for r in rows if r["split"] == "test"]
    tally.check(
        len(train_rows) == wl.epochs == len(test_rows)
        and [r["step"] for r in train_rows]
        == [(e + 1) * wl.steps_per_epoch for e in range(wl.epochs)],
        f"{cfg.optim.kind}: metrics CSV rows",
    )
    tally.check(sum(r["wall_ms"] for r in train_rows) <= train_s * 1e3,
                f"{cfg.optim.kind}: epoch wall_ms sum exceeds the run_train time")
    return result, train_s, train_rows, test_rows


def check_fngd(core, result, test_rows, wl, coeffs_path: Path, tally: Tally) -> None:
    final = test_rows[-1]["loss"] if test_rows else math.nan
    tally.check(final == result.final.get("test_loss") and final < MAX_FINAL_TEST_LOSS,
                f"fngd: final test loss {final!r} not below {MAX_FINAL_TEST_LOSS:.4f}")
    try:
        saved = core.CoefficientTable.load(coeffs_path).shared
    except (OSError, ValueError) as exc:
        saved = {}
        print(f"coefficient table unreadable: {exc}", file=sys.stderr)
    live = result.table.shared
    tally.check(
        set(saved) == set(live) == set(result.net.preconditioned())
        and all(np.array_equal(saved[i][0], live[i][0]) and saved[i][1] == live[i][1]
                and live[i][0].shape == (wl.batch,) for i in live),
        "fngd: saved coefficient table differs from the trained one",
    )


def untraced(program, wl, datasets, seconds: float) -> tuple[Tally, dict]:
    """Rounds over the datasets in turn until `seconds` pass and each was used once."""
    config, core, train = program["config"], program["core"], program["train"]
    tally = Tally()
    configs = [(config.load_train_config(d.fngd_config), config.load_train_config(d.sgd_config))
               for d in datasets]
    samples = wl.steps_per_epoch * wl.batch
    setup, train_s, coeff, shared, sgd = [], [], [], [], []
    losses: dict[int, float] = {}
    deadline = time.perf_counter() + seconds
    for r in itertools.count():
        k = r % len(datasets)
        inputs, (fngd_cfg, sgd_cfg) = datasets[k], configs[k]
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            cfg = config.load_train_config(inputs.fngd_config)
            train_ds, _ = train.load_datasets(cfg)
            train.build_network(cfg.model, cfg.seed)
            setup.append(time.perf_counter() - start)
            tally.check(train_ds.n == wl.n_train and train_ds.feature_dim == wl.features,
                        "setup: dataset shape")

        run = train_once(train, fngd_cfg, wl, inputs.metrics["fngd"], tally)
        if run is None:
            tally.steps(FNGD_CHECKS, ok=False)
        else:
            result, seconds_taken, train_rows, test_rows = run
            check_fngd(core, result, test_rows, wl, inputs.coeffs, tally)
            walls = [row["wall_ms"] / 1e3 for row in train_rows]
            train_s.append(seconds_taken)
            coeff.append(samples / walls[0])
            shared.append(samples * len(walls[1:]) / sum(walls[1:]))
            losses[k] = test_rows[-1]["loss"]

        run = train_once(train, sgd_cfg, wl, inputs.metrics["sgd"], tally)
        if run is not None:
            walls = [row["wall_ms"] / 1e3 for row in run[2]]
            sgd.append(samples * len(walls) / sum(walls))
        if time.perf_counter() >= deadline and r + 1 >= len(datasets):
            break

    def med(values):
        return statistics.median(values) if values else math.nan

    metrics = {
        "setup_s": (med(setup), "s"),
        "train_s": (med(train_s), "s"),
        "coeff_samples_per_s": (med(coeff), "1/s"),
        "shared_samples_per_s": (med(shared), "1/s"),
        "sgd_samples_per_s": (med(sgd), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "final_test_loss": (statistics.fmean(losses.values()) if len(losses) == len(datasets)
                            else math.nan, "nat"),
    }
    print(f"# rounds={r + 1}", file=sys.stderr)
    return tally, metrics
