"""A standing fuzz of the front door.

Configs one to three lines away from a tiny dense run, a tiny conv run
and a tiny run over IDX files go through cli.main in process, and each
must end in one of the three ways the CLI promises: exit 0 with nothing
on stderr and the output directory still a directory, exit 2 with one
keyed `error:` line and no output file, or exit 3 with one `error:` line
naming where training failed.
"""

import contextlib
import io
import os
import re
import signal
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import write_idx_images, write_idx_labels
from fngd.cli import OUTPUT_DIR_ENV, main
from fngd.train import BENCH_VARIANTS

DENSE = """\
[dataset]
kind = synthetic
n = 40
features = 5
classes = 2
test_n = 8

[model]
input = 5
layer = dense 5 4
layer = relu
layer = dense 4 2

[train]
optimizer = fngd
lr = 0.1
epochs = 4
batch_size = 8
seed = 1

[output]
metrics = metrics.csv
"""

CONV = (DENSE.replace("features = 5", "features = 9")
        .replace("input = 5\nlayer = dense 5 4\nlayer = relu\nlayer = dense 4 2",
                 "input = 1 3 3\nlayer = conv 1 2 3\nlayer = relu\nlayer = dense 18 2"))

# Each example writes the IDX files into its own temp dir, which the
# config names as TMP.  This base also sets output.coeffs and
# output.bench, so that their pools are drawn.
TMP = "<tmp>"
IDX_KEYS = ("images", "labels", "test_images", "test_labels")
IDX = (DENSE.replace("kind = synthetic\nn = 40\nfeatures = 5\nclasses = 2\ntest_n = 8",
                     "kind = idx\nclasses = 2\n" + "\n".join(f"{k} = {TMP}/{k}.idx"
                                                              for k in IDX_KEYS))
       .replace("input = 5\nlayer = dense 5 4", "input = 4\nlayer = dense 4 4")
       + "coeffs = coeffs.csv\nbench = bench.csv\n")

# numpy refuses an array with a dimension this large before allocating
# anything; a size between the small ones below and this one could
# really be allocated, so the pool holds none.
HUGE = "99999999999999999999"

# HUGE comes first: hypothesis draws a pool's early entries more often,
# and sizes numpy refuses are where unkeyed refusals have come from.
SCALARS = (HUGE, "0", "-1", "nan", "inf", "-0.0", "5e-324", "1e308", "", "４")
# Each key line is set from the scalars, and a layer or optimizer line
# also from the other values of its kind.
POOLS = {
    "layer": SCALARS + ("relu", "dense 5 4", "dense 4 2 nobias", "conv 1 2 3 valid",
                        "conv 1 2 5", f"dense 5 {HUGE}", f"dense {HUGE} 4",
                        f"conv 1 {HUGE} 3", f"conv 1 2 {HUGE}"),
    "optimizer": SCALARS + ("sgd", "sgd_momentum", "ngd_smw", "fngd_explicit"),
    # a valid run of HUGE epochs trains for ever, by design
    "epochs": tuple(v for v in SCALARS if v != HUGE),
}
# An IDX path is set to no file, a missing or cut-short one, the config,
# or the other file of its split; an output path to one that names no
# file, or to a directory or a path under a file, which the output dir
# redirects.
for _key, _other in zip(IDX_KEYS, ("labels", "images", "test_labels", "test_images")):
    POOLS[_key] = ("", TMP, f"{TMP}/missing.idx", f"{TMP}/{_key}-truncated.idx",
                   f"{TMP}/run.cfg", f"{TMP}/{_other}.idx")
for _key in ("metrics", "coeffs", "bench"):
    POOLS[_key] = ("", ".", "..", "/", TMP, f"{TMP}/run.cfg/out.csv")

SECTIONS = ("dataset", "model", "train", "output")
EXAMPLE_SECONDS = 10


@st.composite
def configs(draw):
    """A base config with one to three lines set from the pool, dropped or
    repeated."""
    lines = draw(st.sampled_from((DENSE, CONV, IDX))).splitlines()
    for _ in range(draw(st.sampled_from((1, 1, 2, 3)))):
        move = draw(st.sampled_from(("set", "set", "set", "set", "drop", "repeat")))
        if move == "set":
            i = draw(st.sampled_from([j for j, line in enumerate(lines) if "=" in line]))
            key = lines[i].partition("=")[0]
            lines[i] = f"{key}= {draw(st.sampled_from(POOLS.get(key.strip(), SCALARS)))}"
        else:
            i = draw(st.integers(0, len(lines) - 1))
            if move == "drop":
                del lines[i]
            else:
                lines.insert(i, lines[i])
    return "\n".join(lines) + "\n"


class _Hang(BaseException):
    """Raised by the timer; a BaseException, so that no handler in the
    program under test can take it for one of its own failures."""


def _hang(signum, frame):
    raise _Hang(f"no exit within {EXAMPLE_SECONDS} s")


def _write_idx_files(tmp):
    """The IDX base's files in `tmp`: 40 train and 8 test 2x2 images with
    their labels, and a copy of each file cut short."""
    rng = np.random.Generator(np.random.PCG64(0))
    for prefix, n in (("", 40), ("test_", 8)):
        write_idx_images(tmp / f"{prefix}images.idx",
                         rng.integers(0, 255, (n, 2, 2)).astype(np.uint8))
        write_idx_labels(tmp / f"{prefix}labels.idx", np.arange(n) % 2)
    for key in IDX_KEYS:
        (tmp / f"{key}-truncated.idx").write_bytes((tmp / f"{key}.idx").read_bytes()[:-3])


def _check_front_door(text, command):
    """Run `command` on the config `text` and check that it ends in one of
    the three promised ways."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out_dir = Path(tmp) / "run.cfg", Path(tmp) / "out"
        if TMP in text:
            _write_idx_files(Path(tmp))
        cfg.write_text(text.replace(TMP, tmp))
        err = io.StringIO()
        previous = signal.signal(signal.SIGALRM, _hang)
        signal.setitimer(signal.ITIMER_REAL, EXAMPLE_SECONDS)
        try:
            # a warning would reach the user's stderr, so here it raises
            with mock.patch.dict(os.environ, {OUTPUT_DIR_ENV: str(out_dir)}), \
                    contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main([command, "--config", str(cfg)])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        lines = err.getvalue().splitlines()
        if code == 0:
            assert lines == []
            assert out_dir.is_dir() or not out_dir.exists()
            return
        assert code in (2, 3)
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        message = lines[0][len("error: "):]
        if code == 2:
            assert re.match(rf"({'|'.join(SECTIONS)})[.:]", message) or \
                re.match(rf"{re.escape(str(cfg))}:\d+: ", message), message
            assert not out_dir.exists()
        elif command == "train":
            assert message.startswith("epoch "), message
        else:
            assert message.startswith(tuple(f"{v}: " for v, _, _ in BENCH_VARIANTS)), message


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(text=configs(), command=st.sampled_from(("train", "train", "train", "bench")))
def test_every_config_near_a_valid_one_ends_in_a_promised_way(text, command):
    _check_front_door(text, command)
