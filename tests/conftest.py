import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import offsetlock
from offsetlock import FrequencyTrace

#: What ``LockRun.export`` writes, in the order it returns the paths.
LOCKRUN_FILES = ["laser_offset.npy", "inloop_beat.npy", "error_v.npy", "actuator_hz.npy",
                 "lockrun.json"]


def brute_force_adev_overlapping(readings, m):
    """Literal double-loop evaluation of the overlapping two-sample deviation.

    Written independently of the library implementation: block averages are
    formed by explicit Python sums, then sigma = sqrt(0.5 * mean of squared
    consecutive-average differences) over all overlapping starts.
    """
    y = list(readings)
    n = len(y)
    if n < 2 * m:
        return None
    sq_sum = 0.0
    pairs = 0
    for k in range(n - 2 * m + 1):
        avg1 = sum(y[k:k + m]) / m
        avg2 = sum(y[k + m:k + 2 * m]) / m
        d = avg2 - avg1
        sq_sum += d * d
        pairs += 1
    return math.sqrt(0.5 * (sq_sum / pairs))


def brute_force_adev_nonoverlapping(readings, m):
    """Strided (disjoint-interval) two-sample deviation, double-loop style."""
    y = list(readings)
    n_blocks = len(y) // m
    if n_blocks < 2:
        return None
    blocks = [sum(y[i * m:(i + 1) * m]) / m for i in range(n_blocks)]
    sq_sum = 0.0
    for b1, b2 in zip(blocks, blocks[1:]):
        sq_sum += (b2 - b1) ** 2
    return math.sqrt(0.5 * sq_sum / (n_blocks - 1))


def psd_estimate(trace, segments):
    """Averaged-periodogram one-sided PSD of a trace: the synthesis tests' oracle.

    The trace is split into ``segments`` equal non-overlapping chunks (boxcar window,
    remainder discarded); per-segment periodograms are averaged.  Satisfies Parseval:
    sum(S) * df = mean square of the data.
    """
    seg_len = trace.samples.size // segments
    data = trace.samples[: segments * seg_len].reshape(segments, seg_len)
    psd = (2.0 * trace.dt_s / seg_len) * np.abs(np.fft.rfft(data, axis=1)) ** 2
    psd[:, 0] /= 2.0
    if seg_len % 2 == 0:
        psd[:, -1] /= 2.0
    return np.fft.rfftfreq(seg_len, trace.dt_s), psd.mean(axis=0)


def read_trace_csv(path):
    """A ``write_trace_csv`` (``synth -o``) file read back into a FrequencyTrace."""
    with open(path) as fh:
        header = dict(item.split("=") for item in fh.readline().lstrip("#").split())
    return FrequencyTrace(int(header["nominal_hz"]), float(header["dt"]),
                          np.loadtxt(path, ndmin=1), int(header["seed"]))


def read_allan_csv(path):
    """The columns of a ``write_allan_csv`` (``adev -o``) file: taus, sigmas, units, n_pairs."""
    header, *rows = Path(path).read_text().splitlines()
    assert header == "tau_s,sigma,units,n_pairs"
    taus, sigmas, units, pairs = zip(*(row.split(",") for row in rows))
    return (np.array(taus, dtype=float), np.array(sigmas, dtype=float), units,
            np.array(pairs, dtype=int))


@pytest.fixture
def make_series():
    def _make(readings, gate_s=1.0, nominal_hz=0):
        return FrequencyTrace(nominal_hz=nominal_hz, dt_s=gate_s,
                              samples=np.asarray(readings, dtype=float))
    return _make


def assert_lockrun_dir(run, written, out_dir):
    """``written`` are exactly the five LockRun files, and they hold ``run``'s values bit for bit.

    Each FrequencyTrace is rebuilt from its ``.npy`` plus the ``traces`` key of lockrun.json;
    the error and actuator arrays hold one value per ``traces["update_stride"]`` samples.
    """
    assert written == [os.path.join(str(out_dir), name) for name in LOCKRUN_FILES]
    assert sorted(os.listdir(out_dir)) == sorted(LOCKRUN_FILES)
    traces = json.loads((out_dir / "lockrun.json").read_text())["traces"]
    arrays = {name: np.load(out_dir / f"{name}.npy", allow_pickle=False)
              for name in ("laser_offset", "inloop_beat", "error_v", "actuator_hz")}
    for name, trace in (("laser_offset", run.laser_offset_trace),
                        ("inloop_beat", run.inloop_beat_trace)):
        back = FrequencyTrace(dt_s=traces["dt_s"], samples=arrays[name], **traces[name])
        assert (back.nominal_hz, back.dt_s, back.seed) == (trace.nominal_hz, trace.dt_s, trace.seed)
        assert back.samples.tobytes() == trace.samples.tobytes()
    stride = traces["update_stride"]
    assert stride == run.update_stride
    n_updates = -(-len(run.laser_offset_trace) // stride)
    for name, arr in (("error_v", run.error_trace), ("actuator_hz", run.actuator_trace)):
        assert (arrays[name].dtype, arrays[name].shape) == (np.float64, (n_updates,))
        assert arrays[name].tobytes() == arr.tobytes()


def tracked_lock_point(run, disc, thermal):
    """Per sample, the lock point f_lock tau_d(0) / tau_d that ``run``'s servo tracks under
    ``thermal``: each update holds the delay ``thermal.delays`` gives at its first sample."""
    stride, n = run.update_stride, len(run.inloop_beat_trace)
    starts = np.arange(run.error_trace.size) * stride * run.inloop_beat_trace.dt_s
    return np.repeat(run.f_lock_hz * disc.delay_s / thermal.delays(disc, starts), stride)[:n]


def nested(value, depth):
    """``value`` inside ``depth`` JSON arrays, one in the other."""
    for _ in range(depth):
        value = [value]
    return value


def run_python(*args):
    """``python *args`` in a fresh process that imports this checkout's offsetlock."""
    src = str(Path(offsetlock.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=300)
