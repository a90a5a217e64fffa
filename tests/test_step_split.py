"""The benchmark's step split runs on the public dense-batch functions."""

import math
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

import layers  # noqa: E402
import numpy as np  # noqa: E402

from scscreen import nn  # noqa: E402
from scscreen.formula import parse_composition  # noqa: E402
from scscreen.ptable import encode_ptable_batch  # noqa: E402


def test_step_split_times_forward_backward_and_adam():
    # the batch and targets perfbench's step_batch builds for infer-catalogue
    formulas = ["Nb3Sn", "MgB2", "YBa2Cu3O7", "LaFeAsO", "NbN", "Al2Si", "FeSe", "CuO"]
    batch = encode_ptable_batch([parse_composition(f) for f in formulas * 4])
    targets = nn.tc_transform(np.zeros(32), nn.TcTransform.LOG_SHIFT_0P1)
    times = layers.step_split(batch, targets, repeats=1)
    assert sorted(times) == ["nn.adam_ms", "nn.backward_b32_ms", "nn.forward_b32_ms"]
    assert all(math.isfinite(t) and t > 0 for t in times.values())
