"""Layer wrappers record the right counts and leave the program as found."""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(HERE), os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")]

import layers  # noqa: E402
from scscreen import formula, nn, screen  # noqa: E402
from spans import Tracer  # noqa: E402


def test_default_step_is_about_3_2_gflop():
    assert 3.1e9 < layers.row_flop(nn.ModelConfig()) * 32 < 3.3e9


def test_train_counts_and_originals_restored():
    originals = (nn.train, screen.train, formula.parse_composition)
    tracer = Tracer()
    trace = layers.LayerTrace(tracer)
    trace.install()
    assert nn.train is not originals[0]
    tracer.op = "op0"
    samples = [(formula.parse_composition(f), tc) for f, tc in
               [("Nb3Sn", 18.0), ("NbSn2", 5.0), ("Al2Si", 0.0)] * 4]
    cfg = nn.ModelConfig(conv_layers=1, channels_per_layer=2, dense_hidden=0)
    _params, losses = nn.train(samples, cfg, nn.TrainConfig(batch_size=5, epochs=2))
    tracer.unpatch()
    assert (nn.train, screen.train, formula.parse_composition) == originals

    m = trace.op_metrics("op0")
    assert m["formula.parse_calls"] == 12
    assert m["nn.train_steps"] == 6  # 2 epochs x ceil(12 / 5)
    assert m["ptable.encode_rows"] == 12
    assert m["nn.fit_loss"] == losses[-1]
    assert m["nn.step_gflop"] == pytest.approx(layers.row_flop(cfg) * 12 * 2 / 6 / 1e9)
    assert len(trace.epoch_times["op0"]) == 2
    assert 0 < m["nn.epoch_s_p50"] <= m["nn.train_s"]
