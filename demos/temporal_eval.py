#!/usr/bin/env python3
"""Train on materials reported before a cutoff year, score a later list.

The model never sees the evaluation rows: a year bound keeps training in
the past, catalogue rows fill in the negative class, and anything on the
evaluation list that overlaps training is scored by nobody. The report
compares precision against the base rate of guessing at random.

Run: python3 demos/temporal_eval.py
"""

from scscreen.dataset import Source, make_record
from scscreen.metrics import report_table_text
from scscreen.nn import ModelConfig, TcTransform, TrainConfig, config_echo
from scscreen.screen import ExperimentSpec, build_training_filter, run_temporal_eval

COLD = ["Al", "Si", "Ge", "Sn", "Pb", "Ga", "In", "Zn"]


def sc_rows():
    rows = []
    for i, c in enumerate(COLD):
        for k in (2, 4, 6):
            rows.append(make_record(f"Nb{k}{c}{8 - k}", 25.0 * k / 8.0,
                                    2000 + i % 8, Source.SUPERCON))
    for i in range(len(COLD)):
        rows.append(make_record(f"{COLD[i]}{COLD[(i + 1) % len(COLD)]}", 0.0,
                                2000 + i % 8, Source.SUPERCON))
    return rows


def cod_rows():
    return [make_record(f"{COLD[i]}2{COLD[j]}3", None, 2005, Source.COD)
            for i in range(len(COLD)) for j in range(i + 1, len(COLD))]


def eval_rows():
    later = [("Nb9Al", 22.5), ("Nb9Si", 22.5), ("Nb9Ge", 22.5),
             ("NbAl9", 2.5), ("Al3Zn7", 0.0), ("Ga3In7", 0.0)]
    return [make_record(f, tc, 2012, Source.EVAL_LIST) for f, tc in later]


def main():
    spec = ExperimentSpec(
        name="temporal-demo",
        training_filter=build_training_filter({"year_before": 2010}),
        model=ModelConfig(conv_layers=1, channels_per_layer=4, dense_hidden=0,
                          tc_transform=TcTransform.LINEAR, seed=7),
        train=TrainConfig(learning_rate=5e-2, batch_size=8, epochs=150,
                          shuffle_seed=3),
        thresholds=(0.0, 4.0, 10.0),
    )
    print(config_echo(spec.training_filter))
    reports = run_temporal_eval(sc_rows(), cod_rows(), eval_rows(), spec)
    print()
    print(report_table_text(reports))
    best = reports[0]
    print(f"\nat {best.threshold_kelvin:g} K: precision {best.precision:.2f} "
          f"vs {best.baseline_precision:.2f} for picking at random")


if __name__ == "__main__":
    main()
