#!/usr/bin/env python3
"""Could the pipeline have pointed at a family it never trained on?

Iron-based rows are held out entirely; the model trains on an s-block
rule (hot Ba compounds) plus assorted zeros. On its own it predicts no
iron compound to be interesting. Add two "bridge" rows -- conventional
superconductors that happen to contain iron -- and the same experiment
starts flagging held-out iron compounds. The paired counts below differ
only by those two rows.

Run: python3 demos/family_discovery.py
"""

from scscreen.dataset import FamilyLabel, Source, make_record
from scscreen.nn import Head, ModelConfig, TrainConfig
from scscreen.screen import ExperimentSpec, build_training_filter, run_family_discovery

P_COLD = ["Al", "Si", "Ge", "Sn", "Pb", "Ga", "In"]
D_COLD = ["Zn", "Ti", "Mn", "Ni"]
FE_TEST = ["FeAs", "FeSe", "Fe2As", "FeSe2", "Fe3Se4", "Fe5As3",
           "Fe4Se5", "FeAs2", "Fe2Se", "Fe3As2", "Fe2As3", "Fe5Se3"]
BRIDGES = [("Fe3Al", 20.0), ("Fe2Ge", 16.0)]


def rec(f, tc=None, y=None, s=Source.SUPERCON):
    return make_record(f, tc, y, s)


def measured_rows():
    rows = []
    for i, c in enumerate(P_COLD):
        for k in (2, 4, 6):
            rows.append(rec(f"Ba{k}{c}{8 - k}", 25.0 * k / 8.0, 2000 + i))
    for i in range(len(P_COLD)):
        rows.append(rec(f"{P_COLD[i]}{P_COLD[(i + 1) % len(P_COLD)]}", 0.0, 2001 + i % 7))
    for i, d in enumerate(D_COLD):
        rows.append(rec(f"{d}2{P_COLD[i]}3", 0.0, 2002 + i))
    rows += [rec(f, 0.0, 2004) for f in
             ("As2Se3", "GaAs", "InAs", "SnSe", "PbSe", "GeAs2")]
    rows += [rec(f, 20.0, 2008) for f in FE_TEST]
    return rows


def catalogue():
    rows = []
    for i in range(len(P_COLD)):
        for j in range(i + 1, len(P_COLD)):
            rows.append(rec(f"{P_COLD[i]}2{P_COLD[j]}3", None, 2005, Source.COD))
    rows += [rec(f"{d}{p}3", None, 2005, Source.COD) for d, p in zip(D_COLD, P_COLD)]
    return rows


def main():
    spec = ExperimentSpec(
        name="discovery-demo",
        training_filter=build_training_filter({"exclude_families": ["FESC"]}),
        test_set=FamilyLabel.FESC,
        model=ModelConfig(conv_layers=1, channels_per_layer=8, dense_hidden=0,
                          head=Head.BINARY_LOGIT, seed=11),
        train=TrainConfig(learning_rate=3e-2, batch_size=8, epochs=200, shuffle_seed=2),
        repeats=10,
    )
    plain_world = measured_rows()
    bridged_world = plain_world + [rec(f, tc, 2004) for f, tc in BRIDGES]

    plain = run_family_discovery(plain_world, catalogue(), spec)
    bridged = run_family_discovery(bridged_world, catalogue(), spec)

    print(f"{plain.n_test} iron-family rows held out; "
          f"{len(plain.runs)} paired repeats per world\n")
    print("run   without bridges   with bridges")
    rises = 0
    for a, b in zip(plain.runs, bridged.runs):
        rises += b.n_positive > a.n_positive
        print(f"{a.run_index:3d}   {a.n_positive:15d}   {b.n_positive:12d}")
    print(f"\ncount rose in {rises} of {len(plain.runs)} pairs")


if __name__ == "__main__":
    main()
