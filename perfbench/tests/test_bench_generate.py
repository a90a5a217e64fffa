"""The input generators are pure functions of the seed."""

import filecmp
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import generate  # noqa: E402

WORKLOADS = ("fit-default", "infer-catalogue", "screen-cli", "forest-cli")


def tree(root):
    return sorted(
        os.path.relpath(os.path.join(d, f), root) for d, _, files in os.walk(root) for f in files
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_bytes(tmp_path, workload):
    a, b, c = (str(tmp_path / x) for x in "abc")
    exp_a = generate.write_inputs(workload, 5, a)
    exp_b = generate.write_inputs(workload, 5, b)
    generate.write_inputs(workload, 6, c)
    assert exp_a == exp_b
    assert tree(a) == tree(b) == tree(c)
    for name in tree(a):
        assert filecmp.cmp(os.path.join(a, name), os.path.join(b, name), shallow=False), name
    differ = [n for n in tree(a)
              if not filecmp.cmp(os.path.join(a, n), os.path.join(c, n), shallow=False)]
    assert differ, "another seed should give other inputs"


def test_element_key_identifies_rewritten_formulas():
    assert generate.element_key({"Nb": 3, "Sn": 1}) == generate.element_key({"Sn": 2, "Nb": 6})
    assert generate.element_key({"Nb": 3, "Sn": 1}) != generate.element_key({"Nb": 1, "Sn": 3})


def test_family_rule():
    key = generate.element_key
    assert generate.family(key({"Y": 1, "Ba": 2, "Cu": 3, "O": 7})) == "cuprate"
    assert generate.family(key({"Cu": 1, "O": 1})) == "conventional"
    assert generate.family(key({"Ba": 1, "Fe": 2, "As": 2})) == "fesc"
    assert generate.family(key({"Nb": 3, "Sn": 1})) == "conventional"


def test_dirty_world_has_every_kind_of_row():
    import random

    rng = random.Random(1)
    sc_rows, info = generate.sc_table(rng, 300)
    cod_rows, cod = generate.catalogue_table(rng, 6000, info["sc_keys"])
    assert len(sc_rows) == 300 and len(cod_rows) == 6000
    assert all(cod["rows"][k] > 0 for k in cod["rows"]), cod["rows"]
    assert cod["excluded"] > 0 and cod["kept"] + cod["excluded"] == cod["corpus"]
    assert any(f.startswith("Nb") or "Nb" in f for f, _, _ in cod_rows)
