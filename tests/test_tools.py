import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "seeded_outputs.py"
spec = importlib.util.spec_from_file_location("seeded_outputs", TOOL)
seeded_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(seeded_outputs)


def report(valid_loss=0.5):
    return {
        "history": [[0, "head_sgdr", 0.1, 1.0, 0.9, 0.5],
                    [1, "dlr_clm", 0.01, 0.8, valid_loss, 0.75]],
        "confusion": [[3, 1], [0, 4]],
        "reached": False,
        "phases": [["range_test", 0, 0.5], ["head_sgdr", 1, 0.5],
                   ["dlr_clm", 1, 0.75]],
        "eta_max": 0.1,
        "finder_traces": [],
    }


@pytest.fixture
def write_dump(tmp_path):
    def write(name, reports):
        path = tmp_path / name
        path.write_text(json.dumps(reports))
        return path
    return write


class TestCompare:
    def test_identical_dumps(self, write_dump, capsys):
        reports = {"cifar-mlp 1 optimized": report(),
                   "cifar-mlp 2 optimized": report(float("nan"))}
        before = write_dump("before.json", reports)
        after = write_dump("after.json", reports)
        assert seeded_outputs.compare(before, after) == 0
        assert capsys.readouterr().out == "cifar-mlp: 0 of 2 reports differ\n"

    def test_changed_history_row_names_its_epoch_and_phase(self, write_dump,
                                                           capsys):
        before = write_dump("before.json", {"cifar-cnn 1 optimized": report(),
                                            "cifar-cnn 2 optimized": report()})
        after = write_dump("after.json", {"cifar-cnn 1 optimized": report(),
                                          "cifar-cnn 2 optimized": report(0.4)})
        assert seeded_outputs.compare(before, after) == 1
        out = capsys.readouterr().out
        assert out.startswith("cifar-cnn: 1 of 2 reports differ\n")
        assert "cifar-cnn 2 optimized: history;" in out
        assert "first differs at epoch 1 (dlr_clm)" in out

    def test_changed_history_says_how_far_it_moved(self, write_dump, capsys):
        moved = report(0.4)
        moved["history"][0][3] = 1.0 + 2e-7
        moved["history"][0][5] = 0.25
        before = write_dump("before.json", {
            "cifar-cnn 1 optimized": report(),
            "cifar-cnn 2 optimized": report(float("nan"))})
        after = write_dump("after.json", {
            "cifar-cnn 1 optimized": moved,
            "cifar-cnn 2 optimized": report(0.4)})
        assert seeded_outputs.compare(before, after) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].endswith(
            "; largest valid_acc change 0.25, largest relative train_loss "
            "change 2e-07, valid_loss 0.2")
        # a loss that turns finite moved without bound
        assert lines[2].endswith("valid_loss inf")
        assert seeded_outputs.relative_change(float("nan"), float("nan")) == 0

    def test_dumps_over_different_seeds(self, write_dump, capsys):
        before = write_dump("before.json", {"blobs-mlp 0 optimized": report()})
        after = write_dump("after.json", {"blobs-mlp 1 optimized": report()})
        assert seeded_outputs.compare(before, after) == 1
        assert "different seeds" in capsys.readouterr().out


def test_set_names_hold_no_space():
    # compare groups reports by the first word of their key
    assert all(" " not in name for name in seeded_outputs.SETS)
