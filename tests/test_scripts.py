import importlib.util
import json
import os

import numpy as np

CALIBRATE = os.path.join(os.path.dirname(__file__), "..", "scripts", "calibrate.py")


def test_calibrate_prints_only_moved_leaves(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("calibrate", CALIBRATE)
    calibrate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(calibrate)
    committed = tmp_path / "calibration.json"
    committed.write_text(json.dumps({
        "ladder": {"ascend": 1.0, "tower": [5000, 2.0]},
        "row": {"status": "resolved", "k": 2},
        "gone": 3.0,
    }))
    monkeypatch.setattr(calibrate, "OUT", str(committed))
    calibrate.print_moves({
        "ladder": {"ascend": np.float64(1.5), "tower": [np.float64(5000.0), np.float64(2.0)]},
        "row": {"status": "resolved", "k": 2},
        "new": np.float64(0.25),
    })
    assert capsys.readouterr().out.splitlines() == [
        "ladder.ascend: 1.0 -> 1.5 (rel 0.5)",
        "new: None -> 0.25",
        "gone: 3.0 -> (removed)",
    ]
