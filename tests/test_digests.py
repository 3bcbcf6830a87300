"""The report comparison of tools/digests.py, on hand-made report pairs."""

import importlib.util
import json
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "digests", Path(__file__).resolve().parents[1] / "tools" / "digests.py")
digests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(digests)


def test_describe_move_names_every_moved_path():
    old = {"config": {"gamma": 1.0, "t": "0.01:0.04:4"},
           "results": {"rows": [{"theta": 2.0, "ok": True}, {"theta": 3.0, "ok": True}]}}
    new = json.loads(json.dumps(old))
    assert digests.describe_move(json.dumps(old), json.dumps(new)) == []
    del new["config"]["gamma"]
    new["config"]["grid_h"] = None
    new["results"]["rows"][1]["theta"] = 3.0 * (1 + 2**-50)
    new["results"]["rows"][0]["ok"] = False
    head, *paths = digests.describe_move(json.dumps(old), json.dumps(new))
    assert head == "1 added, 1 removed, 2 changed (1 numeric, largest relative move 8.88e-16)"
    assert paths == ["  added config.grid_h", "  removed config.gamma",
                     "  changed results.rows[0].ok", "  changed results.rows[1].theta"]
    # text that is not one JSON document is compared line by line
    head, first = digests.describe_move('{"bc": 1}\n0,2.5,0\n', '{"bc": 1}\n2.5\n')
    assert head == "1 of 2 -> 2 lines differ"
    assert first == "  line 2: ['0,2.5,0'] -> ['2.5']"
