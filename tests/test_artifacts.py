import json
import math

import numpy as np

from carpnet.artifacts import write_json


def test_write_json_text_is_exact(tmp_path):
    path = tmp_path / "a.json"
    write_json(path, {
        "gamma": 1.0,
        "kappa": np.float64(99.0),
        "beta": np.float64(0.1),
        "n": np.int64(3),
        "unique": np.bool_(True),
        "bound": math.nan,
        "ratio": np.float64(-np.inf),
        "pair": (0.3, 2.0, None),
        "nested": {"b": [np.float32(0.5)], "a": "tab\t\"quoted\""},
        "größe": "Δ",
    })
    assert path.read_bytes().decode("utf-8") == (
        '{"beta":0.1,"bound":null,"gamma":1.0,"größe":"Δ","kappa":99.0,"n":3,'
        '"nested":{"a":"tab\\t\\"quoted\\"","b":[0.5]},"pair":[0.3,2.0,null],'
        '"ratio":null,"unique":true}\n'
    )
    assert type(json.loads(path.read_text(encoding="utf-8"))["kappa"]) is float
