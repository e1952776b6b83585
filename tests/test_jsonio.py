"""The one number policy of every JSON reader, ``number`` and ``number_array``,
and the one loop every line file is read by, ``line_records``."""

import json
import math
import warnings

import numpy as np
import pytest

from handwave import (
    AnchorConfig,
    DataError,
    HandwaveError,
    LayerSpec,
    ParseError,
    StreamOrderError,
    ValidationError,
    load_features,
    read_frames,
    read_labelled,
)
from handwave._jsonio import number, number_array
from handwave.detect import read_confidence_maps, read_predictions

HUGE = 10**400  # an integer beyond the float range


@pytest.mark.parametrize("value, integer, message", [
    (True, False, "x: expected a number, got True"),
    (False, True, "x: expected an integer, got False"),
    ("0.5", False, "x: expected a number, got '0.5'"),
    ("2", True, "x: expected an integer, got '2'"),
    (None, False, "x: expected a number, got None"),
    ([1], False, "x: expected a number, got [1]"),
    (math.nan, False, "x: must be finite, got nan"),
    (math.inf, False, "x: must be finite, got inf"),
    (-math.inf, False, "x: must be finite, got -inf"),
    (HUGE, False, f"x: must be finite, got {HUGE!r}"),
    (-HUGE, True, f"x: must be finite, got {-HUGE!r}"),
    (2.0, True, "x: expected an integer, got 2.0"),
    (2.9, True, "x: expected an integer, got 2.9"),
    (math.inf, True, "x: expected an integer, got inf"),
])
def test_number_refuses(value, integer, message):
    with pytest.raises(DataError) as info:
        number(value, "x", DataError, integer)
    assert str(info.value) == message


@pytest.mark.parametrize("value, integer, want", [
    (0.5, False, 0.5),
    (2, False, 2.0),
    (-0.0, False, -0.0),
    (10**300, False, 1e300),
    (2**53 + 1, False, float(2**53 + 1)),
    (2, True, 2),
    (-7, True, -7),
    (10**300, True, 10**300),
])
def test_number_takes(value, integer, want):
    got = number(value, "x", DataError, integer)
    assert type(got) is type(want)
    assert repr(got) == repr(want)


@pytest.mark.parametrize("value, ndim, message", [
    ([True, 0.5], 1, "x[0]: expected a number, got True"),
    ([0.5, "0.5"], 1, "x[1]: expected a number, got '0.5'"),
    ([1, None], 1, "x[1]: expected a number, got None"),
    ([1, math.nan, "a"], 1, "x[1]: must be finite, got nan"),
    ([math.inf], 1, "x[0]: must be finite, got inf"),
    ([1, HUGE], 1, f"x[1]: must be finite, got {HUGE!r}"),
    ([HUGE, -HUGE], 1, f"x[0]: must be finite, got {HUGE!r}"),
    ([1e308, -math.inf, math.inf], 1, "x[1]: must be finite, got -inf"),
    ([[]], 1, "x[0]: expected a number, got []"),
    ("0.5", 1, "x: expected a list, got str"),
    (None, 1, "x: expected a list, got NoneType"),
    ([1.0, 2.0], 2, "x[0]: expected a list, got float"),
    ([[1, 2], [3]], 2, "x[1]: expected length 2, got 1"),
    ([[1], [2, 3], [4]], 2, "x[1]: expected length 1, got 2"),
    ([[1, 2], [3, True]], 2, "x[1][1]: expected a number, got True"),
    ([[1, 2], ["3", 4], [5]], 2, "x[1][0]: expected a number, got '3'"),
])
def test_number_array_names_the_first_bad_element(value, ndim, message):
    with pytest.raises(DataError) as info:
        number_array(value, "x", DataError, ndim)
    assert str(info.value) == message


@pytest.mark.parametrize("value, ndim, shape", [
    ([], 1, (0,)),
    ([], 2, (0, 0)),
    ([[]], 2, (1, 0)),
    ([[], []], 2, (2, 0)),
    ([1, 2.5], 1, (2,)),
    ([[1, 2.5], [-0.0, 4]], 2, (2, 2)),
])
def test_number_array_shapes(value, ndim, shape):
    arr = number_array(value, "x", DataError, ndim)
    assert arr.dtype == np.float64
    assert arr.shape == shape


@pytest.mark.parametrize("values", [
    [2**53 + 1, -(2**63) - 1, 2**64 + 3, 10**300, -0.0, 1e-320, 0.1, 7],
    [1e308, 1e308, 1.5e308],  # finite values whose sum is not
    [10**308] * 3,
], ids=["mixed", "float-sum-overflows", "int-sum-overflows"])
def test_number_array_converts_as_float_does(values):
    arr = number_array(values, "x", DataError)
    assert arr.tobytes() == np.array([float(v) for v in values]).tobytes()
    rows = number_array([values, values[::-1]], "x", DataError, ndim=2)
    want = np.array([[float(v) for v in row] for row in (values, values[::-1])])
    assert rows.tobytes() == want.tobytes()


PREDS_CFG = AnchorConfig(layers=(LayerSpec(1, 1, (0.5,), (1.0,)),)).to_obj()
MAPS = [[0, 0, 0, 1]] * 21

# Each line reader with a valid line and a line whose value is at fault, the
# class that fault raises, and the class a line that is not JSON raises.
LINE_READERS = {
    "read_frames": (read_frames, {"t": 0, "hands": []}, {"t": 1, "hands": {}},
                    ValidationError, ParseError),
    "read_labelled": (read_labelled, {"t": 5, "hands": [], "label": "One"},
                      {"t": 5, "hands": [], "label": "One"}, StreamOrderError, ParseError),
    "load_features": (load_features, {"subject": "a", "features": [1, 2]},
                      {"subject": "a"}, DataError, DataError),
    "read_predictions": (read_predictions, {"anchors_cfg": PREDS_CFG, "preds": [[0] * 5]},
                         {"anchors_cfg": PREDS_CFG, "preds": [[0] * 5] * 2},
                         ValidationError, ParseError),
    "read_confidence_maps": (read_confidence_maps, {"h": 2, "w": 2, "maps": MAPS},
                             {"h": 2, "w": 2, "maps": MAPS[1:]}, ValidationError, ParseError),
}


@pytest.mark.parametrize("from_path", [False, True], ids=["lines", "path"])
@pytest.mark.parametrize("fault", ["json", "value"])
@pytest.mark.parametrize("reader", sorted(LINE_READERS))
def test_line_fault_names_its_line_and_keeps_its_class(tmp_path, reader, fault, from_path):
    read, good, bad, value_error, json_error = LINE_READERS[reader]
    lines = ["  \n", json.dumps(good) + "\n",
             json.dumps(bad) + "\n" if fault == "value" else '{"t": \n']
    source = lines
    if from_path:
        source = tmp_path / "lines.jsonl"
        source.write_text("".join(lines))
    with pytest.raises(HandwaveError) as info:
        list(read(source))
    assert type(info.value) is (value_error if fault == "value" else json_error)
    assert str(info.value).startswith("line 3: "), str(info.value)


@pytest.mark.parametrize("reader", ["read_frames", "read_labelled", "read_predictions",
                                    "read_confidence_maps"])
def test_dropped_reader_closes_its_file(tmp_path, reader):
    read, good = LINE_READERS[reader][:2]
    path = tmp_path / "lines.jsonl"
    path.write_text((json.dumps(good) + "\n") * 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        records = read(path)
        next(records)
        del records
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
