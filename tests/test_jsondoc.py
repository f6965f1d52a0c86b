"""The config codec: a dataclass's JSON form is its fields in declaration
order, it reads back to an equal config, and a mistyped or missing field is a
ValueError that names the document and the field."""
import json
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from ospace.core import RoomSpec
from ospace.dataset import NormStats
from ospace.encoder import EncoderConfig
from ospace.jsondoc import from_obj, get_int_arrays, to_obj
from ospace.network import HeadConfig
from ospace.postprocess import AssignParams

FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=5e-324, allow_infinity=False)
NON_NEGATIVE = st.floats(min_value=0.0, allow_infinity=False)
SIZE = st.integers(1, 2**70)
WIDTHS = st.lists(st.integers(1, 2**40), max_size=4).map(tuple)

CONFIGS = st.one_of(
    st.builds(RoomSpec, rows=SIZE, cols=SIZE, cell_m=POSITIVE),
    st.builds(NormStats, FINITE, FINITE, POSITIVE, POSITIVE),
    st.builds(EncoderConfig, input_dim=SIZE, max_people=SIZE,
              layer_widths=WIDTHS.filter(bool)),
    st.builds(HeadConfig, input_dim=SIZE, hidden_widths=WIDTHS, output_dim=SIZE),
    st.builds(AssignParams, nms_threshold=st.floats(0.0, 1.0),
              min_group_separation_m=NON_NEGATIVE,
              max_assign_dist_m=NON_NEGATIVE, stride_m=NON_NEGATIVE),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(CONFIGS)
def test_json_round_trip(config):
    text = json.dumps(to_obj(config))
    back = from_obj(type(config), json.loads(text), "cfg", "doc")
    assert back == config
    assert json.dumps(to_obj(back)) == text
    assert list(json.loads(text)) == [f.name for f in fields(config)]


DEFAULTS = [RoomSpec(), NormStats(0.0, 0.0, 1.0, 1.0), EncoderConfig(),
            HeadConfig(), AssignParams()]
# A value of the wrong JSON type for each annotation, and the error it gives.
WRONG = {
    "int": [(True, "expected integer, got boolean"),
            (2.0, "expected integer, got number")],
    "float": [(True, "expected number or integer, got boolean"),
              ("0.5", "expected number or integer, got string")],
    "tuple[int, ...]": [(True, "expected array, got boolean"),
                        ([2.0], "expected an array of integers"),
                        ([True], "expected an array of integers")],
}
CASES = [(config, f.name, value, message)
         for config in DEFAULTS for f in fields(config)
         for value, message in WRONG[f.type] + [(None, "missing")]]


@pytest.mark.parametrize(
    "config,key,value,message", CASES,
    ids=[f"{type(c).__name__}.{k}={v!r}" for c, k, v, _ in CASES])
def test_wrong_or_missing_field_names_it(config, key, value, message):
    obj = json.loads(json.dumps(to_obj(config)))
    if value is None:
        del obj[key]
    else:
        obj[key] = value
    with pytest.raises(ValueError) as e:
        from_obj(type(config), obj, "cfg", "doc")
    assert str(e.value) == f"doc cfg.{key}: {message}"


def test_config_errors_name_the_document():
    with pytest.raises(ValueError) as e:
        from_obj(RoomSpec, {"rows": 0, "cols": 12, "cell_m": 0.5}, "spec", "doc")
    assert str(e.value) == "doc spec: grid must be at least 1x1, got 0x12"
    with pytest.raises(ValueError) as e:
        from_obj(AssignParams, [0.5, 1.0, 0.8, 0.7], "", "doc")
    assert str(e.value) == "doc: expected a JSON object, got array"


def test_int_arrays_name_the_element():
    assert get_int_arrays({"g": [[0, 1], []]}, "", "g", "doc") == ((0, 1), ())
    for value, message in [(5, "r.g: expected array, got integer"),
                           ([[0], 1], "r.g.1: expected array, got integer"),
                           ([[0], [True]], "r.g.1: expected an array of integers")]:
        with pytest.raises(ValueError) as e:
            get_int_arrays({"g": value}, "r", "g", "doc")
        assert str(e.value) == f"doc {message}"
