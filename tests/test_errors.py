"""Every interlace error survives pickling: the suite's exact half sends its failure across a process boundary."""

import inspect
import pickle

import pytest

from interlace import errors

CLASSES = [c for _, c in inspect.getmembers(errors, inspect.isclass)
           if issubclass(c, errors.InterlaceError)]

# (args, kwargs) per class whose constructor formats its message
SPECIAL = {
    errors.ExprSyntaxError: [(("bad", 3), {})],
    errors.EvaluationSingularityError: [(("1/y", {"y": 0.0}), {}), (("1/y",), {})],
}


def _cases(cls):
    if cls in SPECIAL:
        return SPECIAL[cls]
    if issubclass(cls, errors.SolverError):
        return [(("stalled",), {}), (("stalled", 0.25), {}), (("stalled",), {"last_x": 0.25})]
    return [(("message",), {})]


def test_every_class_in_the_module_is_an_interlace_error():
    defined = [c for _, c in inspect.getmembers(errors, inspect.isclass)
               if c.__module__ == errors.__name__]
    assert defined == CLASSES and set(SPECIAL) <= set(CLASSES)


@pytest.mark.parametrize("cls, args, kwargs", [
    (cls, args, kwargs) for cls in CLASSES for args, kwargs in _cases(cls)
], ids=lambda v: v.__name__ if isinstance(v, type) else None)
def test_round_trip_keeps_type_text_and_attributes(cls, args, kwargs):
    err = cls(*args, **kwargs)
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls
    assert str(back) == str(err) and back.args == err.args
    assert vars(back) == vars(err)


def test_round_trip_keeps_attributes_set_after_construction():
    err = errors.SolverError("stalled", last_x=0.25)
    err.last_x, err.stage = 0.125, "census"
    back = pickle.loads(pickle.dumps(err))
    assert (back.last_x, back.stage, str(back)) == (0.125, "census", str(err))
