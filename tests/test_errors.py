import inspect
import pickle

import pytest

from collapse_lab import errors

# constructor arguments of each package error; every class in errors.py is listed
ARGS = {
    errors.CollapseLabError: ("base",),
    errors.InvalidConfigError: ("bad config",),
    errors.InvalidInputError: ("bad input",),
    errors.DegenerateInputError: ("singular covariance",),
    errors.DataExhaustedError: (3, 400, 12),
    errors.InvalidTraceError: ("no generation 0",),
    errors.RankError: (["ratio", "quality"],),
    errors.ShortfallError: (200, 37, "candidate clusters"),
    errors.TransportError: (),
    errors.ProtocolError: ("malformed", 2),
    errors.TaskError: ("ThreeArgError: 1-2-3",),
}


def test_every_error_class_is_listed():
    defined = {cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, BaseException) and cls.__module__ == errors.__name__}
    assert defined == set(ARGS)


@pytest.mark.parametrize("cls", list(ARGS), ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_errors_survive_pickling(cls, protocol):
    """A task's error crosses the worker pool pickled: it comes back with the
    same type, message, args and attributes."""
    error = cls(*ARGS[cls])
    back = pickle.loads(pickle.dumps(error, protocol))
    assert type(back) is cls
    assert (str(back), back.args, vars(back)) == (str(error), error.args, vars(error))
