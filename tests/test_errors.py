import pickle

import pytest

import dgn.cli  # noqa: F401  (loads every module that may define an error type)
from dgn import errors


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


# the arguments each type takes; a type not named here takes one message
_ARGS = {
    errors.ZeroVectorRow: (4,),
    errors.ParseError: ("scene.dgn", 12, "malformed number"),
}


@pytest.mark.parametrize("cls", sorted(_subclasses(errors.DgnError), key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_every_error_survives_pickle(cls):
    # a worker's error reaches the parent through pickle
    exc = cls(*_ARGS.get(cls, ("what went wrong",)))
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert vars(back) == vars(exc)
    assert back.exit_code == exc.exit_code
