"""Frozen record classes without ``dataclasses``.

``frozen`` turns a class whose body annotates its fields into an
immutable record that behaves as ``@dataclass(frozen=True)`` does:

* ``__init__`` takes the fields positionally or by keyword, in annotation
  order; a field with a class-level value defaults to it.  A missing,
  unexpected or doubly given field raises TypeError.  ``__post_init__``,
  when the class defines one, runs after every construction.  A call with
  every field once by keyword and nothing else skips the general binder:
  the values are picked in field order.
* assigning or deleting an attribute raises AttributeError;
  ``functools.cached_property`` still works, as it writes the instance
  ``__dict__`` directly.
* ``==`` compares the field values and holds only between instances of
  the same class; ``hash`` hashes the same tuple of values.
* the repr is ``Name(field=value, ...)``.

A method the class body defines itself (``BoolMatrix.__repr__``) is kept.

Why not ``dataclasses``: every CLI invocation is a fresh interpreter, so
import time is paid per call.  Importing ``dataclasses`` (and through it
``inspect``) takes about 6 ms, and decorating the fourteen record
classes compseq had then with it about 7.4 ms more (it has ten now),
because ``dataclass`` compiles each generated method with ``exec``
(``-X importtime`` and a timed decorator, Python 3.11 on a 2-core Intel
Xeon).  The methods here are plain closures, built once per class.
"""

from __future__ import annotations

from operator import attrgetter, itemgetter

_setattr = object.__setattr__


def frozen(cls):
    """Make cls an immutable record over the fields its body annotates."""
    names = tuple(cls.__dict__.get("__annotations__", {}))
    count = len(names)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)
    get = attrgetter(*names)  # a TypeError when cls annotates no field
    values = get if count > 1 else lambda self: (get(self),)
    fields = frozenset(names)
    pick = itemgetter(*names)
    keyed = pick if count > 1 else lambda kwargs: (pick(kwargs),)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != count:
            if not args and kwargs.keys() == fields:
                args = keyed(kwargs)  # every field once by keyword, in field order
            else:
                args = _bind(cls.__name__, names, defaults, args, kwargs)
        # one attribute store per field, as a plain class's __init__ makes:
        # writing through self.__dict__ would cost every later attribute read
        for name, value in zip(names, args):
            _setattr(self, name, value)
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value in zip(names, values(self)))
        return f"{cls.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        if method.__name__ not in cls.__dict__:
            setattr(cls, method.__name__, method)
    return cls


def _bind(name, names, defaults, args, kwargs):
    """The field values in order, from positional and keyword arguments
    and the class defaults, with Python's TypeErrors for a bad call."""
    if len(args) > len(names):
        raise TypeError(
            f"{name}() takes {len(names)} positional arguments but {len(args)} were given"
        )
    values = list(args)
    for key in names[len(args):]:
        if key in kwargs:
            values.append(kwargs.pop(key))
        elif key in defaults:
            values.append(defaults[key])
        else:
            raise TypeError(f"{name}() missing required argument {key!r}")
    for key in kwargs:
        if key in names:
            raise TypeError(f"{name}() got multiple values for argument {key!r}")
        raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
    return values
