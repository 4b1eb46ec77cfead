"""Uniform result records for identity verifiers.

Every verify_* function returns a Report; the CLI serializes them as JSON.  Keys
with None values are dropped so output stays stable and diff-friendly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any


def jsonify(x: Any) -> Any:
    """Recursively render Fractions as exact strings, tuples as lists."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, dict):
        return {str(k): jsonify(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonify(v) for v in x]
    return x


class FrozenRecord:
    """An immutable value: the fields are the subclass's `__slots__`, set once in
    its constructor through `_set`; equal and hashed by value."""

    __slots__ = ()

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        shown = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._fields()))
        return f"{type(self).__name__}({shown})"


class Report:
    """One verifier's outcome: the verifier sets `params` and `status`, and the
    fields after them may be passed by keyword."""

    __slots__ = ("identity", "statement", "params", "status", "order_checked",
                 "first_mismatch", "tolerance_info", "details")

    def __init__(self, identity: str, statement: str, params: dict, status: str,
                 order_checked: int | None = None, first_mismatch: dict | None = None,
                 tolerance_info: dict | None = None, details: dict | None = None):
        self.identity = identity
        self.statement = statement
        self.params = params
        self.status = status
        self.order_checked = order_checked
        self.first_mismatch = first_mismatch
        self.tolerance_info = tolerance_info
        self.details = details

    def __repr__(self):
        return f"Report({self.to_jsonable()!r})"

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def to_jsonable(self) -> dict:
        d: dict[str, Any] = {
            "identity": self.identity,
            "params": jsonify(self.params),
            "status": self.status,
        }
        if self.order_checked is not None:
            d["order_checked"] = self.order_checked
        d["statement"] = self.statement
        if self.first_mismatch is not None:
            d["first_mismatch"] = jsonify(self.first_mismatch)
        if self.tolerance_info is not None:
            d["tolerance_info"] = jsonify(self.tolerance_info)
        if self.details is not None:
            d["details"] = jsonify(self.details)
        return d


def pairs_report(identity: str, statement: str, params: dict, pairs: list,
                 order_checked: int | None = None, details: dict | None = None) -> Report:
    """Compare labelled pairs (label, lhs, rhs) of series, each pair of one
    type, QSeries or MultiSeries: pass with `details` when every pair is equal,
    else fail at the first unequal pair, its label dict merged into
    `lhs.first_mismatch(rhs)`.  `order_checked` defaults to the least common
    QSeries order over the pairs.  An empty list compares nothing, and raises
    a ValueError that names the identity."""
    if not pairs:
        raise ValueError(f"{identity}: no pairs to compare, so the check would "
                         "pass without comparing anything")
    if order_checked is None:
        order_checked = int(min(min(lhs.upper, rhs.upper) for _, lhs, rhs in pairs))
    for label, lhs, rhs in pairs:
        if lhs != rhs:
            return Report(identity, statement, params, "fail", order_checked,
                          first_mismatch={**label, **lhs.first_mismatch(rhs)})
    return Report(identity, statement, params, "pass", order_checked, details=details)


def series_report(identity: str, statement: str, params: dict,
                  lhs, rhs, order_checked: int | None = None) -> Report:
    """`pairs_report` of the one unlabelled pair (lhs, rhs)."""
    return pairs_report(identity, statement, params, [({}, lhs, rhs)], order_checked)
