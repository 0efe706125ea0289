"""Reading a report back from its dict form, the checked boundary for reports.

report_from_dict is the inverse of io.report_to_dict. Its keys and shapes
follow io.FIELDS. Its values are checked by one ordered table of checks per
field, each a pass over the round's array of that field: one expert's
distances, criterion weights, OWA weights, sharpness and support series,
then each alternative's credibility, information volume and attitude
shares. The first check that fails names the fault.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from .core import first_ifn_fault
from .credibility import NORM_TOL
from .errors import DomainError, SchemaError
from .io import FIELDS, _require, config_from_dict
from .pipeline import AlternativeReport, RoundReport

# written by report_to_dict, but recomputed rather than read
_DERIVED = ("info_modified", "partials")
_READ = tuple(f for group in FIELDS for f in group if f.key and f.attr not in _DERIVED)
# each field's JSON key, without its member: where a fault in it is located
_KEY = {f.attr: f.key.partition(".")[0].removesuffix("[]") for f in _READ}


def _array(value, shape: tuple[int, ...], loc: str, dtype=float) -> np.ndarray:
    """A read-only array of value, which must have the given shape."""
    try:
        out = np.array(value, dtype=dtype)
    except (TypeError, ValueError):
        raise SchemaError(f"expected a numeric array of shape {shape}", location=loc) from None
    if out.shape != shape:
        raise SchemaError(f"expected shape {shape}, got {out.shape}", location=loc)
    out.setflags(write=False)
    return out


def _field_value(doc, key: str, loc: str):
    """The value at a Field key of an alternative's JSON object."""
    head, _, tail = key.partition(".")
    if head.endswith("[]"):
        return [_require(entry, tail, object, loc) for entry in _require(doc, head[:-2], list, loc)]
    value = _require(doc, head, object, loc)
    return _require(value, tail, object, loc) if tail else value


def _check_judgments(label: str, z, combined, experts, criteria) -> None:
    """Raise a located DomainError for a judgment that is not an IFN, or whose
    reliability is not in [0, 1]."""
    rel = z[..., 2]
    faults = [first_ifn_fault(z[..., :2])]
    for k in np.argwhere(~((rel >= 0.0) & (rel <= 1.0)))[:1].tolist():
        faults.append((tuple(k), f"reliability must lie in [0, 1], got {rel[tuple(k)]}"))
    faults.append(first_ifn_fault(combined))
    for (k, i), reason in filter(None, faults):  # the first one
        raise DomainError(reason, location=f"{label}, {experts[k]}, {criteria[i]}")


def _rows(fault: np.ndarray) -> np.ndarray:
    # [rows] from a [rows, ...] mask: whether any entry of a row is at fault
    return fault.any(axis=tuple(range(1, fault.ndim)))


def _sum_off(a: np.ndarray) -> np.ndarray:
    # [rows]: whether a row does not sum to 1 within NORM_TOL
    return np.abs(a.sum(axis=-1) - 1.0) > NORM_TOL


# Each field's checks, in order: a test that maps the field's [rows, ...]
# array to a [rows] mask, true where a row is at fault, and the fault's
# message, formatted with that row and its sum. A row of _GROUP_CHECKS is
# one expert's group of each field, a row of _SHARE_CHECKS an alternative's
# [E] shares; the first fault of the first row that has one is raised. A
# group holds as many OWA weights and supports as criterion weights, and
# an alternative as many attitude characters as credibility shares, so
# these need no check that they are non-empty: the weights' sum, or the
# count of credibility shares, fails first.
_GROUP_CHECKS = {
    "distances": (
        (
            lambda d: _rows(np.diagonal(d, axis1=1, axis2=2) != 0.0),
            "distance matrix diagonal must be zero",
        ),
        (lambda d: _rows(d != d.transpose(0, 2, 1)), "distance matrix must be symmetric"),
        (lambda d: _rows((d < 0.0) | (d > 1.0)), "distances must lie in [0, 1]"),
    ),
    "weights": (
        (lambda w: _rows(~np.isfinite(w) | (w < 0.0)), "weights must be finite and non-negative"),
        (_sum_off, "weights must sum to 1, got {sum}"),
    ),
    "owa": (
        (
            lambda o: _rows(~np.isfinite(o) | (o < 0.0)),
            "OWA weights must be finite and non-negative",
        ),
        (_sum_off, "OWA weights must sum to 1, got {sum}"),
    ),
    "sharpness": (
        (lambda p: ~(np.isfinite(p) & (p > 0.0)), "sharpness must be a positive real, got {row}"),
    ),
    "series": (
        (lambda s: _rows(np.abs(s) > 1.0 + 1e-9), "support values must lie in [-1, 1]"),
        (lambda s: _rows(np.diff(s, axis=-1) > 0.0), "support values must be sorted descending"),
    ),
}
_SHARE_CHECKS = {
    "credibility": (
        (
            lambda c: np.full(len(c), c.shape[-1] < 2),
            "credibility needs one value per expert, two or more",
        ),
        (
            lambda c: _rows(~np.isfinite(c) | (c < 0.0) | (c > 1.0)),
            "credibility values must lie in [0, 1]",
        ),
        (_sum_off, "credibility must sum to 1, got {sum}"),
    ),
    "info_volume": (
        (lambda raw: _rows(~np.isfinite(raw)), "raw info volume must be finite"),
        (
            lambda raw: _rows(~(np.isfinite(np.exp(raw)) & (np.exp(raw) > 0.0))),
            "modified info volume must be finite and positive",
        ),
    ),
    "info_share": (
        (
            lambda n: _rows(n <= 0.0) | _sum_off(n),
            "normalized info volume must be positive and sum to 1",
        ),
    ),
    "attitude": (
        (
            lambda a: _rows(~np.isfinite(a) | (a <= 0.0) | (a >= 1.0)),
            "attitude characters must lie strictly in (0, 1)",
        ),
        (_sum_off, "attitude characters must sum to 1, got {sum}"),
    ),
}


def _check(table, values: Mapping[str, np.ndarray], loc: str) -> None:
    """Raise the DomainError of a table's first check that a row of values
    fails, rows outermost, located at loc and the field's key."""
    checks = [(attr, *check) for attr, field_checks in table.items() for check in field_checks]
    with np.errstate(invalid="ignore", over="ignore"):
        failed = np.stack([test(values[attr]) for attr, test, _ in checks], axis=-1)
        for row, index in np.argwhere(failed)[:1].tolist():
            attr, _, message = checks[index]
            value = values[attr][row]
            reason = message.format(row=value, sum=value.sum())
            raise DomainError(reason, location=f"{loc}.{_KEY[attr]}")


def _alternative_from_dict(label: str, doc, experts, criteria, loc: str) -> AlternativeReport:
    sizes = {"e": len(experts), "m": len(criteria), "k": len(criteria)}
    values = {}
    for f in _READ:
        where = f"{loc}.{_KEY[f.attr]}"
        shape = tuple(sizes[axis] if axis in sizes else int(axis) for axis in f.axes)
        values[f.attr] = _array(_field_value(doc, f.key, where), shape, where, f.dtype)
    _check_judgments(label, values["z"], values["combined"], experts, criteria)
    _check(_GROUP_CHECKS, values, loc)
    _check(_SHARE_CHECKS, {attr: values[attr][None] for attr in _SHARE_CHECKS}, loc)
    return AlternativeReport(
        label=label,
        gross_estimation=float(values.pop("gross_estimation")),
        degeneracies=tuple(_require(doc, "degeneracies", list, f"{loc}.degeneracies")),
        **values,
    )


def report_from_dict(doc: Mapping) -> RoundReport:
    """Rebuild a RoundReport from its dict form (inverse of report_to_dict).

    A missing key, or an array whose shape does not fit the round's labels,
    raises a SchemaError that names the alternative and field. A judgment
    that is not an IFN, or whose reliability is not in [0, 1], raises a
    DomainError located at its alternative, expert and criterion. A group's
    distances, weights, OWA weights, sharpness or series, and credibility,
    information volume or attitude shares, that fail their checks raise a
    DomainError located at the alternative and key: the first fault of the
    first expert's group that has one, else of the shares. The derived
    info_volume.modified and series[].partials are recomputed, not read.
    """
    kinds = {"round_label": str, "criteria_labels": list, "expert_labels": list, "config": dict}
    kinds.update(alternatives=dict, ranking=list, ties=list, degeneracies=list)
    top = {key: _require(doc, key, kind, "top level") for key, kind in kinds.items()}
    criteria, experts = tuple(top["criteria_labels"]), tuple(top["expert_labels"])
    return RoundReport(
        round_label=top["round_label"],
        criteria_labels=criteria,
        expert_labels=experts,
        config=config_from_dict(top["config"]),
        alternatives={
            label: _alternative_from_dict(label, alt, experts, criteria, f"alternatives.{label}")
            for label, alt in top["alternatives"].items()
        },
        ranking=tuple(top["ranking"]),
        ties=tuple(top["ties"]),
        degeneracies=tuple(top["degeneracies"]),
    )
