"""Reading a report back from its dict form, the checked boundary for reports.

report_from_dict is the inverse of io.report_to_dict. Its keys and shapes
follow io.FIELDS. Its values are checked as the per-judgment, per-group and
per-expert types check them, in one pass over each array; the types are
built only to name a fault that pass found.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from .core import first_ifn_fault
from .credibility import NORM_TOL, AttitudeVector, CredibilityVector, InfoVolumeVector
from .errors import DomainError, SchemaError
from .groups import CriterionWeights, DistanceMatrix
from .io import FIELDS, _require, config_from_dict
from .pipeline import AlternativeReport, RoundReport
from .slf import LikelihoodSeries, OwaWeights, Sharpness

# written by report_to_dict, but recomputed rather than read
_DERIVED = ("info_modified", "partials")
_READ = tuple(f for group in FIELDS for f in group if f.key and f.attr not in _DERIVED)


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
    """Raise a located DomainError for a judgment that IFN or ZJudgment rejects."""
    rel = z[..., 2]
    faults = [first_ifn_fault(z[..., :2])]
    for k in np.argwhere(~((rel >= 0.0) & (rel <= 1.0)))[:1].tolist():
        faults.append((tuple(k), f"reliability must lie in [0, 1], got {rel[tuple(k)]}"))
    faults.append(first_ifn_fault(combined))
    for (k, i), reason in filter(None, faults):  # the first one
        raise DomainError(reason, location=f"{label}, {experts[k]}, {criteria[i]}")


def _groups_pass(d, w, o, p, s) -> bool:
    """Whether every group passes the checks of DistanceMatrix, CriterionWeights,
    OwaWeights, Sharpness and LikelihoodSeries; no laxer than they are."""
    with np.errstate(invalid="ignore", over="ignore"):
        sums = np.stack([w.sum(axis=1), o.sum(axis=1)])
        return bool(
            (np.diagonal(d, axis1=1, axis2=2) == 0.0).all()
            and (d == d.transpose(0, 2, 1)).all()
            and ((d >= 0.0) & (d <= 1.0)).all()
            and (np.isfinite(w) & (w >= 0.0) & np.isfinite(o) & (o >= 0.0)).all()
            and (np.abs(sums - 1.0) <= 1e-9).all()
            and (np.isfinite(p) & (p > 0.0)).all()
            and (np.abs(s) <= 1.0 + 1e-9).all()
            and (np.diff(s, axis=1) <= 0.0).all()
        )


# each per-group field, its attribute and JSON key -> the type that checks one
# expert's group of it
_GROUP_TYPES = {
    "distances": DistanceMatrix,
    "weights": CriterionWeights,
    "owa": OwaWeights,
    "sharpness": Sharpness,
    "series": LikelihoodSeries,
}


def _shares_pass(cr, raw, normalized, alpha) -> bool:
    """Whether an alternative's [E] shares pass the checks of CredibilityVector,
    InfoVolumeVector and AttitudeVector; no laxer than they are."""
    with np.errstate(invalid="ignore", over="ignore"):
        modified = np.exp(raw)
        sums = np.stack([cr, normalized, alpha]).sum(axis=1)
        return bool(
            cr.size >= 2
            and (np.isfinite(cr) & (cr >= 0.0) & (cr <= 1.0)).all()
            and (np.isfinite(modified) & (modified > 0.0) & (normalized > 0.0)).all()
            and (np.isfinite(alpha) & (alpha > 0.0) & (alpha < 1.0)).all()
            and (np.abs(sums - 1.0) <= NORM_TOL).all()
        )


def _alternative_from_dict(label: str, doc, experts, criteria, loc: str) -> AlternativeReport:
    sizes = {"e": len(experts), "m": len(criteria), "k": len(criteria)}
    values = {}
    for f in _READ:
        where = f"{loc}.{f.key.partition('.')[0].removesuffix('[]')}"
        shape = tuple(sizes.get(axis) or int(axis) for axis in f.axes)
        values[f.attr] = _array(_field_value(doc, f.key, where), shape, where, f.dtype)
    _check_judgments(label, values["z"], values["combined"], experts, criteria)
    groups = [values[k] for k in _GROUP_TYPES]
    if not _groups_pass(*groups):
        for row in zip(*groups):
            for (key, build), value in zip(_GROUP_TYPES.items(), row):
                try:
                    build(value)
                except DomainError as exc:
                    raise DomainError(exc.reason, location=f"{loc}.{key}") from None
    shares = [values[k] for k in ("credibility", "info_volume", "info_share", "attitude")]
    if not _shares_pass(*shares):
        cr, raw, normalized, alpha = shares
        for key, build, args in (
            ("credibility", CredibilityVector, (cr,)),
            ("info_volume", InfoVolumeVector, (raw, normalized)),
            ("attitude", AttitudeVector, (alpha,)),
        ):
            try:
                build(*args)
            except DomainError as exc:
                raise DomainError(exc.reason, location=f"{loc}.{key}") from None
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
    that IFN or ZJudgment rejects raises a DomainError located at its
    alternative, expert and criterion. A group's distances, weights, OWA
    weights, sharpness or series, and credibility, information volume or
    attitude shares, that their types reject raise that type's DomainError,
    located at the alternative and key. The derived info_volume.modified and
    series[].partials are recomputed, not read.
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
