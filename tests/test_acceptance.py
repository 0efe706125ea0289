"""Acceptance gate: ten numbered criteria checked against the reference data.

Each test prints exactly one [PASS]/[FAIL] line. Criterion 8 is red by
design: the bundled round-2 judgments do not evaluate to the round-2
ranking recorded in the reference data under any canonical configuration,
so the test documents the nearest attainable facts and fails honestly
rather than asserting something weaker.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from panelrank import (
    DomainError,
    RoundInput,
    cli_main,
    config_grid,
    emit_trace,
    evaluate_round,
    read_trace,
)
from oracles.chain import (
    IFN,
    CredibilityVector,
    GroupAssessment,
    InfoVolumeVector,
    LikelihoodSeries,
    OwaWeights,
    Panel,
    Sharpness,
    attitude_characters,
    credibility,
    criterion_weights,
    dslf,
    eifn,
    js_distance,
    owa_weights,
    points,
    preference_matrix,
    reliability,
    sharpness,
)
from oracles.preferences import points_oracle
from strategies import panels_of, round_of_panels


def _check(capsys, num, description, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}"
    if detail and not ok:
        line += f" [{detail}]"
    with capsys.disabled():
        print(line)
    assert ok, line


def _cells(tables, key):
    """Iterate (alternative, expert index, criterion index, value)."""
    for alt, rows in tables[key].items():
        for e, row in enumerate(rows):
            for c, value in enumerate(row):
                yield alt, e, c, value


# ---------------------------------------------------------------------------


def test_criterion_1_reliability_table(round1, tables, capsys):
    start = time.perf_counter()
    computed = {
        alt: [[reliability(item) for item in g.items] for g in panel.groups]
        for alt, panel in panels_of(round1).items()
    }
    elapsed = time.perf_counter() - start
    count = 0
    worst = 0.0
    for alt, e, c, value in _cells(tables, "reliability"):
        worst = max(worst, abs(computed[alt][e][c] - value))
        count += 1
    examples_ok = reliability(IFN(0.6, 0.2)) == pytest.approx(
        0.6400, abs=1e-4
    ) and reliability(IFN(0.9, 0.1)) == pytest.approx(0.8550, abs=1e-4)
    ok = count == 75 and worst <= 1e-4 and elapsed < 1.0 and examples_ok
    _check(
        capsys,
        1,
        f"all {count} reliability values match to 1e-4 in {elapsed * 1000:.2f} ms",
        ok,
        f"worst error {worst:.2e}",
    )


def test_criterion_2_combination_table(report1, tables, capsys):
    worst = 0.0
    count = 0
    for alt, e, c, pair in _cells(tables, "combined"):
        mu, nu = report1.alternatives[alt].combined[e, c]
        worst = max(worst, abs(mu - pair[0]), abs(nu - pair[1]))
        count += 1
    spot_mu, spot_nu = report1.alternatives["Supplier_1"].combined[0, 0]
    examples_ok = spot_mu == pytest.approx(0.3840, abs=1e-4) and spot_nu == (
        pytest.approx(0.1280, abs=1e-4)
    )
    ok = count == 75 and worst <= 1e-4 and examples_ok
    _check(
        capsys,
        2,
        f"all {count} reliability-combined pairs match to 1e-4",
        ok,
        f"worst error {worst:.2e}",
    )


def test_criterion_3_distance_matrices(report1, tables, capsys):
    spot = report1.alternatives["Supplier_1"].distances[0, 0, 1:]
    spot_ok = np.allclose(spot, [0.2442, 0.1114, 0.0685, 0.0921], atol=1e-3)
    worst = 0.0
    structure_ok = True
    for alt, e, c, row in _cells(tables, "distance"):
        computed = report1.alternatives[alt].distances[e]
        worst = max(worst, float(np.max(np.abs(computed[c] - np.asarray(row)))))
    for alt_report in report1.alternatives.values():
        for v in alt_report.distances:
            structure_ok &= bool(np.array_equal(v, v.T))
            structure_ok &= bool(np.all(np.diag(v) == 0.0))
    ok = spot_ok and worst <= 1e-3 and structure_ok
    _check(
        capsys,
        3,
        "distance spot row matches to 1e-3; all matrices exactly symmetric with zero diagonal",
        ok,
        f"worst table error {worst:.2e}",
    )


def test_criterion_4_similarity(report1, tables, capsys):
    spot = report1.alternatives["Supplier_1"].similarities[0]
    spot_ok = np.allclose(
        spot, [7.7485, 3.9002, 5.4325, 7.0353, 6.7521], atol=2e-3
    )
    worst = 0.0
    for alt, e, c, value in _cells(tables, "similarity"):
        computed = report1.alternatives[alt].similarities[e][c]
        worst = max(worst, abs(computed - value))
    ok = spot_ok and worst <= 2e-3
    _check(
        capsys,
        4,
        "closeness similarities match the reference rows to 2e-3",
        ok,
        f"worst error {worst:.2e}",
    )


def test_criterion_5_points_and_weights(report1, tables, capsys):
    # tied similarity pairs make several weight rows ninths or sevenths,
    # which the four-decimal table cannot state to 1e-9, so that tolerance
    # binds against the exactly known point shares and the table is
    # checked at its own resolution
    points_ok = True
    worst_exact = 0.0
    worst_table = 0.0
    groups = 0
    for alt, rows in tables["points"].items():
        for e, row in enumerate(rows):
            points_ok &= report1.alternatives[alt].points[e].tolist() == row
            shares = np.asarray(row, dtype=float) / sum(row)
            computed = report1.alternatives[alt].weights[e]
            worst_exact = max(worst_exact, float(np.max(np.abs(computed - shares))))
            groups += 1
    for alt, e, c, value in _cells(tables, "weights"):
        computed = report1.alternatives[alt].weights[e, c]
        worst_table = max(worst_table, abs(computed - value))
    spot = report1.alternatives["Supplier_1"]
    examples_ok = spot.points[0].tolist() == [4, 0, 1, 3, 2] and np.allclose(
        spot.weights[0], [0.4, 0.0, 0.1, 0.3, 0.2], atol=1e-9
    )
    ok = (
        points_ok
        and groups == 15
        and worst_exact <= 1e-9
        and worst_table <= 5.1e-5
        and examples_ok
    )
    _check(
        capsys,
        5,
        "all 15 preference point rows exact; weights match point shares to 1e-9",
        ok,
        f"worst share error {worst_exact:.2e}, worst table error {worst_table:.2e}",
    )


def test_criterion_6_information_volume(report1, tables, capsys):
    worst_raw = 0.0
    worst_norm = 0.0
    for alt, rows in tables["info_volume"].items():
        computed = report1.alternatives[alt].info_volume
        worst_raw = max(worst_raw, float(np.max(np.abs(computed - np.asarray(rows)))))
    for alt, rows in tables["info_volume_normalized"].items():
        computed = report1.alternatives[alt].info_share
        worst_norm = max(
            worst_norm, float(np.max(np.abs(computed - np.asarray(rows))))
        )
    spot = report1.alternatives["Supplier_1"]
    examples_ok = spot.info_volume[0] == pytest.approx(8.5376, abs=1e-2) and np.allclose(
        spot.info_share, [0.2250, 0.3447, 0.4303], atol=1e-3
    )
    ok = worst_raw <= 1e-2 and worst_norm <= 1e-3 and examples_ok
    _check(
        capsys,
        6,
        "group information volumes match to 1e-2, normalized shares to 1e-3",
        ok,
        f"worst raw {worst_raw:.2e}, worst normalized {worst_norm:.2e}",
    )


def test_criterion_7_attitude_chain(tables, capsys):
    # each stage is fed the reference data's own published inputs, so the
    # check isolates the attitude arithmetic from upstream aggregation
    worst_alpha = 0.0
    worst_p = 0.0
    for alt in tables["attitude"]:
        cr_stated = np.asarray(tables["credibility"][alt], dtype=float)
        cr = CredibilityVector(cr_stated / cr_stated.sum())
        iv = InfoVolumeVector.from_normalized(tables["info_volume_normalized"][alt])
        alpha = attitude_characters(iv, cr).values
        worst_alpha = max(
            worst_alpha,
            float(np.max(np.abs(alpha - np.asarray(tables["attitude"][alt])))),
        )
        p = [sharpness(a).p for a in tables["attitude"][alt]]
        worst_p = max(
            worst_p,
            float(np.max(np.abs(np.asarray(p) - np.asarray(tables["sharpness"][alt])))),
        )
    spot_alpha = attitude_characters(
        InfoVolumeVector.from_normalized(tables["info_volume_normalized"]["Supplier_1"]),
        CredibilityVector(
            np.asarray(tables["credibility"]["Supplier_1"])
            / np.sum(tables["credibility"]["Supplier_1"])
        ),
    ).values
    examples_ok = np.allclose(
        spot_alpha, [0.2165, 0.3536, 0.4299], atol=1e-3
    ) and sharpness(0.2165).p == pytest.approx(3.6189, abs=1e-3)
    ok = worst_alpha <= 1e-3 and worst_p <= 1e-3 and examples_ok
    _check(
        capsys,
        7,
        "attitude characters and sharpness reproduce the reference chain to 1e-3",
        ok,
        f"worst attitude {worst_alpha:.2e}, worst sharpness {worst_p:.2e}",
    )


def test_criterion_8_rankings_across_config_grid(rounds, outcomes, capsys):
    recorded = {label: tuple(r) for label, r in outcomes["rankings"].items()}
    per_config = []
    for config in config_grid():
        produced = {r.round_label: evaluate_round(r, config).ranking for r in rounds}
        per_config.append((config, produced))
    matching = [
        config
        for config, produced in per_config
        if all(produced[label] == recorded[label] for label in recorded)
    ]
    reference_produced = per_config[0][1]
    reproduced = sorted(
        label for label in recorded if reference_produced[label] == recorded[label]
    )
    detail = (
        "no canonical configuration reproduces all three recorded rankings; "
        f"the reference configuration reproduces {', '.join(reproduced)}, "
        "while the recorded r2 judgments evaluate to "
        f"{' > '.join(reference_produced['r2'])} against the recorded ranking "
        f"{' > '.join(recorded['r2'])}"
    )
    _check(
        capsys,
        8,
        "one canonical configuration reproduces all three recorded rankings",
        bool(matching),
        detail,
    )


# ---------------------------------------------------------------------------
# criterion 9: bulk property families


def _battery_validation(rng):
    n = 100_000
    half = n // 2
    mu = rng.uniform(0.0, 1.0, n)
    nu = rng.uniform(0.0, 1.0, n) * (1.0 - mu)
    bad = 0
    for i in range(half):
        IFN(mu[i], nu[i])
    kinds = rng.integers(0, 4, half)
    for i in range(half):
        m, v = mu[i], nu[i]
        if kinds[i] == 0:
            m = 1.0 + 1e-6 + mu[i]
        elif kinds[i] == 1:
            v = -(1e-6 + nu[i])
        elif kinds[i] == 2:
            m, v = 0.7, 0.31 + 0.69 * mu[i]
        else:
            m = math.nan
        try:
            IFN(m, v)
            bad += 1
        except DomainError:
            pass
    return n, bad


def _battery_js(rng):
    n = 100_000
    mu1 = rng.uniform(0.0, 1.0, n)
    nu1 = rng.uniform(0.0, 1.0, n) * (1.0 - mu1)
    mu2 = rng.uniform(0.0, 1.0, n)
    nu2 = rng.uniform(0.0, 1.0, n) * (1.0 - mu2)
    bound = math.sqrt(math.log(2.0)) + 1e-12
    bad = 0
    for i in range(n):
        a = IFN(mu1[i], nu1[i])
        b = IFN(mu2[i], nu2[i])
        d = js_distance(a, b)
        if not (0.0 <= d <= bound and d == js_distance(b, a)):
            bad += 1
    for i in range(0, n, 10):
        if js_distance(IFN(mu1[i], nu1[i]), IFN(mu1[i], nu1[i])) != 0.0:
            bad += 1
    return n, bad


def _battery_eifn_grid():
    best = (-1.0, None)
    count = 0
    bad = 0
    cap = math.log2(5.0) + 1e-12
    for i in range(101):
        for j in range(101 - i):
            value = eifn(IFN(i / 100, j / 100))
            if not (0.0 <= value <= cap):
                bad += 1
            if value > best[0]:
                best = (value, (i / 100, j / 100))
            count += 1
    if best[1] != (0.2, 0.2):
        bad += 1
    return count, bad


def _battery_owa(rng):
    n = 100_000
    ks = rng.integers(1, 13, n)
    ps = 10.0 ** rng.uniform(-2.0, 2.0, n)
    bad = 0
    for i in range(n):
        w = owa_weights(int(ks[i]), Sharpness(ps[i])).w
        ok = abs(w.sum() - 1.0) <= 1e-9 and np.all(w >= 0.0)
        if ps[i] > 1.0:
            ok = ok and np.all(np.diff(w) >= -1e-15)
        elif ps[i] < 1.0:
            ok = ok and np.all(np.diff(w) <= 1e-15)
        if not ok:
            bad += 1
    return n, bad


def _battery_credibility(rng):
    n = 100_000
    divs = rng.uniform(0.0, 1.0, (n, 3))
    bad = 0
    for row in divs:
        cr = credibility(row).values
        ok = abs(cr.sum() - 1.0) <= 1e-9
        ok = ok and cr.argmin() == row.argmax() and cr.argmax() == row.argmin()
        if not ok:
            bad += 1
    return n, bad


def _battery_points(rng):
    n = 100_000
    sizes = rng.integers(2, 7, n)
    values = rng.integers(1, 1000, (n, 6)) / 1000.0
    bad = 0
    for i in range(n):
        sm = values[i, : sizes[i]]
        po = points(preference_matrix(sm))
        if po.tolist() != points_oracle(sm.tolist()):
            bad += 1
            continue
        if abs(criterion_weights(po).weights.sum() - 1.0) > 1e-9:
            bad += 1
    return n, bad


def _battery_dslf(rng):
    n = 100_000
    dps = np.round(rng.uniform(-1.0, 1.0, (n, 5)), 3)
    firsts = OwaWeights(np.array([1.0, 0.0, 0.0, 0.0, 0.0]))
    lasts = OwaWeights(np.array([0.0, 0.0, 0.0, 0.0, 1.0]))
    bad = 0
    for row in dps:
        dp = np.sort(row)[::-1]
        series = LikelihoodSeries(dp)
        if dslf(series, firsts) != dp[0]:
            bad += 1
            continue
        if abs(dslf(series, lasts) - np.prod(dp)) > 1e-12:
            bad += 1
    return n, bad


def _random_round(rng, label):
    experts = int(rng.integers(2, 4))
    criteria = int(rng.integers(2, 5))
    names = tuple(f"x{i + 1}" for i in range(criteria))

    def group():
        mu = rng.uniform(0.0, 1.0, criteria)
        nu = rng.uniform(0.0, 1.0, criteria) * (1.0 - mu)
        return GroupAssessment(tuple(IFN(m, v) for m, v in zip(mu, nu)))

    return round_of_panels(
        round_label=label,
        criteria_labels=names,
        expert_labels=tuple(f"E{i + 1}" for i in range(experts)),
        alternatives={"A": Panel(tuple(group() for _ in range(experts))),
                      "B": Panel(tuple(group() for _ in range(experts)))},
    )


def _battery_pipeline(rng, fixture_rounds):
    cases = 0
    bad = 0
    battery = list(fixture_rounds) + [_random_round(rng, f"g{i}") for i in range(60)]
    for round_input in battery:
        first = evaluate_round(round_input)
        second = evaluate_round(round_input)
        ok = first.ranking == second.ranking
        ok = ok and all(
            first.alternatives[k].gross_estimation
            == second.alternatives[k].gross_estimation
            for k in first.alternatives
        )
        permuted = RoundInput(
            round_label=round_input.round_label,
            criteria_labels=round_input.criteria_labels,
            expert_labels=tuple(reversed(round_input.expert_labels)),
            alternatives=round_input.alternatives,
            judgments=round_input.judgments[:, ::-1],
        )
        shuffled = RoundInput(
            round_label=round_input.round_label,
            criteria_labels=round_input.criteria_labels,
            expert_labels=round_input.expert_labels,
            alternatives=round_input.alternatives[::-1],
            judgments=round_input.judgments[::-1],
        )
        ok = ok and evaluate_round(permuted).ranking == first.ranking
        ok = ok and evaluate_round(shuffled).ranking == first.ranking
        ok = ok and all(
            abs(a.attitude.sum() - 1.0) <= 1e-9
            for a in first.alternatives.values()
        )
        cases += 1
        if not ok:
            bad += 1
    return cases, bad


def test_criterion_9_property_batteries(rounds, capsys):
    rng = np.random.default_rng(20260819)
    start = time.perf_counter()
    results = {
        "validation": _battery_validation(rng),
        "js": _battery_js(rng),
        "eifn-grid": _battery_eifn_grid(),
        "owa": _battery_owa(rng),
        "credibility": _battery_credibility(rng),
        "points": _battery_points(rng),
        "dslf": _battery_dslf(rng),
        "pipeline": _battery_pipeline(rng, rounds),
    }
    elapsed = time.perf_counter() - start
    total = sum(count for count, _ in results.values())
    failing = {name: bad for name, (_, bad) in results.items() if bad}
    ok = not failing and total >= 100_000 and elapsed < 60.0
    _check(
        capsys,
        9,
        f"eight property families pass on {total} cases in {elapsed:.1f} s",
        ok,
        f"failing families: {failing}" if failing else f"elapsed {elapsed:.1f} s",
    )


# ---------------------------------------------------------------------------


def test_criterion_10_cli_end_to_end(fixtures_dir, rounds, tmp_path, capsys):
    path = str(fixtures_dir / "supplier_rounds.json")
    start = time.perf_counter()
    code = cli_main(["evaluate", path])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    evaluate_ok = code == 0 and elapsed < 1.0 and "Round r3" in out

    located = []
    for name in ("invalid_ifn.json", "ragged_rows.json", "malformed.json"):
        bad_code = cli_main(["evaluate", str(fixtures_dir / "bad" / name)])
        err = capsys.readouterr().err
        located.append(
            bad_code == 1
            and err.startswith("error:")
            and ("(at " in err or "line" in err)
        )

    trace_path = tmp_path / "trace.csv"
    trace_ok = cli_main(["trace", path, "--out", str(trace_path)]) == 0
    capsys.readouterr()
    data = trace_path.read_bytes()
    reports = [evaluate_round(r) for r in rounds]
    expected_records = tuple(rec for r in reports for rec in read_trace(emit_trace([r])))
    trace_ok = (
        trace_ok and data == emit_trace(reports) and read_trace(data) == expected_records
    )

    ok = evaluate_ok and all(located) and trace_ok
    _check(
        capsys,
        10,
        f"CLI evaluates the bundled rounds in {elapsed * 1000:.0f} ms; "
        "bad inputs exit 1 with locations; trace round-trips loss-free",
        ok,
        f"evaluate {evaluate_ok}, located {located}, trace {trace_ok}",
    )
