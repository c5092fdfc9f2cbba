"""The paper's claims as one executable table.

The paper's results are qualitative ("increase the achieved instruction
level parallelism", "fast and efficient", "settles into a configuration
state that matches the code"), so this reproduction is judged by the
*shape* of each result.  Every shape is stated once, here: a
:class:`Claim` names the experiment whose flat metric dict it reads (the
dict :func:`repro.evaluation.harness.generate_report` records per
experiment), the quantity it measures and the band that quantity must
fall in.

``repro report`` checks every claim against the report's own metrics,
appends the results as a "Claims" table and exits 1 when any claim
fails.  The summary of EXPERIMENTS.md is that table, verbatim.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass

__all__ = ["Claim", "ClaimResult", "CLAIMS", "check_claims", "render_claims"]

Metrics = Mapping[str, float]

_OPS: dict[str, Callable[[float, float], bool]] = {
    "≥": operator.ge, ">": operator.gt, "≤": operator.le, "<": operator.lt,
    "=": operator.eq,
}


@dataclass(frozen=True)
class Claim:
    """One banded shape claim over one experiment's metric dict."""

    id: str
    #: the experiment whose metric dict the claim reads (E-IPC, T1, ...).
    experiment: str
    #: where the paper makes (or motivates) the claim.
    section: str
    #: the band, written out: the measured quantity, a comparison, a bound.
    band: str
    #: the value shown next to the band.
    measure: Callable[[Metrics], float]
    #: True when the claim holds for the metric dict.
    predicate: Callable[[Metrics], bool]


@dataclass(frozen=True)
class ClaimResult:
    claim: Claim
    #: the measured value, or None when the metrics lack it.
    value: float | None
    passed: bool


def _claim(id, section, quantity, measure, op, bound) -> Claim:
    compare = _OPS[op]
    return Claim(
        id=id,
        experiment=id.split(".")[0],
        section=section,
        band=f"{quantity} {op} {bound:g}",
        measure=measure,
        predicate=lambda m: compare(measure(m), bound),
    )


def _by(m: Metrics, prefix: str, suffix: str = "") -> dict[str, float]:
    """``{middle: value}`` for every key ``prefix + middle + suffix``."""
    return {
        k[len(prefix) : len(k) - len(suffix)]: v
        for k, v in m.items()
        if k.startswith(prefix) and k.endswith(suffix)
    }


def _ratios(m: Metrics, a: str, b: str, skip: tuple[str, ...] = ()) -> list[float]:
    """Per-row ratios of column ``a`` to column ``b`` (keys ``col/row``)."""
    return [v / m[f"{b}/{row}"] for row, v in _by(m, f"{a}/").items() if row not in skip]


def _ends(m: Metrics, prefix: str) -> tuple[float, float]:
    """Values at the smallest and the largest swept point."""
    points = {int(k): v for k, v in _by(m, prefix).items()}
    return points[min(points)], points[max(points)]


def _best_static_ratio(m: Metrics) -> float:
    return min(
        v / max(_by(m, "static-", f"/{w}").values())
        for w, v in _by(m, "steering/").items()
    )


def _deeper_ratio(m: Metrics) -> float:
    ipcs = {int(k): v for k, v in _by(m, "ipc_depth").items()}
    return min(v / ipcs[min(ipcs)] for d, v in ipcs.items() if d >= 7)


def _stall_removed(m: Metrics) -> float:
    def structural(w: str, who: str) -> float:
        return m[f"blocked ({who})/{w}"] + m[f"contention ({who})/{w}"]

    return min(
        1 - structural(w, "steer") / structural(w, "ffu")
        for w in _by(m, "blocked (ffu)/")
    )


def _correlation(m: Metrics) -> float:
    """Pearson correlation of basis similarity and IPC."""
    pairs = [(s, m[f"IPC/{basis}"]) for basis, s in _by(m, "similarity/").items()]
    ms = sum(s for s, _ in pairs) / len(pairs)
    mi = sum(i for _, i in pairs) / len(pairs)
    cov = sum((s - ms) * (i - mi) for s, i in pairs)
    vs = sum((s - ms) ** 2 for s, _ in pairs) ** 0.5
    vi = sum((i - mi) ** 2 for _, i in pairs) ** 0.5
    return cov / (vs * vi) if vs and vi else 0.0


CLAIMS: tuple[Claim, ...] = (
    _claim("T1.slot-budget", "Table 1", "max over configurations |slots used − 8|",
           lambda m: max(abs(v - 8) for v in _by(m, "slots/").values()), "=", 0),
    _claim("F3.term-error", "Fig. 3", "max per-term |shift − exact| error",
           lambda m: m["max_term_error"], "≤", 1.0),
    _claim("F3.selection-agreement", "Fig. 3",
           "share of random queues where shift and exact pick the same winner",
           lambda m: m["selection_agreement"], ">", 0.75),
    _claim("F7.eq1", "Fig. 7 / Eq. 1", "circuit outputs differing from Eq. 1",
           lambda m: m["mismatches"] if m["cases"] else float("inf"), "=", 0),
    # E-IPC: steering raises ILP over the fixed processor, tracks the best
    # static configuration, and the oracle does not lose to it
    _claim("E-IPC.no-loss-vs-ffu", "§1", "min steering / ffu-only IPC",
           lambda m: min(_ratios(m, "steering", "ffu-only")), "≥", 0.99),
    _claim("E-IPC.beats-ffu", "§1",
           "min steering / ffu-only IPC, newton_sqrt (no ILP) excluded",
           lambda m: min(_ratios(m, "steering", "ffu-only", ("newton_sqrt",))),
           ">", 1.0),
    _claim("E-IPC.tracks-best-static", "§1", "min steering / best static-config IPC",
           _best_static_ratio, "≥", 0.85),
    _claim("E-IPC.mismatched-static-at-floor", "§1",
           "memcpy |static-integer / ffu-only IPC − 1|",
           lambda m: abs(m["static-integer/memcpy"] / m["ffu-only/memcpy"] - 1),
           "≤", 0.05),
    _claim("E-IPC.oracle-vs-steering", "§1", "mean IPC oracle − steering",
           lambda m: m["mean_ipc_oracle"] - m["mean_ipc_steering"], "≥", -0.05),
    _claim("E-IPC.oracle-vs-random", "§1", "mean IPC oracle − random",
           lambda m: m["mean_ipc_oracle"] - m["mean_ipc_random"], "≥", -0.02),
    _claim("E-IPC.steering-vs-random", "§1", "mean IPC steering − random",
           lambda m: m["mean_ipc_steering"] - m["mean_ipc_random"], "≥", -0.02),
    # E-RL: graceful degradation toward a latency-independent FFU floor
    _claim("E-RL.fast-beats-slow", "§3.2",
           "steering IPC at the lowest / at the highest latency",
           lambda m: _ends(m, "steering_ipc_lat")[0] / _ends(m, "steering_ipc_lat")[1],
           ">", 1.0),
    _claim("E-RL.near-floor-when-slow", "§3.2",
           "steering / ffu-only IPC at the highest latency",
           lambda m: _ends(m, "steering_ipc_lat")[1] / _ends(m, "ffu_ipc_lat")[1],
           "≥", 0.9),
    _claim("E-RL.floor-constant", "§3.2", "ffu-only IPC max − min over latencies",
           lambda m: max(_by(m, "ffu_ipc_lat").values())
           - min(_by(m, "ffu_ipc_lat").values()), "=", 0),
    # E-PH: steering reacts to phases, then settles on "keep current"
    _claim("E-PH.loads", "§3.1", "partial reconfigurations started",
           lambda m: m["loads"], "≥", 1),
    _claim("E-PH.settles", "§3.1",
           "first cycle of 50 straight 'keep current' selections",
           lambda m: m["first_settle"], "≥", 0),
    _claim("E-PH.kept-current", "§3.1", "share of cycles keeping the current config",
           lambda m: m["kept_fraction"], ">", 0.3),
    _claim("E-Q.paper-depth", "§3.1", "steering IPC at the paper's 7 entries",
           lambda m: m["ipc_depth7"], ">", 0.3),
    _claim("E-Q.deeper-no-worse", "§3.1",
           "min IPC at depth ≥ 7 / IPC at the shallowest depth",
           _deeper_ratio, "≥", 0.95),
    _claim("E-CEM.approximation-free", "§3.1",
           "max |shift-approx / exact-division IPC − 1|",
           lambda m: max(abs(r - 1) for r in _ratios(m, "approx", "exact")), "≤", 0.2),
    _claim("E-FRONT.trace-cache", "Fig. 1", "loop IPC with / without the trace cache",
           lambda m: m["loopy IPC/baseline (tc=64, bp=256)"]
           / m["loopy IPC/no trace cache"], "≥", 0.999),
    _claim("E-FRONT.predictor", "Fig. 1",
           "branch accuracy 256-entry − 4-entry predictor",
           lambda m: m["branch accuracy/baseline (tc=64, bp=256)"]
           - m["branch accuracy/tiny predictor (4)"], "≥", -0.02),
    _claim("E-FRONT.width-4", "Fig. 1", "loop IPC at width 4 / width 1",
           lambda m: m["ipc_width4"] / m["ipc_width1"], "≥", 1.0),
    _claim("E-FRONT.width-saturates", "Fig. 1", "loop IPC at width 8 / width 4",
           lambda m: m["ipc_width8"] / m["ipc_width4"], "≥", 0.95),
    # E-ORTH: a diverse basis beats a self-similar one
    _claim("E-ORTH.degenerate-similar", "§5", "cosine similarity, degenerate basis",
           lambda m: m["similarity/degenerate"], ">", 0.999),
    _claim("E-ORTH.paper-beats-degenerate", "§5", "IPC paper − degenerate basis",
           lambda m: m["IPC/paper"] - m["IPC/degenerate"], "≥", -0.01),
    _claim("E-ORTH.paper-tops-field", "§5", "IPC paper − best random basis",
           lambda m: m["IPC/paper"] - max(_by(m, "IPC/random-").values()), "≥", 0),
    _claim("E-ORTH.similarity-no-help", "§5", "correlation of similarity and IPC",
           _correlation, "≤", 0.25),
    # E-COST: "fast and efficient"
    _claim("E-COST.gates", "§3", "2-input gates, 7-entry queue",
           lambda m: m["gates_q7"], "<", 10_000),
    _claim("E-COST.depth", "§3", "logic depth, 7-entry queue",
           lambda m: m["depth_q7"], "<", 120),
    _claim("E-COST.scaling", "§3", "gates at 16 / at 4 entries",
           lambda m: m["gates_q16"] / m["gates_q4"], "<", 16),
    # E-DEMAND, E-BASIS: the §5 open problems
    _claim("E-DEMAND.vs-steering", "§5", "min demand / paper-steering IPC",
           lambda m: min(_ratios(m, "demand", "steering")), "≥", 0.9),
    _claim("E-DEMAND.above-floor", "§5", "min demand / ffu-only IPC",
           lambda m: min(_ratios(m, "demand", "ffu-only")), "≥", 0.98),
    _claim("E-DEMAND.calm-bus", "§5", "max demand-steering reconfigurations",
           lambda m: max(_by(m, "reconfigs demand/").values()), "≤", 40),
    _claim("E-DEMAND.mean", "§5", "mean demand / mean paper-steering IPC",
           lambda m: sum(_by(m, "demand/").values())
           / sum(_by(m, "steering/").values()), "≥", 0.95),
    _claim("E-BASIS.designed-cost", "§5", "profile cost designed − paper basis",
           lambda m: m["profile cost/designed"] - m["profile cost/paper"], "≤", 1e-9),
    _claim("E-BASIS.usable", "§5", "held-out IPC of the designed basis",
           lambda m: m["held-out IPC/designed"], ">", 0.3),
    _claim("E-BASIS.end-to-end", "§5", "held-out |designed / paper IPC − 1|",
           lambda m: abs(m["held-out IPC/designed"] / m["held-out IPC/paper"] - 1),
           "≤", 0.02),
    _claim("E-FLOW.fewer-frames", "ref [8]",
           "max bus cycles difference − module flow",
           lambda m: max(v - m[f"module bus cycles/{lat}"]
                         for lat, v in _by(m, "difference bus cycles/").items()),
           "≤", 0),
    _claim("E-FLOW.no-ipc-loss", "ref [8]", "min difference / module flow IPC",
           lambda m: min(_ratios(m, "difference IPC", "module IPC")), "≥", 0.97),
    _claim("E-STALL.structural", "§1",
           "min share of structural waiting steering removes",
           _stall_removed, "≥", 0.6),
    _claim("E-SPEC.cost", "ref [9]", "min select-free / atomic IPC",
           lambda m: min(_ratios(m, "select-free IPC", "atomic IPC")), "≥", 0.88),
    _claim("E-SPEC.replays-track-contention", "ref [9]",
           "replays fir_filter − checksum",
           lambda m: m["replays/fir_filter"] - m["replays/checksum"], ">", 0),
)


def check_claims(
    metrics: Mapping[str, Metrics], claims: Iterable[Claim] | None = None
) -> list[ClaimResult]:
    """Check ``claims`` (default: :data:`CLAIMS`) against ``{experiment:
    metric dict}``.  A claim whose metrics are missing fails with no
    measured value.
    """
    results = []
    for claim in CLAIMS if claims is None else claims:
        m = metrics.get(claim.experiment, {})
        try:
            value = float(claim.measure(m))
        except (KeyError, ValueError, ZeroDivisionError):
            results.append(ClaimResult(claim, None, False))
            continue
        results.append(ClaimResult(claim, value, bool(claim.predicate(m))))
    return results


def render_claims(results: Iterable[ClaimResult]) -> str:
    """The results as a markdown table (the EXPERIMENTS.md summary)."""
    lines = ["| claim | paper | band | measured | result |", "|---|---|---|---|---|"]
    for r in results:
        value = "—" if r.value is None else f"{r.value:.4g}"
        band = r.claim.band.replace("|", "\\|")
        lines.append(
            f"| {r.claim.id} | {r.claim.section} | {band} | {value} "
            f"| {'pass' if r.passed else 'FAIL'} |"
        )
    return "\n".join(lines)
