"""The dashboard: one self-contained HTML page served at ``/``.

No build step, no external assets — the page talks to the JSON API with
``fetch`` and renders four views: the run list, a per-experiment metric
trend (inline SVG line chart with a crosshair tooltip), a
metric-by-metric diff of two selected runs (diverging delta bars), and a
per-run telemetry panel plotting the downsampled per-cycle series
(windowed IPC, slot occupancy, CEM error) from
``/api/runs/<id>/timeseries`` with the same SVG/crosshair machinery,
plus a per-run decisions panel tabulating the steering decision ledger
from ``/api/runs/<id>/decisions`` (inputs, chosen configuration, and
predicted vs. realized IPC).  All API-sourced strings enter the DOM via
``textContent``.
"""

from __future__ import annotations

__all__ = ["DASHBOARD_HTML"]

DASHBOARD_HTML = """<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>repro — experiment runs</title>
<style>
.viz-root {
  color-scheme: light;
  --surface-1: #fcfcfb;
  --page: #f9f9f7;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --text-muted: #898781;
  --grid: #e1e0d9;
  --baseline: #c3c2b7;
  --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6;   /* trend line + positive delta */
  --series-2: #d98227;   /* second telemetry series (occupancy) */
  --diverge-neg: #e34948; /* negative delta pole + CEM error series */
}
@media (prefers-color-scheme: dark) {
  .viz-root {
    color-scheme: dark;
    --surface-1: #1a1a19;
    --page: #0d0d0d;
    --text-primary: #ffffff;
    --text-secondary: #c3c2b7;
    --text-muted: #898781;
    --grid: #2c2c2a;
    --baseline: #383835;
    --border: rgba(255,255,255,0.10);
    --series-1: #3987e5;
    --series-2: #e09a48;
    --diverge-neg: #e66767;
  }
}
* { box-sizing: border-box; }
body.viz-root {
  margin: 0; padding: 24px;
  background: var(--page); color: var(--text-primary);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}
h1 { font-size: 20px; font-weight: 600; margin: 0 0 4px; }
h2 { font-size: 15px; font-weight: 600; margin: 0 0 10px; }
.sub { color: var(--text-secondary); margin: 0 0 20px; }
.card {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 10px; padding: 16px 18px; margin-bottom: 16px;
}
.tiles { display: flex; gap: 16px; flex-wrap: wrap; margin-bottom: 16px; }
.tile { flex: 0 1 180px; }
.tile .label { color: var(--text-secondary); font-size: 13px; }
.tile .value { font-size: 30px; font-weight: 600; }
.filters { display: flex; gap: 12px; align-items: center; margin-bottom: 16px; }
.filters label { color: var(--text-secondary); }
select {
  font: inherit; color: var(--text-primary);
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 6px; padding: 4px 8px;
}
table { border-collapse: collapse; width: 100%; }
th, td { text-align: left; padding: 6px 10px; border-bottom: 1px solid var(--grid); }
th { color: var(--text-secondary); font-weight: 500; font-size: 13px; }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
td.mono { font-family: ui-monospace, monospace; font-size: 12.5px; color: var(--text-secondary); }
tr:hover td { background: color-mix(in srgb, var(--grid) 35%, transparent); }
.hint { color: var(--text-muted); }
svg text { fill: var(--text-muted); font: 11px system-ui, sans-serif; }
#chart-wrap { position: relative; }
#tooltip {
  position: absolute; display: none; pointer-events: none;
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 6px; padding: 6px 10px; font-size: 12.5px;
  box-shadow: 0 2px 8px rgba(0,0,0,0.12);
}
#tooltip .val { font-weight: 600; font-size: 14px; color: var(--text-primary); }
#tooltip .when { color: var(--text-secondary); }
.bar-wrap { position: relative; width: 140px; height: 14px; }
.bar-axis { position: absolute; left: 50%; top: 0; bottom: 0; width: 1px; background: var(--baseline); }
.bar {
  position: absolute; top: 1px; height: 12px;
}
.bar.pos { left: 50%; background: var(--series-1); border-radius: 0 4px 4px 0; }
.bar.neg { right: 50%; background: var(--diverge-neg); border-radius: 4px 0 0 4px; }
.delta-pos { color: var(--text-primary); }
.delta-neg { color: var(--text-primary); }
.error { color: var(--diverge-neg); }
button.series-btn {
  font: inherit; font-size: 12.5px; color: var(--text-primary);
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 6px; padding: 2px 8px; cursor: pointer;
}
button.series-btn:hover { border-color: var(--series-1); }
.series-chart { position: relative; margin-bottom: 8px; }
.series-chart .series-label {
  color: var(--text-secondary); font-size: 13px; margin: 8px 0 2px;
}
.series-tip {
  position: absolute; display: none; pointer-events: none;
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 6px; padding: 4px 8px; font-size: 12px;
  box-shadow: 0 2px 8px rgba(0,0,0,0.12);
}
</style>
</head>
<body class="viz-root">
<h1>repro — experiment runs</h1>
<p class="sub">Configuration-steering reproduction: persisted simulation &amp; experiment results.</p>

<div class="tiles">
  <div class="card tile"><div class="label">Runs</div><div class="value" id="tile-runs">–</div></div>
  <div class="card tile"><div class="label">Experiments</div><div class="value" id="tile-exps">–</div></div>
  <div class="card tile"><div class="label">Cached artifacts</div><div class="value" id="tile-blobs">–</div></div>
</div>

<div class="filters">
  <label for="exp-select">Experiment</label>
  <select id="exp-select"></select>
  <label for="metric-select">Metric</label>
  <select id="metric-select"></select>
</div>

<div class="card">
  <h2 id="trend-title">Trend</h2>
  <div id="chart-wrap">
    <svg id="trend" width="680" height="240" role="img"></svg>
    <div id="tooltip"></div>
  </div>
  <p class="hint" id="trend-hint"></p>
</div>

<div class="card">
  <h2>Runs <span class="hint" style="font-weight:400">(check two to diff)</span></h2>
  <table id="runs-table">
    <thead><tr>
      <th></th><th>run</th><th>experiment</th><th>label</th><th>rev</th>
      <th>when</th><th class="num">ipc</th><th class="num">cycles</th><th></th>
    </tr></thead>
    <tbody></tbody>
  </table>
</div>

<div class="card" id="diff-card">
  <h2>Diff</h2>
  <div id="diff-body"><p class="hint">Select two runs above to compare them metric by metric.</p></div>
</div>

<div class="card" id="series-card">
  <h2 id="series-title">Run telemetry</h2>
  <div id="series-body"><p class="hint">Press “series” on a run to plot its per-cycle probes (telemetry-enabled runs only).</p></div>
</div>

<div class="card" id="decisions-card">
  <h2 id="decisions-title">Steering decisions</h2>
  <div id="decisions-body"><p class="hint">Press “decisions” on a run to list its steering decision ledger (ledger-enabled runs only).</p></div>
</div>

<script>
"use strict";
const $ = (id) => document.getElementById(id);
const state = { runs: [], experiment: "", metric: "ipc", picked: [] };

async function fetchJSON(url, options) {
  const resp = await fetch(url, options);
  if (!resp.ok) throw new Error(url + " -> HTTP " + resp.status);
  return resp.json();
}
const fmt = (v) => {
  if (typeof v !== "number") return v == null ? "–" : String(v);
  if (Number.isInteger(v)) return v.toLocaleString("en-US");
  return v.toFixed(3);
};
const when = (ts) => new Date(ts * 1000).toISOString().replace("T", " ").slice(0, 16);
const el = (tag, cls, text) => {
  const node = document.createElement(tag);
  if (cls) node.className = cls;
  if (text !== undefined) node.textContent = text;
  return node;
};

async function loadHealth() {
  const h = await fetchJSON("/api/health");
  $("tile-runs").textContent = fmt(h.runs);
  $("tile-exps").textContent = fmt(h.experiments);
  $("tile-blobs").textContent = h.cache ? fmt(h.cache.disk_blobs) : "0";
}

async function loadExperiments() {
  const data = await fetchJSON("/api/experiments");
  const select = $("exp-select");
  select.replaceChildren(el("option", null, "all"));
  select.firstChild.value = "";
  for (const e of data.experiments) {
    const opt = el("option", null, e.experiment + " (" + e.runs + ")");
    opt.value = e.experiment;
    select.append(opt);
  }
  select.value = state.experiment;
}

async function loadRuns() {
  const q = state.experiment ? "&experiment=" + encodeURIComponent(state.experiment) : "";
  const data = await fetchJSON("/api/runs?limit=200" + q);
  state.runs = data.runs;
  renderMetricOptions();
  renderTable();
  renderTrend();
}

function metricNames() {
  const names = new Set();
  for (const run of state.runs)
    for (const name of Object.keys(run.metrics)) names.add(name);
  return [...names].sort();
}

function renderMetricOptions() {
  const names = metricNames();
  if (!names.includes(state.metric)) state.metric = names.includes("ipc") ? "ipc" : names[0] || "";
  const select = $("metric-select");
  select.replaceChildren();
  for (const name of names) {
    const opt = el("option", null, name);
    opt.value = name;
    select.append(opt);
  }
  select.value = state.metric;
}

function renderTable() {
  const tbody = $("runs-table").querySelector("tbody");
  tbody.replaceChildren();
  for (const run of state.runs) {
    const tr = document.createElement("tr");
    const pick = el("td");
    const box = el("input");
    box.type = "checkbox";
    box.checked = state.picked.includes(run.run_id);
    box.addEventListener("change", () => togglePick(run.run_id, box));
    pick.append(box);
    tr.append(pick);
    tr.append(el("td", "mono", run.run_id));
    tr.append(el("td", null, run.experiment));
    tr.append(el("td", null, run.label || ""));
    tr.append(el("td", "mono", (run.git_rev || "").slice(0, 12)));
    tr.append(el("td", "mono", when(run.created)));
    tr.append(el("td", "num", run.metrics.ipc !== undefined ? fmt(run.metrics.ipc) : "–"));
    tr.append(el("td", "num", run.metrics.cycles !== undefined ? fmt(run.metrics.cycles) : "–"));
    const seriesCell = el("td");
    const seriesBtn = el("button", "series-btn", "series");
    seriesBtn.addEventListener("click", () => loadSeries(run));
    const decisionsBtn = el("button", "series-btn", "decisions");
    decisionsBtn.addEventListener("click", () => loadDecisions(run));
    seriesCell.append(seriesBtn, document.createTextNode(" "), decisionsBtn);
    tr.append(seriesCell);
    tbody.append(tr);
  }
}

/* ------------------------------------------------- per-run telemetry panel */
async function loadSeries(run) {
  const body = $("series-body");
  $("series-title").textContent = "Run telemetry — " + run.run_id;
  body.replaceChildren(el("p", "hint", "loading…"));
  try {
    const data = await fetchJSON("/api/runs/" + run.run_id + "/timeseries");
    const series = (data.timeseries && data.timeseries.series) || {};
    const panels = [
      ["windowed_ipc", "windowed IPC", "--series-1"],
      ["slot_occupancy", "slot occupancy (fraction of RFU slots)", "--series-2"],
      ["cem_error", "CEM error of the winning configuration", "--diverge-neg"],
    ];
    body.replaceChildren();
    let drawn = 0;
    for (const [key, title, colorVar] of panels) {
      const s = series[key];
      if (!s || !s.x || s.x.length < 2) continue;
      renderSeriesChart(body, title, s.x, s.v, cssVar(colorVar));
      drawn++;
    }
    if (drawn === 0) {
      body.append(el("p", "hint", "Run carries telemetry but none of the plottable series."));
    } else {
      const interval = data.timeseries.sample_interval;
      body.append(el("p", "hint",
        "x axis is the simulated cycle; one point per " + fmt(interval) +
        "-cycle sample window (stride-downsampled)."));
    }
  } catch (err) {
    body.replaceChildren(el("p", "hint",
      "No telemetry series for this run — only telemetry-enabled runs " +
      "(e.g. the steering-telemetry factory) record them."));
  }
}

function renderSeriesChart(container, title, xs, vs, color) {
  const W = 680, H = 150, m = { l: 56, r: 20, t: 10, b: 22 };
  const iw = W - m.l - m.r, ih = H - m.t - m.b;
  const wrap = el("div", "series-chart");
  wrap.append(el("div", "series-label", title));
  const svg = svgEl("svg", { width: W, height: H, role: "img" });
  const tip = el("div", "series-tip");
  container.append(wrap);
  wrap.append(svg, tip);

  const x0 = xs[0], x1 = xs[xs.length - 1] || x0 + 1;
  let v0 = Math.min(...vs), v1 = Math.max(...vs);
  if (v0 === v1) { v0 -= Math.abs(v0) * 0.1 + 0.5; v1 += Math.abs(v1) * 0.1 + 0.5; }
  const pad = (v1 - v0) * 0.08;
  v0 -= pad; v1 += pad;
  const x = (t) => m.l + (x1 === x0 ? iw / 2 : ((t - x0) / (x1 - x0)) * iw);
  const y = (v) => m.t + ih - ((v - v0) / (v1 - v0)) * ih;
  const gridC = cssVar("--grid"), base = cssVar("--baseline"),
        surface = cssVar("--surface-1");

  for (let i = 0; i <= 2; i++) {
    const gy = m.t + (ih * i) / 2;
    svg.append(svgEl("line",
      { x1: m.l, x2: W - m.r, y1: gy, y2: gy, stroke: gridC, "stroke-width": 1 }));
    const label = svgEl("text", { x: m.l - 8, y: gy + 4, "text-anchor": "end" });
    label.textContent = fmt(v1 - ((v1 - v0) * i) / 2);
    svg.append(label);
  }
  const lx = svgEl("text", { x: m.l, y: H - 6 });
  lx.textContent = "cycle " + fmt(x0);
  svg.append(lx);
  const rx = svgEl("text", { x: W - m.r, y: H - 6, "text-anchor": "end" });
  rx.textContent = "cycle " + fmt(x1);
  svg.append(rx);

  const d = xs.map((t, i) =>
    (i ? "L" : "M") + x(t).toFixed(1) + " " + y(vs[i]).toFixed(1)).join(" ");
  svg.append(svgEl("path", { d, fill: "none", stroke: color,
    "stroke-width": 1.5, "stroke-linejoin": "round", "stroke-linecap": "round" }));

  /* crosshair + tooltip, same interaction as the trend chart */
  const cross = svgEl("line", { y1: m.t, y2: m.t + ih, stroke: base,
    "stroke-width": 1, visibility: "hidden" });
  svg.append(cross);
  const hover = svgEl("circle", { r: 4, fill: color, stroke: surface,
    "stroke-width": 2, visibility: "hidden" });
  svg.append(hover);
  const hit = svgEl("rect", { x: m.l, y: m.t, width: iw, height: ih,
    fill: "transparent" });
  hit.addEventListener("pointermove", (ev) => {
    const box = svg.getBoundingClientRect();
    const px = ((ev.clientX - box.left) / box.width) * W;
    let best = 0;
    for (let i = 1; i < xs.length; i++)
      if (Math.abs(x(xs[i]) - px) < Math.abs(x(xs[best]) - px)) best = i;
    cross.setAttribute("x1", x(xs[best]));
    cross.setAttribute("x2", x(xs[best]));
    cross.setAttribute("visibility", "visible");
    hover.setAttribute("cx", x(xs[best]));
    hover.setAttribute("cy", y(vs[best]));
    hover.setAttribute("visibility", "visible");
    tip.replaceChildren(
      el("div", "val", fmt(vs[best])),
      el("div", "when", "cycle " + fmt(xs[best])));
    tip.style.display = "block";
    const wrapBox = wrap.getBoundingClientRect();
    const tx = ((x(xs[best]) / W) * box.width) + 12;
    tip.style.left = Math.min(tx, wrapBox.width - 140) + "px";
    tip.style.top = (((y(vs[best]) / H) * box.height) +
      (svg.getBoundingClientRect().top - wrapBox.top) - 10) + "px";
  });
  hit.addEventListener("pointerleave", () => {
    tip.style.display = "none";
    cross.setAttribute("visibility", "hidden");
    hover.setAttribute("visibility", "hidden");
  });
  svg.append(hit);
}

/* ------------------------------------------------ steering decision panel */
async function loadDecisions(run) {
  const body = $("decisions-body");
  $("decisions-title").textContent = "Steering decisions — " + run.run_id;
  body.replaceChildren(el("p", "hint", "loading…"));
  try {
    const data = await fetchJSON("/api/runs/" + run.run_id + "/decisions");
    const ledger = data.decisions || {};
    const decisions = ledger.decisions || [];
    body.replaceChildren();
    if (decisions.length === 0) {
      body.append(el("p", "hint", "Ledger attached but no steering decisions were recorded."));
      return;
    }
    const table = document.createElement("table");
    const thead = document.createElement("thead");
    const hrow = document.createElement("tr");
    for (const h of ["cycle", "sel", "config", "err", "demand", "idle", "pred IPC", "real IPC", "Δ"]) {
      hrow.append(el("th", ["cycle", "sel", "err", "pred IPC", "real IPC", "Δ"].includes(h) ? "num" : null, h));
    }
    thead.append(hrow);
    table.append(thead);
    const tbody = document.createElement("tbody");
    const counts = (obj) => Object.entries(obj || {})
      .filter(([, n]) => n > 0).map(([t, n]) => t + ":" + n).join(" ") || "–";
    for (const d of decisions) {
      const tr = document.createElement("tr");
      tr.append(el("td", "num", fmt(d.cycle)));
      tr.append(el("td", "num", fmt(d.selection)));
      tr.append(el("td", "mono", d.config || "?"));
      tr.append(el("td", "num", fmt(d.error)));
      tr.append(el("td", "mono", counts(d.demand)));
      tr.append(el("td", "mono", counts(d.idle)));
      tr.append(el("td", "num", d.predicted_ipc == null ? "–" : d.predicted_ipc.toFixed(2)));
      tr.append(el("td", "num", d.realized_ipc == null ? "–" : d.realized_ipc.toFixed(2)));
      const pe = d.prediction_error;
      tr.append(el("td", "num " + (pe >= 0 ? "delta-pos" : "delta-neg"),
        pe == null ? "–" : (pe >= 0 ? "+" : "") + pe.toFixed(2)));
      tbody.append(tr);
    }
    table.append(tbody);
    body.append(table);
    body.append(el("p", "hint",
      fmt(ledger.seen) + " decisions seen, " + fmt(ledger.dropped) +
      " thinned; realized IPC measured over the next " + fmt(ledger.window) +
      "-cycle window (or until the next decision)."));
  } catch (err) {
    body.replaceChildren(el("p", "hint",
      "No decision ledger for this run — only ledger-enabled runs " +
      "(e.g. the steering-telemetry factory) record one."));
  }
}

function togglePick(runId, box) {
  if (box.checked) {
    state.picked.push(runId);
    while (state.picked.length > 2) state.picked.shift();
  } else {
    state.picked = state.picked.filter((id) => id !== runId);
  }
  renderTable();
  if (state.picked.length === 2) loadDiff(state.picked[0], state.picked[1]);
}

async function loadDiff(a, b) {
  const body = $("diff-body");
  try {
    const diff = await fetchJSON("/api/diff?a=" + a + "&b=" + b);
    body.replaceChildren();
    body.append(el("p", "hint",
      "A = " + diff.a.run_id + " (" + diff.a.experiment + ")  ·  B = " +
      diff.b.run_id + " (" + diff.b.experiment + ")"));
    const table = document.createElement("table");
    const thead = document.createElement("thead");
    const hrow = document.createElement("tr");
    for (const h of ["metric", "A", "B", "Δ (B−A)", ""]) {
      const th = el("th", h === "metric" ? null : "num", h);
      hrow.append(th);
    }
    thead.append(hrow);
    table.append(thead);
    const tbody = document.createElement("tbody");
    const entries = Object.entries(diff.metrics);
    const maxPct = Math.max(0.0001, ...entries.map(([, m]) =>
      m.delta !== undefined && m.a ? Math.abs(m.delta / m.a) : 0));
    for (const [name, m] of entries) {
      const tr = document.createElement("tr");
      tr.append(el("td", null, name));
      tr.append(el("td", "num", fmt(m.a)));
      tr.append(el("td", "num", fmt(m.b)));
      const delta = m.delta;
      tr.append(el("td", "num " + (delta >= 0 ? "delta-pos" : "delta-neg"),
        delta === undefined ? "–" : (delta >= 0 ? "+" : "") + fmt(delta)));
      const cell = el("td");
      if (delta !== undefined && m.a) {
        const wrap = el("div", "bar-wrap");
        wrap.append(el("div", "bar-axis"));
        const bar = el("div", "bar " + (delta >= 0 ? "pos" : "neg"));
        const pct = Math.min(1, Math.abs(delta / m.a) / maxPct);
        bar.style.width = (pct * 48) + "%";
        wrap.append(bar);
        wrap.title = name + ": " + (delta >= 0 ? "+" : "") +
          (100 * delta / m.a).toFixed(1) + "% vs A";
        cell.append(wrap);
      }
      tr.append(cell);
      tbody.append(tr);
    }
    table.append(tbody);
    body.append(table);
  } catch (err) {
    body.replaceChildren(el("p", "error", String(err)));
  }
}

/* ---------------------------------------------------------- trend chart */
const SVG_NS = "http://www.w3.org/2000/svg";
const svgEl = (tag, attrs) => {
  const node = document.createElementNS(SVG_NS, tag);
  for (const [k, v] of Object.entries(attrs || {})) node.setAttribute(k, v);
  return node;
};
const cssVar = (name) =>
  getComputedStyle(document.body).getPropertyValue(name).trim();

function renderTrend() {
  const svg = $("trend");
  svg.replaceChildren();
  $("trend-title").textContent =
    (state.experiment || "all experiments") + " — " + (state.metric || "metric");
  const pts = state.runs
    .filter((r) => typeof r.metrics[state.metric] === "number")
    .sort((x, y) => x.created - y.created)
    .map((r) => ({ t: r.created, v: r.metrics[state.metric], run: r }));
  const hint = $("trend-hint");
  if (pts.length === 0) {
    hint.textContent = "No runs carry this metric yet.";
    return;
  }
  hint.textContent = pts.length === 1
    ? "One point so far — trends appear as more runs land."
    : pts.length + " runs, oldest to newest.";

  const W = 680, H = 240, m = { l: 56, r: 20, t: 12, b: 28 };
  const iw = W - m.l - m.r, ih = H - m.t - m.b;
  const t0 = pts[0].t, t1 = pts[pts.length - 1].t || t0 + 1;
  let v0 = Math.min(...pts.map((p) => p.v)), v1 = Math.max(...pts.map((p) => p.v));
  if (v0 === v1) { v0 -= Math.abs(v0) * 0.1 + 0.5; v1 += Math.abs(v1) * 0.1 + 0.5; }
  const pad = (v1 - v0) * 0.08;
  v0 -= pad; v1 += pad;
  const x = (t) => m.l + (t1 === t0 ? iw / 2 : ((t - t0) / (t1 - t0)) * iw);
  const y = (v) => m.t + ih - ((v - v0) / (v1 - v0)) * ih;

  const line = cssVar("--series-1"), gridC = cssVar("--grid"),
        base = cssVar("--baseline"), surface = cssVar("--surface-1");

  for (let i = 0; i <= 4; i++) {                 /* hairline solid grid */
    const gy = m.t + (ih * i) / 4;
    svg.append(svgEl("line",
      { x1: m.l, x2: W - m.r, y1: gy, y2: gy, stroke: gridC, "stroke-width": 1 }));
    const label = svgEl("text", { x: m.l - 8, y: gy + 4, "text-anchor": "end" });
    label.textContent = fmt(v1 - ((v1 - v0) * i) / 4);
    svg.append(label);
  }
  svg.append(svgEl("line",                        /* x baseline */
    { x1: m.l, x2: W - m.r, y1: m.t + ih, y2: m.t + ih, stroke: base, "stroke-width": 1 }));
  const lx = svgEl("text", { x: m.l, y: H - 8 });
  lx.textContent = when(t0);
  svg.append(lx);
  if (t1 !== t0) {
    const rx = svgEl("text", { x: W - m.r, y: H - 8, "text-anchor": "end" });
    rx.textContent = when(t1);
    svg.append(rx);
  }

  const d = pts.map((p, i) => (i ? "L" : "M") + x(p.t).toFixed(1) + " " + y(p.v).toFixed(1)).join(" ");
  svg.append(svgEl("path", { d, fill: "none", stroke: line,
    "stroke-width": 2, "stroke-linejoin": "round", "stroke-linecap": "round" }));
  const last = pts[pts.length - 1];               /* end-dot + surface ring */
  svg.append(svgEl("circle", { cx: x(last.t), cy: y(last.v), r: 4.5,
    fill: line, stroke: surface, "stroke-width": 2 }));
  const endLabel = svgEl("text",
    { x: Math.min(x(last.t) + 8, W - m.r), y: y(last.v) - 8 });
  endLabel.textContent = fmt(last.v);
  endLabel.style.fill = cssVar("--text-secondary");
  svg.append(endLabel);

  /* crosshair + tooltip: the hit area is the whole plot, snap to nearest X */
  const cross = svgEl("line", { y1: m.t, y2: m.t + ih, stroke: base,
    "stroke-width": 1, visibility: "hidden" });
  svg.append(cross);
  const hover = svgEl("circle", { r: 4.5, fill: line, stroke: surface,
    "stroke-width": 2, visibility: "hidden" });
  svg.append(hover);
  const hit = svgEl("rect", { x: m.l, y: m.t, width: iw, height: ih,
    fill: "transparent" });
  const tip = $("tooltip");
  hit.addEventListener("pointermove", (ev) => {
    const box = svg.getBoundingClientRect();
    const px = ((ev.clientX - box.left) / box.width) * W;
    let best = pts[0];
    for (const p of pts) if (Math.abs(x(p.t) - px) < Math.abs(x(best.t) - px)) best = p;
    cross.setAttribute("x1", x(best.t));
    cross.setAttribute("x2", x(best.t));
    cross.setAttribute("visibility", "visible");
    hover.setAttribute("cx", x(best.t));
    hover.setAttribute("cy", y(best.v));
    hover.setAttribute("visibility", "visible");
    tip.replaceChildren(
      el("div", "val", fmt(best.v)),
      el("div", "when", when(best.t) + " · " + (best.run.label || best.run.run_id)));
    tip.style.display = "block";
    const wrap = $("chart-wrap").getBoundingClientRect();
    const tx = ((x(best.t) / W) * box.width) + 12;
    tip.style.left = Math.min(tx, wrap.width - 170) + "px";
    tip.style.top = ((y(best.v) / H) * box.height - 14) + "px";
  });
  hit.addEventListener("pointerleave", () => {
    tip.style.display = "none";
    cross.setAttribute("visibility", "hidden");
    hover.setAttribute("visibility", "hidden");
  });
  svg.append(hit);
}

$("exp-select").addEventListener("change", (ev) => {
  state.experiment = ev.target.value;
  state.picked = [];
  loadRuns();
});
$("metric-select").addEventListener("change", (ev) => {
  state.metric = ev.target.value;
  renderTrend();
});

(async function init() {
  try {
    await loadHealth();
    await loadExperiments();
    await loadRuns();
  } catch (err) {
    document.body.append(el("p", "error", "dashboard failed to load: " + err));
  }
})();
</script>
</body>
</html>
"""
