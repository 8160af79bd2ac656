"""The embedded single-page UI, faithful to 2008-era Ajax.

Plain ``XMLHttpRequest`` long-polling (no fetch, no frameworks —
deliberately period-appropriate): the page picks a session (from the
``?session=`` query string, else the first the server lists), polls
``/api/v1/<session>/poll`` and patches only the components that changed;
the monitoring image reloads only when its version advances.  Steering
controls POST to ``/api/v1/<session>/steer`` and ``/api/v1/<session>/view``.
A ``dropped`` count in a poll response means this browser fell behind
the session's event ring and skipped frames.
"""

from __future__ import annotations

__all__ = ["DASHBOARD_HTML", "INDEX_HTML"]

INDEX_HTML = """<!DOCTYPE html>
<html>
<head>
<meta charset="utf-8">
<title>RICSA - Remote Intelligent Computational Steering using Ajax</title>
<style>
  body { font-family: sans-serif; background: #10131a; color: #dde; margin: 1em; }
  #frame { display: flex; gap: 1.5em; }
  #image { border: 1px solid #445; image-rendering: pixelated; width: 384px; height: 384px; }
  .panel { background: #1a1f2a; padding: 1em; border-radius: 6px; min-width: 22em; }
  .row { margin: 0.4em 0; }
  label { display: inline-block; width: 11em; }
  input[type=number] { width: 7em; }
  #status, #loop, #sessions { font-size: 0.85em; color: #8aa; }
  #sessions a { color: #9cf; margin-right: 0.8em; }
  h1 { font-size: 1.2em; }
</style>
</head>
<body>
<h1>RICSA computational monitoring &amp; steering</h1>
<div id="sessions">discovering sessions...</div>
<div id="frame">
  <div>
    <img id="image" alt="monitored field">
    <div id="status">waiting for updates...</div>
    <div id="loop"></div>
  </div>
  <div class="panel">
    <h3>Computation steering</h3>
    <div id="params"></div>
    <div class="row">
      <label for="pname">parameter</label>
      <input id="pname" type="text" placeholder="e.g. source_x">
      <input id="pvalue" type="number" step="0.05" value="0.5">
      <button onclick="steer()">steer</button>
    </div>
    <h3>Visualization operations</h3>
    <div class="row">
      <button onclick="view({rotate_azimuth: -15})">&#8634; rotate</button>
      <button onclick="view({rotate_azimuth: 15})">rotate &#8635;</button>
      <button onclick="view({zoom: 1.25})">zoom +</button>
      <button onclick="view({zoom: 0.8})">zoom -</button>
    </div>
  </div>
</div>
<script>
var since = 0;
var imageVersion = -1;
var session = null;

function api(action) { return "/api/v1/" + session + "/" + action; }

function start() {
  var match = /[?&]session=([^&]+)/.exec(location.search);
  if (match) { session = decodeURIComponent(match[1]); begin(); return; }
  var xhr = new XMLHttpRequest();
  xhr.open("GET", "/api/v1/sessions", true);
  xhr.onreadystatechange = function () {
    if (xhr.readyState !== 4) return;
    var names = [];
    try { names = Object.keys(JSON.parse(xhr.responseText)).sort(); } catch (e) {}
    if (names.length === 0) { setTimeout(start, 500); return; }
    session = names[0];
    var list = document.getElementById("sessions");
    list.innerHTML = "";
    for (var i = 0; i < names.length; i++) {
      var a = document.createElement("a");
      a.href = "/?session=" + encodeURIComponent(names[i]);
      a.textContent = names[i];
      list.appendChild(a);
    }
    begin();
  };
  xhr.send();
}

function begin() {
  document.getElementById("image").src = api("image.png");
  document.title = "RICSA - " + session;
  poll();
}

function poll() {
  var xhr = new XMLHttpRequest();
  xhr.open("GET", api("poll") + "?since=" + since + "&timeout=20", true);
  xhr.onreadystatechange = function () {
    if (xhr.readyState !== 4) return;
    if (xhr.status === 200) {
      try { apply(JSON.parse(xhr.responseText)); } catch (e) {}
    }
    setTimeout(poll, 50);  // immediately re-arm the long poll
  };
  xhr.send();
}

function apply(diff) {
  since = diff.version;
  for (var i = 0; i < diff.components.length; i++) {
    var c = diff.components[i];
    if (c.id === "image" && c.props.version !== imageVersion) {
      imageVersion = c.props.version;
      document.getElementById("image").src = api("image.png") + "?v=" + imageVersion;
      document.getElementById("status").textContent =
        "cycle " + c.props.cycle + " | delay " +
        (c.props.total_delay || 0).toFixed(3) + " s (image v" + imageVersion + ")" +
        (diff.dropped ? " | skipped " + diff.dropped + " events" : "");
    }
    if (c.id === "session") {
      document.getElementById("loop").textContent =
        "loop: " + (c.props.loop || "?") + " | simulator: " + (c.props.simulator || "?");
    }
    if (c.id === "params") {
      document.getElementById("params").textContent =
        JSON.stringify(c.props);
    }
  }
}

function post(url, body) {
  var xhr = new XMLHttpRequest();
  xhr.open("POST", url, true);
  xhr.setRequestHeader("Content-Type", "application/json");
  xhr.send(JSON.stringify(body));
}

function steer() {
  var name = document.getElementById("pname").value;
  var value = parseFloat(document.getElementById("pvalue").value);
  if (name) { var b = {}; b[name] = value; post(api("steer"), b); }
}

function view(ops) { post(api("view"), ops); }

start();
</script>
</body>
</html>
"""

#: The ops dashboard: dependency-free live sparkline charts over
#: ``/api/v1/metrics/history``.  Served at ``GET /dashboard`` when the
#: server was started with observability enabled; renders cold (no
#: third-party assets, no fonts, no CDNs) and backfills history from
#: the SQLite store across server restarts.
DASHBOARD_HTML = """<!DOCTYPE html>
<html>
<head>
<meta charset="utf-8">
<title>RICSA ops dashboard</title>
<style>
  body { font-family: sans-serif; background: #10131a; color: #dde; margin: 1em; }
  h1 { font-size: 1.2em; }
  #grid { display: flex; flex-wrap: wrap; gap: 1em; }
  .card { background: #1a1f2a; padding: 0.8em; border-radius: 6px; }
  .card h3 { margin: 0 0 0.3em 0; font-size: 0.9em; color: #9cf; }
  .card .val { font-size: 0.8em; color: #8aa; min-height: 1.2em; }
  canvas { background: #0c0f15; border: 1px solid #2a3040; display: block; }
  #state { font-size: 0.85em; color: #8aa; margin-bottom: 0.8em; }
</style>
</head>
<body>
<h1>RICSA ops dashboard</h1>
<div id="state">loading metrics...</div>
<div id="grid"></div>
<script>
"use strict";
// Each chart is one named card fed by one or more metric series.
// rate: true plots the per-second derivative of a monotone counter.
var CHARTS = [
  {title: "wake latency (ms)", series: ["wake_ewma_ms"], rate: false},
  {title: "bytes sent /s", series: ["bytes_sent"], rate: true},
  {title: "tier distribution", series: ["tiers.0", "tiers.1", "tiers.2", "tiers.3"], rate: false},
  {title: "tier bytes saved /s", series: ["bytes_saved"], rate: true},
  {title: "executor load", series: ["executor.executor_queue_depth", "executor.sessions_runnable"], rate: false},
  {title: "parked polls + subscribers", series: ["parked_polls", "subscribers"], rate: false},
  {title: "process RSS (MB)", series: ["proc.rss_bytes"], rate: false, scale: 1 / (1024 * 1024)},
  {title: "process CPU /s", series: ["proc.cpu_seconds"], rate: true},
];
var COLORS = ["#6cf", "#fc6", "#f66", "#6f9", "#c9f", "#9cf"];
var W = 280, H = 80, WINDOW_S = 300, POLL_MS = 2000;
var grid = document.getElementById("grid");
var cards = [];

function makeCard(chart) {
  var card = document.createElement("div");
  card.className = "card";
  var h = document.createElement("h3");
  h.textContent = chart.title;
  var canvas = document.createElement("canvas");
  canvas.width = W; canvas.height = H;
  var val = document.createElement("div");
  val.className = "val";
  card.appendChild(h); card.appendChild(canvas); card.appendChild(val);
  grid.appendChild(card);
  return {chart: chart, ctx: canvas.getContext("2d"), val: val};
}

function toRate(points) {
  var out = [];
  for (var i = 1; i < points.length; i++) {
    var dt = points[i][0] - points[i - 1][0];
    if (dt <= 0) continue;
    var dv = (points[i][1] - points[i - 1][1]) / dt;
    out.push([points[i][0], dv < 0 ? 0 : dv]);
  }
  return out;
}

function drawCard(card, history, now) {
  var ctx = card.ctx;
  ctx.clearRect(0, 0, W, H);
  var lo = 0, hi = 1e-9, lines = [], labels = [];
  card.chart.series.forEach(function (name, si) {
    var pts = history[name] || [];
    if (card.chart.rate) pts = toRate(pts);
    if (card.chart.scale) {
      pts = pts.map(function (p) { return [p[0], p[1] * card.chart.scale]; });
    }
    lines.push(pts);
    pts.forEach(function (p) {
      if (p[1] > hi) hi = p[1];
      if (p[1] < lo) lo = p[1];
    });
    if (pts.length) {
      labels.push(name.replace(/^.*\\./, "") + "=" + pts[pts.length - 1][1].toFixed(1));
    }
  });
  var t0 = now - WINDOW_S;
  lines.forEach(function (pts, si) {
    ctx.strokeStyle = COLORS[si % COLORS.length];
    ctx.lineWidth = 1.5;
    ctx.beginPath();
    var started = false;
    pts.forEach(function (p) {
      var x = (p[0] - t0) / WINDOW_S * W;
      var y = H - 4 - (p[1] - lo) / (hi - lo) * (H - 8);
      if (x < 0) return;
      if (started) { ctx.lineTo(x, y); } else { ctx.moveTo(x, y); started = true; }
    });
    ctx.stroke();
  });
  card.val.textContent = labels.join("  ");
}

function tick() {
  var wanted = {};
  cards.forEach(function (card) {
    card.chart.series.forEach(function (s) { wanted[s] = true; });
  });
  var q = "series=" + Object.keys(wanted).join(",") +
          "&since=" + (Date.now() / 1000 - WINDOW_S - 10).toFixed(0);
  var xhr = new XMLHttpRequest();
  xhr.open("GET", "/api/v1/metrics/history?" + q, true);
  xhr.onload = function () {
    if (xhr.status !== 200) {
      document.getElementById("state").textContent =
        "metrics unavailable (HTTP " + xhr.status + ") - was the server started with obs enabled?";
      return;
    }
    var payload = JSON.parse(xhr.responseText);
    document.getElementById("state").textContent =
      "live - sampled on the housekeeping tick, window " + WINDOW_S + "s";
    cards.forEach(function (card) { drawCard(card, payload.series, payload.now); });
  };
  xhr.onerror = function () {
    document.getElementById("state").textContent = "metrics fetch failed";
  };
  xhr.send();
}

CHARTS.forEach(function (chart) { cards.push(makeCard(chart)); });
tick();
setInterval(tick, POLL_MS);
</script>
</body>
</html>
"""
