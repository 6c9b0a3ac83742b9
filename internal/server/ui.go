package server

// indexHTML is the embedded single-page front-end: an HTML5 canvas client
// of the JSON API. It polls /api/graph (which also advances an unsettled
// layout a few steps per poll, so the picture settles live; the motion
// readout is the last step's residual in rendered pixels), draws the shapes with
// their proportional fill, and forwards every interaction — node dragging,
// double-click disaggregation, shift-double-click aggregation, the
// charge/spring/damping sliders, the per-type size scales and the
// time-slice window — back to the server.
const indexHTML = `<!DOCTYPE html>
<html>
<head>
<meta charset="utf-8">
<title>viva — topology-based trace visualization</title>
<style>
  body { margin: 0; font-family: sans-serif; display: flex; height: 100vh; }
  #panel { width: 280px; padding: 12px; background: #f4f4f4; overflow-y: auto; }
  #panel h1 { font-size: 16px; margin: 0 0 8px; }
  #panel label { display: block; font-size: 12px; margin-top: 10px; color: #333; }
  #panel input[type=range] { width: 100%; }
  #panel .row { font-size: 11px; color: #666; }
  #canvasWrap { flex: 1; position: relative; }
  canvas { width: 100%; height: 100%; display: block; background: #ffffff; }
  #help { font-size: 11px; color: #555; margin-top: 14px; line-height: 1.5; }
  button { margin: 2px 2px 0 0; }
</style>
</head>
<body>
<div id="panel">
  <h1>viva</h1>
  <div>
    <label>Hierarchy level</label>
    <span id="levels"></span>
  </div>
  <label>Time slice: <span id="sliceLabel"></span></label>
  <input type="range" id="sliceStart" min="0" max="1000" value="0">
  <input type="range" id="sliceEnd" min="0" max="1000" value="1000">
  <label>Charge <span id="chargeVal" class="row"></span></label>
  <input type="range" id="charge" min="0" max="5000" value="1000">
  <label>Spring <span id="springVal" class="row"></span></label>
  <input type="range" id="spring" min="1" max="500" value="50">
  <label>Damping <span id="dampVal" class="row"></span></label>
  <input type="range" id="damping" min="0" max="99" value="85">
  <label>Host size scale</label>
  <input type="range" id="scaleHost" min="10" max="300" value="100">
  <label>Link size scale</label>
  <input type="range" id="scaleLink" min="10" max="300" value="100">
  <label><input type="checkbox" id="maxFill"> Show max link saturation</label>
  <div id="help">
    Drag a node to move it (its neighbours follow).<br>
    Double-click a group to disaggregate it.<br>
    Shift+double-click a node to aggregate its parent group.<br>
    Squares are hosts, diamonds links, circles routers; the fill shows
    utilization over the time slice.
  </div>
  <div class="row" id="status"></div>
  <div id="detail" style="font-size:11px;margin-top:10px;white-space:pre-wrap;font-family:monospace;color:#222"></div>
</div>
<div id="canvasWrap"><canvas id="cv"></canvas></div>
<script>
"use strict";
const cv = document.getElementById("cv");
const ctx = cv.getContext("2d");
let graph = {nodes: [], edges: []};
let meta = {window: [0, 1], maxDepth: 3};
let view = {x: 0, y: 0, scale: 1};
let dragging = null;

function resize() {
  cv.width = cv.clientWidth; cv.height = cv.clientHeight;
}
window.addEventListener("resize", resize);

async function post(url, body) {
  const r = await fetch(url, {method: "POST", body: JSON.stringify(body)});
  if (!r.ok) console.warn(url, await r.text());
}

async function loadMeta() {
  meta = await (await fetch("/api/meta")).json();
  const lv = document.getElementById("levels");
  lv.innerHTML = "";
  for (let d = 0; d <= meta.maxDepth; d++) {
    const b = document.createElement("button");
    b.textContent = d;
    b.onclick = () => post("/api/level", {depth: d});
    lv.appendChild(b);
  }
  const ss = document.getElementById("sliceStart"), se = document.getElementById("sliceEnd");
  ss.oninput = se.oninput = () => {
    const w0 = meta.window[0], w1 = meta.window[1];
    const a = w0 + (w1 - w0) * ss.value / 1000;
    const b = w0 + (w1 - w0) * se.value / 1000;
    if (b > a) post("/api/slice", {start: a, end: b});
  };
}

function hookSliders() {
  const charge = document.getElementById("charge");
  const spring = document.getElementById("spring");
  const damping = document.getElementById("damping");
  const push = () => {
    document.getElementById("chargeVal").textContent = charge.value;
    document.getElementById("springVal").textContent = (spring.value / 1000).toFixed(3);
    document.getElementById("dampVal").textContent = (damping.value / 100).toFixed(2);
    post("/api/params", {
      Charge: +charge.value,
      Spring: +spring.value / 1000,
      Damping: +damping.value / 100,
    });
  };
  charge.oninput = spring.oninput = damping.oninput = push;
  document.getElementById("scaleHost").oninput = (e) =>
    post("/api/scale", {type: "host", factor: +e.target.value / 100});
  document.getElementById("scaleLink").oninput = (e) =>
    post("/api/scale", {type: "link", factor: +e.target.value / 100});
  document.getElementById("maxFill").onchange = (e) =>
    post("/api/fillmode", {type: "link", mode: e.target.checked ? "max" : "ratio"});
}

function fit() {
  if (!graph.nodes.length) return;
  let minX = 1e18, minY = 1e18, maxX = -1e18, maxY = -1e18;
  for (const n of graph.nodes) {
    minX = Math.min(minX, n.x); maxX = Math.max(maxX, n.x);
    minY = Math.min(minY, n.y); maxY = Math.max(maxY, n.y);
  }
  const m = 80;
  const sx = (cv.width - 2 * m) / Math.max(maxX - minX, 1);
  const sy = (cv.height - 2 * m) / Math.max(maxY - minY, 1);
  view.scale = Math.min(sx, sy, 1.5);
  view.x = (minX + maxX) / 2; view.y = (minY + maxY) / 2;
}

function toScreen(x, y) {
  return [(x - view.x) * view.scale + cv.width / 2,
          (y - view.y) * view.scale + cv.height / 2];
}
function toWorld(px, py) {
  return [(px - cv.width / 2) / view.scale + view.x,
          (py - cv.height / 2) / view.scale + view.y];
}

function drawShape(n, x, y, s) {
  const h = s / 2;
  ctx.beginPath();
  if (n.shape === "diamond") {
    ctx.moveTo(x, y - h); ctx.lineTo(x + h, y); ctx.lineTo(x, y + h); ctx.lineTo(x - h, y);
    ctx.closePath();
  } else if (n.shape === "circle") {
    ctx.arc(x, y, h, 0, 2 * Math.PI);
  } else {
    ctx.rect(x - h, y - h, s, s);
  }
}

function draw() {
  ctx.clearRect(0, 0, cv.width, cv.height);
  ctx.strokeStyle = "#b8b8b8";
  for (const e of graph.edges) {
    const a = graph.nodes.find(n => n.id === e.from);
    const b = graph.nodes.find(n => n.id === e.to);
    if (!a || !b) continue;
    const [x1, y1] = toScreen(a.x, a.y), [x2, y2] = toScreen(b.x, b.y);
    ctx.lineWidth = 1 + Math.log10(e.mult);
    ctx.beginPath(); ctx.moveTo(x1, y1); ctx.lineTo(x2, y2); ctx.stroke();
  }
  for (const n of graph.nodes) {
    const [x, y] = toScreen(n.x, n.y);
    const s = Math.max(n.size * view.scale, 3);
    // Light body.
    drawShape(n, x, y, s);
    ctx.fillStyle = n.color + "26";
    ctx.fill();
    // Proportional fill, bottom-anchored, clipped by the shape; when
    // per-category segments exist they stack bottom-up in their colors.
    if (n.segments && n.segments.length) {
      ctx.save();
      drawShape(n, x, y, s);
      ctx.clip();
      let base = y + s / 2;
      for (const seg of n.segments) {
        const fh = s * seg.fraction;
        ctx.fillStyle = seg.color;
        ctx.fillRect(x - s / 2, base - fh, s, fh);
        base -= fh;
      }
      ctx.restore();
    } else if (n.fill > 0) {
      ctx.save();
      drawShape(n, x, y, s);
      ctx.clip();
      ctx.fillStyle = n.color;
      ctx.fillRect(x - s / 2, y + s / 2 - s * n.fill, s, s * n.fill);
      ctx.restore();
    }
    if (n.avail < 1) {
      // Fault tint: red wash darkening as availability drops.
      ctx.save();
      drawShape(n, x, y, s);
      ctx.clip();
      ctx.fillStyle = "rgba(198,40,40," + (0.15 + 0.45 * (1 - n.avail)).toFixed(2) + ")";
      ctx.fillRect(x - s / 2, y - s / 2, s, s);
      ctx.restore();
    }
    drawShape(n, x, y, s);
    ctx.strokeStyle = n.color;
    ctx.lineWidth = 1.5;
    ctx.stroke();
    if (s > 26) {
      ctx.fillStyle = "#222";
      ctx.font = "11px sans-serif";
      ctx.textAlign = "center";
      ctx.fillText(n.label, x, y + s / 2 + 12);
    }
  }
}

function hit(px, py) {
  for (let i = graph.nodes.length - 1; i >= 0; i--) {
    const n = graph.nodes[i];
    const [x, y] = toScreen(n.x, n.y);
    const h = Math.max(n.size * view.scale, 6) / 2;
    if (Math.abs(px - x) <= h && Math.abs(py - y) <= h) return n;
  }
  return null;
}

let dragMoved = false;
cv.addEventListener("mousedown", (e) => {
  dragging = hit(e.offsetX, e.offsetY);
  dragMoved = false;
});
cv.addEventListener("mousemove", (e) => {
  if (!dragging) return;
  dragMoved = true;
  const [wx, wy] = toWorld(e.offsetX, e.offsetY);
  dragging.x = wx; dragging.y = wy;
  post("/api/move", {id: dragging.id, x: wx, y: wy, pin: true});
  draw();
});
window.addEventListener("mouseup", async () => {
  if (dragging) {
    if (dragMoved) {
      post("/api/unpin", {id: dragging.id});
    } else {
      // Plain click: show the node's aggregation detail (statistical
      // indicators + members).
      const d = await (await fetch("/api/node?id=" + encodeURIComponent(dragging.id))).json();
      const fmtN = (x) => Number(x).toPrecision(4);
      document.getElementById("detail").textContent =
        d.label + "\n" +
        "members: " + d.count + "\n" +
        "value:   " + fmtN(d.value) + "\n" +
        "fill:    " + (100 * d.fill).toFixed(1) + "%\n" +
        "avail:   " + (100 * d.avail).toFixed(1) + "%\n" +
        "mean:    " + fmtN(d.sizeStats.mean) + "\n" +
        "stddev:  " + fmtN(d.sizeStats.stddev) + "\n" +
        "median:  " + fmtN(d.sizeStats.median) + "\n" +
        "min/max: " + fmtN(d.sizeStats.min) + " / " + fmtN(d.sizeStats.max) +
        (d.members && d.members.length ? "\n" + d.members.slice(0, 12).join("\n") : "");
    }
  }
  dragging = null;
});
cv.addEventListener("dblclick", (e) => {
  const n = hit(e.offsetX, e.offsetY);
  if (!n) return;
  if (e.shiftKey) {
    if (n.parent) post("/api/aggregate", {group: n.parent});
  } else if (!n.leaf) {
    post("/api/disaggregate", {group: n.group});
  }
});

async function tick() {
  try {
    graph = await (await fetch("/api/graph?steps=5")).json();
    document.getElementById("sliceLabel").textContent =
      graph.slice[0].toFixed(2) + " – " + graph.slice[1].toFixed(2) + " s";
    document.getElementById("status").textContent =
      graph.nodes.length + " nodes, " + graph.edges.length + " edges, " +
      (graph.moving > 0 ? "motion " + graph.moving.toFixed(3) + " px/step" : "settled");
    if (!dragging) fit();
    draw();
  } catch (err) {
    document.getElementById("status").textContent = "disconnected: " + err;
  }
  setTimeout(tick, 150);
}

resize();
loadMeta().then(() => { hookSliders(); tick(); });
</script>
</body>
</html>
`
