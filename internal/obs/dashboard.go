package obs

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"
)

// Dashboard is the dependency-free live fleet view. GET /debug/dashboard
// serves a self-contained HTML page; the page's script re-requests the
// same path with ?stream=1 and renders the server-sent event frames: a
// fleet table heat-mapped by straggler score, epoch age, query QPS
// (derived client-side from the request-counter series), and history
// sparklines. One type serves both the controller (-obs-addr) and
// s2serve, so the two debug surfaces stay identical.
type Dashboard struct {
	// Health supplies the current fleet snapshot; any JSON-serializable
	// value works, but the page knows the FleetHealth shape (workers,
	// epoch, round_skew). Nil renders an empty fleet.
	Health func() any
	// History backs the sparklines; nil disables them.
	History *History
}

// dashFrame is one SSE frame.
type dashFrame struct {
	Seq        uint64                 `json:"seq"`
	NowMs      int64                  `json:"now_ms"`
	Rounds     uint64                 `json:"rounds"` // history sample rounds
	Health     any                    `json:"health,omitempty"`
	Series     map[string][]HistPoint `json:"series,omitempty"`
	SeriesSkip int                    `json:"series_skipped,omitempty"`
}

// Dashboard frame shape: an SSE frame every dashInterval (?interval=ms
// overrides, clamped to ≥ 250ms) carries up to sparkPoints points of up to
// maxDashSeries series; the series left out are reported as
// series_skipped so truncation is visible, not silent.
const (
	dashInterval  = 2 * time.Second
	sparkPoints   = 90
	maxDashSeries = 256
)

func (d *Dashboard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if d == nil {
		http.Error(w, "dashboard disabled", http.StatusNotFound)
		return
	}
	if r.URL.Query().Get("stream") != "" || r.Header.Get("Accept") == "text/event-stream" {
		d.stream(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write([]byte(dashboardHTML))
}

func (d *Dashboard) frame(seq uint64) dashFrame {
	f := dashFrame{Seq: seq, NowMs: time.Now().UnixMilli(), Rounds: d.History.Rounds()}
	if d.Health != nil {
		f.Health = d.Health()
	}
	if dump := d.History.Dump(sparkPoints); len(dump) > 0 {
		if len(dump) > maxDashSeries {
			names := d.History.Names()
			f.SeriesSkip = len(names) - maxDashSeries
			trimmed := make(map[string][]HistPoint, maxDashSeries)
			for _, name := range names[:maxDashSeries] {
				if pts := dump[name]; len(pts) > 0 {
					trimmed[name] = pts
				}
			}
			dump = trimmed
		}
		f.Series = dump
	}
	return f
}

func (d *Dashboard) stream(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	interval := dashInterval
	if ms, err := strconv.Atoi(r.URL.Query().Get("interval")); err == nil && ms > 0 {
		interval = time.Duration(ms) * time.Millisecond
	}
	if interval < 250*time.Millisecond {
		interval = 250 * time.Millisecond
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Accel-Buffering", "no")
	t := time.NewTicker(interval)
	defer t.Stop()
	var seq uint64
	for {
		seq++
		payload, err := json.Marshal(d.frame(seq))
		if err != nil {
			return
		}
		if _, err := w.Write([]byte("data: ")); err != nil {
			return
		}
		if _, err := w.Write(payload); err != nil {
			return
		}
		if _, err := w.Write([]byte("\n\n")); err != nil {
			return
		}
		fl.Flush()
		select {
		case <-r.Context().Done():
			return
		case <-t.C:
		}
	}
}

const dashboardHTML = `<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>s2 fleet dashboard</title>
<style>
body{font:13px/1.45 -apple-system,Segoe UI,Roboto,sans-serif;margin:1.5em;background:#0f1419;color:#d6dde6}
h1{font-size:1.2em;margin:0 0 .25em}
.muted{color:#7a8796}
table{border-collapse:collapse;margin:.75em 0}
th,td{padding:.3em .7em;border-bottom:1px solid #253041;text-align:right;font-variant-numeric:tabular-nums}
th{color:#9fb0c3;font-weight:600;text-align:right}
td:first-child,th:first-child{text-align:left}
#cards{display:flex;gap:1.5em;flex-wrap:wrap;margin:.5em 0 1em}
.card b{display:block;font-size:1.25em}
#sparks{display:grid;grid-template-columns:repeat(auto-fill,minmax(260px,1fr));gap:.75em}
.spark{background:#141b24;border:1px solid #253041;border-radius:6px;padding:.5em .6em}
.spark .name{font-size:11px;color:#9fb0c3;overflow:hidden;text-overflow:ellipsis;white-space:nowrap}
.spark .val{font-size:12px;color:#e6edf5}
canvas{width:100%;height:42px;display:block;margin-top:.25em}
input{background:#141b24;color:#d6dde6;border:1px solid #253041;border-radius:4px;padding:.35em .6em;width:22em}
</style>
</head>
<body>
<h1>s2 fleet dashboard</h1>
<div class="muted" id="status">connecting…</div>
<div id="cards">
<div class="card"><span class="muted">epoch</span><b id="epoch">–</b></div>
<div class="card"><span class="muted">epoch age</span><b id="epochage">–</b></div>
<div class="card"><span class="muted">query qps</span><b id="qps">–</b></div>
<div class="card"><span class="muted">history rounds</span><b id="rounds">–</b></div>
</div>
<div id="fleet"></div>
<p><input id="filter" placeholder="filter sparkline series (e.g. s2_worker, gc_pause)" value=""></p>
<div id="sparks"></div>
<script>
"use strict";
var lastReq=null,lastReqAt=0,qps=0;
var es=new EventSource(location.pathname+"?stream=1");
es.onopen=function(){document.getElementById("status").textContent="live";};
es.onerror=function(){document.getElementById("status").textContent="disconnected — retrying";};
es.onmessage=function(ev){
  var f=JSON.parse(ev.data);
  document.getElementById("rounds").textContent=f.rounds;
  renderHealth(f.health||{});
  renderQPS(f);
  renderSparks(f.series||{});
};
function fmt(v){
  if(v==null)return"–";
  if(Math.abs(v)>=1e9)return(v/1e9).toFixed(1)+"G";
  if(Math.abs(v)>=1e6)return(v/1e6).toFixed(1)+"M";
  if(Math.abs(v)>=1e4)return(v/1e3).toFixed(1)+"k";
  return Math.abs(v%1)>0?v.toFixed(3):String(v);
}
function renderHealth(h){
  if(h.epoch!==undefined)document.getElementById("epoch").textContent=h.epoch;
  if(h.epoch_age_seconds!==undefined)document.getElementById("epochage").textContent=h.epoch_age_seconds.toFixed(1)+"s";
  var ws=h.workers||[];
  var cols=["worker","shard","round","queue","bdd_nodes","gc_pause_p99_us","rss_bytes","heap_bytes","goroutines","straggler_score","age_ms"];
  var html="<table><tr>";
  cols.forEach(function(c){html+="<th>"+c.replace(/_/g," ")+"</th>";});
  html+="</tr>";
  ws.forEach(function(w){
    var s=w.straggler_score||0;
    var heat=Math.min(1,s);
    var bg="rgba(214,80,60,"+(heat*0.55).toFixed(2)+")";
    html+="<tr style='background:"+(s>0.05?bg:"transparent")+"'>";
    cols.forEach(function(c){html+="<td>"+fmt(w[c])+"</td>";});
    html+="</tr>";
  });
  html+="</table>";
  document.getElementById("fleet").innerHTML=ws.length?html:"<p class='muted'>no worker vitals yet</p>";
}
function renderQPS(f){
  var total=0,found=false;
  for(var k in f.series||{}){
    if(k.indexOf("s2_http_requests_total")===0||k.indexOf("s2_queries_total")===0){
      var pts=f.series[k];total+=pts[pts.length-1].v;found=true;
    }
  }
  if(!found)return;
  if(lastReq!==null&&f.now_ms>lastReqAt){
    qps=Math.max(0,(total-lastReq)/((f.now_ms-lastReqAt)/1000));
    document.getElementById("qps").textContent=qps.toFixed(1);
  }
  lastReq=total;lastReqAt=f.now_ms;
}
function renderSparks(series){
  var filter=document.getElementById("filter").value.trim();
  var names=Object.keys(series).filter(function(n){return !filter||n.indexOf(filter)>=0;}).sort();
  names=names.slice(0,48);
  var root=document.getElementById("sparks");
  root.innerHTML="";
  names.forEach(function(n){
    var pts=series[n];
    var div=document.createElement("div");div.className="spark";
    div.innerHTML="<div class='name' title='"+n+"'>"+n+"</div><div class='val'>"+fmt(pts[pts.length-1].v)+" · "+pts.length+" pts</div>";
    var cv=document.createElement("canvas");div.appendChild(cv);root.appendChild(div);
    cv.width=cv.clientWidth*2;cv.height=84;
    var ctx=cv.getContext("2d");
    var min=Infinity,max=-Infinity;
    pts.forEach(function(p){if(p.v<min)min=p.v;if(p.v>max)max=p.v;});
    if(min===max){min-=1;max+=1;}
    ctx.strokeStyle="#4da3ff";ctx.lineWidth=2;ctx.beginPath();
    pts.forEach(function(p,i){
      var x=i/(Math.max(1,pts.length-1))*cv.width;
      var y=cv.height-4-((p.v-min)/(max-min))*(cv.height-8);
      if(i===0)ctx.moveTo(x,y);else ctx.lineTo(x,y);
    });
    ctx.stroke();
  });
}
</script>
</body>
</html>
`
