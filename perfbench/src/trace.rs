//! The traced run: the same workload and seed against a server started in
//! this process, so the benchmark can reach the tenant behind it.
//!
//! For sampled queries the identical request is re-issued at each inner
//! boundary in turn — client socket → `Tenant::query` → engine (or
//! `ColdIndex`) → `IndexSnapshot` → `select_blocks` — and each call is kept
//! as a span under one request span. A layer's self time is its span minus
//! the next inner one. Inserts are not replayed through the server; their
//! layers are timed by replaying the same insert stream through
//! `http::read_request`, `Wal::append`/`rotate`, and the engine's own
//! insert timings. Nothing inside the program is instrumented.

use crate::check::Tally;
use crate::data::{self, PoolEntry, Rows};
use crate::net::{self, TENANT};
use crate::stats::{mean, median, percentile};
use crate::workloads::{self as wl, Kind, K, LEAF};
use crate::{Opts, Report};
use mbi_ann::SearchStats;
use mbi_core::engine::SNAPSHOT_FILE;
use mbi_core::{
    EngineConfig, EngineStats, IndexSnapshot, StreamingMbi, TierStats, TimeWindow, Wal,
};
use mbi_math::PreparedQuery;
use mbi_server::tenant::{Tenant, TenantEngine};
use mbi_server::{wire, Server, ServerHandle};
use std::collections::BTreeMap;
use std::io::BufReader;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Pool entries (the first ones, so every fraction is drawn evenly) whose
/// requests are replayed layer by layer.
const SAMPLE: usize = 60;
/// recent_ingest replays every this-many-th query.
const RECENT_EVERY: u64 = 4;
/// The server's default per-request deadline, which the replayed
/// `Tenant::query` carries as the server would.
const DEADLINE: Duration = Duration::from_secs(2);
/// Share of the client span above which a workload is flagged.
const UNATTRIBUTED_LIMIT: f64 = 0.10;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Request id shared by every span of one request.
    pub request: u64,
    /// Layer boundary: request, client, wire, tenant, engine, snapshot, select.
    pub name: &'static str,
    /// Parent span's name ("" for the request span).
    pub parent: &'static str,
    /// Start, ns since the trace epoch.
    pub start: u64,
    /// End, ns since the trace epoch.
    pub end: u64,
}

impl Span {
    fn us(&self) -> f64 {
        (self.end - self.start) as f64 / 1e3
    }
}

/// Spans of one run, kept in memory and written out at the end.
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    /// Work counters and places searched, per sampled request.
    counts: Mutex<BTreeMap<usize, (SearchStats, usize)>>,
    tail_rows: Mutex<Vec<f64>>,
    next: std::sync::atomic::AtomicU64,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(BTreeMap::new()),
            tail_rows: Mutex::new(Vec::new()),
            next: std::sync::atomic::AtomicU64::new(0),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Times `f` as a span named `name` under `parent`.
    fn span<R>(
        &self,
        out: &mut Vec<Span>,
        request: u64,
        name: &'static str,
        parent: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        out.push(Span { request, name, parent, start: self.ns(t0), end: self.ns(t1) });
        r
    }

    /// Replays one request (whose client round trip of `rtt` seconds just
    /// ended) through every inner boundary.
    /// Returns the engine's work counters and the places it searched.
    fn replay(
        &self,
        tenant: &Tenant,
        ram: Option<&IndexSnapshot>,
        q: &[f32],
        w: TimeWindow,
        rtt: f64,
    ) -> (SearchStats, usize) {
        let request = self.next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let now = Instant::now();
        let client_start = now - Duration::from_secs_f64(rtt);
        let mut spans = Vec::with_capacity(7);
        spans.push(Span {
            request,
            name: "client",
            parent: "request",
            start: self.ns(client_start),
            end: self.ns(now),
        });
        self.span(&mut spans, request, "wire", "client", || wire_roundtrip(q, w));
        let deadline = Some(Instant::now() + DEADLINE);
        self.span(&mut spans, request, "tenant", "client", || {
            std::hint::black_box(tenant.query(q, K, w, deadline).ok())
        });
        let params = tenant.search_params();
        let (stats, places) = match &tenant.engine {
            TenantEngine::Streaming(e) => {
                let out = self.span(&mut spans, request, "engine", "tenant", || {
                    e.query_with_params(q, K, w, &params)
                });
                let snap = e.snapshot();
                self.tail_rows
                    .lock()
                    .expect("tail lock")
                    .push((e.len() - snap.sealed_rows()) as f64);
                self.span(&mut spans, request, "snapshot", "engine", || {
                    std::hint::black_box(snap.query_with_params(q, K, w, &params))
                });
                self.span(&mut spans, request, "select", "snapshot", || {
                    std::hint::black_box(mbi_core::select::select_blocks(
                        snap.blocks(),
                        snap.num_leaves(),
                        snap.config().tau,
                        w,
                    ))
                });
                (out.stats, out.selection.places())
            }
            TenantEngine::Cold(c) => {
                let out = self.span(&mut spans, request, "engine", "tenant", || {
                    c.query_with_params(q, K, w, &params).expect("cold query")
                });
                let snap = ram.expect("cold replay needs the in-RAM snapshot");
                self.span(&mut spans, request, "snapshot", "engine", || {
                    std::hint::black_box(snap.query_with_params(q, K, w, &params))
                });
                self.span(&mut spans, request, "select", "snapshot", || {
                    std::hint::black_box(mbi_core::select::select_blocks(
                        snap.blocks(),
                        snap.num_leaves(),
                        snap.config().tau,
                        w,
                    ))
                });
                (out.stats, out.selection.places())
            }
            TenantEngine::Replica { .. } => unreachable!("the benchmark serves no replica"),
        };
        let end = spans.iter().map(|s| s.end).max().unwrap_or(0);
        spans.push(Span {
            request,
            name: "request",
            parent: "",
            start: self.ns(client_start),
            end,
        });
        self.spans.lock().expect("span lock").extend(spans);
        (stats, places)
    }

    /// Durations (µs) of every span named `name`.
    fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span lock")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::us)
            .collect()
    }

    fn per_request(&self) -> BTreeMap<u64, BTreeMap<&'static str, f64>> {
        let mut by: BTreeMap<u64, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for s in self.spans.lock().expect("span lock").iter() {
            by.entry(s.request).or_default().insert(s.name, s.us());
        }
        by
    }

    /// Per request: span `outer` minus span `inner`, µs.
    fn self_time(&self, outer: &str, inner: &str) -> Vec<f64> {
        self.per_request().values().filter_map(|m| Some(m.get(outer)? - m.get(inner)?)).collect()
    }

    /// Writes every span as one JSON line.
    fn write(&self, path: &Path) -> std::io::Result<usize> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().expect("span lock");
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                f,
                "{{\"request\":{},\"name\":\"{}\",\"parent\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.request, s.name, s.parent, s.start, s.end
            )?;
        }
        f.flush()?;
        Ok(spans.len())
    }
}

/// The wire codec work of one binary query, done in memory: the client's
/// request encode, the server's frame read and field decode, the server's
/// result encode and the client's result decode (of a k-result reply).
fn wire_roundtrip(q: &[f32], w: TimeWindow) {
    let payload = wire::PayloadWriter::new()
        .u32(K as u32)
        .i64(w.start)
        .i64(w.end)
        .u32(0)
        .u32(q.len() as u32)
        .f32s(q)
        .build();
    let mut frame = Vec::with_capacity(payload.len() + 5);
    wire::write_frame(&mut frame, wire::Op::Query as u8, &payload).expect("in-memory write");
    let (_, body) = wire::read_frame(&mut frame.as_slice()).expect("frame").expect("one frame");
    let mut r = wire::PayloadReader::new(&body);
    let k = r.u32().expect("k");
    let _ = (r.i64(), r.i64(), r.u32());
    let dim = r.u32().expect("dim") as usize;
    let v = r.f32s(dim).expect("vector");
    let results: Vec<mbi_core::TknnResult> = (0..k)
        .map(|i| mbi_core::TknnResult { id: i, timestamp: w.start, dist: v[i as usize % dim] })
        .collect();
    let reply = wire::encode_results(&results, 0);
    let mut frame = Vec::with_capacity(reply.len() + 5);
    wire::write_frame(&mut frame, 0, &reply).expect("in-memory write");
    let (_, body) = wire::read_frame(&mut frame.as_slice()).expect("frame").expect("one frame");
    std::hint::black_box(wire::decode_results(&body).expect("results"));
}

fn tenant_of(handle: &ServerHandle) -> Arc<Tenant> {
    handle.registry().by_name(TENANT).expect("benchmark tenant").clone()
}

fn start(flags: &[String], budget: Option<u64>) -> Result<ServerHandle, String> {
    Server::start(wl::server_config(flags, budget)?).map_err(|e| format!("server start: {e}"))
}

fn us(samples: &[f64], p: f64) -> f64 {
    percentile(&mut samples.to_vec(), p)
}

/// ns per distance evaluation of the batch kernel at the rows' dimension
/// and metric, over one leaf of rows.
fn dist_ns(rows: &Rows, q: &[f32]) -> f64 {
    let n = LEAF.min(rows.len());
    let block = &rows.store.as_flat()[..n * rows.dim()];
    let inv: Vec<f32> = (0..n).map(|i| mbi_math::inv_norm_of(rows.row(i))).collect();
    let pq = PreparedQuery::new(rows.metric, q);
    let mut out = Vec::with_capacity(n);
    let mut per = Vec::new();
    for _ in 0..7 {
        let t0 = Instant::now();
        for _ in 0..20 {
            out.clear();
            pq.distance_batch(std::hint::black_box(block), Some(&inv), &mut out);
            std::hint::black_box(&out);
        }
        per.push(t0.elapsed().as_nanos() as f64 / (20 * n) as f64);
    }
    median(&per)
}

/// MB/s of `wal::crc32` over a leaf record's worth of bytes.
fn crc_mb_s(rows: &Rows) -> f64 {
    let n = LEAF.min(rows.len());
    let bytes: Vec<u8> = rows.store.as_flat()[..n * rows.dim()]
        .iter()
        .flat_map(|x| x.to_le_bytes())
        .chain(rows.ts[..n].iter().flat_map(|t| t.to_le_bytes()))
        .collect();
    let mut per = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        std::hint::black_box(mbi_core::wal::crc32(std::hint::black_box(&bytes)));
        per.push(bytes.len() as f64 / 1e6 / t0.elapsed().as_secs_f64());
    }
    median(&per)
}

/// µs per insert of `http::read_request` plus the server's JSON decode, on
/// the exact bytes of the inserts of rows `[lo, hi)`.
fn http_parse_us(rows: &Rows, lo: usize, hi: usize) -> f64 {
    let mut per = Vec::with_capacity(hi - lo);
    for i in lo..hi {
        let bytes = net::insert_request(rows.row(i), rows.ts[i]);
        let t0 = Instant::now();
        let req =
            mbi_server::http::read_request(&mut BufReader::new(bytes.as_slice())).expect("request");
        let v = serde_json::from_str(&req.body).expect("json");
        let vector: Vec<f32> = v
            .get("vector")
            .and_then(serde::Value::as_seq)
            .expect("vector")
            .iter()
            .map(|x| x.as_f64().expect("number") as f32)
            .collect();
        std::hint::black_box((vector, v.get("timestamp").and_then(serde::Value::as_i64)));
        per.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    median(&per)
}

/// Replays rows `[lo, hi)` through a fresh WAL in `dir`: per-append µs and
/// per-seal sync (`rotate`, every [`LEAF`] rows) ms.
fn wal_replay(rows: &Rows, lo: usize, hi: usize, dir: &Path) -> Result<(f64, f64), String> {
    let mut wal = Wal::create(dir, rows.dim()).map_err(|e| e.to_string())?;
    let mut append = Vec::with_capacity(hi - lo);
    let mut sync = Vec::new();
    for i in lo..hi {
        let t0 = Instant::now();
        wal.append(rows.ts[i], rows.row(i)).map_err(|e| e.to_string())?;
        append.push(t0.elapsed().as_secs_f64() * 1e6);
        if (i + 1) % LEAF == 0 {
            let t0 = Instant::now();
            wal.rotate().map_err(|e| e.to_string())?;
            sync.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    Ok((median(&append), median(&sync)))
}

fn put_zero(rep: &mut Report, names: &[(&str, &str)]) {
    for (n, u) in names {
        rep.put(n, 0.0, u);
    }
}

/// The WAL and persist metrics, zero where the workload keeps no log.
const WAL: [(&str, &str); 6] = [
    ("wal.append_us", "us"),
    ("wal.sync_ms", "ms"),
    ("wal.crc_mb_s", "MB/s"),
    ("wal.replay_ms", "ms"),
    ("persist.checkpoint_ms", "ms"),
    ("persist.load_ms", "ms"),
];

/// The tier metrics, zero where the workload serves no cold tenant.
const TIER: [(&str, &str); 8] = [
    ("tier.query_us", "us"),
    ("tier.query_p99_us", "us"),
    ("tier.overhead_us", "us"),
    ("tier.hit_rate", "ratio"),
    ("tier.misses_per_query", "count"),
    ("tier.evictions_per_query", "count"),
    ("tier.prefetches_per_query", "count"),
    ("tier.bytes_resident", "bytes"),
];

/// Reports the query-path layers from the recorder.
fn put_query_layers(rep: &mut Report, rec: &Recorder, cold: bool, math_ns: f64) {
    let client = rec.durations("client");
    let tenant = rec.durations("tenant");
    let engine = rec.durations("engine");
    let snapshot = rec.durations("snapshot");
    let select = rec.durations("select");
    rep.put("server.stack_us", median(&rec.self_time("client", "tenant")), "us");
    rep.put("wire.codec_us", median(&rec.durations("wire")), "us");
    rep.put("tenant.query_us", us(&tenant, 50.0), "us");
    rep.put("tenant.query_p99_us", us(&tenant, 99.0), "us");
    rep.put("engine.query_us", us(&engine, 50.0), "us");
    let tail = if cold { 0.0 } else { median(&rec.self_time("engine", "snapshot")) };
    rep.put("engine.tail_us", tail, "us");
    let tail_rows = rec.tail_rows.lock().expect("tail lock").clone();
    rep.put("engine.tail_rows", mean(&tail_rows), "count");
    rep.put("engine.tail_rows_max", tail_rows.iter().copied().fold(0.0, f64::max), "count");
    rep.put("select.us", median(&select), "us");
    let snap_us = us(&snapshot, 50.0);
    rep.put("snapshot.query_us", snap_us, "us");
    rep.put("snapshot.query_p99_us", us(&snapshot, 99.0), "us");
    let counts = rec.counts.lock().expect("counts lock");
    let field = |f: fn(&SearchStats) -> u64| {
        mean(&counts.values().map(|(s, _)| f(s) as f64).collect::<Vec<_>>())
    };
    let evals = field(|s| s.dist_evals);
    rep.put("ann.dist_evals", evals, "count");
    rep.put("ann.visited", field(|s| s.visited), "count");
    rep.put("ann.scanned", field(|s| s.scanned), "count");
    rep.put("ann.blocks_searched", field(|s| s.blocks_searched), "count");
    rep.put("ann.blocks_bruteforced", field(|s| s.blocks_bruteforced), "count");
    rep.put(
        "select.places",
        mean(&counts.values().map(|(_, p)| *p as f64).collect::<Vec<_>>()),
        "count",
    );
    rep.note(format!("ann.*: per-query means over {} replayed requests", counts.len()));
    rep.put("math.dist_ns", math_ns, "ns");
    // The counts include the engine's tail scan, so the share is taken of
    // the engine span, which did all of that work.
    let engine_mean = mean(&engine);
    let share = if engine_mean > 0.0 { evals * math_ns / (engine_mean * 1e3) } else { 0.0 };
    rep.put("math.kernel_share", share, "ratio");
    if cold {
        rep.put("tier.query_us", us(&engine, 50.0), "us");
        rep.put("tier.query_p99_us", us(&engine, 99.0), "us");
        rep.put("tier.overhead_us", median(&rec.self_time("engine", "snapshot")), "us");
    }
    // Reconcile: the share of each client span that no layer's self time
    // covers. The layers telescope from the client span down to
    // select_blocks, so what is left is the socket hop and the server's
    // own request handling outside the wire codec.
    let unattributed: Vec<f64> = rec
        .per_request()
        .values()
        .filter_map(|m| {
            let c = *m.get("client")?;
            Some((c - m.get("tenant")? - m.get("wire")?) / c)
        })
        .collect();
    let u = median(&unattributed);
    rep.put("trace.unattributed", u, "ratio");
    rep.put("trace.flagged", f64::from(u8::from(u > UNATTRIBUTED_LIMIT)), "count");
    if u > UNATTRIBUTED_LIMIT {
        rep.note(format!(
            "trace: FLAGGED {:.1}% of the client span is unattributed (limit {:.0}%); the server \
             has no internal spans, so socket and request handling are not split further",
            u * 100.0,
            UNATTRIBUTED_LIMIT * 100.0
        ));
    }
    rep.note(format!(
        "trace: client p50 {:.1} us = wire {:.1} + server stack {:.1} + tenant {:.1} (engine {:.1} \
         = snapshot {:.1} (select {:.1}) + tail/tier)",
        median(&client),
        median(&rec.durations("wire")),
        median(&rec.self_time("client", "tenant")),
        median(&tenant),
        median(&engine),
        median(&snapshot),
        median(&select),
    ));
}

/// The engine's insert timings (`inserts`, µs) and, for a phase that
/// wrote, its counters from `EngineStats` before and after it over `wall`
/// seconds; a read-only phase reports zero builds.
fn put_engine(
    rep: &mut Report,
    inserts: &[f64],
    phase: Option<(&EngineStats, &EngineStats, f64)>,
    queued_max: f64,
    stats_us: &[f64],
) {
    rep.put("engine.insert_us", us(inserts, 50.0), "us");
    rep.put("engine.insert_p99_us", us(inserts, 99.0), "us");
    let (builds, publish, seals, inline, wall) = match phase {
        Some((before, after, wall)) => (
            after.build_nanos[before.build_nanos.len()..].iter().map(|&n| n as f64 / 1e6).collect(),
            after.publish_nanos[before.publish_nanos.len()..]
                .iter()
                .map(|&(_, n)| n as f64 / 1e3)
                .collect(),
            after.seals - before.seals,
            after.inline_builds - before.inline_builds,
            wall,
        ),
        None => (Vec::new(), Vec::new(), 0, 0, 1.0),
    };
    rep.put("engine.queued_builds_max", queued_max, "count");
    rep.put("engine.inline_builds", inline as f64, "count");
    rep.put("engine.seals", seals as f64, "count");
    rep.put("engine.build_ms", mean(&builds), "ms");
    rep.put("engine.builder_busy", builds.iter().fold(0.0, |a, b| a + b) / 1e3 / wall, "ratio");
    rep.put("engine.publish_p99_us", us(&publish, 99.0), "us");
    rep.put("engine.stats_us", median(stats_us), "us");
}

fn insert_us(nanos: &[u64]) -> Vec<f64> {
    nanos.iter().map(|&n| n as f64 / 1e3).collect()
}

/// µs of each of 15 calls of `f`.
fn time_us<R>(f: impl Fn() -> R) -> Vec<f64> {
    (0..15)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}

/// `TierStats` per query between `a` and `b`, over `queries` queries.
fn put_tier(rep: &mut Report, a: &TierStats, b: &TierStats, queries: usize) {
    let n = queries.max(1) as f64;
    let (hits, misses) = ((b.hits - a.hits) as f64, (b.misses - a.misses) as f64);
    let hit_rate = if hits + misses > 0.0 { hits / (hits + misses) } else { 0.0 };
    rep.put("tier.hit_rate", hit_rate, "ratio");
    rep.put("tier.misses_per_query", misses / n, "count");
    rep.put("tier.evictions_per_query", (b.evictions - a.evictions) as f64 / n, "count");
    rep.put("tier.prefetches_per_query", (b.prefetches - a.prefetches) as f64 / n, "count");
    rep.put("tier.bytes_resident", b.bytes_resident as f64, "bytes");
    rep.note(format!("tier: budget {} bytes; counters over the untraced half", b.budget_bytes));
}

fn streaming(t: &Tenant) -> &StreamingMbi {
    match &t.engine {
        TenantEngine::Streaming(e) => e,
        _ => panic!("expected a streaming tenant"),
    }
}

/// Runs `kind` traced and reports the per-layer metrics.
pub fn run(opts: &Opts, kind: Kind, work: &Path) -> Result<Report, String> {
    let mut rep = Report::default();
    let mut tally = Tally::default();
    let (rows, queries) = wl::inputs(kind, opts.seconds, opts.seed);
    let tenant_dir = work.join("tenant");
    let durable = kind != Kind::WindowSweep;
    let flags = wl::serve_flags(&rows, durable.then_some(tenant_dir.as_path()));
    let base = if kind == Kind::RecentIngest { wl::BASE_ROWS } else { rows.len() };
    let mut ins = Vec::new();

    // Set-up, once: as in the untraced run, but in this process.
    let handle = start(&flags, None)?;
    wl::ingest(handle.addr(), &rows, 0, base, &mut ins, &mut tally)?;
    net::wait_published(&mut net::binary(handle.addr())?, base as u64)?;
    let setup_stats = streaming(&tenant_of(&handle)).stats();
    let mut ram = None;
    let (handle, serve_flags, budget) = match kind {
        Kind::WindowSweep => (handle, flags.clone(), None),
        Kind::ColdBudget | Kind::RecentIngest => {
            let t0 = Instant::now();
            streaming(&tenant_of(&handle)).checkpoint().map_err(|e| e.to_string())?;
            rep.put("persist.checkpoint_ms", t0.elapsed().as_secs_f64() * 1e3, "ms");
            handle.shutdown();
            if kind == Kind::RecentIngest {
                (start(&flags, None)?, flags.clone(), None)
            } else {
                let file = tenant_dir.join(SNAPSHOT_FILE);
                let t0 = Instant::now();
                let snap = IndexSnapshot::load_file(&file).map_err(|e| e.to_string())?;
                rep.put("persist.load_ms", t0.elapsed().as_secs_f64() * 1e3, "ms");
                ram = Some(snap);
                let budget = wl::cold_budget(&file)?;
                let cold_flags = wl::serve_flags(&rows, Some(&file));
                (start(&cold_flags, Some(budget))?, cold_flags, Some(budget))
            }
        }
    };
    let env: Vec<(String, String)> =
        budget.map(|b| vec![("MBI_RAM_BUDGET".to_string(), b.to_string())]).unwrap_or_default();
    let shape = wl::Shape {
        preset: kind.preset().name,
        rows: rows.len(),
        dim: rows.dim(),
        metric: rows.metric.name(),
    };
    crate::header(opts, &shape, &serve_flags, &env);
    let addr = handle.addr();
    let tenant = tenant_of(&handle);
    wl::first_query(&mut net::binary(addr)?, &rows, base, &queries[0], &mut tally)?;

    let rec = Recorder::new();
    match kind {
        Kind::WindowSweep | Kind::ColdBudget => {
            let served = Served { addr, tenant: &tenant, ram: ram.as_ref() };
            sweep(opts, &mut rep, &mut tally, &rec, &served, &rows, &queries, work)?;
            rep.put("http.insert_parse_us", http_parse_us(&rows, 0, 2048.min(base)), "us");
            // The measured phase is read-only: no builds; the insert timings
            // are the set-up ingest's.
            let stats_us = match &tenant.engine {
                TenantEngine::Cold(c) => time_us(|| c.stats()),
                _ => time_us(|| streaming(&tenant).stats()),
            };
            put_engine(&mut rep, &insert_us(&setup_stats.insert_nanos), None, 0.0, &stats_us);
        }
        Kind::RecentIngest => {
            recent(opts, &mut rep, &mut tally, &rec, addr, &tenant, &rows, &queries, work)?;
        }
    }
    put_query_layers(&mut rep, &rec, kind == Kind::ColdBudget, dist_ns(&rows, &queries[0]));
    let final_stats = net::parse_stats(&net::binary(addr)?.stats().map_err(|e| e.to_string())?)?;
    rep.put("server.shed", final_stats.shed as f64, "count");
    rep.put("server.timed_out", final_stats.timeouts as f64, "count");
    rep.put("coalesce.ratio", final_stats.coalesce_ratio, "ratio");
    if kind == Kind::RecentIngest {
        crash_recover(&mut rep, handle, &tenant, &tenant_dir)?;
    } else {
        handle.shutdown();
    }
    let path = Path::new(".bench_build")
        .join("perfbench-trace")
        .join(format!("{}-{}.jsonl", opts.workload, opts.seed));
    let n = rec.write(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    rep.put("trace.spans", n as f64, "count");
    rep.note(format!("trace: {n} spans written to {}", path.display()));
    rep.tally.merge(tally);
    Ok(rep)
}

/// The served tenant of a traced run.
struct Served<'a> {
    addr: std::net::SocketAddr,
    tenant: &'a Tenant,
    /// cold_budget: the checkpoint loaded into RAM, for the tier overhead.
    ram: Option<&'a IndexSnapshot>,
}

/// window_sweep and cold_budget: an untraced and a traced closed-loop half,
/// the first 60 pool entries replayed layer by layer.
#[allow(clippy::too_many_arguments)]
fn sweep(
    opts: &Opts,
    rep: &mut Report,
    tally: &mut Tally,
    rec: &Recorder,
    served: &Served,
    rows: &Rows,
    queries: &[Vec<f32>],
    work: &Path,
) -> Result<(), String> {
    let addr = served.addr;
    let mut pool = data::sweep_pool(rows, queries, wl::POOL_PER_FRACTION, opts.seed);
    let half = opts.seconds / 2.0;
    let tier = || match &served.tenant.engine {
        TenantEngine::Cold(c) => Some(c.stats()),
        _ => None,
    };
    let tier0 = tier();
    let plain = wl::closed_loop(addr, &pool, queries, half, |_, _, _| {});
    let tier1 = tier();
    let replay = |entry: usize, e: &PoolEntry, rtt: f64| {
        if entry < SAMPLE {
            let work = rec.replay(served.tenant, served.ram, &queries[e.query], e.window, rtt);
            // The first replay of each entry: the same requests on every
            // run, so the counts repeat exactly.
            rec.counts.lock().expect("counts lock").entry(entry).or_insert(work);
        }
    };
    let traced = wl::closed_loop(addr, &pool, queries, half, replay);
    // Entries the traced half did not reach are replayed once now, so the
    // work counts always cover the same requests.
    for (entry, e) in pool.iter().enumerate().take(SAMPLE) {
        if !rec.counts.lock().expect("counts lock").contains_key(&entry) {
            let mut c = net::binary(addr)?;
            let t0 = Instant::now();
            c.query(&queries[e.query], K, e.window, None).map_err(|e| e.to_string())?;
            replay(entry, e, t0.elapsed().as_secs_f64());
        }
    }
    data::fill_truth(rows, queries, &mut pool, K);
    for phase in [&plain, &traced] {
        wl::check_closed(rows, &pool, phase, tally);
    }
    let p50 = |c: &wl::Closed| median(&c.replies.iter().map(|r| r.latency).collect::<Vec<_>>());
    rep.put("trace.overhead", p50(&traced) / p50(&plain), "ratio");
    rep.put("gen.late_p99_ms", 0.0, "ms");
    match (tier0, tier1) {
        (Some(a), Some(b)) => {
            put_tier(rep, &a, &b, plain.replies.len());
            // The set-up wrote through the WAL; replay that stream.
            let (append, sync) = wal_replay(rows, 0, rows.len(), &work.join("wal-replay"))?;
            rep.put("wal.append_us", append, "us");
            rep.put("wal.sync_ms", sync, "ms");
            rep.put("wal.crc_mb_s", crc_mb_s(rows), "MB/s");
            rep.put("wal.replay_ms", 0.0, "ms");
        }
        _ => {
            put_zero(rep, &TIER);
            put_zero(rep, &WAL);
        }
    }
    for phase in [plain, traced] {
        tally.merge(phase.tally);
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn recent(
    opts: &Opts,
    rep: &mut Report,
    tally: &mut Tally,
    rec: &Recorder,
    addr: std::net::SocketAddr,
    tenant: &Tenant,
    rows: &Rows,
    queries: &[Vec<f32>],
    work: &Path,
) -> Result<(), String> {
    let e = streaming(tenant);
    let half = opts.seconds / 2.0;
    let before = e.stats();
    let t0 = Instant::now();
    let (plain, asked_plain) =
        wl::open_loop(addr, rows, queries, wl::BASE_ROWS, half, opts.seed, tally, |_, _, _| {})?;
    let queued_max = Mutex::new(0.0f64);
    let stats_us = Mutex::new(Vec::new());
    let seen = std::sync::atomic::AtomicU64::new(0);
    let (traced, asked_traced) = wl::open_loop(
        addr,
        rows,
        queries,
        plain.acked,
        half,
        opts.seed ^ 1,
        tally,
        |q, w, rtt| {
            let i = seen.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if i.is_multiple_of(RECENT_EVERY) {
                let work = rec.replay(tenant, None, q, w, rtt);
                rec.counts.lock().expect("counts lock").insert(i as usize, work);
                let t0 = Instant::now();
                let s = e.stats();
                stats_us.lock().expect("stats lock").push(t0.elapsed().as_secs_f64() * 1e6);
                let mut m = queued_max.lock().expect("queued lock");
                *m = m.max(s.queued_builds as f64);
            }
        },
    )?;
    let wall = t0.elapsed().as_secs_f64();
    let after = e.stats();
    let checked = |asked: &[wl::Asked], t: &mut Tally| wl::check_open(rows, queries, asked, t);
    checked(&asked_plain, tally);
    checked(&asked_traced, tally);
    let lat = |o: &wl::Open| {
        median(
            &o.queries.iter().filter(|p| p.ok).map(|p| p.latency.as_secs_f64()).collect::<Vec<_>>(),
        )
    };
    rep.put("trace.overhead", lat(&traced) / lat(&plain), "ratio");
    let mut late: Vec<f64> =
        plain.inserts.iter().chain(&plain.queries).map(|p| p.late.as_secs_f64() * 1e3).collect();
    rep.put("gen.late_p99_ms", percentile(&mut late, 99.0), "ms");
    // The engine state moves under ingest, so recent_ingest's work counts
    // are means over every replay rather than exact repeats.
    put_engine(
        rep,
        &insert_us(&after.insert_nanos[before.insert_nanos.len()..]),
        Some((&before, &after, wall)),
        *queued_max.lock().expect("queued lock"),
        &stats_us.lock().expect("stats lock"),
    );
    put_zero(rep, &TIER);
    let lo = wl::BASE_ROWS;
    let hi = traced.acked;
    rep.put("http.insert_parse_us", http_parse_us(rows, lo, (lo + 2048).min(hi)), "us");
    let (append, sync) = wal_replay(rows, lo, hi, &work.join("wal-replay"))?;
    rep.put("wal.append_us", append, "us");
    rep.put("wal.sync_ms", sync, "ms");
    rep.put("wal.crc_mb_s", crc_mb_s(rows), "MB/s");
    Ok(())
}

/// A crash of the in-process server: wait for the builders (they touch no
/// file), abandon the engine without draining or checkpointing, then time
/// the recovery's snapshot load and WAL replay.
fn crash_recover(
    rep: &mut Report,
    handle: ServerHandle,
    tenant: &Arc<Tenant>,
    dir: &Path,
) -> Result<(), String> {
    streaming(tenant).flush();
    handle.abort();
    let t0 = Instant::now();
    let snap = IndexSnapshot::load_file(dir.join(SNAPSHOT_FILE)).map_err(|e| e.to_string())?;
    let load = t0.elapsed().as_secs_f64() * 1e3;
    drop(snap);
    let t0 = Instant::now();
    let recovered =
        StreamingMbi::recover(dir, EngineConfig::default()).map_err(|e| e.to_string())?;
    let total = t0.elapsed().as_secs_f64() * 1e3;
    rep.put("persist.load_ms", load, "ms");
    rep.put("wal.replay_ms", (total - load).max(0.0), "ms");
    drop(recovered);
    Ok(())
}
