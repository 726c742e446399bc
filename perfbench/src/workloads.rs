//! The three workloads against a `mbi serve` child, and the set-up they
//! share with the traced run.

use crate::check::{self, Tally};
use crate::data::{self, PoolEntry, Rows};
use crate::net::{self, HttpConn, ServeChild, TENANT, TOKEN};
use crate::openloop;
use crate::stats::{
    mean, over_time_slices, percentile, recall, sliced_percentile, supported_percentile,
    SLICES_MAX, SLICE_MIN,
};
use crate::{Opts, Report};
use mbi_core::{TimeWindow, TknnResult};
use mbi_data::presets::{DatasetPreset, COMS, SIFT1M};
use mbi_server::{BinaryClient, Server, ServerConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::io::Write;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Neighbours per query.
pub const K: usize = 10;
/// `mbi serve`'s default leaf size; row counts are multiples of it.
pub const LEAF: usize = 4096;
/// Rows of the window_sweep and cold_budget index: six leaves, so the tree
/// has three levels (leaf, 2-leaf and 4-leaf blocks).
pub const SWEEP_ROWS: usize = 6 * LEAF;
/// Held-out query vectors.
pub const HELD_OUT: usize = 60;
/// Pool entries per Figure 5 fraction in the closed loop.
pub const POOL_PER_FRACTION: usize = 40;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Closed-loop clients (one per core of the 2-vCPU reference host).
pub const CLIENTS: usize = 2;
/// Period of the monitoring `STATS` scrape: ten a second, so a run holds
/// enough scrapes for a steady median.
pub const STATS_EVERY: Duration = Duration::from_millis(100);
/// Rows recent_ingest's tenant holds before the open loop starts.
pub const BASE_ROWS: usize = 3 * LEAF;
/// recent_ingest insert rate (rows/s): a leaf seals about every three
/// seconds and the background builder, whose chain builds take both vCPUs,
/// is busy about a quarter of the time. Near one half the medians would sit
/// on the edge between operations that meet a build and those that do not,
/// and swing from run to run.
pub const INSERT_RATE: f64 = 1400.0;
/// recent_ingest query rate (queries/s), a tenth of window_sweep's
/// closed-loop rate; enough queries for p99 in two-second slices.
pub const QUERY_RATE: f64 = 500.0;
/// cold_budget's RAM budget, in percent of the checkpoint file's size.
pub const COLD_BUDGET_PERCENT: u64 = 10;

/// Which workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Closed-loop Figure 5 window sweep on an in-memory tenant.
    WindowSweep,
    /// The same queries on the checkpoint served as a cold tenant.
    ColdBudget,
    /// Open-loop inserts and recent-window queries on a durable tenant.
    RecentIngest,
}

impl Kind {
    fn parse(name: &str) -> Result<Kind, String> {
        match name {
            "window_sweep" => Ok(Kind::WindowSweep),
            "cold_budget" => Ok(Kind::ColdBudget),
            "recent_ingest" => Ok(Kind::RecentIngest),
            other => Err(format!("unknown workload {other:?}")),
        }
    }

    /// The dataset stand-in the workload uses.
    pub fn preset(self) -> &'static DatasetPreset {
        match self {
            Kind::RecentIngest => &SIFT1M,
            _ => &COMS,
        }
    }
}

/// Data shape, for the header.
pub struct Shape {
    /// Preset name.
    pub preset: &'static str,
    /// Rows generated.
    pub rows: usize,
    /// Vector dimension.
    pub dim: usize,
    /// Metric name.
    pub metric: &'static str,
}

/// Rows the workload generates for a run of `seconds`.
pub fn rows_for(kind: Kind, seconds: f64) -> usize {
    match kind {
        Kind::RecentIngest => BASE_ROWS + (INSERT_RATE * seconds * 1.2) as usize + LEAF,
        _ => SWEEP_ROWS,
    }
}

/// Generates the workload's rows and held-out queries.
pub fn inputs(kind: Kind, seconds: f64, seed: u64) -> (Rows, Vec<Vec<f32>>) {
    data::generate(kind.preset(), rows_for(kind, seconds), HELD_OUT, seed)
}

/// `mbi serve` flags: the CLI defaults plus the data's dimension and
/// metric, one tenant, an ephemeral port.
pub fn serve_flags(rows: &Rows, tenant_path: Option<&Path>) -> Vec<String> {
    let tenant = match tenant_path {
        Some(p) => format!("{TENANT}:{TOKEN}:{}", p.display()),
        None => format!("{TENANT}:{TOKEN}"),
    };
    let dim = rows.dim().to_string();
    [
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--dim",
        &dim,
        "--metric",
        rows.metric.name(),
        "--tenants",
        &tenant,
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// `mbi serve`'s configuration for `flags`, with the cold tenants' RAM
/// budget set to `budget`. `mbi serve` gives every cold tenant an explicit
/// share of the index config's budget (unlimited), and an explicit budget
/// overrides `MBI_RAM_BUDGET`; so the benchmark sets the config's budget.
pub fn server_config(flags: &[String], budget: Option<u64>) -> Result<ServerConfig, String> {
    let args = mbi_cli::CliArgs::parse(flags).map_err(|e| e.to_string())?;
    let mut config = mbi_cli::serve::parse_serve_config(&args).map_err(|e| e.to_string())?;
    if let Some(b) = budget {
        config.index.ram_budget_bytes = b;
    }
    Ok(config)
}

/// `perfbench serve-child <serve flags>`: `mbi serve` with `MBI_RAM_BUDGET`
/// applied as the cold tenants' budget. Used for the cold tenant only.
pub fn serve_child(flags: &[String]) -> Result<(), String> {
    let budget = match std::env::var("MBI_RAM_BUDGET") {
        Ok(v) => Some(v.trim().parse().map_err(|_| format!("bad MBI_RAM_BUDGET {v:?}"))?),
        Err(_) => None,
    };
    let handle = Server::start(server_config(flags, budget)?).map_err(|e| e.to_string())?;
    let mut out = std::io::stdout();
    let _ =
        writeln!(out, "serving 1 tenant(s) [{TENANT}] on {} (HTTP + MBI1 binary)", handle.addr());
    let _ = out.flush();
    mbi_server::signal::install_handlers();
    handle.wait_for_shutdown();
    Ok(())
}

/// Inserts rows `[lo, hi)` closed-loop over one keep-alive HTTP connection,
/// checking each acked id, and appends each ack latency (seconds).
pub fn ingest(
    addr: SocketAddr,
    rows: &Rows,
    lo: usize,
    hi: usize,
    lat: &mut Vec<f64>,
    tally: &mut Tally,
) -> Result<(), String> {
    let mut conn = HttpConn::connect(addr).map_err(|e| format!("http connect: {e}"))?;
    for i in lo..hi {
        let request = net::insert_request(rows.row(i), rows.ts[i]);
        let t0 = Instant::now();
        let id = conn.insert(&request).map_err(|e| format!("insert of row {i}: {e}"))?;
        lat.push(t0.elapsed().as_secs_f64());
        tally.attempted += 1;
        if id as usize != i {
            tally.wrong(format!("row {i} acked as id {id}"));
        }
    }
    Ok(())
}

/// Sends one full-window query and checks the reply; the end of set-up.
pub fn first_query(
    client: &mut BinaryClient,
    rows: &Rows,
    n: usize,
    q: &[f32],
    tally: &mut Tally,
) -> Result<(), String> {
    let w = TimeWindow::new(rows.ts[0], rows.ts[n - 1] + 1);
    let reply = client.query(q, K, w, None).map_err(|e| format!("first query: {e}"))?;
    tally.attempted += 1;
    if reply.timed_out {
        return Err("first query timed out".into());
    }
    check::reply(rows, w, n, K, &reply.results).map_err(|e| format!("first query: {e}"))
}

/// What a workload's set-up leaves running.
struct Setup {
    server: ServeChild,
    /// The tenant's durable directory or cold file, if any.
    path: Option<PathBuf>,
    flags: Vec<String>,
    env: Vec<(String, String)>,
}

fn spawn_mbi(opts: &Opts, flags: &[String]) -> Result<ServeChild, String> {
    ServeChild::spawn(&opts.mbi, flags, &[])
}

/// One set-up: start the server, ingest, wait until every build is
/// published, and for cold_budget and recent_ingest stop gracefully (the
/// drain writes the checkpoint) and serve the checkpoint.
fn setup_once(
    opts: &Opts,
    kind: Kind,
    dir: &Path,
    rows: &Rows,
    ins: &mut Vec<f64>,
    tally: &mut Tally,
) -> Result<Setup, String> {
    let base = if kind == Kind::RecentIngest { BASE_ROWS } else { rows.len() };
    let tenant_dir = dir.join("tenant");
    let durable = kind != Kind::WindowSweep;
    let flags = serve_flags(rows, durable.then_some(tenant_dir.as_path()));
    let server = spawn_mbi(opts, &flags)?;
    ingest(server.addr, rows, 0, base, ins, tally)?;
    net::wait_published(&mut net::binary(server.addr)?, base as u64)?;
    match kind {
        Kind::WindowSweep => Ok(Setup { server, path: None, flags, env: Vec::new() }),
        Kind::RecentIngest => {
            server.terminate()?;
            let server = spawn_mbi(opts, &flags)?;
            Ok(Setup { server, path: Some(tenant_dir), flags, env: Vec::new() })
        }
        Kind::ColdBudget => {
            server.terminate()?;
            let file = tenant_dir.join("snapshot.mbi");
            let budget = cold_budget(&file)?;
            let flags = serve_flags(rows, Some(&file));
            let env = vec![("MBI_RAM_BUDGET".to_string(), budget.to_string())];
            let me = std::env::current_exe().map_err(|e| e.to_string())?;
            let mut argv = vec!["serve-child".to_string()];
            argv.extend(flags.iter().cloned());
            let server = ServeChild::spawn(&me, &argv, &env)?;
            Ok(Setup { server, path: Some(file), flags: argv, env })
        }
    }
}

/// cold_budget's RAM budget for the checkpoint at `file`.
pub fn cold_budget(file: &Path) -> Result<u64, String> {
    let len = std::fs::metadata(file).map_err(|e| format!("{}: {e}", file.display()))?.len();
    Ok(len * COLD_BUDGET_PERCENT / 100)
}

/// Bytes of every file under `path`.
pub fn disk_bytes(path: &Path) -> u64 {
    match std::fs::metadata(path) {
        Ok(m) if m.is_file() => m.len(),
        Ok(m) if m.is_dir() => std::fs::read_dir(path)
            .map(|it| it.flatten().map(|e| disk_bytes(&e.path())).sum())
            .unwrap_or(0),
        _ => 0,
    }
}

/// One reply of the closed loop.
pub struct Reply {
    /// Pool entry asked.
    pub entry: usize,
    /// Round-trip time, seconds.
    pub latency: f64,
    /// Completion time, seconds since the phase started.
    pub done: f64,
    /// Answer.
    pub results: Vec<TknnResult>,
}

/// What a closed-loop phase observed.
#[derive(Default)]
pub struct Closed {
    /// Successful replies.
    pub replies: Vec<Reply>,
    /// `STATS` scrapes: (completion, latency), seconds.
    pub stats_lat: Vec<(f64, f64)>,
    /// Operations and failures.
    pub tally: Tally,
    /// Wall time of the phase, seconds.
    pub elapsed: f64,
}

/// `CLIENTS` closed-loop binary clients cycle through `pool` for `seconds`;
/// client 0 also scrapes `STATS` every [`STATS_EVERY`]. `after` runs after
/// each reply (the traced run hooks its replays there).
pub fn closed_loop<F>(
    addr: SocketAddr,
    pool: &[PoolEntry],
    queries: &[Vec<f32>],
    seconds: f64,
    after: F,
) -> Closed
where
    F: Fn(usize, &PoolEntry, f64) + Sync,
{
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let parts: Vec<Closed> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let after = &after;
                s.spawn(move || {
                    let mut part = Closed::default();
                    let mut client = match net::binary(addr) {
                        Ok(cl) => cl,
                        Err(e) => {
                            part.tally.record(Err(format!("connect: {e}")));
                            return part;
                        }
                    };
                    let mut next_scrape = start + STATS_EVERY;
                    let mut j = c;
                    while Instant::now() < end {
                        let entry = j % pool.len();
                        let e = &pool[entry];
                        let t0 = Instant::now();
                        let got = client.query(&queries[e.query], K, e.window, None);
                        let latency = t0.elapsed().as_secs_f64();
                        part.tally.attempted += 1;
                        match got {
                            Ok(r) if r.timed_out => part.tally.fail("query timed out".into()),
                            Ok(r) => {
                                let done = start.elapsed().as_secs_f64();
                                part.replies.push(Reply {
                                    entry,
                                    latency,
                                    done,
                                    results: r.results,
                                });
                                after(entry, e, latency);
                            }
                            Err(err) => {
                                part.tally.fail(format!("query: {err}"));
                                match net::binary(addr) {
                                    Ok(cl) => client = cl,
                                    Err(_) => break,
                                }
                            }
                        }
                        j += CLIENTS;
                        if c == 0 && Instant::now() >= next_scrape {
                            next_scrape += STATS_EVERY;
                            let t0 = Instant::now();
                            let got = client.stats();
                            let lat = t0.elapsed().as_secs_f64();
                            part.stats_lat.push((start.elapsed().as_secs_f64(), lat));
                            part.tally.record(got.map(|_| ()).map_err(|e| format!("stats: {e}")));
                        }
                    }
                    part
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut all = Closed { elapsed: start.elapsed().as_secs_f64(), ..Closed::default() };
    for p in parts {
        all.replies.extend(p.replies);
        all.stats_lat.extend(p.stats_lat);
        all.tally.merge(p.tally);
    }
    all
}

/// Checks every closed-loop reply against its pool entry and returns the
/// mean recall@10.
pub fn check_closed(rows: &Rows, pool: &[PoolEntry], closed: &Closed, tally: &mut Tally) -> f64 {
    let mut recalls = Vec::with_capacity(closed.replies.len());
    for r in &closed.replies {
        let e = &pool[r.entry];
        if let Err(m) = check::reply(rows, e.window, e.rows_in_window, K, &r.results) {
            tally.wrong(m);
            continue;
        }
        let ids: Vec<u32> = r.results.iter().map(|x| x.id).collect();
        recalls.push(recall(&ids, &e.truth, K));
    }
    mean(&recalls)
}

/// Reports p50 (or `p50`, when the caller defines the median otherwise)
/// and p99 of `lat` (seconds, in completion order) in ms under `name`, each
/// as the median over slices of the run ([`sliced_percentile`]), with the
/// highest percentile the whole sample supports.
pub fn put_latency(rep: &mut Report, name: &str, lat: &[f64], p50: Option<f64>) {
    let ms: Vec<f64> = lat.iter().map(|s| s * 1e3).collect();
    let p50 = p50.unwrap_or_else(|| sliced_percentile(&ms, 50.0));
    rep.put(&format!("{name}_p50_ms"), p50, "ms");
    rep.put(&format!("{name}_p99_ms"), sliced_percentile(&ms, 99.0), "ms");
    let slices = (ms.len() / SLICE_MIN).clamp(1, SLICES_MAX);
    match supported_percentile(ms.len()) {
        Some(p) => {
            let top = percentile(&mut ms.clone(), p);
            rep.note(format!(
                "{name}: n={} in {slices} slices; whole-run p99 {:.4} ms, highest supported \
                 percentile p{p} = {top:.4} ms",
                ms.len(),
                percentile(&mut ms.clone(), 99.0)
            ));
            if p < 99.0 {
                rep.note(format!("{name}: WARNING p99 has fewer than ten samples beyond it"));
            }
        }
        None => rep.note(format!("{name}: n={} supports no percentile", ms.len())),
    }
}

/// Runs the workload named in `opts`.
pub fn run(opts: &Opts, work: &Path) -> Result<Report, String> {
    let kind = Kind::parse(&opts.workload)?;
    if opts.trace {
        return crate::trace::run(opts, kind, work);
    }
    let mut rep = Report::default();
    let mut setup_s = Vec::new();
    let mut ins = Vec::new();
    let mut tally = Tally::default();
    let mut last = None;
    for r in 0..SETUP_REPS {
        // The previous set-up's server is stopped before the next starts.
        drop(last.take());
        let dir = work.join(format!("rep{r}"));
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let (rows, queries) = inputs(kind, opts.seconds, opts.seed);
        let setup = setup_once(opts, kind, &dir, &rows, &mut ins, &mut tally)?;
        let n = if kind == Kind::RecentIngest { BASE_ROWS } else { rows.len() };
        let mut client = net::binary(setup.server.addr)?;
        first_query(&mut client, &rows, n, &queries[0], &mut tally)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        last = Some((setup, rows, queries));
    }
    let (setup, rows, queries) = last.expect("at least one set-up");
    let shape = Shape {
        preset: kind.preset().name,
        rows: rows.len(),
        dim: rows.dim(),
        metric: rows.metric.name(),
    };
    crate::header(opts, &shape, &setup.flags, &setup.env);
    rep.put("setup_s", crate::stats::median(&setup_s), "s");
    rep.note(format!("setup_s: median of {SETUP_REPS} set-ups: {setup_s:?}"));
    // Every workload bulk-loads closed-loop in set-up; that ack latency is
    // computed the same way everywhere and is light on CPU, so it stays
    // steady when the shared host slows compute-heavy work.
    put_latency(&mut rep, "insert", &ins, None);
    rep.note("insert: closed-loop HTTP/JSON keep-alive acks of the set-up ingest (all set-ups)");
    match kind {
        Kind::WindowSweep | Kind::ColdBudget => {
            sweep_measure(opts, kind, &setup, &rows, &queries, &mut rep, &mut tally)?
        }
        Kind::RecentIngest => recent_measure(opts, setup, &rows, &queries, &mut rep, &mut tally)?,
    }
    rep.tally.merge(tally);
    let attempted = rep.tally.attempted.max(1) as f64;
    rep.put("error_ratio", rep.tally.failed as f64 / attempted, "ratio");
    Ok(rep)
}

fn sweep_measure(
    opts: &Opts,
    kind: Kind,
    setup: &Setup,
    rows: &Rows,
    queries: &[Vec<f32>],
    rep: &mut Report,
    tally: &mut Tally,
) -> Result<(), String> {
    let mut pool = data::sweep_pool(rows, queries, POOL_PER_FRACTION, opts.seed);
    rep.note(format!(
        "closed loop: {CLIENTS} binary clients, k={K}, {} pool entries over fractions {:?}",
        pool.len(),
        data::FIG5_FRACTIONS
    ));
    let cpu0 = setup.server.cpu_seconds();
    let closed = closed_loop(setup.server.addr, &pool, queries, opts.seconds, |_, _, _| {});
    let cpu = setup.server.cpu_seconds() - cpu0;
    let rss = setup.server.peak_rss_mib();
    let ops = closed.replies.len() + closed.stats_lat.len();
    rep.put("server_cpu_us_per_op", cpu * 1e6 / ops.max(1) as f64, "us");
    data::fill_truth(rows, queries, &mut pool, K);
    let rec = check_closed(rows, &pool, &closed, tally);
    let mut order: Vec<&Reply> = closed.replies.iter().collect();
    order.sort_by(|a, b| a.done.total_cmp(&b.done));
    let lat: Vec<f64> = order.iter().map(|r| r.latency).collect();
    // The pool interleaves the fractions, so entry i has fraction i mod 6.
    // Latency is multi-modal across fractions and the overall median falls
    // in the gap between the 10% and 20% groups, where it jumps with the
    // mix; the median of the per-fraction medians does not.
    let n_fractions = data::FIG5_FRACTIONS.len();
    let by_fraction = |replies: &[&Reply]| -> Vec<f64> {
        (0..n_fractions)
            .map(|f| {
                let mut l: Vec<f64> = replies
                    .iter()
                    .filter(|r| r.entry % n_fractions == f)
                    .map(|r| r.latency * 1e3)
                    .collect();
                percentile(&mut l, 50.0)
            })
            .collect()
    };
    rep.note(format!(
        "query p50 (ms) by window fraction {:?}: {:?}",
        data::FIG5_FRACTIONS,
        by_fraction(&order).iter().map(|x| (x * 1e4).round() / 1e4).collect::<Vec<_>>()
    ));
    // Per time slice, then the median over slices (see `over_time_slices`).
    let slice = closed.elapsed / SLICES_MAX as f64;
    let p50_by_slice: Vec<f64> = (0..SLICES_MAX)
        .map(|s| {
            let (lo, hi) = (s as f64 * slice, (s + 1) as f64 * slice);
            let part: Vec<&Reply> =
                order.iter().copied().filter(|r| r.done >= lo && r.done < hi).collect();
            crate::stats::median(&by_fraction(&part))
        })
        .collect();
    put_latency(rep, "query", &lat, Some(crate::stats::median(&p50_by_slice)));
    rep.note(format!(
        "query_p50_ms: median over {SLICES_MAX} time slices of the median of the six \
         per-fraction medians; query_qps: median over the slices' completion rates"
    ));
    let done: Vec<(f64, f64)> = order.iter().map(|r| (r.done, 1.0)).collect();
    let rate = |v: &mut Vec<f64>, len: f64| v.len() as f64 / len;
    rep.put("query_qps", over_time_slices(&done, closed.elapsed, SLICES_MAX, rate), "1/s");
    rep.put("recall_at_10", rec, "ratio");
    let med = |v: &mut Vec<f64>, _: f64| crate::stats::median(v) * 1e3;
    rep.put(
        "stats_p50_ms",
        over_time_slices(&closed.stats_lat, closed.elapsed, SLICES_MAX, med),
        "ms",
    );
    rep.put("rss_peak_mb", rss, "MiB");
    if kind == Kind::ColdBudget {
        let file = setup.path.as_deref().expect("cold set-up has a file");
        rep.put(
            "storage_amp",
            disk_bytes(file) as f64 / rows.user_bytes(rows.len()) as f64,
            "ratio",
        );
        rep.note(format!(
            "cold: budget {COLD_BUDGET_PERCENT}% of the checkpoint file; the OS page cache stays \
             warm, so a miss is a block-cache miss (fault, CRC, decode), not a disk seek"
        ));
    }
    tally.merge(closed.tally);
    Ok(())
}

/// One open-loop query of recent_ingest and its answer.
pub struct Asked {
    acked: usize,
    window: TimeWindow,
    query: usize,
    results: Vec<TknnResult>,
}

/// The window of recent_ingest's `i`-th query over the first `acked` rows:
/// mostly the newest 1–10%, one in five the whole history.
pub fn recent_window(rows: &Rows, acked: usize, seed: u64, i: u64) -> TimeWindow {
    let mut rng = SmallRng::seed_from_u64(seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let fraction = match rng.gen_range(0..5) {
        0 => 1.0,
        _ => [0.01, 0.02, 0.05, 0.10][rng.gen_range(0..4usize)],
    };
    data::window(rows, acked, fraction, 0.0, true)
}

/// What the open loop of recent_ingest observed.
pub struct Open {
    /// Insert timings.
    pub inserts: Vec<openloop::Paced>,
    /// Query timings.
    pub queries: Vec<openloop::Paced>,
    /// `STATS` scrapes: (completion, latency), seconds.
    pub stats_lat: Vec<(f64, f64)>,
    /// Rows acked when the loop ended.
    pub acked: usize,
    /// Wall time, seconds.
    pub elapsed: f64,
}

/// recent_ingest's open loop from row `first_row` on: one HTTP connection
/// inserts at [`INSERT_RATE`]; one binary connection queries at
/// [`QUERY_RATE`] with windows ending at the newest acked row and scrapes
/// `STATS` every [`STATS_EVERY`]. `after` sees each answered query's
/// vector, window and round trip in seconds (the traced run replays it).
#[allow(clippy::too_many_arguments)]
pub fn open_loop<F>(
    addr: SocketAddr,
    rows: &Rows,
    queries: &[Vec<f32>],
    first_row: usize,
    seconds: f64,
    seed: u64,
    tally: &mut Tally,
    after: F,
) -> Result<(Open, Vec<Asked>), String>
where
    F: Fn(&[f32], TimeWindow, f64) + Sync,
{
    let requests: Vec<Vec<u8>> =
        (first_row..rows.len()).map(|i| net::insert_request(rows.row(i), rows.ts[i])).collect();
    let acked = AtomicUsize::new(first_row);
    let stop = AtomicBool::new(false);
    let mut conn = HttpConn::connect(addr).map_err(|e| format!("http connect: {e}"))?;
    let client = RefCell::new(net::binary(addr)?);
    let start = Instant::now() + Duration::from_millis(20);
    let end = start + Duration::from_secs_f64(seconds);
    let (inserts, insert_tally, (queried, asked, stats_lat, query_tally)) =
        std::thread::scope(|s| {
            let inserter = s.spawn(|| {
                let mut t = Tally::default();
                let paced = openloop::run(
                    INSERT_RATE,
                    start,
                    end,
                    |i| {
                        let row = first_row + i as usize;
                        t.attempted += 1;
                        if stop.load(Ordering::Relaxed) || row >= rows.len() {
                            t.fail(format!(
                                "insert of row {row}: generator stopped or ran out of rows"
                            ));
                            return false;
                        }
                        match conn.insert(&requests[row - first_row]) {
                            Ok(id) if id as usize == row => {
                                acked.store(row + 1, Ordering::Release);
                                true
                            }
                            Ok(id) => {
                                t.wrong(format!("row {row} acked as id {id}"));
                                stop.store(true, Ordering::Relaxed);
                                false
                            }
                            Err(e) => {
                                t.fail(format!("insert of row {row}: {e}"));
                                stop.store(true, Ordering::Relaxed);
                                false
                            }
                        }
                    },
                    || {},
                );
                (paced, t)
            });
            let t = RefCell::new(Tally::default());
            let mut asked = Vec::new();
            let mut stats_lat = Vec::new();
            let mut next_scrape = start + STATS_EVERY;
            let paced = openloop::run(
                QUERY_RATE,
                start,
                end,
                |i| {
                    let n = acked.load(Ordering::Acquire);
                    let w = recent_window(rows, n, seed, i);
                    let q = (i as usize) % queries.len();
                    t.borrow_mut().attempted += 1;
                    let t0 = Instant::now();
                    let got = client.borrow_mut().query(&queries[q], K, w, None);
                    let rtt = t0.elapsed().as_secs_f64();
                    match got {
                        Ok(r) if r.timed_out => {
                            t.borrow_mut().fail("query timed out".into());
                            false
                        }
                        Ok(r) => {
                            asked.push(Asked { acked: n, window: w, query: q, results: r.results });
                            after(&queries[q], w, rtt);
                            true
                        }
                        Err(e) => {
                            t.borrow_mut().fail(format!("query: {e}"));
                            false
                        }
                    }
                },
                || {
                    if Instant::now() >= next_scrape {
                        next_scrape += STATS_EVERY;
                        let t0 = Instant::now();
                        let got = client.borrow_mut().stats();
                        let lat = t0.elapsed().as_secs_f64();
                        stats_lat.push((start.elapsed().as_secs_f64(), lat));
                        t.borrow_mut().record(got.map(|_| ()).map_err(|e| format!("stats: {e}")));
                    }
                },
            );
            let (ins, it) = inserter.join().expect("insert thread panicked");
            (ins, it, (paced, asked, stats_lat, t.into_inner()))
        });
    tally.merge(insert_tally);
    tally.merge(query_tally);
    let open = Open {
        inserts,
        queries: queried,
        stats_lat,
        acked: acked.load(Ordering::Acquire),
        elapsed: start.elapsed().as_secs_f64(),
    };
    Ok((open, asked))
}

/// Checks recent_ingest's answers against exact truth over the acked rows;
/// returns the mean recall@10.
pub fn check_open(rows: &Rows, queries: &[Vec<f32>], asked: &[Asked], tally: &mut Tally) -> f64 {
    let mut recalls = Vec::with_capacity(asked.len());
    for a in asked {
        let (lo, hi) = rows.rows_in(a.window);
        debug_assert!(hi <= a.acked);
        if let Err(m) = check::reply(rows, a.window, hi - lo, K, &a.results) {
            tally.wrong(m);
            continue;
        }
        let truth = rows.exact(&queries[a.query], a.window, K);
        let ids: Vec<u32> = a.results.iter().map(|r| r.id).collect();
        recalls.push(recall(&ids, &truth, K));
    }
    mean(&recalls)
}

/// Durability after a crash: every acked row is present (windows of ten
/// consecutive rows must return all ten), and the first row of each group,
/// queried by its own vector, comes back at distance 0.
pub fn check_durable(
    client: &mut BinaryClient,
    rows: &Rows,
    acked: usize,
    tally: &mut Tally,
) -> usize {
    let mut checked = 0;
    for lo in (0..acked).step_by(10) {
        let hi = (lo + 10).min(acked);
        let w = TimeWindow::new(rows.ts[lo], rows.ts[hi - 1] + 1);
        let n = hi - lo;
        tally.attempted += 1;
        let got = match client.query(rows.row(lo), n, w, None) {
            Ok(r) if !r.timed_out => r.results,
            Ok(_) => {
                tally.fail(format!("durability query of rows {lo}..{hi} timed out"));
                continue;
            }
            Err(e) => {
                tally.fail(format!("durability query of rows {lo}..{hi}: {e}"));
                continue;
            }
        };
        if let Err(m) = check::reply(rows, w, n, n, &got) {
            tally.wrong(format!("after restart, rows {lo}..{hi}: {m}"));
            continue;
        }
        if !got.iter().any(|r| r.id as usize == lo && r.dist == 0.0) {
            tally.wrong(format!(
                "after restart, row {lo} not found at distance 0 by its own vector"
            ));
            continue;
        }
        checked += n;
    }
    checked
}

fn recent_measure(
    opts: &Opts,
    setup: Setup,
    rows: &Rows,
    queries: &[Vec<f32>],
    rep: &mut Report,
    tally: &mut Tally,
) -> Result<(), String> {
    rep.note(format!(
        "open loop: HTTP/JSON inserts at {INSERT_RATE}/s on one keep-alive connection; binary \
         queries at {QUERY_RATE}/s (k={K}) ending at the newest acked row, STATS every {:?}, on one \
         connection; latencies timed from the due time",
        STATS_EVERY
    ));
    let cpu0 = setup.server.cpu_seconds();
    let (open, asked) = open_loop(
        setup.server.addr,
        rows,
        queries,
        BASE_ROWS,
        opts.seconds,
        opts.seed,
        tally,
        |_, _, _| {},
    )?;
    let cpu = setup.server.cpu_seconds() - cpu0;
    let ops = open.queries.len() + open.inserts.len() + open.stats_lat.len();
    rep.put("server_cpu_us_per_op", cpu * 1e6 / ops.max(1) as f64, "us");
    let rss = setup.server.peak_rss_mib();
    let dir = setup.path.clone().expect("durable set-up has a directory");
    // Crash mid-ingest: nothing is drained or checkpointed.
    setup.server.crash();
    let on_disk = disk_bytes(&dir);
    let t0 = Instant::now();
    let server = spawn_mbi(opts, &setup.flags)?;
    let mut client = net::binary(server.addr)?;
    let mut first = Tally::default();
    first_query(&mut client, rows, open.acked, &queries[0], &mut first)?;
    let restart = t0.elapsed().as_secs_f64();
    tally.merge(first);
    let durable = check_durable(&mut client, rows, open.acked, tally);
    server.crash();
    rep.note(format!(
        "durability: {durable} of {} acked rows present after SIGKILL and restart (a process \
         crash with the OS cache intact, not power loss)",
        open.acked
    ));

    let rec = check_open(rows, queries, &asked, tally);
    let lat = |p: &[openloop::Paced]| -> Vec<f64> {
        p.iter().filter(|x| x.ok).map(|x| x.latency.as_secs_f64()).collect()
    };
    put_latency(rep, "query", &lat(&open.queries), None);
    rep.put("query_qps", asked.len() as f64 / open.elapsed, "1/s");
    rep.put("recall_at_10", rec, "ratio");
    put_latency(rep, "open_insert", &lat(&open.inserts), None);
    let med = |v: &mut Vec<f64>, _: f64| crate::stats::median(v) * 1e3;
    rep.put("stats_p50_ms", over_time_slices(&open.stats_lat, open.elapsed, SLICES_MAX, med), "ms");
    rep.put("rss_peak_mb", rss, "MiB");
    rep.put("storage_amp", on_disk as f64 / rows.user_bytes(open.acked) as f64, "ratio");
    rep.put("restart_s", restart, "s");
    let mut late: Vec<f64> =
        open.inserts.iter().chain(&open.queries).map(|p| p.late.as_secs_f64() * 1e3).collect();
    rep.note(format!(
        "generator: {} inserts, {} queries, late p99 {:.3} ms",
        open.inserts.len(),
        open.queries.len(),
        percentile(&mut late, 99.0)
    ));
    Ok(())
}
