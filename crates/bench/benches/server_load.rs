//! Server load benchmark: QPS and latency of the network service over
//! loopback TCP, on both protocols.
//!
//! Two artefacts come out of a run:
//!
//! * criterion rows (`server_query/*`) — steady-state per-request latency
//!   of one binary-protocol and one HTTP connection;
//! * `BENCH_server.json` — one row per protocol under a fixed 8-client
//!   closed-loop burst, with QPS and p50/p99 per-request latency.
//!
//! **Honesty note.** Client and server share this machine, so the numbers
//! include client-side request building and both directions of loopback
//! TCP; they measure the *service stack* (framing, admission, engine), not
//! network hardware.

use criterion::{black_box, criterion_group, Criterion};
use mbi_ann::NnDescentParams;
use mbi_core::{GraphBackend, MbiConfig, TimeWindow};
use mbi_math::Metric;
use mbi_server::client::{http_request, BinaryClient};
use mbi_server::{Server, ServerConfig, ServerHandle, TenantConfig};
use serde::Serialize;
use std::net::SocketAddr;
use std::time::Instant;

const DIM: usize = 16;
const ROWS: usize = 8192;
const K: usize = 10;
const CLIENTS: usize = 8;
const QUERIES_PER_CLIENT: usize = 150;

fn index_config() -> MbiConfig {
    MbiConfig::new(DIM, Metric::Euclidean)
        .with_leaf_size(512)
        .with_backend(GraphBackend::NnDescent(NnDescentParams { degree: 16, ..Default::default() }))
}

fn row(i: usize) -> Vec<f32> {
    let x = i as f32;
    (0..DIM).map(|d| ((d as f32 + 1.0) * x * 0.037).sin() + 0.001 * x).collect()
}

/// Starts a server with one populated in-memory tenant.
fn start_server() -> (ServerHandle, SocketAddr) {
    let config = ServerConfig::new("127.0.0.1:0", index_config())
        .with_tenant(TenantConfig::memory("bench", "tok-bench"))
        .with_max_inflight(256)
        .with_default_deadline(None);
    let handle = Server::start(config).expect("server starts");
    let addr = handle.addr();
    let mut seed = BinaryClient::connect(addr, "bench", "tok-bench").unwrap();
    for i in 0..ROWS {
        seed.insert(&row(i), i as i64).unwrap();
    }
    (handle, addr)
}

fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx] as f64 / 1_000.0
}

#[derive(Serialize)]
struct LoadRow {
    protocol: &'static str,
    clients: usize,
    queries: usize,
    qps: f64,
    p50_micros: f64,
    p99_micros: f64,
}

/// One closed-loop burst: `CLIENTS` threads, each with its own connection,
/// each firing `QUERIES_PER_CLIENT` back-to-back queries.
fn run_burst(addr: SocketAddr, protocol: &'static str) -> LoadRow {
    let t0 = Instant::now();
    let mut nanos: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut lat = Vec::with_capacity(QUERIES_PER_CLIENT);
                    let mut binary = (protocol == "binary")
                        .then(|| BinaryClient::connect(addr, "bench", "tok-bench").unwrap());
                    for i in 0..QUERIES_PER_CLIENT {
                        let q = row((c * 131 + i * 17) % ROWS);
                        let t = Instant::now();
                        match &mut binary {
                            Some(client) => {
                                let reply = client.query(&q, K, TimeWindow::all(), None).unwrap();
                                assert_eq!(reply.results.len(), K);
                            }
                            None => {
                                let body = format!("{{\"vector\":{q:?},\"k\":{K}}}",);
                                let (status, _) = http_request(
                                    addr,
                                    "POST",
                                    "/query",
                                    &[("Authorization", "Bearer tok-bench")],
                                    &body,
                                )
                                .unwrap();
                                assert_eq!(status, 200);
                            }
                        }
                        lat.push(t.elapsed().as_nanos() as u64);
                    }
                    lat
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    nanos.sort_unstable();
    LoadRow {
        protocol,
        clients: CLIENTS,
        queries: nanos.len(),
        qps: nanos.len() as f64 / wall,
        p50_micros: percentile(&nanos, 0.5),
        p99_micros: percentile(&nanos, 0.99),
    }
}

#[derive(Serialize)]
struct ServerSummary {
    generated_by: &'static str,
    honesty: &'static str,
    available_parallelism: usize,
    dim: usize,
    rows: usize,
    k: usize,
    matrix: Vec<LoadRow>,
}

fn run_matrix() -> ServerSummary {
    let (handle, addr) = start_server();
    let matrix = ["binary", "http"].into_iter().map(|p| run_burst(addr, p)).collect();
    handle.shutdown();
    ServerSummary {
        generated_by: "cargo bench -p mbi-bench --bench server_load",
        honesty: "client and server share one machine over loopback TCP; numbers \
                  measure the service stack (framing, admission, engine), not network \
                  hardware",
        available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        dim: DIM,
        rows: ROWS,
        k: K,
        matrix,
    }
}

fn write_summary(summary: &ServerSummary) {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let path = std::path::Path::new(root).join("BENCH_server.json");
    match serde_json::to_string_pretty(summary) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&path, json + "\n") {
                eprintln!("could not write {}: {e}", path.display());
            } else {
                println!("server load matrix written to {}", path.display());
            }
        }
        Err(e) => eprintln!("could not serialise server summary: {e}"),
    }
    for r in &summary.matrix {
        println!(
            "{:>6}: {:>7.0} qps  p50 {:>8.1} µs  p99 {:>8.1} µs",
            r.protocol, r.qps, r.p50_micros, r.p99_micros
        );
    }
}

fn bench_server_query(c: &mut Criterion) {
    let (handle, addr) = start_server();
    let mut group = c.benchmark_group("server_query");

    let mut client = BinaryClient::connect(addr, "bench", "tok-bench").unwrap();
    group.bench_function("binary_single", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i += 1;
            let q = row(i % ROWS);
            black_box(client.query(black_box(&q), K, TimeWindow::all(), None).unwrap())
        })
    });

    group.bench_function("http_single", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i += 1;
            let q = row(i % ROWS);
            let body = format!("{{\"vector\":{q:?},\"k\":{K}}}");
            black_box(
                http_request(
                    addr,
                    "POST",
                    "/query",
                    &[("Authorization", "Bearer tok-bench")],
                    &body,
                )
                .unwrap(),
            )
        })
    });

    group.finish();
    drop(client);
    handle.shutdown();

    let summary = run_matrix();
    write_summary(&summary);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_server_query
}

fn main() {
    benches();
}
