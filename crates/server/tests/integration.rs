//! Loopback integration tests: a real server on 127.0.0.1, real TCP
//! clients on both protocols.
//!
//! The issue's acceptance scenarios live here: two tenants with isolated
//! namespaces and cross-tenant auth rejection, a deadline-exceeded query
//! answered with an error frame while the server keeps serving, and
//! graceful shutdown checkpointing every durable tenant's WAL.

use mbi_core::{EngineConfig, MbiConfig, QueryRequest, StreamingMbi, TimeWindow};
use mbi_math::Metric;
use mbi_server::client::{http_request, BinaryClient, ClientError};
use mbi_server::wire::{self, Op, PayloadWriter, Status};
use mbi_server::{Server, ServerConfig, TenantConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Three times the server's 50 ms per-connection poll interval: a request
/// split by this gap spans several read timeouts.
const GAP: Duration = Duration::from_millis(150);

fn index_config() -> MbiConfig {
    MbiConfig::new(4, Metric::Euclidean).with_leaf_size(32)
}

fn row(i: usize) -> [f32; 4] {
    let x = i as f32;
    [(x * 0.31).sin(), (x * 0.17).cos(), 0.05 * x, 1.0]
}

fn start(config: ServerConfig) -> (mbi_server::ServerHandle, SocketAddr) {
    let handle = Server::start(config).expect("server starts");
    let addr = handle.addr();
    (handle, addr)
}

#[test]
fn two_tenants_are_isolated_and_cross_tenant_tokens_rejected() {
    let (handle, addr) = start(
        ServerConfig::new("127.0.0.1:0", index_config())
            .with_tenant(TenantConfig::memory("alpha", "tok-a"))
            .with_tenant(TenantConfig::memory("beta", "tok-b")),
    );

    // Populate the two namespaces with disjoint data over the binary
    // protocol: alpha gets rows 0..40, beta gets rows 1000..1040.
    let mut alpha = BinaryClient::connect(addr, "alpha", "tok-a").unwrap();
    let mut beta = BinaryClient::connect(addr, "beta", "tok-b").unwrap();
    for i in 0..40 {
        alpha.insert(&row(i), i as i64).unwrap();
        beta.insert(&row(1000 + i), i as i64).unwrap();
    }

    // Each tenant only ever sees its own rows: the nearest neighbour of
    // alpha's first row inside alpha is itself (distance 0), while beta —
    // holding disjoint vectors — answers with a strictly positive distance.
    let a_hit = alpha.query(&row(0), 1, TimeWindow::all(), None).unwrap();
    assert_eq!(a_hit.results[0].dist, 0.0, "alpha finds its own row");
    let b_hit = beta.query(&row(0), 1, TimeWindow::all(), None).unwrap();
    assert!(b_hit.results[0].dist > 0.0, "beta does not hold alpha's rows");

    // Cross-tenant auth: a valid token presented against the *other*
    // namespace is rejected on both protocols.
    match BinaryClient::connect(addr, "beta", "tok-a") {
        Err(ClientError::Server { status: Status::Unauthorized, .. }) => {}
        other => panic!("cross-tenant binary auth should fail, got {other:?}", other = other.err()),
    }
    let (status, body) = http_request(
        addr,
        "POST",
        "/query",
        &[("Authorization", "Bearer tok-a"), ("X-Tenant", "beta")],
        r#"{"vector":[0,0,0,0],"k":1}"#,
    )
    .unwrap();
    assert_eq!(status, 401, "cross-tenant http auth should fail: {body}");

    // Correct HTTP credentials work and answer from the right namespace.
    let (status, body) = http_request(
        addr,
        "POST",
        "/query",
        &[("Authorization", "Bearer tok-b"), ("X-Tenant", "beta")],
        r#"{"vector":[0.5,0.5,0.5,1.0],"k":3}"#,
    )
    .unwrap();
    assert_eq!(status, 200, "{body}");
    let v = serde_json::from_str(&body).unwrap();
    assert_eq!(v.get("results").and_then(|r| r.as_seq()).map(<[_]>::len), Some(3));

    // /healthz needs no auth and lists both tenants as healthy.
    let (status, body) = http_request(addr, "GET", "/healthz", &[], "").unwrap();
    assert_eq!(status, 200);
    let v = serde_json::from_str(&body).unwrap();
    assert_eq!(v.get("status").and_then(|s| s.as_str()), Some("ok"));
    let tenants = v.get("tenants").unwrap();
    for name in ["alpha", "beta"] {
        let health = tenants.get(name).unwrap_or_else(|| panic!("{name} in healthz"));
        assert_eq!(health.get("status").and_then(|s| s.as_str()), Some("healthy"));
    }

    // /stats is per-tenant: alpha's view counts alpha's traffic.
    let stats = serde_json::from_str(&alpha.stats().unwrap()).unwrap();
    assert_eq!(stats.get("tenant").and_then(|t| t.as_str()), Some("alpha"));
    let serving = stats.get("serving").unwrap();
    assert_eq!(serving.get("inserts").and_then(|n| n.as_u64()), Some(40));

    handle.shutdown();
}

#[test]
fn deadline_exceeded_returns_error_frame_and_server_keeps_serving() {
    let (handle, addr) = start(
        ServerConfig::new("127.0.0.1:0", index_config())
            .with_tenant(TenantConfig::memory("alpha", "tok-a")),
    );
    let mut client = BinaryClient::connect(addr, "alpha", "tok-a").unwrap();
    for i in 0..100 {
        client.insert(&row(i), i as i64).unwrap();
    }

    // An already-expired deadline (0 ms, only expressible over HTTP — the
    // binary encoding reserves 0 for "server default") must come back 408
    // with the partial flag, never a hang or a crash.
    let (status, body) = http_request(
        addr,
        "POST",
        "/query",
        &[("Authorization", "Bearer tok-a")],
        r#"{"vector":[0.1,0.9,0.5,1.0],"k":5,"deadline_ms":0}"#,
    )
    .unwrap();
    assert_eq!(status, 408, "{body}");
    let v = serde_json::from_str(&body).unwrap();
    assert_eq!(v.get("timed_out").and_then(|b| b.as_bool()), Some(true));

    // The connection and the server both keep serving afterwards.
    let reply = client.query(&row(7), 3, TimeWindow::all(), Some(Duration::from_secs(30))).unwrap();
    assert_eq!(reply.results.len(), 3);
    assert!(!reply.timed_out);
    let (status, _) = http_request(addr, "GET", "/healthz", &[], "").unwrap();
    assert_eq!(status, 200);

    // The timeout shows up in the tenant's serving metrics.
    let stats = serde_json::from_str(&client.stats().unwrap()).unwrap();
    let timeouts = stats.get("serving").and_then(|s| s.get("timeouts")).and_then(|t| t.as_u64());
    assert_eq!(timeouts, Some(1));

    handle.shutdown();
}

#[test]
fn graceful_shutdown_checkpoints_durable_tenants() {
    let dir = std::env::temp_dir().join(format!("mbi_server_shutdown_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let rows = 75usize;
    {
        let (handle, addr) = start(
            ServerConfig::new("127.0.0.1:0", index_config())
                .with_tenant(TenantConfig::durable("alpha", "tok-a", &dir)),
        );
        let mut client = BinaryClient::connect(addr, "alpha", "tok-a").unwrap();
        for i in 0..rows {
            client.insert(&row(i), i as i64).unwrap();
        }
        handle.shutdown();
    }
    // Shutdown checkpointed: the WAL is pruned into the snapshot, and a
    // recovery (what the next `mbi serve` start does) sees every acked row.
    let engine = StreamingMbi::recover(&dir, EngineConfig::default()).unwrap();
    assert_eq!(engine.len(), rows, "every acked insert survived the drain");
    let hit = engine.search(&QueryRequest::new(&row(3), 1, TimeWindow::all())).results;
    assert_eq!(hit[0].dist, 0.0);
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn connection_cap_refuses_excess_connections() {
    let (handle, addr) = start(
        ServerConfig::new("127.0.0.1:0", index_config())
            .with_tenant(TenantConfig::memory("alpha", "tok-a"))
            .with_max_connections(1),
    );
    // First connection occupies the only slot…
    let mut held = BinaryClient::connect(addr, "alpha", "tok-a").unwrap();
    held.ping().unwrap();
    // …so the next one is refused with an immediate overload response.
    let refused = http_request(addr, "GET", "/healthz", &[], "");
    match refused {
        Ok((status, _)) => assert_eq!(status, 503),
        // The server may also close before the response is readable.
        Err(ClientError::Io(_)) | Err(ClientError::Protocol(_)) => {}
        Err(e) => panic!("unexpected refusal shape: {e}"),
    }
    drop(held);
    // Slot freed: new connections serve normally again (the accept loop
    // decrements the gauge when the connection thread exits).
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        if let Ok((200, _)) = http_request(addr, "GET", "/healthz", &[], "") {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "connection slot never freed");
        std::thread::sleep(Duration::from_millis(20));
    }
    handle.shutdown();
}

#[test]
fn idle_connections_are_dropped_and_clients_reconnect_transparently() {
    let (handle, addr) = start(
        ServerConfig::new("127.0.0.1:0", index_config())
            .with_tenant(TenantConfig::memory("alpha", "tok-a"))
            .with_idle_timeout(Some(Duration::from_millis(150))),
    );
    let mut client = BinaryClient::connect(addr, "alpha", "tok-a").unwrap();
    client.insert(&row(0), 0).unwrap();

    // Hold the connection silent past the idle deadline: the server reaps
    // it (a slow-loris peer would hold a thread forever otherwise)…
    std::thread::sleep(Duration::from_millis(500));

    // …and the client's idempotent path reconnects without surfacing an
    // error to the caller.
    let hit = client.query(&row(0), 1, TimeWindow::all(), None).unwrap();
    assert_eq!(hit.results[0].dist, 0.0, "query served after transparent reconnect");

    let stats = serde_json::from_str(&client.stats().unwrap()).unwrap();
    let dropped = stats.get("server").and_then(|s| s.get("idle_dropped")).and_then(|v| v.as_u64());
    assert!(dropped >= Some(1), "idle reap is counted, got {dropped:?}");
    handle.shutdown();
}

#[test]
fn oversized_binary_frame_is_rejected_and_counted() {
    // A 16-byte frame cap (the floor) admits the AUTH frame for short
    // names but nothing query-sized.
    let (handle, addr) = start(
        ServerConfig::new("127.0.0.1:0", index_config())
            .with_tenant(TenantConfig::memory("a", "t"))
            .with_max_frame_bytes(16),
    );
    let mut client = BinaryClient::connect(addr, "a", "t").unwrap();
    match client.query(&row(0), 1, TimeWindow::all(), None) {
        Err(ClientError::Server { status: Status::BadRequest, message }) => {
            assert!(message.contains("frame too large"), "{message}");
        }
        other => panic!("oversized frame should be refused, got {other:?}", other = other.err()),
    }
    // The guard is observable: a fresh (small-framed) stats call sees the
    // oversize counter.
    let (status, body) = http_request(
        addr,
        "GET",
        "/stats",
        &[("Authorization", "Bearer t"), ("X-Tenant", "a")],
        "",
    )
    .unwrap();
    assert_eq!(status, 200, "{body}");
    let stats = serde_json::from_str(&body).unwrap();
    let oversized = stats.get("server").and_then(|s| s.get("oversized")).and_then(|v| v.as_u64());
    assert!(oversized >= Some(1), "oversized frames are counted, got {oversized:?}");
    handle.shutdown();
}

#[test]
fn oversized_http_head_answers_431() {
    let (handle, addr) = start(
        ServerConfig::new("127.0.0.1:0", index_config())
            .with_tenant(TenantConfig::memory("alpha", "tok-a")),
    );
    // A 20 KiB header blows the 16 KiB request-head cap.
    let padding = "x".repeat(20 * 1024);
    let (status, body) =
        http_request(addr, "GET", "/healthz", &[("X-Padding", &padding)], "").unwrap();
    assert_eq!(status, 431, "{body}");
    // The server survives and keeps serving normal requests.
    let (status, _) = http_request(addr, "GET", "/healthz", &[], "").unwrap();
    assert_eq!(status, 200);
    handle.shutdown();
}

/// Sends `bytes` in two writes `at` bytes apart in time by [`GAP`].
fn send_split(stream: &mut TcpStream, bytes: &[u8], at: usize) {
    stream.write_all(&bytes[..at]).unwrap();
    stream.flush().unwrap();
    std::thread::sleep(GAP);
    stream.write_all(&bytes[at..]).unwrap();
}

fn frame(op: Op, payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::new();
    wire::write_frame(&mut bytes, op as u8, payload).unwrap();
    bytes
}

fn raw_connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream
}

/// The status code of a raw HTTP exchange the server closes after.
fn http_status(mut stream: TcpStream) -> u16 {
    // A reset after the reply (the server closes with request bytes still
    // unread) keeps what was read before it.
    let mut reply = Vec::new();
    let _ = stream.read_to_end(&mut reply);
    String::from_utf8_lossy(&reply)
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn server_counter(addr: SocketAddr, name: &str) -> u64 {
    let auth = [("Authorization", "Bearer tok-a"), ("X-Tenant", "alpha")];
    let (status, body) = http_request(addr, "GET", "/stats", &auth, "").unwrap();
    assert_eq!(status, 200, "{body}");
    let stats = serde_json::from_str(&body).unwrap();
    stats.get("server").and_then(|s| s.get(name)).and_then(|v| v.as_u64()).unwrap()
}

#[test]
fn binary_frames_split_across_poll_intervals_are_served() {
    let (handle, addr) = start(
        ServerConfig::new("127.0.0.1:0", index_config())
            .with_tenant(TenantConfig::memory("alpha", "tok-a")),
    );
    let mut stream = raw_connect(addr);
    stream.write_all(&wire::MAGIC).unwrap();
    // A PING split inside its length prefix.
    send_split(&mut stream, &frame(Op::Ping, &[]), 2);
    let (status, _) = wire::read_frame(&mut stream).unwrap().unwrap();
    assert_eq!(Status::from_u8(status), Some(Status::Ok));
    // An INSERT split inside its vector, after a whole AUTH.
    let auth = PayloadWriter::new().str16("alpha").str16("tok-a").build();
    stream.write_all(&frame(Op::Auth, &auth)).unwrap();
    let (status, _) = wire::read_frame(&mut stream).unwrap().unwrap();
    assert_eq!(Status::from_u8(status), Some(Status::Ok));
    let insert = PayloadWriter::new().i64(5).u32(4).f32s(&row(5)).build();
    let insert = frame(Op::Insert, &insert);
    send_split(&mut stream, &insert, insert.len() - 6);
    let (status, id) = wire::read_frame(&mut stream).unwrap().unwrap();
    assert_eq!(Status::from_u8(status), Some(Status::Ok), "{}", String::from_utf8_lossy(&id));
    assert_eq!(id, 0u32.to_le_bytes());
    assert_eq!(server_counter(addr, "bad_requests"), 0);
    handle.shutdown();
}

#[test]
fn http_requests_split_across_poll_intervals_are_served() {
    let (handle, addr) = start(
        ServerConfig::new("127.0.0.1:0", index_config())
            .with_tenant(TenantConfig::memory("alpha", "tok-a")),
    );
    let mut stream = raw_connect(addr);
    let get = b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n";
    send_split(&mut stream, get, 8);
    assert_eq!(http_status(stream), 200);

    let body = r#"{"vector":[0.1,0.2,0.3,0.4],"timestamp":1}"#;
    let post = format!(
        "POST /insert HTTP/1.1\r\nAuthorization: Bearer tok-a\r\nConnection: close\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let mut stream = raw_connect(addr);
    // Split inside the head, then again inside the body.
    let cut = post.find("Connection").unwrap();
    send_split(&mut stream, &post.as_bytes()[..post.len() - 10], cut);
    std::thread::sleep(GAP);
    stream.write_all(&post.as_bytes()[post.len() - 10..]).unwrap();
    assert_eq!(http_status(stream), 200);
    assert_eq!(server_counter(addr, "bad_requests"), 0);
    handle.shutdown();
}

#[test]
fn frame_cut_off_at_the_idle_deadline_counts_as_idle_not_bad() {
    let (handle, addr) = start(
        ServerConfig::new("127.0.0.1:0", index_config())
            .with_tenant(TenantConfig::memory("alpha", "tok-a"))
            .with_idle_timeout(Some(Duration::from_millis(150))),
    );
    let bad_before = server_counter(addr, "bad_requests");
    let mut stream = raw_connect(addr);
    stream.write_all(&wire::MAGIC).unwrap();
    let ping = frame(Op::Ping, &[]);
    stream.write_all(&ping[..3]).unwrap();
    // The rest never comes: the server closes the connection without a
    // reply once the deadline passes.
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "no reply to a cut-off frame, got {rest:?}");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server_counter(addr, "idle_dropped") < 1 {
        assert!(std::time::Instant::now() < deadline, "cut-off frame never counted");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server_counter(addr, "bad_requests"), bad_before);
    handle.shutdown();
}

#[test]
fn unterminated_http_request_line_answers_431() {
    let (handle, addr) = start(
        ServerConfig::new("127.0.0.1:0", index_config())
            .with_tenant(TenantConfig::memory("alpha", "tok-a")),
    );
    let mut stream = raw_connect(addr);
    let line = format!("GET /{}", "x".repeat(64 * 1024));
    // The server answers once the cap is passed and closes; it may do so
    // before the whole line is written.
    let _ = stream.write_all(line.as_bytes());
    assert_eq!(http_status(stream), 431);
    assert!(server_counter(addr, "oversized") >= 1);
    handle.shutdown();
}

#[test]
fn unterminated_http_header_line_answers_431() {
    let (handle, addr) = start(
        ServerConfig::new("127.0.0.1:0", index_config())
            .with_tenant(TenantConfig::memory("alpha", "tok-a")),
    );
    let mut stream = raw_connect(addr);
    let head = format!("GET /healthz HTTP/1.1\r\nX-Padding: {}", "x".repeat(64 * 1024));
    let _ = stream.write_all(head.as_bytes());
    assert_eq!(http_status(stream), 431);
    assert!(server_counter(addr, "oversized") >= 1);
    handle.shutdown();
}
