//! The server process and the client connections the generator drives it
//! through: a keep-alive HTTP/JSON connection for inserts and the binary
//! client for queries and `STATS`.

use mbi_server::BinaryClient;
use serde::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Tenant name and token every workload serves.
pub const TENANT: &str = "bench";
/// Bearer token of [`TENANT`].
pub const TOKEN: &str = "tok-bench";

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGTERM: i32 = 15;

/// A running server child. Dropping it kills and reaps the process.
pub struct ServeChild {
    child: Child,
    /// Address the server bound.
    pub addr: SocketAddr,
}

impl ServeChild {
    /// Starts `program args…` with `env` added and waits for its banner
    /// (`serving … on <addr> (…`), which carries the bound address.
    pub fn spawn(
        program: &Path,
        args: &[String],
        env: &[(String, String)],
    ) -> Result<Self, String> {
        let mut cmd = Command::new(program);
        cmd.args(args).stdin(Stdio::null()).stdout(Stdio::piped()).stderr(Stdio::inherit());
        for (k, v) in env {
            cmd.env(k, v);
        }
        let mut child = cmd.spawn().map_err(|e| format!("spawn {}: {e}", program.display()))?;
        let mut line = String::new();
        let read = child
            .stdout
            .take()
            .map(|out| BufReader::new(out).read_line(&mut line))
            .ok_or("server stdout missing")?;
        let addr = line
            .split(" on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(ServeChild { child, addr }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("server did not announce its address (got {line:?})"))
            }
        }
    }

    /// Process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// CPU seconds the server has used so far: user plus system time of
    /// every thread, ended ones included. Time the host takes the vCPU away
    /// is steal, not charged here, which is why this reads steadier than a
    /// wall clock on a shared host.
    pub fn cpu_seconds(&self) -> f64 {
        // `/proc/<pid>/stat` counts in USER_HZ ticks, 100 a second on Linux.
        const USER_HZ: f64 = 100.0;
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()));
        let stat = stat.unwrap_or_default();
        // utime and stime are fields 14 and 15; the command name (field 2)
        // is parenthesised and may hold spaces, so count after it.
        let fields: Vec<&str> =
            stat.rsplit_once(')').map_or("", |(_, rest)| rest).split_whitespace().collect();
        let ticks = |i: usize| fields.get(i).and_then(|x| x.parse::<f64>().ok()).unwrap_or(0.0);
        (ticks(11) + ticks(12)) / USER_HZ
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> f64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()));
        status
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("VmHWM:"))
                    .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
            })
            .map_or(0.0, |kb| kb / 1024.0)
    }

    /// Graceful stop: SIGTERM, which drains and checkpoints durable
    /// tenants, then waits for the exit.
    pub fn terminate(mut self) -> Result<(), String> {
        // SAFETY: `kill` only sends a signal to our own child, whose pid
        // stays reserved until we reap it below.
        let sent = unsafe { kill(self.child.id() as i32, SIGTERM) };
        if sent != 0 {
            return Err("could not signal the server".into());
        }
        let gone = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < gone => std::thread::sleep(Duration::from_millis(5)),
                _ => return Err("server did not stop after SIGTERM".into()),
            }
        }
    }

    /// Crash: SIGKILL and reap. Nothing is drained or checkpointed.
    pub fn crash(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One keep-alive HTTP/1.1 connection.
pub struct HttpConn {
    out: TcpStream,
    input: BufReader<TcpStream>,
}

/// The exact bytes of one `POST /insert`.
pub fn insert_request(vector: &[f32], t: i64) -> Vec<u8> {
    let mut body = String::with_capacity(16 * vector.len() + 32);
    body.push_str("{\"vector\":[");
    for (i, x) in vector.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        // Nine significant digits name every f32 exactly after the
        // server's f64 parse and narrowing.
        body.push_str(&format!("{x:.8e}"));
    }
    body.push_str(&format!("],\"timestamp\":{t}}}"));
    format!(
        "POST /insert HTTP/1.1\r\nHost: mbi\r\nAuthorization: Bearer {TOKEN}\r\n\
         X-Tenant: {TENANT}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

impl HttpConn {
    /// Opens the connection.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let out = TcpStream::connect(addr)?;
        out.set_nodelay(true)?;
        out.set_read_timeout(Some(Duration::from_secs(30)))?;
        let input = BufReader::new(out.try_clone()?);
        Ok(HttpConn { out, input })
    }

    /// Sends one request's bytes and reads the reply: `(status, body)`.
    pub fn send(&mut self, request: &[u8]) -> std::io::Result<(u16, String)> {
        self.out.write_all(request)?;
        let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
        let mut line = String::new();
        self.input.read_line(&mut line)?;
        let status =
            line.split_whitespace().nth(1).and_then(|s| s.parse().ok()).ok_or(bad("status"))?;
        let mut len = 0usize;
        loop {
            line.clear();
            if self.input.read_line(&mut line)? == 0 {
                return Err(bad("eof in headers"));
            }
            let h = line.trim_end();
            if h.is_empty() {
                break;
            }
            if let Some((name, value)) = h.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    len = value.trim().parse().map_err(|_| bad("content-length"))?;
                }
            }
        }
        let mut body = vec![0u8; len];
        self.input.read_exact(&mut body)?;
        Ok((status, String::from_utf8(body).map_err(|_| bad("utf-8"))?))
    }

    /// Inserts one row; returns the id the server assigned.
    pub fn insert(&mut self, request: &[u8]) -> Result<u32, String> {
        let (status, body) = self.send(request).map_err(|e| e.to_string())?;
        if status != 200 {
            return Err(format!("insert answered {status}: {body}"));
        }
        serde_json::from_str(&body)
            .ok()
            .and_then(|v| v.get("id").and_then(Value::as_u64))
            .map(|id| id as u32)
            .ok_or_else(|| format!("insert reply without id: {body}"))
    }
}

/// The counters of one `STATS` document the benchmark reads.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stats {
    /// Rows the tenant holds.
    pub rows: u64,
    /// Chains sealed but not yet published.
    pub queued_builds: u64,
    /// Requests shed by the admission gate (tenant).
    pub shed: u64,
    /// Queries cut off by their deadline (tenant).
    pub timeouts: u64,
    /// Share of queries answered in a coalesced batch.
    pub coalesce_ratio: f64,
}

/// Decodes a `STATS` document.
pub fn parse_stats(doc: &str) -> Result<Stats, String> {
    let v = serde_json::from_str(doc).map_err(|e| format!("stats: {e}"))?;
    let engine = v.get("engine").ok_or("stats without engine")?;
    let serving = v.get("serving").ok_or("stats without serving")?;
    let u = |m: &Value, k: &str| m.get(k).and_then(Value::as_u64).unwrap_or(0);
    Ok(Stats {
        rows: u(engine, "rows"),
        queued_builds: u(engine, "queued_builds"),
        shed: u(serving, "shed"),
        timeouts: u(serving, "timeouts"),
        coalesce_ratio: serving.get("coalesce_ratio").and_then(Value::as_f64).unwrap_or(0.0),
    })
}

/// A binary client authenticated as the benchmark tenant. It fails fast:
/// a transport error is a failed operation, never silently retried.
pub fn binary(addr: SocketAddr) -> Result<BinaryClient, String> {
    let mut c =
        BinaryClient::connect_with_retry(addr, TENANT, TOKEN, mbi_server::RetryPolicy::none())
            .map_err(|e| e.to_string())?;
    c.set_timeout(Some(Duration::from_secs(30))).map_err(|e| e.to_string())?;
    Ok(c)
}

/// Polls `STATS` until the tenant holds `rows` rows and every sealed chain
/// is published.
pub fn wait_published(client: &mut BinaryClient, rows: u64) -> Result<Stats, String> {
    let gone = Instant::now() + Duration::from_secs(120);
    loop {
        let s = parse_stats(&client.stats().map_err(|e| e.to_string())?)?;
        if s.rows == rows && s.queued_builds == 0 {
            return Ok(s);
        }
        if Instant::now() > gone {
            return Err(format!("builds still queued after 120 s: {s:?}"));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}
