//! End-to-end and per-layer benchmark of `mbi serve` over loopback.
//!
//! ```text
//! perfbench --mbi <path to mbi> --work <scratch dir> \
//!           --workload <window_sweep|cold_budget|recent_ingest> \
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the workload runs against a `mbi serve` child and the
//! end-to-end metrics are reported; with `--trace 1` the same workload and
//! seed run against a server started in this process, and the per-layer
//! metrics are reported. The last line of standard output is one JSON
//! object. Every reply is checked; a wrong answer makes the run exit 1.
//! See `README.md` in this directory.

mod check;
mod data;
mod net;
mod openloop;
mod stats;
mod trace;
mod workloads;

use std::io::Write;
use std::path::{Path, PathBuf};

/// The outcome of one run: named metrics, the operation tally and notes.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, String)>,
    /// Operations attempted and failed.
    pub tally: check::Tally,
    notes: Vec<String>,
}

impl Report {
    /// Records a metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push((name.to_string(), value, unit.to_string()));
    }

    /// Records a line for the log.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    fn get(&self, name: &str) -> Option<&(String, f64, String)> {
        self.metrics.iter().rev().find(|m| m.0 == name)
    }
}

/// Command-line options.
pub struct Opts {
    /// The `mbi` binary to serve with.
    pub mbi: PathBuf,
    /// Scratch directory inside the checkout.
    pub work: PathBuf,
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

fn parse_opts(argv: &[String]) -> Result<Opts, String> {
    let get = |key: &str| {
        argv.iter()
            .position(|a| a == key)
            .and_then(|i| argv.get(i + 1))
            .ok_or_else(|| format!("missing {key}"))
    };
    let num = |key: &str| get(key).and_then(|v| v.parse::<f64>().map_err(|_| format!("bad {key}")));
    let seconds = num("--seconds")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Opts {
        mbi: PathBuf::from(get("--mbi")?),
        work: PathBuf::from(get("--work")?),
        workload: get("--workload")?.clone(),
        seed: get("--seed")?.parse().map_err(|_| "bad --seed".to_string())?,
        seconds,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
    })
}

/// FNV-1a over every source file of the build, in path order: identifies
/// the code when the checkout carries no version control.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml" || x == "lock") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for d in ["crates", "vendor", "perfbench/src"] {
        walk(&root.join(d), &mut files);
    }
    files.push(root.join("Cargo.toml"));
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        for b in std::fs::read(f).unwrap_or_default() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("fnv64:{h:016x} over {} files", files.len())
}

/// `HEAD` of the checkout, when it is a git work tree of its own.
fn git_commit() -> Option<String> {
    if !Path::new(".git").exists() {
        return None;
    }
    let out = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Prints the run header: what code, host and configuration the numbers
/// below come from.
pub fn header(opts: &Opts, w: &workloads::Shape, serve: &[String], env: &[(String, String)]) {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    println!("# commit: {}", git_commit().unwrap_or_else(|| "none (not a git checkout)".into()));
    println!("# source: {}", source_digest(Path::new(".")));
    println!("# available_parallelism: {cores}");
    println!("# simd_backend: {}", mbi_math::simd::active_backend().name());
    println!("# preset: {} rows: {} dim: {} metric: {}", w.preset, w.rows, w.dim, w.metric);
    let env: Vec<String> = env.iter().map(|(k, v)| format!("{k}={v}")).collect();
    let how = if opts.trace { "in-process Server::start of parse_serve_config" } else { "child" };
    println!("# serve ({how}): {} {}", env.join(" "), serve.join(" "));
}

/// The metrics `BENCHMARK.json` declares for this kind of run — its
/// `end_to_end` list, or `per_layer` for the traced run — as (name, unit).
fn declared(trace: bool) -> Result<Vec<(String, String)>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    let list = doc.get(key).and_then(serde::Value::as_seq).ok_or(format!("no {key} list"))?;
    list.iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(serde::Value::as_str).map(str::to_string);
            field("name").zip(field("unit")).ok_or(format!("bad {key} entry"))
        })
        .collect()
}

/// Prints the notes, every metric, and the JSON line of the declared
/// metrics. Returns whether every answer was correct.
fn emit(opts: &Opts, report: &Report) -> Result<bool, String> {
    for n in &report.notes {
        println!("# {n}");
    }
    for (name, value, unit) in &report.metrics {
        println!("metric {name} = {value} {unit}");
    }
    for m in &report.tally.messages {
        println!("# failure: {m}");
    }
    let mut fields = Vec::new();
    for (name, want) in declared(opts.trace)? {
        let (_, value, unit) =
            report.get(&name).ok_or(format!("metric {name} was not measured"))?;
        if *unit != want {
            return Err(format!("metric {name} measured in {unit}, declared in {want}"));
        }
        let value = if value.is_finite() { *value } else { 0.0 };
        fields.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    let correct = report.tally.wrong == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.tally.attempted.max(1),
        report.tally.failed,
        fields.join(", ")
    );
    let _ = std::io::stdout().flush();
    Ok(correct)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("serve-child") {
        if let Err(e) = workloads::serve_child(&argv[1..]) {
            eprintln!("perfbench serve-child: {e}");
            std::process::exit(1);
        }
        return;
    }
    let opts = match parse_opts(&argv) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work = opts.work.join(format!("{}-{}-{}", opts.workload, opts.seed, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        std::process::exit(2);
    }
    let result = workloads::run(&opts, &work);
    let _ = std::fs::remove_dir_all(&work);
    match result.and_then(|report| emit(&opts, &report)) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
