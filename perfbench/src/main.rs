//! The HatRPC benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <kv-read|kv-batch|rpc-mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload against the public API, checks every reply, and
//! prints one JSON object as the last line of standard output. With
//! `--trace 0` it holds the end-to-end metrics; with `--trace 1` the
//! per-layer metrics of a traced run (see `perfbench/README.md`). A run
//! record with provenance goes to `.bench_out/` and to standard error.

mod kv;
mod layers;
mod meter;
mod metrics;
mod mix;
mod recorder;
mod stub;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;

use hat_idl::hints::Side;
use hatrpc_core::service::ServiceSchema;
use hatrpc_core::HatClient;

use meter::{Func, Meter};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    KvRead,
    KvBatch,
    RpcMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::KvRead, Workload::KvBatch, Workload::RpcMix];

    pub fn name(self) -> &'static str {
        match self {
            Workload::KvRead => "kv-read",
            Workload::KvBatch => "kv-batch",
            Workload::RpcMix => "rpc-mix",
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str = "usage: hatbench --workload <kv-read|kv-batch|rpc-mix> --seed <n> \
                     --seconds <s> --trace <0|1>";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed '{value}'"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds '{value}'"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], not {s}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Fresh deployments per `--trace 0` run. Every end-to-end metric is a
/// median over all their windows, and `setup_s` over their set-ups.
pub const ROUNDS: usize = 5;

/// Untraced and traced segments per `--trace 1` run, alternating.
pub const TRACE_SEGMENTS: usize = 5;

/// Lengths of one untraced and one traced segment of a `--trace 1` run:
/// two thirds of the time untraced, one third traced (which bounds the
/// spans held in memory to a few tens of MB).
pub fn trace_segments(seconds: f64) -> (f64, f64) {
    let seg = seconds / TRACE_SEGMENTS as f64;
    (seg * 2.0 / 3.0, seg / 3.0)
}

/// Unmeasured time each run drives its op stream before measuring, so
/// that caches and lazily built state settle (not part of `setup_s`).
pub fn warmup_s(seconds: f64) -> f64 {
    (seconds / 10.0).min(1.0)
}

/// Ops attempted and how they went. Failures are never retried away.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: u64,
    pub problems: Vec<String>,
}

impl Tally {
    fn note(&mut self, what: String) {
        if self.problems.len() < 10 {
            self.problems.push(what);
        }
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.note(what);
    }

    /// A reply that does not match: counts as failed, and fails the run.
    pub fn mismatch(&mut self, what: String) {
        self.mismatches += 1;
        self.fail(what);
    }
}

/// What a run measured, plus its record.
#[derive(Default)]
pub struct Outcome {
    pub tally: Tally,
    pub metrics: BTreeMap<String, f64>,
    /// Record fields as `(key, JSON value)`.
    pub record: Vec<(String, String)>,
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl Outcome {
    pub fn put(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    fn note(&mut self, key: &str, json: String) {
        self.record.push((key.to_string(), json));
    }

    /// The protocol, polling mode and queue depth selected per function.
    pub fn record_selection(&mut self, client: &HatClient, schema: &ServiceSchema, funcs: &[Func]) {
        let entries: Vec<String> = funcs
            .iter()
            .map(|f| {
                let sel = client.selection_for(f.name());
                let depth = schema.resolved(f.name(), Side::Client).queue_depth.unwrap_or(1);
                format!(
                    "{}: {{\"protocol\": {}, \"poll\": {}, \"queue_depth\": {depth}}}",
                    json_str(f.name()),
                    json_str(sel.protocol.label()),
                    json_str(&format!("{:?}", sel.poll)),
                )
            })
            .collect();
        self.note("selection", format!("{{{}}}", entries.join(", ")));
    }

    /// Sample counts of the measured phase, and samples beyond p99.
    pub fn samples(&mut self, meter: &Meter) {
        let entries: Vec<String> = meter
            .sample_counts()
            .iter()
            .map(|(f, n, beyond)| {
                format!("{}: {{\"count\": {n}, \"beyond_p99\": {beyond}}}", json_str(f.name()))
            })
            .collect();
        self.note("samples", format!("{{{}}}", entries.join(", ")));
    }
}

/// The repository root: the benchmark's own directory is one level down.
fn repo_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench has a parent")
        .into()
}

/// FNV-1a over the program's sources, so a record names the code it
/// measured even where no git metadata exists.
fn source_digest(root: &std::path::Path) -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    walk(&p, files);
                }
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml" || x == "thrift") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for d in ["crates", "src", "vendor", "perfbench/src"] {
        walk(&root.join(d), &mut files);
    }
    files.push(root.join("Cargo.toml"));
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let rel = f.strip_prefix(root).unwrap_or(&f).to_string_lossy().into_owned();
        for b in rel.bytes().chain(std::fs::read(&f).unwrap_or_default()) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// The checked-out commit, when the tree is a git work tree of its own.
fn git_commit(root: &std::path::Path) -> String {
    if !root.join(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn provenance(args: &Args, root: &std::path::Path) -> Vec<(String, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("workload".into(), json_str(args.workload.name())),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), args.seconds.to_string()),
        ("trace".into(), (args.trace as u8).to_string()),
        ("commit".into(), json_str(&git_commit(root))),
        ("source_digest".into(), json_str(&source_digest(root))),
        ("nproc".into(), nproc.to_string()),
        // hat-rdma-sim pays modelled costs by spinning on the wall clock.
        ("clock".into(), json_str("wall")),
        ("windows".into(), meter::WINDOWS.to_string()),
    ]
}

/// Write the traced run's spans to `.bench_out/spans-<workload>.csv`.
pub fn write_spans(args: &Args, tr: &trace::Tracer) {
    let dir = repo_root().join(".bench_out");
    let path = dir.join(format!("spans-{}.csv", args.workload.name()));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| tr.write_csv(&path)) {
        eprintln!("hatbench: could not write {}: {e}", path.display());
    }
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = match args.workload {
        Workload::KvRead => kv::run(&kv::KV_READ, &args),
        Workload::KvBatch => kv::run(&kv::KV_BATCH, &args),
        Workload::RpcMix => mix::run(&args),
    };
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("hatbench: {} failed: {e}", args.workload.name());
            std::process::exit(1);
        }
    };

    let catalogue = if args.trace { metrics::per_layer() } else { metrics::end_to_end() };
    let mut fields = Vec::new();
    let mut table = String::new();
    for (name, unit) in &catalogue {
        let value = match out.metrics.get(name.as_str()) {
            Some(v) => *v,
            // Per-layer metrics of a layer or function the workload does
            // not reach read 0.
            None if args.trace => 0.0,
            None => {
                eprintln!("hatbench: end-to-end metric {name} was not measured");
                std::process::exit(1);
            }
        };
        fields.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            number(value),
            json_str(unit)
        ));
        let _ = writeln!(table, "  {name:<44} {value:>14.4} {unit}");
    }
    let correct = out.tally.mismatches == 0 && out.tally.failed == 0;

    let root = repo_root();
    out.record.splice(0..0, provenance(&args, &root));
    out.note("attempted", out.tally.attempted.to_string());
    out.note("failed", out.tally.failed.to_string());
    out.note("mismatches", out.tally.mismatches.to_string());
    let problems: Vec<String> = out.tally.problems.iter().map(|p| json_str(p)).collect();
    out.note("problems", format!("[{}]", problems.join(", ")));
    out.note("metrics", format!("{{{}}}", fields.join(", ")));
    let record = format!(
        "{{{}}}",
        out.record
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k)))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let dir = root.join(".bench_out");
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        args.trace as u8
    ));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &record)) {
        eprintln!("hatbench: could not write {}: {e}", path.display());
    }
    eprintln!(
        "{} seed {} ({}):\n{table}record: {}",
        args.workload.name(),
        args.seed,
        if args.trace { "traced" } else { "end to end" },
        path.display()
    );
    for p in &out.tally.problems {
        eprintln!("problem: {p}");
    }

    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.tally.attempted,
        out.tally.failed,
        fields.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_and_reject() {
        let a = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let ok = a("--workload rpc-mix --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!((ok.workload, ok.seed, ok.seconds, ok.trace), (Workload::RpcMix, 3, 10.0, true));
        assert!(a("--workload nope --seed 3 --seconds 10 --trace 1").is_err());
        assert!(a("--workload kv-read --seed 3 --seconds 0 --trace 0").is_err());
        assert!(a("--workload kv-read --seed 3 --seconds 10 --trace 2").is_err());
        assert!(a("--workload kv-read --seconds 10 --trace 0").is_err());
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
