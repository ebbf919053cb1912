//! `repro` — regenerate the paper's figures as text tables, and run the
//! gated sweep benches.
//!
//! ```text
//! repro <fig4|fig5|fig11|fig12|fig13|fig14|fig15|fig16|fig17|micro|all> [--full] [--tsv]
//! repro bench <pipeline|shards|onesided|connections|txn> [--full] [--check]
//!                            # one sweep -> BENCH_<name>.json (+ METRICS_<name>.json)
//! repro trace [--out FILE]    # capture a traced micro run (Chrome trace JSON)
//! repro stats [--json]       # per-node sim counters + latency histograms
//! repro metrics [--out FILE] [--json-out FILE] [--check]
//!                            # sampled micro run -> Prometheus exposition
//! repro top [--frames N] [--interval-ms N]
//!                            # live terminal telemetry dashboard
//! ```
//!
//! `--full` enlarges the figures' sweeps toward the paper's axes (for
//! `bench pipeline`: 128 iterations per point instead of 48); `--tsv` emits tab-separated
//! values (for EXPERIMENTS.md appendices) instead of aligned tables.
//! `bench --check` exits 1 when the bench fails one of its gates
//! (`hat_bench::sweep::BENCHES`). An unknown flag or target, or a flag
//! that no chosen target reads, prints the usage and exits 2.

use hat_bench::sweep::{self, Bench};
use hat_bench::{Scale, Table};

const USAGE: &str = "\
usage: repro <fig4|fig5|fig11|fig12|fig13|fig14|fig15|fig16|fig17|micro|all> [--full] [--tsv]
       repro bench <pipeline|shards|onesided|connections|txn> [--full] [--check]
       repro trace [--out FILE]
       repro stats [--json]
       repro metrics [--out FILE] [--json-out FILE] [--check]
       repro top [--frames N] [--interval-ms N]";

type Figure = fn(Scale) -> Table;

/// The paper's figures, in `all` order.
const FIGURES: [(&str, Figure); 10] = [
    ("fig4", hat_bench::fig04_protocol_latency),
    ("fig5", hat_bench::fig05_protocol_throughput),
    ("fig11", hat_bench::fig11_atb_latency),
    ("fig12", hat_bench::fig12_atb_throughput),
    ("fig13", hat_bench::fig13_mix),
    ("fig14", hat_bench::fig14_mix),
    ("fig15", hat_bench::fig15_ycsb),
    ("fig16", hat_bench::fig16_ycsb),
    ("fig17", hat_bench::fig17_tpch),
    ("micro", |_| hat_bench::micro_section3()),
];

const TOOLS: [&str; 5] = ["all", "trace", "stats", "metrics", "top"];

#[derive(Default)]
struct Args {
    full: bool,
    tsv: bool,
    json: bool,
    check: bool,
    out: Option<String>,
    json_out: Option<String>,
    frames: Option<u64>,
    interval_ms: Option<u64>,
    /// Targets to run in order, unless `bench` is set.
    targets: Vec<String>,
    bench: Option<&'static Bench>,
}

/// Whether `target` (a sweep bench as `bench <name>`) reads `flag`.
fn reads(target: &str, flag: &str) -> bool {
    let figure = target == "all" || FIGURES.iter().any(|(name, _)| *name == target);
    match flag {
        // `micro` has one size, and of the benches only pipeline scales.
        "--full" => (figure && target != "micro") || target == "bench pipeline",
        "--tsv" => figure || target == "stats",
        "--json" => target == "stats",
        "--check" => target == "metrics" || target.starts_with("bench "),
        "--out" => target == "trace" || target == "metrics",
        "--json-out" => target == "metrics",
        "--frames" | "--interval-ms" => target == "top",
        _ => false,
    }
}

/// Parse the command line; `Err` names the first thing not understood,
/// including a flag that no chosen target reads.
fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    let mut flags = Vec::new();
    let mut argv = argv.into_iter();
    while let Some(arg) = argv.next() {
        if arg.starts_with("--") {
            flags.push(arg.clone());
        }
        let mut value = || argv.next().ok_or(format!("{arg} needs an argument"));
        let number = |v: String| v.parse().map_err(|_| format!("{arg} wants an integer"));
        match arg.as_str() {
            "--full" => args.full = true,
            "--tsv" => args.tsv = true,
            "--json" => args.json = true,
            "--check" => args.check = true,
            "--out" => args.out = Some(value()?),
            "--json-out" => args.json_out = Some(value()?),
            "--frames" => args.frames = Some(number(value()?)?),
            "--interval-ms" => args.interval_ms = Some(number(value()?)?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag '{flag}'")),
            _ => args.targets.push(arg),
        }
    }
    let known = |t: &str| TOOLS.contains(&t) || FIGURES.iter().any(|(name, _)| *name == t);
    if args.targets.first().is_some_and(|t| t == "bench") {
        let [_, name] = args.targets.as_slice() else {
            return Err("bench takes exactly one bench name".to_string());
        };
        args.bench = Some(sweep::bench(name).ok_or(format!("unknown bench '{name}'"))?);
    } else if let Some(t) = args.targets.iter().find(|t| !known(t)) {
        return Err(format!("unknown target '{t}'"));
    } else if args.targets.is_empty() {
        args.targets.push("all".to_string());
    }
    let runs = match args.bench {
        Some(bench) => vec![format!("bench {}", bench.name)],
        None => args.targets.clone(),
    };
    if let Some(flag) = flags.iter().find(|f| !runs.iter().any(|t| reads(t, f))) {
        return Err(format!("{flag} does nothing for {}", runs.join(" ")));
    }
    Ok(args)
}

/// Write `contents` to `path`, or exit 1.
fn write_or_exit(path: &str, contents: &str) {
    std::fs::write(path, contents).unwrap_or_else(|e| {
        eprintln!("repro: cannot write {path}: {e}");
        std::process::exit(1);
    });
}

/// Run one sweep bench, write its record, and enforce its gates when
/// `check` is set.
fn run_bench(bench: &Bench, scale: Scale, check: bool) {
    let record = (bench.run)(scale);
    let paths = record.write(bench).unwrap_or_else(|e| {
        eprintln!("repro: cannot write {}: {e}", bench.record_path());
        std::process::exit(1);
    });
    eprintln!("repro: wrote {}", paths.join(", "));
    for (key, value) in &record.summary {
        println!("{}: {key} = {value}", bench.name);
    }
    if check {
        let failures = bench.failures(&record.summary);
        for failure in &failures {
            eprintln!("repro: bench {} FAILED: {failure}", bench.name);
        }
        if !failures.is_empty() {
            std::process::exit(1);
        }
        eprintln!("repro: bench {}: all {} gates passed", bench.name, bench.gates.len());
    }
}

fn main() {
    let args = parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("repro: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let scale = if args.full { Scale::Full } else { Scale::Quick };
    let print = |t: Table| {
        if args.tsv {
            println!("# {}", t.title());
            print!("{}", t.to_tsv());
        } else {
            println!("{t}");
        }
        // stdout to a file is block-buffered; make each finished table
        // visible immediately.
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
    };

    // Progress heartbeat: long sweeps on slow hosts would otherwise look
    // hung (stderr is line-buffered, so this shows up live).
    std::thread::spawn(|| {
        let start = std::time::Instant::now();
        loop {
            std::thread::sleep(std::time::Duration::from_secs(30));
            eprintln!("repro: still running ({}s elapsed)", start.elapsed().as_secs());
        }
    });

    if let Some(bench) = args.bench {
        run_bench(bench, scale, args.check);
        return;
    }
    for target in &args.targets {
        match target.as_str() {
            "all" => FIGURES.iter().for_each(|(_, figure)| print(figure(scale))),
            "trace" => {
                let trace_out = args.out.clone().unwrap_or_else(|| "TRACE_micro.json".to_string());
                let trace = hat_bench::capture_micro_trace();
                write_or_exit(&trace_out, &trace.json);
                eprintln!(
                    "repro: wrote {} ({} events, {} histogram rows) — open in ui.perfetto.dev",
                    trace_out,
                    trace.events,
                    trace.latency.len()
                );
            }
            "stats" => {
                let trace = hat_bench::capture_micro_trace();
                if args.json {
                    println!("{}", hat_bench::stats_json(&trace.fabric, &trace.latency));
                } else {
                    let mut table = Table::new(
                        "Per-node simulator counters (micro workload)",
                        &["node", "counter", "value"],
                    );
                    for (name, snap) in &trace.fabric.stats().nodes {
                        for (key, value) in snap.fields() {
                            table.row(vec![name.clone(), key.to_string(), value.to_string()]);
                        }
                    }
                    print(table);
                    let mut hists = Table::new(
                        "Latency histograms (ns)",
                        &["protocol", "fn", "size", "count", "p50", "p90", "p99", "max"],
                    );
                    for row in &trace.latency {
                        hists.row(vec![
                            row.protocol.to_string(),
                            row.fn_scope.clone(),
                            row.size_label.to_string(),
                            row.snapshot.count.to_string(),
                            row.snapshot.p50.to_string(),
                            row.snapshot.p90.to_string(),
                            row.snapshot.p99.to_string(),
                            row.snapshot.max.to_string(),
                        ]);
                    }
                    print(hists);
                }
            }
            "metrics" => {
                let metrics_out =
                    args.out.clone().unwrap_or_else(|| "METRICS_micro.prom".to_string());
                let m = hat_bench::capture_micro_metrics();
                write_or_exit(&metrics_out, &m.prometheus);
                eprintln!("repro: wrote {metrics_out} ({} ticks, {} ops sampled)", m.ticks, m.ops);
                if let Some(path) = &args.json_out {
                    write_or_exit(path, &m.timeline);
                    eprintln!("repro: wrote {path} (hat-metrics-timeline-v1)");
                }
                if args.check {
                    if let Err(e) = hat_metrics::export::validate_exposition(&m.prometheus) {
                        eprintln!("repro: exposition check FAILED: {e}");
                        std::process::exit(1);
                    }
                    eprintln!("repro: exposition check passed");
                }
            }
            "top" => {
                let interval = std::time::Duration::from_millis(args.interval_ms.unwrap_or(100));
                for frame in hat_bench::top_frames(args.frames.unwrap_or(3) as usize, interval) {
                    println!("{frame}");
                    use std::io::Write as _;
                    let _ = std::io::stdout().flush();
                }
            }
            figure => {
                let (_, run) = FIGURES.iter().find(|(name, _)| *name == figure).expect("known");
                print(run(scale));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<Args, String> {
        parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn every_flag_is_accepted_where_it_is_read() {
        for line in [
            "",
            "--full --tsv",
            "fig4 fig17 --full --tsv",
            "micro --tsv",
            "bench pipeline --full --check",
            "bench txn --check",
            "trace --out t.json",
            "stats --json",
            "metrics --out m.prom --json-out m.json --check",
            "top --frames 2 --interval-ms 5",
        ] {
            assert!(parse_line(line).is_ok(), "repro {line}: {:?}", parse_line(line).err());
        }
    }

    #[test]
    fn a_flag_no_target_reads_is_rejected() {
        for line in ["fig4 --check", "bench txn --out x", "bench shards --full", "micro --full"] {
            let err = parse_line(line).err().unwrap_or_else(|| panic!("repro {line} parsed"));
            assert!(err.contains("does nothing"), "repro {line}: {err}");
        }
    }
}
