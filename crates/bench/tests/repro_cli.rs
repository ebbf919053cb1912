//! `repro` rejects what it does not understand: an unknown flag, target
//! or bench name, a `bench` without a name, or a flag the chosen target
//! ignores, prints the usage and exits 2 before any workload runs — so a
//! typo such as `--chek`, or `--check` on a target that checks nothing,
//! can never look like a passing gate.

use std::process::Command;

fn repro(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("run repro");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn rejected_command_lines_print_usage_and_exit_2() {
    for args in [
        &["bench", "pipeline", "--chek"][..],
        &["fig4", "--check-speedup"],
        &["--iters", "48"],
        &["bench", "nope"],
        &["bench"],
        &["bench", "txn", "shards"],
        &["fig99"],
        &["trace", "--out"],
        &["top", "--frames", "many"],
        &["fig4", "--check"],
        &["bench", "txn", "--out", "x.json"],
        &["bench", "connections", "--full"],
    ] {
        let (code, stderr) = repro(args);
        assert_eq!(code, Some(2), "repro {args:?} must exit 2; stderr: {stderr}");
        assert!(stderr.contains("usage: repro"), "repro {args:?} prints the usage: {stderr}");
    }
}
