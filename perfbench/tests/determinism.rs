//! The same seed must give byte-identical inputs and identical per-layer
//! counts; another seed must give other inputs. Each measurement runs in
//! a fresh process, as in the benchmark, because the interner, the memo
//! gauges and the solver counters are process-global.

use std::io::Write;
use std::process::{Command, Stdio};

const EXE: &str = env!("CARGO_BIN_EXE_perfbench");

fn run(args: &[&str], stdin: &[u8]) -> Vec<u8> {
    let mut child = Command::new(EXE)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("benchmark binary starts");
    let mut pipe = child.stdin.take().expect("stdin is piped");
    pipe.write_all(stdin).expect("stdin accepts the input");
    drop(pipe);
    let out = child.wait_with_output().expect("benchmark binary finishes");
    assert!(out.status.success(), "{args:?} failed");
    out.stdout
}

fn gen(workload: &str, seed: &str) -> Vec<u8> {
    run(
        &[
            "--role",
            "gen",
            "--workload",
            workload,
            "--seed",
            seed,
            "--seconds",
            "1",
        ],
        b"",
    )
}

/// The counts of one untraced replay, from its report line.
fn replay_counts(workload: &str, blob: &[u8]) -> fast_json::Json {
    let args: &[&str] = if workload.starts_with("serve_") {
        &["--role", "replay", "--workload", workload, "--parity", "0"]
    } else {
        &[
            "--role",
            "work",
            "--mode",
            "replay",
            "--workload",
            workload,
            "--seed",
            "7",
            "--parity",
            "0",
        ]
    };
    let out = String::from_utf8(run(args, blob)).expect("UTF-8 report");
    let line = out.lines().last().expect("a report line");
    let report = fast_json::Json::parse(line).expect("JSON report");
    assert_eq!(report.get("wrong").and_then(|w| w.as_int()), Some(0));
    report.get("counts").expect("counts").clone()
}

fn count(counts: &fast_json::Json, name: &str) -> f64 {
    counts
        .get(name)
        .and_then(|v| v.as_f64())
        .unwrap_or_else(|| panic!("count {name} is reported"))
}

#[test]
fn inputs_repeat_byte_for_byte_and_change_with_the_seed() {
    for workload in ["serve_hot", "serve_cold", "batch_fig7", "ar_check"] {
        let a = gen(workload, "7");
        assert!(!a.is_empty(), "{workload}");
        assert!(
            a == gen(workload, "7"),
            "{workload}: same seed, other inputs"
        );
        assert!(
            a != gen(workload, "8"),
            "{workload}: other seed, same inputs"
        );
    }
}

#[test]
fn serve_counts_repeat_exactly() {
    for workload in ["serve_hot", "serve_cold"] {
        let blob = gen(workload, "7");
        let a = replay_counts(workload, &blob);
        let b = replay_counts(workload, &blob);
        for name in ["trees.intern_miss_ratio", "rt.memo_hit_ratio"] {
            assert_eq!(count(&a, name), count(&b, name), "{workload} {name}");
        }
    }
}

#[test]
fn ar_check_counts_repeat_exactly() {
    let a = replay_counts("ar_check", b"");
    let b = replay_counts("ar_check", b"");
    for name in [
        "smt.check_count",
        "core.compose_pair_states",
        "ar.conflicts",
    ] {
        assert_eq!(count(&a, name), count(&b, name), "{name}");
    }
    assert!(count(&a, "ar.conflicts") > 0.0, "some pair conflicts");
}
