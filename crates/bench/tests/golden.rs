//! Byte-for-byte lock on the paper output.
//!
//! Runs the experiment binaries that render the paper and its sweep
//! grids, each at `--threads 1`, and compares their stdout with the
//! committed files under `tests/golden/`. `tests/paper_claims.rs` only
//! checks thresholds; this test fails when any figure, table or sweep
//! cell moves at all, so a refactor that claims to change nothing can
//! prove it. Outputs are deterministic (seeded RNG, no wall clock) and
//! identical in debug and release builds.
//!
//! An intended change regenerates the files and explains the numeric
//! delta in its commit message:
//!
//! ```sh
//! cargo build -p ins-bench --release
//! b=target/release; g=crates/bench/tests/golden
//! $b/all_experiments --threads 1 > $g/all_experiments.txt
//! $b/fault_sweep --json --threads 1 > $g/fault_sweep.json
//! $b/recovery --json --threads 1 > $g/recovery.json
//! $b/fleet_resilience --json --threads 1 > $g/fleet_resilience.json
//! $b/endurance_weeks --threads 1 > $g/endurance_weeks.txt
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "test code")]

use std::process::Command;

/// Runs `bin args…` and asserts its stdout equals `golden`, reporting
/// the first differing line instead of two whole documents.
fn assert_matches_golden(bin: &str, args: &[&str], golden: &str) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawning {bin}: {e}"));
    assert!(out.status.success(), "{bin} {args:?} exited {}", out.status);
    let actual = String::from_utf8(out.stdout).expect("UTF-8 output");
    if actual == golden {
        return;
    }
    let (mut want, mut got) = (golden.lines(), actual.lines());
    for line in 1.. {
        match (want.next(), got.next()) {
            (Some(w), Some(g)) if w == g => {}
            (w, g) => panic!(
                "{bin} {args:?} diverged from its golden file at line {line}\n  \
                 golden: {w:?}\n  actual: {g:?}"
            ),
        }
    }
}

#[test]
fn all_experiments_matches_golden() {
    assert_matches_golden(
        env!("CARGO_BIN_EXE_all_experiments"),
        &["--threads", "1"],
        include_str!("golden/all_experiments.txt"),
    );
}

#[test]
fn fault_sweep_json_matches_golden() {
    assert_matches_golden(
        env!("CARGO_BIN_EXE_fault_sweep"),
        &["--json", "--threads", "1"],
        include_str!("golden/fault_sweep.json"),
    );
}

#[test]
fn recovery_json_matches_golden() {
    assert_matches_golden(
        env!("CARGO_BIN_EXE_recovery"),
        &["--json", "--threads", "1"],
        include_str!("golden/recovery.json"),
    );
}

#[test]
fn fleet_resilience_json_matches_golden() {
    assert_matches_golden(
        env!("CARGO_BIN_EXE_fleet_resilience"),
        &["--json", "--threads", "1"],
        include_str!("golden/fleet_resilience.json"),
    );
}

#[test]
fn endurance_weeks_matches_golden() {
    assert_matches_golden(
        env!("CARGO_BIN_EXE_endurance_weeks"),
        &["--threads", "1"],
        include_str!("golden/endurance_weeks.txt"),
    );
}
