//! Workspace-level determinism contract for the parallel sweep engine.
//!
//! The experiment binaries advertise byte-identical output at any
//! `--threads` value. These tests pin that promise at the JSON-artifact
//! level — the exact bytes the CI `chaos` and `bench-smoke` jobs diff —
//! by rendering the fault-sweep and recovery grids serially and at
//! several worker counts, including counts above the cell count.

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "test code")]

use ins_bench::experiments::{faults, fleet, recovery};

#[test]
fn fault_sweep_json_is_byte_identical_across_thread_counts() {
    // Small grid to keep the suite fast; two rates × two controllers is
    // enough cells to exercise real work-stealing interleavings.
    let rates = [None, Some(2.0)];
    let serial = faults::to_json(&faults::sweep_rates_with(11, &rates, 1));
    for threads in [2, 4, 16] {
        let parallel = faults::to_json(&faults::sweep_rates_with(11, &rates, threads));
        assert_eq!(
            serial, parallel,
            "fault_sweep JSON diverged at --threads {threads}"
        );
    }
}

#[test]
fn recovery_json_is_byte_identical_across_thread_counts() {
    let intervals = [1.0];
    let rates = [2.0, 4.0];
    let serial = recovery::to_json(&recovery::sweep_grid_with(11, &intervals, &rates, 1));
    for threads in [2, 4, 16] {
        let parallel =
            recovery::to_json(&recovery::sweep_grid_with(11, &intervals, &rates, threads));
        assert_eq!(
            serial, parallel,
            "recovery JSON diverged at --threads {threads}"
        );
    }
}

#[test]
fn fleet_json_is_byte_identical_across_thread_counts_and_reruns() {
    // The fleet_resilience sweep runs whole federated fleets per cell;
    // its JSON must be byte-identical at --threads 1 vs 4 (and beyond),
    // and across reruns of the same seed in the same process.
    let sizes = [2, 3];
    let rates = [0.0, 2.0];
    let breakers = ["standard"];
    let serial = fleet::to_json(&fleet::sweep_grid_with(11, &sizes, &rates, &breakers, 1));
    for threads in [4, 16] {
        let parallel = fleet::to_json(&fleet::sweep_grid_with(
            11, &sizes, &rates, &breakers, threads,
        ));
        assert_eq!(
            serial, parallel,
            "fleet_resilience JSON diverged at --threads {threads}"
        );
    }
    let rerun = fleet::to_json(&fleet::sweep_grid_with(11, &sizes, &rates, &breakers, 1));
    assert_eq!(
        serial, rerun,
        "fleet_resilience JSON diverged across reruns"
    );
}

#[test]
fn thread_count_zero_resolves_to_available_parallelism() {
    // `--threads 0` (the binaries' default) must also match the serial
    // rendering, whatever the host's core count.
    let rates = [Some(4.0)];
    let serial = faults::to_json(&faults::sweep_rates_with(7, &rates, 1));
    let auto = faults::to_json(&faults::sweep_rates_with(7, &rates, 0));
    assert_eq!(serial, auto);
}
