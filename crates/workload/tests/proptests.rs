//! Property tests for the workload models.

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "test code")]

use proptest::prelude::*;

use ins_sim::time::{SimDuration, SimTime};
use ins_workload::batch::{BatchSpec, BatchWorkload};
use ins_workload::scaling::ScalingModel;
use ins_workload::stream::{StreamSpec, StreamWorkload};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Batch conservation: processed + pending == admitted, regardless of
    /// the capacity schedule.
    #[test]
    fn batch_conserves_data(
        rates in proptest::collection::vec(0.0f64..60.0, 10..200)
    ) {
        let mut w = BatchWorkload::new(BatchSpec::seismic());
        let mut t = SimTime::ZERO;
        for r in &rates {
            w.step(t, SimDuration::from_minutes(10), *r);
            t += SimDuration::from_minutes(10);
        }
        let admitted = 114.0
            * w.completed().len() as f64
            + w.pending_gb()
            + (w.processed_gb()
                - w.completed().len() as f64 * 114.0);
        // processed + pending must equal 114 × jobs admitted.
        let total_admitted = w.processed_gb() + w.pending_gb();
        prop_assert!((total_admitted / 114.0).fract() < 1e-6
            || (total_admitted / 114.0).fract() > 1.0 - 1e-6
            || total_admitted < 114.0 * 20.0);
        prop_assert!(admitted >= 0.0);
        // No negative quantities ever.
        prop_assert!(w.processed_gb() >= 0.0 && w.pending_gb() >= -1e-9);
    }

    /// Completed batch jobs always finish after they arrive, in FIFO order.
    #[test]
    fn batch_completions_are_ordered(
        rate in 10.0f64..80.0,
        days in 1u64..4
    ) {
        let mut w = BatchWorkload::new(BatchSpec::seismic());
        let mut t = SimTime::ZERO;
        let end = SimTime::from_secs(days * 86_400);
        while t < end {
            w.step(t, SimDuration::from_minutes(15), rate);
            t += SimDuration::from_minutes(15);
        }
        for c in w.completed() {
            prop_assert!(c.finished > c.arrived);
        }
        for pair in w.completed().windows(2) {
            prop_assert!(pair[0].finished <= pair[1].finished);
            prop_assert!(pair[0].arrived <= pair[1].arrived, "FIFO violated");
        }
    }

    /// Stream conservation: arrived == processed + backlog at all times.
    #[test]
    fn stream_conserves_data(
        rates in proptest::collection::vec(0.0f64..30.0, 1..300)
    ) {
        let mut w = StreamWorkload::new(StreamSpec::video_surveillance());
        for r in rates {
            w.step(SimDuration::from_minutes(1), r);
            let balance = w.arrived_gb() - w.processed_gb() - w.backlog_gb();
            prop_assert!(balance.abs() < 1e-6, "imbalance {balance}");
            prop_assert!(w.backlog_gb() >= -1e-9);
            prop_assert!(w.mean_delay_minutes() >= 0.0);
        }
    }

    /// Over-provisioned streams keep bounded delay; under-provisioned
    /// streams grow their backlog monotonically.
    #[test]
    fn stream_stability_dichotomy(capacity_factor in 0.2f64..2.0) {
        let spec = StreamSpec::video_surveillance();
        let capacity = spec.rate_gb_per_hour() * capacity_factor;
        let mut w = StreamWorkload::new(spec);
        let mut backlog_at_half = 0.0;
        for minute in 0..240 {
            w.step(SimDuration::from_minutes(1), capacity);
            if minute == 120 {
                backlog_at_half = w.backlog_gb();
            }
        }
        if capacity_factor >= 1.05 {
            prop_assert!(w.backlog_gb() < 0.5, "stable queue must stay small");
        } else if capacity_factor <= 0.95 {
            prop_assert!(w.backlog_gb() > backlog_at_half - 1e-9,
                "unstable queue must keep growing");
        }
    }

    /// Scaling models are monotone in VMs and duty.
    #[test]
    fn scaling_monotone(vms in 1u32..8, duty in 0.1f64..=0.9) {
        for m in [ScalingModel::seismic_analysis(), ScalingModel::video_surveillance()] {
            prop_assert!(m.gb_per_hour(vms + 1, duty) > m.gb_per_hour(vms, duty));
            prop_assert!(m.gb_per_hour(vms, duty + 0.1) > m.gb_per_hour(vms, duty));
            prop_assert!(m.gb_per_hour(vms, duty) > 0.0);
        }
    }
}
