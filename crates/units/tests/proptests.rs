//! Property tests for the unit system's algebraic laws.

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "test code")]

use proptest::prelude::*;

use ins_units::{Amps, Hours, Soc, Volts, Watts};

/// Distance in units-in-the-last-place between two finite positive floats.
fn ulp_distance(a: f64, b: f64) -> u64 {
    a.to_bits().abs_diff(b.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `(P · t) / t = P`: energy accumulated over an interval divided by
    /// the same interval returns the original power within 1 ulp.
    #[test]
    fn power_time_round_trip(w in 0.001f64..=5_000.0, h in 0.001f64..=100.0) {
        let p = Watts::new(w);
        let round_tripped = (p * Hours::new(h)) / Hours::new(h);
        prop_assert!(
            ulp_distance(round_tripped.value(), w) <= 1,
            "{} vs {} ({} ulp)",
            round_tripped.value(),
            w,
            ulp_distance(round_tripped.value(), w)
        );
    }

    /// The same law for charge: `(I · t) / t = I` within 1 ulp.
    #[test]
    fn current_time_round_trip(a in 0.001f64..=500.0, h in 0.001f64..=100.0) {
        let i = Amps::new(a);
        let round_tripped = (i * Hours::new(h)) / Hours::new(h);
        prop_assert!(ulp_distance(round_tripped.value(), a) <= 1);
    }

    /// Ohm's law composes: `(V / R) · R = V` within 1 ulp.
    #[test]
    fn ohms_law_round_trip(v in 0.1f64..=1_000.0, r in 0.01f64..=100.0) {
        let volts = Volts::new(v);
        let ohms = ins_units::Ohms::new(r);
        let back = (volts / ohms) * ohms;
        prop_assert!(ulp_distance(back.value(), v) <= 1);
    }

    /// Power splits equally between voltage and current factors:
    /// `V · I = I · V` exactly (multiplication commutes bitwise).
    #[test]
    fn power_factors_commute(v in 0.1f64..=60.0, a in 0.0f64..=200.0) {
        let left = Volts::new(v) * Amps::new(a);
        let right = Amps::new(a) * Volts::new(v);
        prop_assert_eq!(left.value().to_bits(), right.value().to_bits());
    }

    /// Construction clamps every finite input into the unit interval and
    /// agrees with `f64::clamp`.
    #[test]
    fn soc_clamps_all_finite_inputs(x in -1.0e6f64..=1.0e6) {
        let soc = Soc::new(x);
        prop_assert!((0.0..=1.0).contains(&soc.value()));
        prop_assert_eq!(soc.value(), x.clamp(0.0, 1.0));
        // And the checked constructor agrees on finite inputs.
        prop_assert_eq!(Soc::try_new(x), Ok(soc));
    }

    /// Ordering on `Soc` matches ordering on the underlying fraction.
    #[test]
    fn soc_preserves_order(x in 0.0f64..=1.0, y in 0.0f64..=1.0) {
        let (sx, sy) = (Soc::new(x), Soc::new(y));
        prop_assert_eq!(sx < sy, x < y);
        prop_assert_eq!(sx == sy, x == y);
        prop_assert_eq!(sx.min(sy).value(), x.min(y));
        prop_assert_eq!(sx.max(sy).value(), x.max(y));
        // The cross-type comparison escape hatch agrees too.
        prop_assert_eq!(sx < y, x < y);
        prop_assert_eq!(x < sy, x < y);
    }
}

#[test]
fn soc_rejects_every_non_finite_input() {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert!(Soc::try_new(bad).is_err(), "accepted {bad}");
    }
}
