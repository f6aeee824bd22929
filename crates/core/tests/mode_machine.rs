//! Exhaustive properties of the Fig. 8 e-Buffer mode state machine.
//!
//! §3.2's diagram has exactly four modes and seven legal transitions.
//! These tests check the `transition` function against the diagram
//! *exhaustively* — every `(mode, cause)` pair — and then random-walk the
//! machine to confirm that arbitrary cause sequences can never drive a
//! unit onto an edge Fig. 8 does not contain.

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "test code")]

use ins_core::mode::{transition, BufferMode, TransitionCause};
use proptest::prelude::*;

/// 4 modes × 7 causes = 28 pairs; exactly the 7 Fig. 8 edges succeed and
/// each lands on its diagrammed target.
#[test]
fn transition_table_matches_fig8_exactly() {
    let mut legal = 0;
    for from in BufferMode::ALL {
        for cause in TransitionCause::ALL {
            let (edge_from, edge_to) = cause.edge();
            match transition(from, cause) {
                Ok(to) => {
                    legal += 1;
                    assert_eq!(from, edge_from, "{cause:?} fired from wrong mode {from}");
                    assert_eq!(
                        to, edge_to,
                        "{cause:?} landed on {to}, diagram says {edge_to}"
                    );
                }
                Err(e) => {
                    assert_ne!(
                        from, edge_from,
                        "{cause:?} rejected from its own source mode"
                    );
                    assert_eq!(e.from, from);
                    assert_eq!(e.cause, cause);
                }
            }
        }
    }
    assert_eq!(legal, 7, "Fig. 8 has exactly seven edges");
}

/// Every mode is reachable from every other via legal edges (the diagram
/// is one strongly connected cycle with a chord).
#[test]
fn diagram_is_strongly_connected() {
    for start in BufferMode::ALL {
        let mut reached = vec![start];
        // Fixed-point closure over legal edges.
        loop {
            let before = reached.len();
            for cause in TransitionCause::ALL {
                let (from, to) = cause.edge();
                if reached.contains(&from) && !reached.contains(&to) {
                    reached.push(to);
                }
            }
            if reached.len() == before {
                break;
            }
        }
        assert_eq!(reached.len(), BufferMode::ALL.len(), "from {start}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A random walk applying arbitrary cause sequences: the state stays
    /// one of the four modes, moves only along diagrammed edges, and
    /// rejected causes leave the state untouched.
    #[test]
    fn random_walks_never_leave_the_diagram(
        start in 0usize..4,
        causes in proptest::collection::vec(0usize..7, 0..64),
    ) {
        let mut mode = BufferMode::ALL[start];
        for &c in &causes {
            let cause = TransitionCause::ALL[c];
            let before = mode;
            match transition(mode, cause) {
                Ok(next) => {
                    prop_assert_eq!(cause.edge(), (before, next));
                    prop_assert!(BufferMode::ALL.contains(&next));
                    mode = next;
                }
                Err(e) => {
                    prop_assert_eq!(e.from, before);
                    prop_assert_eq!(e.cause, cause);
                    // An illegal cause must not move the unit.
                    prop_assert_eq!(mode, before);
                }
            }
        }
    }

    /// From any state, a cause either succeeds or errors — `transition`
    /// is total and deterministic over the whole input space.
    #[test]
    fn transition_is_total_and_deterministic(from in 0usize..4, cause in 0usize..7) {
        let f = BufferMode::ALL[from];
        let c = TransitionCause::ALL[cause];
        prop_assert_eq!(transition(f, c), transition(f, c));
    }
}
