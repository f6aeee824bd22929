//! Determinism passes: L004 (exact float comparison) and L007 (NaN-unsafe
//! comparators). Wall-clock reads and unordered collections are
//! `clippy::disallowed_methods` / `clippy::disallowed_types`.

use crate::lexer::TokenKind;
use crate::rules::{find_matching, RuleCtx};
use crate::{Finding, Rule};

/// L004: `==` / `!=` against a float literal on non-test lines.
pub fn check_float_eq(ctx: &RuleCtx<'_>, out: &mut Vec<Finding>) {
    let f = ctx.file;
    let mut last_line = 0usize;
    for i in 0..f.sig.len() {
        if !matches!(f.sig_text(i), "==" | "!=") {
            continue;
        }
        let Some(op) = f.sig_token(i).copied() else {
            continue;
        };
        let line = f.line_of(op.start);
        if line == last_line || f.is_test_line(line) {
            continue;
        }
        let left_float = f
            .sig_token(i.wrapping_sub(1))
            .is_some_and(|t| t.kind == TokenKind::Float);
        let right_float = match f.sig_token(i + 1) {
            Some(t) if t.kind == TokenKind::Float => true,
            // A negated literal: `x == -1.5`.
            Some(t) if f.text(t) == "-" => f
                .sig_token(i + 2)
                .is_some_and(|t| t.kind == TokenKind::Float),
            _ => false,
        };
        if (left_float && i > 0) || right_float {
            ctx.push(
                out,
                Rule::FloatEquality,
                op.start,
                Rule::FloatEquality.description().to_string(),
            );
            last_line = line;
        }
    }
}

const NAN_MASKING: [&str; 4] = ["unwrap", "expect", "unwrap_or", "unwrap_or_else"];

/// L007: ordering determinism in production code.
/// `partial_cmp(..).unwrap()` / `.unwrap_or(..)` comparators either
/// panic on NaN or silently map it to an arbitrary rank, making sort
/// order input-dependent in exactly the cases that corrupt serialized
/// output — use `total_cmp` or `ins_units::total_order`.
pub fn check_ordering(ctx: &RuleCtx<'_>, out: &mut Vec<Finding>) {
    let f = ctx.file;
    for i in 0..f.sig.len() {
        let Some(tok) = f.sig_token(i).copied() else {
            continue;
        };
        let line = f.line_of(tok.start);
        if f.is_test_line(line) {
            continue;
        }
        let text = f.sig_text(i);
        if text == "partial_cmp" && f.sig_text(i + 1) == "(" {
            if let Some(close) = find_matching(f, i + 1) {
                if f.sig_text(close + 1) == "." && NAN_MASKING.contains(&f.sig_text(close + 2)) {
                    ctx.push(
                        out,
                        Rule::OrderingDeterminism,
                        tok.start,
                        format!(
                            "`partial_cmp(..).{}(..)` comparator panics on or masks NaN; \
                             use `total_cmp` or `ins_units::total_order`",
                            f.sig_text(close + 2)
                        ),
                    );
                }
            }
        }
    }
}

/// L004 as a [`crate::rules::Pass`].
pub struct FloatEquality;

impl crate::rules::Pass for FloatEquality {
    fn rule(&self) -> Rule {
        Rule::FloatEquality
    }

    fn run(&self, ctx: &RuleCtx<'_>, out: &mut Vec<Finding>) {
        check_float_eq(ctx, out);
    }
}

/// L007 as a [`crate::rules::Pass`].
pub struct OrderingDeterminism;

impl crate::rules::Pass for OrderingDeterminism {
    fn rule(&self) -> Rule {
        Rule::OrderingDeterminism
    }

    fn run(&self, ctx: &RuleCtx<'_>, out: &mut Vec<Finding>) {
        check_ordering(ctx, out);
    }
}
