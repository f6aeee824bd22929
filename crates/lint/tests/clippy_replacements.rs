//! Coverage proof for the ins-lint rules that moved to workspace clippy
//! lints: L002, L003, L006 and the `HashMap`/`HashSet` half of L007
//! (DESIGN.md §8.2 maps each rule to its replacement).
//!
//! Every function below reproduces one site a retired rule reported in
//! the golden fixtures under `tests/fixtures/`, and carries
//! `#[expect(clippy::<lint>, reason = "former L00x: <fixture>:<line>")]`.
//! The `suppressions` and `suppression_identity` fixtures now exercise
//! L004 on the same lines; their sites here are the `unwrap`s they
//! carried while L002 was an ins-lint rule.
//! Drop a banned path from `clippy.toml` and its expectations go
//! unfulfilled, so `cargo clippy --workspace --all-targets -- -D
//! warnings` fails with `unfulfilled_lint_expectations`.
//!
//! An `#[expect]` switches its lint on where it sits, so these sites
//! cannot notice a lint dropped from `[workspace.lints]`; the manifest
//! test at the bottom pins those levels instead.
//!
//! The sites are plain functions, not `#[test]`s: clippy's
//! `allow-unwrap-in-tests` exemption reaches test functions only.

use std::fs;
use std::path::Path;
use std::sync::atomic::Ordering;

#[expect(
    clippy::disallowed_types,
    reason = "former L007: ordering_determinism:5"
)]
use std::collections::HashMap;
#[expect(clippy::disallowed_types, reason = "former L006: parallel_safety:6")]
use std::sync::Mutex;

#[expect(
    clippy::disallowed_methods,
    reason = "former L003: determinism_taint:17"
)]
fn stamp() -> String {
    format!("{:?}", std::time::Instant::now())
}

#[expect(clippy::unwrap_used, reason = "former L002: literals_and_comments:17")]
fn real(v: &[usize]) -> usize {
    v.first().copied().unwrap()
}

#[expect(clippy::unwrap_used, reason = "former L002: ordering_determinism:8")]
fn sort_scores(v: &mut [f64]) {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
}

#[expect(
    clippy::disallowed_types,
    reason = "former L007: ordering_determinism:11"
)]
fn index() -> HashMap<String, u32> {
    #[expect(
        clippy::disallowed_types,
        reason = "former L007: ordering_determinism:12"
    )]
    let map = HashMap::new();
    map
}

#[expect(clippy::disallowed_methods, reason = "former L006: parallel_safety:11")]
fn run() {
    let _ = std::thread::spawn(|| {}).join();
}

#[expect(clippy::disallowed_types, reason = "former L006: parallel_safety:12")]
fn guard() -> u32 {
    let m = Mutex::new(0u32);
    m.into_inner().unwrap_or_default()
}

#[expect(clippy::disallowed_types, reason = "former L006: parallel_safety:17")]
fn cells(items: &[u32]) -> u64 {
    let total = std::sync::atomic::AtomicU64::new(0);
    for x in items {
        accumulate(&total, *x);
    }
    total.into_inner()
}

// A side channel needs a value of a shared-state type, so the type is
// what the lint catches.
#[expect(clippy::disallowed_types, reason = "former L006: parallel_safety:19")]
fn accumulate(total: &std::sync::atomic::AtomicU64, x: u32) {
    total.fetch_add(u64::from(x), Ordering::Relaxed);
}

#[expect(clippy::unwrap_used, reason = "former L002: suppressions:8")]
fn excused(x: Option<u32>) -> u32 {
    x.unwrap()
}

#[expect(clippy::unwrap_used, reason = "former L002: suppressions:18")]
fn documented(x: Option<u32>) -> u32 {
    x.unwrap()
}

#[expect(clippy::unwrap_used, reason = "former L002: suppression_identity:11")]
fn sample_a() -> u32 {
    maybe().unwrap()
}

#[expect(clippy::unwrap_used, reason = "former L002: suppression_identity:15")]
fn sample_b() -> u32 {
    maybe().unwrap()
}

#[expect(clippy::unwrap_used, reason = "former L002: suppression_identity:20")]
fn sample_c() -> u32 {
    maybe().unwrap()
}

fn maybe() -> Option<u32> {
    Some(1)
}

#[expect(clippy::unwrap_used, reason = "former L002: test_regions:6")]
fn production(x: Option<u32>) -> u32 {
    x.unwrap()
}

#[test]
fn every_site_is_live_code() {
    let mut scores = [2.0, 1.0];
    sort_scores(&mut scores);
    assert_eq!(scores, [1.0, 2.0]);
    assert!(!stamp().is_empty());
    assert_eq!(real(&[4]), 4);
    assert!(index().is_empty());
    run();
    assert_eq!(guard(), 0);
    assert_eq!(cells(&[2, 3]), 5);
    let sum = excused(Some(1)) + documented(Some(1)) + production(Some(1));
    assert_eq!(sum + sample_a() + sample_b() + sample_c(), 6);
}

/// The replacement lints are switched on in every crate. This also
/// covers former L006 at parallel_safety:8 (`static mut`): no lint flags
/// the declaration, but without `unsafe` nothing can read or write it.
#[test]
fn every_crate_inherits_the_workspace_lints() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let workspace = fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    for level in [
        "unsafe_code = \"forbid\"",
        "unwrap_used = \"deny\"",
        "expect_used = \"deny\"",
        "disallowed_methods = \"deny\"",
        "disallowed_types = \"deny\"",
    ] {
        assert!(
            workspace.lines().any(|l| l == level),
            "[workspace.lints] lost `{level}`"
        );
    }
    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in fs::read_dir(root.join("crates")).expect("crates directory") {
        manifests.push(entry.expect("readable entry").path().join("Cargo.toml"));
    }
    assert!(manifests.len() > 10, "found {} manifests", manifests.len());
    for manifest in manifests {
        let text = fs::read_to_string(&manifest).expect("readable manifest");
        assert!(
            text.contains("[lints]\nworkspace = true"),
            "{} must opt into the workspace lints",
            manifest.display()
        );
    }
}
