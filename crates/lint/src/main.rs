//! CLI for the InSURE repository linter.
//!
//! ```text
//! cargo run -p ins-lint -- [--json] [--rules L001,L004] [--explain Lxxx] <path>...
//! ```
//!
//! Exit codes: `0` clean, `1` unsuppressed findings, `2` usage or I/O
//! error.

use std::path::PathBuf;
use std::process::ExitCode;

use ins_lint::{analyze_paths, report_json, Config, Finding, Rule, TraceHop};

fn usage() -> &'static str {
    "usage: ins-lint [--json] [--rules L001,L004,...] [--explain Lxxx] <path>...\n\
     \n\
     Scans .rs files under each path for InSURE convention violations.\n\
     Rules:\n\
       L001  untyped physical-quantity parameter in a public signature\n\
       L004  exact float comparison against a literal\n\
       L005  task marker without an issue reference\n\
       L007  NaN-unsafe partial_cmp comparator\n\
       L008  raw value crossing a unit-dimension boundary\n\
       L009  panic surface in production physics/fleet code\n\
       L010  stale suppression marker (unsuppressable)\n\
       L011  public entry point transitively reaches a panic\n\
       L012  serialization root tainted by nondeterministic iteration\n\
       L013  raw f64 crossing a crate boundary into a quantity slot\n\
     Unwraps, wall-clock reads, threads and HashMap/HashSet are workspace\n\
     clippy lints (see clippy.toml).\n\
     Suppress inline with `// ins-lint: allow(L00x) -- reason` on or\n\
     above the line. `--explain Lxxx` prints a rule's full semantics."
}

/// Prints the long-form explanation for one rule, including a rendered
/// call-path example for the interprocedural passes.
fn explain(rule: Rule) {
    println!("{}  {}", rule.id(), rule.description());
    match rule {
        Rule::TransitivePanic => {
            println!(
                "\nL011 walks the workspace call graph from every public \
                 function in a\npanic-surface crate (physics, fleet, service) \
                 and from every function in\na critical file (supervisor.rs, \
                 safe_mode.rs). If any chain of non-test\ncalls reaches a \
                 `panic!`/`unwrap`/`expect`, the entry point is flagged \
                 with\nthe full call path. Roots documenting `# Panics` are \
                 exempt.\n\nExample finding:"
            );
            let mut f = Finding::new(
                "crates/fleet/src/router.rs".to_string(),
                12,
                Rule::TransitivePanic,
                "`router::route` can reach a panic: `.unwrap(…)` in \
                 `breaker::trip` (2 call(s) away)"
                    .to_string(),
            );
            f.trace = vec![
                TraceHop {
                    path: "crates/fleet/src/router.rs".to_string(),
                    line: 14,
                    note: "calls `breaker::arm`".to_string(),
                },
                TraceHop {
                    path: "crates/fleet/src/breaker.rs".to_string(),
                    line: 22,
                    note: "calls `breaker::trip`".to_string(),
                },
                TraceHop {
                    path: "crates/fleet/src/breaker.rs".to_string(),
                    line: 30,
                    note: "panics: `.unwrap(…)`".to_string(),
                },
            ];
            println!("\n{f}");
            println!(
                "\nFix by returning `Result` along the chain (a `try_` \
                 sibling), or\ndocument the invariant with a `# Panics` \
                 section on the root."
            );
        }
        Rule::DeterminismTaint => {
            println!(
                "\nL012 marks public serialization/telemetry roots (names \
                 containing\njson, csv, sarif, telemetry, serialize, export) \
                 whose call graph\nreaches a nondeterminism source: wall \
                 clock, OS randomness, or\niteration over an unordered \
                 HashMap/HashSet. Replays and golden\nfiles require such \
                 roots to be bit-stable; route them through\nsorted \
                 (BTreeMap) collections or injected clocks."
            );
        }
        Rule::CrossUnitFlow => {
            println!(
                "\nL013 follows raw `f64` return values across crate \
                 boundaries into\nparameters whose names claim a physical \
                 dimension (power, energy,\nvoltage, …). Inside one crate \
                 the convention is local and visible;\nacross crates the \
                 dimension must ride the type system — return a\nnewtype \
                 from the units catalog instead."
            );
        }
        _ => {}
    }
}

fn main() -> ExitCode {
    let mut json = false;
    let mut roots: Vec<PathBuf> = Vec::new();
    let mut config = Config::default_workspace();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--explain" => {
                let Some(id) = args.next() else {
                    eprintln!("--explain needs a rule id\n\n{}", usage());
                    return ExitCode::from(2);
                };
                let Some(rule) = Rule::from_id(&id) else {
                    eprintln!("unknown rule id {id:?}\n\n{}", usage());
                    return ExitCode::from(2);
                };
                explain(rule);
                return ExitCode::SUCCESS;
            }
            "--rules" => {
                let Some(list) = args.next() else {
                    eprintln!("--rules needs a comma-separated id list\n\n{}", usage());
                    return ExitCode::from(2);
                };
                let rules: Vec<Rule> = list.split(',').filter_map(Rule::from_id).collect();
                if rules.is_empty() {
                    eprintln!("no valid rule ids in {list:?}\n\n{}", usage());
                    return ExitCode::from(2);
                }
                config.rules = rules;
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            _ if arg.starts_with('-') => {
                eprintln!("unknown option {arg:?}\n\n{}", usage());
                return ExitCode::from(2);
            }
            _ => roots.push(PathBuf::from(arg)),
        }
    }
    if roots.is_empty() {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    }
    let findings = match analyze_paths(&roots, &config) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("ins-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if json {
        println!("{}", report_json(&findings));
    } else {
        for f in &findings {
            println!("{f}");
        }
        if findings.is_empty() {
            eprintln!("ins-lint: clean");
        } else {
            eprintln!("ins-lint: {} finding(s)", findings.len());
        }
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
