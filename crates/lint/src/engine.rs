//! The analysis engine: file collection, the token- and graph-pass
//! pipeline, and the suppression/L010 protocol.
//!
//! Every run has the same shape:
//!
//! 1. read all files, lex/parse everything (parsing is cheap and the
//!    call graph needs the whole workspace);
//! 2. per file, run the token passes;
//! 3. build the call graph and run the graph passes;
//! 4. merge raw findings per file, apply the suppression protocol
//!    (markers that excuse nothing become L010 findings), filter to the
//!    enabled rules, sort.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::callgraph::CallGraph;
use crate::context::FileContext;
use crate::index::SymbolIndex;
use crate::parser::{parse, ParsedFile};
use crate::rules::graph::{graph_passes, GraphCtx};
use crate::rules::{passes, RuleCtx};
use crate::{Config, Finding, Rule};

/// Applies the suppression protocol to one file's raw findings:
///
/// 1. all passes ran, regardless of which rules are enabled (stale-
///    suppression accounting must see the full raw finding set);
/// 2. a marker on line *n* suppresses matching findings on lines *n*
///    and *n + 1*, and is recorded as *used*;
/// 3. every `allow(Lxxx)` entry that suppressed nothing, and every
///    entry naming an unknown rule id, becomes an L010 finding at the
///    marker's line — L010 itself cannot be suppressed;
/// 4. findings are filtered to the enabled rules and sorted by
///    (line, rule id).
fn apply_suppressions(
    file: &FileContext<'_>,
    mut findings: Vec<Finding>,
    config: &Config,
) -> Vec<Finding> {
    let mut used: Vec<Vec<bool>> = file
        .suppressions
        .iter()
        .map(|s| vec![false; s.rules.len()])
        .collect();
    findings.retain(|f| {
        let mut suppressed = false;
        for (si, s) in file.suppressions.iter().enumerate() {
            if f.line != s.line && f.line != s.line + 1 {
                continue;
            }
            for (ri, r) in s.rules.iter().enumerate() {
                if *r == f.rule {
                    used[si][ri] = true;
                    suppressed = true;
                }
            }
        }
        !suppressed
    });
    for (si, s) in file.suppressions.iter().enumerate() {
        for (ri, r) in s.rules.iter().enumerate() {
            if !used[si][ri] {
                findings.push(Finding::new(
                    file.path.clone(),
                    s.line,
                    Rule::StaleSuppression,
                    format!(
                        "`allow({})` no longer matches any finding on this or the next \
                         line; remove the marker",
                        r.id()
                    ),
                ));
            }
        }
        for id in &s.unknown {
            findings.push(Finding::new(
                file.path.clone(),
                s.line,
                Rule::StaleSuppression,
                format!("`allow({id})` names an unknown rule id; remove the marker"),
            ));
        }
    }
    findings.retain(|f| config.rules.contains(&f.rule));
    findings.sort_by_key(|f| (f.line, f.rule.id()));
    findings
}

/// Runs the token passes over one file, returning raw findings.
fn run_token_passes(file: &FileContext<'_>, index: &SymbolIndex, config: &Config) -> Vec<Finding> {
    let ctx = RuleCtx {
        file,
        index,
        config,
    };
    let mut findings = Vec::new();
    for pass in passes() {
        pass.run(&ctx, &mut findings);
    }
    findings
}

/// The full pipeline over in-memory sources.
///
/// This is the engine's real entry point; [`analyze_paths`] and
/// [`analyze_source`] are thin adapters over it. Public so harnesses
/// (golden fixtures, fuzzers) can drive multi-file analyses without
/// touching the filesystem.
pub fn analyze_sources(mut sources: Vec<(String, String)>, config: &Config) -> Vec<Finding> {
    sources.sort_by(|a, b| a.0.cmp(&b.0));
    let contexts: Vec<FileContext<'_>> = sources
        .iter()
        .map(|(path, src)| FileContext::new(path, src))
        .collect();
    let mut index = SymbolIndex::with_builtin_units();
    for ctx in &contexts {
        index.add_file(ctx);
    }
    let parsed: Vec<ParsedFile> = contexts.iter().map(parse).collect();
    for p in &parsed {
        index.add_parsed(p);
    }
    let inputs: Vec<(&FileContext<'_>, &ParsedFile)> = contexts.iter().zip(parsed.iter()).collect();

    let mut per_file: Vec<Vec<Finding>> = contexts
        .iter()
        .map(|ctx| run_token_passes(ctx, &index, config))
        .collect();
    let graph = CallGraph::build(&inputs, &index);
    let gctx = GraphCtx {
        graph: &graph,
        files: &inputs,
        config,
    };
    let mut fresh = Vec::new();
    for pass in graph_passes() {
        pass.run(&gctx, &mut fresh);
    }
    // Graph findings are always anchored in the file that owns the
    // root (L011/L012) or the call site (L013).
    for f in fresh {
        if let Ok(i) = contexts.binary_search_by(|c| c.path.as_str().cmp(&f.path)) {
            per_file[i].push(f);
        }
    }

    let mut out = Vec::new();
    for (ctx, findings) in contexts.iter().zip(per_file) {
        out.extend(apply_suppressions(ctx, findings, config));
    }
    out.sort_by(|a, b| (&a.path, a.line, a.rule.id()).cmp(&(&b.path, b.line, b.rule.id())));
    out
}

/// Analyzes one source text as if it lived at `path`, returning the
/// unsuppressed findings sorted by line. The graph passes run over the
/// single-file call graph, so fixtures exercise L011–L013 too.
///
/// Single-source analyses never see the units crate, so the symbol
/// index is seeded with the workspace's built-in quantity catalog
/// before folding in the file itself.
#[must_use]
pub fn analyze_source(path: &str, src: &str, config: &Config) -> Vec<Finding> {
    analyze_sources(vec![(path.to_string(), src.to_string())], config)
}

/// Recursively collects `.rs` files under each path (files pass through).
///
/// # Errors
///
/// Propagates filesystem errors from directory walks.
pub fn collect_rust_files(roots: &[PathBuf]) -> io::Result<Vec<PathBuf>> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
        let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
            .collect::<io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        entries.sort();
        for entry in entries {
            let name = entry.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if entry.is_dir() {
                if name == "target" || name.starts_with('.') {
                    continue;
                }
                walk(&entry, out)?;
            } else if name.ends_with(".rs") {
                out.push(entry);
            }
        }
        Ok(())
    }
    let mut files = Vec::new();
    for root in roots {
        if root.is_dir() {
            walk(root, &mut files)?;
        } else if root.extension().is_some_and(|e| e == "rs") {
            files.push(root.clone());
        }
    }
    Ok(files)
}

fn read_sources(roots: &[PathBuf]) -> io::Result<Vec<(String, String)>> {
    let mut sources = Vec::new();
    for file in collect_rust_files(roots)? {
        let src = fs::read_to_string(&file)?;
        sources.push((file.to_string_lossy().into_owned(), src));
    }
    Ok(sources)
}

/// Analyzes every `.rs` file under the given roots: token passes per
/// file against the cross-file symbol index, then the interprocedural
/// passes over the workspace call graph. Output order is fully
/// deterministic: files sorted by path, findings by (path, line, rule
/// id).
///
/// # Errors
///
/// Propagates filesystem errors (unreadable file or directory).
pub fn analyze_paths(roots: &[PathBuf], config: &Config) -> io::Result<Vec<Finding>> {
    Ok(analyze_sources(read_sources(roots)?, config))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppression_applies_to_graph_pass_findings() {
        let src = vec![(
            "crates/battery/src/pack.rs".to_string(),
            "fn helper() { panic!(\"boom\"); }\n\
             // ins-lint: allow(L011) -- known, tracked in #42\n\
             pub fn entry() { helper(); }\n"
                .to_string(),
        )];
        let findings = analyze_sources(src, &Config::default_workspace());
        assert!(
            !findings.iter().any(|f| f.rule == Rule::TransitivePanic),
            "the marker must suppress the L011 finding: {findings:?}"
        );
        assert!(
            !findings.iter().any(|f| f.rule == Rule::StaleSuppression),
            "the marker is used, not stale: {findings:?}"
        );
    }
}
