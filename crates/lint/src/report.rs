//! Plain-text and JSON report rendering (hand-rolled; no serializer
//! dependency).

use crate::{Finding, TraceHop};

impl Finding {
    /// The finding as one JSON object. Interprocedural findings carry
    /// their call path as a `trace` array; token-level findings omit the
    /// key so existing consumers see unchanged records.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"path\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\"",
            escape_json(&self.path),
            self.line,
            self.rule.id(),
            escape_json(&self.message)
        );
        if !self.trace.is_empty() {
            out.push_str(",\"trace\":[");
            for (i, hop) in self.trace.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&hop_json(hop));
            }
            out.push(']');
        }
        out.push('}');
        out
    }
}

fn hop_json(hop: &TraceHop) -> String {
    format!(
        "{{\"path\":\"{}\",\"line\":{},\"note\":\"{}\"}}",
        escape_json(&hop.path),
        hop.line,
        escape_json(&hop.note)
    )
}

/// Renders a full report as a JSON array.
#[must_use]
pub fn report_json(findings: &[Finding]) -> String {
    let items: Vec<String> = findings.iter().map(Finding::to_json).collect();
    format!("[{}]", items.join(","))
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rule;

    #[test]
    fn json_report_is_well_formed() {
        let findings = vec![Finding::new(
            "crates/core/src/x.rs".to_string(),
            1,
            Rule::FloatEquality,
            "exact float comparison".to_string(),
        )];
        let json = report_json(&findings);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"rule\":\"L004\""));
        assert!(json.contains("\"line\":1"));
        assert!(!json.contains("trace"), "no trace key without hops");
        assert_eq!(report_json(&[]), "[]");
    }

    #[test]
    fn trace_hops_serialize_in_order() {
        let mut f = Finding::new(
            "a.rs".to_string(),
            1,
            Rule::TransitivePanic,
            "m".to_string(),
        );
        for (i, note) in ["calls `b`", "panics: `.unwrap()`"].iter().enumerate() {
            f.trace.push(crate::TraceHop {
                path: format!("f{i}.rs"),
                line: i + 1,
                note: (*note).to_string(),
            });
        }
        let json = f.to_json();
        let b = json.find("calls `b`").unwrap_or(usize::MAX);
        let p = json.find("panics").unwrap_or(0);
        assert!(b < p, "hops keep call order: {json}");
        assert!(json.contains("\"trace\":[{"));
    }

    #[test]
    fn escape_handles_quotes_and_control_chars() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }
}
