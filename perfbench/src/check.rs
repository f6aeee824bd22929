//! Output digests: the simulated outputs a workload must reproduce.
//!
//! A digest is an ordered list of `field=value` pairs with floats in
//! shortest round-trip form, so two digests are equal exactly when the
//! simulated outputs are byte-identical. A mismatch is reported naming
//! the workload and the first differing fields.

use std::fmt::Display;
use std::path::PathBuf;

#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Digest {
    fields: Vec<(String, String)>,
}

impl Digest {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn put(&mut self, field: impl Into<String>, value: impl Display) {
        self.fields.push((field.into(), value.to_string()));
    }

    /// Records a float exactly (shortest round-trip representation).
    pub fn num(&mut self, field: impl Into<String>, value: f64) {
        self.fields.push((field.into(), format!("{value:?}")));
    }

    pub fn to_text(&self) -> String {
        self.fields
            .iter()
            .map(|(k, v)| format!("{k}={v}\n"))
            .collect()
    }

    fn parse(text: &str) -> Self {
        let fields = text
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(|l| match l.split_once('=') {
                Some((k, v)) => (k.to_string(), v.to_string()),
                None => (l.to_string(), String::new()),
            })
            .collect();
        Self { fields }
    }

    /// The fields that differ from `expected`, with messages naming
    /// `workload` and each differing field (at most eight, then a count).
    pub fn diff(&self, expected: &Digest, workload: &str, what: &str) -> Mismatch {
        let mut out = Vec::new();
        let n = self.fields.len().max(expected.fields.len());
        let mut differing = 0;
        for i in 0..n {
            let got = self.fields.get(i);
            let want = expected.fields.get(i);
            if got == want {
                continue;
            }
            differing += 1;
            if differing <= 8 {
                let field = got.or(want).map_or("?", |(k, _)| k.as_str());
                let show = |f: Option<&(String, String)>| {
                    f.map_or_else(|| "<missing>".to_string(), |(k, v)| format!("{k}={v}"))
                };
                out.push(format!(
                    "MISMATCH workload={workload} check={what} field={field} expected {} got {}",
                    show(want),
                    show(got)
                ));
            }
        }
        if differing > 8 {
            out.push(format!(
                "MISMATCH workload={workload} check={what}: {} more differing fields",
                differing - 8
            ));
        }
        Mismatch {
            fields: differing,
            messages: out,
        }
    }
}

/// The result of comparing two digests.
#[derive(Debug, Default)]
pub struct Mismatch {
    /// Number of differing fields.
    pub fields: usize,
    pub messages: Vec<String>,
}

impl Mismatch {
    pub fn of(message: String) -> Self {
        Self {
            fields: 1,
            messages: vec![message],
        }
    }
}

/// FNV-1a, 64-bit: a short stable name for a long output line.
pub fn fnv64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn reference_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("reference")
        .join(format!("{workload}.txt"))
}

/// Compares `digest` with the committed reference for `workload`, or
/// rewrites the reference when `update` is set.
pub fn against_reference(digest: &Digest, workload: &str, update: bool) -> Mismatch {
    let path = reference_path(workload);
    if update {
        let header = format!(
            "# {workload}: simulated outputs at the default seed; rewrite with --update-reference\n"
        );
        return match std::fs::write(&path, header + &digest.to_text()) {
            Ok(()) => Mismatch::default(),
            Err(e) => Mismatch::of(format!("cannot write {}: {e}", path.display())),
        };
    }
    match std::fs::read_to_string(&path) {
        Ok(text) => digest.diff(&Digest::parse(&text), workload, "reference"),
        Err(e) => Mismatch::of(format!(
            "MISMATCH workload={workload} check=reference: cannot read {}: {e}",
            path.display()
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_names_the_field() {
        let mut a = Digest::new();
        a.num("processed_gb", 1.5);
        a.put("ops", 3);
        let mut b = a.clone();
        assert_eq!(a.diff(&b, "w", "x").fields, 0);
        b.fields[1].1 = "4".to_string();
        let mismatch = a.diff(&b, "site_year", "reference");
        assert_eq!(mismatch.fields, 1);
        let msgs = mismatch.messages;
        assert!(msgs[0].contains("workload=site_year") && msgs[0].contains("field=ops"));
        assert_eq!(Digest::parse(&a.to_text()), a);
    }
}
