//! Experiment drivers: one function per table and figure of the paper.
//!
//! Each driver returns an [`Artifact`] — the rendered text (table or
//! ASCII figure) plus CSV exports of the underlying series — so the
//! `repro` harness and the integration tests share one implementation.

pub mod ablation;
pub mod codec;
pub mod combined;
pub mod defense;
pub mod logical;
pub mod spatial;
pub mod temporal;

use std::fmt;

/// A regenerated paper artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Artifact {
    /// Stable identifier, e.g. `"table1"` or `"fig4"`.
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Rendered text body (table or ASCII chart).
    pub body: String,
    /// `(name, contents)` CSV exports of the underlying data.
    pub csv: Vec<(String, String)>,
}

impl Artifact {
    /// Creates an artifact.
    pub fn new(id: impl Into<String>, title: impl Into<String>, body: String) -> Self {
        Self {
            id: id.into(),
            title: title.into(),
            body,
            csv: Vec::new(),
        }
    }

    /// Attaches a CSV export.
    pub fn with_csv(mut self, name: impl Into<String>, contents: String) -> Self {
        self.csv.push((name.into(), contents));
        self
    }
}

impl fmt::Display for Artifact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== {} — {} ===", self.id, self.title)?;
        f.write_str(&self.body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_renders_header_and_body() {
        let a = Artifact::new("table1", "Node characteristics", "body\n".into())
            .with_csv("data", "x,y\n1,2\n".into());
        let text = a.to_string();
        assert!(text.contains("table1"));
        assert!(text.contains("body"));
        assert_eq!(a.csv.len(), 1);
    }
}
