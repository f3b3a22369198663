//! In-memory span recorder for the traced run.
//!
//! The benchmark records a span around each call it makes into a layer
//! of the program: name, start, end, parent span, and an op id shared by
//! the spans of one op. Spans stay in memory while the workload runs and
//! are written out (as JSON lines) only after measurement ends. A span's
//! self time is its duration minus the part of it its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call the span wraps, e.g. `bp_net::Simulation::run_for_secs`.
    pub name: &'static str,
    /// Op the span belongs to.
    pub op: u64,
    /// Recording thread (0 = the main thread).
    pub thread: u32,
    /// Start, in nanoseconds since the run's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
}

/// Per-thread span recorder; a disabled recorder records nothing.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    thread: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder whose timestamps count from `origin`.
    pub fn new(enabled: bool, origin: Instant, thread: u32) -> Self {
        Self {
            enabled,
            origin,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The instant timestamps count from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            thread: self.thread,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let at = self.open.pop().expect("exit without a matching enter");
        self.spans[at].end_ns = end_ns;
    }

    /// Appends another thread's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }

    /// Spans recorded so far.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name `(count, total ns, self ns)`, sorted by name.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let total = s.end_ns - s.start_ns;
            let covered = covered_ns(s, children[i].iter().map(|&c| &self.spans[c]));
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += total - covered;
        }
        out
    }

    /// Human-readable summary table.
    pub fn render_summary(&self) -> String {
        let mut out = String::from(
            "# span                                          count    total_ms     self_ms\n",
        );
        for (name, (count, total, own)) in self.summary() {
            let _ = writeln!(
                out,
                "# {name:<44} {count:>6} {:>11.3} {:>11.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        out
    }

    /// Writes every span as one JSON line to `perfbench/out/<file>`.
    pub fn write_out(&self, file: &str) {
        if !self.enabled {
            return;
        }
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let mut body = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                body,
                "{{\"name\": \"{}\", \"op\": {}, \"thread\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.name, s.op, s.thread, s.start_ns, s.end_ns
            );
        }
        let path = dir.join(file);
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => eprintln!("warning: could not write spans to {}: {e}", path.display()),
        }
    }
}

/// Nanoseconds of `parent` covered by the union of `children`.
fn covered_ns<'a>(parent: &Span, children: impl Iterator<Item = &'a Span>) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .map(|c| (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut reach = 0;
    for (a, b) in iv {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "x",
            op: 0,
            thread: 0,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let parent = span(0, 100, None);
        let kids = [
            span(10, 30, Some(0)),
            span(20, 40, Some(0)),
            span(90, 150, Some(0)),
        ];
        assert_eq!(covered_ns(&parent, kids.iter()), 30 + 10);
    }

    #[test]
    fn nested_spans_link_to_their_parent() {
        let mut r = Recorder::new(true, Instant::now(), 0);
        r.enter("outer", 1);
        r.enter("inner", 1);
        r.exit();
        r.exit();
        assert_eq!(r.spans()[1].parent, Some(0));
        let summary = r.summary();
        assert_eq!(summary["outer"].0, 1);
        assert!(summary["outer"].2 <= summary["outer"].1);
    }
}
