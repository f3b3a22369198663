//! The per-node lag matrix and the Table V vulnerability-window analysis.
//!
//! The paper formulates the temporal attack as an optimization problem:
//! *"Given a timestamp t and a timing constraint T, find the maximum
//! number of vulnerable nodes whose lagging time L(t) is at least T"*
//! (§V-B). A node is vulnerable at time `t` for constraint `T` and lag
//! threshold `b` if it stays at least `b` blocks behind for the entire
//! window `[t, t+T)` — long enough for the attacker to connect and feed
//! it counterfeit blocks.

/// Per-node lag history: one row per crawl sample, one column per node.
///
/// # Examples
///
/// ```
/// use bp_crawler::LagMatrix;
///
/// let mut m = LagMatrix::new(3);
/// m.push_row(&[0, 1, 2]);
/// m.push_row(&[0, 1, 0]);
/// // Node 1 stays >=1 behind for both samples.
/// let w = m.max_vulnerable(2, 1).unwrap();
/// assert_eq!(w.max_nodes, 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LagMatrix {
    nodes: usize,
    /// `rows[t][n]` = node `n`'s lag (clamped to 255) at sample `t`.
    rows: Vec<Vec<u8>>,
}

/// The answer to one Table V cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VulnerabilityWindow {
    /// Maximum number of simultaneously vulnerable nodes.
    pub max_nodes: usize,
    /// That count as a fraction of all nodes.
    pub fraction: f64,
    /// Sample index at which the maximum occurs.
    pub at_sample: usize,
}

impl LagMatrix {
    /// Creates an empty matrix for `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        Self {
            nodes,
            rows: Vec::new(),
        }
    }

    /// Appends one sample row.
    ///
    /// # Panics
    ///
    /// Panics if the row's width differs from the node count.
    pub fn push_row(&mut self, lags: &[u64]) {
        assert_eq!(lags.len(), self.nodes, "row width must match node count");
        self.rows
            .push(lags.iter().map(|&l| l.min(255) as u8).collect());
    }

    /// Number of nodes (columns).
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Number of samples (rows).
    pub fn samples(&self) -> usize {
        self.rows.len()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Every `every`-th row — rows `every − 1`, `2·every − 1`, … — as a
    /// new matrix: the same crawl seen at an `every`-times longer
    /// sampling period.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn thin(&self, every: usize) -> Self {
        assert!(every > 0, "thinning step must be positive");
        Self {
            nodes: self.nodes,
            rows: self
                .rows
                .iter()
                .skip(every - 1)
                .step_by(every)
                .cloned()
                .collect(),
        }
    }

    /// Appends the rows of a later crawl of the same nodes.
    ///
    /// # Panics
    ///
    /// Panics if the node counts differ.
    pub fn append(&mut self, later: Self) {
        assert_eq!(later.nodes, self.nodes, "row width must match node count");
        self.rows.extend(later.rows);
    }

    /// One node's lag history.
    pub fn node_history(&self, node: usize) -> Vec<u8> {
        self.rows.iter().map(|r| r[node]).collect()
    }

    /// For each sample `t`, how many consecutive samples (including `t`)
    /// node `n` stays ≥ `min_blocks` behind.
    fn run_lengths(&self, node: usize, min_blocks: u8) -> Vec<u32> {
        let mut lens = vec![0u32; self.rows.len()];
        let mut run = 0u32;
        for t in (0..self.rows.len()).rev() {
            if self.rows[t][node] >= min_blocks {
                run += 1;
            } else {
                run = 0;
            }
            lens[t] = run;
        }
        lens
    }

    /// Solves the paper's optimization: the maximum number of nodes that
    /// are at least `min_blocks` behind for at least `window_samples`
    /// consecutive samples, over all starting timestamps.
    ///
    /// Returns `None` when the matrix has fewer samples than the window.
    pub fn max_vulnerable(
        &self,
        window_samples: usize,
        min_blocks: u8,
    ) -> Option<VulnerabilityWindow> {
        if window_samples == 0 || self.rows.len() < window_samples || self.nodes == 0 {
            return None;
        }
        let horizon = self.rows.len() - window_samples + 1;
        let mut counts = vec![0usize; horizon];
        for node in 0..self.nodes {
            let lens = self.run_lengths(node, min_blocks);
            for (t, count) in counts.iter_mut().enumerate() {
                if lens[t] as usize >= window_samples {
                    *count += 1;
                }
            }
        }
        let (at_sample, &max_nodes) = counts
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| **c)
            .expect("horizon >= 1");
        Some(VulnerabilityWindow {
            max_nodes,
            fraction: max_nodes as f64 / self.nodes as f64,
            at_sample,
        })
    }

    /// Node indices vulnerable at a given starting sample (same criterion
    /// as [`LagMatrix::max_vulnerable`]) — the attacker's target list.
    pub fn vulnerable_at(
        &self,
        start_sample: usize,
        window_samples: usize,
        min_blocks: u8,
    ) -> Vec<usize> {
        if window_samples == 0 || start_sample + window_samples > self.rows.len() {
            return Vec::new();
        }
        (0..self.nodes)
            .filter(|&n| {
                (start_sample..start_sample + window_samples).all(|t| self.rows[t][n] >= min_blocks)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4 nodes, 5 samples:
    /// n0 always synced; n1 always 1 behind; n2 behind for a 3-sample
    /// stretch; n3 deep behind throughout.
    fn matrix() -> LagMatrix {
        let mut m = LagMatrix::new(4);
        m.push_row(&[0, 1, 0, 12]);
        m.push_row(&[0, 1, 2, 12]);
        m.push_row(&[0, 1, 3, 13]);
        m.push_row(&[0, 1, 2, 13]);
        m.push_row(&[0, 1, 0, 14]);
        m
    }

    #[test]
    fn run_lengths_computed_correctly() {
        let m = matrix();
        assert_eq!(m.run_lengths(0, 1), vec![0, 0, 0, 0, 0]);
        assert_eq!(m.run_lengths(1, 1), vec![5, 4, 3, 2, 1]);
        assert_eq!(m.run_lengths(2, 2), vec![0, 3, 2, 1, 0]);
    }

    #[test]
    fn max_vulnerable_finds_best_window() {
        let m = matrix();
        // Window of 3 samples, ≥1 block behind: at t=1 nodes 1,2,3 qualify.
        let w = m.max_vulnerable(3, 1).unwrap();
        assert_eq!(w.max_nodes, 3);
        assert_eq!(w.at_sample, 1);
        assert!((w.fraction - 0.75).abs() < 1e-12);
        // Window of 5: only nodes 1 and 3 persist the whole time.
        let w5 = m.max_vulnerable(5, 1).unwrap();
        assert_eq!(w5.max_nodes, 2);
        // ≥5 blocks: only node 3.
        let deep = m.max_vulnerable(3, 5).unwrap();
        assert_eq!(deep.max_nodes, 1);
    }

    #[test]
    fn vulnerable_counts_decrease_with_longer_windows() {
        let m = matrix();
        let mut prev = usize::MAX;
        for w in 1..=5 {
            let count = m.max_vulnerable(w, 1).unwrap().max_nodes;
            assert!(count <= prev, "window {w}: {count} > {prev}");
            prev = count;
        }
    }

    #[test]
    fn vulnerable_at_lists_targets() {
        let m = matrix();
        assert_eq!(m.vulnerable_at(1, 3, 1), vec![1, 2, 3]);
        assert_eq!(m.vulnerable_at(0, 5, 1), vec![1, 3]);
        assert_eq!(m.vulnerable_at(0, 6, 1), Vec::<usize>::new());
    }

    #[test]
    fn window_longer_than_series_is_none() {
        let m = matrix();
        assert!(m.max_vulnerable(6, 1).is_none());
        assert!(m.max_vulnerable(0, 1).is_none());
    }

    #[test]
    fn lags_clamped_to_byte() {
        let mut m = LagMatrix::new(1);
        m.push_row(&[1000]);
        assert_eq!(m.node_history(0), vec![255]);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut m = LagMatrix::new(2);
        m.push_row(&[1]);
    }
}
