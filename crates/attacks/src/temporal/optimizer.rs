//! The empirical vulnerable-node optimizer (paper Table V).
//!
//! Runs the paper's optimization — *maximum number of nodes lagging at
//! least `b` blocks for at least `T` minutes* — over a crawled lag matrix
//! for a grid of timing constraints.

use bp_crawler::{LagMatrix, VulnerabilityWindow};

/// One row of Table V: a timing constraint and the resulting maxima for
/// the ≥1 / ≥2 / ≥5-blocks-behind criteria.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TableVRow {
    /// Timing constraint in minutes.
    pub t_minutes: u64,
    /// Maximum vulnerable nodes at least 1 block behind.
    pub ge1: Option<VulnerabilityWindow>,
    /// … at least 2 blocks behind.
    pub ge2: Option<VulnerabilityWindow>,
    /// … at least 5 blocks behind.
    pub ge5: Option<VulnerabilityWindow>,
}

/// The timing constraints the paper reports (minutes).
pub const PAPER_TIMING_CONSTRAINTS: [u64; 9] = [5, 10, 15, 20, 25, 30, 40, 70, 200];

/// Computes Table V from a lag matrix sampled every
/// `sample_period_secs`.
///
/// Constraints shorter than one sample period or longer than the crawl
/// produce `None` entries.
///
/// # Panics
///
/// Panics if `sample_period_secs` is zero.
pub fn table_v(matrix: &LagMatrix, sample_period_secs: u64, t_minutes: &[u64]) -> Vec<TableVRow> {
    assert!(sample_period_secs > 0, "sample period must be positive");
    t_minutes
        .iter()
        .map(|&minutes| {
            let window = ((minutes * 60) / sample_period_secs).max(1) as usize;
            TableVRow {
                t_minutes: minutes,
                ge1: matrix.max_vulnerable(window, 1),
                ge2: matrix.max_vulnerable(window, 2),
                ge5: matrix.max_vulnerable(window, 5),
            }
        })
        .collect()
}

/// Invariant checks shared by the tests: counts decrease (weakly)
/// as the constraint grows and as the lag threshold grows.
pub fn rows_are_consistent(rows: &[TableVRow]) -> bool {
    let count = |w: &Option<VulnerabilityWindow>| w.map(|v| v.max_nodes).unwrap_or(0);
    for pair in rows.windows(2) {
        if pair[0].t_minutes < pair[1].t_minutes
            && (count(&pair[1].ge1) > count(&pair[0].ge1)
                || count(&pair[1].ge2) > count(&pair[0].ge2)
                || count(&pair[1].ge5) > count(&pair[0].ge5))
        {
            return false;
        }
    }
    rows.iter()
        .all(|r| count(&r.ge2) <= count(&r.ge1) && count(&r.ge5) <= count(&r.ge2))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A matrix engineered so every Table V monotonicity shows up:
    /// 20 nodes; half lag 1 block for a long stretch, a quarter lag 2,
    /// a few lag 5+.
    fn matrix() -> LagMatrix {
        let mut m = LagMatrix::new(20);
        for t in 0..120 {
            let row: Vec<u64> = (0..20)
                .map(|n| match n {
                    0..=9 => u64::from(t % 30 != 0), // 1 behind, brief resyncs
                    10..=14 => 2,
                    15..=16 => 6,
                    _ => 0,
                })
                .collect();
            m.push_row(&row);
        }
        m
    }

    #[test]
    fn table_v_rows_follow_paper_shape() {
        let m = matrix();
        let rows = table_v(&m, 60, &[5, 10, 15, 40]);
        assert_eq!(rows.len(), 4);
        assert!(rows_are_consistent(&rows));
        // Short constraint captures the flappers; long one only the
        // persistent laggards.
        let ge1_short = rows[0].ge1.unwrap().max_nodes;
        let ge1_long = rows[3].ge1.unwrap().max_nodes;
        assert!(ge1_short > ge1_long);
        assert_eq!(rows[0].ge5.unwrap().max_nodes, 2);
    }

    #[test]
    fn constraints_beyond_crawl_yield_none() {
        let m = matrix();
        let rows = table_v(&m, 60, &[500]);
        assert!(rows[0].ge1.is_none());
    }

    #[test]
    fn paper_constraint_grid_is_sorted() {
        for pair in PAPER_TIMING_CONSTRAINTS.windows(2) {
            assert!(pair[0] < pair[1]);
        }
    }

    #[test]
    fn consistency_detector_catches_violations() {
        let good = vec![
            TableVRow {
                t_minutes: 5,
                ge1: Some(VulnerabilityWindow {
                    max_nodes: 10,
                    fraction: 0.5,
                    at_sample: 0,
                }),
                ge2: Some(VulnerabilityWindow {
                    max_nodes: 5,
                    fraction: 0.25,
                    at_sample: 0,
                }),
                ge5: None,
            },
            TableVRow {
                t_minutes: 10,
                ge1: Some(VulnerabilityWindow {
                    max_nodes: 20, // violates monotonicity in T
                    fraction: 1.0,
                    at_sample: 0,
                }),
                ge2: None,
                ge5: None,
            },
        ];
        assert!(!rows_are_consistent(&good));
    }
}
