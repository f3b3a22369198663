//! The analytic temporal-attack model (paper §V-B, Eqs. 1–5, Table VI).
//!
//! Bitcoin's diffusion spreading gives the attacker's connection time to a
//! node an exponential distribution `F(t) = 1 − e^{−λt}` (Eq. 1). To
//! isolate `m` nodes under a total timing budget `T`, the probability of
//! success with a timing assignment `(t_1 … t_m)`, `Σ t_i ≤ T`, is bounded
//! via the Cauchy (AM–GM) inequality by
//!
//! ```text
//! ρ(T) ≤ (1 − e^{−λT/m})^m                          (Eq. 4)
//! ```
//!
//! and, union-bounding over the (T choose m) timing assignments,
//!
//! ```text
//! p ≤ b(m, T) = C(T, m) · (1 − e^{−λT/m})^m         (Eq. 5)
//! ```
//!
//! `b` is monotonically increasing in `T`, so for a target success
//! probability `p` the minimum feasible `T` follows by binary bisection —
//! exactly how the paper fills Table VI.

/// `ln Γ(x)` via the Stirling series with the `1/(12x)` correction —
/// sub-1e-8 relative error for `x ≥ 10`, which the binomial helper
/// guarantees by shifting small arguments up with the recurrence
/// `Γ(x+1) = x·Γ(x)`.
fn ln_gamma(mut x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires positive argument");
    let mut shift = 0.0;
    while x < 10.0 {
        shift -= x.ln();
        x += 1.0;
    }
    let ln2pi = (2.0 * std::f64::consts::PI).ln();
    shift + (x - 0.5) * x.ln() - x + 0.5 * ln2pi + 1.0 / (12.0 * x) - 1.0 / (360.0 * x.powi(3))
}

/// `ln C(n, k)` — natural log of the binomial coefficient.
///
/// # Panics
///
/// Panics if `k > n`.
pub fn ln_binomial(n: u64, k: u64) -> f64 {
    assert!(k <= n, "binomial requires k <= n");
    if k == 0 || k == n {
        return 0.0;
    }
    ln_gamma(n as f64 + 1.0) - ln_gamma(k as f64 + 1.0) - ln_gamma((n - k) as f64 + 1.0)
}

/// Parameters of the analytic model.
///
/// # Examples
///
/// Reproducing the paper's worked example (λ = 0.8, m = 500 → 589 s):
///
/// ```
/// use bp_attacks::temporal::model::TemporalModel;
///
/// let model = TemporalModel::new(0.8);
/// let t = model.min_time_to_isolate(500, 0.8, 100_000).unwrap();
/// assert_eq!(t, 589);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TemporalModel {
    /// Exponential connection-delay rate λ (per second).
    pub lambda: f64,
}

impl TemporalModel {
    /// Creates a model with rate `lambda`.
    ///
    /// # Panics
    ///
    /// Panics unless `lambda` is finite and positive.
    pub fn new(lambda: f64) -> Self {
        assert!(
            lambda.is_finite() && lambda > 0.0,
            "lambda must be finite and positive"
        );
        Self { lambda }
    }

    /// The exact isolation probability of Eq. 2 for a concrete timing
    /// assignment: `ρ(T) = Π_i (1 − e^{−λ t_i})`.
    ///
    /// # Panics
    ///
    /// Panics if the assignment is empty or contains a negative or
    /// non-finite time.
    pub fn isolation_probability(&self, assignment_secs: &[f64]) -> f64 {
        assert!(!assignment_secs.is_empty(), "assignment must be non-empty");
        assert!(
            assignment_secs.iter().all(|t| t.is_finite() && *t >= 0.0),
            "times must be finite and non-negative"
        );
        assignment_secs
            .iter()
            .map(|&t| 1.0 - (-self.lambda * t).exp())
            .product()
    }

    /// The Cauchy (AM–GM) bound of Eq. 4 for a total budget `T` split
    /// over `m` nodes: `(1 − e^{−λT/m})^m`. Every concrete assignment
    /// with `Σ t_i ≤ T` satisfies
    /// [`isolation_probability`](Self::isolation_probability) ≤ this.
    pub fn cauchy_bound(&self, m: u64, t_secs: f64) -> f64 {
        assert!(m > 0, "must target at least one node");
        assert!(
            t_secs.is_finite() && t_secs >= 0.0,
            "budget must be finite and non-negative"
        );
        (1.0 - (-self.lambda * t_secs / m as f64).exp()).powi(m as i32)
    }

    /// `ln b(m, T)` of Eq. 5. Returns `-inf` when `T < m` (no valid
    /// timing assignment gives every node at least one second).
    pub fn ln_isolation_bound(&self, m: u64, t_secs: u64) -> f64 {
        assert!(m > 0, "must target at least one node");
        if t_secs < m {
            return f64::NEG_INFINITY;
        }
        let per_node = self.lambda * t_secs as f64 / m as f64;
        // ln(1 − e^{−x}), stable for small and large x.
        let ln_term = (-(-per_node).exp()).ln_1p();
        ln_binomial(t_secs, m) + m as f64 * ln_term
    }

    /// `b(m, T)` of Eq. 5, clamped to `[0, 1]` (the raw union bound can
    /// exceed 1, where it is vacuous).
    pub fn isolation_bound(&self, m: u64, t_secs: u64) -> f64 {
        self.ln_isolation_bound(m, t_secs).exp().min(1.0)
    }

    /// The minimum timing constraint `T` (seconds) such that the Eq. 5
    /// bound reaches the target success probability `p` — a Table VI
    /// cell. Solved by binary bisection on the monotone `b(m, ·)`.
    ///
    /// Returns `None` if even `max_t_secs` cannot reach the bound.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p < 1` and `m > 0`.
    pub fn min_time_to_isolate(&self, m: u64, p: f64, max_t_secs: u64) -> Option<u64> {
        self.min_time_to_isolate_counted(m, p, max_t_secs).0
    }

    /// [`min_time_to_isolate`](Self::min_time_to_isolate) plus the number
    /// of bisection steps it took — the cost driver behind a Table VI
    /// sweep, exposed for the observability layer.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p < 1` and `m > 0`.
    pub fn min_time_to_isolate_counted(
        &self,
        m: u64,
        p: f64,
        max_t_secs: u64,
    ) -> (Option<u64>, u64) {
        assert!(p > 0.0 && p < 1.0, "p must lie strictly in (0, 1)");
        assert!(m > 0, "must target at least one node");
        let target = p.ln();
        if self.ln_isolation_bound(m, max_t_secs) < target {
            return (None, 0);
        }
        let mut steps = 0u64;
        let (mut lo, mut hi) = (m, max_t_secs);
        while lo < hi {
            steps += 1;
            let mid = lo + (hi - lo) / 2;
            if self.ln_isolation_bound(m, mid) >= target {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        (Some(lo), steps)
    }

    /// Generates the Table VI grid: rows are λ values (this model's λ is
    /// ignored), columns are target node counts.
    ///
    /// `reg` receives `temporal.model.cells` and
    /// `temporal.model.bisection_steps`; `tracer` receives one
    /// `model_bisect` record per cell (time = cell ordinal, node = λ row
    /// index, `a` = target node count, `b` = bisection steps). The table
    /// itself is identical with or without instrumentation.
    pub fn table_vi(
        lambdas: &[f64],
        node_counts: &[u64],
        p: f64,
        reg: Option<&bp_obs::Registry>,
        mut tracer: Option<&mut bp_obs::Tracer>,
    ) -> Vec<(f64, Vec<Option<u64>>)> {
        let mut cells = 0u64;
        let mut bisection_steps = 0u64;
        let table = lambdas
            .iter()
            .enumerate()
            .map(|(row, &lambda)| {
                let model = TemporalModel::new(lambda);
                let row_values = node_counts
                    .iter()
                    .map(|&m| {
                        let (t, steps) = model.min_time_to_isolate_counted(m, p, 1_000_000);
                        if let Some(tr) = tracer.as_deref_mut() {
                            tr.record(bp_obs::TraceKind::ModelBisect, cells, row as u32, m, steps);
                        }
                        cells += 1;
                        bisection_steps += steps;
                        t
                    })
                    .collect();
                (lambda, row_values)
            })
            .collect();
        if let Some(reg) = reg {
            reg.add(
                "temporal.model.cells",
                (lambdas.len() * node_counts.len()) as u64,
            );
            reg.add("temporal.model.bisection_steps", bisection_steps);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_matches_factorials() {
        // ln(5!) = ln 120
        assert!((ln_gamma(6.0) - 120.0f64.ln()).abs() < 1e-8);
        // ln(1) = 0
        assert!(ln_gamma(1.0).abs() < 1e-8);
        assert!(ln_gamma(2.0).abs() < 1e-8);
    }

    #[test]
    fn ln_binomial_small_cases() {
        assert!((ln_binomial(5, 2) - 10.0f64.ln()).abs() < 1e-8);
        assert_eq!(ln_binomial(7, 0), 0.0);
        assert_eq!(ln_binomial(7, 7), 0.0);
        assert!((ln_binomial(10, 5) - 252.0f64.ln()).abs() < 1e-7);
    }

    #[test]
    fn bound_is_monotone_in_t() {
        let model = TemporalModel::new(0.8);
        let mut prev = f64::NEG_INFINITY;
        for t in (500..3000).step_by(100) {
            let b = model.ln_isolation_bound(500, t);
            assert!(b >= prev, "bound decreased at T={t}");
            prev = b;
        }
    }

    #[test]
    fn paper_cell_lambda_08_m_500() {
        // Table VI: λ=0.8, m=500 → T = 589 s.
        let model = TemporalModel::new(0.8);
        let t = model.min_time_to_isolate(500, 0.8, 100_000).unwrap();
        assert!(
            (585..=595).contains(&t),
            "λ=0.8, m=500 gave T={t}, paper says 589"
        );
    }

    #[test]
    fn paper_cell_lambda_04_m_100() {
        // Table VI: λ=0.4, m=100 → T = 142 s.
        let model = TemporalModel::new(0.4);
        let t = model.min_time_to_isolate(100, 0.8, 100_000).unwrap();
        assert!(
            (138..=146).contains(&t),
            "λ=0.4, m=100 gave T={t}, paper says 142"
        );
    }

    #[test]
    fn table_vi_shape_holds() {
        // T increases with m (more nodes take longer) and decreases with
        // λ (faster connections help the attacker).
        let lambdas = [0.4, 0.6, 0.9];
        let ms = [100u64, 500, 1000];
        let table = TemporalModel::table_vi(&lambdas, &ms, 0.8, None, None);
        for (_, row) in &table {
            let vals: Vec<u64> = row.iter().map(|v| v.unwrap()).collect();
            assert!(vals[0] < vals[1] && vals[1] < vals[2]);
        }
        for col in 0..ms.len() {
            let t_fast = table[2].1[col].unwrap(); // λ=0.9
            let t_slow = table[0].1[col].unwrap(); // λ=0.4
            assert!(t_fast <= t_slow, "column {col}: λ ordering violated");
        }
    }

    #[test]
    fn infeasible_budget_returns_none() {
        let model = TemporalModel::new(0.4);
        // Cannot reach the bound with T barely above m.
        assert_eq!(model.min_time_to_isolate(1000, 0.8, 1001), None);
    }

    #[test]
    fn bound_vacuous_below_m_seconds() {
        let model = TemporalModel::new(0.8);
        assert_eq!(model.ln_isolation_bound(100, 50), f64::NEG_INFINITY);
        assert_eq!(model.isolation_bound(100, 50), 0.0);
    }
}
