//! Two-phase dense tableau simplex with Bland's anti-cycling rule.
//!
//! Solves `max c·x  s.t.  A x {≤,=,≥} b, x ≥ 0`. Phase 1 minimises the sum
//! of artificial variables to find a basic feasible solution; phase 2
//! optimises the real objective. All pivots use Bland's rule (smallest
//! eligible index), which guarantees finite termination at the price of
//! speed — irrelevant at the problem sizes in this workspace.

use wmcs_geom::{EPS, FEAS_TOL};

/// Constraint sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `a·x ≤ b`
    Le,
    /// `a·x ≥ b`
    Ge,
    /// `a·x = b`
    Eq,
}

/// Outcome of an LP solve.
#[derive(Debug, Clone, PartialEq)]
pub enum LpOutcome {
    /// An optimal basic solution was found.
    Optimal {
        /// Optimal objective value.
        objective: f64,
        /// Optimal structural variable values.
        x: Vec<f64>,
    },
    /// The constraint system has no solution with `x ≥ 0`.
    Infeasible,
    /// The objective is unbounded above on the feasible region.
    Unbounded,
}

/// An LP under construction: `n` structural variables, constraints added
/// incrementally.
#[derive(Debug, Clone)]
pub struct LinearProgram {
    n: usize,
    rows: Vec<(Vec<f64>, Relation, f64)>,
}

impl LinearProgram {
    /// New program over `n ≥ 1` non-negative structural variables.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1);
        Self {
            n,
            rows: Vec::new(),
        }
    }

    /// Add `coeffs · x ≤ rhs`.
    pub fn le(&mut self, coeffs: &[f64], rhs: f64) {
        self.push(coeffs, Relation::Le, rhs);
    }

    /// Add `coeffs · x ≥ rhs`.
    pub fn ge(&mut self, coeffs: &[f64], rhs: f64) {
        self.push(coeffs, Relation::Ge, rhs);
    }

    /// Add `coeffs · x = rhs`.
    pub fn eq(&mut self, coeffs: &[f64], rhs: f64) {
        self.push(coeffs, Relation::Eq, rhs);
    }

    fn push(&mut self, coeffs: &[f64], rel: Relation, rhs: f64) {
        assert_eq!(coeffs.len(), self.n, "coefficient vector of wrong arity");
        self.rows.push((coeffs.to_vec(), rel, rhs));
    }

    /// True if the constraint system admits any `x ≥ 0`.
    pub fn is_feasible(&self) -> bool {
        !matches!(self.maximize(&vec![0.0; self.n]), LpOutcome::Infeasible)
    }

    /// Maximise `obj · x` subject to the constraints.
    pub fn maximize(&self, obj: &[f64]) -> LpOutcome {
        assert_eq!(obj.len(), self.n);
        Tableau::build(self).solve(obj)
    }

    /// Minimise `obj · x` (negated maximisation).
    pub fn minimize(&self, obj: &[f64]) -> LpOutcome {
        let neg: Vec<f64> = obj.iter().map(|c| -c).collect();
        match self.maximize(&neg) {
            LpOutcome::Optimal { objective, x } => LpOutcome::Optimal {
                objective: -objective,
                x,
            },
            other => other,
        }
    }
}

/// Dense tableau: `m` rows over columns
/// `[structural… | slack/surplus… | artificial… | rhs]`.
struct Tableau {
    m: usize,
    n_struct: usize,
    n_slack: usize,
    n_art: usize,
    /// `m` rows, each of width `total_cols + 1` (rhs last).
    rows: Vec<Vec<f64>>,
    /// Basic variable (column index) per row.
    basis: Vec<usize>,
}

impl Tableau {
    fn total_cols(&self) -> usize {
        self.n_struct + self.n_slack + self.n_art
    }

    fn build(lp: &LinearProgram) -> Tableau {
        let m = lp.rows.len();
        // Normalise rhs ≥ 0 (flip the relation when multiplying by −1), then
        // count slack/surplus and artificial columns.
        let mut normalised: Vec<(Vec<f64>, Relation, f64)> = Vec::with_capacity(m);
        for (coeffs, rel, rhs) in &lp.rows {
            if *rhs < 0.0 {
                let flipped = match rel {
                    Relation::Le => Relation::Ge,
                    Relation::Ge => Relation::Le,
                    Relation::Eq => Relation::Eq,
                };
                normalised.push((coeffs.iter().map(|c| -c).collect(), flipped, -rhs));
            } else {
                normalised.push((coeffs.clone(), *rel, *rhs));
            }
        }
        let n_slack = normalised
            .iter()
            .filter(|(_, rel, _)| *rel != Relation::Eq)
            .count();
        let n_art = normalised
            .iter()
            .filter(|(_, rel, _)| *rel != Relation::Le)
            .count();
        let n_struct = lp.n;
        let total = n_struct + n_slack + n_art;
        let mut rows = vec![vec![0.0; total + 1]; m];
        let mut basis = vec![0usize; m];
        let mut slack_at = n_struct;
        let mut art_at = n_struct + n_slack;
        for (i, (coeffs, rel, rhs)) in normalised.iter().enumerate() {
            rows[i][..n_struct].copy_from_slice(coeffs);
            rows[i][total] = *rhs;
            match rel {
                Relation::Le => {
                    rows[i][slack_at] = 1.0;
                    basis[i] = slack_at;
                    slack_at += 1;
                }
                Relation::Ge => {
                    rows[i][slack_at] = -1.0; // surplus
                    rows[i][art_at] = 1.0;
                    basis[i] = art_at;
                    slack_at += 1;
                    art_at += 1;
                }
                Relation::Eq => {
                    rows[i][art_at] = 1.0;
                    basis[i] = art_at;
                    art_at += 1;
                }
            }
        }
        Tableau {
            m,
            n_struct,
            n_slack,
            n_art,
            rows,
            basis,
        }
    }

    /// One simplex run on the current tableau for the given full-width
    /// objective (maximisation). Returns `None` on unboundedness.
    fn optimize(&mut self, cost: &[f64]) -> Option<()> {
        loop {
            // Reduced costs: r_j = c_j − c_B · B⁻¹ A_j, computed directly
            // from the canonical tableau.
            let total = self.total_cols();
            let mut entering = None;
            #[allow(clippy::needless_range_loop)] // reduced-cost scan reads cost[j] and columns
            for j in 0..total {
                if self.basis.contains(&j) {
                    continue;
                }
                let mut rj = cost[j];
                for i in 0..self.m {
                    rj -= cost[self.basis[i]] * self.rows[i][j];
                }
                if rj > EPS {
                    entering = Some(j); // Bland: first improving index
                    break;
                }
            }
            let Some(j) = entering else {
                return Some(());
            };
            // Ratio test with Bland tie-breaking (smallest basis index).
            let mut leave: Option<(usize, f64)> = None;
            for i in 0..self.m {
                let a = self.rows[i][j];
                if a > EPS {
                    let ratio = self.rows[i][total] / a;
                    match leave {
                        None => leave = Some((i, ratio)),
                        Some((li, lr)) => {
                            if ratio < lr - EPS
                                || ((ratio - lr).abs() <= EPS && self.basis[i] < self.basis[li])
                            {
                                leave = Some((i, ratio));
                            }
                        }
                    }
                }
            }
            let Some((pivot_row, _)) = leave else {
                return None; // unbounded direction
            };
            self.pivot(pivot_row, j);
        }
    }

    fn pivot(&mut self, row: usize, col: usize) {
        let width = self.total_cols() + 1;
        let p = self.rows[row][col];
        debug_assert!(p.abs() > EPS);
        for v in self.rows[row].iter_mut() {
            *v /= p;
        }
        for i in 0..self.m {
            if i == row {
                continue;
            }
            let f = self.rows[i][col];
            if f.abs() > EPS {
                for k in 0..width {
                    let delta = f * self.rows[row][k];
                    self.rows[i][k] -= delta;
                }
            }
        }
        self.basis[row] = col;
    }

    fn solve(mut self, obj: &[f64]) -> LpOutcome {
        let total = self.total_cols();
        // Phase 1: maximise −Σ artificials.
        if self.n_art > 0 {
            let mut cost = vec![0.0; total];
            for j in (self.n_struct + self.n_slack)..total {
                cost[j] = -1.0;
            }
            self.optimize(&cost)
                .expect("phase-1 objective is bounded by 0");
            let infeas: f64 = (0..self.m)
                .filter(|&i| self.basis[i] >= self.n_struct + self.n_slack)
                .map(|i| self.rows[i][total])
                .sum();
            if infeas > FEAS_TOL {
                return LpOutcome::Infeasible;
            }
            // Drive any zero-valued artificial out of the basis when a
            // non-artificial pivot exists; a fully-zero row is redundant and
            // harmless to keep.
            for i in 0..self.m {
                if self.basis[i] >= self.n_struct + self.n_slack {
                    if let Some(j) =
                        (0..self.n_struct + self.n_slack).find(|&j| self.rows[i][j].abs() > EPS)
                    {
                        self.pivot(i, j);
                    }
                }
            }
        }
        // Phase 2: real objective; artificials are pinned at cost −∞ by
        // simply making them unattractive (large negative cost) so they
        // never re-enter.
        let mut cost = vec![0.0; total];
        cost[..self.n_struct].copy_from_slice(obj);
        #[allow(clippy::needless_range_loop)]
        for j in (self.n_struct + self.n_slack)..total {
            cost[j] = -1e30;
        }
        if self.optimize(&cost).is_none() {
            return LpOutcome::Unbounded;
        }
        let mut x = vec![0.0; self.n_struct];
        for i in 0..self.m {
            if self.basis[i] < self.n_struct {
                x[self.basis[i]] = self.rows[i][total];
            }
        }
        let objective = obj.iter().zip(&x).map(|(c, v)| c * v).sum();
        LpOutcome::Optimal { objective, x }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn opt(lp: &LinearProgram, obj: &[f64]) -> (f64, Vec<f64>) {
        match lp.maximize(obj) {
            LpOutcome::Optimal { objective, x } => (objective, x),
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn single_variable_box() {
        let mut lp = LinearProgram::new(1);
        lp.le(&[1.0], 7.0);
        let (z, x) = opt(&lp, &[2.0]);
        assert!((z - 14.0).abs() < 1e-7);
        assert!((x[0] - 7.0).abs() < 1e-7);
    }

    #[test]
    fn unbounded_detected() {
        let mut lp = LinearProgram::new(2);
        lp.le(&[1.0, -1.0], 1.0);
        assert_eq!(lp.maximize(&[1.0, 1.0]), LpOutcome::Unbounded);
    }

    #[test]
    fn infeasible_detected() {
        let mut lp = LinearProgram::new(1);
        lp.ge(&[1.0], 5.0);
        lp.le(&[1.0], 3.0);
        assert_eq!(lp.maximize(&[1.0]), LpOutcome::Infeasible);
    }

    #[test]
    fn equality_constraints_respected() {
        // max x + y  s.t.  x + y = 3, x ≤ 2 → z = 3.
        let mut lp = LinearProgram::new(2);
        lp.eq(&[1.0, 1.0], 3.0);
        lp.le(&[1.0, 0.0], 2.0);
        let (z, x) = opt(&lp, &[1.0, 1.0]);
        assert!((z - 3.0).abs() < 1e-7);
        assert!((x[0] + x[1] - 3.0).abs() < 1e-7);
        assert!(x[0] <= 2.0 + 1e-7);
    }

    #[test]
    fn negative_rhs_normalised() {
        // x ≥ 2 written as −x ≤ −2.
        let mut lp = LinearProgram::new(1);
        lp.le(&[-1.0], -2.0);
        lp.le(&[1.0], 5.0);
        let (z, _) = opt(&lp, &[-1.0]); // maximise −x → x = 2
        assert!((z + 2.0).abs() < 1e-7);
    }

    #[test]
    fn minimize_wrapper_negates() {
        let mut lp = LinearProgram::new(1);
        lp.ge(&[1.0], 3.0);
        lp.le(&[1.0], 10.0);
        match lp.minimize(&[2.0]) {
            LpOutcome::Optimal { objective, x } => {
                assert!((objective - 6.0).abs() < 1e-7);
                assert!((x[0] - 3.0).abs() < 1e-7);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn degenerate_problem_terminates() {
        // A classic cycling-prone degenerate LP (Beale's example in max
        // form); Bland's rule must terminate with the optimum 1.25 at
        // x = (1, 0, 1, 0).
        let mut lp = LinearProgram::new(4);
        lp.le(&[0.25, -8.0, -1.0, 9.0], 0.0);
        lp.le(&[0.5, -12.0, -0.5, 3.0], 0.0);
        lp.le(&[0.0, 0.0, 1.0, 0.0], 1.0);
        let (z, x) = opt(&lp, &[0.75, -20.0, 0.5, -6.0]);
        assert!((z - 1.25).abs() < 1e-6, "z = {z}");
        assert!((x[0] - 1.0).abs() < 1e-6 && (x[2] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn zero_objective_reports_feasibility() {
        let mut lp = LinearProgram::new(2);
        lp.eq(&[1.0, 1.0], 1.0);
        assert!(lp.is_feasible());
        lp.ge(&[1.0, 1.0], 2.0);
        assert!(!lp.is_feasible());
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn wrong_arity_panics() {
        let mut lp = LinearProgram::new(2);
        lp.le(&[1.0], 1.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn box_constrained_lp_picks_positive_corners(
            bounds in proptest::collection::vec(0.1..10.0f64, 1..6),
            costs in proptest::collection::vec(-5.0..5.0f64, 1..6),
        ) {
            // max c·x s.t. x_i ≤ b_i: optimum is Σ_{c_i > 0} c_i b_i.
            let n = bounds.len().min(costs.len());
            let bounds = &bounds[..n];
            let costs = &costs[..n];
            let mut lp = LinearProgram::new(n);
            for i in 0..n {
                let mut row = vec![0.0; n];
                row[i] = 1.0;
                lp.le(&row, bounds[i]);
            }
            let expected: f64 = costs
                .iter()
                .zip(bounds)
                .filter(|(c, _)| **c > 0.0)
                .map(|(c, b)| c * b)
                .sum();
            match lp.maximize(costs) {
                LpOutcome::Optimal { objective, .. } => {
                    prop_assert!((objective - expected).abs() < 1e-6,
                        "got {objective}, expected {expected}");
                }
                other => prop_assert!(false, "unexpected outcome {other:?}"),
            }
        }

        #[test]
        fn primal_feasibility_of_reported_solutions(seed_rows in proptest::collection::vec(
            (proptest::collection::vec(-3.0..3.0f64, 3), 0.5..10.0f64), 1..8))
        {
            let mut lp = LinearProgram::new(3);
            for (coeffs, rhs) in &seed_rows {
                lp.le(coeffs, *rhs);
            }
            if let LpOutcome::Optimal { x, .. } = lp.maximize(&[1.0, 1.0, 1.0]) {
                for (coeffs, rhs) in &seed_rows {
                    let lhs: f64 = coeffs.iter().zip(&x).map(|(a, v)| a * v).sum();
                    prop_assert!(lhs <= rhs + 1e-6);
                }
                for v in &x {
                    prop_assert!(*v >= -1e-9);
                }
            }
        }
    }
}
