//! Exact rational simplex with Bland's rule.
//!
//! Mirrors the transformation pipeline of [`crate::simplex`] — shift or
//! split variables to non-negativity, turn finite upper bounds into rows,
//! add slacks and artificials, run two phases — but every number is an
//! exact [`BigRat`] in a dense tableau, and Bland's rule guarantees
//! finite termination. Used to audit the `f64` path; slow by design.

// Tableau arithmetic is clearer with explicit indices.
#![allow(clippy::needless_range_loop)]

use super::BigRat;
use crate::model::Sense;
use crate::simplex::LpProblem;

/// An LP over exact rationals in bounded row form.
///
/// `lo[j]`/`hi[j]` of `None` mean unbounded on that side.
#[derive(Debug, Clone)]
pub struct ExactLp {
    /// Minimization objective, one coefficient per column.
    pub obj: Vec<BigRat>,
    /// Sparse rows `(terms, sense, rhs)`.
    pub rows: Vec<(Vec<(usize, BigRat)>, Sense, BigRat)>,
    /// Lower bounds; `None` = −∞.
    pub lo: Vec<Option<BigRat>>,
    /// Upper bounds; `None` = +∞.
    pub hi: Vec<Option<BigRat>>,
}

impl ExactLp {
    /// Converts the `f64` problem exactly (every finite double is a
    /// dyadic rational); infinite bounds become `None`.
    ///
    /// # Panics
    ///
    /// Panics if any coefficient is NaN.
    pub fn from_f64_problem(p: &LpProblem) -> ExactLp {
        let cvt = |v: f64| BigRat::from_f64(v).expect("NaN coefficient");
        let bound = |v: f64| {
            if v.is_finite() {
                Some(BigRat::from_f64(v).expect("finite"))
            } else {
                None
            }
        };
        ExactLp {
            obj: p.obj.iter().map(|&c| cvt(c)).collect(),
            rows: p
                .rows
                .iter()
                .map(|(t, s, b)| (t.iter().map(|&(j, c)| (j, cvt(c))).collect(), *s, cvt(*b)))
                .collect(),
            lo: p.lo.iter().map(|&v| bound(v)).collect(),
            hi: p.hi.iter().map(|&v| bound(v)).collect(),
        }
    }
}

/// Result of an exact LP solve.
#[derive(Debug, Clone)]
pub enum ExactOutcome {
    /// Optimum found: column values and objective.
    Optimal {
        /// Exact value of each structural column.
        x: Vec<BigRat>,
        /// Exact objective value.
        objective: BigRat,
    },
    /// No feasible point.
    Infeasible,
    /// Objective unbounded below.
    Unbounded,
}

#[derive(Debug, Clone, Copy)]
enum ColMap {
    Shifted { col: usize },
    Split { plus: usize, minus: usize },
    Fixed,
}

/// Maps original columns to the non-negative standard form:
/// `(map, nstruct, ub_rows)` where `ub_rows` counts the finite upper
/// bounds that become extra `≤` rows.
fn column_map(p: &ExactLp) -> (Vec<ColMap>, usize, usize) {
    let ncols = p.obj.len();
    let mut map = Vec::with_capacity(ncols);
    let mut next = 0usize;
    let mut ub_rows = 0usize;
    for j in 0..ncols {
        match (&p.lo[j], &p.hi[j]) {
            (Some(lo), Some(hi)) if lo == hi => map.push(ColMap::Fixed),
            (Some(_), hi) => {
                map.push(ColMap::Shifted { col: next });
                next += 1;
                if hi.is_some() {
                    ub_rows += 1;
                }
            }
            (None, hi) => {
                map.push(ColMap::Split {
                    plus: next,
                    minus: next + 1,
                });
                next += 2;
                if hi.is_some() {
                    ub_rows += 1;
                }
            }
        }
    }
    (map, next, ub_rows)
}

enum End {
    Optimal,
    Unbounded,
}

struct Tab {
    m: usize,
    n: usize,
    a: Vec<BigRat>,
    rhs: Vec<BigRat>,
    basis: Vec<usize>,
}

impl Tab {
    fn at(&self, r: usize, c: usize) -> &BigRat {
        &self.a[r * self.n + c]
    }

    fn pivot(&mut self, pr: usize, pc: usize) {
        let n = self.n;
        let inv = self.a[pr * n + pc].recip();
        for c in 0..n {
            self.a[pr * n + c] = &self.a[pr * n + c] * &inv;
        }
        self.rhs[pr] = &self.rhs[pr] * &inv;
        let prow: Vec<BigRat> = self.a[pr * n..(pr + 1) * n].to_vec();
        let rhs_pr = self.rhs[pr].clone();
        for r in 0..self.m {
            if r == pr {
                continue;
            }
            let f = self.a[r * n + pc].clone();
            if !f.is_zero() {
                for c in 0..n {
                    let sub = &f * &prow[c];
                    self.a[r * n + c] = &self.a[r * n + c] - &sub;
                }
                self.rhs[r] = &self.rhs[r] - &(&f * &rhs_pr);
            }
        }
        self.basis[pr] = pc;
    }
}

/// Bland's rule: lowest-index entering column with negative reduced cost,
/// lowest-basis-index tie-break in the ratio test. Terminates finitely.
fn bland(t: &mut Tab, cost: &[BigRat], col_limit: usize) -> End {
    loop {
        // Reduced costs z_j = c_j - c_B B^-1 A_j computed directly.
        let mut entering = None;
        for c in 0..col_limit {
            if t.basis.contains(&c) {
                continue;
            }
            let mut z = cost[c].clone();
            for r in 0..t.m {
                if !cost[t.basis[r]].is_zero() {
                    z -= &(&cost[t.basis[r]] * t.at(r, c));
                }
            }
            if z.is_negative() {
                entering = Some(c);
                break;
            }
        }
        let Some(pc) = entering else {
            return End::Optimal;
        };
        let mut pr = None;
        let mut best: Option<BigRat> = None;
        for r in 0..t.m {
            if t.at(r, pc).is_positive() {
                let ratio = &t.rhs[r] / t.at(r, pc);
                let take = match &best {
                    None => true,
                    Some(b) => {
                        ratio < *b || (ratio == *b && pr.map_or(true, |p| t.basis[r] < t.basis[p]))
                    }
                };
                if take {
                    best = Some(ratio);
                    pr = Some(r);
                }
            }
        }
        let Some(pr) = pr else {
            return End::Unbounded;
        };
        t.pivot(pr, pc);
    }
}

/// Solves `p` exactly over a dense [`BigRat`] tableau. See
/// [`ExactOutcome`].
pub fn solve_lp_exact(p: &ExactLp) -> ExactOutcome {
    let ncols = p.obj.len();
    for j in 0..ncols {
        if let (Some(lo), Some(hi)) = (&p.lo[j], &p.hi[j]) {
            if lo > hi {
                return ExactOutcome::Infeasible;
            }
        }
    }

    let (map, nstruct, ub_rows) = column_map(p);

    // Dense rows.
    let mut rows: Vec<(Vec<BigRat>, Sense, BigRat)> = Vec::with_capacity(p.rows.len() + ub_rows);
    let fixed_val = |j: usize| p.lo[j].clone().expect("fixed has lo");
    for (terms, sense, rhs) in &p.rows {
        let mut dense = vec![BigRat::zero(); nstruct];
        let mut b = rhs.clone();
        for (j, coeff) in terms {
            match map[*j] {
                ColMap::Shifted { col } => {
                    let lo = p.lo[*j].clone().expect("shifted has lo");
                    dense[col] = &dense[col] + coeff;
                    b -= &(coeff * &lo);
                }
                ColMap::Split { plus, minus } => {
                    dense[plus] = &dense[plus] + coeff;
                    dense[minus] = &dense[minus] - coeff;
                }
                ColMap::Fixed => b -= &(coeff * &fixed_val(*j)),
            }
        }
        rows.push((dense, *sense, b));
    }
    for j in 0..ncols {
        let Some(hi) = &p.hi[j] else { continue };
        match map[j] {
            ColMap::Shifted { col } => {
                let lo = p.lo[j].clone().expect("shifted has lo");
                let mut dense = vec![BigRat::zero(); nstruct];
                dense[col] = BigRat::one();
                rows.push((dense, Sense::Le, hi - &lo));
            }
            ColMap::Split { plus, minus } => {
                let mut dense = vec![BigRat::zero(); nstruct];
                dense[plus] = BigRat::one();
                dense[minus] = -BigRat::one();
                rows.push((dense, Sense::Le, hi.clone()));
            }
            ColMap::Fixed => {}
        }
    }

    // Vacuous rows.
    let mut infeasible_vacuous = false;
    rows.retain(|(dense, sense, b)| {
        if dense.iter().any(|c| !c.is_zero()) {
            return true;
        }
        let ok = match sense {
            Sense::Le => !b.is_negative(),
            Sense::Ge => !b.is_positive(),
            Sense::Eq => b.is_zero(),
        };
        if !ok {
            infeasible_vacuous = true;
        }
        false
    });
    if infeasible_vacuous {
        return ExactOutcome::Infeasible;
    }

    let m = rows.len();
    let mut nslack = 0usize;
    let mut nart = 0usize;
    for (_, sense, b) in &rows {
        let neg = b.is_negative();
        match (sense, neg) {
            (Sense::Le, false) | (Sense::Ge, true) => nslack += 1,
            (Sense::Le, true) | (Sense::Ge, false) => {
                nslack += 1;
                nart += 1;
            }
            (Sense::Eq, _) => nart += 1,
        }
    }
    let n = nstruct + nslack + nart;
    let mut t = Tab {
        m,
        n,
        a: vec![BigRat::zero(); m * n],
        rhs: vec![BigRat::zero(); m],
        basis: vec![usize::MAX; m],
    };
    let mut art_cols = Vec::with_capacity(nart);
    let mut sc = nstruct;
    let mut ac = nstruct + nslack;
    for (r, (dense, sense, b)) in rows.iter().enumerate() {
        let neg = b.is_negative();
        for c in 0..nstruct {
            t.a[r * n + c] = if neg {
                -dense[c].clone()
            } else {
                dense[c].clone()
            };
        }
        t.rhs[r] = if neg { -b.clone() } else { b.clone() };
        let eff = match (sense, neg) {
            (Sense::Le, false) | (Sense::Ge, true) => Sense::Le,
            (Sense::Ge, false) | (Sense::Le, true) => Sense::Ge,
            (Sense::Eq, _) => Sense::Eq,
        };
        match eff {
            Sense::Le => {
                t.a[r * n + sc] = BigRat::one();
                t.basis[r] = sc;
                sc += 1;
            }
            Sense::Ge => {
                t.a[r * n + sc] = -BigRat::one();
                sc += 1;
                t.a[r * n + ac] = BigRat::one();
                t.basis[r] = ac;
                art_cols.push(ac);
                ac += 1;
            }
            Sense::Eq => {
                t.a[r * n + ac] = BigRat::one();
                t.basis[r] = ac;
                art_cols.push(ac);
                ac += 1;
            }
        }
    }

    // Phase 1.
    if !art_cols.is_empty() {
        let mut cost = vec![BigRat::zero(); n];
        for &c in &art_cols {
            cost[c] = BigRat::one();
        }
        match bland(&mut t, &cost, n) {
            End::Optimal => {}
            End::Unbounded => return ExactOutcome::Infeasible,
        }
        let mut phase1 = BigRat::zero();
        for r in 0..m {
            if art_cols.contains(&t.basis[r]) {
                phase1 += &t.rhs[r];
            }
        }
        if !phase1.is_zero() {
            return ExactOutcome::Infeasible;
        }
        for r in 0..m {
            if art_cols.contains(&t.basis[r]) {
                if let Some(pc) = (0..nstruct + nslack).find(|&c| !t.at(r, c).is_zero()) {
                    t.pivot(r, pc);
                }
            }
        }
    }

    // Phase 2, artificials excluded from entering.
    let mut cost = vec![BigRat::zero(); n];
    for j in 0..ncols {
        if p.obj[j].is_zero() {
            continue;
        }
        match map[j] {
            ColMap::Shifted { col } => cost[col] = &cost[col] + &p.obj[j],
            ColMap::Split { plus, minus } => {
                cost[plus] = &cost[plus] + &p.obj[j];
                cost[minus] = &cost[minus] - &p.obj[j];
            }
            ColMap::Fixed => {}
        }
    }
    match bland(&mut t, &cost, nstruct + nslack) {
        End::Optimal => {}
        End::Unbounded => return ExactOutcome::Unbounded,
    }

    // Extract.
    let mut y = vec![BigRat::zero(); n];
    for r in 0..m {
        y[t.basis[r]] = t.rhs[r].clone();
    }
    let mut x = vec![BigRat::zero(); ncols];
    let mut objective = BigRat::zero();
    for j in 0..ncols {
        x[j] = match map[j] {
            ColMap::Shifted { col } => {
                let lo = p.lo[j].clone().expect("shifted has lo");
                &lo + &y[col]
            }
            ColMap::Split { plus, minus } => &y[plus] - &y[minus],
            ColMap::Fixed => fixed_val(j),
        };
        objective += &(&p.obj[j] * &x[j]);
    }
    ExactOutcome::Optimal { x, objective }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(v: i64) -> BigRat {
        BigRat::from(v)
    }

    #[test]
    fn exact_textbook() {
        // min -5x -4y s.t. 6x+4y<=24, x+2y<=6, x,y >= 0 -> obj -21
        let p = ExactLp {
            obj: vec![r(-5), r(-4)],
            rows: vec![
                (vec![(0, r(6)), (1, r(4))], Sense::Le, r(24)),
                (vec![(0, r(1)), (1, r(2))], Sense::Le, r(6)),
            ],
            lo: vec![Some(r(0)), Some(r(0))],
            hi: vec![None, None],
        };
        match solve_lp_exact(&p) {
            ExactOutcome::Optimal { objective, x } => {
                assert_eq!(objective, r(-21));
                assert_eq!(x[0], r(3));
                assert_eq!(x[1], BigRat::from_ratio(3, 2));
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn exact_infeasible() {
        let p = ExactLp {
            obj: vec![r(0)],
            rows: vec![
                (vec![(0, r(1))], Sense::Le, r(1)),
                (vec![(0, r(1))], Sense::Ge, r(2)),
            ],
            lo: vec![Some(r(0))],
            hi: vec![None],
        };
        assert!(matches!(solve_lp_exact(&p), ExactOutcome::Infeasible));
    }

    #[test]
    fn exact_unbounded() {
        let p = ExactLp {
            obj: vec![r(-1)],
            rows: vec![],
            lo: vec![Some(r(0))],
            hi: vec![None],
        };
        assert!(matches!(solve_lp_exact(&p), ExactOutcome::Unbounded));
    }

    #[test]
    fn agrees_with_f64_path() {
        use crate::simplex::{solve_lp, LpProblem};
        let p = LpProblem {
            obj: vec![1.0, 2.0, -1.0],
            rows: vec![
                (vec![(0, 1.0), (1, 1.0), (2, 1.0)], Sense::Eq, 10.0),
                (vec![(0, 1.0), (1, -1.0)], Sense::Ge, 2.0),
                (vec![(2, 1.0)], Sense::Le, 7.0),
            ],
            lo: vec![0.0, 0.0, 0.0],
            hi: vec![f64::INFINITY, f64::INFINITY, f64::INFINITY],
        };
        let f = solve_lp(&p).optimal().expect("f64 optimal");
        let e = solve_lp_exact(&ExactLp::from_f64_problem(&p));
        match e {
            ExactOutcome::Optimal { objective, .. } => {
                assert!((objective.to_f64() - f.objective).abs() < 1e-6);
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn fractional_optimum_is_exact() {
        // min x s.t. 3x >= 1 -> x = 1/3 exactly.
        let p = ExactLp {
            obj: vec![r(1)],
            rows: vec![(vec![(0, r(3))], Sense::Ge, r(1))],
            lo: vec![Some(r(0))],
            hi: vec![None],
        };
        match solve_lp_exact(&p) {
            ExactOutcome::Optimal { x, .. } => {
                assert_eq!(x[0], BigRat::from_ratio(1, 3));
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    /// Solves `p` exactly (every coefficient is a small integer, so the
    /// `f64` form converts exactly) and checks the outcome against the
    /// hand-computed `want` and against the `f64` simplex.
    fn assert_reaches(p: &crate::simplex::LpProblem, want: &ExactOutcome, case: usize) {
        use crate::simplex::{solve_lp, LpOutcome};
        let exact = solve_lp_exact(&ExactLp::from_f64_problem(p));
        match (exact, want, solve_lp(p)) {
            (
                ExactOutcome::Optimal { x, objective },
                ExactOutcome::Optimal {
                    x: wx,
                    objective: wobj,
                },
                LpOutcome::Optimal(f),
            ) => {
                assert_eq!(&x, wx, "case {case}: solution");
                assert_eq!(&objective, wobj, "case {case}: objective");
                assert!(
                    (f.objective - wobj.to_f64()).abs() < 1e-9,
                    "case {case}: f64"
                );
            }
            (ExactOutcome::Infeasible, ExactOutcome::Infeasible, LpOutcome::Infeasible)
            | (ExactOutcome::Unbounded, ExactOutcome::Unbounded, LpOutcome::Unbounded) => {}
            (e, w, f) => panic!("case {case}: exact {e:?}, want {w:?}, f64 {f:?}"),
        }
    }

    #[test]
    fn varied_forms_reach_their_known_optima() {
        // Exercise every transformation: free (split) columns, fixed
        // columns, finite upper bounds, negative rhs, all three senses,
        // duplicate terms on one column, and exact cancellation.
        use crate::simplex::LpProblem;
        const INF: f64 = f64::INFINITY;
        let q = BigRat::from_ratio;
        let opt = |x, objective| ExactOutcome::Optimal { x, objective };
        let cases: Vec<(LpProblem, ExactOutcome)> = vec![
            (
                LpProblem {
                    obj: vec![-5.0, -4.0],
                    rows: vec![
                        (vec![(0, 6.0), (1, 4.0)], Sense::Le, 24.0),
                        (vec![(0, 1.0), (1, 2.0)], Sense::Le, 6.0),
                    ],
                    lo: vec![0.0, 0.0],
                    hi: vec![INF, INF],
                },
                opt(vec![r(3), q(3, 2)], r(-21)),
            ),
            (
                LpProblem {
                    obj: vec![1.0, 2.0, -1.0],
                    rows: vec![
                        (vec![(0, 1.0), (1, 1.0), (2, 1.0)], Sense::Eq, 10.0),
                        (vec![(0, 1.0), (1, -1.0)], Sense::Ge, 2.0),
                        (vec![(2, 1.0)], Sense::Le, 7.0),
                    ],
                    lo: vec![0.0, 0.0, 0.0],
                    hi: vec![INF, INF, INF],
                },
                opt(vec![r(3), r(0), r(7)], r(-4)),
            ),
            // Free column, fixed column, finite upper bound.
            (
                LpProblem {
                    obj: vec![1.0, 3.0, 0.0],
                    rows: vec![
                        (vec![(0, 1.0), (1, 1.0), (2, 2.0)], Sense::Ge, 4.0),
                        (vec![(0, 1.0), (1, -2.0)], Sense::Le, 3.0),
                    ],
                    lo: vec![-INF, 0.0, 5.0],
                    hi: vec![INF, 2.0, 5.0],
                },
                opt(vec![r(-6), r(0), r(5)], r(-6)),
            ),
            // Negative rhs flips row signs; duplicate column terms sum;
            // (0, 1) + (0, -1) cancels to a vacuous feasible row.
            (
                LpProblem {
                    obj: vec![2.0, 1.0],
                    rows: vec![
                        (vec![(0, -1.0), (1, -1.0)], Sense::Le, -3.0),
                        (vec![(0, 1.0), (0, 1.0), (1, 1.0)], Sense::Le, 10.0),
                        (vec![(0, 1.0), (0, -1.0)], Sense::Le, 0.0),
                    ],
                    lo: vec![0.0, 0.0],
                    hi: vec![INF, INF],
                },
                opt(vec![r(0), r(3)], r(3)),
            ),
            // Infeasible.
            (
                LpProblem {
                    obj: vec![0.0],
                    rows: vec![
                        (vec![(0, 1.0)], Sense::Le, 1.0),
                        (vec![(0, 1.0)], Sense::Ge, 2.0),
                    ],
                    lo: vec![0.0],
                    hi: vec![INF],
                },
                ExactOutcome::Infeasible,
            ),
            // Unbounded via a free column.
            (
                LpProblem {
                    obj: vec![1.0],
                    rows: vec![],
                    lo: vec![-INF],
                    hi: vec![INF],
                },
                ExactOutcome::Unbounded,
            ),
        ];
        for (i, (p, want)) in cases.iter().enumerate() {
            assert_reaches(p, want, i);
        }
    }

    #[test]
    fn fractional_vertex_reaches_its_known_optimum() {
        // Integer data, fractional vertex: 3x+y = 1, x+7y = 2 gives
        // x = y = 1/4, so the pivots must carry exact quarters.
        use crate::simplex::LpProblem;
        let q = BigRat::from_ratio;
        let p = LpProblem {
            obj: vec![1.0, 1.0],
            rows: vec![
                (vec![(0, 3.0), (1, 1.0)], Sense::Ge, 1.0),
                (vec![(0, 1.0), (1, 7.0)], Sense::Ge, 2.0),
            ],
            lo: vec![0.0, 0.0],
            hi: vec![f64::INFINITY, f64::INFINITY],
        };
        let want = ExactOutcome::Optimal {
            x: vec![q(1, 4), q(1, 4)],
            objective: q(1, 2),
        };
        assert_reaches(&p, &want, 0);
    }
}
