//! Dense two-phase primal simplex over `f64`.
//!
//! The solver accepts problems in the *bounded row form* used by the
//! branch-and-bound driver: minimize `c·x` subject to rows
//! `a·x {<=, >=, ==} b` and box bounds `lo <= x <= hi` (bounds may be
//! infinite). Internally every variable is shifted/split to be
//! non-negative, finite upper bounds become rows, and slack/artificial
//! columns complete a basis for phase 1.
//!
//! Pricing is Dantzig (most negative reduced cost) with an automatic
//! switch to Bland's rule after a run of degenerate pivots, which
//! guarantees termination.
//!
//! The pivot inner loop enumerates the pivot row's nonzero columns once
//! and skips the exact zeros in every eliminated row. Scheduling
//! tableaus are mostly zeros (each constraint touches a handful of the
//! `ops × slots` columns), so this does a small fraction of a full-width
//! sweep's arithmetic — and because every skipped update is
//! `x -= f · (±0.0)`, which can change at most the sign of a zero, and
//! every decision in the solver is a comparison (IEEE orders
//! `-0.0 == 0.0`), it takes the same pivot sequence a full sweep would.

// Tableau arithmetic is clearer with explicit indices.
#![allow(clippy::needless_range_loop)]

use crate::budget::{Budget, Exhaustion};
use crate::model::Sense;
use crate::SolveError;

/// Feasibility tolerance used throughout the `f64` pipeline.
pub const FEAS_TOL: f64 = 1e-7;
/// Pivot magnitude below which a column entry is treated as zero.
const PIVOT_TOL: f64 = 1e-9;
/// Number of consecutive degenerate pivots before switching to Bland's rule.
const DEGEN_SWITCH: usize = 60;

/// Inner-loop layout of the pivot elimination (see the module docs).
///
/// `SparseRow` is the only layout. The enum is kept because the
/// benchmark under `schedbench/` names it when it builds
/// [`crate::SolveLimits`]; a single value selects nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PivotLayout {
    /// Sweep only the pivot row's nonzero columns, collected once per
    /// pivot into a reusable index list.
    #[default]
    SparseRow,
}

/// A linear program in bounded row form, ready for [`solve_lp`].
#[derive(Debug, Clone)]
pub struct LpProblem {
    /// Objective coefficients (always minimized), one per column.
    pub obj: Vec<f64>,
    /// Sparse rows: `(terms, sense, rhs)` with terms as `(col, coeff)`.
    pub rows: Vec<(Vec<(usize, f64)>, Sense, f64)>,
    /// Per-column lower bounds (`-inf` allowed).
    pub lo: Vec<f64>,
    /// Per-column upper bounds (`+inf` allowed).
    pub hi: Vec<f64>,
}

impl LpProblem {
    /// Number of structural columns.
    pub fn num_cols(&self) -> usize {
        self.obj.len()
    }
}

/// Optimal solution of an LP.
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// Value of each structural column.
    pub x: Vec<f64>,
    /// Objective value `c·x`.
    pub objective: f64,
    /// Simplex iterations used (both phases).
    pub iterations: usize,
}

/// A simplex basis exported in *structural* (model-variable) space.
///
/// `cols` lists the problem columns that were basic when the solve
/// terminated (sorted, deduplicated; split free variables report their
/// structural index once). The basis is a **hint**, never a contract: a
/// warm solve crashes the hinted columns into the starting basis with a
/// full ratio test, so primal feasibility is preserved no matter how
/// stale the hint is, and phases 1/2 still run to completion. A useless
/// hint costs a few extra pivots; it can never change the outcome.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LpBasis {
    /// Structural column indices basic at termination.
    pub cols: Vec<usize>,
}

impl LpBasis {
    /// Whether the basis carries no information.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }
}

/// Outcome of a warm-started LP solve: the verdict plus the terminal
/// basis (for carry-over to the next closely-related instance) and how
/// many crash pivots the hint bought.
#[derive(Debug, Clone)]
pub struct WarmLpResult {
    /// The solve verdict, identical in meaning to [`solve_lp_with`].
    pub outcome: LpOutcome,
    /// Structural basis at termination (empty on early infeasibility).
    pub basis: LpBasis,
    /// Forced-entering pivots performed while crashing the hint into the
    /// starting basis (0 when no hint was given or none applied).
    pub crash_pivots: usize,
}

/// Result of an LP solve.
#[derive(Debug, Clone)]
pub enum LpOutcome {
    /// Optimum found.
    Optimal(LpSolution),
    /// No feasible point exists.
    Infeasible,
    /// The objective decreases without bound.
    Unbounded,
}

impl LpOutcome {
    /// The solution if optimal, else `None`.
    pub fn optimal(self) -> Option<LpSolution> {
        match self {
            LpOutcome::Optimal(s) => Some(s),
            _ => None,
        }
    }
}

/// Column bookkeeping: how a structural variable maps into tableau columns.
#[derive(Debug, Clone, Copy)]
enum ColMap {
    /// `x = lo + y`, single tableau column (shifted non-negative).
    Shifted { col: usize, lo: f64 },
    /// Free variable split `x = y⁺ − y⁻`.
    Split { plus: usize, minus: usize },
    /// Fixed: `lo == hi`, no tableau column.
    Fixed { value: f64 },
}

/// Dense row-major tableau.
struct Tableau {
    m: usize,
    n: usize, // columns excluding rhs
    a: Vec<f64>,
    rhs: Vec<f64>,
    basis: Vec<usize>,
}

impl Tableau {
    fn at(&self, r: usize, c: usize) -> f64 {
        self.a[r * self.n + c]
    }

    /// Pivots on `(pr, pc)`, sweeping only the pivot row's nonzeros,
    /// which are collected into `nz` (reused across pivots, and left
    /// holding them for the caller's reduced-cost update). Every
    /// elimination this skips is `row[c] -= f * (±0.0)` — a value-level
    /// no-op — so the resulting tableau equals a full-width sweep's under
    /// every IEEE comparison (only signs of zeros may differ).
    fn pivot(&mut self, pr: usize, pc: usize, nz: &mut Vec<usize>) {
        let n = self.n;
        let piv = self.a[pr * n + pc];
        let inv = 1.0 / piv;
        nz.clear();
        for (c, v) in self.a[pr * n..(pr + 1) * n].iter_mut().enumerate() {
            if *v != 0.0 {
                *v *= inv;
                nz.push(c);
            }
        }
        self.rhs[pr] *= inv;
        let rhs_pr = self.rhs[pr];
        // Split the pivot row out so other rows can be updated without
        // aliasing the borrow.
        let (before, rest) = self.a.split_at_mut(pr * n);
        let (prow, after) = rest.split_at_mut(n);
        for (ri, row) in before.chunks_exact_mut(n).enumerate() {
            let f = row[pc];
            if f != 0.0 {
                for &c in nz.iter() {
                    row[c] -= f * prow[c];
                }
                row[pc] = 0.0; // exact zero to contain drift
                self.rhs[ri] -= f * rhs_pr;
            }
        }
        for (ri, row) in after.chunks_exact_mut(n).enumerate() {
            let f = row[pc];
            if f != 0.0 {
                for &c in nz.iter() {
                    row[c] -= f * prow[c];
                }
                row[pc] = 0.0;
                self.rhs[pr + 1 + ri] -= f * rhs_pr;
            }
        }
        self.basis[pr] = pc;
    }
}

/// Solves the LP by two-phase dense primal simplex, unbudgeted.
///
/// Column bounds with `lo > hi` (to within [`FEAS_TOL`]) yield
/// [`LpOutcome::Infeasible`] immediately — branch-and-bound relies on this
/// when a branch empties a variable's domain.
///
/// If the pivot cap is ever exhausted (essentially unreachable thanks to
/// the Bland fallback), the current vertex is reported as optimal, as
/// this entry point predates stall detection; budget-aware callers should
/// use [`solve_lp_with`], which reports such stalls as
/// [`SolveError::Numerical`] instead.
pub fn solve_lp(p: &LpProblem) -> LpOutcome {
    // A fresh unlimited budget cannot trip, so the only possible error is
    // unreachable; Infeasible is the safe fallback if it ever were not.
    solve_lp_impl(p, &Budget::unlimited(), false, None)
        .map(|r| r.outcome)
        .unwrap_or(LpOutcome::Infeasible)
}

/// Solves the LP under a [`Budget`], with strict stall detection.
///
/// # Errors
///
/// * [`SolveError::LimitReached`] — the budget's deadline or tick cap
///   tripped mid-solve (one tick is spent per simplex pivot);
/// * [`SolveError::Cancelled`] — the budget's cancel token fired;
/// * [`SolveError::Numerical`] — the pivot cap was exhausted without
///   convergence (a stall or cycling even Bland's rule did not resolve).
pub fn solve_lp_with(p: &LpProblem, budget: &Budget) -> Result<LpOutcome, SolveError> {
    solve_lp_impl(p, budget, true, None).map(|r| r.outcome)
}

/// Solves the LP under a [`Budget`] with an optional basis hint, and
/// exports the terminal basis for carry-over to the next instance.
///
/// The hint is crashed into the starting basis by forced-entering pivots
/// with a full ratio test, so the right-hand side stays non-negative and
/// both simplex phases run unchanged afterwards: the verdict is always
/// identical to a cold [`solve_lp_with`] (a vertex-degenerate optimum may
/// sit at a different vertex, but feasibility/unboundedness and the
/// optimal objective value agree). With `hint == None` the pivot sequence
/// is bit-identical to the cold path.
///
/// # Errors
///
/// As [`solve_lp_with`]. Crash pivots spend budget ticks like any other
/// pivot, so determinism under tick caps is preserved.
pub fn solve_lp_warm(
    p: &LpProblem,
    budget: &Budget,
    hint: Option<&LpBasis>,
) -> Result<WarmLpResult, SolveError> {
    solve_lp_impl(p, budget, true, hint)
}

fn solve_lp_impl(
    p: &LpProblem,
    budget: &Budget,
    strict: bool,
    hint: Option<&LpBasis>,
) -> Result<WarmLpResult, SolveError> {
    let ncols = p.num_cols();
    // Early exits happen before any tableau exists; they carry an empty
    // basis (nothing useful to hand to the next solve).
    let bare = |outcome: LpOutcome| WarmLpResult {
        outcome,
        basis: LpBasis::default(),
        crash_pivots: 0,
    };
    for j in 0..ncols {
        if p.lo[j] > p.hi[j] + FEAS_TOL {
            return Ok(bare(LpOutcome::Infeasible));
        }
    }

    // --- Build the column map and count tableau columns. ---
    let mut map = Vec::with_capacity(ncols);
    let mut next = 0usize;
    let mut ub_rows = 0usize;
    for j in 0..ncols {
        let (lo, hi) = (p.lo[j], p.hi[j]);
        if lo == hi {
            map.push(ColMap::Fixed { value: lo });
        } else if lo.is_finite() {
            map.push(ColMap::Shifted { col: next, lo });
            next += 1;
            if hi.is_finite() {
                ub_rows += 1;
            }
        } else if hi.is_finite() {
            // x <= hi with free lower end: substitute x = hi - y, y >= 0.
            // Model as shifted with negated column; simpler: split.
            map.push(ColMap::Split {
                plus: next,
                minus: next + 1,
            });
            next += 2;
            ub_rows += 1;
        } else {
            map.push(ColMap::Split {
                plus: next,
                minus: next + 1,
            });
            next += 2;
        }
    }
    let nstruct = next;

    // --- Assemble rows: user rows plus upper-bound rows. ---
    // Each row: dense coefficient vec over nstruct, sense, rhs.
    let total_rows = p.rows.len() + ub_rows;
    let mut rows: Vec<(Vec<f64>, Sense, f64)> = Vec::with_capacity(total_rows);
    for (terms, sense, rhs) in &p.rows {
        let mut dense = vec![0.0; nstruct];
        let mut b = *rhs;
        for &(j, coeff) in terms {
            match map[j] {
                ColMap::Shifted { col, lo } => {
                    dense[col] += coeff;
                    b -= coeff * lo;
                }
                ColMap::Split { plus, minus } => {
                    dense[plus] += coeff;
                    dense[minus] -= coeff;
                }
                ColMap::Fixed { value } => b -= coeff * value,
            }
        }
        rows.push((dense, *sense, b));
    }
    for j in 0..ncols {
        let hi = p.hi[j];
        if !hi.is_finite() {
            continue;
        }
        match map[j] {
            ColMap::Shifted { col, lo } => {
                let mut dense = vec![0.0; nstruct];
                dense[col] = 1.0;
                rows.push((dense, Sense::Le, hi - lo));
            }
            ColMap::Split { plus, minus } => {
                let mut dense = vec![0.0; nstruct];
                dense[plus] = 1.0;
                dense[minus] = -1.0;
                rows.push((dense, Sense::Le, hi));
            }
            ColMap::Fixed { .. } => {}
        }
    }

    // Rows that are vacuous (all-zero lhs) are resolved immediately.
    rows.retain(|(dense, sense, b)| {
        if dense.iter().any(|&c| c != 0.0) {
            return true;
        }
        // 0 {sense} b — keep only to detect infeasibility below via flag.
        let ok = match sense {
            Sense::Le => *b >= -FEAS_TOL,
            Sense::Ge => *b <= FEAS_TOL,
            Sense::Eq => b.abs() <= FEAS_TOL,
        };
        !ok // keep violated vacuous rows; they force infeasibility
    });
    if rows
        .iter()
        .any(|(dense, _, _)| dense.iter().all(|&c| c == 0.0))
    {
        return Ok(bare(LpOutcome::Infeasible));
    }

    let m = rows.len();
    // Count slacks and artificials.
    let mut nslack = 0usize;
    let mut nart = 0usize;
    for (_, sense, b) in &rows {
        let bneg = *b < 0.0;
        match (sense, bneg) {
            (Sense::Le, false) => nslack += 1, // +slack basic
            (Sense::Le, true) => {
                nslack += 1;
                nart += 1;
            } // becomes Ge after negate
            (Sense::Ge, false) => {
                nslack += 1;
                nart += 1;
            }
            (Sense::Ge, true) => nslack += 1, // becomes Le after negate
            (Sense::Eq, _) => nart += 1,
        }
    }
    let n = nstruct + nslack + nart;
    let mut t = Tableau {
        m,
        n,
        a: vec![0.0; m * n],
        rhs: vec![0.0; m],
        basis: vec![usize::MAX; m],
    };
    let mut art_cols: Vec<usize> = Vec::with_capacity(nart);
    let mut sc = nstruct; // next slack column
    let mut ac = nstruct + nslack; // next artificial column
    for (r, (dense, sense, b)) in rows.iter().enumerate() {
        let neg = *b < 0.0;
        let sgn = if neg { -1.0 } else { 1.0 };
        for c in 0..nstruct {
            t.a[r * n + c] = sgn * dense[c];
        }
        t.rhs[r] = sgn * b;
        let eff_sense = match (sense, neg) {
            (Sense::Le, false) | (Sense::Ge, true) => Sense::Le,
            (Sense::Ge, false) | (Sense::Le, true) => Sense::Ge,
            (Sense::Eq, _) => Sense::Eq,
        };
        match eff_sense {
            Sense::Le => {
                t.a[r * n + sc] = 1.0;
                t.basis[r] = sc;
                sc += 1;
            }
            Sense::Ge => {
                t.a[r * n + sc] = -1.0;
                sc += 1;
                t.a[r * n + ac] = 1.0;
                t.basis[r] = ac;
                art_cols.push(ac);
                ac += 1;
            }
            Sense::Eq => {
                t.a[r * n + ac] = 1.0;
                t.basis[r] = ac;
                art_cols.push(ac);
                ac += 1;
            }
        }
    }

    // Reverse map: tableau structural column → problem column, used for
    // basis export and for applying a basis hint.
    let mut rev = vec![usize::MAX; nstruct];
    for j in 0..ncols {
        match map[j] {
            ColMap::Shifted { col, .. } => rev[col] = j,
            ColMap::Split { plus, minus } => {
                rev[plus] = j;
                rev[minus] = j;
            }
            ColMap::Fixed { .. } => {}
        }
    }

    let mut iterations = 0usize;
    let mut crash_pivots = 0usize;
    // Sparse sweep's reusable pivot-row nonzero list.
    let mut nz: Vec<usize> = Vec::new();

    // --- Crash the hinted basis in before phase 1. ---
    // Forced-entering pivots with the usual ratio test: the rhs stays
    // non-negative, so the tableau remains a valid phase-1 start no
    // matter how stale the hint is. On a good hint this drives the
    // artificials out up front and phase 1 terminates immediately.
    if let Some(hint) = hint {
        let art_start = nstruct + nslack;
        for &j in &hint.cols {
            if j >= ncols {
                continue; // hint from a differently-shaped model
            }
            let pc = match map[j] {
                ColMap::Shifted { col, .. } => col,
                ColMap::Split { plus, .. } => plus,
                ColMap::Fixed { .. } => continue,
            };
            if t.basis.contains(&pc) {
                continue;
            }
            let mut pr = usize::MAX;
            let mut best_ratio = f64::INFINITY;
            for r in 0..m {
                let a = t.at(r, pc);
                if a <= PIVOT_TOL {
                    continue;
                }
                let ratio = t.rhs[r] / a;
                if ratio < best_ratio - 1e-12 {
                    best_ratio = ratio;
                    pr = r;
                } else if ratio < best_ratio + 1e-12 && pr != usize::MAX {
                    // Among ties, prefer evicting an artificial: that is
                    // the whole point of crashing.
                    if t.basis[r] >= art_start && t.basis[pr] < art_start {
                        pr = r;
                    }
                }
            }
            if pr == usize::MAX {
                continue; // no feasibility-preserving pivot for this column
            }
            budget.tick().map_err(SolveError::from)?;
            t.pivot(pr, pc, &mut nz);
            crash_pivots += 1;
            iterations += 1;
        }
    }

    // --- Phase 1: minimize sum of artificials. ---
    if !art_cols.is_empty() {
        let mut cost = vec![0.0; n];
        for &c in &art_cols {
            cost[c] = 1.0;
        }
        match run_simplex(&mut t, &cost, &mut iterations, budget).map_err(SolveError::from)? {
            SimplexEnd::Optimal => {}
            SimplexEnd::Unbounded => return Ok(bare(LpOutcome::Infeasible)), // cannot happen; safe
            SimplexEnd::Stalled if strict => {
                return Err(SolveError::Numerical(
                    "phase-1 simplex stalled: pivot cap exhausted without convergence".into(),
                ))
            }
            SimplexEnd::Stalled => {} // legacy: accept the current vertex
        }
        let phase1: f64 = t
            .basis
            .iter()
            .zip(&t.rhs)
            .filter(|(b, _)| art_cols.contains(b))
            .map(|(_, &v)| v)
            .sum();
        if phase1 > 1e-6 {
            // Infeasible, but the phase-1 terminal basis is still a
            // useful hint for the next (e.g. T+1) instance: export it.
            return Ok(WarmLpResult {
                outcome: LpOutcome::Infeasible,
                basis: export_basis(&t, &rev, nstruct),
                crash_pivots,
            });
        }
        // Drive remaining artificials out of the basis where possible.
        for r in 0..m {
            if art_cols.contains(&t.basis[r]) {
                if let Some(pc) = (0..nstruct + nslack).find(|&c| t.at(r, c).abs() > PIVOT_TOL) {
                    t.pivot(r, pc, &mut nz);
                }
                // If no pivot exists the row is redundant (all zeros); the
                // artificial stays basic at value 0 and is harmless as long
                // as its column never re-enters, which the cost filter below
                // ensures.
            }
        }
    }

    // --- Phase 2: minimize the real objective. ---
    let mut cost = vec![0.0; n];
    for j in 0..ncols {
        let cj = p.obj[j];
        if cj == 0.0 {
            continue;
        }
        match map[j] {
            ColMap::Shifted { col, .. } => cost[col] += cj,
            ColMap::Split { plus, minus } => {
                cost[plus] += cj;
                cost[minus] -= cj;
            }
            ColMap::Fixed { .. } => {}
        }
    }
    // Forbid artificials from re-entering.
    let art_start = nstruct + nslack;
    match run_simplex_restricted(&mut t, &cost, art_start, &mut iterations, budget)
        .map_err(SolveError::from)?
    {
        SimplexEnd::Optimal => {}
        SimplexEnd::Unbounded => {
            return Ok(WarmLpResult {
                outcome: LpOutcome::Unbounded,
                basis: export_basis(&t, &rev, nstruct),
                crash_pivots,
            })
        }
        SimplexEnd::Stalled if strict => {
            return Err(SolveError::Numerical(
                "phase-2 simplex stalled: pivot cap exhausted without convergence".into(),
            ))
        }
        SimplexEnd::Stalled => {} // legacy: accept the current vertex
    }

    // --- Extract structural values. ---
    let mut y = vec![0.0; n];
    for r in 0..m {
        y[t.basis[r]] = t.rhs[r];
    }
    let mut x = vec![0.0; ncols];
    let mut objective = 0.0;
    for j in 0..ncols {
        x[j] = match map[j] {
            ColMap::Shifted { col, lo } => lo + y[col],
            ColMap::Split { plus, minus } => y[plus] - y[minus],
            ColMap::Fixed { value } => value,
        };
        objective += p.obj[j] * x[j];
    }
    Ok(WarmLpResult {
        outcome: LpOutcome::Optimal(LpSolution {
            x,
            objective,
            iterations,
        }),
        basis: export_basis(&t, &rev, nstruct),
        crash_pivots,
    })
}

/// Maps the tableau's basic structural columns back to problem columns.
fn export_basis(t: &Tableau, rev: &[usize], nstruct: usize) -> LpBasis {
    let mut cols: Vec<usize> = t
        .basis
        .iter()
        .filter(|&&c| c < nstruct)
        .map(|&c| rev[c])
        .filter(|&j| j != usize::MAX)
        .collect();
    cols.sort_unstable();
    cols.dedup();
    LpBasis { cols }
}

enum SimplexEnd {
    Optimal,
    Unbounded,
    /// The pivot cap ran out before the reduced costs turned non-negative.
    Stalled,
}

fn run_simplex(
    t: &mut Tableau,
    cost: &[f64],
    iterations: &mut usize,
    budget: &Budget,
) -> Result<SimplexEnd, Exhaustion> {
    let n = t.n;
    run_simplex_restricted(t, cost, n, iterations, budget)
}

/// Simplex iterations with entering columns restricted to `0..col_limit`.
///
/// One budget tick is spent per pivot, so a tick cap bounds the work
/// deterministically and a fired cancel token stops the loop within one
/// check interval.
fn run_simplex_restricted(
    t: &mut Tableau,
    cost: &[f64],
    col_limit: usize,
    iterations: &mut usize,
    budget: &Budget,
) -> Result<SimplexEnd, Exhaustion> {
    let m = t.m;
    let n = t.n;
    let mut nz: Vec<usize> = Vec::new();
    // Reduced costs maintained as an explicit objective row.
    let mut z = cost.to_vec();
    for r in 0..m {
        let cb = cost[t.basis[r]];
        if cb != 0.0 {
            for c in 0..n {
                z[c] -= cb * t.at(r, c);
            }
        }
    }
    let mut degen_run = 0usize;
    let max_iter = 50 * (m + n).max(200);
    for _ in 0..max_iter {
        budget.tick()?;
        let bland = degen_run >= DEGEN_SWITCH;
        // Entering column.
        let mut pc = usize::MAX;
        if bland {
            for c in 0..col_limit {
                if z[c] < -FEAS_TOL {
                    pc = c;
                    break;
                }
            }
        } else {
            let mut best = -FEAS_TOL;
            for c in 0..col_limit {
                if z[c] < best {
                    best = z[c];
                    pc = c;
                }
            }
        }
        if pc == usize::MAX {
            return Ok(SimplexEnd::Optimal);
        }
        // Ratio test.
        let mut pr = usize::MAX;
        let mut best_ratio = f64::INFINITY;
        for r in 0..m {
            let a = t.at(r, pc);
            if a > PIVOT_TOL {
                let ratio = t.rhs[r] / a;
                if ratio < best_ratio - 1e-12
                    || (ratio < best_ratio + 1e-12
                        && (pr == usize::MAX || t.basis[r] < t.basis[pr]))
                {
                    best_ratio = ratio;
                    pr = r;
                }
            }
        }
        if pr == usize::MAX {
            return Ok(SimplexEnd::Unbounded);
        }
        if best_ratio.abs() <= 1e-12 {
            degen_run += 1;
        } else {
            degen_run = 0;
        }
        // Update the objective row, then pivot. The sweep skips the same
        // exact zeros in `z` that it skips in the tableau rows.
        let f = z[pc];
        t.pivot(pr, pc, &mut nz);
        if f != 0.0 {
            for &c in &nz {
                z[c] -= f * t.at(pr, c);
            }
            z[pc] = 0.0;
        }
        *iterations += 1;
    }
    // Pivot cap exhausted: extremely rare with the Bland fallback. The
    // caller decides whether to surface this as a numerical failure
    // (strict mode) or to accept the current vertex (legacy `solve_lp`,
    // where feasibility is re-verified regardless).
    Ok(SimplexEnd::Stalled)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lp(
        obj: Vec<f64>,
        rows: Vec<(Vec<(usize, f64)>, Sense, f64)>,
        lo: Vec<f64>,
        hi: Vec<f64>,
    ) -> LpProblem {
        LpProblem { obj, rows, lo, hi }
    }

    #[test]
    fn textbook_maximization() {
        // max 5x+4y s.t. 6x+4y<=24, x+2y<=6  -> x=3, y=1.5, obj 21
        let p = lp(
            vec![-5.0, -4.0],
            vec![
                (vec![(0, 6.0), (1, 4.0)], Sense::Le, 24.0),
                (vec![(0, 1.0), (1, 2.0)], Sense::Le, 6.0),
            ],
            vec![0.0, 0.0],
            vec![f64::INFINITY, f64::INFINITY],
        );
        let s = solve_lp(&p).optimal().expect("optimal");
        assert!((s.objective + 21.0).abs() < 1e-6);
        assert!((s.x[0] - 3.0).abs() < 1e-6);
        assert!((s.x[1] - 1.5).abs() < 1e-6);
    }

    #[test]
    fn equality_and_ge_rows() {
        // min x+y s.t. x+y = 4, x >= 1, y >= 1
        let p = lp(
            vec![1.0, 1.0],
            vec![(vec![(0, 1.0), (1, 1.0)], Sense::Eq, 4.0)],
            vec![1.0, 1.0],
            vec![f64::INFINITY, f64::INFINITY],
        );
        let s = solve_lp(&p).optimal().expect("optimal");
        assert!((s.objective - 4.0).abs() < 1e-6);
    }

    #[test]
    fn detects_infeasible() {
        // x <= 1 and x >= 2
        let p = lp(
            vec![0.0],
            vec![
                (vec![(0, 1.0)], Sense::Le, 1.0),
                (vec![(0, 1.0)], Sense::Ge, 2.0),
            ],
            vec![0.0],
            vec![f64::INFINITY],
        );
        assert!(matches!(solve_lp(&p), LpOutcome::Infeasible));
    }

    #[test]
    fn detects_unbounded() {
        // min -x, x >= 0, no upper limit
        let p = lp(vec![-1.0], vec![], vec![0.0], vec![f64::INFINITY]);
        assert!(matches!(solve_lp(&p), LpOutcome::Unbounded));
    }

    #[test]
    fn respects_upper_bounds() {
        // min -x, 0 <= x <= 7
        let p = lp(vec![-1.0], vec![], vec![0.0], vec![7.0]);
        let s = solve_lp(&p).optimal().expect("optimal");
        assert!((s.x[0] - 7.0).abs() < 1e-6);
    }

    #[test]
    fn free_variable_split() {
        // min x s.t. x >= -5 as a row (x itself free)
        let p = lp(
            vec![1.0],
            vec![(vec![(0, 1.0)], Sense::Ge, -5.0)],
            vec![f64::NEG_INFINITY],
            vec![f64::INFINITY],
        );
        let s = solve_lp(&p).optimal().expect("optimal");
        assert!((s.x[0] + 5.0).abs() < 1e-6);
    }

    #[test]
    fn fixed_variable_substituted() {
        // x fixed at 2; min y s.t. y >= x  -> y = 2
        let p = lp(
            vec![0.0, 1.0],
            vec![(vec![(1, 1.0), (0, -1.0)], Sense::Ge, 0.0)],
            vec![2.0, 0.0],
            vec![2.0, f64::INFINITY],
        );
        let s = solve_lp(&p).optimal().expect("optimal");
        assert!((s.x[1] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn crossed_bounds_infeasible() {
        let p = lp(vec![0.0], vec![], vec![3.0], vec![1.0]);
        assert!(matches!(solve_lp(&p), LpOutcome::Infeasible));
    }

    #[test]
    fn negative_rhs_row_normalized() {
        // min x s.t. -x <= -3  (i.e. x >= 3)
        let p = lp(
            vec![1.0],
            vec![(vec![(0, -1.0)], Sense::Le, -3.0)],
            vec![0.0],
            vec![f64::INFINITY],
        );
        let s = solve_lp(&p).optimal().expect("optimal");
        assert!((s.x[0] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn vacuous_violated_row_infeasible() {
        // 0 >= 1 after a fixed variable cancels out.
        let p = lp(
            vec![0.0],
            vec![(vec![(0, 1.0)], Sense::Ge, 3.0)],
            vec![2.0],
            vec![2.0],
        );
        assert!(matches!(solve_lp(&p), LpOutcome::Infeasible));
    }

    #[test]
    fn degenerate_cycling_guard() {
        // Beale's classic cycling example (with Dantzig rule it cycles
        // without anti-cycling); ensure we terminate at the optimum.
        let p = lp(
            vec![-0.75, 150.0, -0.02, 6.0],
            vec![
                (
                    vec![(0, 0.25), (1, -60.0), (2, -0.04), (3, 9.0)],
                    Sense::Le,
                    0.0,
                ),
                (
                    vec![(0, 0.5), (1, -90.0), (2, -0.02), (3, 3.0)],
                    Sense::Le,
                    0.0,
                ),
                (vec![(2, 1.0)], Sense::Le, 1.0),
            ],
            vec![0.0; 4],
            vec![f64::INFINITY; 4],
        );
        let s = solve_lp(&p).optimal().expect("optimal");
        assert!((s.objective + 0.05).abs() < 1e-6);
    }
}
