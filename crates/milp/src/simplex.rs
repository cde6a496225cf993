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
//! # Cost per pivot
//!
//! Scheduling tableaus are mostly zeros: each constraint touches a
//! handful of the `ops × slots` columns, and a typical pivot row holds
//! about a dozen nonzeros against hundreds of rows and columns. The
//! solver does work in proportion to those nonzeros wherever it can:
//!
//! * **Build in place.** A first pass over the sparse rows computes each
//!   row's shifted right-hand side, drops vacuous rows (a violated one
//!   makes the LP infeasible), and so fixes the slack and artificial
//!   counts. A second pass writes each coefficient, sign flip included,
//!   straight into the zeroed tableau; no dense copy of a row exists.
//! * **One workspace per search.** The tableau and every scratch list
//!   live in an `LpWorkspace` that branch-and-bound owns and reuses
//!   across its node LPs, so a node allocates nothing but its solution.
//!   The buffer grows with `try_reserve_exact` after a `checked_mul` of
//!   its dimensions: a tableau too large to hold is a
//!   [`SolveError::BadModel`], not an abort. The public `solve_lp*`
//!   functions make a fresh workspace per call.
//! * **Column-major storage.** Entry `(r, c)` sits at `a[c·m + r]`, so
//!   the entering column, which every pivot reads in full, is one
//!   contiguous run. The pivot row becomes the strided read; it is read
//!   once per pivot, to normalize it and list its nonzeros.
//! * **One column scan per pivot.** The ratio test, which must read the
//!   entering column anyway, records the rows with a nonzero in it; the
//!   pivot then eliminates only those rows, and only in the pivot row's
//!   nonzero columns.
//!
//! None of this changes the pivot sequence. Every entry still receives
//! the same floating-point operations in the same order; the storage
//! order only changes which entry is visited first, and no entry's
//! update reads another entry updated in the same pivot. Every update
//! the sparse sweeps skip is `x -= f · (±0.0)`, and a coefficient the
//! build does not write stays `+0.0` where a dense copy would have
//! written `±0.0`: both can change at most the sign of a zero. Every
//! decision in the solver is a comparison, and IEEE orders
//! `-0.0 == 0.0`, so the same pivots happen in the same order and every
//! nonzero value is bit-identical. `crates/core/tests/pivot_pin.rs`
//! pins the node and pivot counts this yields on the paper corpus.

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
    /// Eliminate only the entering column's nonzero rows, and in each
    /// only the pivot row's nonzero columns.
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

/// Where a tableau row comes from.
#[derive(Debug, Clone, Copy)]
enum RowSource {
    /// Row `i` of [`LpProblem::rows`].
    User(usize),
    /// The finite upper bound of problem column `j`.
    Upper(usize),
}

/// Number of `f64` entries in an `m × n` tableau, or
/// [`SolveError::BadModel`] naming the dimensions if it overflows.
fn tableau_len(m: usize, n: usize) -> Result<usize, SolveError> {
    m.checked_mul(n).ok_or_else(|| {
        SolveError::BadModel(format!("simplex tableau of {m}×{n} entries overflows"))
    })
}

/// Dense column-major tableau plus the scratch lists its pivots reuse.
#[derive(Debug, Default)]
struct Tableau {
    m: usize,
    n: usize, // columns excluding rhs
    /// Entry `(r, c)` at `a[c * m + r]`.
    a: Vec<f64>,
    rhs: Vec<f64>,
    basis: Vec<usize>,
    /// The pivot row's nonzero columns and their values, refilled by every
    /// pivot (and left holding them for the caller's reduced-cost update).
    nz: Vec<usize>,
    pv: Vec<f64>,
    /// The rows with a nonzero in the entering column, filled by the
    /// column scan that precedes every pivot, and their entries there.
    col: Vec<usize>,
    fv: Vec<f64>,
}

impl Tableau {
    /// Resizes to an all-zero `m × n` tableau with no basis, reusing the
    /// existing buffers.
    ///
    /// A buffer that must grow is reserved at the next power of two of
    /// its entry count. Only the first `m × n` entries are ever written,
    /// so the slack costs address space, not memory; in exchange the
    /// tableaus of successive searches fall into a few size classes and
    /// reuse each other's freed blocks instead of fragmenting the heap.
    fn reset(&mut self, m: usize, n: usize) -> Result<(), SolveError> {
        let len = tableau_len(m, n)?;
        self.a.clear();
        let class = len.checked_next_power_of_two().unwrap_or(len);
        self.a.try_reserve_exact(class).map_err(|_| {
            SolveError::BadModel(format!(
                "cannot allocate a simplex tableau of {m}×{n} entries"
            ))
        })?;
        self.a.resize(len, 0.0);
        self.rhs.clear();
        self.rhs.resize(m, 0.0);
        self.basis.clear();
        self.basis.resize(m, usize::MAX);
        self.m = m;
        self.n = n;
        Ok(())
    }

    fn at(&self, r: usize, c: usize) -> f64 {
        self.a[c * self.m + r]
    }

    /// Fills `col` with the rows whose entry in column `pc` is nonzero.
    fn scan_column(&mut self, pc: usize) {
        self.col.clear();
        for (r, &v) in self.a[pc * self.m..(pc + 1) * self.m].iter().enumerate() {
            if v != 0.0 {
                self.col.push(r);
            }
        }
    }

    /// Pivots on `(pr, pc)`. `col` must list the rows with a nonzero in
    /// column `pc` (see [`Tableau::scan_column`]); only those rows are
    /// eliminated, and only in the pivot row's nonzero columns, which are
    /// collected into `nz`. Every elimination this skips is
    /// `a[r][c] -= f * (±0.0)` — a value-level no-op — so the resulting
    /// tableau equals a full sweep's under every IEEE comparison (only
    /// signs of zeros may differ).
    fn pivot(&mut self, pr: usize, pc: usize) {
        let m = self.m;
        let inv = 1.0 / self.a[pc * m + pr];
        self.nz.clear();
        self.pv.clear();
        for (c, v) in self.a[pr..].iter_mut().step_by(m).enumerate() {
            if *v != 0.0 {
                *v *= inv;
                self.nz.push(c);
                self.pv.push(*v);
            }
        }
        self.rhs[pr] *= inv;
        let rhs_pr = self.rhs[pr];
        // The rows to eliminate and their multipliers `f = a[r][pc]`.
        if let Ok(i) = self.col.binary_search(&pr) {
            self.col.remove(i);
        }
        let entering = &self.a[pc * m..(pc + 1) * m];
        self.fv.clear();
        self.fv.extend(self.col.iter().map(|&r| entering[r]));
        for (&c, &v) in self.nz.iter().zip(&self.pv) {
            if c == pc {
                continue; // zeroed below
            }
            let column = &mut self.a[c * m..(c + 1) * m];
            for (&r, &f) in self.col.iter().zip(&self.fv) {
                column[r] -= f * v;
            }
        }
        for (&r, &f) in self.col.iter().zip(&self.fv) {
            self.a[pc * m + r] = 0.0; // exact zero to contain drift
            self.rhs[r] -= f * rhs_pr;
        }
        self.basis[pr] = pc;
    }
}

/// The buffers of an LP solve, reused across solves: the tableau, the
/// column map and the row plan. Branch-and-bound keeps one per search,
/// so its node LPs allocate nothing but their solutions.
#[derive(Debug, Default)]
pub(crate) struct LpWorkspace {
    t: Tableau,
    map: Vec<ColMap>,
    /// Tableau structural column → problem column (`usize::MAX` if none).
    rev: Vec<usize>,
    /// Kept rows in tableau order, with their shifted right-hand sides.
    rows: Vec<(RowSource, Sense, f64)>,
    /// Per-structural-column accumulator, all zeros between uses.
    acc: Vec<f64>,
    cost: Vec<f64>,
    /// Reduced costs, maintained as an explicit objective row.
    z: Vec<f64>,
    /// Pivots made by the last solve, whatever its outcome.
    pivots: usize,
}

impl LpWorkspace {
    /// Pivots made by the last solve, counted like
    /// [`LpSolution::iterations`] but also when the solve ended
    /// infeasible, unbounded, or interrupted by its budget.
    pub(crate) fn pivots(&self) -> usize {
        self.pivots
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
    // A fresh unlimited budget cannot trip, so the only possible errors
    // are an unallocatable tableau or the unreachable; Infeasible is the
    // safe fallback.
    solve_lp_impl(
        p,
        &Budget::unlimited(),
        false,
        None,
        &mut LpWorkspace::default(),
    )
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
///   convergence (a stall or cycling even Bland's rule did not resolve);
/// * [`SolveError::BadModel`] — the tableau is too large to allocate.
pub fn solve_lp_with(p: &LpProblem, budget: &Budget) -> Result<LpOutcome, SolveError> {
    solve_lp_in(p, budget, None, &mut LpWorkspace::default()).map(|r| r.outcome)
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
    solve_lp_in(p, budget, hint, &mut LpWorkspace::default())
}

/// [`solve_lp_warm`] in a caller-owned workspace; afterwards
/// [`LpWorkspace::pivots`] holds the pivots the solve made, also when it
/// returns an error.
pub(crate) fn solve_lp_in(
    p: &LpProblem,
    budget: &Budget,
    hint: Option<&LpBasis>,
    ws: &mut LpWorkspace,
) -> Result<WarmLpResult, SolveError> {
    solve_lp_impl(p, budget, true, hint, ws)
}

fn solve_lp_impl(
    p: &LpProblem,
    budget: &Budget,
    strict: bool,
    hint: Option<&LpBasis>,
    ws: &mut LpWorkspace,
) -> Result<WarmLpResult, SolveError> {
    ws.pivots = 0;
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
    let map = &mut ws.map;
    map.clear();
    let mut next = 0usize;
    for j in 0..ncols {
        let (lo, hi) = (p.lo[j], p.hi[j]);
        if lo == hi {
            map.push(ColMap::Fixed { value: lo });
        } else if lo.is_finite() {
            map.push(ColMap::Shifted { col: next, lo });
            next += 1;
        } else {
            // Free lower end (upper bound finite or not): split.
            map.push(ColMap::Split {
                plus: next,
                minus: next + 1,
            });
            next += 2;
        }
    }
    let nstruct = next;

    // --- Pass 1: plan the rows (user rows, then upper-bound rows). ---
    // Each kept row gets its shifted rhs; its coefficients are summed in
    // `acc` (then zeroed again) only to tell whether any survives.
    let rows = &mut ws.rows;
    rows.clear();
    let acc = &mut ws.acc;
    acc.clear();
    acc.resize(nstruct, 0.0);
    for (i, (terms, sense, rhs)) in p.rows.iter().enumerate() {
        let mut b = *rhs;
        for &(j, coeff) in terms {
            match map[j] {
                ColMap::Shifted { col, lo } => {
                    acc[col] += coeff;
                    b -= coeff * lo;
                }
                ColMap::Split { plus, minus } => {
                    acc[plus] += coeff;
                    acc[minus] -= coeff;
                }
                ColMap::Fixed { value } => b -= coeff * value,
            }
        }
        let mut vacuous = true;
        for &(j, _) in terms {
            let cols = match map[j] {
                ColMap::Shifted { col, .. } => [col, col],
                ColMap::Split { plus, minus } => [plus, minus],
                ColMap::Fixed { .. } => continue,
            };
            for c in cols {
                vacuous &= acc[c] == 0.0;
                acc[c] = 0.0;
            }
        }
        if !vacuous {
            rows.push((RowSource::User(i), *sense, b));
            continue;
        }
        // 0 {sense} b: a violated vacuous row makes the LP infeasible.
        let ok = match sense {
            Sense::Le => b >= -FEAS_TOL,
            Sense::Ge => b <= FEAS_TOL,
            Sense::Eq => b.abs() <= FEAS_TOL,
        };
        if !ok {
            return Ok(bare(LpOutcome::Infeasible));
        }
    }
    for j in 0..ncols {
        let hi = p.hi[j];
        if !hi.is_finite() {
            continue;
        }
        match map[j] {
            ColMap::Shifted { lo, .. } => rows.push((RowSource::Upper(j), Sense::Le, hi - lo)),
            ColMap::Split { .. } => rows.push((RowSource::Upper(j), Sense::Le, hi)),
            ColMap::Fixed { .. } => {}
        }
    }

    let m = rows.len();
    // Count slacks and artificials.
    let mut nslack = 0usize;
    let mut nart = 0usize;
    for &(_, sense, b) in rows.iter() {
        let bneg = b < 0.0;
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
    // Artificial columns are the contiguous range `art_start..n`.
    let art_start = nstruct + nslack;

    // --- Pass 2: write the rows straight into the zeroed tableau. ---
    let t = &mut ws.t;
    t.reset(m, n)?;
    let mut sc = nstruct; // next slack column
    let mut ac = art_start; // next artificial column
    for (r, &(source, sense, b)) in rows.iter().enumerate() {
        let neg = b < 0.0;
        let sgn = if neg { -1.0 } else { 1.0 };
        // Entry `(r, c)` of the column-major tableau.
        let at = |c: usize| c * m + r;
        let a = &mut t.a;
        match source {
            RowSource::User(i) => {
                for &(j, coeff) in &p.rows[i].0 {
                    match map[j] {
                        ColMap::Shifted { col, .. } => a[at(col)] += sgn * coeff,
                        ColMap::Split { plus, minus } => {
                            a[at(plus)] += sgn * coeff;
                            a[at(minus)] -= sgn * coeff;
                        }
                        ColMap::Fixed { .. } => {}
                    }
                }
            }
            RowSource::Upper(j) => match map[j] {
                ColMap::Shifted { col, .. } => a[at(col)] = sgn,
                ColMap::Split { plus, minus } => {
                    a[at(plus)] = sgn;
                    a[at(minus)] = -sgn;
                }
                ColMap::Fixed { .. } => {}
            },
        }
        t.rhs[r] = sgn * b;
        let eff_sense = match (sense, neg) {
            (Sense::Le, false) | (Sense::Ge, true) => Sense::Le,
            (Sense::Ge, false) | (Sense::Le, true) => Sense::Ge,
            (Sense::Eq, _) => Sense::Eq,
        };
        match eff_sense {
            Sense::Le => {
                a[at(sc)] = 1.0;
                t.basis[r] = sc;
                sc += 1;
            }
            Sense::Ge => {
                a[at(sc)] = -1.0;
                sc += 1;
                a[at(ac)] = 1.0;
                t.basis[r] = ac;
                ac += 1;
            }
            Sense::Eq => {
                a[at(ac)] = 1.0;
                t.basis[r] = ac;
                ac += 1;
            }
        }
    }

    // Reverse map: tableau structural column → problem column, used for
    // basis export and for applying a basis hint.
    let rev = &mut ws.rev;
    rev.clear();
    rev.resize(nstruct, usize::MAX);
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

    let iterations = &mut ws.pivots;
    let z = &mut ws.z;
    let mut crash_pivots = 0usize;

    // --- Crash the hinted basis in before phase 1. ---
    // Forced-entering pivots with the usual ratio test: the rhs stays
    // non-negative, so the tableau remains a valid phase-1 start no
    // matter how stale the hint is. On a good hint this drives the
    // artificials out up front and phase 1 terminates immediately.
    if let Some(hint) = hint {
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
            t.col.clear();
            for (r, &a) in t.a[pc * m..(pc + 1) * m].iter().enumerate() {
                if a != 0.0 {
                    t.col.push(r);
                }
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
            t.pivot(pr, pc);
            crash_pivots += 1;
            *iterations += 1;
        }
    }

    // --- Phase 1: minimize sum of artificials. ---
    let cost = &mut ws.cost;
    if nart > 0 {
        cost.clear();
        cost.resize(n, 0.0);
        cost[art_start..].fill(1.0);
        match run_simplex(t, cost, z, iterations, budget).map_err(SolveError::from)? {
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
            .filter(|(&b, _)| b >= art_start)
            .map(|(_, &v)| v)
            .sum();
        if phase1 > 1e-6 {
            // Infeasible, but the phase-1 terminal basis is still a
            // useful hint for the next (e.g. T+1) instance: export it.
            return Ok(WarmLpResult {
                outcome: LpOutcome::Infeasible,
                basis: export_basis(t, rev, nstruct),
                crash_pivots,
            });
        }
        // Drive remaining artificials out of the basis where possible.
        for r in 0..m {
            if t.basis[r] >= art_start {
                if let Some(pc) = (0..art_start).find(|&c| t.at(r, c).abs() > PIVOT_TOL) {
                    t.scan_column(pc);
                    t.pivot(r, pc);
                }
                // If no pivot exists the row is redundant (all zeros); the
                // artificial stays basic at value 0 and is harmless as long
                // as its column never re-enters, which the cost filter below
                // ensures.
            }
        }
    }

    // --- Phase 2: minimize the real objective. ---
    cost.clear();
    cost.resize(n, 0.0);
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
    match run_simplex_restricted(t, cost, z, art_start, iterations, budget)
        .map_err(SolveError::from)?
    {
        SimplexEnd::Optimal => {}
        SimplexEnd::Unbounded => {
            return Ok(WarmLpResult {
                outcome: LpOutcome::Unbounded,
                basis: export_basis(t, rev, nstruct),
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
    // `acc` is all zeros again after pass 1; it holds the basic values.
    let y = acc;
    for r in 0..m {
        if t.basis[r] < nstruct {
            y[t.basis[r]] = t.rhs[r];
        }
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
            iterations: *iterations,
        }),
        basis: export_basis(t, rev, nstruct),
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
    z: &mut Vec<f64>,
    iterations: &mut usize,
    budget: &Budget,
) -> Result<SimplexEnd, Exhaustion> {
    let n = t.n;
    run_simplex_restricted(t, cost, z, n, iterations, budget)
}

/// Simplex iterations with entering columns restricted to `0..col_limit`.
///
/// One budget tick is spent per pivot, so a tick cap bounds the work
/// deterministically and a fired cancel token stops the loop within one
/// check interval.
fn run_simplex_restricted(
    t: &mut Tableau,
    cost: &[f64],
    z: &mut Vec<f64>,
    col_limit: usize,
    iterations: &mut usize,
    budget: &Budget,
) -> Result<SimplexEnd, Exhaustion> {
    let m = t.m;
    let n = t.n;
    // Reduced costs: the cost row minus each basic row times its cost,
    // subtracted row by row in ascending order and skipping the exact
    // zeros (a no-op but for the sign of a zero). The `(row, cost)` pairs
    // borrow the column-scan scratch lists, free until the first pivot.
    z.clear();
    z.extend_from_slice(cost);
    t.col.clear();
    t.fv.clear();
    for r in 0..m {
        let cb = cost[t.basis[r]];
        if cb != 0.0 {
            t.col.push(r);
            t.fv.push(cb);
        }
    }
    if !t.col.is_empty() {
        for (c, zc) in z.iter_mut().enumerate() {
            let column = &t.a[c * m..(c + 1) * m];
            for (&r, &cb) in t.col.iter().zip(&t.fv) {
                let a = column[r];
                if a != 0.0 {
                    *zc -= cb * a;
                }
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
        // Ratio test, collecting the column's nonzero rows for the pivot.
        let mut pr = usize::MAX;
        let mut best_ratio = f64::INFINITY;
        t.col.clear();
        for (r, &a) in t.a[pc * m..(pc + 1) * m].iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            t.col.push(r);
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
        t.pivot(pr, pc);
        if f != 0.0 {
            for (&c, &v) in t.nz.iter().zip(&t.pv) {
                z[c] -= f * v;
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
    fn tableau_size_overflow_is_a_typed_error() {
        assert_eq!(tableau_len(386, 505), Ok(386 * 505));
        match tableau_len(usize::MAX, 2) {
            Err(SolveError::BadModel(msg)) => assert!(msg.contains('×'), "{msg}"),
            other => panic!("expected BadModel, got {other:?}"),
        }
        // The entry count fits in `usize` but its bytes do not: the
        // reservation fails and is reported instead of aborting.
        let mut t = Tableau::default();
        match t.reset(usize::MAX / 16, 4) {
            Err(SolveError::BadModel(msg)) => assert!(msg.contains("allocate"), "{msg}"),
            other => panic!("expected BadModel, got {other:?}"),
        }
    }

    #[test]
    fn reused_workspace_matches_fresh_solves() {
        // Shapes that grow, shrink and change sign pattern between solves.
        let problems = [
            lp(
                vec![-5.0, -4.0],
                vec![
                    (vec![(0, 6.0), (1, 4.0)], Sense::Le, 24.0),
                    (vec![(0, 1.0), (1, 2.0)], Sense::Le, 6.0),
                ],
                vec![0.0, 0.0],
                vec![f64::INFINITY, f64::INFINITY],
            ),
            lp(vec![-1.0], vec![], vec![0.0], vec![7.0]),
            lp(
                vec![1.0, 1.0, 0.0],
                vec![
                    (vec![(0, 1.0), (1, 1.0)], Sense::Eq, 4.0),
                    (vec![(2, -1.0), (0, 1.0)], Sense::Ge, -2.0),
                ],
                vec![1.0, 1.0, f64::NEG_INFINITY],
                vec![3.0, f64::INFINITY, 5.0],
            ),
            lp(
                vec![0.0],
                vec![
                    (vec![(0, 1.0)], Sense::Le, 1.0),
                    (vec![(0, 1.0)], Sense::Ge, 2.0),
                ],
                vec![0.0],
                vec![f64::INFINITY],
            ),
        ];
        let budget = Budget::unlimited();
        let mut ws = LpWorkspace::default();
        for p in problems.iter().chain(problems.iter().rev()) {
            let fresh = solve_lp_warm(p, &budget, None).expect("fresh solve");
            let reused = solve_lp_in(p, &budget, None, &mut ws).expect("reused solve");
            assert_eq!(format!("{fresh:?}"), format!("{reused:?}"));
            if let LpOutcome::Optimal(s) = &reused.outcome {
                assert_eq!(s.iterations, ws.pivots());
            }
        }
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
