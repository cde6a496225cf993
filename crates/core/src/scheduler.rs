//! The rate-optimal scheduling driver.
//!
//! Finding the minimum `T` is done exactly as in the paper's evaluation:
//! compute `T_lb = max(T_dep, T_res)`, then solve the unified ILP at
//! `T = T_lb, T_lb+1, …` until one is feasible. The first feasible period
//! is rate-optimal by construction (every smaller period is infeasible —
//! either proven by the ILP or excluded by the lower bound).
//!
//! # Budgets and graceful degradation
//!
//! [`RateOptimalScheduler::schedule_with`] threads a shared
//! [`swp_milp::Budget`] (wall-clock deadline, deterministic tick cap,
//! cooperative cancel token) through every engine: simplex pivots,
//! branch-and-bound nodes, and IMS placements all spend ticks from the
//! same pool. When the budget runs out mid-search the driver does not
//! error: it falls back to a best-effort heuristic schedule found under a
//! small fresh tick allowance and tags the result
//! [`Optimality::BudgetExhausted`], recording how far the exact refutation
//! got. Cancellation is different — a fired token means the caller wants
//! out *now*, so it surfaces as [`ScheduleError::Cancelled`].
//!
//! # Self-verification
//!
//! Every schedule — from the ILP or the heuristic — is re-checked by the
//! independent cycle-accurate checker ([`PipelinedSchedule::validate`])
//! before it leaves the driver. A rejected schedule triggers fallback to
//! the other engine; only if both fail does the driver return
//! [`ScheduleError::VerificationFailed`].

use crate::formulation::{self, FormulationOptions, MappingMode, Objective};
use crate::ScheduleError;
use std::sync::mpsc;
use std::time::Duration;
use swp_cpsat::{CpError, CpOptions, CpOutcome};
use swp_ddg::Ddg;
use swp_heuristics::{HeuristicError, IterativeModuloScheduler};
use swp_machine::{DataLayout, Machine, PipelinedSchedule, ValidationError};
use swp_milp::{Budget, Exhaustion, SearchOutcome, SearchStats, SolveError, SolveLimits};

/// Tick allowance for the best-effort heuristic pass that runs after the
/// main budget is exhausted. Ticks (one per IMS placement) rather than
/// wall-clock, so the grace pass works even when the deadline is already
/// past, and stays bounded deterministically.
const GRACE_TICKS: u64 = 200_000;

/// Test-only fault injection: forces failures at chosen pipeline stages
/// so the degradation paths can be exercised deterministically. All
/// fields default to `false` (no faults). Not part of the public API
/// contract.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Pretend the heuristic incumbent probe found nothing.
    pub fail_heuristic_incumbent: bool,
    /// Pretend every ILP solve failed numerically
    /// ([`SolveError::Numerical`]).
    pub fail_ilp: bool,
    /// Treat every ILP-produced schedule as failing verification.
    pub reject_ilp_schedule: bool,
    /// Treat every heuristic-produced schedule as failing verification.
    pub reject_heuristic_schedule: bool,
    /// Pretend the global budget is already exhausted before the first
    /// candidate period.
    pub expire_before_search: bool,
    /// Pretend the global budget expires right before the ILP stage of
    /// the first attempted period.
    pub expire_before_ilp: bool,
    /// Panic inside the driver before the first candidate period —
    /// exercises crash isolation (`catch_unwind` supervision) in
    /// embedders like the `swpd` daemon without corrupting any engine
    /// state: the panic fires before any solver structure is built.
    pub panic_in_solver: bool,
}

/// How structural-conflict queries are answered in the IMS slot probe,
/// branch-and-bound, and schedule verification. Reservation-table scans
/// are the only mode; the enum is kept because the benchmark under
/// `schedbench/` names it. The CP engine reads its propagation tables
/// from `swp-automata` regardless of this setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConflictOracleMode {
    /// Reservation-table cell scans everywhere.
    #[default]
    Scan,
}

/// Which exact engine settles each candidate period (after the optional
/// IMS incumbent probe, which is engine-independent).
///
/// The CP backend implements the unified-coloring feasibility problem
/// only; under [`MappingMode::CapacityOnly`] or a non-`Feasible`
/// [`Objective`] the driver transparently uses the ILP regardless of
/// this setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The unified ILP (simplex + branch-and-bound). The seed behaviour.
    #[default]
    Ilp,
    /// The constraint-propagation backend (`swp-cpsat`): offset/color
    /// search with interval, capacity, and hazard-automaton propagators
    /// plus no-good recording. Proven-exact, decision-equivalent to the
    /// ILP.
    Cp,
    /// Race both exact engines on isolated slices of the per-period
    /// budget; the first proven answer (feasible schedule or exact
    /// refutation) wins and cancels the loser. Per-period win/loss
    /// telemetry lands in [`PeriodAttempt::race`] and [`SolverStats`].
    Portfolio,
}

/// Configuration for [`RateOptimalScheduler`].
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// How mapping is handled (default: the paper's unified coloring).
    pub mapping: MappingMode,
    /// Objective at each fixed `T` (default: pure feasibility).
    pub objective: Objective,
    /// ILP budget per candidate period (default 10 s).
    pub time_limit_per_t: Option<Duration>,
    /// Wall-clock budget for the *whole* search across all candidate
    /// periods (default: none). When it runs out, the driver returns the
    /// best schedule it can still certify, tagged
    /// [`Optimality::BudgetExhausted`]. For tick caps or cancellation use
    /// [`RateOptimalScheduler::schedule_with`] directly.
    pub time_limit_total: Option<Duration>,
    /// Give up after `T_lb + max_t_above_lb` (default 16).
    pub max_t_above_lb: u32,
    /// Prune rotation and color-permutation symmetry (default on).
    pub symmetry_breaking: bool,
    /// Use the exact class-packing capacity to refine `T_res` and reject
    /// impossible periods before solving (default on; ablatable).
    pub packing_bound: bool,
    /// Try iterative modulo scheduling at each candidate period before
    /// the ILP (default on). A heuristic schedule at `T` is a feasibility
    /// certificate, so rate-optimality is unaffected: every smaller
    /// period has still been refuted exactly. Turn off to measure pure
    /// ILP behaviour (Table 5).
    pub heuristic_incumbent: bool,
    /// Conflict-query engine. [`ConflictOracleMode::Scan`] is its only
    /// value; the field is kept because the benchmark under
    /// `schedbench/` checks it.
    pub conflict_oracle: ConflictOracleMode,
    /// Which exact engine settles each candidate period (default: the
    /// ILP). See [`Engine`].
    pub engine: Engine,
    /// Carry warm hints (simplex basis, CP no-goods, schedule hints)
    /// across the `T`-sweep and across solves sharing a [`WarmState`]
    /// (default on). Hints are re-validated before use and can never
    /// change a verdict; turn off for a strictly cold, hint-free solve —
    /// the pre-warm-start behaviour, byte for byte.
    pub warm_sweep: bool,
    /// Cell layout of the reservation-table hot paths — the IMS modulo
    /// reservation table and the independent collision checker.
    /// [`DataLayout::Flat`] is its only value; the field is kept because
    /// the benchmark under `schedbench/` checks it.
    pub data_layout: DataLayout,
    /// Register-pressure cap (default: none). When set, every engine —
    /// ILP rows, CP propagation, the IMS incumbent probe — bounds the
    /// number of simultaneously live values per pattern residue by this
    /// limit, and the independent checker re-verifies it
    /// ([`PipelinedSchedule::validate_pressure`]). Refutations at a
    /// period are then refutations *under the cap*: a tighter cap can
    /// only raise the proven-optimal `T`.
    pub max_live: Option<u32>,
    /// Test-only fault injection; leave at `Default::default()`.
    #[doc(hidden)]
    pub faults: FaultPlan,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            mapping: MappingMode::default(),
            objective: Objective::default(),
            time_limit_per_t: Some(Duration::from_secs(10)),
            time_limit_total: None,
            max_t_above_lb: 16,
            symmetry_breaking: true,
            packing_bound: true,
            heuristic_incumbent: true,
            conflict_oracle: ConflictOracleMode::default(),
            engine: Engine::default(),
            warm_sweep: true,
            data_layout: DataLayout::default(),
            max_live: None,
            faults: FaultPlan::default(),
        }
    }
}

/// Which engine settled a candidate period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolvedBy {
    /// The unified ILP.
    Ilp,
    /// The constraint-propagation backend (`swp-cpsat`).
    Cp,
    /// The iterative-modulo-scheduling certificate (see
    /// [`SchedulerConfig::heuristic_incumbent`]).
    Heuristic,
}

/// One of the two exact engines in a portfolio race.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaceEngine {
    /// The unified ILP.
    Ilp,
    /// The constraint-propagation backend.
    Cp,
}

/// What happened in one portfolio race (attached to the attempt of the
/// raced period).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaceReport {
    /// The engine whose proven answer settled the period first, or
    /// `None` when neither produced one (both exhausted or failed).
    pub winner: Option<RaceEngine>,
    /// Whether the losing engine was stopped by the winner's
    /// cancellation (as opposed to finishing — or failing — on its own
    /// before the cancel landed).
    pub loser_cancelled: bool,
    /// Ticks the ILP racer spent on its isolated budget slice.
    pub ilp_ticks: u64,
    /// Ticks the CP racer spent on its isolated budget slice.
    pub cp_ticks: u64,
}

/// Outcome of one candidate period.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PeriodOutcome {
    /// A schedule was found (and passed the independent re-check).
    Feasible(SolvedBy),
    /// An exact engine (the ILP or the CP backend) proved no schedule
    /// exists at this period.
    Infeasible,
    /// Rejected before solving (modulo constraint / self-loop test).
    RejectedAtBuild,
    /// The time, node, or tick budget ran out undecided.
    TimedOut,
    /// The ILP failed numerically at this period (simplex stall); the
    /// period stays undecided unless the heuristic certifies it.
    EngineFailed,
}

/// Statistics for one candidate period.
#[derive(Debug, Clone, PartialEq)]
pub struct PeriodAttempt {
    /// The candidate period.
    pub period: u32,
    /// What happened.
    pub outcome: PeriodOutcome,
    /// Search nodes explored: branch-and-bound nodes for the ILP, search
    /// nodes for the CP backend.
    pub nodes: u64,
    /// Simplex iterations across the search.
    pub lp_iterations: u64,
    /// Wall-clock spent on this period.
    pub elapsed: Duration,
    /// Variables in the ILP (0 if rejected at build or settled by CP).
    pub num_vars: usize,
    /// Constraints in the ILP (0 if rejected at build or settled by CP).
    pub num_constrs: usize,
    /// Portfolio-race telemetry (`None` outside portfolio mode).
    pub race: Option<RaceReport>,
}

/// Aggregated solver-effort statistics over a per-period attempt log —
/// the telemetry exported per loop by the corpus-execution harness.
///
/// Built with [`SolverStats::from_attempts`], which works for both the
/// success path ([`ScheduleResult::solver_stats`]) and the failure path
/// (the `attempts` carried by [`ScheduleError::NotFound`]).
///
/// [`ScheduleError::NotFound`]: crate::ScheduleError::NotFound
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Simplex iterations (pivots) across all attempted periods.
    pub lp_iterations: u64,
    /// Search nodes across all attempted periods: ILP branch-and-bound
    /// nodes plus CP search nodes.
    pub bb_nodes: u64,
    /// Candidate periods attempted (including build-time rejections).
    pub periods_attempted: u32,
    /// Periods settled feasible by the unified ILP.
    pub ilp_feasible: u32,
    /// Periods settled feasible by the CP backend.
    pub cp_feasible: u32,
    /// Periods settled feasible by the IMS certificate.
    pub heuristic_feasible: u32,
    /// Periods proven infeasible (exact refutations by the ILP or the CP
    /// backend, or rejections at formulation build time).
    pub refuted: u32,
    /// Periods left undecided by a time/tick budget trip.
    pub timeouts: u32,
    /// Periods on which the exact engine failed numerically.
    pub engine_failures: u32,
    /// Portfolio races run (periods attempted in portfolio mode).
    pub races: u32,
    /// Races the CP backend settled first.
    pub race_cp_wins: u32,
    /// Races the ILP settled first.
    pub race_ilp_wins: u32,
    /// Races neither engine settled (both exhausted or failed).
    pub race_undecided: u32,
    /// Races whose losing engine was stopped by cancellation.
    pub race_losers_cancelled: u32,
}

impl SolverStats {
    /// Aggregates an attempt log.
    pub fn from_attempts(attempts: &[PeriodAttempt]) -> SolverStats {
        let mut s = SolverStats {
            periods_attempted: attempts.len() as u32,
            ..SolverStats::default()
        };
        for a in attempts {
            s.lp_iterations += a.lp_iterations;
            s.bb_nodes += a.nodes;
            match a.outcome {
                PeriodOutcome::Feasible(SolvedBy::Ilp) => s.ilp_feasible += 1,
                PeriodOutcome::Feasible(SolvedBy::Cp) => s.cp_feasible += 1,
                PeriodOutcome::Feasible(SolvedBy::Heuristic) => s.heuristic_feasible += 1,
                PeriodOutcome::Infeasible | PeriodOutcome::RejectedAtBuild => s.refuted += 1,
                PeriodOutcome::TimedOut => s.timeouts += 1,
                PeriodOutcome::EngineFailed => s.engine_failures += 1,
            }
            if let Some(r) = a.race {
                s.races += 1;
                match r.winner {
                    Some(RaceEngine::Cp) => s.race_cp_wins += 1,
                    Some(RaceEngine::Ilp) => s.race_ilp_wins += 1,
                    None => s.race_undecided += 1,
                }
                if r.loser_cancelled {
                    s.race_losers_cancelled += 1;
                }
            }
        }
        s
    }

    /// Whether any attempted period was left undecided by a budget trip.
    pub fn any_timeout(&self) -> bool {
        self.timeouts > 0
    }
}

/// How strong the optimality claim on a [`ScheduleResult`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Optimality {
    /// Every period below the achieved one was proven infeasible: the
    /// achieved period is the exact optimum.
    Proven,
    /// The budget ran out before every smaller period could be refuted.
    BudgetExhausted {
        /// The smallest candidate period whose refutation is missing.
        /// Every period below it *was* proven infeasible, so the true
        /// optimal period lies in
        /// `smallest_refuted ..= schedule.initiation_interval()`.
        smallest_refuted: u32,
    },
}

impl Optimality {
    /// Whether the achieved period is proven exactly optimal.
    pub fn is_proven(&self) -> bool {
        matches!(self, Optimality::Proven)
    }
}

/// Telemetry for warm-started solving: what a [`WarmState`] actually
/// bought across a sweep (and, at the session layer, across edits).
///
/// Counters are cumulative over the life of the `WarmState`; callers
/// snapshot-and-diff per solve. All reuse is *hint-shaped* — it can
/// change effort counters, never verdicts — except `periods_skipped`,
/// which relies on the caller's proof obligations (see
/// [`WarmState::start_at`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReuseStats {
    /// Root LPs that were crash-started from a carried simplex basis.
    pub basis_hits: u64,
    /// Root bases exported for the next solve.
    pub basis_exports: u64,
    /// CP no-good clauses replayed from the carried store.
    pub nogood_replays: u64,
    /// IMS probes settled by validating the carried schedule hint.
    pub ims_hint_hits: u64,
    /// Sweep periods skipped because the caller carried their proven
    /// refutations across ([`WarmState::start_at`]).
    pub periods_skipped: u64,
    /// Whole solves answered by replaying a fingerprint-identical cached
    /// result (filled by the session layer, not this driver).
    pub replays: u64,
    /// Total size of dependency cones invalidated by edits (filled by
    /// the session layer, not this driver).
    pub cone_nodes: u64,
}

impl ReuseStats {
    /// Merges `other` into `self` (all counters are additive).
    pub fn absorb(&mut self, other: &ReuseStats) {
        self.basis_hits += other.basis_hits;
        self.basis_exports += other.basis_exports;
        self.nogood_replays += other.nogood_replays;
        self.ims_hint_hits += other.ims_hint_hits;
        self.periods_skipped += other.periods_skipped;
        self.replays += other.replays;
        self.cone_nodes += other.cone_nodes;
    }
}

/// Cross-solve state for warm-started sweeps, owned by the caller (an
/// incremental session, or the harness's per-loop sweep) and threaded
/// through [`RateOptimalScheduler::schedule_with_warm`].
///
/// Everything here is a **hint** except `start_at`: bases and schedule
/// hints are re-validated (crash ratio test, cycle-accurate checker)
/// before use, and CP no-goods are replayed only under the period match
/// the store enforces itself, so a stale `WarmState` can cost extra work
/// but never change a verdict. `start_at` is the one trusted field — it
/// skips sweep periods outright, and the caller must only set it from
/// refutations it has proven (or carried monotonically) for the *exact*
/// instance being solved.
#[derive(Default)]
pub struct WarmState {
    /// Simplex basis from the previous root relaxation, keyed by
    /// variable name so it survives the `T → T+1` model re-build.
    pub basis_names: Option<Vec<String>>,
    /// Last known-good schedule, used to seed the IMS incumbent probe
    /// and re-validated by the checker before it counts.
    pub ims_hint: Option<PipelinedSchedule>,
    /// CP no-good store; self-flushes when the period changes. The
    /// caller must [`clear`](swp_cpsat::NoGoodStore::clear) it on any
    /// non-tightening edit.
    pub nogoods: swp_cpsat::NoGoodStore,
    /// First period the sweep should attempt; every period in
    /// `t_lb..start_at` is treated as already refuted. Trusted — see the
    /// type docs.
    pub start_at: Option<u32>,
    /// Cumulative reuse telemetry.
    pub reuse: ReuseStats,
}

impl WarmState {
    /// A fresh, empty warm state (identical behaviour to a cold solve).
    pub fn new() -> Self {
        Self::default()
    }
}

/// A schedule together with how it was found.
#[derive(Debug, Clone)]
pub struct ScheduleResult {
    /// The schedule (always re-checked by the cycle-accurate checker).
    pub schedule: PipelinedSchedule,
    /// Recurrence bound `T_dep`.
    pub t_dep: u32,
    /// Resource bound `T_res`.
    pub t_res: u32,
    /// Per-period solve log, in the order attempted.
    pub attempts: Vec<PeriodAttempt>,
    /// Whether the achieved period is proven optimal or budget-limited.
    pub optimality: Optimality,
}

impl ScheduleResult {
    /// Combined lower bound `max(T_dep, T_res)`.
    pub fn t_lb(&self) -> u32 {
        self.t_dep.max(self.t_res)
    }

    /// `T − T_lb`: zero means provably rate-optimal.
    pub fn slack_above_lb(&self) -> u32 {
        self.schedule.initiation_interval() - self.t_lb()
    }

    /// Whether the achieved period equals the lower bound.
    pub fn is_rate_optimal(&self) -> bool {
        self.slack_above_lb() == 0
    }

    /// Whether every smaller period was refuted (see [`Optimality`]).
    pub fn is_proven_optimal(&self) -> bool {
        self.optimality.is_proven()
    }

    /// Total search nodes over all attempted periods (ILP
    /// branch-and-bound nodes plus CP search nodes).
    pub fn total_nodes(&self) -> u64 {
        self.attempts.iter().map(|a| a.nodes).sum()
    }

    /// Total simplex iterations over all attempted periods.
    pub fn total_lp_iterations(&self) -> u64 {
        self.attempts.iter().map(|a| a.lp_iterations).sum()
    }

    /// Aggregated solver-effort telemetry over the attempt log.
    pub fn solver_stats(&self) -> SolverStats {
        SolverStats::from_attempts(&self.attempts)
    }

    /// Engine that produced the final schedule (the last feasible
    /// attempt), defaulting to the ILP for legacy logs without one.
    pub fn solved_by(&self) -> SolvedBy {
        self.attempts
            .iter()
            .rev()
            .find_map(|a| match a.outcome {
                PeriodOutcome::Feasible(s) => Some(s),
                _ => None,
            })
            .unwrap_or(SolvedBy::Ilp)
    }

    /// Total wall-clock over all attempted periods.
    pub fn total_elapsed(&self) -> Duration {
        self.attempts.iter().map(|a| a.elapsed).sum()
    }
}

/// What one exact engine concluded about one candidate period, before
/// the driver turns it into an attempt-log entry (and possibly a
/// fallback). Normalizing both engines onto this type is what lets the
/// ILP path, the CP path, and the portfolio race share one settlement
/// routine.
enum ExactVerdict {
    /// A candidate schedule (not yet re-verified by the checker).
    Feasible {
        starts: Vec<u32>,
        units: Vec<Option<u32>>,
        nodes: u64,
        lp_iterations: u64,
        num_vars: usize,
        num_constrs: usize,
    },
    /// Proven infeasible; `at_build` means rejected before any search.
    Refuted {
        at_build: bool,
        nodes: u64,
        lp_iterations: u64,
        num_vars: usize,
        num_constrs: usize,
    },
    /// The per-period budget ran out undecided, after this much search.
    Limit {
        nodes: u64,
        lp_iterations: u64,
        num_vars: usize,
        num_constrs: usize,
    },
    /// The cancel token fired mid-solve.
    Cancelled,
    /// The engine failed on this instance (numerical stall, or a colored
    /// class too wide for the CP backend's 64-bit unit domains).
    Failed { num_vars: usize, num_constrs: usize },
    /// A hard error to propagate to the caller.
    Error(ScheduleError),
}

/// What one candidate period contributed to the search.
enum PeriodResult {
    /// A verified schedule.
    Schedule(PipelinedSchedule),
    /// Proven infeasible (exact refutation).
    Refuted,
    /// Ran out of per-period budget (or failed numerically) undecided.
    Undecided,
    /// The *global* budget is exhausted; stop probing periods.
    BudgetExhausted,
}

/// Schedules loops at the fastest feasible initiation rate using the
/// paper's unified ILP.
///
/// ```
/// use swp_core::{RateOptimalScheduler, SchedulerConfig};
/// use swp_ddg::{Ddg, OpClass};
/// use swp_machine::Machine;
///
/// # fn main() -> Result<(), swp_core::ScheduleError> {
/// let mut g = Ddg::new();
/// let ld = g.add_node("load", OpClass::new(2), 3);
/// let fm = g.add_node("fmul", OpClass::new(1), 2);
/// g.add_edge(ld, fm, 0).unwrap();
///
/// let sched = RateOptimalScheduler::new(Machine::example_pldi95(), SchedulerConfig::default())
///     .schedule(&g)?;
/// assert!(sched.optimality.is_proven());
/// assert!(sched.schedule.validate(&g, &Machine::example_pldi95()).is_ok());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RateOptimalScheduler {
    machine: Machine,
    config: SchedulerConfig,
}

impl RateOptimalScheduler {
    /// Creates a scheduler for `machine` under `config`.
    pub fn new(machine: Machine, config: SchedulerConfig) -> Self {
        RateOptimalScheduler { machine, config }
    }

    /// The machine this scheduler targets.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The configuration this scheduler runs under.
    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }

    /// An IMS instance honouring the configured register-pressure cap.
    fn ims(&self) -> IterativeModuloScheduler {
        IterativeModuloScheduler::new(self.machine.clone()).with_max_live(self.config.max_live)
    }

    /// Finds a schedule at the smallest feasible period `≥ T_lb`, under a
    /// global budget derived from
    /// [`SchedulerConfig::time_limit_total`] (unlimited if `None`).
    ///
    /// # Errors
    ///
    /// * [`ScheduleError::NoFinitePeriod`] — zero-distance cycle;
    /// * [`ScheduleError::UnknownClass`] — DDG/machine mismatch;
    /// * [`ScheduleError::NotFound`] — every period up to the configured
    ///   cap was infeasible or timed out (the attempts log tells which)
    ///   and no best-effort schedule exists either;
    /// * [`ScheduleError::VerificationFailed`] — both engines produced
    ///   only schedules the independent checker rejected.
    pub fn schedule(&self, ddg: &Ddg) -> Result<ScheduleResult, ScheduleError> {
        let budget = match self.config.time_limit_total {
            Some(d) => Budget::with_deadline(d),
            None => Budget::unlimited(),
        };
        self.schedule_with(ddg, &budget)
    }

    /// Like [`schedule`](Self::schedule), but under an explicit shared
    /// [`Budget`] — deadline, deterministic tick cap, and a cancel token
    /// that stops all engines within one check interval.
    ///
    /// On budget exhaustion (deadline or ticks) the driver degrades
    /// gracefully: it returns the best heuristic schedule it can still
    /// find and certify, tagged [`Optimality::BudgetExhausted`].
    /// Cancellation instead returns [`ScheduleError::Cancelled`].
    ///
    /// # Errors
    ///
    /// Everything [`schedule`](Self::schedule) lists, plus
    /// [`ScheduleError::Cancelled`].
    pub fn schedule_with(
        &self,
        ddg: &Ddg,
        budget: &Budget,
    ) -> Result<ScheduleResult, ScheduleError> {
        // A scratch warm state makes this exactly the cold path: no
        // hints, no skips, byte-identical behaviour to before warm
        // starting existed.
        self.schedule_with_warm(ddg, budget, &mut WarmState::new())
    }

    /// [`Self::schedule_with`] threaded through a caller-owned
    /// [`WarmState`]: the sweep crash-starts each root LP from the basis
    /// the previous period exported, seeds the IMS incumbent probe with
    /// the carried schedule hint, replays CP no-goods where the store
    /// permits, and (when the caller proved it) skips already-refuted
    /// periods. On success the schedule is written back into
    /// [`WarmState::ims_hint`] for the caller's next solve.
    ///
    /// Warm hooks apply to the [`Engine::Ilp`] and [`Engine::Cp`] paths;
    /// a [`Engine::Portfolio`] race runs its arms cold (the race's
    /// wall-clock nondeterminism would otherwise leak into which hints
    /// get consumed), still benefiting from the hint-fed incumbent probe.
    ///
    /// # Errors
    ///
    /// As [`Self::schedule_with`].
    pub fn schedule_with_warm(
        &self,
        ddg: &Ddg,
        budget: &Budget,
        warm: &mut WarmState,
    ) -> Result<ScheduleResult, ScheduleError> {
        if self.config.faults.panic_in_solver {
            panic!("injected fault: panic_in_solver");
        }
        let t_dep = ddg.t_dep().ok_or(ScheduleError::NoFinitePeriod)?;
        let t_res = match (self.config.mapping, self.config.packing_bound) {
            // Fixed-assignment problem: counting bound, optionally
            // strengthened by the exact packing capacity.
            (MappingMode::UnifiedColoring, true) => self.machine.t_res(ddg),
            (MappingMode::UnifiedColoring, false) => self.machine.t_res_counting(ddg),
            // Run-time unit choice: instances may rotate across units, so
            // only pure stage-demand counting is a valid bound.
            (MappingMode::CapacityOnly, _) => self.machine.t_res_capacity(ddg),
        }
        .map_err(|e| match e {
            swp_machine::MachineError::UnknownClass(c) => ScheduleError::UnknownClass(c),
            swp_machine::MachineError::NoUnits(n) => ScheduleError::BadMachine(n),
            swp_machine::MachineError::BadBundle(why) => ScheduleError::BadMachine(why),
        })?;
        let t_lb = t_dep.max(t_res);
        let t_max = t_lb + self.config.max_t_above_lb;
        let mut attempts = Vec::new();
        // Carried refutations: the caller vouches for `t_lb..start`, so
        // the sweep begins there and those periods count as refuted.
        let start = if self.config.warm_sweep {
            warm.start_at
                .map_or(t_lb, |s| s.clamp(t_lb, t_max.saturating_add(1)))
        } else {
            t_lb
        };
        warm.reuse.periods_skipped += u64::from(start - t_lb);
        // Periods in `t_lb..first_unrefuted` are proven infeasible.
        let mut first_unrefuted = start;
        let mut budget_hit = self.config.faults.expire_before_search;

        if !budget_hit {
            for period in start..=t_max {
                match budget.check() {
                    Ok(()) => {}
                    Err(Exhaustion::Cancelled) => return Err(ScheduleError::Cancelled),
                    Err(_) => {
                        budget_hit = true;
                        break;
                    }
                }
                match self.try_period(ddg, period, budget, &mut attempts, warm)? {
                    PeriodResult::Schedule(schedule) => {
                        let optimality = if first_unrefuted == period {
                            Optimality::Proven
                        } else {
                            Optimality::BudgetExhausted {
                                smallest_refuted: first_unrefuted,
                            }
                        };
                        warm.ims_hint = Some(schedule.clone());
                        return Ok(ScheduleResult {
                            schedule,
                            t_dep,
                            t_res,
                            attempts,
                            optimality,
                        });
                    }
                    PeriodResult::Refuted => {
                        if first_unrefuted == period {
                            first_unrefuted = period + 1;
                        }
                    }
                    PeriodResult::Undecided => {}
                    PeriodResult::BudgetExhausted => {
                        budget_hit = true;
                        break;
                    }
                }
            }
        }

        if let Err(Exhaustion::Cancelled) = budget.check() {
            return Err(ScheduleError::Cancelled);
        }
        if budget_hit {
            // Graceful degradation: best-effort heuristic schedule under a
            // fresh tick-capped grace allowance (the dead wall-clock
            // deadline must not also kill the fallback).
            return self.degrade(ddg, t_dep, t_res, t_lb, t_max, first_unrefuted, attempts);
        }
        Err(ScheduleError::NotFound {
            t_lb,
            t_max,
            attempts,
        })
    }

    /// The post-exhaustion fallback: IMS under [`GRACE_TICKS`], verified
    /// by the independent checker, tagged budget-exhausted.
    fn degrade(
        &self,
        ddg: &Ddg,
        t_dep: u32,
        t_res: u32,
        t_lb: u32,
        t_max: u32,
        first_unrefuted: u32,
        mut attempts: Vec<PeriodAttempt>,
    ) -> Result<ScheduleResult, ScheduleError> {
        let started = std::time::Instant::now();
        let grace = Budget::with_tick_limit(GRACE_TICKS);
        let ims = self.ims();
        match ims.schedule_with(ddg, &grace) {
            Ok(res) => {
                let period = res.schedule.initiation_interval();
                match self.verify(&res.schedule, ddg, SolvedBy::Heuristic) {
                    Ok(()) => {
                        attempts.push(PeriodAttempt {
                            period,
                            outcome: PeriodOutcome::Feasible(SolvedBy::Heuristic),
                            nodes: 0,
                            lp_iterations: 0,
                            elapsed: started.elapsed(),
                            num_vars: 0,
                            num_constrs: 0,
                            race: None,
                        });
                        Ok(ScheduleResult {
                            schedule: res.schedule,
                            t_dep,
                            t_res,
                            attempts,
                            optimality: Optimality::BudgetExhausted {
                                smallest_refuted: first_unrefuted,
                            },
                        })
                    }
                    Err(error) => Err(ScheduleError::VerificationFailed {
                        period,
                        engine: SolvedBy::Heuristic,
                        error,
                    }),
                }
            }
            Err(HeuristicError::Cancelled) => Err(ScheduleError::Cancelled),
            Err(_) => Err(ScheduleError::NotFound {
                t_lb,
                t_max,
                attempts,
            }),
        }
    }

    /// Independent re-check of a candidate schedule (with fault hooks).
    fn verify(
        &self,
        schedule: &PipelinedSchedule,
        ddg: &Ddg,
        engine: SolvedBy,
    ) -> Result<(), ValidationError> {
        let injected = match engine {
            SolvedBy::Ilp => self.config.faults.reject_ilp_schedule,
            SolvedBy::Cp => false,
            SolvedBy::Heuristic => self.config.faults.reject_heuristic_schedule,
        };
        if injected {
            // A synthetic, clearly-impossible violation.
            return Err(ValidationError::WrongArity {
                schedule: usize::MAX,
                ddg: ddg.num_nodes(),
            });
        }
        schedule.validate(ddg, &self.machine)?;
        if let Some(limit) = self.config.max_live {
            schedule.validate_pressure(ddg, limit)?;
        }
        Ok(())
    }

    /// Attempts exactly one period under a per-period slice of `budget`.
    fn try_period(
        &self,
        ddg: &Ddg,
        period: u32,
        budget: &Budget,
        attempts: &mut Vec<PeriodAttempt>,
        warm: &mut WarmState,
    ) -> Result<PeriodResult, ScheduleError> {
        let started = std::time::Instant::now();
        let period_budget = budget.restrict(self.config.time_limit_per_t, None);
        let ims = self.ims();

        // The heuristic produces *mapped* schedules; under CapacityOnly
        // the point is to study the capacity-only ILP, so skip it there.
        if self.config.heuristic_incumbent
            && self.config.mapping == MappingMode::UnifiedColoring
            && !self.config.faults.fail_heuristic_incumbent
        {
            let hint = if self.config.warm_sweep {
                warm.ims_hint.as_ref()
            } else {
                None
            };
            match ims.schedule_at_with_hint(ddg, period, &period_budget, hint) {
                Ok(Some(schedule)) => {
                    if hint == Some(&schedule) {
                        warm.reuse.ims_hint_hits += 1;
                    }
                    if self.verify(&schedule, ddg, SolvedBy::Heuristic).is_ok() {
                        attempts.push(PeriodAttempt {
                            period,
                            outcome: PeriodOutcome::Feasible(SolvedBy::Heuristic),
                            nodes: 0,
                            lp_iterations: 0,
                            elapsed: started.elapsed(),
                            num_vars: 0,
                            num_constrs: 0,
                            race: None,
                        });
                        return Ok(PeriodResult::Schedule(schedule));
                    }
                    // Checker rejected the heuristic schedule: fall through
                    // to the other engine (the ILP) at this same period.
                }
                Ok(None) => {}
                Err(HeuristicError::Cancelled) => return Err(ScheduleError::Cancelled),
                Err(_) => {
                    // Per-period (or global) budget died inside the probe.
                    attempts.push(PeriodAttempt {
                        period,
                        outcome: PeriodOutcome::TimedOut,
                        nodes: 0,
                        lp_iterations: 0,
                        elapsed: started.elapsed(),
                        num_vars: 0,
                        num_constrs: 0,
                        race: None,
                    });
                    return Ok(if budget.check().is_err() {
                        PeriodResult::BudgetExhausted
                    } else {
                        PeriodResult::Undecided
                    });
                }
            }
        }

        if self.config.faults.expire_before_ilp {
            attempts.push(PeriodAttempt {
                period,
                outcome: PeriodOutcome::TimedOut,
                nodes: 0,
                lp_iterations: 0,
                elapsed: started.elapsed(),
                num_vars: 0,
                num_constrs: 0,
                race: None,
            });
            return Ok(PeriodResult::BudgetExhausted);
        }

        // A strictly cold solve never threads the warm state into the
        // engines: no basis carry-over, no no-good replay, even within
        // one sweep.
        let hot = self.config.warm_sweep;
        match self.effective_engine() {
            Engine::Ilp => {
                let verdict =
                    self.run_ilp_exact(ddg, period, &period_budget, hot.then_some(&mut *warm));
                self.settle_exact(
                    ddg,
                    period,
                    verdict,
                    SolvedBy::Ilp,
                    None,
                    budget,
                    &period_budget,
                    attempts,
                    started,
                )
            }
            Engine::Cp => {
                // The CP backend cannot color classes wider than its
                // 64-bit unit domains; on such instances fall back to the
                // ILP for this period instead of reporting engine failure.
                let (verdict, engine) =
                    match self.run_cp_exact(ddg, period, &period_budget, hot.then_some(&mut *warm))
                    {
                        ExactVerdict::Failed { .. } => (
                            self.run_ilp_exact(
                                ddg,
                                period,
                                &period_budget,
                                hot.then_some(&mut *warm),
                            ),
                            SolvedBy::Ilp,
                        ),
                        v => (v, SolvedBy::Cp),
                    };
                self.settle_exact(
                    ddg,
                    period,
                    verdict,
                    engine,
                    None,
                    budget,
                    &period_budget,
                    attempts,
                    started,
                )
            }
            Engine::Portfolio => {
                let (verdict, engine, race) = self.race_period(ddg, period, budget, &period_budget);
                self.settle_exact(
                    ddg,
                    period,
                    verdict,
                    engine,
                    Some(race),
                    budget,
                    &period_budget,
                    attempts,
                    started,
                )
            }
        }
    }

    /// The engine that will actually settle periods: the CP backend
    /// implements the unified-coloring feasibility problem only, so any
    /// other mapping mode or objective forces the ILP regardless of
    /// [`SchedulerConfig::engine`].
    fn effective_engine(&self) -> Engine {
        if self.config.mapping != MappingMode::UnifiedColoring
            || self.config.objective != Objective::Feasible
        {
            Engine::Ilp
        } else {
            self.config.engine
        }
    }

    /// Runs the unified ILP at `period` under `period_budget` and
    /// normalizes the outcome. Pushes no attempt-log entry — that is
    /// [`Self::settle_exact`]'s job, so race losers never pollute the log.
    fn run_ilp_exact(
        &self,
        ddg: &Ddg,
        period: u32,
        period_budget: &Budget,
        warm: Option<&mut WarmState>,
    ) -> ExactVerdict {
        let f = match formulation::build_with(
            ddg,
            &self.machine,
            period,
            FormulationOptions {
                mapping: self.config.mapping,
                objective: self.config.objective,
                symmetry_breaking: self.config.symmetry_breaking,
                packing_bound: self.config.packing_bound,
                max_live: self.config.max_live,
                ..FormulationOptions::standard()
            },
            period_budget,
        ) {
            Ok(f) => f,
            Err(ScheduleError::PeriodInfeasible { .. }) => {
                return ExactVerdict::Refuted {
                    at_build: true,
                    nodes: 0,
                    lp_iterations: 0,
                    num_vars: 0,
                    num_constrs: 0,
                }
            }
            Err(ScheduleError::Cancelled) => return ExactVerdict::Cancelled,
            Err(e) => return ExactVerdict::Error(e),
        };
        let mut warm = warm;
        let mut limits = SolveLimits {
            time_limit: self.config.time_limit_per_t,
            budget: period_budget.clone(),
            ..SolveLimits::default()
        };
        if self.config.objective == Objective::Feasible {
            limits.stop_at_first_incumbent = true;
        }
        if let Some(w) = warm.as_deref_mut() {
            if let Some(names) = &w.basis_names {
                let hint = f.model.basis_from_names(names);
                if !hint.is_empty() {
                    w.reuse.basis_hits += 1;
                    limits.warm_basis = Some(hint);
                }
            }
        }
        let (num_vars, num_constrs) = (f.model.num_vars(), f.model.num_constrs());
        let SearchOutcome {
            result: solved,
            stats,
            root_basis,
        } = if self.config.faults.fail_ilp {
            SearchOutcome {
                result: Err(SolveError::Numerical("injected fault".into())),
                stats: SearchStats::default(),
                root_basis: None,
            }
        } else {
            f.model.solve_with_stats(&limits)
        };
        if let Some(w) = warm.as_deref_mut() {
            // The basis is exported even off the infeasible path: refuted
            // periods are exactly where the `T+1` crash start pays.
            if let Some(b) = root_basis.filter(|b| !b.is_empty()) {
                w.basis_names = Some(f.model.basis_to_names(&b));
                w.reuse.basis_exports += 1;
            }
        }
        match solved {
            Ok(sol) => {
                let (starts, units) = f.extract(&sol);
                ExactVerdict::Feasible {
                    starts,
                    units,
                    nodes: stats.nodes,
                    lp_iterations: stats.lp_iterations,
                    num_vars,
                    num_constrs,
                }
            }
            Err(SolveError::Infeasible) => ExactVerdict::Refuted {
                at_build: false,
                nodes: stats.nodes,
                lp_iterations: stats.lp_iterations,
                num_vars,
                num_constrs,
            },
            Err(SolveError::LimitReached(_)) => ExactVerdict::Limit {
                nodes: stats.nodes,
                lp_iterations: stats.lp_iterations,
                num_vars,
                num_constrs,
            },
            Err(SolveError::Cancelled) => ExactVerdict::Cancelled,
            Err(SolveError::Numerical(_)) => ExactVerdict::Failed {
                num_vars,
                num_constrs,
            },
            Err(e) => ExactVerdict::Error(ScheduleError::Solver(e)),
        }
    }

    /// Runs the CP backend at `period` under `period_budget` and
    /// normalizes the outcome onto the same verdict type as the ILP.
    fn run_cp_exact(
        &self,
        ddg: &Ddg,
        period: u32,
        period_budget: &Budget,
        warm: Option<&mut WarmState>,
    ) -> ExactVerdict {
        let opts = CpOptions {
            symmetry_breaking: self.config.symmetry_breaking,
            packing_bound: self.config.packing_bound,
            max_live: self.config.max_live,
        };
        // Strictly cold solves (`warm_sweep` off) and race arms run with a
        // throwaway store. For a race arm, which clauses a loser learned
        // depends on wall-clock interleaving, and persisting them would
        // leak race nondeterminism into the next warm solve.
        let mut scratch = swp_cpsat::NoGoodStore::default();
        let (store, reuse) = match warm {
            Some(w) => (&mut w.nogoods, Some(&mut w.reuse)),
            None => (&mut scratch, None),
        };
        let solved =
            swp_cpsat::solve_at_warm(ddg, &self.machine, period, opts, period_budget, store);
        if let (Some(reuse), Ok((_, stats))) = (reuse, &solved) {
            reuse.nogood_replays += stats.nogoods_replayed;
        }
        match solved {
            Ok((CpOutcome::Feasible { starts, units }, stats)) => ExactVerdict::Feasible {
                starts,
                units,
                nodes: stats.nodes,
                lp_iterations: 0,
                num_vars: 0,
                num_constrs: 0,
            },
            Ok((CpOutcome::Infeasible, stats)) => ExactVerdict::Refuted {
                at_build: false,
                nodes: stats.nodes,
                lp_iterations: 0,
                num_vars: 0,
                num_constrs: 0,
            },
            Err(CpError::Exhausted(Exhaustion::Cancelled)) => ExactVerdict::Cancelled,
            Err(CpError::Exhausted(_)) => ExactVerdict::Limit {
                nodes: 0,
                lp_iterations: 0,
                num_vars: 0,
                num_constrs: 0,
            },
            Err(CpError::UnknownClass(c)) => ExactVerdict::Error(ScheduleError::UnknownClass(c)),
            Err(CpError::TooManyUnits { .. }) => ExactVerdict::Failed {
                num_vars: 0,
                num_constrs: 0,
            },
        }
    }

    /// Races the ILP and the CP backend on isolated slices of
    /// `period_budget`. The first engine with a proven answer (feasible
    /// schedule or exact refutation) wins and cancels the other via its
    /// private cancel token. Race ticks are spent on the isolated slices
    /// only, never the shared pool — a loser's progress depends on
    /// wall-clock interleaving, so letting it drain the caller's tick
    /// budget would destroy the sweep's tick-level determinism.
    fn race_period(
        &self,
        ddg: &Ddg,
        period: u32,
        budget: &Budget,
        period_budget: &Budget,
    ) -> (ExactVerdict, SolvedBy, RaceReport) {
        let (ilp_budget, ilp_token) = period_budget.fork_racer();
        let (cp_budget, cp_token) = period_budget.fork_racer();
        let (tx, rx) = mpsc::channel();
        let mut ilp_done: Option<(ExactVerdict, u64)> = None;
        let mut cp_done: Option<(ExactVerdict, u64)> = None;
        let mut winner: Option<RaceEngine> = None;
        std::thread::scope(|scope| {
            // CP is spawned first deliberately: on a single-core host the
            // run queue is roughly FIFO, and the CP arm — typically
            // microseconds on this corpus — finishing before the ILP arm
            // is even scheduled turns the race into "CP time plus two
            // context switches" instead of an OS scheduling quantum.
            // With more cores the order is irrelevant.
            let cp_tx = tx.clone();
            let cp_budget = &cp_budget;
            scope.spawn(move || {
                let v = self.run_cp_exact(ddg, period, cp_budget, None);
                let _ = cp_tx.send((RaceEngine::Cp, v, cp_budget.ticks_used()));
            });
            let ilp_budget = &ilp_budget;
            scope.spawn(move || {
                let v = self.run_ilp_exact(ddg, period, ilp_budget, None);
                let _ = tx.send((RaceEngine::Ilp, v, ilp_budget.ticks_used()));
            });
            let mut received = 0;
            while received < 2 {
                match rx.recv_timeout(Duration::from_millis(2)) {
                    Ok((engine, verdict, ticks)) => {
                        received += 1;
                        let decisive = matches!(
                            verdict,
                            ExactVerdict::Feasible { .. } | ExactVerdict::Refuted { .. }
                        );
                        if decisive && winner.is_none() {
                            winner = Some(engine);
                            match engine {
                                RaceEngine::Ilp => cp_token.cancel(),
                                RaceEngine::Cp => ilp_token.cancel(),
                            }
                        }
                        match engine {
                            RaceEngine::Ilp => ilp_done = Some((verdict, ticks)),
                            RaceEngine::Cp => cp_done = Some((verdict, ticks)),
                        }
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        // Forward the caller's cancellation into both
                        // racers. Deadline death needs no forwarding: the
                        // forked slices carry the parent deadline.
                        if matches!(budget.check(), Err(Exhaustion::Cancelled)) {
                            ilp_token.cancel();
                            cp_token.cancel();
                        }
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                }
            }
        });
        let (ilp_verdict, ilp_ticks) = ilp_done.unwrap_or((ExactVerdict::Cancelled, 0));
        let (cp_verdict, cp_ticks) = cp_done.unwrap_or((ExactVerdict::Cancelled, 0));
        let loser_cancelled = match winner {
            Some(RaceEngine::Ilp) => matches!(cp_verdict, ExactVerdict::Cancelled),
            Some(RaceEngine::Cp) => matches!(ilp_verdict, ExactVerdict::Cancelled),
            None => false,
        };
        let report = RaceReport {
            winner,
            loser_cancelled,
            ilp_ticks,
            cp_ticks,
        };
        match winner {
            Some(RaceEngine::Ilp) => (ilp_verdict, SolvedBy::Ilp, report),
            Some(RaceEngine::Cp) => (cp_verdict, SolvedBy::Cp, report),
            None => {
                // Neither engine proved anything. Hard errors propagate
                // (the ILP's takes precedence); a cancelled racer with no
                // winner means either the caller's token fired (surface
                // it) or a forwarded budget death (undecided timeout);
                // two failures stay a failure; otherwise the slice limits
                // tripped.
                let verdict = match (ilp_verdict, cp_verdict) {
                    (v @ ExactVerdict::Error(_), _) => v,
                    (_, v @ ExactVerdict::Error(_)) => v,
                    (ExactVerdict::Cancelled, _) | (_, ExactVerdict::Cancelled) => {
                        if matches!(budget.check(), Err(Exhaustion::Cancelled)) {
                            ExactVerdict::Cancelled
                        } else {
                            ExactVerdict::Limit {
                                nodes: 0,
                                lp_iterations: 0,
                                num_vars: 0,
                                num_constrs: 0,
                            }
                        }
                    }
                    (ExactVerdict::Failed { .. }, v @ ExactVerdict::Failed { .. }) => v,
                    (v @ ExactVerdict::Limit { .. }, _) | (_, v @ ExactVerdict::Limit { .. }) => v,
                    (v, _) => v,
                };
                (verdict, SolvedBy::Ilp, report)
            }
        }
    }

    /// Converts an exact-engine verdict into an attempt-log entry and a
    /// [`PeriodResult`], running the shared verification and fallback
    /// paths. All three engine modes settle through here, so degradation
    /// behaviour is identical regardless of which engine answered.
    #[allow(clippy::too_many_arguments)]
    fn settle_exact(
        &self,
        ddg: &Ddg,
        period: u32,
        verdict: ExactVerdict,
        engine: SolvedBy,
        race: Option<RaceReport>,
        budget: &Budget,
        period_budget: &Budget,
        attempts: &mut Vec<PeriodAttempt>,
        started: std::time::Instant,
    ) -> Result<PeriodResult, ScheduleError> {
        match verdict {
            ExactVerdict::Feasible {
                starts,
                units,
                nodes,
                lp_iterations,
                num_vars,
                num_constrs,
            } => {
                let assignment = self.complete_assignment(ddg, period, &starts, &units)?;
                let schedule = PipelinedSchedule::new(period, starts, assignment);
                match self.verify(&schedule, ddg, engine) {
                    Ok(()) => {
                        attempts.push(PeriodAttempt {
                            period,
                            outcome: PeriodOutcome::Feasible(engine),
                            nodes,
                            lp_iterations,
                            elapsed: started.elapsed(),
                            num_vars,
                            num_constrs,
                            race,
                        });
                        Ok(PeriodResult::Schedule(schedule))
                    }
                    Err(error) => {
                        // Checker rejected the exact schedule: fall back
                        // to the heuristic at this same period.
                        match self.heuristic_fallback(ddg, period, period_budget, attempts, started)
                        {
                            Some(result) => result,
                            None => Err(ScheduleError::VerificationFailed {
                                period,
                                engine,
                                error,
                            }),
                        }
                    }
                }
            }
            ExactVerdict::Refuted {
                at_build,
                nodes,
                lp_iterations,
                num_vars,
                num_constrs,
            } => {
                attempts.push(PeriodAttempt {
                    period,
                    outcome: if at_build {
                        PeriodOutcome::RejectedAtBuild
                    } else {
                        PeriodOutcome::Infeasible
                    },
                    nodes,
                    lp_iterations,
                    elapsed: started.elapsed(),
                    num_vars,
                    num_constrs,
                    race,
                });
                Ok(PeriodResult::Refuted)
            }
            ExactVerdict::Limit {
                nodes,
                lp_iterations,
                num_vars,
                num_constrs,
            } => {
                attempts.push(PeriodAttempt {
                    period,
                    outcome: PeriodOutcome::TimedOut,
                    nodes,
                    lp_iterations,
                    elapsed: started.elapsed(),
                    num_vars,
                    num_constrs,
                    race,
                });
                Ok(if budget.check().is_err() {
                    PeriodResult::BudgetExhausted
                } else {
                    PeriodResult::Undecided
                })
            }
            ExactVerdict::Cancelled => Err(ScheduleError::Cancelled),
            ExactVerdict::Failed {
                num_vars,
                num_constrs,
            } => {
                attempts.push(PeriodAttempt {
                    period,
                    outcome: PeriodOutcome::EngineFailed,
                    nodes: 0,
                    lp_iterations: 0,
                    elapsed: started.elapsed(),
                    num_vars,
                    num_constrs,
                    race,
                });
                // The exact engine lost traction: degrade to the heuristic
                // at this period. Its success is a certificate; its failure
                // proves nothing, so the period stays undecided.
                match self.heuristic_fallback(ddg, period, period_budget, attempts, started) {
                    Some(result) => result,
                    None => Ok(PeriodResult::Undecided),
                }
            }
            ExactVerdict::Error(e) => Err(e),
        }
    }

    /// Runs IMS at `period` as the fallback engine and verifies the
    /// result. `None` means no certified fallback schedule exists.
    #[allow(clippy::type_complexity)]
    fn heuristic_fallback(
        &self,
        ddg: &Ddg,
        period: u32,
        period_budget: &Budget,
        attempts: &mut Vec<PeriodAttempt>,
        started: std::time::Instant,
    ) -> Option<Result<PeriodResult, ScheduleError>> {
        let ims = self.ims();
        match ims.schedule_at_with(ddg, period, period_budget) {
            Ok(Some(schedule)) => {
                if self.verify(&schedule, ddg, SolvedBy::Heuristic).is_ok() {
                    attempts.push(PeriodAttempt {
                        period,
                        outcome: PeriodOutcome::Feasible(SolvedBy::Heuristic),
                        nodes: 0,
                        lp_iterations: 0,
                        elapsed: started.elapsed(),
                        num_vars: 0,
                        num_constrs: 0,
                        race: None,
                    });
                    Some(Ok(PeriodResult::Schedule(schedule)))
                } else {
                    None
                }
            }
            Ok(None) => None,
            Err(HeuristicError::Cancelled) => Some(Err(ScheduleError::Cancelled)),
            Err(_) => None,
        }
    }

    /// Fills unit assignments: colored nodes take their color; classes
    /// without coloring variables are mapped first-fit per class (always
    /// possible for clean or single-unit classes given capacity holds;
    /// under [`MappingMode::CapacityOnly`] first-fit may fail, and the
    /// schedule is returned unmapped — exactly the gap the paper closes).
    fn complete_assignment(
        &self,
        ddg: &Ddg,
        period: u32,
        starts: &[u32],
        colors: &[Option<u32>],
    ) -> Result<Vec<Option<u32>>, ScheduleError> {
        use std::collections::HashMap;
        let mut assignment: Vec<Option<u32>> = colors.to_vec();
        // usage: (class, fu, stage, residue) occupied?
        let mut usage: HashMap<(usize, u32, usize, u32), ()> = HashMap::new();
        // Commit colored nodes first.
        for (id, node) in ddg.nodes() {
            if let Some(fu) = assignment[id.index()] {
                let rt = &self
                    .machine
                    .fu_type(node.class)
                    .map_err(|_| ScheduleError::UnknownClass(node.class))?
                    .reservation;
                for s in 0..rt.stages() {
                    for l in rt.stage_offsets(s) {
                        let residue = (starts[id.index()] + l as u32) % period;
                        usage.insert((node.class.index(), fu, s, residue), ());
                    }
                }
            }
        }
        // First-fit the rest.
        for (id, node) in ddg.nodes() {
            if assignment[id.index()].is_some() {
                continue;
            }
            let fu_type = self
                .machine
                .fu_type(node.class)
                .map_err(|_| ScheduleError::UnknownClass(node.class))?;
            let rt = &fu_type.reservation;
            let mut chosen = None;
            'fu: for fu in 0..fu_type.count {
                for s in 0..rt.stages() {
                    for l in rt.stage_offsets(s) {
                        let residue = (starts[id.index()] + l as u32) % period;
                        if usage.contains_key(&(node.class.index(), fu, s, residue)) {
                            continue 'fu;
                        }
                    }
                }
                chosen = Some(fu);
                break;
            }
            if let Some(fu) = chosen {
                for s in 0..rt.stages() {
                    for l in rt.stage_offsets(s) {
                        let residue = (starts[id.index()] + l as u32) % period;
                        usage.insert((node.class.index(), fu, s, residue), ());
                    }
                }
                assignment[id.index()] = Some(fu);
            } else if self.config.mapping == MappingMode::UnifiedColoring {
                // Should be impossible: coloring covered every class that
                // could fail first-fit.
                return Err(ScheduleError::MappingGap { node: id, period });
            }
            // CapacityOnly: leave unmapped; caller sees is_mapped() == false.
        }
        Ok(assignment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swp_ddg::OpClass;
    use swp_milp::CancelToken;

    /// A small FP loop with a recurrence on the hazard machine.
    fn fp_loop() -> Ddg {
        let mut g = Ddg::new();
        let ld = g.add_node("load", OpClass::new(2), 3);
        let m1 = g.add_node("fmul", OpClass::new(1), 2);
        let a1 = g.add_node("fadd", OpClass::new(1), 2);
        let st = g.add_node("store", OpClass::new(2), 3);
        g.add_edge(ld, m1, 0).unwrap();
        g.add_edge(m1, a1, 0).unwrap();
        g.add_edge(a1, st, 0).unwrap();
        g.add_edge(a1, a1, 1).unwrap(); // accumulator: T_dep = 2
        g
    }

    #[test]
    fn schedules_at_lower_bound_on_hazard_machine() {
        let machine = Machine::example_pldi95();
        let s = RateOptimalScheduler::new(machine.clone(), SchedulerConfig::default())
            .schedule(&fp_loop())
            .expect("schedulable");
        assert_eq!(s.t_dep, 2);
        assert!(
            s.is_rate_optimal(),
            "expected T = T_lb, got slack {}",
            s.slack_above_lb()
        );
        assert!(s.is_proven_optimal());
        assert!(s.schedule.is_mapped());
        assert_eq!(s.schedule.validate(&fp_loop(), &machine), Ok(()));
    }

    #[test]
    fn capacity_only_schedule_validates_capacity() {
        let machine = Machine::example_pldi95();
        let cfg = SchedulerConfig {
            mapping: MappingMode::CapacityOnly,
            ..Default::default()
        };
        let s = RateOptimalScheduler::new(machine.clone(), cfg)
            .schedule(&fp_loop())
            .expect("schedulable");
        assert_eq!(s.schedule.validate(&fp_loop(), &machine), Ok(()));
    }

    #[test]
    fn reports_bounds_and_attempts() {
        let machine = Machine::example_pldi95();
        let s = RateOptimalScheduler::new(machine, SchedulerConfig::default())
            .schedule(&fp_loop())
            .expect("schedulable");
        assert!(!s.attempts.is_empty());
        assert!(matches!(
            s.attempts.last().map(|a| a.outcome.clone()),
            Some(PeriodOutcome::Feasible(_))
        ));
        assert_eq!(s.t_lb(), s.t_dep.max(s.t_res));
    }

    #[test]
    fn solver_stats_aggregate_the_attempt_log() {
        let machine = Machine::example_pldi95();
        let s = RateOptimalScheduler::new(machine, SchedulerConfig::default())
            .schedule(&fp_loop())
            .expect("schedulable");
        let stats = s.solver_stats();
        assert_eq!(stats.periods_attempted, s.attempts.len() as u32);
        assert_eq!(stats.bb_nodes, s.total_nodes());
        assert_eq!(stats.lp_iterations, s.total_lp_iterations());
        assert_eq!(stats.ilp_feasible + stats.heuristic_feasible, 1);
        assert!(!stats.any_timeout());
        // The final feasible attempt names the producing engine.
        match s.attempts.last().map(|a| a.outcome.clone()) {
            Some(PeriodOutcome::Feasible(e)) => assert_eq!(s.solved_by(), e),
            other => panic!("last attempt not feasible: {other:?}"),
        }
    }

    #[test]
    fn vliw_bundle_agrees_across_exact_engines() {
        // example_vliw: issue width 2, "mem" slot (class 2) capped at 1
        // per cycle. fp_loop has two mem ops, so any period must keep
        // them at distinct residues; both exact engines must agree on
        // the proven-optimal T and their witnesses must validate.
        let machine = Machine::example_vliw();
        let g = fp_loop();
        let mut proven = Vec::new();
        for engine in [Engine::Ilp, Engine::Cp] {
            let cfg = SchedulerConfig {
                engine,
                ..Default::default()
            };
            let s = RateOptimalScheduler::new(machine.clone(), cfg)
                .schedule(&g)
                .expect("schedulable on the VLIW machine");
            assert!(s.is_proven_optimal(), "{engine:?} should prove optimality");
            assert_eq!(s.schedule.validate(&g, &machine), Ok(()));
            proven.push(s.schedule.initiation_interval());
        }
        assert_eq!(proven[0], proven[1], "ILP and CP disagree on VLIW T");
    }

    #[test]
    fn pressure_cap_agrees_across_exact_engines() {
        // a (latency 3, FP) -> b: uncapped the chain schedules at T=1,
        // where the value of `a` spans 3 periods (pressure 3). A cap of
        // 1 forces T up to 3 with b exactly one period after a. Both
        // exact engines must land on the same proven T and emit
        // cap-compliant witnesses.
        let machine = Machine::example_clean();
        let mut g = Ddg::new();
        let a = g.add_node("a", OpClass::new(1), 3);
        let b = g.add_node("b", OpClass::new(1), 1);
        g.add_edge(a, b, 0).unwrap();
        let uncapped = RateOptimalScheduler::new(machine.clone(), SchedulerConfig::default())
            .schedule(&g)
            .expect("uncapped");
        assert!(uncapped.schedule.max_live(&g) > 1);
        let mut proven = Vec::new();
        for engine in [Engine::Ilp, Engine::Cp] {
            let cfg = SchedulerConfig {
                engine,
                max_live: Some(1),
                ..Default::default()
            };
            let s = RateOptimalScheduler::new(machine.clone(), cfg)
                .schedule(&g)
                .expect("schedulable under the cap");
            assert!(s.is_proven_optimal());
            assert_eq!(s.schedule.validate_pressure(&g, 1), Ok(()));
            assert!(
                s.schedule.initiation_interval() > uncapped.schedule.initiation_interval(),
                "the cap must cost some period"
            );
            proven.push(s.schedule.initiation_interval());
        }
        assert_eq!(proven[0], proven[1], "ILP and CP disagree under the cap");
    }

    #[test]
    fn zero_distance_cycle_is_an_error() {
        let mut g = Ddg::new();
        let a = g.add_node("a", OpClass::new(1), 2);
        let b = g.add_node("b", OpClass::new(1), 2);
        g.add_edge(a, b, 0).unwrap();
        g.add_edge(b, a, 0).unwrap();
        let err = RateOptimalScheduler::new(Machine::example_pldi95(), SchedulerConfig::default())
            .schedule(&g)
            .unwrap_err();
        assert!(matches!(err, ScheduleError::NoFinitePeriod));
    }

    #[test]
    fn min_start_times_objective_compacts() {
        let machine = Machine::example_clean();
        let cfg = SchedulerConfig {
            objective: Objective::MinStartTimes,
            ..Default::default()
        };
        let s = RateOptimalScheduler::new(machine.clone(), cfg)
            .schedule(&fp_loop())
            .expect("schedulable");
        // Chain lengths: ld@0, fmul@3, fadd@5, store@7 is the compact optimum.
        assert_eq!(s.schedule.start_times(), &[0, 3, 5, 7]);
    }

    #[test]
    fn non_pipelined_machine_raises_t() {
        // 3 FP ops on 2 non-pipelined lat-2 units: T_res = ceil(6/2)... the
        // fp_loop has 2 FP ops -> ceil(4/2) = 2; with recurrence T_dep = 2.
        let machine = Machine::example_non_pipelined();
        let s = RateOptimalScheduler::new(machine.clone(), SchedulerConfig::default())
            .schedule(&fp_loop())
            .expect("schedulable");
        assert!(s.schedule.initiation_interval() >= 2);
        assert_eq!(s.schedule.validate(&fp_loop(), &machine), Ok(()));
    }

    #[test]
    fn exhausted_budget_still_returns_verified_schedule() {
        let machine = Machine::example_pldi95();
        let g = fp_loop();
        let s = RateOptimalScheduler::new(machine.clone(), SchedulerConfig::default())
            .schedule_with(&g, &Budget::with_tick_limit(0))
            .expect("degrades, not errors");
        assert!(matches!(s.optimality, Optimality::BudgetExhausted { .. }));
        assert_eq!(s.schedule.validate(&g, &machine), Ok(()));
    }

    #[test]
    fn cancellation_is_an_error_not_a_schedule() {
        let budget = Budget::unlimited();
        budget.cancel_token().cancel();
        let err = RateOptimalScheduler::new(Machine::example_pldi95(), SchedulerConfig::default())
            .schedule_with(&fp_loop(), &budget)
            .unwrap_err();
        assert!(matches!(err, ScheduleError::Cancelled));
        // The token handle type is exported for callers.
        let _t: CancelToken = budget.cancel_token();
    }

    #[test]
    fn cp_engine_agrees_with_ilp_on_proven_results() {
        // The CP backend must be decision-equivalent to the ILP: same
        // first feasible period, same proven-optimality claim, and the
        // same feasible/refuted shape of the attempt log (refutation
        // *kind* may differ: the CP backend folds build-time rejections
        // into Infeasible).
        for machine in [
            Machine::example_pldi95(),
            Machine::example_clean(),
            Machine::example_non_pipelined(),
        ] {
            let g = fp_loop();
            let base = SchedulerConfig {
                heuristic_incumbent: false,
                ..Default::default()
            };
            let ilp = RateOptimalScheduler::new(machine.clone(), base.clone())
                .schedule(&g)
                .expect("ilp schedulable");
            let cp = RateOptimalScheduler::new(
                machine.clone(),
                SchedulerConfig {
                    engine: Engine::Cp,
                    ..base
                },
            )
            .schedule(&g)
            .expect("cp schedulable");
            assert_eq!(
                ilp.schedule.initiation_interval(),
                cp.schedule.initiation_interval(),
                "machine {machine:?}"
            );
            assert!(cp.is_proven_optimal());
            assert_eq!(cp.schedule.validate(&g, &machine), Ok(()));
            assert_eq!(
                ilp.attempts
                    .iter()
                    .map(|a| matches!(a.outcome, PeriodOutcome::Feasible(_)))
                    .collect::<Vec<_>>(),
                cp.attempts
                    .iter()
                    .map(|a| matches!(a.outcome, PeriodOutcome::Feasible(_)))
                    .collect::<Vec<_>>(),
                "machine {machine:?}"
            );
            assert_eq!(cp.solved_by(), SolvedBy::Cp);
            assert_eq!(cp.solver_stats().cp_feasible, 1);
        }
    }

    #[test]
    fn cp_engine_defers_to_ilp_outside_unified_coloring() {
        // CapacityOnly has no coloring problem for the CP backend; the
        // driver must transparently use the ILP (and never race).
        let machine = Machine::example_pldi95();
        let cfg = SchedulerConfig {
            mapping: MappingMode::CapacityOnly,
            engine: Engine::Cp,
            heuristic_incumbent: false,
            ..Default::default()
        };
        let s = RateOptimalScheduler::new(machine, cfg)
            .schedule(&fp_loop())
            .expect("ilp settles");
        assert!(s.attempts.iter().all(|a| a.race.is_none()));
        assert_eq!(s.solved_by(), SolvedBy::Ilp);
    }

    #[test]
    fn portfolio_matches_proven_period_and_counts_races() {
        let machine = Machine::example_pldi95();
        let g = fp_loop();
        let base = SchedulerConfig {
            heuristic_incumbent: false,
            ..Default::default()
        };
        let ilp = RateOptimalScheduler::new(machine.clone(), base.clone())
            .schedule(&g)
            .expect("ilp schedulable");
        let port = RateOptimalScheduler::new(
            machine.clone(),
            SchedulerConfig {
                engine: Engine::Portfolio,
                ..base
            },
        )
        .schedule(&g)
        .expect("portfolio schedulable");
        assert!(port.is_proven_optimal());
        assert_eq!(
            ilp.schedule.initiation_interval(),
            port.schedule.initiation_interval()
        );
        assert_eq!(port.schedule.validate(&g, &machine), Ok(()));
        let stats = port.solver_stats();
        // Every settled period was a race, and the win/undecided split
        // accounts for all of them exactly.
        assert_eq!(stats.races, port.attempts.len() as u32);
        assert_eq!(
            stats.races,
            stats.race_cp_wins + stats.race_ilp_wins + stats.race_undecided
        );
        for a in &port.attempts {
            let r = a.race.expect("portfolio attempt carries a race report");
            match a.outcome {
                PeriodOutcome::Feasible(SolvedBy::Ilp) => {
                    assert_eq!(r.winner, Some(RaceEngine::Ilp));
                }
                PeriodOutcome::Feasible(SolvedBy::Cp) => {
                    assert_eq!(r.winner, Some(RaceEngine::Cp));
                }
                _ => {}
            }
        }
    }

    #[test]
    fn portfolio_cancellation_is_an_error() {
        let budget = Budget::unlimited();
        budget.cancel_token().cancel();
        let cfg = SchedulerConfig {
            engine: Engine::Portfolio,
            heuristic_incumbent: false,
            ..Default::default()
        };
        let err = RateOptimalScheduler::new(Machine::example_pldi95(), cfg)
            .schedule_with(&fp_loop(), &budget)
            .unwrap_err();
        assert!(matches!(err, ScheduleError::Cancelled));
    }

    #[test]
    fn portfolio_survives_ilp_failure_with_cp_wins() {
        // With every ILP solve failing numerically, the CP racer must win
        // every race and the result is still exact. Whether the loser
        // reports its own failure or a cancellation depends on thread
        // interleaving (CP may win and cancel the ILP arm before it even
        // reaches the injected fault), so only the winner is asserted.
        let machine = Machine::example_pldi95();
        let g = fp_loop();
        let cfg = SchedulerConfig {
            engine: Engine::Portfolio,
            heuristic_incumbent: false,
            faults: FaultPlan {
                fail_ilp: true,
                ..Default::default()
            },
            ..Default::default()
        };
        let s = RateOptimalScheduler::new(machine.clone(), cfg)
            .schedule(&g)
            .expect("cp wins every race");
        assert!(s.is_proven_optimal());
        assert_eq!(s.schedule.validate(&g, &machine), Ok(()));
        let stats = s.solver_stats();
        assert_eq!(stats.race_ilp_wins, 0);
        assert_eq!(stats.races, stats.race_cp_wins);
        assert!(s.attempts.iter().all(|a| {
            a.race
                .map(|r| r.winner == Some(RaceEngine::Cp))
                .unwrap_or(false)
        }));
    }

    /// Four latency-4 ops on one unit busy for one cycle each, with a
    /// recurrence 1 → 2 → 1 of latency 8 over distance 2:
    /// `T_lb = T_dep = T_res = 4`. No root check rejects `T = 4`; both
    /// exact engines refute it by search.
    fn refuted_by_search_at_t_lb() -> (Machine, Ddg) {
        let (_, machine) =
            swp_machine::parse_machine("machine m {\n    unit C0 count=1 latency=4 table[X.]\n}\n")
                .unwrap();
        let mut g = Ddg::new();
        let n: Vec<_> = (0..4)
            .map(|i| g.add_node(format!("n{i}"), OpClass::new(0), 4))
            .collect();
        g.add_edge(n[0], n[1], 0).unwrap();
        g.add_edge(n[1], n[2], 0).unwrap();
        g.add_edge(n[0], n[2], 0).unwrap();
        g.add_edge(n[1], n[3], 0).unwrap();
        g.add_edge(n[2], n[1], 2).unwrap();
        (machine, g)
    }

    #[test]
    fn cp_refutation_reports_its_search_nodes() {
        let (machine, g) = refuted_by_search_at_t_lb();
        let cfg = SchedulerConfig {
            engine: Engine::Cp,
            heuristic_incumbent: false,
            ..Default::default()
        };
        let s = RateOptimalScheduler::new(machine, cfg)
            .schedule(&g)
            .expect("schedulable above T_lb");
        let first = &s.attempts[0];
        assert_eq!(first.period, s.t_lb());
        assert_eq!(first.outcome, PeriodOutcome::Infeasible);
        assert!(first.nodes > 0, "CP refutation lost its effort: {first:?}");
        assert_eq!(s.solver_stats().bb_nodes, s.total_nodes());
    }

    #[test]
    fn ilp_refutation_reports_its_search_effort() {
        let (machine, g) = refuted_by_search_at_t_lb();
        let cfg = SchedulerConfig {
            engine: Engine::Ilp,
            heuristic_incumbent: false,
            ..Default::default()
        };
        let s = RateOptimalScheduler::new(machine, cfg)
            .schedule(&g)
            .expect("schedulable above T_lb");
        let first = &s.attempts[0];
        assert_eq!(first.period, s.t_lb());
        assert_eq!(first.outcome, PeriodOutcome::Infeasible);
        assert!(
            first.nodes > 0 && first.lp_iterations > 0,
            "ILP refutation lost its effort: {first:?}"
        );
        assert_eq!(s.solver_stats().lp_iterations, s.total_lp_iterations());
    }

    #[test]
    fn ilp_timeout_reports_its_search_effort() {
        // loop0128 under the Table 5 configuration (pure ILP, warm
        // sweep) runs out of budget at T = 6. A tick cap stands in for
        // the wall-clock limits so the test is deterministic.
        let loops = swp_loops::suite::generate(&swp_loops::suite::SuiteConfig {
            num_loops: 129,
            ..swp_loops::suite::SuiteConfig::pldi95_default()
        });
        let cfg = SchedulerConfig {
            engine: Engine::Ilp,
            heuristic_incumbent: false,
            warm_sweep: true,
            time_limit_per_t: None,
            time_limit_total: None,
            ..Default::default()
        };
        let s = RateOptimalScheduler::new(Machine::example_pldi95(), cfg)
            .schedule_with(&loops[128].ddg, &Budget::with_tick_limit(1_000))
            .expect("the grace heuristic schedules it");
        let t6 = s
            .attempts
            .iter()
            .find(|a| a.period == 6)
            .expect("T = 6 was attempted");
        assert_eq!(t6.outcome, PeriodOutcome::TimedOut);
        assert!(
            t6.nodes > 0 && t6.lp_iterations > 0,
            "ILP timeout lost its effort: {t6:?}"
        );
    }

    #[test]
    fn injected_ilp_failure_degrades_to_heuristic() {
        let machine = Machine::example_pldi95();
        let g = fp_loop();
        let cfg = SchedulerConfig {
            heuristic_incumbent: false,
            faults: FaultPlan {
                fail_ilp: true,
                ..Default::default()
            },
            ..Default::default()
        };
        let s = RateOptimalScheduler::new(machine.clone(), cfg)
            .schedule(&g)
            .expect("heuristic fallback carries the day");
        assert_eq!(s.schedule.validate(&g, &machine), Ok(()));
        assert!(s
            .attempts
            .iter()
            .any(|a| a.outcome == PeriodOutcome::EngineFailed));
    }
}
