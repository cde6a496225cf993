//! Pins the branch-and-bound effort of the paper's unified ILP.
//!
//! For each of the first 16 loops of the paper corpus, the formulation
//! is built at `T_lb` and `T_lb + 1` and solved as the scheduler solves
//! it (feasibility, first incumbent) under a fixed tick cap. The
//! verdict, the node count and the simplex pivot count of every solve
//! are pinned. Node LPs are deterministic, so any change to the pivot
//! rule, the tableau build or the branching order moves at least one of
//! these numbers; a change that only makes each pivot cheaper moves
//! none.

use swp_core::formulation::{build, FormulationOptions};
use swp_core::ScheduleError;
use swp_loops::suite::{generate, SuiteConfig};
use swp_machine::Machine;
use swp_milp::{Budget, SolveError, SolveLimits};

/// Ticks (simplex pivots plus one per LP phase) each solve may spend.
const TICKS: u64 = 10_000;

/// `(loop, period, verdict, nodes, lp_iterations)`, in corpus order.
const PINNED: &[(&str, u32, &str, u64, u64)] = &[
    ("loop0000", 4, "feasible", 87, 3719),
    ("loop0000", 5, "feasible", 30, 1277),
    ("loop0001", 3, "feasible", 25, 521),
    ("loop0001", 4, "feasible", 7, 143),
    ("loop0002", 2, "feasible", 3, 41),
    ("loop0002", 3, "feasible", 22, 415),
    ("loop0003", 4, "feasible", 121, 7058),
    ("loop0003", 5, "limit", 166, 9746),
    ("loop0004", 2, "feasible", 7, 129),
    ("loop0004", 3, "feasible", 16, 363),
    ("loop0005", 8, "limit", 49, 9912),
    ("loop0005", 9, "limit", 52, 9906),
    ("loop0006", 4, "feasible", 20, 816),
    ("loop0006", 5, "feasible", 41, 1772),
    ("loop0007", 4, "feasible", 17, 682),
    ("loop0007", 5, "feasible", 63, 3291),
    ("loop0008", 3, "feasible", 18, 491),
    ("loop0008", 4, "feasible", 6, 141),
    ("loop0009", 7, "limit", 82, 9863),
    ("loop0009", 8, "limit", 69, 9884),
    ("loop0010", 3, "feasible", 13, 233),
    ("loop0010", 4, "feasible", 3, 57),
    ("loop0011", 7, "limit", 74, 9874),
    ("loop0011", 8, "limit", 73, 9879),
    ("loop0012", 3, "feasible", 17, 220),
    ("loop0012", 4, "feasible", 4, 51),
    ("loop0013", 5, "feasible", 128, 5591),
    ("loop0013", 6, "feasible", 50, 2270),
    ("loop0014", 4, "feasible", 17, 702),
    ("loop0014", 5, "feasible", 161, 8148),
    ("loop0015", 2, "feasible", 3, 41),
    ("loop0015", 3, "feasible", 22, 415),
];

fn solve_all() -> Vec<(String, u32, &'static str, u64, u64)> {
    let machine = Machine::example_pldi95();
    let loops = generate(&SuiteConfig {
        num_loops: 16,
        ..SuiteConfig::pldi95_default()
    });
    let mut rows = Vec::new();
    for l in &loops {
        let t_dep = l.ddg.t_dep().expect("corpus loops have a finite period");
        let t_lb = t_dep.max(machine.t_res(&l.ddg).expect("corpus classes exist"));
        for period in [t_lb, t_lb + 1] {
            let f = match build(&l.ddg, &machine, period, FormulationOptions::standard()) {
                Ok(f) => f,
                Err(ScheduleError::PeriodInfeasible { .. }) => {
                    rows.push((l.name.clone(), period, "rejected", 0, 0));
                    continue;
                }
                Err(e) => panic!("{} at T={period}: {e}", l.name),
            };
            let limits = SolveLimits {
                stop_at_first_incumbent: true,
                budget: Budget::with_tick_limit(TICKS),
                ..SolveLimits::default()
            };
            let out = f.model.solve_with_stats(&limits);
            let verdict = match out.result {
                Ok(_) => "feasible",
                Err(SolveError::Infeasible) => "infeasible",
                Err(SolveError::LimitReached(_)) => "limit",
                Err(e) => panic!("{} at T={period}: {e}", l.name),
            };
            rows.push((
                l.name.clone(),
                period,
                verdict,
                out.stats.nodes,
                out.stats.lp_iterations,
            ));
        }
    }
    rows
}

#[test]
fn ilp_effort_on_the_leading_corpus_loops_is_pinned() {
    let got = solve_all();
    let table: String = got
        .iter()
        .map(|(name, t, v, nodes, its)| {
            format!("    (\"{name}\", {t}, \"{v}\", {nodes}, {its}),\n")
        })
        .collect();
    let want: Vec<_> = PINNED
        .iter()
        .map(|&(name, t, v, nodes, its)| (name.to_string(), t, v, nodes, its))
        .collect();
    assert!(
        got == want,
        "ILP effort moved; the solves now give:\n{table}"
    );
}
