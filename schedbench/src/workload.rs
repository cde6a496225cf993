//! The four workloads and the seeded inputs each one builds.
//!
//! Every budget is a per-problem tick cap with no wall-clock limit
//! anywhere, so for a given seed every verdict is deterministic and only
//! timings vary between runs.

use std::path::Path;
use swp_core::{Engine, RateOptimalScheduler, SchedulerConfig};
use swp_ddg::Ddg;
use swp_fuzz::gen::{gen_cases, FuzzCase, GenConfig, MachineFamily};
use swp_fuzz::regression::parse_regression;
use swp_incr::EditOp;
use swp_loops::suite::{generate, SuiteConfig};
use swp_machine::Machine;

/// Directory of the committed scenario kernels, relative to the
/// repository root (the benchmark runs from there).
const KERNEL_DIR: &str = "crates/bench/tests/scenarios";

/// Tick cap per problem on `table4` and `sessions`.
const CORPUS_TICKS: u64 = 20_000;
/// Tick cap per problem on `ilp-hard`; loops the ILP cannot settle in
/// it end budget-exhausted, as loop0128 does.
const ILP_TICKS: u64 = 1_000;
/// Leading loops of the paper corpus solved by `ilp-hard`; 129 reaches
/// loop0128.
const ILP_LOOPS: usize = 160;
/// Tick cap per problem on `scenarios`.
const SCENARIO_TICKS: u64 = 10_000;
/// Seeded draws per machine family on `scenarios`.
const VLIW_CASES: usize = 1_000;
const REGPRESSURE_CASES: usize = 40;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Table 4 corpus under the CP engine with the IMS incumbent.
    Table4,
    /// The Table 5 configuration (pure ILP) over the leading corpus loops.
    IlpHard,
    /// Seeded VLIW and register-pressure machines plus the committed kernels.
    Scenarios,
    /// A five-solve edit script per corpus loop through `SolveSession`.
    Sessions,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Table4,
        Workload::IlpHard,
        Workload::Scenarios,
        Workload::Sessions,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table4 => "table4",
            Workload::IlpHard => "ilp-hard",
            Workload::Scenarios => "scenarios",
            Workload::Sessions => "sessions",
        }
    }

    /// Parses a name written by [`Workload::name`].
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One scheduling problem: a loop, the scheduler that solves it, and
/// whether a schedule is known to exist inside the sweep window.
#[derive(Debug, Clone)]
pub struct Case {
    pub name: String,
    pub ddg: Ddg,
    /// Index into [`Input::Solve::schedulers`].
    pub scheduler: usize,
    pub guaranteed: bool,
}

/// A corpus loop and the edit applied before each of its solves
/// (`None` for the first).
#[derive(Debug, Clone)]
pub struct ScriptedLoop {
    pub name: String,
    pub ddg: Ddg,
    pub steps: Vec<Option<EditOp>>,
}

/// Everything a workload solves, built before the first timed solve.
pub enum Input {
    /// One problem per case, each through `schedule_with_warm`.
    Solve {
        schedulers: Vec<RateOptimalScheduler>,
        cases: Vec<Case>,
        ticks: u64,
    },
    /// One problem per script step, each through `apply` + `solve_with`.
    Sessions {
        machine: Machine,
        config: SchedulerConfig,
        loops: Vec<ScriptedLoop>,
        ticks: u64,
    },
}

impl Input {
    /// Problems in one pass.
    pub fn num_problems(&self) -> usize {
        match self {
            Input::Solve { cases, .. } => cases.len(),
            Input::Sessions { loops, .. } => loops.iter().map(|l| l.steps.len()).sum(),
        }
    }
}

/// Solver configuration shared by every workload: tick caps only.
fn config(engine: Engine) -> SchedulerConfig {
    SchedulerConfig {
        engine,
        time_limit_per_t: None,
        time_limit_total: None,
        ..SchedulerConfig::default()
    }
}

/// The corpus for `seed`; seed 0 gives the paper's Table 4 corpus.
fn corpus(seed: u64, num_loops: usize) -> Vec<(String, Ddg)> {
    let base = SuiteConfig::pldi95_default();
    generate(&SuiteConfig {
        num_loops,
        seed: base.seed ^ seed,
        ..base
    })
    .into_iter()
    .map(|l| (l.name, l.ddg))
    .collect()
}

/// `items` in an order drawn from `seed`; seed 0 keeps them in order.
///
/// `ilp-hard` varies its inputs this way instead of drawing a fresh
/// corpus or renumbering instructions. The ILP's effort depends steeply
/// on loop size and, under renumbering, swings by half either way on
/// the same loop, so either would make its tail latency measure the
/// draw rather than the code. The slice stays fixed; the seed orders it.
fn shuffled<T>(mut items: Vec<T>, seed: u64) -> Vec<T> {
    if seed == 0 {
        return items;
    }
    let mut state = seed;
    // Fisher–Yates with splitmix64 draws.
    for i in (1..items.len()).rev() {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        items.swap(i, (z % (i as u64 + 1)) as usize);
    }
    items
}

/// Builds the inputs of `workload` for `seed`.
///
/// # Errors
///
/// A message when the committed scenario kernels cannot be read.
pub fn build(workload: Workload, seed: u64) -> Result<Input, String> {
    let cases = |loops: Vec<(String, Ddg)>| {
        loops
            .into_iter()
            .map(|(name, ddg)| Case {
                name,
                ddg,
                scheduler: 0,
                guaranteed: false,
            })
            .collect()
    };
    Ok(match workload {
        Workload::Table4 => Input::Solve {
            schedulers: vec![RateOptimalScheduler::new(
                Machine::example_pldi95(),
                config(Engine::Cp),
            )],
            cases: cases(corpus(seed, SuiteConfig::pldi95_default().num_loops)),
            ticks: CORPUS_TICKS,
        },
        Workload::IlpHard => Input::Solve {
            schedulers: vec![RateOptimalScheduler::new(
                Machine::example_pldi95(),
                SchedulerConfig {
                    heuristic_incumbent: false,
                    warm_sweep: true,
                    ..config(Engine::Ilp)
                },
            )],
            cases: cases(shuffled(corpus(0, ILP_LOOPS), seed)),
            ticks: ILP_TICKS,
        },
        Workload::Scenarios => scenarios(seed)?,
        Workload::Sessions => Input::Sessions {
            machine: Machine::example_pldi95(),
            config: config(Engine::Cp),
            loops: corpus(seed, SuiteConfig::pldi95_default().num_loops)
                .into_iter()
                .filter_map(|(name, ddg)| {
                    let steps = script(&ddg)?;
                    Some(ScriptedLoop { name, ddg, steps })
                })
                .collect(),
            ticks: CORPUS_TICKS,
        },
    })
}

/// Seeded VLIW and register-pressure draws followed by the committed
/// kernels, each with its own machine and pressure cap.
fn scenarios(seed: u64) -> Result<Input, String> {
    let draw = |family: MachineFamily, seed, cases| {
        gen_cases(
            &GenConfig {
                seed,
                family,
                ..GenConfig::default()
            },
            cases,
        )
        .into_iter()
        .map(move |c| (format!("{}-{}", family.as_str(), c.name), c))
    };
    // A different campaign seed per family, so case `i` of the two
    // families does not share its machine draw.
    let mut named: Vec<(String, FuzzCase)> = draw(MachineFamily::Vliw, seed, VLIW_CASES)
        .chain(draw(
            MachineFamily::RegPressure,
            seed ^ 0x9E37_79B9_7F4A_7C15,
            REGPRESSURE_CASES,
        ))
        .collect();
    named.extend(kernels(Path::new(KERNEL_DIR))?);

    let mut schedulers = Vec::with_capacity(named.len());
    let mut cases = Vec::with_capacity(named.len());
    for (name, c) in named {
        cases.push(Case {
            name,
            ddg: c.ddg,
            scheduler: schedulers.len(),
            guaranteed: c.guaranteed,
        });
        schedulers.push(RateOptimalScheduler::new(
            c.machine,
            SchedulerConfig {
                max_live: c.max_live,
                ..config(Engine::Cp)
            },
        ));
    }
    Ok(Input::Solve {
        schedulers,
        cases,
        ticks: SCENARIO_TICKS,
    })
}

/// The committed scenario kernels, in file-name order.
fn kernels(dir: &Path) -> Result<Vec<(String, FuzzCase)>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "txt"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no scenario kernels in {}", dir.display()));
    }
    paths
        .iter()
        .map(|p| {
            let name = p
                .file_stem()
                .map_or_else(String::new, |s| s.to_string_lossy().into_owned());
            let text =
                std::fs::read_to_string(p).map_err(|e| format!("reading {}: {e}", p.display()))?;
            let parsed = parse_regression(&name, &text)?;
            Ok((format!("kernel-{name}"), parsed.case))
        })
        .collect()
}

/// The `bench_incr` edit script for one loop: solve; add a dependence;
/// solve; revert it; solve; add an instruction; solve; revert it;
/// solve. `None` when the loop has fewer than two instructions.
fn script(ddg: &Ddg) -> Option<Vec<Option<EditOp>>> {
    let n = ddg.num_nodes();
    if n < 2 {
        return None;
    }
    // A forward carried dependence 0 → n-1 at the smallest distance not
    // already present, so the revert restores the original edge list
    // and with it the session's fingerprint.
    let mut distance = 1;
    while ddg
        .edges()
        .any(|e| e.src.index() == 0 && e.dst.index() == n - 1 && e.distance == distance)
    {
        distance += 1;
    }
    let class = ddg.nodes().next().map(|(_, node)| node.class.index())?;
    Some(vec![
        None,
        Some(EditOp::AddEdge {
            src: 0,
            dst: n - 1,
            distance,
        }),
        Some(EditOp::RemoveEdge {
            src: 0,
            dst: n - 1,
            distance,
        }),
        Some(EditOp::AddNode {
            name: "schedbench_x".into(),
            class,
            latency: 1,
        }),
        Some(EditOp::RemoveNode { index: n }),
    ])
}
