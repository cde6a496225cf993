//! `schedbench`: the seeded end-to-end and per-layer benchmark of the
//! scheduler. See `README.md` beside this crate for the workloads, the
//! metrics and how to run it.

mod alloc;
mod outcome;
mod run;
mod stats;
mod trace;
mod workload;

use outcome::{digest, Class, Outcome};
use run::{Plain, Stop};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Input, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Times the set-up is repeated; its median is reported.
const SETUP_REPS: usize = 15;
/// Where run records and span files go, relative to the repository root.
const OUT_DIR: &str = ".bench_out";

const USAGE: &str =
    "usage: schedbench --workload <table4|ilp-hard|scenarios|sessions> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("expected 0 < seconds <= 3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// A measured metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// What a run prints as its last line.
struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

impl Report {
    fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("schedbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (input, setup) = match set_up(args.workload, args.seed) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("schedbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        traced(&input, &args)
    } else {
        untraced(&input, setup, &args)
    };
    for note in &report.notes {
        println!("{note}");
    }
    let line = report.json();
    let record = format!(
        "{}/{}-seed{}-trace{}.json",
        OUT_DIR,
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let saved = std::fs::create_dir_all(OUT_DIR).and_then(|()| {
        let notes: Vec<String> = report.notes.iter().map(|n| format!("{n:?}")).collect();
        std::fs::write(
            &record,
            format!(
                "{{\"notes\": [{}], \"result\": {line}}}\n",
                notes.join(", ")
            ),
        )
    });
    if let Err(e) = saved {
        eprintln!("schedbench: writing {record}: {e}");
    }
    println!("{line}");
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Builds the inputs [`SETUP_REPS`] times and returns the last build
/// with the median set-up time.
fn set_up(w: Workload, seed: u64) -> Result<(Input, Duration), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut input = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        input = Some(workload::build(w, seed)?);
        times.push(t.elapsed());
    }
    times.sort();
    Ok((
        input.expect("at least one repetition"),
        times[SETUP_REPS / 2],
    ))
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Failed problems and the first few reasons.
fn failures(outcomes: &[Outcome], notes: &mut Vec<String>) -> usize {
    let failed: Vec<&Outcome> = outcomes
        .iter()
        .filter(|o| o.class == Class::Failed)
        .collect();
    for o in failed.iter().take(5) {
        notes.push(format!(
            "FAILED: {}",
            o.why.as_deref().unwrap_or("no reason recorded")
        ));
    }
    failed.len()
}

fn untraced(input: &Input, setup: Duration, args: &Args) -> Report {
    let r = run::run(
        input,
        &mut Plain,
        Stop::AfterPassAnd(Duration::from_secs_f64(args.seconds)),
        false,
    );
    let n = r.first.len();
    let mut latency = r.fastest.clone();
    latency.sort_unstable();
    let tail = stats::tail(&latency);
    let scheduled: Vec<&Outcome> = r
        .first
        .iter()
        .filter(|o| o.class == Class::Scheduled)
        .collect();
    let ii_excess = scheduled
        .iter()
        .map(|o| f64::from(o.period.unwrap_or(0) - o.paper_t_lb.unwrap_or(0)))
        .sum::<f64>()
        / scheduled.len().max(1) as f64;
    let proven = r.first.iter().filter(|o| o.proven).count();
    let mut notes = vec![
        format!(
            "schedbench {} seed {}: {n} problems x {} passes, {} solves in {:.3} s",
            args.workload.name(),
            args.seed,
            r.passes,
            r.solved,
            r.wall.as_secs_f64()
        ),
        decision_line(&r.first),
        format!(
            "solve_tail_us is p{:.3} of {} per-problem fastest latencies, {} beyond it",
            tail.percentile, tail.samples, tail.beyond
        ),
    ];
    let failed = failures(&r.first, &mut notes);
    notes.push(format!("failed_share {}", failed as f64 / n as f64));
    match write_problems(&r, args) {
        Ok(path) => notes.push(format!("per-problem results: {path}")),
        Err(e) => notes.push(format!("per-problem results not written: {e}")),
    }
    for d in r.nondeterministic.iter().take(5) {
        notes.push(format!("NONDETERMINISTIC: {d}"));
    }
    Report {
        correct: failed == 0 && r.nondeterministic.is_empty(),
        attempted: n,
        failed,
        metrics: vec![
            Metric {
                name: "solves_per_s",
                value: n as f64 / r.fastest_pass.unwrap_or(r.wall).as_secs_f64(),
                unit: "1/s",
            },
            Metric {
                name: "solve_p50_us",
                value: stats::median(&latency) / 1e3,
                unit: "us",
            },
            Metric {
                name: "solve_tail_us",
                value: tail.value as f64 / 1e3,
                unit: "us",
            },
            Metric {
                name: "proven_share",
                value: proven as f64 / n as f64,
                unit: "ratio",
            },
            Metric {
                name: "ii_excess",
                value: ii_excess,
                unit: "cycles",
            },
            Metric {
                name: "ok_share",
                value: 1.0 - failed as f64 / n as f64,
                unit: "ratio",
            },
            Metric {
                name: "setup_s",
                value: setup.as_secs_f64(),
                unit: "s",
            },
            Metric {
                name: "peak_rss_mb",
                value: peak_rss_mb(),
                unit: "MiB",
            },
        ],
        notes,
    }
}

fn decision_line(outcomes: &[Outcome]) -> String {
    let count = |c| outcomes.iter().filter(|o| o.class == c).count();
    format!(
        "decision digest {:016x} over {} problems ({} scheduled, {} unschedulable, {} failed)",
        digest(outcomes),
        outcomes.len(),
        count(Class::Scheduled),
        count(Class::Unschedulable),
        count(Class::Failed)
    )
}

/// The traced run: an untraced phase for half the time, then the traced
/// walk over exactly the same problems, compared decision by decision.
fn traced(input: &Input, args: &Args) -> Report {
    let half = Duration::from_secs_f64(args.seconds / 2.0);
    let plain = run::run(input, &mut Plain, Stop::After(half), true);
    alloc::switch_on();
    let mut solver = trace::Traced::new();
    let traced = run::run(input, &mut solver, Stop::Count(plain.solved), true);
    let tr = &solver.tracer;

    let mismatches: Vec<usize> = plain
        .sequence
        .iter()
        .zip(&traced.sequence)
        .enumerate()
        .filter(|(_, (a, b))| a != b)
        .map(|(i, _)| i)
        .collect();
    let busy_ns = traced.busy.as_nanos() as f64;
    let self_total: u64 = tr.self_ns.values().sum();
    let mut notes = vec![
        format!(
            "schedbench {} seed {} traced: {} problems solved untraced in {:.3} s, traced in {:.3} s",
            args.workload.name(),
            args.seed,
            plain.solved,
            plain.busy.as_secs_f64(),
            traced.busy.as_secs_f64()
        ),
        decision_line(&traced.first),
        format!(
            "decisions matching the untraced run: {} of {}",
            plain.solved - mismatches.len(),
            plain.solved
        ),
    ];
    for (layer, ns) in &tr.self_ns {
        notes.push(format!(
            "self time {layer}: {:.3} ms ({:.1}% of traced wall)",
            *ns as f64 / 1e6,
            100.0 * *ns as f64 / busy_ns
        ));
    }
    for &i in mismatches.iter().take(5) {
        notes.push(format!(
            "MISMATCH at solve {i}: untraced {:?}, traced {:?}",
            plain.sequence[i], traced.sequence[i]
        ));
    }
    let failed = failures(&traced.first, &mut notes);
    match write_spans(tr, args) {
        Ok(path) => notes.push(format!(
            "spans: {path} ({} kept, {} beyond the cap)",
            tr.spans.len(),
            tr.dropped_spans
        )),
        Err(e) => notes.push(format!("spans not written: {e}")),
    }
    let metrics = trace::METRICS
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: match name {
                "trace.coverage" => self_total as f64 / busy_ns,
                "trace.overhead" => busy_ns / plain.busy.as_nanos() as f64,
                _ => tr.metric(name) as f64,
            },
        })
        .collect();
    Report {
        correct: mismatches.is_empty()
            && failed == 0
            && plain.nondeterministic.is_empty()
            && traced.nondeterministic.is_empty(),
        attempted: traced.first.len(),
        failed,
        metrics,
        notes,
    }
}

/// Writes each problem's first-pass outcome and fastest latency as
/// tab-separated lines.
fn write_problems(r: &run::Run, args: &Args) -> std::io::Result<String> {
    let path = format!(
        "{OUT_DIR}/{}-seed{}.problems.tsv",
        args.workload.name(),
        args.seed
    );
    let mut out = String::from("problem\tname\tfastest_ns\tclass\tperiod\tpaper_t_lb\tproven\n");
    for (i, o) in r.first.iter().enumerate() {
        let opt = |v: Option<u32>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
        let _ = writeln!(
            out,
            "{i}\t{}\t{}\t{:?}\t{}\t{}\t{}",
            r.names[i],
            r.fastest[i],
            o.class,
            opt(o.period),
            opt(o.paper_t_lb),
            u8::from(o.proven)
        );
    }
    std::fs::create_dir_all(OUT_DIR)?;
    std::fs::write(&path, out)?;
    Ok(path)
}

/// Writes the kept spans as tab-separated lines.
fn write_spans(tr: &trace::Tracer, args: &Args) -> std::io::Result<String> {
    let path = format!(
        "{OUT_DIR}/{}-seed{}.spans.tsv",
        args.workload.name(),
        args.seed
    );
    let mut out = String::from("problem\tid\tparent\tname\tstart_ns\tdur_ns\treplayed\n");
    for s in &tr.spans {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{}\t{}\t{parent}\t{}\t{}\t{}\t{}",
            s.problem,
            s.id,
            s.name,
            s.start_ns,
            s.dur_ns,
            u8::from(s.replayed)
        );
    }
    std::fs::create_dir_all(OUT_DIR)?;
    std::fs::write(&path, out)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_different_seed_gives_different_inputs() {
        for w in [Workload::Table4, Workload::IlpHard, Workload::Sessions] {
            let a = workload::build(w, 1).unwrap();
            let b = workload::build(w, 1).unwrap();
            let c = workload::build(w, 2).unwrap();
            let ddgs = |i: &Input| -> Vec<swp_ddg::Ddg> {
                match i {
                    Input::Solve { cases, .. } => cases.iter().map(|c| c.ddg.clone()).collect(),
                    Input::Sessions { loops, .. } => loops.iter().map(|l| l.ddg.clone()).collect(),
                }
            };
            assert_eq!(ddgs(&a), ddgs(&b), "{}", w.name());
            assert_ne!(ddgs(&a), ddgs(&c), "{}", w.name());
        }
    }

    #[test]
    fn seed_zero_is_the_paper_corpus() {
        let Input::Solve { cases, .. } = workload::build(Workload::Table4, 0).unwrap() else {
            panic!("table4 solves loops");
        };
        let paper = swp_loops::suite::generate(&swp_loops::suite::SuiteConfig::pldi95_default());
        assert_eq!(cases.len(), paper.len());
        assert!(cases.iter().zip(&paper).all(|(c, l)| c.ddg == l.ddg));
    }

    #[test]
    fn same_seed_gives_the_same_digest_and_traced_decisions() {
        let input = workload::build(Workload::Table4, 3).unwrap();
        let once = |solver: &mut dyn run::Solver| -> run::Run {
            run::run(&input, solver, Stop::Count(200), true)
        };
        let a = once(&mut Plain);
        let b = once(&mut Plain);
        let t = once(&mut trace::Traced::new());
        assert_eq!(digest(&a.first), digest(&b.first));
        assert_eq!(a.sequence, t.sequence);
        assert!(a.first.iter().all(|o| o.class == Class::Scheduled));
    }

    #[test]
    fn args_parse_and_reject() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload ilp-hard --seed 7 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::IlpHard);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 2.5, true));
        assert!(parse("--workload nope --seed 1").is_err());
        assert!(parse("--workload table4 --seed x").is_err());
        assert!(parse("--workload table4 --seed 1 --trace 2").is_err());
        assert!(parse("--seed 1").is_err());
    }
}
