//! Hazard automata: precompiled structural-conflict tables for the CP
//! engine's propagators.
//!
//! The CP search in `swp-cpsat` asks one question at every node: *does
//! an operation issued at residue `r mod T` collide with another issue
//! on the same physical unit?* Classic pipeline theory (Kogge 1981
//! ch. 5; Bala & Rubin, MICRO '95; Proebsting & Fraser, POPL '94)
//! compiles the reservation table away so that question becomes a bit
//! test:
//!
//! * [`CollisionMatrix`] — per class, the **cyclic conflict vector**
//!   `C ∈ {0,1}^T` with bit `d` set iff two issues separated by
//!   `d mod T` on one unit collide on some stage. A pairwise query is a
//!   single bit test. Cross-class entries are trivially `false` because
//!   units are per-class — two operations of different classes never
//!   share a physical unit.
//! * [`HazardAutomaton`] — the matrix for one `(machine, T)`, plus the
//!   per-class forbidden-latency closure (the CP propagator's bulk
//!   domain prune).
//!   Construction is memoized per `(machine_fingerprint, T)` in a
//!   process-wide registry ([`HazardAutomaton::for_machine`]), so a
//!   corpus run builds each automaton once and every loop shares it.
//!
//! The CP engine is the only consumer. The IMS slot probe, the
//! branch-and-bound search and the independent checker all scan the
//! reservation tables directly, so verification shares nothing with
//! these tables. Per-unit packing capacity is not derived here: every
//! engine reads `ReservationTable::max_ops_per_period`. [`stats`] counts
//! registry hits and builds for harness telemetry.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod automaton;
mod bits;
mod matrix;
pub mod stats;

pub use automaton::HazardAutomaton;
pub use matrix::CollisionMatrix;
pub use stats::OracleCounters;
