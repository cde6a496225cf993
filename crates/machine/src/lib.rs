//! Machine models with structural hazards.
//!
//! A [`Machine`] is a set of function-unit types. Each [`FuType`] has a
//! replication count (how many physical copies exist), a latency, and a
//! [`ReservationTable`] describing which pipeline stages an operation
//! occupies at which offsets after issue (Kogge 1981). Three shapes
//! matter for the paper:
//!
//! * **clean pipeline** — one stage, used only at offset 0: a new
//!   operation can issue every cycle;
//! * **non-pipelined** — one stage, used for the full latency: the unit
//!   is busy end-to-end;
//! * **unclean pipeline** — an arbitrary table: *structural hazards*
//!   (e.g. a writeback stage reused at offset 2 collides with a later
//!   issue).
//!
//! The crate derives classic pipeline theory from the tables — forbidden
//! latencies, collision vectors, and the MAL bound — plus the
//! resource-side period bound [`Machine::t_res`] and an independent
//! cycle-accurate [`checker`] used to validate schedules produced by any
//! scheduler.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checker;
mod collision;
mod machine;
pub mod parse;
mod restable;
mod schedule;
pub mod sim;

pub use checker::{
    check_capacity_only, check_fixed_assignment, check_fixed_assignment_flat, ConflictError,
    PlacedOp,
};
pub use collision::CollisionInfo;
pub use machine::{BundleSpec, FuType, Machine, MachineError, SlotGroup};
pub use parse::{parse_machine, write_machine, MachineParseError, MAX_UNIT_FIELD};
pub use restable::ReservationTable;
pub use schedule::{Matrices, PipelinedSchedule, ValidationError};
pub use sim::{simulate, SimError, SimReport, UnitPolicy};

/// Memory layout of the hot-path conflict structures: the modulo
/// reservation table's cells and the fixed-assignment checker's usage
/// map.
///
/// `Flat` is the only layout. The enum is kept because the benchmark
/// under `schedbench/` names it when it checks a scheduler
/// configuration; a single value selects nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DataLayout {
    /// Flat stride-indexed arenas with word-parallel occupancy tests.
    #[default]
    Flat,
}
