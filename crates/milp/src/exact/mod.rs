//! Arbitrary-precision arithmetic and an exact rational simplex.
//!
//! The `f64` path in [`crate::simplex`] is fast but decides feasibility
//! with tolerances. For audits — and in this crate's tests — the same LPs
//! can be re-solved here over exact rationals with Bland's rule, which is
//! slower but free of rounding artifacts and guaranteed to terminate.

mod bigint;
mod rational;
mod simplex;

pub use bigint::BigInt;
pub use rational::BigRat;
pub use simplex::{solve_lp_exact, ExactLp, ExactOutcome};
