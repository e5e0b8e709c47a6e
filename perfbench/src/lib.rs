//! The repository benchmark: runs a workload on a simulated cluster,
//! measures it on the simulated clock (what a client of the store sees)
//! and on the host clock (what running the simulator costs), traces the
//! calls into each layer from outside, and checks that no acknowledged
//! write was lost.
//!
//! `cargo run --release -- --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`; the last line of standard output is the JSON result.

pub mod check;
pub mod gen;
pub mod metrics;
pub mod rng;
pub mod spec;
pub mod summary;
pub mod timing;
pub mod trial;
