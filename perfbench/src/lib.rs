//! End-to-end gateway benchmark with a same-input layer ladder. See
//! `README.md` beside this crate for the workloads, the metrics and how
//! to run it.

pub mod alloc;
pub mod cli;
pub mod e2e;
pub mod gen;
pub mod ladder;
pub mod oracle;
pub mod report;
pub mod rig;
