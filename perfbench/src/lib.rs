//! End-to-end and per-layer benchmark of the paper's pipeline — test
//! generation, packed and fallback fault campaigns, criticality
//! labelling — on the three example nets.
//!
//! `run` measures one workload for a fixed window and reports the
//! end-to-end metrics; with tracing on it instead runs the per-layer
//! sweep in `layers`. `README.md` beside this crate lists the workloads,
//! the metrics and which layer figure should move which end-to-end one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod digest;
mod layers;
pub mod report;
pub mod run;
pub mod stats;
mod sys;
pub mod workload;
