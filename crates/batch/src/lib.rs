//! Compatibility shim over the packed engine, which lives in
//! `snn-faults`: [`FaultSimulator::detect_with`] runs whichever engine
//! `FaultSimConfig::engine` requests, and every caller in the workspace
//! calls it directly.
//!
//! This crate remains only because the benchmark package (`perfbench/`,
//! a workspace of its own) imports `engine_detect`, `resolve_engine` and
//! `plan::plan` from it. The next change to the benchmark moves those
//! imports to `snn-faults` and deletes this crate. `tests/equivalence.rs`
//! holds the packed-vs-scalar bit-exactness properties until then.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use snn_faults::{
    CampaignError, CampaignOutcome, CancelToken, Fault, FaultSimConfig, FaultSimulator,
    FaultUniverse, ProgressSink,
};
use snn_model::Network;
use snn_tensor::Tensor;

pub use snn_faults::{plan, resolve_engine};

/// [`FaultSimulator::detect_with`] on `net` under `cfg`.
///
/// # Panics
///
/// Panics if `tests` is empty.
///
/// # Errors
///
/// As [`FaultSimulator::detect_with`].
pub fn engine_detect(
    net: &Network,
    cfg: FaultSimConfig,
    universe: &FaultUniverse,
    faults: &[Fault],
    tests: &[Tensor],
    sink: &dyn ProgressSink,
    cancel: &CancelToken,
) -> Result<CampaignOutcome, CampaignError> {
    FaultSimulator::new(net, cfg).detect_with(universe, faults, tests, sink, cancel)
}
