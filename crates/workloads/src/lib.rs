//! Workload generation, throughput harness and experiment drivers reproducing the paper's
//! evaluation (Section 7).
//!
//! The harness mirrors the paper's methodology: a data structure is prefilled to half its
//! key range, then `n` threads perform random operations drawn from an operation mix
//! (e.g. 50% insert / 50% delete, or 25/25/50 with searches) on uniformly random keys for a
//! fixed duration; the metric is throughput in million operations per second, plus the
//! total memory allocated for records (the paper's Figure 9 right) and the reclaimer
//! statistics (records retired / reclaimed / pending, epoch advances, neutralizations).
//!
//! * [`workload`] — operation mixes, key ranges and the per-thread operation generator.
//! * [`harness`] — the generic timed-trial driver over any [`lockfree_ds::ConcurrentMap`].
//! * [`pc`] — the producer/consumer trial family over any [`lockfree_ds::ConcurrentBag`]
//!   (queue, stack): symmetric and bursty-producer scenarios, pair-rate metric.
//! * [`experiments`] — one driver per paper experiment (Experiment 1, 2, 2-oversubscribed,
//!   3, the memory-footprint figure and the headline summary), each parameterized over
//!   data structure × reclaimer × pool × allocator.
//! * [`registry`] — the one scheme × memory table: [`ReclaimerKind::dispatch`] runs a
//!   generic [`Composition`] over the Record Manager types a runtime choice names, and
//!   [`MapNode`]/[`BagNode`] name the structure built over each node type.
//! * [`figure2`] — regenerates the qualitative scheme-comparison table (paper, Figure 2)
//!   from the `SchemeProperties` reported by every implemented reclaimer.
//! * [`oversub`] — the oversubscribed latency / bounded-memory family (`-- oversub`):
//!   recording-overhead twins, 4×-cores thread counts with a pinned laggard, per-scheme
//!   tail latency + limbo watermarks, `BENCH_latency.json`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiments;
pub mod figure2;
pub mod harness;
pub mod oversub;
pub mod pc;
pub mod registry;
#[cfg(feature = "smr_sanitize")]
pub mod sanitize;
pub mod workload;

pub use experiments::{
    allocator_from_env, AllocatorKind, ExperimentRow, ReclaimerKind, StructureKind,
};
pub use harness::{run_trial, BenchHandle, TrialResult};
pub use pc::{run_pc_trial, BagBenchHandle, PcConfig, PcScenario, PcTrialResult};
pub use registry::{BagNode, Composition, MapNode};
pub use workload::{KeyDistribution, OperationMix, WorkloadConfig};
