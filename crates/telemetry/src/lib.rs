//! Deterministic telemetry for the LiveNet reproduction.
//!
//! The paper's evaluation (§6.1) is read off three log pipelines — consumer
//! node logs, client logs and Path Decision logs.  This crate is the
//! reproduction's equivalent: one recording API (`MetricSink`), one in-memory
//! aggregator (`TelemetryHub`) and one canonical output format (`Snapshot`)
//! shared by every layer of the stack (emu, node, brain, cc, fleet).
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** A `Snapshot` must be bit-identical between a serial
//!    fleet run and a sharded parallel run, the same discipline as
//!    `FleetReport::bit_identical`.  Counters are integers, histogram sums
//!    are fixed-point integers, and gauges merge via `max` under
//!    `f64::total_cmp` — every merge operation is associative and
//!    commutative *exactly*, not just approximately, so shard scheduling
//!    order can never leak into the output bits.
//! 2. **Cheap on the hot path.** Recording a counter is a `BTreeMap` lookup
//!    plus an integer add; recording a latency is the same plus a linear
//!    scan over ≤ 16 bucket bounds.  No allocation after first touch of a
//!    metric id, no locking, no wall-clock reads.
//! 3. **Mergeable.** Each fleet shard owns a private hub; the runner merges
//!    snapshots in canonical shard-index order.
//!
//! Entry points: [`TelemetryHub`] (aggregation), [`MetricSink`] (the trait
//! layers record against), [`Snapshot`] (serialized form), [`Span`]
//! (virtual-time interval → histogram observation), [`ids`] (canonical
//! metric names).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hist;
mod hub;
mod id;
mod snapshot;

pub use hist::{FixedHistogram, QUEUE_DEPTH_BOUNDS};
pub use hub::{MetricSink, Span, TelemetryHub};
pub use id::{ids, MetricId};
pub use snapshot::{HistSnapshot, Snapshot};
