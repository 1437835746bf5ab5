//! # sofya-service
//!
//! The concurrent alignment service: the "serves heavy traffic" layer on
//! top of the single-threaded alignment pipeline.
//!
//! The paper's setting is *online* relation alignment — many clients
//! firing small probes at live endpoints concurrently. This crate
//! provides the serving machinery:
//!
//! * a bounded multi-producer/multi-consumer [`queue::BoundedQueue`]
//!   whose full-queue rejections are the backpressure signal;
//! * a generic [`scheduler`]: N scoped worker threads over the queue,
//!   per-client request quotas, reject-with-retry-after on overload, and
//!   panic containment (a dying session never takes the pool down);
//! * a [`metrics::ServiceMetrics`] registry — throughput, approximate
//!   p50/p99 latency, queue depth, and snapshot staleness — all relaxed
//!   atomics, shared freely with the workers;
//! * the alignment-specific [`service::AlignmentService`]: a shared
//!   [`sofya_core::AlignmentSession`] (first request per relation pays,
//!   later ones are cache hits) scheduled across the pool.
//!
//! Raw endpoint traffic is scheduled by `sofya-net`'s HTTP server, one
//! job per wire request on the same [`scheduler`].
//!
//! Snapshot isolation for the *data* side lives one layer down, in
//! [`sofya_endpoint::SnapshotStore`] / [`sofya_endpoint::ConcurrentEndpoint`]:
//! the writer keeps loading while this crate's workers read the published
//! snapshot lock-free. The two compose into the full service stack:
//!
//! ```text
//! writer thread          SnapshotStore::publish()      (epoch swap)
//!      │                          │
//!      ▼                          ▼
//! TripleStore ──snapshot──▶ Arc<PublishedSnapshot> ◀── ConcurrentEndpoint (N readers)
//!                                                            ▲
//! clients ──▶ BoundedQueue ──▶ worker pool ── AlignmentSession┘
//!   (quotas, retry-after)     (panic containment, metrics)
//! ```

#![forbid(unsafe_code)]

pub mod metrics;
pub mod queue;
pub mod scheduler;
pub mod service;

pub use metrics::{LatencyHistogram, MetricsReport, ServiceMetrics};
pub use queue::{BoundedQueue, PushError};
pub use scheduler::{
    run_batch, serve, JobOutcome, JobTicket, RejectedJob, SchedulerConfig, SchedulerHandle,
    ServiceError, SubmitError,
};
pub use service::{AlignmentBatchOutcome, AlignmentRequest, AlignmentService, ServiceFailure};
