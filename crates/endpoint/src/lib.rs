//! # sofya-endpoint
//!
//! The endpoint abstraction SOFYA runs against.
//!
//! The paper's setting is that each knowledge base is reachable **only**
//! through a SPARQL endpoint: no dump download, a bounded number of
//! queries, and per-query result caps (real public endpoints such as
//! DBpedia's truncate results at a server-side limit). This crate models
//! that contract:
//!
//! * [`Endpoint`] — the trait every KB access goes through. One required
//!   method: `execute_with_budget(Request, &QueryBudget) -> Response`, a
//!   **typed request/response pipeline**; `execute(Request)` is the same
//!   call under [`sofya_sparql::QueryBudget::unlimited`]. The [`Request`]
//!   enum covers every query shape (string `SELECT`/`ASK`, prepared,
//!   paged-prepared, `COUNT`, and `Batch`); wrappers intercept all of
//!   them, and receive every caller's budget, by implementing that single
//!   method, so no query shape and no deadline can bypass a middleware
//!   layer. Algorithms call the ergonomic [`EndpointExt`] methods, which
//!   build the request and destructure the [`Response`].
//! * [`LocalEndpoint`] — an endpoint over one immutable snapshot of an
//!   in-process [`sofya_rdf::TripleStore`], evaluated by `sofya-sparql`;
//!   plays the role of the remote server in this reproduction, and is the
//!   pinned view [`ConcurrentEndpoint::pinned`] hands out. It and
//!   [`ConcurrentEndpoint`] share one executor, which parses and plans
//!   every query per call against the snapshot it runs on.
//! * [`InstrumentedEndpoint`] — counts queries and transferred rows/cells,
//!   so experiments can report the paper's "works with few queries" claim
//!   quantitatively (experiment S3 in DESIGN.md).
//! * [`QuotaEndpoint`] — enforces a hard query budget and a per-query row
//!   cap, turning "you may not download the whole KB" into an actual
//!   runtime error.
//! * [`CachingEndpoint`] — memoises identical query strings, as a client
//!   library would.
//! * [`SnapshotStore`] / [`ConcurrentEndpoint`] — the single-writer /
//!   many-readers split: the writer keeps loading and periodically
//!   publishes an immutable store snapshot; concurrent readers answer
//!   every query (string, prepared, and paged-prepared) lock-free against
//!   the currently published snapshot.
//! * [`helpers`] — the typed query builders for every query shape the
//!   SOFYA algorithms issue (facts of a relation, relations of an entity,
//!   `sameAs` resolution, existence probes, counts).
//!
//! Wrappers compose: `Quota(Instrumented(Local))` is the standard
//! experiment stack.

#![forbid(unsafe_code)]

pub mod cache;
pub mod clock;
pub mod concurrent;
pub mod deadline;
pub mod delta;
pub mod durable;
pub mod endpoint;
pub mod error;
pub mod helpers;
pub mod instrument;
pub mod latency;
pub mod local;
pub(crate) mod outcome;
pub mod quota;
pub mod retry;

pub use cache::CachingEndpoint;
pub use clock::{Clock, ManualClock, WallClock};
pub use concurrent::{ConcurrentEndpoint, PublishedSnapshot, SnapshotStore};
pub use deadline::{map_budget_error, BudgetConfig, DeadlineEndpoint};
pub use delta::{CatchUp, DeltaLog, FreshnessGauge, PredicateDelta, PublishDelta};
pub use durable::{DurabilityGauge, DurableStore};
pub use endpoint::{Endpoint, EndpointExt, Request, RequestBuf, Response};
pub use error::EndpointError;
pub use instrument::{EndpointCounters, InstrumentedEndpoint};
pub use latency::{LatencyEndpoint, LatencyModel};
pub use local::LocalEndpoint;
pub use quota::{QuotaConfig, QuotaEndpoint};
pub use retry::{BackoffPolicy, BreakerConfig, BreakerState, FlakyEndpoint, RetryEndpoint};
