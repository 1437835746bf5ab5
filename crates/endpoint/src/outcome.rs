//! The one executor behind the in-process endpoints
//! ([`crate::LocalEndpoint`] and [`crate::ConcurrentEndpoint`]): the
//! typed [`Request`] dispatch over one published snapshot, the mapping of
//! the engine's [`QueryOutcome`] into the typed [`Response`], and the
//! `COUNT(*)` rewrite behind [`crate::Request::Count`].
//!
//! Nothing is cached between calls: every request is parsed (or bound)
//! and planned against the snapshot it runs on. The aligner's probes
//! mostly run once — remote ones arrive as text with their constants
//! inlined, and each sampling step reads a new page — so a plan cache
//! would mostly churn, and planning a small bound pattern costs less
//! than keeping plans around.

use crate::concurrent::PublishedSnapshot;
use crate::endpoint::{count_of_ask_error, Request, Response};
use crate::error::EndpointError;
use sofya_rdf::{Term, TripleStore};
use sofya_sparql::{
    execute_ast_budgeted, parse_query, PlanOptions, Prepared, Projection, Query, QueryBudget,
    QueryOutcome, SelectQuery,
};

/// Executes one typed request against one published snapshot under
/// `budget`, with the snapshot's statistics driving the planner.
///
/// The budget is threaded into the evaluator's scan loops, so a breached
/// query unwinds within one poll interval instead of running to
/// completion; [`QueryBudget::unlimited`] disables every check. A batch
/// recurses with the **same** snapshot, so its sub-requests observe one
/// consistent state no matter how many publishes land while it runs.
pub(crate) fn execute_on_store(
    snap: &PublishedSnapshot,
    req: Request<'_>,
    budget: &QueryBudget,
) -> Result<Response, EndpointError> {
    let store = snap.snapshot().store();
    let opts = snap.plan_options();
    let run = |query: &Query| -> Result<Response, EndpointError> {
        Ok(response_of(execute_ast_budgeted(
            store, query, opts, budget,
        )?))
    };
    match req {
        Request::Select { query } | Request::Ask { query } => run(&parse_query(query)?),
        Request::PreparedSelect { prepared, args } | Request::PreparedAsk { prepared, args } => {
            run(&prepared.bind(args)?)
        }
        // The same binding `Request::to_sparql` renders for the wire.
        Request::PreparedSelectPaged {
            prepared,
            args,
            limit,
            offset,
        } => run(&prepared.bind_paged(args, limit, offset)?),
        // COUNT(*) over a bound pattern: single-pattern templates
        // resolve off the index bounds without materializing a row.
        Request::Count { prepared, args } => {
            execute_count(store, prepared, args, opts, budget).map(Response::Count)
        }
        // Sub-requests run against the same snapshot and share the one
        // budget: the deadline is absolute and the scan counter is
        // per-sub-query, so a batch cannot outlive the deadline even
        // though each member restarts its row count.
        Request::Batch(requests) => Ok(Response::Batch(
            requests
                .into_iter()
                .map(|sub| execute_on_store(snap, sub, budget))
                .collect::<Result<_, _>>()?,
        )),
    }
}

/// The typed response for an engine outcome: `SELECT` rows become
/// [`Response::Rows`], `ASK` answers become [`Response::Boolean`]. Shape
/// checking against what the *caller* expected happens when the response
/// is destructured (see [`Response::into_rows`] and friends).
fn response_of(outcome: QueryOutcome) -> Response {
    match outcome {
        QueryOutcome::Solutions(rs) => Response::Rows(rs),
        QueryOutcome::Boolean(b) => Response::Boolean(b),
    }
}

/// The **single definition** of [`crate::Request::Count`] semantics:
/// bind the template, swap its projection for `COUNT(*)`, and strip the
/// solution modifiers. Both the in-process execution path
/// ([`execute_count`]) and the string rendering
/// ([`crate::Request::to_sparql`], which also keys the caching wrapper)
/// go through this rewrite, so they can never drift apart.
pub(crate) fn count_rewrite(
    prepared: &Prepared,
    args: &[Term],
) -> Result<SelectQuery, EndpointError> {
    match prepared.bind(args)? {
        Query::Select(mut select) => {
            select.projection = Projection::Count {
                var: None,
                distinct: false,
                alias: "n".to_owned(),
            };
            select.distinct = false;
            select.order_by.clear();
            select.limit = None;
            select.offset = None;
            Ok(select)
        }
        Query::Ask(_) => Err(count_of_ask_error()),
    }
}

/// Executes a [`crate::Request::Count`] against an in-process store via
/// [`count_rewrite`]. A bare single-pattern template then
/// short-circuits through the planner's `count_pattern` index bounds —
/// no join, no row materialization — and multi-pattern templates count
/// bindings at the interned-id level without ever resolving a term; a
/// scan-backed count ticks the budget per row like any other query.
fn execute_count(
    store: &TripleStore,
    prepared: &Prepared,
    args: &[Term],
    opts: PlanOptions<'_>,
    budget: &QueryBudget,
) -> Result<u64, EndpointError> {
    let select = Query::Select(count_rewrite(prepared, args)?);
    let rs = response_of(execute_ast_budgeted(store, &select, opts, budget)?).into_rows()?;
    Ok(rs.single_integer().unwrap_or(0).max(0) as u64)
}
