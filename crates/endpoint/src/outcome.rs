//! The one executor behind the in-process endpoints
//! ([`crate::LocalEndpoint`], [`crate::ConcurrentEndpoint`],
//! [`crate::PinnedEndpoint`]): the typed [`Request`] dispatch over one
//! immutable store, the mapping of the engine's [`QueryOutcome`] into the
//! typed [`Response`], and the `COUNT(*)` rewrite behind
//! [`crate::Request::Count`].

use crate::endpoint::{count_of_ask_error, Request, Response};
use crate::error::EndpointError;
use crate::plan_cache::{cached_plan, prepared_cache_key};
use sofya_rdf::{Term, TripleStore};
use sofya_sparql::{
    compile_ast_with_options, compile_with_options, execute_ast_budgeted,
    execute_compiled_paged_budgeted, CompiledQuery, PlanOptions, Prepared, Projection, Query,
    QueryBudget, QueryOutcome, SelectQuery,
};
use std::sync::Arc;

/// Executes one typed request against one immutable `store` under
/// `budget`. The backend supplies its plan cache as a `lookup`/`insert`
/// closure pair over string keys — an exact LRU for
/// [`crate::LocalEndpoint`], the sharded snapshot-versioned cache for
/// the concurrent endpoints — so the dispatch itself exists once.
///
/// The budget is threaded into the evaluator's scan loops, so a breached
/// query unwinds within one poll interval instead of running to
/// completion; [`QueryBudget::unlimited`] disables every check. Plan
/// caching is budget-independent, so a killed query leaves its (valid)
/// cached plan for the next caller.
pub(crate) fn execute_on_store<L, I>(
    store: &TripleStore,
    opts: PlanOptions<'_>,
    lookup: &L,
    insert: &I,
    req: Request<'_>,
    budget: &QueryBudget,
) -> Result<Response, EndpointError>
where
    L: Fn(&str) -> Option<Arc<CompiledQuery>>,
    I: Fn(String, Arc<CompiledQuery>),
{
    match req {
        // String queries go through the string-keyed plan cache.
        Request::Select { query } | Request::Ask { query } => {
            let compiled = cached_plan(query, lookup, insert, || {
                compile_with_options(store, query, opts)
            })?;
            Ok(response_of(execute_compiled_paged_budgeted(
                store, &compiled, None, None, budget,
            )?))
        }
        // Prepared probes bind + plan per call: their args vary per
        // probe and their plans are trivial, so caching buys nothing.
        Request::PreparedSelect { prepared, args } | Request::PreparedAsk { prepared, args } => {
            let bound = prepared.bind(args)?;
            Ok(response_of(execute_ast_budgeted(
                store, &bound, opts, budget,
            )?))
        }
        // Paged shapes are the expensive multi-pattern joins and their
        // bound plan is page-independent, so it is compiled once per
        // (template, args) — the key excludes LIMIT/OFFSET — and every
        // page reuses it with an execution-time override.
        Request::PreparedSelectPaged {
            prepared,
            args,
            limit,
            offset,
        } => {
            let key = prepared_cache_key(prepared, args);
            let compiled = cached_plan(&key, lookup, insert, || {
                Ok(compile_ast_with_options(store, &prepared.bind(args)?, opts))
            })?;
            Ok(response_of(execute_compiled_paged_budgeted(
                store, &compiled, limit, offset, budget,
            )?))
        }
        // COUNT(*) over a bound pattern: single-pattern templates
        // resolve off the index bounds without materializing a row.
        Request::Count { prepared, args } => {
            execute_count(store, prepared, args, opts, budget).map(Response::Count)
        }
        // Sub-requests run against the same store and share the one
        // budget: the deadline is absolute and the scan counter is
        // per-sub-query, so a batch cannot outlive the deadline even
        // though each member restarts its row count.
        Request::Batch(requests) => Ok(Response::Batch(
            requests
                .into_iter()
                .map(|sub| execute_on_store(store, opts, lookup, insert, sub, budget))
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
