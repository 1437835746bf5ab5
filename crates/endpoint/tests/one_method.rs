//! `execute_with_budget` is the one method an [`Endpoint`] implements.
//!
//! Two properties follow, and this file pins both:
//!
//! * **Equivalence.** The provided `execute(req)` is
//!   `execute_with_budget(req, &QueryBudget::unlimited())`, and a
//!   generous finite budget changes nothing either. For every request
//!   shape — including a batch nested inside a batch — the three calls
//!   answer identically on every in-process backend and through a full
//!   middleware stack.
//! * **Forwarding by construction.** A wrapper that implements only the
//!   required method cannot drop its caller's budget: it has no other
//!   entry point to be reached through. A scan cap set above such a
//!   wrapper kills a cross join below it, as the typed `BudgetExceeded`.

use sofya_endpoint::{
    BudgetConfig, CachingEndpoint, DeadlineEndpoint, Endpoint, EndpointError, EndpointExt,
    InstrumentedEndpoint, LatencyEndpoint, LatencyModel, LocalEndpoint, QuotaConfig, QuotaEndpoint,
    Request, RequestBuf, Response, RetryEndpoint, SnapshotStore,
};
use sofya_rdf::{Term, TripleStore};
use sofya_sparql::{Prepared, QueryBudget};
use std::sync::Arc;
use std::time::Duration;

fn store() -> TripleStore {
    let mut store = TripleStore::new();
    for i in 0..84u32 {
        store.insert_terms(
            &Term::iri(format!("e:s{}", i % 7)),
            &Term::iri(format!("r:p{}", i % 3)),
            &Term::iri(format!("e:o{}", i % 11)),
        );
    }
    store
}

/// One owned request of every shape, the last a batch holding a nested
/// batch, so each can be borrowed as a [`Request`] once per call mode.
fn requests() -> Vec<RequestBuf> {
    let objects =
        Arc::new(Prepared::new("SELECT ?o WHERE { ?s ?r ?o } ORDER BY ?o", &["s", "r"]).unwrap());
    let probe = Arc::new(Prepared::new("ASK { ?s ?r ?o }", &["s", "r", "o"]).unwrap());
    let pattern = Arc::new(Prepared::new("SELECT ?s ?o WHERE { ?s ?r ?o }", &["r"]).unwrap());
    let s0_p0 = vec![Term::iri("e:s0"), Term::iri("r:p0")];
    let leaves = vec![
        RequestBuf::Select {
            query: "SELECT ?s ?o WHERE { ?s <r:p1> ?o } ORDER BY ?s ?o".to_owned(),
        },
        RequestBuf::Ask {
            query: "ASK { <e:s0> <r:p0> ?o }".to_owned(),
        },
        RequestBuf::PreparedSelect {
            prepared: Arc::clone(&objects),
            args: s0_p0.clone(),
        },
        RequestBuf::PreparedAsk {
            prepared: probe,
            args: vec![Term::iri("e:s1"), Term::iri("r:p1"), Term::iri("e:o1")],
        },
        RequestBuf::PreparedSelectPaged {
            prepared: objects,
            args: s0_p0,
            limit: Some(2),
            offset: Some(1),
        },
        RequestBuf::Count {
            prepared: pattern,
            args: vec![Term::iri("r:p2")],
        },
    ];
    let nested = RequestBuf::Batch(vec![
        leaves[0].clone(),
        RequestBuf::Batch(vec![leaves[3].clone(), leaves[5].clone()]),
        leaves[4].clone(),
    ]);
    leaves.into_iter().chain([nested]).collect()
}

/// A fresh endpoint of each kind under test, so no call mode is served
/// from a cache another mode filled.
fn endpoints() -> Vec<(&'static str, Box<dyn Endpoint>)> {
    let snapshots = SnapshotStore::new(store());
    let concurrent = snapshots.reader("kb");
    let pinned = concurrent.pinned();
    let stack = DeadlineEndpoint::new(
        RetryEndpoint::new(
            QuotaEndpoint::new(
                InstrumentedEndpoint::new(CachingEndpoint::new(LatencyEndpoint::new(
                    LocalEndpoint::new("kb", store()),
                    LatencyModel::wan(),
                ))),
                QuotaConfig::default(),
            ),
            2,
        ),
        BudgetConfig::with_time_limit(Duration::from_secs(600)),
    );
    vec![
        ("local", Box::new(LocalEndpoint::new("kb", store()))),
        ("concurrent", Box::new(concurrent)),
        ("pinned", Box::new(pinned)),
        ("middleware stack", Box::new(stack)),
    ]
}

fn generous() -> QueryBudget {
    QueryBudget::unlimited()
        .with_time_limit(Duration::from_secs(600))
        .with_max_rows_scanned(u64::MAX / 2)
        .with_max_bindings(usize::MAX / 2)
}

/// Every response of one call mode, per endpoint kind, in request order.
fn run_all(
    call: impl Fn(&dyn Endpoint, Request<'_>) -> Result<Response, EndpointError>,
) -> Vec<(&'static str, Vec<Response>)> {
    let requests = requests();
    endpoints()
        .into_iter()
        .map(|(kind, ep)| {
            let responses = requests
                .iter()
                .map(|req| {
                    call(ep.as_ref(), req.as_request())
                        .unwrap_or_else(|e| panic!("{kind}: {:?} failed: {e}", req.as_request()))
                })
                .collect();
            (kind, responses)
        })
        .collect()
}

#[test]
fn execute_equals_unlimited_and_generous_budgets_on_every_shape() {
    let plain = run_all(|ep, req| ep.execute(req));
    let unlimited = run_all(|ep, req| ep.execute_with_budget(req, &QueryBudget::unlimited()));
    let finite = run_all(|ep, req| ep.execute_with_budget(req, &generous()));
    assert_eq!(plain, unlimited);
    assert_eq!(plain, finite);
    // Every backend answers alike, and the data makes each shape
    // non-trivial: the comparison above is not between empty answers.
    let local = &plain[0].1;
    for (kind, responses) in &plain {
        assert_eq!(responses, local, "{kind} disagrees with local");
    }
    assert!(matches!(&local[0], Response::Rows(rs) if rs.len() > 1));
    assert_eq!(local[1], Response::Boolean(true));
    assert!(matches!(&local[4], Response::Rows(rs) if rs.len() == 2));
    assert!(matches!(local[5], Response::Count(n) if n > 0));
    assert!(matches!(&local[6], Response::Batch(subs) if subs.len() == 3));
}

/// A middleware that implements only the required method (and `name`):
/// it tags nothing and changes nothing, it just hands the request and
/// budget to the inner endpoint.
struct PassThrough<E>(E);

impl<E: Endpoint> Endpoint for PassThrough<E> {
    fn execute_with_budget(
        &self,
        req: Request<'_>,
        budget: &QueryBudget,
    ) -> Result<Response, EndpointError> {
        self.0.execute_with_budget(req, budget)
    }

    fn name(&self) -> &str {
        self.0.name()
    }
}

#[test]
fn budget_reaches_the_backend_through_a_one_method_wrapper() {
    let ep = DeadlineEndpoint::new(
        PassThrough(LocalEndpoint::new("kb", store())),
        BudgetConfig {
            max_rows_scanned: Some(50),
            ..BudgetConfig::default()
        },
    );
    // 84 × 84 = 7 056 rows scanned without the cap.
    let result = ep.select("SELECT ?a ?b { ?a ?p ?x . ?b ?q ?y }");
    assert!(
        matches!(result, Err(EndpointError::BudgetExceeded { .. })),
        "the scan cap must kill the cross join below the wrapper, got {result:?}"
    );
    // The wrapper still answers in-budget work.
    assert_eq!(
        ep.select("SELECT ?o { <e:s0> <r:p0> ?o }").unwrap().len(),
        4
    );
}
