//! Property test: the middleware wrappers must be order-independent.
//!
//! The typed request pipeline's core claim is that every wrapper
//! intercepts one `execute` and therefore covers every query shape.
//! This test stacks the caching / quota / resilience (retry-over-flaky)
//! / instrumentation wrappers in **every** order over a `LocalEndpoint`
//! and fires a random request sequence (string, prepared, paged, count,
//! and batch shapes — including batches nested inside batches): the
//! responses must be identical to the bare endpoint's, and the
//! instrumentation counters must stay consistent with the issued
//! traffic.

use proptest::prelude::*;
use sofya_endpoint::{
    CachingEndpoint, Endpoint, EndpointCounters, EndpointError, FlakyEndpoint,
    InstrumentedEndpoint, LocalEndpoint, QuotaConfig, QuotaEndpoint, RequestBuf, Response,
    RetryEndpoint,
};
use sofya_rdf::{Term, TripleStore};
use sofya_sparql::Prepared;
use std::sync::{Arc, OnceLock};

const SUBJECTS: u8 = 5;
const PREDICATES: u8 = 3;

fn store() -> TripleStore {
    let mut store = TripleStore::new();
    for i in 0..30u32 {
        store.insert_terms(
            &Term::iri(format!("e:s{}", i % SUBJECTS as u32)),
            &Term::iri(format!("r:p{}", i % PREDICATES as u32)),
            &Term::iri(format!("e:o{}", i % 11)),
        );
    }
    store
}

fn objects_template() -> Arc<Prepared> {
    static Q: OnceLock<Arc<Prepared>> = OnceLock::new();
    Arc::clone(Q.get_or_init(|| {
        Arc::new(Prepared::new("SELECT ?o WHERE { ?s ?r ?o } ORDER BY ?o", &["s", "r"]).unwrap())
    }))
}

fn probe_template() -> Arc<Prepared> {
    static Q: OnceLock<Arc<Prepared>> = OnceLock::new();
    Arc::clone(
        Q.get_or_init(|| Arc::new(Prepared::new("ASK { ?s ?r ?o }", &["s", "r", "o"]).unwrap())),
    )
}

fn pattern_template() -> Arc<Prepared> {
    static Q: OnceLock<Arc<Prepared>> = OnceLock::new();
    Arc::clone(Q.get_or_init(|| {
        Arc::new(Prepared::new("SELECT ?s ?o WHERE { ?s ?r ?o }", &["r"]).unwrap())
    }))
}

/// A generatable request description; materialized into a [`Request`]
/// at execution time (requests borrow templates and argument slices).
#[derive(Debug, Clone)]
enum Spec {
    Select(u8, u8),
    Ask(u8, u8),
    PreparedSelect(u8, u8),
    PreparedAsk(u8, u8, u8),
    Paged(u8, u8, u8, u8),
    Count(u8),
    Batch(Vec<Spec>),
}

impl Spec {
    fn leaves(&self) -> u64 {
        match self {
            Spec::Batch(subs) => subs.iter().map(Spec::leaves).sum(),
            _ => 1,
        }
    }

    /// Number of batch nodes at any depth (the instrumentation counts
    /// each nesting level once).
    fn batches(&self) -> u64 {
        match self {
            Spec::Batch(subs) => 1 + subs.iter().map(Spec::batches).sum::<u64>(),
            _ => 0,
        }
    }

    /// Materializes this spec as an owned request buffer; nesting in the
    /// spec carries straight through to nested [`RequestBuf::Batch`]es.
    fn to_buf(&self) -> RequestBuf {
        match self {
            Spec::Select(s, p) => RequestBuf::Select {
                query: format!("SELECT ?o {{ <e:s{s}> <r:p{p}> ?o }} ORDER BY ?o"),
            },
            Spec::Ask(s, p) => RequestBuf::Ask {
                query: format!("ASK {{ <e:s{s}> <r:p{p}> ?o }}"),
            },
            Spec::PreparedSelect(s, p) => RequestBuf::PreparedSelect {
                prepared: objects_template(),
                args: vec![Term::iri(format!("e:s{s}")), Term::iri(format!("r:p{p}"))],
            },
            Spec::PreparedAsk(s, p, o) => RequestBuf::PreparedAsk {
                prepared: probe_template(),
                args: vec![
                    Term::iri(format!("e:s{s}")),
                    Term::iri(format!("r:p{p}")),
                    Term::iri(format!("e:o{o}")),
                ],
            },
            Spec::Paged(s, p, limit, offset) => RequestBuf::PreparedSelectPaged {
                prepared: objects_template(),
                args: vec![Term::iri(format!("e:s{s}")), Term::iri(format!("r:p{p}"))],
                limit: Some(*limit as usize),
                offset: Some(*offset as usize),
            },
            Spec::Count(p) => RequestBuf::Count {
                prepared: pattern_template(),
                args: vec![Term::iri(format!("r:p{p}"))],
            },
            Spec::Batch(subs) => RequestBuf::Batch(subs.iter().map(Spec::to_buf).collect()),
        }
    }

    /// Executes this spec against `ep`, materializing the request.
    fn run(&self, ep: &dyn Endpoint) -> Result<Response, EndpointError> {
        ep.execute(self.to_buf().as_request())
    }
}

fn leaf_spec() -> impl Strategy<Value = Spec> {
    prop_oneof![
        (0..SUBJECTS, 0..PREDICATES).prop_map(|(s, p)| Spec::Select(s, p)),
        (0..SUBJECTS, 0..PREDICATES).prop_map(|(s, p)| Spec::Ask(s, p)),
        (0..SUBJECTS, 0..PREDICATES).prop_map(|(s, p)| Spec::PreparedSelect(s, p)),
        (0..SUBJECTS, 0..PREDICATES, 0..11u8).prop_map(|(s, p, o)| Spec::PreparedAsk(s, p, o)),
        (0..SUBJECTS, 0..PREDICATES, 0..4u8, 0..4u8)
            .prop_map(|(s, p, l, o)| Spec::Paged(s, p, l, o)),
        (0..PREDICATES).prop_map(Spec::Count),
    ]
}

/// A batch element: usually a leaf, sometimes a nested batch — so the
/// generated traffic exercises batches inside batches.
fn batch_item() -> impl Strategy<Value = Spec> {
    prop_oneof![
        leaf_spec(),
        leaf_spec(),
        leaf_spec(),
        proptest::collection::vec(leaf_spec(), 1..4).prop_map(Spec::Batch),
    ]
}

fn spec() -> impl Strategy<Value = Spec> {
    prop_oneof![
        leaf_spec(),
        leaf_spec(),
        leaf_spec(),
        proptest::collection::vec(batch_item(), 1..5).prop_map(Spec::Batch),
    ]
}

/// The four middleware units whose stacking order is permuted.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Layer {
    Caching,
    Quota,
    Resilience,
    Instrument,
}

const LAYERS: [Layer; 4] = [
    Layer::Caching,
    Layer::Quota,
    Layer::Resilience,
    Layer::Instrument,
];

/// The `k`-th permutation of the four layers (Lehmer decoding).
fn permutation(k: usize) -> Vec<Layer> {
    let mut pool: Vec<Layer> = LAYERS.to_vec();
    let mut order = Vec::with_capacity(4);
    let mut k = k % 24;
    for radix in (1..=4).rev() {
        let fact: usize = (1..radix).product();
        order.push(pool.remove(k / fact));
        k %= fact;
    }
    order
}

/// Builds the stack inner-to-outer in `order`, returning the outermost
/// endpoint and the instrumentation counter handle.
fn build_stack(base: LocalEndpoint, order: &[Layer]) -> (Arc<dyn Endpoint>, EndpointCounters) {
    let mut ep: Arc<dyn Endpoint> = Arc::new(base);
    let mut counters = EndpointCounters::default();
    for layer in order {
        ep = match layer {
            Layer::Caching => Arc::new(CachingEndpoint::new(ep)),
            Layer::Quota => Arc::new(QuotaEndpoint::new(
                ep,
                QuotaConfig {
                    max_queries: None,
                    max_rows_per_query: None,
                },
            )),
            // Every 5th request reaching the flaky layer fails; one
            // retry always recovers (failures are never adjacent).
            Layer::Resilience => Arc::new(RetryEndpoint::new(FlakyEndpoint::new(ep, 5), 1)),
            Layer::Instrument => {
                let wrapped = InstrumentedEndpoint::new(ep);
                counters = wrapped.counters();
                Arc::new(wrapped)
            }
        };
    }
    (ep, counters)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any stacking order yields bare-endpoint responses, and the
    /// counters never lose a query.
    #[test]
    fn stacked_wrappers_match_bare_endpoint(
        perm in 0usize..24,
        specs in proptest::collection::vec(spec(), 1..24),
    ) {
        let bare = LocalEndpoint::new("kb", store());
        let order = permutation(perm);
        let (stacked, counters) = build_stack(bare.clone(), &order);

        let mut issued_leaves = 0u64;
        for spec in &specs {
            let want = spec.run(&bare).expect("bare endpoint answers");
            let got = spec.run(&*stacked).expect("stacked endpoint answers");
            prop_assert_eq!(&got, &want, "order {:?}, spec {:?}", &order, spec);
            issued_leaves += spec.leaves();
        }

        // Counter consistency. The instrument layer sees *at most* the
        // issued traffic plus retry re-issues; when it is outermost it
        // sees exactly the issued traffic (caching absorbs repeats only
        // below it, retries re-enter only below it).
        let instrument_outermost = order.last() == Some(&Layer::Instrument);
        if instrument_outermost {
            prop_assert_eq!(counters.total_queries(), issued_leaves);
            // Nested batches count once per nesting level.
            let expected_batches: u64 = specs.iter().map(Spec::batches).sum();
            prop_assert_eq!(counters.batches(), expected_batches);
            let expected_expanded: u64 = specs
                .iter()
                .filter(|s| matches!(s, Spec::Batch(_)))
                .map(Spec::leaves)
                .sum();
            prop_assert_eq!(counters.batch_expanded(), expected_expanded);
        } else {
            // Caching below can only shrink, a retry below can only
            // grow by at most one re-issue per transient failure; in
            // all cases every *distinct* issued request is visible.
            prop_assert!(counters.total_queries() <= issued_leaves * 2);
            prop_assert!(counters.batch_expanded() <= counters.total_queries());
        }
    }
}
