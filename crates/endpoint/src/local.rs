//! An endpoint backed by an in-process triple store.

use crate::endpoint::{Endpoint, Request, Response};
use crate::error::EndpointError;
use crate::outcome::execute_on_store;
use crate::plan_cache::LruPlanCache;
use parking_lot::Mutex;
use sofya_rdf::{StoreStats, TripleStore};
use sofya_sparql::{PlanOptions, QueryBudget};
use std::sync::{Arc, OnceLock};

/// Default bound on the per-endpoint plan cache. The aligner issues a few
/// dozen distinct query strings per relation; 512 comfortably covers a
/// whole alignment session while bounding memory for adversarial query
/// streams.
pub(crate) const DEFAULT_PLAN_CACHE_CAPACITY: usize = 512;

/// The "remote server" of this reproduction: a [`TripleStore`] queried
/// through `sofya-sparql`. The store is immutable once wrapped, so the
/// endpoint is trivially thread-safe — and that immutability buys two
/// layers of work-skipping:
///
/// * [`StoreStats`] are computed once (lazily, on the first query) and fed
///   to the selectivity-driven query planner on every request;
/// * a bounded **LRU plan cache** keyed by query string makes re-issued
///   queries skip tokenizer, parser, and planner entirely (the aligner
///   re-issues a handful of fixed shapes throughout a session; the LRU
///   policy — shared with [`crate::ConcurrentEndpoint`]'s shards — keeps
///   those hot shapes resident even when a scan of many distinct paged
///   queries passes through), and the prepared request shapes
///   ([`crate::Request::PreparedSelect`] and friends) execute bound ASTs
///   directly so parameterized probes never parse at all.
#[derive(Clone)]
pub struct LocalEndpoint {
    name: String,
    store: Arc<TripleStore>,
    stats: Arc<OnceLock<StoreStats>>,
    plans: Arc<Mutex<LruPlanCache>>,
}

impl LocalEndpoint {
    /// Wraps a store under a display name.
    pub fn new(name: impl Into<String>, store: TripleStore) -> Self {
        Self::from_arc(name, Arc::new(store))
    }

    /// Wraps an already-shared store.
    pub fn from_arc(name: impl Into<String>, store: Arc<TripleStore>) -> Self {
        Self {
            name: name.into(),
            store,
            stats: Arc::new(OnceLock::new()),
            plans: Arc::new(Mutex::new(LruPlanCache::new(DEFAULT_PLAN_CACHE_CAPACITY))),
        }
    }

    /// Overrides the plan-cache capacity (0 disables caching). Existing
    /// entries beyond the new bound are evicted least-recently-used first.
    pub fn set_plan_cache_capacity(&self, capacity: usize) {
        self.plans.lock().set_capacity(capacity);
    }

    /// Number of cached plans (shared across clones of this endpoint).
    pub fn plan_cache_len(&self) -> usize {
        self.plans.lock().len()
    }

    /// Read access to the underlying store (used by generators and tests;
    /// the alignment algorithms never touch it).
    pub fn store(&self) -> &TripleStore {
        &self.store
    }

    /// Cardinality statistics for the wrapped store, computed on first
    /// use and shared by all clones of this endpoint.
    pub fn stats(&self) -> &StoreStats {
        self.stats.get_or_init(|| StoreStats::compute(&self.store))
    }

    fn plan_options(&self) -> PlanOptions<'_> {
        PlanOptions {
            stats: Some(self.stats()),
            ..PlanOptions::default()
        }
    }
}

impl Endpoint for LocalEndpoint {
    /// Runs the shared in-process executor against the wrapped store,
    /// with this endpoint's single LRU plan cache. The store is
    /// immutable, so every entry is stamped version 0.
    fn execute_with_budget(
        &self,
        req: Request<'_>,
        budget: &QueryBudget,
    ) -> Result<Response, EndpointError> {
        execute_on_store(
            &self.store,
            self.plan_options(),
            &|key| self.plans.lock().get(key, 0),
            &|key, plan| self.plans.lock().insert(key, 0, plan),
            req,
            budget,
        )
    }

    fn name(&self) -> &str {
        &self.name
    }
}

impl std::fmt::Debug for LocalEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalEndpoint")
            .field("name", &self.name)
            .field("triples", &self.store.len())
            .field("cached_plans", &self.plan_cache_len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::EndpointExt;
    use sofya_rdf::Term;
    use sofya_sparql::Prepared;

    fn endpoint() -> LocalEndpoint {
        let mut store = TripleStore::new();
        store.insert_terms(&Term::iri("e:a"), &Term::iri("r:p"), &Term::iri("e:b"));
        store.insert_terms(&Term::iri("e:a"), &Term::iri("r:p"), &Term::iri("e:c"));
        LocalEndpoint::new("test", store)
    }

    #[test]
    fn select_and_ask_round_trip() {
        let ep = endpoint();
        let rs = ep.select("SELECT ?o { <e:a> <r:p> ?o }").unwrap();
        assert_eq!(rs.len(), 2);
        assert!(ep.ask("ASK { <e:a> <r:p> <e:b> }").unwrap());
        assert!(!ep.ask("ASK { <e:b> <r:p> <e:a> }").unwrap());
    }

    #[test]
    fn parse_errors_surface_as_endpoint_errors() {
        let ep = endpoint();
        let err = ep.select("SELECT WHERE").unwrap_err();
        assert!(matches!(err, EndpointError::Sparql(_)));
    }

    #[test]
    fn name_is_reported() {
        assert_eq!(endpoint().name(), "test");
    }

    #[test]
    fn plan_cache_reuses_compiled_queries() {
        let ep = endpoint();
        assert_eq!(ep.plan_cache_len(), 0);
        let q = "SELECT ?o { <e:a> <r:p> ?o }";
        let first = ep.select(q).unwrap();
        assert_eq!(ep.plan_cache_len(), 1);
        let second = ep.select(q).unwrap();
        assert_eq!(first, second);
        assert_eq!(ep.plan_cache_len(), 1);
        // ASK plans are cached too, under their own key.
        ep.ask("ASK { <e:a> <r:p> <e:b> }").unwrap();
        assert_eq!(ep.plan_cache_len(), 2);
    }

    #[test]
    fn plan_cache_is_bounded_lru() {
        let ep = endpoint();
        ep.set_plan_cache_capacity(4);
        for i in 0..20 {
            let _ = ep.select(&format!("SELECT ?o {{ <e:a> <r:p> ?o }} LIMIT {i}"));
        }
        assert_eq!(ep.plan_cache_len(), 4);
        // Cached and uncached execution agree.
        let cached = ep.select("SELECT ?o { <e:a> <r:p> ?o } LIMIT 19").unwrap();
        ep.set_plan_cache_capacity(0);
        let uncached = ep.select("SELECT ?o { <e:a> <r:p> ?o } LIMIT 19").unwrap();
        assert_eq!(cached, uncached);
        assert_eq!(ep.plan_cache_len(), 0);
    }

    #[test]
    fn parse_errors_are_not_cached() {
        let ep = endpoint();
        let _ = ep.select("NOT SPARQL");
        assert_eq!(ep.plan_cache_len(), 0);
    }

    #[test]
    fn plan_cache_keeps_reused_entries_under_churn() {
        let ep = endpoint();
        ep.set_plan_cache_capacity(2);
        let hot = "SELECT ?o { <e:a> <r:p> ?o }";
        let oracle = ep.select(hot).unwrap();
        // A stream of distinct paged shapes would evict a FIFO entry; the
        // LRU keeps `hot` because we re-touch it between insertions.
        for i in 0..10 {
            let _ = ep.select(&format!("SELECT ?o {{ <e:a> <r:p> ?o }} LIMIT {i}"));
            assert_eq!(ep.select(hot).unwrap(), oracle);
        }
        assert_eq!(ep.plan_cache_len(), 2);
    }

    #[test]
    fn prepared_paged_matches_string_pagination() {
        let ep = endpoint();
        let q = Prepared::new("SELECT ?o WHERE { ?s ?r ?o } ORDER BY ?o", &["s", "r"]).unwrap();
        let args = [Term::iri("e:a"), Term::iri("r:p")];
        let page = ep
            .select_prepared_paged(&q, &args, Some(1), Some(1))
            .unwrap();
        let oracle = ep
            .select("SELECT ?o WHERE { <e:a> <r:p> ?o } ORDER BY ?o LIMIT 1 OFFSET 1")
            .unwrap();
        assert_eq!(page, oracle);
        // No limit/offset override behaves like plain select_prepared.
        let full = ep.select_prepared_paged(&q, &args, None, None).unwrap();
        assert_eq!(full, ep.select_prepared(&q, &args).unwrap());
    }

    #[test]
    fn prepared_queries_match_string_queries() {
        let ep = endpoint();
        let probe = Prepared::new("ASK { ?s ?r ?o }", &["s", "r", "o"]).unwrap();
        assert!(ep
            .ask_prepared(
                &probe,
                &[Term::iri("e:a"), Term::iri("r:p"), Term::iri("e:b")]
            )
            .unwrap());
        assert!(!ep
            .ask_prepared(
                &probe,
                &[Term::iri("e:b"), Term::iri("r:p"), Term::iri("e:a")]
            )
            .unwrap());
        let objects =
            Prepared::new("SELECT ?o WHERE { ?s ?r ?o } ORDER BY ?o", &["s", "r"]).unwrap();
        let rs = ep
            .select_prepared(&objects, &[Term::iri("e:a"), Term::iri("r:p")])
            .unwrap();
        let oracle = ep
            .select("SELECT ?o WHERE { <e:a> <r:p> ?o } ORDER BY ?o")
            .unwrap();
        assert_eq!(rs, oracle);
    }
}
