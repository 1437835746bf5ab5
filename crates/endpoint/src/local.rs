//! An endpoint over one immutable, in-process store snapshot.
//!
//! [`LocalEndpoint`] is the "remote server" of this reproduction and the
//! pinned view handed out by [`crate::ConcurrentEndpoint::pinned`]: a
//! name plus one [`PublishedSnapshot`]. Every query is parsed (or bound)
//! and planned per call against that snapshot, with the snapshot's
//! statistics driving the planner.

use crate::concurrent::PublishedSnapshot;
use crate::endpoint::{Endpoint, Request, Response};
use crate::error::EndpointError;
use crate::outcome::execute_on_store;
use sofya_rdf::TripleStore;
use sofya_sparql::QueryBudget;
use std::sync::Arc;
use std::time::Duration;

/// A [`TripleStore`] snapshot queried through `sofya-sparql`. The
/// snapshot is immutable, so the endpoint is trivially thread-safe, every
/// query — string, prepared, or paged — answers from the same state, and
/// the planner's [`sofya_rdf::StoreStats`] are computed once (on the first
/// query) and shared by every clone.
///
/// Build one over a whole store with [`LocalEndpoint::new`], or pin one
/// to a live store's current publication with
/// [`crate::ConcurrentEndpoint::pinned`], which keeps dependent query
/// sequences consistent while the writer keeps publishing.
#[derive(Clone)]
pub struct LocalEndpoint {
    name: String,
    snap: Arc<PublishedSnapshot>,
}

impl LocalEndpoint {
    /// Snapshots `store` once and wraps it under a display name.
    pub fn new(name: impl Into<String>, mut store: TripleStore) -> Self {
        Self::pinned(name, Arc::new(PublishedSnapshot::new(store.snapshot())))
    }

    /// An endpoint over an already-published snapshot.
    pub(crate) fn pinned(name: impl Into<String>, snap: Arc<PublishedSnapshot>) -> Self {
        Self {
            name: name.into(),
            snap,
        }
    }

    /// Read access to the underlying store (used by generators and tests;
    /// the alignment algorithms never touch it).
    pub fn store(&self) -> &TripleStore {
        self.snap.snapshot().store()
    }

    /// Version of the snapshot.
    pub fn snapshot_version(&self) -> u64 {
        self.snap.version()
    }

    /// Age of the snapshot (grows while it is held).
    pub fn snapshot_age(&self) -> Duration {
        self.snap.age()
    }
}

impl Endpoint for LocalEndpoint {
    fn execute_with_budget(
        &self,
        req: Request<'_>,
        budget: &QueryBudget,
    ) -> Result<Response, EndpointError> {
        execute_on_store(&self.snap, req, budget)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

impl std::fmt::Debug for LocalEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalEndpoint")
            .field("name", &self.name)
            .field("snapshot_version", &self.snap.version())
            .field("triples", &self.snap.snapshot().len())
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
    fn prepared_paged_matches_string_pagination() {
        let ep = endpoint();
        let q = Prepared::new("SELECT ?o WHERE { ?s ?r ?o } ORDER BY ?o", &["s", "r"]).unwrap();
        let args = [Term::iri("e:a"), Term::iri("r:p")];
        // The store holds two matches, so 3 is past the end.
        let bounds = [None, Some(0), Some(1), Some(2), Some(3)];
        for limit in bounds {
            for offset in bounds {
                let page = ep.select_prepared_paged(&q, &args, limit, offset).unwrap();
                let text = q.render_paged(&args, limit, offset).unwrap();
                assert_eq!(
                    page,
                    ep.select(&text).unwrap(),
                    "limit {limit:?} offset {offset:?}"
                );
                let rest = 2usize.saturating_sub(offset.unwrap_or(0));
                assert_eq!(page.len(), rest.min(limit.unwrap_or(usize::MAX)));
            }
        }
        let oracle = ep
            .select("SELECT ?o WHERE { <e:a> <r:p> ?o } ORDER BY ?o LIMIT 1 OFFSET 1")
            .unwrap();
        assert_eq!(
            ep.select_prepared_paged(&q, &args, Some(1), Some(1))
                .unwrap(),
            oracle
        );
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
