//! Typed builders for the query shapes SOFYA issues.
//!
//! Keeping the SPARQL strings in one place makes the algorithms in
//! `sofya-core` read like the paper's pseudo-code and guarantees every
//! data access goes through the [`Endpoint`] trait (and therefore through
//! the quota/instrumentation wrappers).

use crate::endpoint::{Endpoint, EndpointExt, Request};
use crate::error::EndpointError;
use sofya_rdf::Term;
use sofya_sparql::Prepared;
use std::sync::OnceLock;

/// Lazily parses a static prepared template exactly once per process.
/// The aligner's hot probes (per sampled pair / per discovered fact) go
/// through these instead of `format!` + parse on every call.
fn prepared(
    cell: &'static OnceLock<Prepared>,
    template: &'static str,
    params: &'static [&'static str],
) -> &'static Prepared {
    // sofya: allow(panic_path) — init-time parse of a compiled-in template; exercised by every test run
    cell.get_or_init(|| Prepared::new(template, params).expect("static template parses"))
}

/// All distinct relation IRIs of the KB.
pub fn all_relations<E: Endpoint + ?Sized>(ep: &E) -> Result<Vec<String>, EndpointError> {
    let rs = ep.select("SELECT DISTINCT ?p WHERE { ?s ?p ?o } ORDER BY ?p")?;
    Ok(rs
        .column("p")
        .into_iter()
        .filter_map(|t| t.as_iri().map(str::to_owned))
        .collect())
}

/// A page of facts `r(x, y)`, ordered deterministically. The page bounds
/// ride through [`EndpointExt::select_prepared_paged`], so in-process
/// endpoints never parse a per-page query string.
pub fn relation_facts_page<E: Endpoint + ?Sized>(
    ep: &E,
    relation: &str,
    limit: usize,
    offset: usize,
) -> Result<Vec<(Term, Term)>, EndpointError> {
    static Q: OnceLock<Prepared> = OnceLock::new();
    let q = prepared(&Q, "SELECT ?x ?y WHERE { ?x ?r ?y } ORDER BY ?x ?y", &["r"]);
    let rs = ep.select_prepared_paged(q, &[Term::iri(relation)], Some(limit), Some(offset))?;
    Ok(rs
        .into_parts()
        .1
        .into_iter()
        .filter_map(|row| {
            let mut cells = row.into_iter();
            Some((cells.next()??, cells.next()??))
        })
        .collect())
}

/// A page of facts `r(x, y)` where **both** `x` and `y` carry `sameAs`
/// links (entity–entity sampling, §2.2 of the paper: facts without links
/// are ignored so incompleteness is not punished).
///
/// Returns `(x, y, x', y')` with `x'`, `y'` the linked identifiers in the
/// other KB.
pub fn linked_entity_facts_page<E: Endpoint + ?Sized>(
    ep: &E,
    relation: &str,
    same_as: &str,
    limit: usize,
    offset: usize,
) -> Result<Vec<(Term, Term, Term, Term)>, EndpointError> {
    static Q: OnceLock<Prepared> = OnceLock::new();
    let q = prepared(
        &Q,
        "SELECT ?x ?y ?x2 ?y2 WHERE { ?x ?r ?y . ?x ?sa ?x2 . ?y ?sa ?y2 } ORDER BY ?x ?y",
        &["r", "sa"],
    );
    let rs = ep.select_prepared_paged(
        q,
        &[Term::iri(relation), Term::iri(same_as)],
        Some(limit),
        Some(offset),
    )?;
    Ok(rs
        .into_parts()
        .1
        .into_iter()
        .filter_map(|row| {
            let mut cells = row.into_iter();
            Some((
                cells.next()??,
                cells.next()??,
                cells.next()??,
                cells.next()??,
            ))
        })
        .collect())
}

/// A page of literal facts `r(x, v)` where `x` carries a `sameAs` link.
/// Returns `(x, v, x')`.
pub fn linked_literal_facts_page<E: Endpoint + ?Sized>(
    ep: &E,
    relation: &str,
    same_as: &str,
    limit: usize,
    offset: usize,
) -> Result<Vec<(Term, Term, Term)>, EndpointError> {
    static Q: OnceLock<Prepared> = OnceLock::new();
    let q = prepared(
        &Q,
        "SELECT ?x ?v ?x2 WHERE { ?x ?r ?v . ?x ?sa ?x2 . FILTER(ISLITERAL(?v)) } ORDER BY ?x ?v",
        &["r", "sa"],
    );
    let rs = ep.select_prepared_paged(
        q,
        &[Term::iri(relation), Term::iri(same_as)],
        Some(limit),
        Some(offset),
    )?;
    Ok(rs
        .into_parts()
        .1
        .into_iter()
        .filter_map(|row| {
            let mut cells = row.into_iter();
            Some((cells.next()??, cells.next()??, cells.next()??))
        })
        .collect())
}

/// Count of `sameAs`-linked facts of `relation` (the denominator for
/// paging through [`linked_entity_facts_page`]).
pub fn linked_entity_fact_count<E: Endpoint + ?Sized>(
    ep: &E,
    relation: &str,
    same_as: &str,
) -> Result<usize, EndpointError> {
    static Q: OnceLock<Prepared> = OnceLock::new();
    let q = prepared(
        &Q,
        "SELECT ?x ?y ?x2 ?y2 WHERE { ?x ?r ?y . ?x ?sa ?x2 . ?y ?sa ?y2 }",
        &["r", "sa"],
    );
    Ok(ep.count_prepared(q, &[Term::iri(relation), Term::iri(same_as)])? as usize)
}

/// Count of subject-linked literal facts of `relation`.
pub fn linked_literal_fact_count<E: Endpoint + ?Sized>(
    ep: &E,
    relation: &str,
    same_as: &str,
) -> Result<usize, EndpointError> {
    static Q: OnceLock<Prepared> = OnceLock::new();
    let q = prepared(
        &Q,
        "SELECT ?x ?v ?x2 WHERE { ?x ?r ?v . ?x ?sa ?x2 . FILTER(ISLITERAL(?v)) }",
        &["r", "sa"],
    );
    Ok(ep.count_prepared(q, &[Term::iri(relation), Term::iri(same_as)])? as usize)
}

/// Distinct relations of an entity (in subject position).
pub fn relations_of_entity<E: Endpoint + ?Sized>(
    ep: &E,
    entity: &str,
) -> Result<Vec<String>, EndpointError> {
    static Q: OnceLock<Prepared> = OnceLock::new();
    let q = prepared(
        &Q,
        "SELECT DISTINCT ?p WHERE { ?x ?p ?o } ORDER BY ?p",
        &["x"],
    );
    let rs = ep.select_prepared(q, &[Term::iri(entity)])?;
    Ok(rs
        .column("p")
        .into_iter()
        .filter_map(|t| t.as_iri().map(str::to_owned))
        .collect())
}

/// Distinct relations holding **between** two given entities.
pub fn relations_between<E: Endpoint + ?Sized>(
    ep: &E,
    subject: &str,
    object: &str,
) -> Result<Vec<String>, EndpointError> {
    static Q: OnceLock<Prepared> = OnceLock::new();
    let q = prepared(
        &Q,
        "SELECT DISTINCT ?p WHERE { ?s ?p ?o } ORDER BY ?p",
        &["s", "o"],
    );
    let rs = ep.select_prepared(q, &[Term::iri(subject), Term::iri(object)])?;
    Ok(rs
        .column("p")
        .into_iter()
        .filter_map(|t| t.as_iri().map(str::to_owned))
        .collect())
}

/// The shared `objects_of` template, used by both the single-subject
/// probe and the batched variant so prepared-plan and response caches
/// agree on the query identity.
fn objects_template() -> &'static Prepared {
    static Q: OnceLock<Prepared> = OnceLock::new();
    prepared(&Q, "SELECT ?y WHERE { ?s ?r ?y } ORDER BY ?y", &["s", "r"])
}

/// All objects `y` of `r(x, y)` for a fixed subject.
pub fn objects_of<E: Endpoint + ?Sized>(
    ep: &E,
    subject: &str,
    relation: &str,
) -> Result<Vec<Term>, EndpointError> {
    let rs = ep.select_prepared(
        objects_template(),
        &[Term::iri(subject), Term::iri(relation)],
    )?;
    Ok(rs.column("y").into_iter().cloned().collect())
}

/// The objects `y` of `r(x, y)` for **many** subjects at once, issued as
/// a single [`Request::Batch`] — one round trip (and, on a
/// [`crate::ConcurrentEndpoint`], one snapshot pin) for a whole probe
/// set, where per-subject [`objects_of`] calls would pay one each. The
/// returned object lists are positionally aligned with `subjects`.
///
/// This is the aligner's evidence hot path: one relation's sampled
/// subjects cost O(1) round trips instead of O(subjects), which is what
/// makes alignment viable against a remote endpoint at real RTTs.
pub fn objects_of_batch<E: Endpoint + ?Sized>(
    ep: &E,
    subjects: &[&str],
    relation: &str,
) -> Result<Vec<Vec<Term>>, EndpointError> {
    if subjects.is_empty() {
        return Ok(Vec::new());
    }
    let template = objects_template();
    let args: Vec<[Term; 2]> = subjects
        .iter()
        .map(|s| [Term::iri(*s), Term::iri(relation)])
        .collect();
    let requests: Vec<Request<'_>> = args
        .iter()
        .map(|a| Request::PreparedSelect {
            prepared: template,
            args: a,
        })
        .collect();
    let responses = ep.execute(Request::Batch(requests))?.into_batch()?;
    responses
        .into_iter()
        .map(|resp| {
            let (vars, rows) = resp.into_rows()?.into_parts();
            debug_assert_eq!(vars.as_slice(), ["y".to_owned()]);
            Ok(rows
                .into_iter()
                .filter_map(|row| row.into_iter().next().flatten())
                .collect())
        })
        .collect()
}

/// Existence probe `ASK { s r o }`.
pub fn has_fact<E: Endpoint + ?Sized>(
    ep: &E,
    subject: &str,
    relation: &str,
    object: &Term,
) -> Result<bool, EndpointError> {
    static Q: OnceLock<Prepared> = OnceLock::new();
    let q = prepared(&Q, "ASK { ?s ?r ?o }", &["s", "r", "o"]);
    ep.ask_prepared(
        q,
        &[Term::iri(subject), Term::iri(relation), object.clone()],
    )
}

/// The `sameAs` images of an entity.
pub fn same_as_of<E: Endpoint + ?Sized>(
    ep: &E,
    entity: &str,
    same_as: &str,
) -> Result<Vec<String>, EndpointError> {
    static Q: OnceLock<Prepared> = OnceLock::new();
    let q = prepared(
        &Q,
        "SELECT ?e WHERE { ?x ?sa ?e } ORDER BY ?e",
        &["x", "sa"],
    );
    let rs = ep.select_prepared(q, &[Term::iri(entity), Term::iri(same_as)])?;
    Ok(rs
        .column("e")
        .into_iter()
        .filter_map(|t| t.as_iri().map(str::to_owned))
        .collect())
}

/// UBS discriminating sample (§2.2): subjects `x` with `r1(x, y1)`,
/// `r2(x, y2)`, `y1 ≠ y2` and **not** `r1(x, y2)`, joined with `sameAs`
/// so every returned sample is guaranteed translatable into the other
/// KB. Returns `(x', y1', y2')` — the *translated* identifiers.
pub fn linked_contrastive_subjects_page<E: Endpoint + ?Sized>(
    ep: &E,
    r1: &str,
    r2: &str,
    same_as: &str,
    limit: usize,
    offset: usize,
) -> Result<Vec<(Term, Term, Term)>, EndpointError> {
    static Q: OnceLock<Prepared> = OnceLock::new();
    let q = prepared(
        &Q,
        "SELECT ?xt ?y1t ?y2t WHERE { ?x ?r1 ?y1 . ?x ?r2 ?y2 . \
         ?x ?sa ?xt . ?y1 ?sa ?y1t . ?y2 ?sa ?y2t . \
         FILTER(?y1 != ?y2) . FILTER NOT EXISTS { ?x ?r1 ?y2 } } \
         ORDER BY ?xt ?y1t ?y2t",
        &["r1", "r2", "sa"],
    );
    let rs = ep.select_prepared_paged(
        q,
        &[Term::iri(r1), Term::iri(r2), Term::iri(same_as)],
        Some(limit),
        Some(offset),
    )?;
    Ok(rs
        .into_parts()
        .1
        .into_iter()
        .filter_map(|row| {
            let mut cells = row.into_iter();
            Some((cells.next()??, cells.next()??, cells.next()??))
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::LocalEndpoint;
    use sofya_rdf::{Term, TripleStore};

    fn movie_endpoint() -> LocalEndpoint {
        let mut store = TripleStore::new();
        let facts = [
            ("m:inception", "r:director", "p:nolan"),
            ("m:inception", "r:producer", "p:thomas"),
            ("m:inception", "r:producer", "p:nolan"),
            ("m:tenet", "r:director", "p:nolan"),
            ("m:tenet", "r:producer", "p:thomas"),
        ];
        for (s, p, o) in facts {
            store.insert_terms(&Term::iri(s), &Term::iri(p), &Term::iri(o));
        }
        store.insert_terms(
            &Term::iri("m:inception"),
            &Term::iri("owl:sameAs"),
            &Term::iri("d:Inception"),
        );
        store.insert_terms(
            &Term::iri("p:nolan"),
            &Term::iri("owl:sameAs"),
            &Term::iri("d:Nolan"),
        );
        store.insert_terms(
            &Term::iri("m:inception"),
            &Term::iri("r:label"),
            &Term::literal("Inception"),
        );
        LocalEndpoint::new("movies", store)
    }

    #[test]
    fn all_relations_lists_predicates() {
        let ep = movie_endpoint();
        let rels = all_relations(&ep).unwrap();
        assert_eq!(
            rels,
            vec!["owl:sameAs", "r:director", "r:label", "r:producer"]
        );
    }

    #[test]
    fn relation_facts_page_paginates() {
        let ep = movie_endpoint();
        let all = relation_facts_page(&ep, "r:producer", 100, 0).unwrap();
        assert_eq!(all.len(), 3);
        let page = relation_facts_page(&ep, "r:producer", 2, 1).unwrap();
        assert_eq!(page.len(), 2);
        assert_eq!(page[0], all[1]);
    }

    #[test]
    fn linked_entity_facts_require_both_links() {
        let ep = movie_endpoint();
        // Only inception→nolan has sameAs on both subject and object, and
        // both r:director and r:producer connect them.
        let dir = linked_entity_facts_page(&ep, "r:director", "owl:sameAs", 10, 0).unwrap();
        assert_eq!(dir.len(), 1);
        let (x, y, x2, y2) = &dir[0];
        assert_eq!(x.as_iri(), Some("m:inception"));
        assert_eq!(y.as_iri(), Some("p:nolan"));
        assert_eq!(x2.as_iri(), Some("d:Inception"));
        assert_eq!(y2.as_iri(), Some("d:Nolan"));
        assert_eq!(
            linked_entity_fact_count(&ep, "r:director", "owl:sameAs").unwrap(),
            1
        );
    }

    #[test]
    fn linked_literal_facts() {
        let ep = movie_endpoint();
        let labels = linked_literal_facts_page(&ep, "r:label", "owl:sameAs", 10, 0).unwrap();
        assert_eq!(labels.len(), 1);
        assert_eq!(labels[0].1.as_literal(), Some("Inception"));
    }

    #[test]
    fn relations_of_and_between() {
        let ep = movie_endpoint();
        let rels = relations_of_entity(&ep, "m:inception").unwrap();
        assert!(rels.contains(&"r:director".to_owned()));
        assert!(rels.contains(&"r:label".to_owned()));
        let between = relations_between(&ep, "m:inception", "p:nolan").unwrap();
        assert_eq!(between, vec!["r:director", "r:producer"]);
    }

    #[test]
    fn objects_and_existence() {
        let ep = movie_endpoint();
        let objs = objects_of(&ep, "m:inception", "r:producer").unwrap();
        assert_eq!(objs.len(), 2);
        assert!(has_fact(&ep, "m:inception", "r:director", &Term::iri("p:nolan")).unwrap());
        assert!(!has_fact(&ep, "m:tenet", "r:director", &Term::iri("p:thomas")).unwrap());
    }

    #[test]
    fn objects_of_batch_matches_per_subject_probes_in_one_request() {
        let ep = std::sync::Arc::new(movie_endpoint());
        let counted = crate::InstrumentedEndpoint::new(ep.clone());
        let subjects = ["m:inception", "m:tenet", "m:missing"];
        let batched = objects_of_batch(&counted, &subjects, "r:producer").unwrap();
        assert_eq!(batched.len(), 3);
        for (subject, objects) in subjects.iter().zip(&batched) {
            assert_eq!(
                objects,
                &objects_of(ep.as_ref(), subject, "r:producer").unwrap()
            );
        }
        assert!(batched[2].is_empty());
        // The whole probe set travelled as ONE batch request.
        assert_eq!(counted.counters().batches(), 1);
        assert_eq!(
            objects_of_batch(ep.as_ref(), &[], "r:producer")
                .unwrap()
                .len(),
            0
        );
    }

    #[test]
    fn same_as_resolution() {
        let ep = movie_endpoint();
        assert_eq!(
            same_as_of(&ep, "m:inception", "owl:sameAs").unwrap(),
            vec!["d:Inception"]
        );
        assert!(same_as_of(&ep, "m:tenet", "owl:sameAs").unwrap().is_empty());
    }
}
