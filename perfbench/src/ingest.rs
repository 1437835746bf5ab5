//! `ingest-under-query`: writes and reads against one `HttpServer`.
//!
//! `/ingest` feeds a `SharedIngestor` over a `SnapshotStore` preloaded
//! with kb2 (publish every 256 triples, no interval trigger, a sliding
//! window so the live size stays flat). One writer runs an open loop of
//! 256-triple N-Triples posts at 10 per second; each post is timed from
//! when it was due, then one `/query` ASK must see the batch. One reader
//! sends closed-loop 16-probe prepared batches to `/query` and checks
//! every answer against a `LocalEndpoint` over kb2.

use crate::report::Values;
use crate::stats::{ratio, Samples};
use crate::trace::{durations, Metered, Span, TracedSink, Tracer};
use crate::{net_layers, Checks, Ctx, PairInput, Phase, Rng, Tails, Workload};
use sofya_endpoint::{CatchUp, Endpoint, LocalEndpoint, Request, Response, SnapshotStore};
use sofya_net::http::{read_response, write_request};
use sofya_net::{
    parse_ingest_body, HttpServer, IngestSink, Json, RemoteConfig, RemoteEndpoint, ServerConfig,
};
use sofya_rdf::Term;
use sofya_sparql::Prepared;
use sofya_stream::{IngestorConfig, SharedIngestor, StreamIngestor};
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const BATCH_TRIPLES: usize = 256;
const POST_INTERVAL: Duration = Duration::from_millis(100);
/// Published ingested triples older than this are removed again.
const WINDOW: Duration = Duration::from_secs(1);
/// Untimed load before measuring, long enough to fill the window.
const WARM_UP: Duration = Duration::from_millis(1500);
const PROBE_BATCHES: usize = 64;
const PROBES_PER_KIND: usize = 8;
/// Publish deltas kept; `stream.delta_mutations_per_publish` averages
/// over the last [`DELTA_SPAN`] of them.
const DELTA_RING: usize = 128;
const DELTA_SPAN: usize = 100;
/// Posts cycle through this many subject sets, so the dictionary stops
/// growing; a set has left the window long before it is reused.
const SUBJECT_SETS: u64 = 32;

/// One reader request: 8 ASK probes and 8 object lookups.
struct ProbeBatch {
    asks: Vec<Vec<Term>>,
    selects: Vec<Vec<Term>>,
}

struct Templates {
    ask: Prepared,
    select: Prepared,
}

impl Templates {
    fn new() -> Result<Self, String> {
        Ok(Self {
            ask: Prepared::new("ASK { ?s ?r ?o }", &["s", "r", "o"]).map_err(|e| e.to_string())?,
            select: Prepared::new("SELECT ?o WHERE { ?s ?r ?o } ORDER BY ?o", &["s", "r"])
                .map_err(|e| e.to_string())?,
        })
    }

    fn request<'a>(&'a self, batch: &'a ProbeBatch) -> Request<'a> {
        let mut leaves = Vec::with_capacity(2 * PROBES_PER_KIND);
        for (ask, select) in batch.asks.iter().zip(&batch.selects) {
            leaves.push(Request::PreparedAsk {
                prepared: &self.ask,
                args: ask,
            });
            leaves.push(Request::PreparedSelect {
                prepared: &self.select,
                args: select,
            });
        }
        Request::Batch(leaves)
    }
}

pub struct IngestBench {
    tracer: Arc<Tracer>,
    name: String,
    shared: Arc<SharedIngestor>,
    server: Option<HttpServer>,
    templates: Templates,
    probes: Vec<ProbeBatch>,
    expected: Vec<Response>,
    predicates: Vec<Term>,
    objects: Vec<Term>,
    rng: Rng,
    next_batch: u64,
    checks: Checks,
    /// Last phase: visibility times, lateness, posted bodies, epochs.
    last_visible: Samples,
    last_late_ms: f64,
    last_bodies: Vec<String>,
    last_epochs: Vec<u64>,
}

/// What the writer saw during one phase.
#[derive(Default)]
struct WriterPhase {
    ack: Samples,
    visible: Samples,
    late_max: Duration,
    bodies: Vec<String>,
    /// The epoch each acknowledged post was published at.
    epochs: Vec<u64>,
    checks: Checks,
}

/// What the reader saw during one phase.
#[derive(Default)]
struct ReaderPhase {
    latency: Samples,
    checks: Checks,
}

impl IngestBench {
    /// Timed set-up: load kb2, publish it behind the ingestor, and start
    /// the server.
    pub fn setup(ctx: &Ctx, input: &mut PairInput) -> Result<Self, String> {
        let name = input.pair.kb2_name().to_owned();
        let store = SnapshotStore::with_delta_capacity(input.kb2.load(), DELTA_RING);
        let ingestor = StreamIngestor::new(
            store,
            IngestorConfig {
                max_buffered: 4096,
                publish_count: BATCH_TRIPLES,
                publish_interval: None,
                window: Some(WINDOW),
            },
        );
        let shared = SharedIngestor::new(ingestor);
        let reader = shared.with(|i| i.reader(name.clone()));
        let served: Arc<dyn Endpoint> = Arc::new(Metered::new(
            reader,
            "net.server_exec",
            Arc::clone(&ctx.tracer),
        ));
        let sink: Arc<dyn IngestSink> = Arc::new(TracedSink::new(
            Arc::clone(&shared) as Arc<dyn IngestSink>,
            Arc::clone(&ctx.tracer),
        ));
        let server = HttpServer::start(
            served,
            ServerConfig {
                ingest: Some(sink),
                ..ServerConfig::default()
            },
            "127.0.0.1:0",
        )
        .map_err(|e| format!("cannot start a loopback server: {e}"))?;
        Ok(Self {
            tracer: Arc::clone(&ctx.tracer),
            name,
            shared,
            server: Some(server),
            templates: Templates::new()?,
            probes: Vec::new(),
            expected: Vec::new(),
            predicates: Vec::new(),
            objects: Vec::new(),
            rng: Rng::new(ctx.seed),
            next_batch: 0,
            checks: Checks::default(),
            last_visible: Samples::new(),
            last_late_ms: 0.0,
            last_bodies: Vec::new(),
            last_epochs: Vec::new(),
        })
    }

    fn addr(&self) -> Result<SocketAddr, String> {
        Ok(self.server.as_ref().ok_or("server already stopped")?.addr())
    }

    /// The N-Triples body of batch `k` and an ASK for its last triple:
    /// subjects outside kb2 (one of [`SUBJECT_SETS`] sets), kb2
    /// predicates, kb2 entities as objects.
    fn body(&mut self, k: u64) -> (String, String) {
        let mut body = String::with_capacity(BATCH_TRIPLES * 120);
        let mut last = String::new();
        for i in 0..BATCH_TRIPLES {
            let p = &self.predicates[self.rng.below(self.predicates.len())];
            let o = &self.objects[self.rng.below(self.objects.len())];
            let set = k % SUBJECT_SETS;
            let line = format!("<http://perfbench.invalid/ingest/{set}/{i}> {p} {o} .");
            body.push_str(&line);
            body.push('\n');
            if i + 1 == BATCH_TRIPLES {
                last = format!("ASK {{ {} }}", line.trim_end_matches(" ."));
            }
        }
        (body, last)
    }

    /// Runs the writer and the reader together for `length`.
    fn load(
        &mut self,
        length: Duration,
        keep_bodies: bool,
    ) -> Result<(WriterPhase, ReaderPhase), String> {
        let addr = self.addr()?;
        let posts = (length.as_secs_f64() / POST_INTERVAL.as_secs_f64())
            .round()
            .max(1.0) as u64;
        let batches: Vec<(String, String)> = (0..posts)
            .map(|_| {
                self.next_batch += 1;
                self.body(self.next_batch)
            })
            .collect();
        let stop = AtomicBool::new(false);
        let (probes, expected, templates) = (&self.probes, &self.expected, &self.templates);
        let name = self.name.clone();
        let tracer = &self.tracer;
        std::thread::scope(|s| {
            let reader =
                s.spawn(|| run_reader(addr, &name, tracer, templates, probes, expected, &stop));
            let writer = run_writer(addr, &name, &batches, keep_bodies);
            stop.store(true, Ordering::SeqCst);
            let reader = reader
                .join()
                .map_err(|_| "the reader thread panicked".to_owned())?;
            Ok((writer?, reader))
        })
    }
}

fn run_writer(
    addr: SocketAddr,
    name: &str,
    batches: &[(String, String)],
    keep_bodies: bool,
) -> Result<WriterPhase, String> {
    let mut out = WriterPhase::default();
    let mut conn = connect(addr)?;
    let asker = RemoteEndpoint::with_config(
        name.to_owned(),
        addr,
        RemoteConfig {
            client_id: "writer".to_owned(),
            ..RemoteConfig::default()
        },
    );
    let start = Instant::now() + Duration::from_millis(5);
    for (k, (body, ask)) in batches.iter().enumerate() {
        let due = start + POST_INTERVAL * k as u32;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        out.late_max = out
            .late_max
            .max(Instant::now().saturating_duration_since(due));
        match post_ingest(&mut conn, body.as_bytes()) {
            Ok(epoch) => {
                out.epochs.push(epoch);
                out.checks.pass();
            }
            Err(e) => {
                out.checks
                    .fail(format!("POST /ingest of batch {k} failed: {e}"));
                conn = connect(addr)?;
                continue;
            }
        }
        out.ack.push(due.elapsed());
        match asker.execute(Request::Ask { query: ask }) {
            Ok(Response::Boolean(true)) => {
                out.visible.push(due.elapsed());
                out.checks.pass();
            }
            other => out.checks.fail(format!(
                "acknowledged batch {k} is not visible to /query: {other:?}"
            )),
        }
        if keep_bodies {
            out.bodies.push(body.clone());
        }
    }
    Ok(out)
}

fn run_reader(
    addr: SocketAddr,
    name: &str,
    tracer: &Arc<Tracer>,
    templates: &Templates,
    probes: &[ProbeBatch],
    expected: &[Response],
    stop: &AtomicBool,
) -> ReaderPhase {
    let mut out = ReaderPhase::default();
    let remote = Metered::new(
        RemoteEndpoint::with_config(
            name.to_owned(),
            addr,
            RemoteConfig {
                client_id: "reader".to_owned(),
                ..RemoteConfig::default()
            },
        ),
        "net.rtt",
        Arc::clone(tracer),
    )
    .with_latency();
    let mut j = 0;
    while !stop.load(Ordering::SeqCst) {
        match remote.execute(templates.request(&probes[j])) {
            Ok(response) => out.checks.check(response == expected[j], || {
                format!("probe batch {j} answered differently from the LocalEndpoint reference")
            }),
            Err(e) => out.checks.fail(format!("probe batch {j} failed: {e}")),
        }
        j = (j + 1) % probes.len();
    }
    out.latency = remote.take_stats().latency;
    out
}

fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    stream
        .set_nodelay(true)
        .and_then(|()| stream.set_read_timeout(Some(Duration::from_secs(30))))
        .map_err(|e| format!("cannot configure the ingest connection: {e}"))?;
    Ok(stream)
}

/// One `POST /ingest`; succeeds on `202` with the publish epoch.
fn post_ingest(conn: &mut TcpStream, body: &[u8]) -> Result<u64, String> {
    let headers = [
        ("Host", "sofya"),
        ("X-Client", "writer"),
        ("Content-Type", "application/n-triples"),
    ];
    write_request(conn, "POST", "/ingest", &headers, body).map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(conn.try_clone().map_err(|e| e.to_string())?);
    let response = read_response(&mut reader).map_err(|e| e.to_string())?;
    if response.status == 202 {
        let text = String::from_utf8_lossy(&response.body);
        Json::parse(text.trim())
            .ok()
            .and_then(|j| j.get("epoch").and_then(Json::as_uint))
            .ok_or_else(|| format!("202 without an epoch: {text}"))
    } else {
        Err(format!(
            "HTTP {}: {}",
            response.status,
            String::from_utf8_lossy(&response.body).trim()
        ))
    }
}

impl Workload for IngestBench {
    fn tails(&self) -> Tails {
        // 10 posts a second; the reader sends hundreds a second.
        Tails {
            op: 0.95,
            read: 0.99,
        }
    }

    fn prepare(&mut self, ctx: &Ctx) -> Result<(), String> {
        let local = LocalEndpoint::new(
            self.name.clone(),
            self.shared.with(|i| i.snapshot_store().store().clone()),
        );
        let store = local.store();
        let dict = store.dict();
        let same_as = ctx.pair_config().same_as_iri;
        let mut predicates: Vec<Term> = store
            .predicates()
            .into_iter()
            .map(|p| dict.resolve(p).clone())
            .filter(|p| *p != Term::iri(&same_as))
            .collect();
        predicates.sort_by_key(|t| t.to_string());
        let mut rng = Rng::new(ctx.seed ^ 0x1_6E57);
        let mut facts = Vec::new();
        let all: Vec<_> = store.iter().collect();
        while facts.len() < PROBE_BATCHES * PROBES_PER_KIND * 2 {
            let t = all[rng.below(all.len())];
            let (s, p, o) = store.resolve(t);
            if *p != Term::iri(&same_as) && !matches!(o, Term::Literal { .. }) {
                facts.push((s.clone(), p.clone(), o.clone()));
            }
        }
        self.objects = facts.iter().map(|f| f.2.clone()).collect();
        self.predicates = (0..16)
            .map(|_| predicates[rng.below(predicates.len())].clone())
            .collect();
        let mut facts = facts.into_iter();
        for _ in 0..PROBE_BATCHES {
            let mut batch = ProbeBatch {
                asks: Vec::new(),
                selects: Vec::new(),
            };
            for _ in 0..PROBES_PER_KIND {
                let (s, p, o) = facts.next().ok_or("too few probe facts")?;
                let (_, _, other) = facts.next().ok_or("too few probe facts")?;
                // Half the ASK probes hold, half almost surely do not.
                let object = if rng.below(2) == 0 { o } else { other };
                batch.asks.push(vec![s.clone(), p.clone(), object]);
                batch.selects.push(vec![s, p]);
            }
            let expected = local
                .execute(self.templates.request(&batch))
                .map_err(|e| format!("reference probe failed: {e}"))?;
            self.probes.push(batch);
            self.expected.push(expected);
        }
        let (writer, reader) = self.load(WARM_UP, false)?;
        self.checks.merge(writer.checks);
        self.checks.merge(reader.checks);
        Ok(())
    }

    fn measure(&mut self, seconds: f64) -> Result<Phase, String> {
        let traced = self.tracer.is_active();
        let started = Instant::now();
        let (writer, reader) = self.load(Duration::from_secs_f64(seconds), traced)?;
        let elapsed = started.elapsed().as_secs_f64();
        self.checks.merge(writer.checks);
        self.checks.merge(reader.checks);
        self.last_visible = writer.visible;
        self.last_late_ms = writer.late_max.as_secs_f64() * 1e3;
        self.last_bodies = writer.bodies;
        self.last_epochs = writer.epochs;
        Ok(Phase {
            seconds: elapsed,
            op: writer.ack,
            read: reader.latency,
            ..Phase::default()
        })
    }

    fn layers(&mut self, spans: &[Span], _phase: &Phase) -> Result<Values, String> {
        let mut v = Values::new();
        let sink = durations(spans, "stream.sink");
        v.insert("stream.sink_ms_p50", sink.quantile_ms(0.5));
        v.insert("stream.sink_ms_p99", sink.quantile_ms(0.99));
        let from = self.last_epochs[self.last_epochs.len().saturating_sub(DELTA_SPAN)..]
            .first()
            .copied()
            .ok_or("no acknowledged post in the traced phase")?;
        let (live, deltas) = self.shared.with(|i| {
            (
                i.snapshot_store().current().snapshot().store().len(),
                i.delta_log().deltas_since(from),
            )
        });
        v.insert("stream.live_triples", live as f64);
        let CatchUp::Deltas(deltas) = deltas else {
            return Err(format!("the delta ring no longer reaches epoch {from}"));
        };
        let mutations: u64 = deltas
            .iter()
            .flat_map(|d| d.predicates.iter().map(|p| p.inserts + p.removes))
            .sum();
        v.insert(
            "stream.delta_mutations_per_publish",
            ratio(mutations as f64, deltas.len() as f64),
        );
        let mut parse = Samples::new();
        for body in &self.last_bodies {
            let started = Instant::now();
            let triples = parse_ingest_body(body).map_err(|e| format!("replayed body: {e}"))?;
            parse.push(started.elapsed());
            std::hint::black_box(triples);
        }
        v.insert("net.ingest_parse_us_p50", parse.quantile_us(0.5));
        v.insert("ingest.visible_p99_ms", self.last_visible.quantile_ms(0.99));
        v.insert("ingest.generator_late_ms_max", self.last_late_ms);
        let server = self.server.as_ref().ok_or("server already stopped")?;
        net_layers(&mut v, spans, &[server.metrics()]);
        Ok(v)
    }

    fn checks(&mut self) -> &mut Checks {
        &mut self.checks
    }

    fn finish(mut self: Box<Self>) -> Result<(), String> {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        Ok(())
    }
}
