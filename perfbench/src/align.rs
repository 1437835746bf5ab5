//! `align-local` and `align-federated`: cold alignment of every relation
//! of the pair, in both directions, one fresh `Aligner` per relation.
//!
//! Both read published snapshots through `ConcurrentEndpoint`. In
//! `align-federated` the target KB of each alignment (where the batched
//! evidence probes land) sits behind an `HttpServer` on loopback and is
//! reached through `RemoteEndpoint`; two closed-loop clients, each with
//! its own connections, align disjoint halves of the relation list.

use crate::report::Values;
use crate::stats::{median, ratio, Samples};
use crate::trace::{
    close, durations, sampled_ns, self_times, CallStats, Metered, Sampler, Span, Tracer,
};
use crate::{net_layers, Checks, Ctx, KbSize, PairInput, Phase, Tails, Workload};
use sofya_core::{Aligner, AlignerConfig, SubsumptionRule};
use sofya_endpoint::{ConcurrentEndpoint, Endpoint, LocalEndpoint, Request, SnapshotStore};
use sofya_eval::{evaluate_rules, PrecisionRecall};
use sofya_kbgen::AlignmentGold;
use sofya_net::wire::{envelope_from_json, envelope_to_json};
use sofya_net::{HttpServer, Json, RemoteConfig, RemoteEndpoint, ServerConfig, WireRequest};
use sofya_sparql::{execute_ast_with_options, parse_query, PlanOptions};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Local endpoint calls between two captured for the SPARQL replay.
const CAPTURE_EVERY: u64 = 32;
/// Remote calls between two codec measurements.
const CODEC_EVERY: u64 = 16;
/// Bound on captured calls kept for the replay.
const MAX_CAPTURES: usize = 20_000;

/// Which KB of the pair an alignment targets (its relations get aligned).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kb {
    One = 0,
    Two = 1,
}

#[derive(Debug)]
struct Item {
    target: Kb,
    relation: String,
    literal: bool,
}

/// One local call captured for the SPARQL replay.
struct Captured {
    kb: Kb,
    exec_ns: u64,
    leaves: Vec<String>,
}

/// One remote call pushed through the wire codec.
struct Codec {
    ns: u64,
    request_bytes: usize,
    response_bytes: usize,
}

type Ep = Metered<Arc<dyn Endpoint>>;

struct Client {
    items: Vec<usize>,
    cursor: usize,
    ops: u64,
    id: u64,
    /// Indexed by [`Kb`]: the endpoint of that KB when it is the source.
    sources: [Ep; 2],
    /// Indexed by [`Kb`]: the endpoint of that KB when it is the target.
    targets: [Ep; 2],
    latest: HashMap<usize, Vec<SubsumptionRule>>,
}

/// What a client saw during one phase.
#[derive(Default)]
struct ClientPhase {
    op: Samples,
    entity: Samples,
    literal: Samples,
    checks: Checks,
}

/// Read-only state every client shares.
struct Shared<'a> {
    items: &'a [Item],
    reference: &'a [Vec<SubsumptionRule>],
    config: &'a AlignerConfig,
    tracer: &'a Arc<Tracer>,
}

impl Client {
    fn endpoints(&self, target: Kb) -> (&Ep, &Ep) {
        let source = match target {
            Kb::One => Kb::Two,
            Kb::Two => Kb::One,
        };
        (
            &self.sources[source as usize],
            &self.targets[target as usize],
        )
    }

    /// Aligns relations in order, closed loop, until `deadline`; with no
    /// deadline, aligns each of its relations once.
    fn run(&mut self, shared: &Shared<'_>, deadline: Option<Instant>) -> ClientPhase {
        let mut out = ClientPhase::default();
        let mut remaining = self.items.len();
        loop {
            match deadline {
                Some(d) if Instant::now() >= d => break,
                None if remaining == 0 => break,
                _ => {}
            }
            remaining = remaining.saturating_sub(1);
            let index = self.items[self.cursor];
            self.cursor = (self.cursor + 1) % self.items.len();
            let item = &shared.items[index];
            self.ops += 1;
            let (source, target) = self.endpoints(item.target);
            let span = shared.tracer.open("core.align", (self.id << 40) | self.ops);
            let sampled = sampled_ns();
            let started = Instant::now();
            let result =
                Aligner::new(source, target, shared.config.clone()).align_relation(&item.relation);
            // Without the time the traced half's samplers took.
            let elapsed = started
                .elapsed()
                .saturating_sub(Duration::from_nanos(sampled_ns() - sampled));
            close(span, 1);
            out.op.push(elapsed);
            if item.literal {
                out.literal.push(elapsed);
            } else {
                out.entity.push(elapsed);
            }
            match result {
                Ok(rules) => {
                    out.checks
                        .check(same_rules(&rules, &shared.reference[index]), || {
                            format!(
                                "rules for {} differ from the LocalEndpoint reference",
                                item.relation
                            )
                        });
                    self.latest.insert(index, rules);
                }
                Err(e) => out
                    .checks
                    .fail(format!("aligning {} failed: {e}", item.relation)),
            }
        }
        out
    }

    /// Call accounting of every endpoint, and the latencies of the
    /// target calls (the only ones kept).
    fn take_stats(&self) -> (CallStats, Samples) {
        let mut all = CallStats::default();
        for ep in self.sources.iter().chain(&self.targets) {
            all.merge(ep.take_stats());
        }
        let target_latency = std::mem::take(&mut all.latency);
        (all, target_latency)
    }
}

/// Bit-identical rule lists (confidence compared by its bits).
fn same_rules(a: &[SubsumptionRule], b: &[SubsumptionRule]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.premise == y.premise
                && x.conclusion == y.conclusion
                && x.confidence.to_bits() == y.confidence.to_bits()
                && x.support == y.support
                && x.sample_pairs == y.sample_pairs
                && x.measure == y.measure
                && x.literal == y.literal
        })
}

pub struct AlignBench {
    federated: bool,
    tracer: Arc<Tracer>,
    config: AlignerConfig,
    kbs: [SnapshotStore; 2],
    names: [String; 2],
    gold: AlignmentGold,
    items: Vec<Item>,
    /// The servers (federated only), each with the wrapper it serves.
    servers: Vec<(HttpServer, Arc<Metered<ConcurrentEndpoint>>)>,
    clients: Vec<Client>,
    reference: Vec<Vec<SubsumptionRule>>,
    reference_f1: f64,
    captures: Arc<Mutex<Vec<Captured>>>,
    codecs: Arc<Mutex<Vec<Codec>>>,
    checks: Checks,
    /// Last phase: per-class alignment times, call accounting, rule F1.
    last_entity: Samples,
    last_literal: Samples,
    last_calls: CallStats,
    last_f1: f64,
}

impl AlignBench {
    /// Timed set-up: load and publish both KBs, start the servers
    /// (federated), and connect the clients.
    pub fn setup(ctx: &Ctx, input: &mut PairInput, federated: bool) -> Result<Self, String> {
        let pair = &mut input.pair;
        let same_as = pair.same_as().to_owned();
        let names = [pair.kb1_name().to_owned(), pair.kb2_name().to_owned()];
        let mut items = Vec::new();
        for (target, relations) in [
            (Kb::One, &pair.kb1_relations),
            (Kb::Two, &pair.kb2_relations),
        ] {
            for relation in relations.iter().filter(|r| **r != same_as) {
                items.push(Item {
                    target,
                    relation: relation.clone(),
                    literal: false,
                });
            }
        }
        let kbs = [
            SnapshotStore::new(input.kb1.load()),
            SnapshotStore::new(input.kb2.load()),
        ];
        let tracer = &ctx.tracer;
        let mut servers = Vec::new();
        if federated {
            for (kb, name) in kbs.iter().zip(&names) {
                let served = Arc::new(Metered::new(
                    kb.reader(name.clone()),
                    "net.server_exec",
                    Arc::clone(tracer),
                ));
                let server = HttpServer::start(
                    Arc::clone(&served) as Arc<dyn Endpoint>,
                    ServerConfig::default(),
                    "127.0.0.1:0",
                )
                .map_err(|e| format!("cannot start a loopback server: {e}"))?;
                servers.push((server, served));
            }
        }
        let captures = Arc::new(Mutex::new(Vec::new()));
        let codecs = Arc::new(Mutex::new(Vec::new()));
        let n_clients: u64 = if federated { 2 } else { 1 };
        let mut clients = Vec::new();
        for id in 0..n_clients {
            let local = |kb: Kb| -> Ep {
                let reader: Arc<dyn Endpoint> = Arc::new(kb_reader(&kbs, &names, kb));
                Metered::new(reader, "endpoint.exec", Arc::clone(tracer))
                    .with_sampler(CAPTURE_EVERY, capture_sampler(kb, Arc::clone(&captures)))
            };
            let target = |kb: Kb| -> Ep {
                if federated {
                    let remote: Arc<dyn Endpoint> = Arc::new(RemoteEndpoint::with_config(
                        names[kb as usize].clone(),
                        servers[kb as usize].0.addr(),
                        RemoteConfig {
                            client_id: format!("client{id}"),
                            ..RemoteConfig::default()
                        },
                    ));
                    Metered::new(remote, "net.rtt", Arc::clone(tracer))
                        .with_sampler(CODEC_EVERY, codec_sampler(Arc::clone(&codecs)))
                        .with_latency()
                } else {
                    local(kb).with_latency()
                }
            };
            clients.push(Client {
                items: (0..items.len())
                    .filter(|i| *i as u64 % n_clients == id)
                    .collect(),
                cursor: 0,
                ops: 0,
                id,
                sources: [local(Kb::One), local(Kb::Two)],
                targets: [target(Kb::One), target(Kb::Two)],
                latest: HashMap::new(),
            });
        }
        Ok(Self {
            federated,
            tracer: Arc::clone(tracer),
            config: AlignerConfig::paper_defaults(ctx.seed),
            kbs,
            names,
            gold: std::mem::take(&mut pair.gold),
            items,
            servers,
            clients,
            reference: Vec::new(),
            reference_f1: 0.0,
            captures,
            codecs,
            checks: Checks::default(),
            last_entity: Samples::new(),
            last_literal: Samples::new(),
            last_calls: CallStats::default(),
            last_f1: 0.0,
        })
    }

    /// Precision/recall of both directions over the given rule lists.
    fn quality<'r>(
        &self,
        rules_of: impl Fn(usize) -> Option<&'r Vec<SubsumptionRule>>,
    ) -> [PrecisionRecall; 2] {
        let mut by_target: [Vec<SubsumptionRule>; 2] = [Vec::new(), Vec::new()];
        for (i, item) in self.items.iter().enumerate() {
            if let Some(rules) = rules_of(i) {
                by_target[item.target as usize].extend(rules.iter().cloned());
            }
        }
        // Rules into kb1 have their premises in kb2, and the reverse.
        [
            evaluate_rules(&by_target[0], &self.gold, &self.names[1], &self.names[0]),
            evaluate_rules(&by_target[1], &self.gold, &self.names[0], &self.names[1]),
        ]
    }

    /// Checks the reference against the kbgen gold.
    fn check_gold(&mut self, ctx: &Ctx, pr: [PrecisionRecall; 2]) {
        let counts = |p: &PrecisionRecall| (p.true_positives, p.false_positives, p.false_negatives);
        eprintln!(
            "  reference quality: {} ⊂ {}: {}; {} ⊂ {}: {}",
            self.names[1], self.names[0], pr[0], self.names[0], self.names[1], pr[1]
        );
        if ctx.kb == KbSize::Full && ctx.seed == crate::DEFAULT_SEED {
            // At the default seed: precision 1.00 both ways, recall
            // 26/44 into kb1 and 29/32 into kb2.
            let expected = [(26, 0, 18), (29, 0, 3)];
            let got = [counts(&pr[0]), counts(&pr[1])];
            self.checks.check(got == expected, || {
                format!("reference quality {got:?} differs from the gold expectation {expected:?}")
            });
        } else {
            for p in &pr {
                self.checks
                    .check(p.precision() >= 0.9 && p.recall() >= 0.4, || {
                        format!("reference quality below the floor (P >= 0.90, R >= 0.40): {p}")
                    });
            }
        }
    }
}

fn micro_f1(pr: &[PrecisionRecall; 2]) -> f64 {
    PrecisionRecall::new(
        pr[0].true_positives + pr[1].true_positives,
        pr[0].false_positives + pr[1].false_positives,
        pr[0].false_negatives + pr[1].false_negatives,
    )
    .f1()
}

fn kb_reader(kbs: &[SnapshotStore; 2], names: &[String; 2], kb: Kb) -> ConcurrentEndpoint {
    kbs[kb as usize].reader(names[kb as usize].clone())
}

fn capture_sampler(kb: Kb, captures: Arc<Mutex<Vec<Captured>>>) -> Sampler {
    Box::new(move |req, _result, elapsed| {
        let mut leaves = Vec::new();
        render_leaves(&req, &mut leaves);
        let mut captured = captures.lock().expect("capture store poisoned");
        if captured.len() < MAX_CAPTURES {
            captured.push(Captured {
                kb,
                exec_ns: u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
                leaves,
            });
        }
    })
}

fn render_leaves(req: &Request<'_>, out: &mut Vec<String>) {
    match req {
        Request::Batch(subs) => subs.iter().for_each(|s| render_leaves(s, out)),
        leaf => {
            if let Ok(text) = leaf.to_sparql() {
                out.push(text);
            }
        }
    }
}

/// Times the wire codec for one remote call: the client's request
/// encode, the server's decode, the server's response encode and the
/// client's decode, on the request and response the call carried.
fn codec_sampler(codecs: Arc<Mutex<Vec<Codec>>>) -> Sampler {
    Box::new(move |req, result, _elapsed| {
        let started = Instant::now();
        let Ok(wire) = WireRequest::from_request(&req) else {
            return;
        };
        let mut body = wire.to_json().to_text();
        body.push('\n');
        let Ok(json) = Json::parse(body.trim_end_matches('\n')) else {
            return;
        };
        let Ok(decoded) = WireRequest::from_json(&json) else {
            return;
        };
        black_box(decoded.to_request_buf());
        let mut envelope = envelope_to_json(result).to_text();
        envelope.push('\n');
        let Ok(json) = Json::parse(envelope.trim_end_matches('\n')) else {
            return;
        };
        black_box(envelope_from_json(&json).ok());
        let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        codecs.lock().expect("codec store poisoned").push(Codec {
            ns,
            request_bytes: body.len(),
            response_bytes: envelope.len(),
        });
    })
}

impl Workload for AlignBench {
    fn tails(&self) -> Tails {
        Tails {
            op: 0.99,
            read: 0.99,
        }
    }

    fn prepare(&mut self, ctx: &Ctx) -> Result<(), String> {
        // The reference: every relation aligned through LocalEndpoint on
        // clones of the stores (a clone shares the store's indexes).
        let locals = [
            LocalEndpoint::new(self.names[0].clone(), self.kbs[0].store().clone()),
            LocalEndpoint::new(self.names[1].clone(), self.kbs[1].store().clone()),
        ];
        let mut reference = Vec::with_capacity(self.items.len());
        for item in &mut self.items {
            let target = &locals[item.target as usize];
            let source = &locals[1 - item.target as usize];
            item.literal = sofya_core::discovery::relation_is_literal(target, &item.relation)
                .map_err(|e| format!("literal probe of {} failed: {e}", item.relation))?;
            let rules = Aligner::new(source, target, self.config.clone())
                .align_relation(&item.relation)
                .map_err(|e| format!("reference alignment of {} failed: {e}", item.relation))?;
            reference.push(rules);
        }
        self.reference = reference;
        let pr = self.quality(|i| self.reference.get(i));
        self.reference_f1 = micro_f1(&pr);
        self.check_gold(ctx, pr);
        // Warm-up: each client aligns its share once (checked, untimed).
        let phase = self.run_clients(None);
        for c in phase {
            self.checks.merge(c.checks);
        }
        for c in &self.clients {
            c.take_stats();
        }
        self.captures
            .lock()
            .expect("capture store poisoned")
            .clear();
        self.codecs.lock().expect("codec store poisoned").clear();
        Ok(())
    }

    fn measure(&mut self, seconds: f64) -> Result<Phase, String> {
        let started = Instant::now();
        let per_client = self.run_clients(Some(started + Duration::from_secs_f64(seconds)));
        let elapsed = started.elapsed().as_secs_f64();
        let mut phase = Phase {
            seconds: elapsed,
            ..Phase::default()
        };
        self.last_entity = Samples::new();
        self.last_literal = Samples::new();
        for c in per_client {
            phase.op.extend(c.op);
            self.last_entity.extend(c.entity);
            self.last_literal.extend(c.literal);
            self.checks.merge(c.checks);
        }
        let mut calls = CallStats::default();
        for c in &self.clients {
            let (all, target_latency) = c.take_stats();
            calls.merge(all);
            phase.read.extend(target_latency);
        }
        self.last_calls = calls;
        let pr = self.quality(|i| self.clients.iter().find_map(|c| c.latest.get(&i)));
        self.last_f1 = micro_f1(&pr);
        let (got, want) = (self.last_f1, self.reference_f1);
        self.checks.check(got.to_bits() == want.to_bits(), || {
            format!("rule F1 {got} differs from the reference {want}")
        });
        Ok(phase)
    }

    fn layers(&mut self, spans: &[Span], phase: &Phase) -> Result<Values, String> {
        let mut v = Values::new();
        let relations = phase.op.len() as f64;
        // The samplers' spans are children of `core.align`: out of its
        // self time, and out of the total the busy share divides by.
        let align_total = durations(spans, "core.align").sum_ns() as f64
            - durations(spans, "bench.sample").sum_ns() as f64;
        let align_self = self_times(spans, "core.align").sum_ns() as f64;
        v.insert(
            "core.self_ms_per_relation",
            ratio(align_self, relations) / 1e6,
        );
        v.insert(
            "core.entity_relation_ms_p50",
            self.last_entity.quantile_ms(0.5),
        );
        v.insert(
            "core.literal_relation_ms_p50",
            self.last_literal.quantile_ms(0.5),
        );
        v.insert(
            "endpoint.exec_us_p50",
            durations(spans, "endpoint.exec").quantile_us(0.5),
        );
        v.insert(
            "endpoint.exec_busy_share",
            1.0 - ratio(align_self, align_total),
        );
        let c = &self.last_calls;
        v.insert(
            "endpoint.select_calls_per_relation",
            ratio(c.select_calls as f64, relations),
        );
        v.insert(
            "endpoint.ask_calls_per_relation",
            ratio(c.ask_calls as f64, relations),
        );
        v.insert(
            "endpoint.count_calls_per_relation",
            ratio(c.count_calls as f64, relations),
        );
        v.insert(
            "endpoint.batch_calls_per_relation",
            ratio(c.batch_calls as f64, relations),
        );
        v.insert(
            "endpoint.batch_leaves_per_call",
            ratio(c.batch_leaves as f64, c.batch_calls as f64),
        );
        v.insert(
            "endpoint.rows_per_call",
            ratio(c.rows as f64, c.calls as f64),
        );
        v.insert(
            "align.queries_per_relation",
            ratio(c.leaves as f64, relations),
        );
        v.insert("align.rows_per_relation", ratio(c.rows as f64, relations));
        v.insert("align.rule_f1", self.last_f1);
        self.replay(&mut v)?;
        if self.federated {
            let reports: Vec<_> = self.servers.iter().map(|(s, _)| s.metrics()).collect();
            net_layers(&mut v, spans, &reports);
            let codecs = std::mem::take(&mut *self.codecs.lock().expect("codec store poisoned"));
            let codec_us = median(&codecs.iter().map(|c| c.ns as f64 / 1e3).collect::<Vec<_>>());
            v.insert("net.codec_us_p50", codec_us);
            v.insert("net.transport_us_p50", v["net.overhead_us_p50"] - codec_us);
            let n = codecs.len() as f64;
            v.insert(
                "net.request_bytes_per_call",
                ratio(codecs.iter().map(|c| c.request_bytes as f64).sum(), n),
            );
            v.insert(
                "net.response_bytes_per_call",
                ratio(codecs.iter().map(|c| c.response_bytes as f64).sum(), n),
            );
        }
        Ok(v)
    }

    fn checks(&mut self) -> &mut Checks {
        &mut self.checks
    }

    fn finish(self: Box<Self>) -> Result<(), String> {
        let this = *self;
        drop(this.clients);
        for (server, _) in this.servers {
            server.shutdown();
        }
        Ok(())
    }
}

impl AlignBench {
    fn run_clients(&mut self, deadline: Option<Instant>) -> Vec<ClientPhase> {
        let shared = Shared {
            items: &self.items,
            reference: &self.reference,
            config: &self.config,
            tracer: &self.tracer,
        };
        std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .map(|c| {
                    let shared = &shared;
                    s.spawn(move || c.run(shared, deadline))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("an alignment client panicked"))
                .collect()
        })
    }

    /// Replays the captured local calls on the same snapshots: parse
    /// each leaf's SPARQL text, then plan and evaluate it.
    fn replay(&mut self, v: &mut Values) -> Result<(), String> {
        let captured = std::mem::take(&mut *self.captures.lock().expect("capture store poisoned"));
        let snaps = [self.kbs[0].current(), self.kbs[1].current()];
        let mut parse = Samples::new();
        let mut eval = Samples::new();
        let mut dispatch = Vec::new();
        let (mut rows, mut queries) = (0u64, 0u64);
        for call in &captured {
            let snap = &snaps[call.kb as usize];
            let opts = PlanOptions {
                stats: Some(snap.stats()),
                ..PlanOptions::default()
            };
            let mut inside = 0u64;
            for text in &call.leaves {
                let t0 = Instant::now();
                let query =
                    parse_query(text).map_err(|e| format!("replay parse of {text:?}: {e}"))?;
                let t1 = Instant::now();
                let outcome = execute_ast_with_options(snap.snapshot().store(), &query, opts)
                    .map_err(|e| format!("replay of {text:?}: {e}"))?;
                let t2 = Instant::now();
                parse.push(t1 - t0);
                eval.push(t2 - t1);
                inside += u64::try_from((t2 - t0).as_nanos()).unwrap_or(u64::MAX);
                rows += match &outcome {
                    sofya_sparql::QueryOutcome::Solutions(rs) => rs.len() as u64,
                    sofya_sparql::QueryOutcome::Boolean(_) => 1,
                };
                queries += 1;
                black_box(outcome);
            }
            dispatch.push((call.exec_ns as f64 - inside as f64) / 1e3);
        }
        v.insert("sparql.parse_us_p50", parse.quantile_us(0.5));
        v.insert("sparql.eval_us_p50", eval.quantile_us(0.5));
        v.insert("sparql.rows_per_query", ratio(rows as f64, queries as f64));
        v.insert("endpoint.dispatch_us_p50", median(&dispatch));
        Ok(())
    }
}
