//! `durable-publish-recover`: closed-loop durable publishes on real
//! files, with a crash and recovery every 64 publishes.
//!
//! A `DurableStore` over `StdIo` in a directory of the run's own,
//! preloaded with kb2 at set-up. Each publish inserts 256 new triples and
//! removes the 256 added four publishes earlier, so the live size stays
//! fixed; every publish fsyncs, and every 8th also checkpoints (the
//! default `checkpoint_every`). Every 64 publishes the store is dropped
//! without a shutdown and `DurableStore::recover` must give back the
//! fingerprint and epoch of the last acknowledged publish.

use crate::report::Values;
use crate::stats::{ratio, Samples};
use crate::trace::{close, durations, Span, Tracer};
use crate::{Checks, Ctx, KbLoad, Phase, Rng, Tails, Workload};
use sofya_durability::{DurabilityConfig, StdIo, StorageIo};
use sofya_endpoint::DurableStore;
use sofya_kbgen::generate;
use sofya_rdf::Term;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const BATCH_TRIPLES: usize = 256;
/// A batch is removed this many publishes after it was inserted.
const LIFETIME: usize = 4;
const RECOVER_EVERY: u64 = 64;
/// Batches cycle through this many subject sets, so the dictionary
/// stops growing once the cycle is full; a set is removed (after
/// [`LIFETIME`] publishes) long before it is reused.
const SUBJECT_SETS: u64 = 8;
/// Untimed publishes before measuring: one full checkpoint cycle and
/// more than one batch lifetime.
const WARM_UP: u64 = 16;

type Triple = (Term, Term, Term);

pub struct DurableBench {
    tracer: Arc<Tracer>,
    dir: PathBuf,
    config: DurabilityConfig,
    store: Option<DurableStore>,
    predicates: Vec<Term>,
    objects: Vec<Term>,
    rng: Rng,
    live: VecDeque<Vec<Triple>>,
    publishes: u64,
    last_ack: (u64, u64),
    checks: Checks,
    /// Last phase: commit receipts and mutation counts.
    last_fsync: Samples,
    last_wal_bytes: u64,
    last_commits: u64,
    last_mutations: u64,
}

/// What a set-up loads: kb2's triples, and the predicates and objects
/// the publish batches draw from. Made before the set-up's timer starts.
pub struct Input {
    triples: Vec<Triple>,
    predicates: Vec<Term>,
    objects: Vec<Term>,
}

impl Input {
    /// Generates the pair and lists kb2's triples, predicates and objects.
    pub fn new(ctx: &Ctx) -> Result<Self, String> {
        let pair = generate(&ctx.pair_config());
        let kb2 = &pair.kb2;
        let triples = KbLoad::new(kb2).triples;
        let same_as = Term::iri(pair.same_as());
        let mut predicates: Vec<Term> = kb2
            .predicates()
            .into_iter()
            .map(|p| kb2.dict().resolve(p).clone())
            .filter(|p| *p != same_as)
            .collect();
        predicates.sort_by_key(|t| t.to_string());
        let objects: Vec<Term> = triples
            .iter()
            .filter(|(_, p, o)| *p != same_as && !matches!(o, Term::Literal { .. }))
            .map(|(_, _, o)| o.clone())
            .step_by(97)
            .collect();
        Ok(Self {
            triples,
            predicates,
            objects,
        })
    }
}

impl DurableBench {
    /// Timed set-up: create the durable store in a fresh directory, load
    /// kb2 and publish it durably.
    pub fn setup(ctx: &Ctx, input: &mut Input) -> Result<Self, String> {
        // Set-ups run one after another, each removing its directory.
        let dir = ctx.out_dir.join(format!("durable-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)
                .map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
        }
        let io: Arc<dyn StorageIo> =
            Arc::new(StdIo::open(&dir).map_err(|e| format!("cannot open {}: {e}", dir.display()))?);
        let config = DurabilityConfig::default();
        let mut store = DurableStore::create(io, config.clone())
            .map_err(|e| format!("cannot create the durable store: {e}"))?;
        store.load_batch(&input.triples);
        let receipt = store
            .publish()
            .map_err(|e| format!("preload publish failed: {e}"))?;
        Ok(Self {
            tracer: Arc::clone(&ctx.tracer),
            dir,
            config,
            store: Some(store),
            predicates: std::mem::take(&mut input.predicates),
            objects: std::mem::take(&mut input.objects),
            rng: Rng::new(ctx.seed),
            live: VecDeque::new(),
            publishes: 0,
            last_ack: (receipt.epoch, receipt.fingerprint),
            checks: Checks::default(),
            last_fsync: Samples::new(),
            last_wal_bytes: 0,
            last_commits: 0,
            last_mutations: 0,
        })
    }

    fn batch(&mut self) -> Vec<Triple> {
        let k = self.publishes % SUBJECT_SETS;
        (0..BATCH_TRIPLES)
            .map(|i| {
                (
                    Term::iri(format!("http://perfbench.invalid/durable/{k}/{i}")),
                    self.predicates[self.rng.below(self.predicates.len())].clone(),
                    self.objects[self.rng.below(self.objects.len())].clone(),
                )
            })
            .collect()
    }

    /// One closed-loop step: insert a batch, remove the batch from
    /// [`LIFETIME`] publishes ago, publish durably. Returns the time
    /// until the commit receipt.
    fn publish_once(&mut self, phase: &mut PhaseCounts) -> Result<Duration, String> {
        let inserts = self.batch();
        let expired = if self.live.len() >= LIFETIME {
            self.live.pop_front()
        } else {
            None
        };
        self.publishes += 1;
        let store = self.store.as_mut().ok_or("the store is gone")?;
        let span = self.tracer.open("durability.publish", self.publishes);
        let started = Instant::now();
        let t = Instant::now();
        let loaded = store.load_batch(&inserts);
        self.tracer
            .record("durability.load_batch", "", t, loaded as u64, 0);
        let t = Instant::now();
        let mut removed = 0u64;
        if let Some(expired) = &expired {
            for (s, p, o) in expired {
                removed += u64::from(store.remove(s, p, o));
            }
        }
        self.tracer.record("durability.remove", "", t, removed, 0);
        let t = Instant::now();
        let receipt = store.publish();
        self.tracer.record("durability.commit", "", t, 0, 0);
        let elapsed = started.elapsed();
        close(span, loaded as u64 + removed);
        let receipt =
            receipt.map_err(|e| format!("durable publish {} failed: {e}", self.publishes))?;
        let expected_removed = expired.as_ref().map_or(0, Vec::len) as u64;
        self.checks.check(
            loaded == BATCH_TRIPLES && removed == expected_removed,
            || {
                format!(
                    "publish {} applied {loaded} inserts and {removed} removes",
                    self.publishes
                )
            },
        );
        self.last_ack = (receipt.epoch, receipt.fingerprint);
        phase.fsync.push(receipt.fsync_latency);
        phase.wal_bytes += receipt.wal_bytes;
        phase.commits += 1;
        phase.mutations += loaded as u64 + removed;
        self.live.push_back(inserts);
        Ok(elapsed)
    }

    /// Drops the store without a shutdown and recovers it from disk.
    fn crash_and_recover(&mut self) -> Result<Duration, String> {
        drop(self.store.take());
        let span = self.tracer.open("durability.recover", self.publishes);
        let started = Instant::now();
        let io: Arc<dyn StorageIo> = Arc::new(
            StdIo::open(&self.dir)
                .map_err(|e| format!("cannot reopen {}: {e}", self.dir.display()))?,
        );
        let recovered = DurableStore::recover(io, self.config.clone());
        let elapsed = started.elapsed();
        close(span, 0);
        let store = recovered
            .map_err(|e| format!("recovery after publish {} failed: {e}", self.publishes))?;
        let got = (store.epoch(), store.current().snapshot().fingerprint());
        let want = self.last_ack;
        self.checks.check(got == want, || {
            format!("recovery gave (epoch, fingerprint) {got:?}, the last acknowledged publish was {want:?}")
        });
        self.store = Some(store);
        Ok(elapsed)
    }

    fn step(&mut self, phase: &mut PhaseCounts, out: &mut Phase) -> Result<(), String> {
        out.op.push(self.publish_once(phase)?);
        if self.publishes % RECOVER_EVERY == 0 {
            out.read.push(self.crash_and_recover()?);
        }
        Ok(())
    }
}

#[derive(Default)]
struct PhaseCounts {
    fsync: Samples,
    wal_bytes: u64,
    commits: u64,
    mutations: u64,
}

fn dir_bytes(dir: &PathBuf) -> Result<u64, String> {
    let mut total = 0;
    for entry in
        std::fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?
    {
        let entry = entry.map_err(|e| e.to_string())?;
        total += entry.metadata().map_err(|e| e.to_string())?.len();
    }
    Ok(total)
}

impl Workload for DurableBench {
    fn tails(&self) -> Tails {
        // Hundreds of publishes but only a handful of recoveries a phase.
        Tails {
            op: 0.95,
            read: 0.90,
        }
    }

    fn prepare(&mut self, _ctx: &Ctx) -> Result<(), String> {
        let mut counts = PhaseCounts::default();
        for _ in 0..WARM_UP {
            self.publish_once(&mut counts)?;
        }
        self.crash_and_recover()?;
        Ok(())
    }

    fn measure(&mut self, seconds: f64) -> Result<Phase, String> {
        let mut counts = PhaseCounts::default();
        let mut phase = Phase::default();
        let started = Instant::now();
        let deadline = started + Duration::from_secs_f64(seconds);
        while Instant::now() < deadline {
            self.step(&mut counts, &mut phase)?;
        }
        // A phase always ends on a recovery, so every phase has one.
        if self.publishes % RECOVER_EVERY != 0 || phase.read.is_empty() {
            phase.read.push(self.crash_and_recover()?);
        }
        phase.seconds = started.elapsed().as_secs_f64();
        self.last_fsync = counts.fsync;
        self.last_wal_bytes = counts.wal_bytes;
        self.last_commits = counts.commits;
        self.last_mutations = counts.mutations;
        Ok(phase)
    }

    fn layers(&mut self, spans: &[Span], _phase: &Phase) -> Result<Values, String> {
        let mut v = Values::new();
        let commit = durations(spans, "durability.commit");
        v.insert(
            "durability.load_batch_us_p50",
            durations(spans, "durability.load_batch").quantile_us(0.5),
        );
        v.insert("durability.commit_ms_p50", commit.quantile_ms(0.5));
        v.insert("durability.commit_ms_p99", commit.quantile_ms(0.99));
        v.insert("durability.fsync_us_p50", self.last_fsync.quantile_us(0.5));
        v.insert("durability.fsync_us_p99", self.last_fsync.quantile_us(0.99));
        v.insert(
            "durability.wal_bytes_per_commit",
            ratio(self.last_wal_bytes as f64, self.last_commits as f64),
        );
        v.insert(
            "durability.wal_bytes_per_triple",
            ratio(self.last_wal_bytes as f64, self.last_mutations as f64),
        );
        v.insert("durability.disk_bytes", dir_bytes(&self.dir)? as f64);
        Ok(v)
    }

    fn checks(&mut self) -> &mut Checks {
        &mut self.checks
    }

    fn finish(mut self: Box<Self>) -> Result<(), String> {
        drop(self.store.take());
        std::fs::remove_dir_all(&self.dir)
            .map_err(|e| format!("cannot remove {}: {e}", self.dir.display()))
    }
}
