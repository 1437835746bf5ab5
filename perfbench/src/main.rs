//! End-to-end and per-layer benchmark of the SOFYA workspace.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!           [--kb 100k|tiny]
//! ```
//!
//! One run sets the workload up [`SETUPS`] times on kbgen pairs made from
//! the seed (the median is `setup_s`), warms it, and measures for
//! `--seconds`. It checks every output it gets, prints a readable
//! report on stderr and, as the last line of stdout, one JSON object:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A traced run measures its first half untraced and its
//! second half traced, and prints both halves' end-to-end numbers side
//! by side, so the tracing overhead is on record. See README.md.

mod align;
mod durable;
mod ingest;
mod report;
mod stats;
mod trace;

use report::{Values, END_TO_END, PER_LAYER, UNGATED};
use sofya_kbgen::{generate, GeneratedPair, PairConfig, StructureCounts};
use sofya_rdf::{Term, TripleStore};
use sofya_service::MetricsReport;
use stats::{ratio, Samples};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use trace::{Span, Tracer};

/// The seed used while the benchmark was written.
pub const DEFAULT_SEED: u64 = 42;
/// Reserved for confirming claims: never used while tuning a change.
pub const HELD_OUT_SEED: u64 = 4242;

/// Spans written to the trace file; the per-layer metrics use them all.
const MAX_SPANS_WRITTEN: usize = 250_000;

/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 9;

const WORKLOADS: &[&str] = &[
    "align-local",
    "align-federated",
    "ingest-under-query",
    "durable-publish-recover",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KbSize {
    /// kbgen's `tiny` preset: for the smoke test.
    Tiny,
    /// ~100k triples in kb2.
    Full,
}

/// Everything a workload needs to know about the run.
#[derive(Debug)]
pub struct Ctx {
    pub seed: u64,
    pub kb: KbSize,
    pub seconds: f64,
    pub trace: bool,
    pub out_dir: PathBuf,
    pub tracer: Arc<Tracer>,
}

impl Ctx {
    /// The kbgen pair configuration: `small` scaled to ~100k triples in
    /// kb2 (kb1 ≈ 23.7k triples, 46 relations; kb2 ≈ 100.6k triples,
    /// 1,122 relations; 8 literal relations at seed 42).
    pub fn pair_config(&self) -> PairConfig {
        match self.kb {
            KbSize::Tiny => PairConfig::tiny(self.seed),
            KbSize::Full => {
                let mut cfg = PairConfig::small(self.seed);
                cfg.n_entities = 20_000;
                cfg.structures = StructureCounts {
                    equivalent: 20,
                    subsumption_families: 4,
                    fines_per_family: 3,
                    overlap_traps: 8,
                    literal_attrs: 4,
                    noise_kb1: 10,
                    noise_kb2: 1050,
                    correlated_noise_kb2: 20,
                };
                cfg.facts_per_relation = (300, 500);
                cfg
            }
        }
    }
}

/// The input of one set-up: a kbgen pair with both KBs taken out of it
/// as [`KbLoad`]s, so the timed set-up loads them itself.
pub struct PairInput {
    /// Names, relation lists and gold; its stores are empty.
    pub pair: GeneratedPair,
    pub kb1: KbLoad,
    pub kb2: KbLoad,
}

impl PairInput {
    pub fn new(ctx: &Ctx) -> Result<Self, String> {
        let mut pair = generate(&ctx.pair_config());
        let kb1 = KbLoad::new(&std::mem::take(&mut pair.kb1));
        let kb2 = KbLoad::new(&std::mem::take(&mut pair.kb2));
        Ok(Self { pair, kb1, kb2 })
    }
}

/// One KB as terms: its dictionary in id order and its triples.
pub struct KbLoad {
    dictionary: Vec<Term>,
    pub triples: Vec<(Term, Term, Term)>,
}

impl KbLoad {
    pub fn new(store: &TripleStore) -> Self {
        Self {
            dictionary: store.dict().iter().map(|(_, t)| t.clone()).collect(),
            triples: store
                .iter()
                .map(|t| {
                    let (s, p, o) = store.resolve(t);
                    (s.clone(), p.clone(), o.clone())
                })
                .collect(),
        }
    }

    /// Loads the KB into a new store: interns the dictionary in id order,
    /// so every term keeps the id kbgen gave it, then bulk-loads the
    /// triples.
    pub fn load(&self) -> TripleStore {
        let mut store = TripleStore::new();
        for term in &self.dictionary {
            store.intern(term);
        }
        store.load_batch_terms(self.triples.iter().map(|(s, p, o)| (s, p, o)));
        store
    }
}

/// Success and failure counts of the checks a workload makes.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub problems: Vec<String>,
}

impl Checks {
    pub fn pass(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, problem: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.problems.len() < 10 {
            self.problems.push(problem);
        }
    }

    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if ok {
            self.pass();
        } else {
            self.fail(problem());
        }
    }

    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for p in other.problems {
            if self.problems.len() < 10 {
                self.problems.push(p);
            }
        }
    }
}

/// What a client saw during one measured phase.
#[derive(Debug, Default)]
pub struct Phase {
    pub traced: bool,
    pub seconds: f64,
    /// The workload's unit operation, one sample each.
    pub op: Samples,
    /// The workload's read path, one sample each.
    pub read: Samples,
    /// Host CPU time stolen by the hypervisor during the phase: timings
    /// from a phase with a high share read slow for reasons outside
    /// the program.
    pub steal_share: f64,
}

/// The quantile a workload reports as `*_tail_ms`: the highest of p99,
/// p95, p90 that keeps at least ten samples beyond it at the default
/// run length. Fixed per workload so a faster build cannot switch it.
#[derive(Debug, Clone, Copy)]
pub struct Tails {
    pub op: f64,
    pub read: f64,
}

/// One benchmark workload.
pub trait Workload {
    fn tails(&self) -> Tails;
    /// Untimed preparation after set-up: reference answers, warm-up.
    fn prepare(&mut self, ctx: &Ctx) -> Result<(), String>;
    /// Measures for `seconds` with the tracer as the caller set it.
    fn measure(&mut self, seconds: f64) -> Result<Phase, String>;
    /// Per-layer metrics of the last (traced) phase.
    fn layers(&mut self, spans: &[Span], phase: &Phase) -> Result<Values, String>;
    fn checks(&mut self) -> &mut Checks;
    /// Stops every thread and server and removes every file it made.
    fn finish(self: Box<Self>) -> Result<(), String>;
}

struct Run {
    setup: Samples,
    tails: Tails,
    phases: Vec<Phase>,
    layers: Values,
    checks: Checks,
    spans: Vec<Span>,
    peak_rss_mb: f64,
}

/// Sets the workload up, measures it, then repeats the set-up alone
/// until [`SETUPS`] set-ups are timed. Each set-up gets fresh inputs
/// from `input`, made before its timer starts and dropped after it
/// stops, so `setup_s` times only what the program does with them.
fn run_workload<I, W: Workload + 'static>(
    ctx: &Ctx,
    input: impl Fn(&Ctx) -> Result<I, String>,
    setup: impl Fn(&Ctx, &mut I) -> Result<W, String>,
) -> Result<Run, String> {
    let mut times = Samples::new();
    let timed_setup = |times: &mut Samples| -> Result<W, String> {
        let mut input = input(ctx)?;
        let started = Instant::now();
        let w = setup(ctx, &mut input)?;
        times.push(started.elapsed());
        drop(input);
        Ok(w)
    };
    let mut w: Box<W> = Box::new(timed_setup(&mut times)?);
    let measured = measure_phases(ctx, w.as_mut());
    let peak_rss_mb = stats::peak_rss_mb();
    let spans = ctx.tracer.take();
    let layers = match (&measured, ctx.trace) {
        (Ok(phases), true) => match phases.last() {
            Some(last) => w.layers(&spans, last),
            None => Err("no phase measured".to_owned()),
        },
        _ => Ok(Values::new()),
    };
    let checks = std::mem::take(w.checks());
    let tails = w.tails();
    // Stop servers and remove files even when measuring failed.
    let finished = w.finish();
    let (phases, layers) = (measured?, layers?);
    finished?;
    for _ in 1..SETUPS {
        Box::new(timed_setup(&mut times)?).finish()?;
    }
    Ok(Run {
        setup: times,
        tails,
        phases,
        layers,
        checks,
        spans,
        peak_rss_mb: peak_rss_mb?,
    })
}

/// Prepares, then measures one untraced phase, or with `--trace 1` an
/// untraced half and a traced half. The peak RSS is reset after
/// preparing, so `peak_rss_mb` covers the measured phases and not the
/// inputs, reference answers or set-up transients that came before.
fn measure_phases<W: Workload>(ctx: &Ctx, w: &mut W) -> Result<Vec<Phase>, String> {
    w.prepare(ctx)?;
    stats::reset_peak_rss()?;
    let plan: Vec<(bool, f64)> = if ctx.trace {
        vec![(false, ctx.seconds / 2.0), (true, ctx.seconds / 2.0)]
    } else {
        vec![(false, ctx.seconds)]
    };
    let mut phases = Vec::new();
    for (traced, seconds) in plan {
        ctx.tracer.set_active(traced);
        let before = stats::cpu_ticks();
        let phase = w.measure(seconds);
        let steal_share = stats::steal_share(before, stats::cpu_ticks());
        ctx.tracer.set_active(false);
        phases.push(Phase {
            traced,
            steal_share,
            ..phase?
        });
    }
    Ok(phases)
}

fn end_to_end(run: &Run, phase: &Phase) -> Values {
    let mut v = Values::new();
    v.insert("setup_s", run.setup.median_ns() / 1e9);
    v.insert("op_p50_ms", phase.op.quantile_ms(0.5));
    v.insert("op_tail_ms", phase.op.quantile_ms(run.tails.op));
    v.insert("ops_per_s", ratio(phase.op.len() as f64, phase.seconds));
    v.insert("read_p50_ms", phase.read.quantile_ms(0.5));
    v.insert("read_tail_ms", phase.read.quantile_ms(run.tails.read));
    v.insert("peak_rss_mb", run.peak_rss_mb);
    v
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    kb: KbSize,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--kb 100k|tiny]\n\
         default seed {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED}",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        kb: KbSize::Full,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}\n{}", usage());
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--kb" => {
                args.kb = match value.as_str() {
                    "100k" => KbSize::Full,
                    "tiny" => KbSize::Tiny,
                    _ => return Err(bad(&"expected 100k or tiny")),
                }
            }
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}\n{}", args.workload, usage()));
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err(format!("--seconds must be positive\n{}", usage()));
    }
    Ok(args)
}

fn print_report(ctx: &Ctx, workload: &str, run: &Run, e2e: &[Values], layers: Option<&Values>) {
    eprintln!(
        "perfbench {workload}: seed {} (held-out seed {HELD_OUT_SEED}), kb {:?}, {} s, {} set-ups, nproc {}",
        ctx.seed,
        ctx.kb,
        ctx.seconds,
        run.setup.len(),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );
    let header: Vec<&str> = run
        .phases
        .iter()
        .map(|p| if p.traced { "traced" } else { "untraced" })
        .collect();
    eprintln!(
        "  {:<22} {:>14} {:>14}  unit",
        "end-to-end",
        header[0],
        header.get(1).unwrap_or(&"")
    );
    for (name, unit) in END_TO_END.iter().chain(UNGATED) {
        let cells: Vec<String> = e2e.iter().map(|v| format!("{:.4}", v[name])).collect();
        eprintln!(
            "  {:<22} {:>14} {:>14}  {unit}",
            name,
            cells[0],
            cells.get(1).map_or("", String::as_str)
        );
    }
    let setups: Vec<String> = run
        .setup
        .values_ns()
        .iter()
        .map(|ns| format!("{:.3}", *ns as f64 / 1e6))
        .collect();
    eprintln!("  set-ups (ms, first measured): {}", setups.join(" "));
    for p in &run.phases {
        eprintln!(
            "  {} phase: {} op samples (tail = p{:.0}), {} read samples (tail = p{:.0}), {:.2} s, host steal {:.1}%",
            if p.traced { "traced" } else { "untraced" },
            p.op.len(),
            run.tails.op * 100.0,
            p.read.len(),
            run.tails.read * 100.0,
            p.seconds,
            p.steal_share * 100.0
        );
    }
    eprintln!(
        "  checks: {} attempted, {} failed (failed_ratio {:.6})",
        run.checks.attempted,
        run.checks.failed,
        ratio(run.checks.failed as f64, run.checks.attempted as f64)
    );
    for p in &run.checks.problems {
        eprintln!("  FAILED: {p}");
    }
    if let Some(layers) = layers {
        eprintln!("  per-layer (traced phase):");
        for (name, unit) in PER_LAYER {
            eprintln!("  {:<40} {:>16.4}  {unit}", name, layers[name]);
        }
    }
}

fn run_main() -> Result<String, String> {
    let args = parse_args()?;
    let ctx = Ctx {
        seed: args.seed,
        kb: args.kb,
        seconds: args.seconds,
        trace: args.trace,
        out_dir: PathBuf::from(".perfbench_out"),
        tracer: Tracer::new(),
    };
    let pair = PairInput::new;
    let mut run = match args.workload.as_str() {
        "align-local" => run_workload(&ctx, pair, |c, p| align::AlignBench::setup(c, p, false))?,
        "align-federated" => run_workload(&ctx, pair, |c, p| align::AlignBench::setup(c, p, true))?,
        "ingest-under-query" => run_workload(&ctx, pair, ingest::IngestBench::setup)?,
        "durable-publish-recover" => {
            run_workload(&ctx, durable::Input::new, durable::DurableBench::setup)?
        }
        other => return Err(format!("unknown workload {other}")),
    };
    let e2e: Vec<Values> = run.phases.iter().map(|p| end_to_end(&run, p)).collect();
    let last = run.phases.last().ok_or("no phase measured")?;
    let (names, mut values) = if ctx.trace {
        (PER_LAYER, std::mem::take(&mut run.layers))
    } else {
        (END_TO_END, e2e[0].clone())
    };
    if ctx.trace {
        let (untraced, traced) = (&e2e[0], &e2e[e2e.len() - 1]);
        values.insert("trace.untraced_op_p50_ms", untraced["op_p50_ms"]);
        values.insert("trace.traced_op_p50_ms", traced["op_p50_ms"]);
        values.insert("trace.untraced_read_p50_ms", untraced["read_p50_ms"]);
        values.insert("trace.traced_read_p50_ms", traced["read_p50_ms"]);
        values.insert(
            "trace.op_p50_overhead",
            ratio(traced["op_p50_ms"], untraced["op_p50_ms"]) - 1.0,
        );
        values.insert("run.ops_per_s", traced["ops_per_s"]);
        values.insert("run.op_tail_ms", traced["op_tail_ms"]);
        values.insert("run.read_tail_ms", traced["read_tail_ms"]);
        values.insert("run.op_samples", last.op.len() as f64);
        values.insert("run.host_steal_share", last.steal_share);
        values.insert("run.read_samples", last.read.len() as f64);
        values.insert(
            "run.failed_ratio",
            ratio(run.checks.failed as f64, run.checks.attempted as f64),
        );
        for (name, _) in PER_LAYER {
            values.entry(name).or_insert(0.0);
        }
        // One file per workload, overwritten by each traced run and cut
        // at MAX_SPANS_WRITTEN, so repeated runs do not fill the disk.
        let path = ctx.out_dir.join(format!("spans-{}.jsonl", args.workload));
        let written = &run.spans[..run.spans.len().min(MAX_SPANS_WRITTEN)];
        trace::write_spans(written, &path)
            .map_err(|e| format!("cannot write spans to {}: {e}", path.display()))?;
        eprintln!(
            "  {} of {} spans written to {}",
            written.len(),
            run.spans.len(),
            path.display()
        );
    }
    print_report(
        &ctx,
        &args.workload,
        &run,
        &e2e,
        ctx.trace.then_some(&values),
    );
    if run.checks.attempted == 0 {
        return Err("the run attempted nothing".to_owned());
    }
    report::result_json(
        run.checks.failed == 0,
        run.checks.attempted,
        run.checks.failed,
        names,
        &values,
    )
}

fn main() -> ExitCode {
    match run_main() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A small seeded generator (SplitMix64) for the benchmark's own inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (`n` > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Network and service layers: round trips as the client saw them,
/// execution as the server's endpoint saw it, and the servers' own
/// scheduler metrics (cumulative since each server started).
pub fn net_layers(v: &mut Values, spans: &[Span], reports: &[MetricsReport]) {
    let rtt = trace::durations(spans, "net.rtt");
    let server = trace::durations(spans, "net.server_exec");
    v.insert("net.rtt_us_p50", rtt.quantile_us(0.5));
    v.insert("net.rtt_us_p99", rtt.quantile_us(0.99));
    v.insert("net.server_exec_us_p50", server.quantile_us(0.5));
    v.insert(
        "net.overhead_us_p50",
        rtt.quantile_us(0.5) - server.quantile_us(0.5),
    );
    v.insert(
        "service.queue_wait_p99_us",
        reports
            .iter()
            .map(|r| r.queue_wait_p99_ns)
            .max()
            .unwrap_or(0) as f64
            / 1e3,
    );
    v.insert(
        "service.rejected",
        reports
            .iter()
            .map(|r| r.rejected_full + r.rejected_quota)
            .sum::<u64>() as f64,
    );
    v.insert(
        "service.shed",
        reports.iter().map(|r| r.queries_shed).sum::<u64>() as f64,
    );
}
