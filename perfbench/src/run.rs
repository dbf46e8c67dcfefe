//! One benchmark run of one workload: set-up, a warm-up, the timed
//! phases, and (in the traced run) the per-layer probes.
//!
//! Every workload runs the same lifecycle on its own inputs — ingest
//! rounds, a closed-loop wire session, a streaming retrieval pass, durable
//! reopens and cold reads — so every end-to-end metric is read on every
//! workload; what differs is the input shape, the store the releases go
//! into, and the share of the run each phase gets. Readers and writers
//! are never timed while they run concurrently: each phase runs alone.

use std::path::{Path, PathBuf};
use std::time::Instant;

use xarch::compress::BlockCodec;
use xarch::core::{Archive, StoreReader, VersionStore};
use xarch::keys::annotate;
use xarch::obs::Obs;
use xarch::storage::payload::docs_to_batch_bytes;
use xarch::storage::{crc32, Segment};
use xarch::xml::writer::to_compact_string;
use xarch::xml::{parse, Document};
use xarch::{ArchiveBuilder, ArchiveHandle, ColdArchive, DurableArchive, DurableOptions};
use xarch_proto::{Client, Request, Response};
use xarch_server::{Server, ServerConfig};

use crate::inputs::{generate, tags, IngestPath, Inputs, Profile, Rng};
use crate::oracle::{fnv, Oracle};
use crate::queries::{check, codec_round_trip_us, response_frame_len, Kind, Mix, Paths, VERBS};
use crate::stats::{blocked_p99, median, median_rate};
use crate::trace::Tracer;

/// Set-up is repeated at least `SETUP_MIN_REPS` times and until
/// `SETUP_SECONDS` have passed (at most `SETUP_MAX_REPS` times); `setup_s`
/// is the median.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 15;
const SETUP_SECONDS: f64 = 2.0;
/// Floors on the samples each phase collects, whatever `--seconds` says.
const MIN_INGEST_ROUNDS: usize = 4;
const MIN_SERVE_CYCLES: usize = 20;
const MIN_STREAM_PASSES: usize = 3;
const MIN_REOPENS: usize = 5;
const MIN_COLD_OPENS: usize = 3;
/// Share of `--seconds` spent warming up before timing starts.
const WARMUP_SHARE: f64 = 0.1;
/// Cold retrieves per cold open.
const COLD_RETRIEVES_PER_OPEN: usize = 8;
const MB: f64 = 1e6;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub struct Outcome {
    /// The generated inputs, described for the report.
    pub inputs: String,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub first_failures: Vec<String>,
}

/// Attempted and failed operations; every operation is checked once.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first_failures: Vec<String>,
}

impl Tally {
    fn check(&mut self, what: &str, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.failed += 1;
            if self.first_failures.len() < 8 {
                self.first_failures.push(format!("{what}: {e}"));
            }
        }
    }
}

/// The store one ingest round wrote into.
enum Live {
    Shared(ArchiveHandle),
    Plain(Box<dyn VersionStore>),
}

impl Live {
    fn add_versions(&mut self, docs: &[Document]) -> Result<Vec<u32>, String> {
        match self {
            Live::Shared(h) => h.add_versions(docs),
            Live::Plain(s) => s.add_versions(docs),
        }
        .map_err(|e| e.to_string())
    }

    fn into_handle(self) -> ArchiveHandle {
        match self {
            Live::Shared(h) => h,
            Live::Plain(s) => ArchiveHandle::new(s),
        }
    }
}

/// Everything the timed lifecycle measured.
#[derive(Default)]
struct Samples {
    /// Per ingest round: (MB ingested, wall seconds, spans recorded).
    rounds: Vec<(f64, f64, bool)>,
    commits_ms: Vec<f64>,
    point_us: Vec<f64>,
    range_ms: Vec<f64>,
    retrieve_ms: Vec<f64>,
    cycle_qps: Vec<f64>,
    /// Client-observed minus in-process latency of the same point query.
    wire_overhead_us: Vec<f64>,
    /// One request/response pair per verb (in [`VERBS`] order), for the
    /// codec probe.
    exchanges: [Option<(Request, Response)>; 6],
    retrieve_frame_bytes: Vec<f64>,
    /// Per streaming pass: (MB written, seconds).
    passes: Vec<(f64, f64)>,
    reopen_s: Vec<f64>,
    cold_ms: Vec<f64>,
    cold_decoded: u64,
}

/// The phases of the lifecycle, in the order their shares are listed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Ingest,
    Serve,
    Stream,
    Reopen,
    Cold,
}

const PHASES: [Phase; 5] = [
    Phase::Ingest,
    Phase::Serve,
    Phase::Stream,
    Phase::Reopen,
    Phase::Cold,
];

/// What the scheduled phases run against.
struct Loop<'a> {
    client: &'a mut Client,
    handle: &'a ArchiveHandle,
    mix: &'a Mix,
    on_disk: &'a Path,
    ingest_paths: &'a [PathBuf; 2],
    compare: bool,
    alternate: bool,
}

struct Bench<'a> {
    p: &'a Profile,
    inputs: Inputs,
    oracle: Oracle,
    paths: Paths,
    tr: Tracer,
    rng: Rng,
    dir: PathBuf,
    tally: Tally,
    seconds: f64,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// A release of the input versions `r` (0-based) must be acknowledged
/// with exactly the version numbers `r.start + 1 ..= r.end`.
fn acknowledged(r: &std::ops::Range<usize>, got: Result<Vec<u32>, String>) -> Result<(), String> {
    let want: Vec<u32> = (r.start + 1..=r.end).map(|v| v as u32).collect();
    match got {
        Ok(v) if v == want => Ok(()),
        Ok(v) => Err(format!("acknowledged {v:?}, want {want:?}")),
        Err(e) => Err(e),
    }
}

/// Runs one workload for about `seconds` and returns its metrics: the
/// end-to-end metrics untraced, the per-layer metrics traced.
/// The traced run writes its spans to `trace_out` as JSON lines.
pub fn run(
    p: &Profile,
    seed: u64,
    seconds: f64,
    trace_out: Option<&Path>,
    dir: &Path,
) -> Result<Outcome, String> {
    let traced = trace_out.is_some();
    std::fs::create_dir_all(dir).map_err(err)?;
    let data_seed = seed ^ fnv(p.name.as_bytes());

    // ---- set-up: generate the inputs (and, for `serve`, build the served
    // archive), several times; the median is `setup_s`
    let mut setup_s = Vec::new();
    let mut prepared = None;
    let started = Instant::now();
    while setup_s.len() < SETUP_MIN_REPS
        || (setup_s.len() < SETUP_MAX_REPS && secs(started) < SETUP_SECONDS)
    {
        drop(prepared.take());
        let t = Instant::now();
        let inputs = generate(p, data_seed);
        let served = match p.ingest {
            IngestPath::MemHandle => Some(build_served(p, &inputs)?),
            _ => None,
        };
        setup_s.push(secs(t));
        prepared = Some((inputs, served));
    }
    let (inputs, served) = prepared.ok_or("no set-up ran")?;

    let (root, record, key) = tags(p.dataset);
    let oracle = Oracle::build(root, record, key, &inputs.xml)?;
    let mut b = Bench {
        p,
        inputs,
        oracle,
        paths: Paths { root, record, key },
        tr: Tracer::new(traced),
        rng: Rng::new(seed),
        dir: dir.to_path_buf(),
        tally: Tally::default(),
        seconds,
    };
    let out = if traced {
        b.traced(served)?
    } else {
        b.untraced(served, median(&setup_s).unwrap_or(0.0))?
    };
    if let Some(path) = trace_out {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path).map_err(err)?);
        b.tr.write_jsonl(&mut f).map_err(err)?;
        std::io::Write::flush(&mut f).map_err(err)?;
    }
    let records = b
        .oracle
        .records(b.inputs.xml.last().map_or("", String::as_str))
        .map_or(0, |m| m.len());
    Ok(Outcome {
        inputs: format!(
            "{} versions, {} keys ever, {} records in the last version, {:.2} MB of XML",
            b.inputs.xml.len(),
            b.oracle.keys().len(),
            records,
            b.inputs.total_bytes() as f64 / MB
        ),
        attempted: b.tally.attempted,
        failed: b.tally.failed,
        metrics: out,
        first_failures: b.tally.first_failures,
    })
}

/// `serve`'s archive: indexed, in memory, shared, observed, pre-populated,
/// served by one worker.
fn build_served(p: &Profile, inputs: &Inputs) -> Result<(ArchiveHandle, Obs), String> {
    let mut b = ArchiveBuilder::new(inputs.spec.clone());
    if p.indexed() {
        b = b.with_index();
    }
    let (handle, obs) = b.try_build_served().map_err(err)?;
    for r in inputs.releases(p.release) {
        let docs: Vec<Document> = inputs.xml[r]
            .iter()
            .map(|x| parse(x))
            .collect::<Result<_, _>>()
            .map_err(err)?;
        handle.add_versions(&docs).map_err(err)?;
    }
    Ok((handle, obs))
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / MB)
}

impl Bench<'_> {
    fn builder(&self, obs: Option<&Obs>) -> ArchiveBuilder {
        let mut b = ArchiveBuilder::new(self.inputs.spec.clone());
        if self.p.indexed() {
            b = b.with_index();
        }
        if let Some(o) = obs {
            b = b.with_observability(o.clone());
        }
        b
    }

    fn durable(&self, path: &Path, obs: Option<&Obs>) -> ArchiveBuilder {
        self.builder(obs)
            .checkpoint_every(self.p.checkpoint_every)
            .durable(path)
    }

    fn parse_release(
        &self,
        r: std::ops::Range<usize>,
        group: u64,
    ) -> Result<Vec<Document>, String> {
        r.map(|v| {
            let _s = self.tr.span("xml.parse", group);
            parse(&self.inputs.xml[v]).map_err(err)
        })
        .collect()
    }

    fn segment_path(&self, tag: &str) -> PathBuf {
        self.dir.join(format!("{tag}.seg"))
    }

    fn remove(&self, path: &Path) {
        let _ = std::fs::remove_file(path);
    }

    // ---- ingest ---------------------------------------------------------

    /// One round: a fresh store, then every release parsed and handed
    /// over. Returns the round's wall seconds (parse included), each
    /// release's commit latency in ms, and the store.
    fn ingest_round(&mut self, round: u64, path: &Path) -> Result<(f64, Vec<f64>, Live), String> {
        self.remove(path);
        let mut live = match self.p.ingest {
            IngestPath::DurableHandle => {
                Live::Shared(self.durable(path, None).try_build_shared().map_err(err)?)
            }
            IngestPath::MemHandle => {
                Live::Shared(self.builder(None).try_build_shared().map_err(err)?)
            }
            IngestPath::MemStore => Live::Plain(self.builder(None).try_build().map_err(err)?),
        };
        let mut wall = 0.0;
        let mut commits = Vec::new();
        for (i, r) in self.inputs.releases(self.p.release).into_iter().enumerate() {
            let group = round * 1_000 + i as u64;
            let release = self.tr.span("ingest.release", group);
            let t = Instant::now();
            let docs = self.parse_release(r.clone(), group);
            let tc = Instant::now();
            let got = docs.and_then(|docs| {
                let _s = self.tr.span("store.add_versions", group);
                live.add_versions(&docs)
            });
            commits.push(secs(tc) * 1e3);
            wall += secs(t);
            drop(release);
            self.tally.check("commit", acknowledged(&r, got));
        }
        Ok((wall, commits, live))
    }

    /// Writes the releases into a durable store configured like `curate`'s
    /// (this workload's indexing, checkpointed, fsync on): the archive on
    /// disk that the reopen and cold phases read. Untimed.
    fn persist(&mut self, path: &Path, obs: Option<&Obs>) -> Result<(), String> {
        self.remove(path);
        let mut store = self.durable(path, obs).try_build().map_err(err)?;
        for (i, r) in self.inputs.releases(self.p.release).into_iter().enumerate() {
            let docs = self.parse_release(r.clone(), i as u64)?;
            let got = store.add_versions(&docs).map_err(err);
            self.tally.check("persist", acknowledged(&r, got));
        }
        Ok(())
    }

    // ---- the lifecycle --------------------------------------------------

    /// Starts the server, then runs the phases interleaved (see
    /// [`Bench::schedule`]): first for a tenth of `seconds` (at least 1 s)
    /// as the warm-up, whose answers are checked but whose timings are
    /// dropped, then for `seconds` with the timings kept.
    ///
    /// `served` is the store the wire session and the streaming passes
    /// read (`serve`'s prebuilt archive, or the warm-up ingest round's
    /// store); `on_disk` the persisted segment for reopens and cold reads.
    /// With `compare`, every point query is also answered in process. With
    /// `alternate`, spans are recorded on every other ingest round only.
    fn lifecycle(
        &mut self,
        served: Option<(ArchiveHandle, Obs)>,
        on_disk: &Path,
        compare: bool,
        alternate: bool,
    ) -> Result<(Samples, ArchiveHandle), String> {
        let ingest_paths = [self.segment_path("ingest-a"), self.segment_path("ingest-b")];
        let (_, _, warm_store) = self.ingest_round(0, &self.segment_path("served"))?;
        let (handle, obs) = match served {
            Some(hs) => hs,
            None => (warm_store.into_handle(), Obs::new()),
        };
        let mut cfg =
            ServerConfig::from_text("listen = 127.0.0.1:0\nworkers = 1\nspec = (/, (ROOT, {}))\n")
                .map_err(err)?;
        cfg.spec = self.inputs.spec.clone();
        let mut server = Server::serve(cfg, handle.clone(), obs).map_err(err)?;
        let result = Client::connect(server.addr())
            .map_err(err)
            .and_then(|mut client| {
                let mix = Mix::new(self.oracle.keys(), handle.latest(), &mut self.rng);
                let mut ctx = Loop {
                    client: &mut client,
                    handle: &handle,
                    mix: &mix,
                    on_disk,
                    ingest_paths: &ingest_paths,
                    compare,
                    alternate,
                };
                // warm-up: the same interleaving, checked but not kept
                let mut warm = Samples::default();
                self.schedule(
                    &mut ctx,
                    (self.seconds * WARMUP_SHARE).max(1.0),
                    false,
                    &mut warm,
                )?;
                let mut smp = Samples {
                    exchanges: warm.exchanges,
                    ..Samples::default()
                };
                self.schedule(&mut ctx, self.seconds, true, &mut smp)?;
                Ok(smp)
            });
        server.shutdown();
        Ok((result?, handle))
    }

    /// Runs whole units of the phases for `seconds`, always picking the
    /// phase furthest behind its share of the elapsed time, so each phase's
    /// samples spread over the whole stretch rather than bunching in one
    /// part of it. With `floors`, keeps going past `seconds` until every
    /// phase has its minimum number of units.
    fn schedule(
        &mut self,
        ctx: &mut Loop<'_>,
        seconds: f64,
        floors: bool,
        smp: &mut Samples,
    ) -> Result<(), String> {
        let shares = self.p.shares;
        let share = |ph: Phase| match ph {
            Phase::Ingest => shares.ingest,
            Phase::Serve => shares.serve,
            Phase::Stream => shares.stream,
            Phase::Reopen => shares.reopen,
            Phase::Cold => shares.cold,
        };
        let floor = |ph: Phase| match ph {
            Phase::Ingest => MIN_INGEST_ROUNDS * if ctx.alternate { 2 } else { 1 },
            Phase::Serve => MIN_SERVE_CYCLES,
            Phase::Stream => MIN_STREAM_PASSES,
            Phase::Reopen => MIN_REOPENS,
            Phase::Cold => MIN_COLD_OPENS,
        };
        let (mut spent, mut units) = ([0.0f64; 5], [0usize; 5]);
        let start = Instant::now();
        loop {
            let elapsed = secs(start);
            let pick = if elapsed >= seconds {
                let short = (0..5)
                    .find(|&i| floors && share(PHASES[i]) > 0.0 && units[i] < floor(PHASES[i]));
                match short {
                    Some(i) => i,
                    None => return Ok(()),
                }
            } else {
                (0..5)
                    .filter(|&i| share(PHASES[i]) > 0.0)
                    .max_by(|&i, &j| {
                        let d = |k: usize| share(PHASES[k]) * elapsed - spent[k];
                        d(i).total_cmp(&d(j))
                    })
                    .ok_or("no phase has a share")?
            };
            let t = Instant::now();
            let n = units[pick] as u64 + 1;
            match PHASES[pick] {
                Phase::Ingest => {
                    let traced = !ctx.alternate || n % 2 == 1;
                    self.tr.set_enabled(ctx.alternate && traced);
                    let path = &ctx.ingest_paths[n as usize % 2];
                    let (wall, commits, live) = self.ingest_round(n, path)?;
                    drop(live);
                    self.remove(path);
                    self.tr.set_enabled(ctx.alternate);
                    smp.rounds
                        .push((self.inputs.total_bytes() as f64 / MB, wall, traced));
                    smp.commits_ms.extend(commits);
                }
                Phase::Serve => {
                    self.serve_cycle(ctx.client, ctx.handle, ctx.mix, n, ctx.compare, smp)
                }
                Phase::Stream => self.stream_pass(ctx.handle, smp),
                Phase::Reopen => self.reopen_once(ctx.on_disk, smp)?,
                Phase::Cold => self.cold_once(ctx.on_disk, smp)?,
            }
            spent[pick] += secs(t);
            units[pick] += 1;
        }
    }

    /// One cycle of the closed loop on the open connection. Latencies are
    /// kept unless `n` is 0 (the warm-up); answers are always checked,
    /// after their timed call.
    fn serve_cycle(
        &mut self,
        client: &mut Client,
        handle: &ArchiveHandle,
        mix: &Mix,
        n: u64,
        compare: bool,
        smp: &mut Samples,
    ) {
        let qs = mix.cycle(&mut self.rng);
        let mut busy = 0.0;
        for (i, q) in qs.iter().enumerate() {
            let group = n * 100 + i as u64;
            let t = Instant::now();
            let ans = {
                let _s = self.tr.span(q.span(true), group);
                self.paths.over_wire(client, q)
            };
            let dt = secs(t);
            busy += dt;
            let ans = match ans {
                Ok(a) => a,
                Err(e) => {
                    self.tally.check(q.verb(), Err(e));
                    continue;
                }
            };
            if n > 0 {
                match q.kind() {
                    Kind::Point => smp.point_us.push(dt * 1e6),
                    Kind::Range => smp.range_ms.push(dt * 1e3),
                    Kind::Retrieve => {
                        smp.retrieve_ms.push(dt * 1e3);
                        smp.retrieve_frame_bytes
                            .push(response_frame_len(&ans) as f64);
                    }
                }
            }
            self.tally.check(q.verb(), check(&self.oracle, q, &ans));
            if compare && q.kind() == Kind::Point {
                let snap = handle.snapshot();
                let t = Instant::now();
                let local = self.paths.in_process(&snap, q);
                smp.wire_overhead_us.push((dt - secs(t)) * 1e6);
                self.tally
                    .check("in-process", local.and_then(|a| check(&self.oracle, q, &a)));
            }
            smp.exchanges[q.verb_index()]
                .get_or_insert_with(|| (self.paths.request(q), ans.response()));
        }
        if n > 0 && busy > 0.0 {
            smp.cycle_qps.push(qs.len() as f64 / busy);
        }
    }

    /// One `retrieve_into` pass over every version; each output is checked
    /// after its timed call.
    fn stream_pass(&mut self, r: &dyn StoreReader, smp: &mut Samples) {
        let (mut bytes, mut time) = (0usize, 0.0);
        let mut buf = Vec::new();
        for v in 1..=self.oracle.latest() {
            buf.clear();
            let t = Instant::now();
            let got = {
                let _s = self.tr.span("store.retrieve_into", u64::from(v));
                r.retrieve_into(v, &mut buf)
            };
            time += secs(t);
            bytes += buf.len();
            self.tally.check(
                "retrieve",
                got.map_err(err).and_then(|some| {
                    if !some {
                        return Err(format!("version {v} retrieved as empty"));
                    }
                    self.oracle
                        .check_version(v, std::str::from_utf8(&buf).map_err(err)?)
                }),
            );
        }
        smp.passes.push((bytes as f64 / MB, time));
    }

    /// Reopens the durable store as `curate` builds it (shared,
    /// checkpointed). The reopened store must hold every committed
    /// version; one version per reopen, in turn, is compared with its input.
    fn reopen_once(&mut self, path: &Path, smp: &mut Samples) -> Result<(), String> {
        let latest = self.oracle.latest();
        let t = Instant::now();
        let opened = {
            let _s = self.tr.span("store.reopen", smp.reopen_s.len() as u64);
            self.durable(path, None).try_build_shared()
        };
        smp.reopen_s.push(secs(t));
        let h = opened.map_err(err)?;
        let v = (smp.reopen_s.len() as u32 - 1) % latest + 1;
        let mut buf = Vec::new();
        let r = if h.latest() != latest {
            Err(format!(
                "reopened at version {}, {latest} were committed",
                h.latest()
            ))
        } else {
            h.retrieve_into(v, &mut buf).map_err(err).and_then(|_| {
                self.oracle
                    .check_version(v, std::str::from_utf8(&buf).map_err(err)?)
            })
        };
        self.tally.check("reopen", r);
        Ok(())
    }

    /// Opens the segment with `ColdArchive` and retrieves
    /// `COLD_RETRIEVES_PER_OPEN` versions from it, cycling through all of
    /// them across opens.
    fn cold_once(&mut self, path: &Path, smp: &mut Samples) -> Result<(), String> {
        let cold = self
            .tr
            .time("storage.cold_open", smp.cold_ms.len() as u64, || {
                ColdArchive::open(path)
            })
            .map_err(err)?;
        let mut buf = Vec::new();
        for _ in 0..COLD_RETRIEVES_PER_OPEN {
            // every version in turn, so each run reads the same mix of
            // block sizes and the median does not move with the draw
            let v = (smp.cold_ms.len() as u32) % self.oracle.latest() + 1;
            buf.clear();
            let t = Instant::now();
            let got = {
                let _s = self.tr.span("storage.cold_retrieve", u64::from(v));
                cold.retrieve_into(v, &mut buf)
            };
            smp.cold_ms.push(secs(t) * 1e3);
            self.tally.check(
                "cold retrieve",
                got.map_err(err).and_then(|_| {
                    self.oracle
                        .check_version(v, std::str::from_utf8(&buf).map_err(err)?)
                }),
            );
        }
        smp.cold_decoded += cold.bytes_decoded();
        Ok(())
    }

    // ---- the untraced run: end-to-end metrics ---------------------------

    fn untraced(
        &mut self,
        served: Option<(ArchiveHandle, Obs)>,
        setup_s: f64,
    ) -> Result<Vec<Metric>, String> {
        let in_bytes = self.inputs.total_bytes() as f64;
        let last_bytes = self.inputs.xml.last().map_or(1, String::len) as f64;
        let on_disk = self.segment_path("persisted");
        self.persist(&on_disk, None)?;
        let disk = std::fs::metadata(&on_disk).map_err(err)?.len() as f64;

        let (smp, handle) = self.lifecycle(served, &on_disk, false, false)?;
        let size_bytes = handle.stats().map_err(err)?.size_bytes as f64;
        drop(handle);

        let need = |v: Option<f64>, what: &str| v.ok_or(format!("no samples for {what}"));
        let rounds: Vec<(f64, f64)> = smp.rounds.iter().map(|&(mb, s, _)| (mb, s)).collect();
        Ok(vec![
            metric("setup_s", setup_s, "s"),
            metric(
                "ingest_mb_per_s",
                need(median_rate(&rounds), "ingest")?,
                "MB/s",
            ),
            metric(
                "commit_p50_ms",
                need(median(&smp.commits_ms), "commits")?,
                "ms",
            ),
            metric("reopen_s", need(median(&smp.reopen_s), "reopen")?, "s"),
            metric(
                "cold_retrieve_p50_ms",
                need(median(&smp.cold_ms), "cold retrieve")?,
                "ms",
            ),
            metric("disk_bytes_per_input_byte", disk / in_bytes, "ratio"),
            metric("archive_size_ratio", size_bytes / last_bytes, "ratio"),
            metric("peak_rss_mb", peak_rss_mb(), "MB"),
            metric(
                "retrieve_p50_ms",
                need(median(&smp.retrieve_ms), "retrieves")?,
                "ms",
            ),
            metric(
                "scan_p50_ms",
                need(median(&smp.range_ms), "range scans")?,
                "ms",
            ),
            metric(
                "retrieve_mb_per_s",
                need(median_rate(&smp.passes), "streaming")?,
                "MB/s",
            ),
        ])
    }

    // ---- the traced run: per-layer metrics ------------------------------

    fn traced(&mut self, served: Option<(ArchiveHandle, Obs)>) -> Result<Vec<Metric>, String> {
        let mb = self.inputs.total_bytes() as f64 / MB;
        let releases = self.inputs.releases(self.p.release);
        let n_releases = releases.len() as f64;

        // durable layers, read off an observed build of the releases
        let obs = Obs::new();
        let on_disk = self.segment_path("persisted");
        self.persist(&on_disk, Some(&obs))?;
        let counter = |name: &str| obs.registry().get_counter(name).map_or(0, |c| c.get()) as f64;
        let fsyncs = counter("segment.fsyncs");
        let bytes_written = counter("segment.bytes_written");
        let checkpoint_bytes = counter("checkpoint.bytes_written");
        let tail_blocks = self.reopen_for_recovery(&on_disk)?;

        // the lifecycle with spans on; ingest rounds alternate tracing on
        // and off so the recorder's own overhead can be read off
        let (smp, handle) = self.lifecycle(served, &on_disk, true, true)?;
        drop(handle);
        let wall = |on: bool| {
            let w: Vec<f64> = smp
                .rounds
                .iter()
                .filter(|r| r.2 == on)
                .map(|r| r.1)
                .collect();
            median(&w)
        };
        let overhead_pct = match (wall(true), wall(false)) {
            (Some(a), Some(b)) if b > 0.0 => (a / b - 1.0) * 100.0,
            _ => return Err("no tracing overhead samples".into()),
        };
        let cold_decoded = smp.cold_decoded as f64 / smp.cold_ms.len().max(1) as f64;

        // direct calls into single layers, each under its own span
        let docs = self.parsed_docs()?;
        self.probe_xml_keys_core(&docs, &releases)?;
        let (archive_nodes, core_retrieve_ms) = self.probe_core_retrieve(&docs, &releases)?;
        self.probe_index_maintenance(&docs, &releases)?;
        let (point_us, probes_per_point, range_ms) = self.probe_index_queries(&docs, &releases)?;
        self.probe_storage(&docs, &releases)?;
        let append_fsync_ms = self.probe_append(&docs, &releases)?;
        let (checkpoint_ms, restore_ms) = self.probe_checkpoint(&docs, &releases)?;
        let catchup = self.probe_catchup(&docs, &releases)?;
        let pin_ns = self.probe_pin(&docs)?;
        let codec = codec_per_verb(&smp.exchanges)?;

        let lt = self.tr.layer_times();
        let self_ms = |name: &str| lt.get(name).map_or(0.0, |l| l.self_ns as f64 / 1e6);
        let mean_ms = |name: &str| {
            lt.get(name)
                .map_or(0.0, |l| l.self_ns as f64 / 1e6 / l.count.max(1) as f64)
        };
        // every traced parse covered one version; scale to MB parsed
        let parsed_mb =
            lt.get("xml.parse").map_or(0, |l| l.count) as f64 / self.inputs.xml.len() as f64 * mb;
        let written_mb: f64 = docs
            .iter()
            .map(|d| to_compact_string(d).len())
            .sum::<usize>() as f64
            / MB;

        let mut out = vec![
            metric(
                "xml.parse_ms_per_mb",
                self_ms("xml.parse") / parsed_mb,
                "ms/MB",
            ),
            metric(
                "xml.write_ms_per_mb",
                self_ms("xml.write") / written_mb,
                "ms/MB",
            ),
            metric(
                "keys.annotate_ms_per_mb",
                self_ms("keys.annotate") / mb,
                "ms/MB",
            ),
            metric(
                "core.merge_ms_per_mb",
                self_ms("core.add_annotated") / mb,
                "ms/MB",
            ),
            metric(
                "core.batch_merge_ms_per_mb",
                self_ms("core.add_versions") / mb,
                "ms/MB",
            ),
            metric("core.retrieve_ms", core_retrieve_ms, "ms"),
            metric("core.archive_nodes", archive_nodes, "count"),
            metric(
                "index.maintain_ms_per_mb",
                (self_ms("index.indexed_add_versions") - self_ms("index.plain_add_versions")) / mb,
                "ms/MB",
            ),
            metric("index.point_us", point_us, "us"),
            metric("index.probes_per_point", probes_per_point, "count"),
            metric("index.range_ms", range_ms, "ms"),
            metric(
                "storage.encode_ms_per_mb",
                self_ms("storage.encode") / mb,
                "ms/MB",
            ),
            metric(
                "storage.codec_ms_per_mb",
                self_ms("compress.encode") / mb,
                "ms/MB",
            ),
            metric(
                "storage.crc_ms_per_mb",
                self_ms("storage.crc32") / mb,
                "ms/MB",
            ),
            metric("storage.append_fsync_ms", append_fsync_ms, "ms"),
            metric("storage.fsyncs", fsyncs, "count"),
            metric(
                "storage.bytes_written_per_input_byte",
                (bytes_written + checkpoint_bytes) / (mb * MB),
                "ratio",
            ),
            metric("storage.checkpoint_ms", checkpoint_ms, "ms"),
            metric("storage.checkpoint_bytes", checkpoint_bytes, "bytes"),
            metric("storage.restore_ms", restore_ms, "ms"),
            metric("storage.tail_blocks_replayed", tail_blocks, "count"),
            metric("storage.cold_open_ms", mean_ms("storage.cold_open"), "ms"),
            metric(
                "storage.cold_bytes_decoded_per_retrieve",
                cold_decoded,
                "bytes",
            ),
            metric("handle.catchup_ms_per_release", catchup / n_releases, "ms"),
            metric("handle.pin_ns", pin_ns, "ns"),
        ];
        for (verb, us) in codec {
            out.push(metric(&format!("proto.codec_us.{verb}"), us, "us"));
        }
        out.push(metric(
            "proto.bytes_per_retrieve",
            smp.retrieve_frame_bytes.iter().sum::<f64>()
                / smp.retrieve_frame_bytes.len().max(1) as f64,
            "bytes",
        ));
        out.push(metric(
            "server.wire_overhead_us",
            median(&smp.wire_overhead_us).unwrap_or(0.0),
            "us",
        ));
        let need = |v: Option<f64>, what: &str| v.ok_or(format!("no samples for {what}"));
        out.push(metric(
            "query_per_s",
            need(median(&smp.cycle_qps), "queries")?,
            "1/s",
        ));
        out.push(metric(
            "point_p50_us",
            need(median(&smp.point_us), "point queries")?,
            "us",
        ));
        out.push(metric(
            "point_p99_us",
            blocked_p99(&smp.point_us).ok_or("fewer point queries than one p99 block")?,
            "us",
        ));
        out.push(metric("trace.overhead_pct", overhead_pct, "%"));
        Ok(out)
    }

    fn parsed_docs(&self) -> Result<Vec<Document>, String> {
        self.inputs
            .xml
            .iter()
            .map(|x| parse(x).map_err(err))
            .collect()
    }

    /// Reopens through `DurableArchive` itself to read its recovery report.
    fn reopen_for_recovery(&self, path: &Path) -> Result<f64, String> {
        let inner = self.builder(None).try_build().map_err(err)?;
        let options = DurableOptions {
            checkpoint_every: Some(self.p.checkpoint_every),
            ..DurableOptions::default()
        };
        let d = DurableArchive::open_with(path, options, inner).map_err(err)?;
        Ok(f64::from(d.recovery().tail_blocks_replayed))
    }

    fn probe_xml_keys_core(
        &self,
        docs: &[Document],
        releases: &[std::ops::Range<usize>],
    ) -> Result<(), String> {
        let spec = &self.inputs.spec;
        let mut anns = Vec::new();
        for (v, d) in docs.iter().enumerate() {
            let g = v as u64;
            self.tr.time("xml.write", g, || {
                std::hint::black_box(to_compact_string(d))
            });
            anns.push(
                self.tr
                    .time("keys.annotate", g, || annotate(d, spec))
                    .map_err(err)?,
            );
        }
        let mut a = Archive::new(spec.clone());
        for (v, (d, ann)) in docs.iter().zip(&anns).enumerate() {
            self.tr
                .time("core.add_annotated", v as u64, || a.add_annotated(d, ann))
                .map_err(err)?;
        }
        let mut a = Archive::new(spec.clone());
        for (i, r) in releases.iter().enumerate() {
            self.tr
                .time("core.add_versions", i as u64, || {
                    a.add_versions(&docs[r.clone()])
                })
                .map_err(err)?;
        }
        Ok(())
    }

    /// In-process streaming retrieval from the plain archive: the median
    /// per-version time, and the archive's node count.
    fn probe_core_retrieve(
        &mut self,
        docs: &[Document],
        releases: &[std::ops::Range<usize>],
    ) -> Result<(f64, f64), String> {
        let mut a = Archive::new(self.inputs.spec.clone());
        for r in releases {
            a.add_versions(&docs[r.clone()]).map_err(err)?;
        }
        let st = StoreReader::stats(&a).map_err(err)?;
        let mut times = Vec::new();
        let mut buf = Vec::new();
        for _ in 0..2 {
            for v in 1..=a.latest() {
                buf.clear();
                let t = Instant::now();
                let got = self.tr.time("core.retrieve_into", u64::from(v), || {
                    a.retrieve_into(v, &mut buf)
                });
                times.push(secs(t) * 1e3);
                self.tally.check(
                    "core retrieve",
                    got.map_err(err).and_then(|_| {
                        self.oracle
                            .check_version(v, std::str::from_utf8(&buf).map_err(err)?)
                    }),
                );
            }
        }
        Ok((
            (st.elements + st.texts) as f64,
            median(&times).unwrap_or(0.0),
        ))
    }

    /// The same releases into an indexed and a plain in-memory store.
    fn probe_index_maintenance(
        &self,
        docs: &[Document],
        releases: &[std::ops::Range<usize>],
    ) -> Result<(), String> {
        let spec = self.inputs.spec.clone();
        for _ in 0..2 {
            let mut plain = ArchiveBuilder::new(spec.clone()).try_build().map_err(err)?;
            let mut indexed = ArchiveBuilder::new(spec.clone())
                .with_index()
                .try_build()
                .map_err(err)?;
            for (i, r) in releases.iter().enumerate() {
                let g = i as u64;
                self.tr
                    .time("index.plain_add_versions", g, || {
                        plain.add_versions(&docs[r.clone()])
                    })
                    .map_err(err)?;
                self.tr
                    .time("index.indexed_add_versions", g, || {
                        indexed.add_versions(&docs[r.clone()])
                    })
                    .map_err(err)?;
            }
        }
        Ok(())
    }

    /// Point queries and range scans in process through a `Snapshot` of an
    /// observed, indexed handle: median µs per point query, index probes
    /// and comparisons per point query (registry counters), median range ms.
    fn probe_index_queries(
        &mut self,
        docs: &[Document],
        releases: &[std::ops::Range<usize>],
    ) -> Result<(f64, f64, f64), String> {
        let obs = Obs::new();
        let h = ArchiveBuilder::new(self.inputs.spec.clone())
            .with_index()
            .with_observability(obs.clone())
            .try_build_shared()
            .map_err(err)?;
        for r in releases {
            h.add_versions(&docs[r.clone()]).map_err(err)?;
        }
        let probes = || {
            ["index.history.comparisons", "index.timestamp.probes"]
                .iter()
                .map(|n| obs.registry().get_counter(n).map_or(0, |c| c.get()))
                .sum::<u64>()
        };
        let mix = Mix::new(self.oracle.keys(), h.latest(), &mut self.rng);
        let (mut point, mut range) = (Vec::new(), Vec::new());
        let mut point_probes = 0u64;
        for cycle in 0..20u64 {
            for (i, q) in mix.cycle(&mut self.rng).iter().enumerate() {
                if q.kind() == Kind::Retrieve {
                    continue;
                }
                let snap = h.snapshot();
                let before = probes();
                let t = Instant::now();
                let a = self.tr.time(q.span(false), cycle * 100 + i as u64, || {
                    self.paths.in_process(&snap, q)
                });
                let dt = secs(t);
                match q.kind() {
                    Kind::Point => {
                        point.push(dt * 1e6);
                        point_probes += probes() - before;
                    }
                    _ => range.push(dt * 1e3),
                }
                self.tally
                    .check(q.verb(), a.and_then(|a| check(&self.oracle, q, &a)));
            }
        }
        Ok((
            median(&point).unwrap_or(0.0),
            point_probes as f64 / point.len().max(1) as f64,
            median(&range).unwrap_or(0.0),
        ))
    }

    /// The journal's per-release encode, codec and checksum work.
    fn probe_storage(
        &self,
        docs: &[Document],
        releases: &[std::ops::Range<usize>],
    ) -> Result<(), String> {
        let codec = DurableOptions::default().compression;
        for (i, r) in releases.iter().enumerate() {
            let g = i as u64;
            let payload = self.tr.time("storage.encode", g, || {
                docs_to_batch_bytes(&docs[r.clone()])
            });
            let (_, encoded) = self
                .tr
                .time("compress.encode", g, || codec.encode(&payload));
            self.tr
                .time("storage.crc32", g, || std::hint::black_box(crc32(&encoded)));
        }
        Ok(())
    }

    /// `Segment::append_batch` with fsync on a scratch segment: mean ms per
    /// release.
    fn probe_append(
        &mut self,
        docs: &[Document],
        releases: &[std::ops::Range<usize>],
    ) -> Result<f64, String> {
        let path = self.segment_path("append");
        self.remove(&path);
        let mut seg = Segment::create(&path, &self.inputs.spec, true).map_err(err)?;
        let mut times = Vec::new();
        for (i, r) in releases.iter().enumerate() {
            let payload = docs_to_batch_bytes(&docs[r.clone()]);
            let (codec, encoded) = BlockCodec::Raw.encode(&payload);
            let t = Instant::now();
            let got = self.tr.time("storage.append_batch", i as u64, || {
                seg.append_batch(
                    codec,
                    r.start as u32 + 1,
                    r.len() as u32,
                    payload.len() as u64,
                    &encoded,
                )
            });
            times.push(secs(t) * 1e3);
            self.tally.check("append", got.map_err(err));
        }
        drop(seg);
        self.remove(&path);
        Ok(median(&times).unwrap_or(0.0))
    }

    /// `checkpoint_state` of the workload's in-memory store holding every
    /// version, and `restore_checkpoint` into a fresh one (median ms).
    fn probe_checkpoint(
        &mut self,
        docs: &[Document],
        releases: &[std::ops::Range<usize>],
    ) -> Result<(f64, f64), String> {
        let mut store = self.builder(None).try_build().map_err(err)?;
        for r in releases {
            store.add_versions(&docs[r.clone()]).map_err(err)?;
        }
        let (mut cp, mut rs) = (Vec::new(), Vec::new());
        let mut buf = Vec::new();
        for k in 0..3u64 {
            let t = Instant::now();
            let state = self
                .tr
                .time("storage.checkpoint_state", k, || store.checkpoint_state())
                .map_err(err)?;
            cp.push(secs(t) * 1e3);
            let state = state.ok_or("the store cannot checkpoint")?;
            let mut fresh = self.builder(None).try_build().map_err(err)?;
            let t = Instant::now();
            let ok = self
                .tr
                .time("storage.restore_checkpoint", k, || {
                    fresh.restore_checkpoint(&state)
                })
                .map_err(err)?;
            rs.push(secs(t) * 1e3);
            let v = fresh.latest();
            buf.clear();
            self.tally.check(
                "restore",
                if ok && v == self.oracle.latest() {
                    fresh.retrieve_into(v, &mut buf).map_err(err).and_then(|_| {
                        self.oracle
                            .check_version(v, std::str::from_utf8(&buf).map_err(err)?)
                    })
                } else {
                    Err(format!("restored to version {v}"))
                },
            );
        }
        Ok((median(&cp).unwrap_or(0.0), median(&rs).unwrap_or(0.0)))
    }

    /// The workload's ingest store built shared and unshared, fed the same
    /// releases alternately: total ms the shared handle spent beyond the
    /// unshared store (its replica catch-up).
    fn probe_catchup(
        &self,
        docs: &[Document],
        releases: &[std::ops::Range<usize>],
    ) -> Result<f64, String> {
        let (pa, pb) = (
            self.segment_path("catchup-shared"),
            self.segment_path("catchup-plain"),
        );
        self.remove(&pa);
        self.remove(&pb);
        let durable = self.p.ingest == IngestPath::DurableHandle;
        let build = |p: &Path| {
            if durable {
                self.durable(p, None)
            } else {
                self.builder(None)
            }
        };
        let shared = build(&pa).try_build_shared().map_err(err)?;
        let mut plain = build(&pb).try_build().map_err(err)?;
        let (mut a, mut b) = (0.0, 0.0);
        for (i, r) in releases.iter().enumerate() {
            let g = i as u64;
            let t = Instant::now();
            self.tr
                .time("handle.add_versions", g, || {
                    shared.add_versions(&docs[r.clone()])
                })
                .map_err(err)?;
            a += secs(t);
            let t = Instant::now();
            self.tr
                .time("store.unshared_add_versions", g, || {
                    plain.add_versions(&docs[r.clone()])
                })
                .map_err(err)?;
            b += secs(t);
        }
        drop((shared, plain));
        self.remove(&pa);
        self.remove(&pb);
        Ok((a - b) * 1e3)
    }

    /// `snapshot()` on a populated handle: median ns per pin over batches.
    fn probe_pin(&self, docs: &[Document]) -> Result<f64, String> {
        let h = ArchiveBuilder::new(self.inputs.spec.clone())
            .try_build_shared()
            .map_err(err)?;
        h.add_versions(&docs[..1]).map_err(err)?;
        const PER_BATCH: u32 = 10_000;
        let mut per_pin = Vec::new();
        for _ in 0..20 {
            let t = Instant::now();
            for _ in 0..PER_BATCH {
                std::hint::black_box(h.snapshot());
            }
            per_pin.push(secs(t) * 1e9 / f64::from(PER_BATCH));
        }
        Ok(median(&per_pin).unwrap_or(0.0))
    }
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Median µs of the in-memory codec round trip, per verb.
fn codec_per_verb(
    exchanges: &[Option<(Request, Response)>; 6],
) -> Result<Vec<(&'static str, f64)>, String> {
    let mut out = Vec::new();
    for (verb, exchange) in VERBS.iter().zip(exchanges) {
        let Some((req, resp)) = exchange else {
            return Err(format!("no {verb} sample for the codec probe"));
        };
        let mut times = Vec::new();
        for _ in 0..200 {
            times.push(codec_round_trip_us(req, resp)?);
        }
        out.push((*verb, median(&times).unwrap_or(0.0)));
    }
    Ok(out)
}
