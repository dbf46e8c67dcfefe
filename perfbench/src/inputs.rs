//! Workload definitions and the inputs generated for them.
//!
//! Inputs come from `xarch_datagen` under the seed given on the command
//! line; the program only ever sees the generated XML text. Generation is
//! deterministic and single-threaded.

use xarch::datagen::omim::{omim_spec, OmimGen};
use xarch::datagen::swissprot::{swissprot_spec, SwissProtGen};
use xarch::keys::KeySpec;
use xarch::xml::writer::to_compact_string;
use xarch::xml::Document;

/// Which store the workload's releases are ingested into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestPath {
    /// `ArchiveBuilder::with_index().checkpoint_every(n).durable(path)`,
    /// built shared, fsync on: every write-side layer runs.
    DurableHandle,
    /// An indexed in-memory archive built shared: the store `serve`
    /// answers from.
    MemHandle,
    /// The default in-memory `VersionStore`, unshared: no journal, handle
    /// or index in the path.
    MemStore,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    Omim,
    SwissProt,
}

/// Shares of `--seconds` given to each timed phase.
#[derive(Debug, Clone, Copy)]
pub struct Shares {
    pub ingest: f64,
    pub serve: f64,
    pub stream: f64,
    pub reopen: f64,
    pub cold: f64,
}

/// One workload: an input shape plus the weight each phase gets.
#[derive(Debug, Clone, Copy)]
pub struct Profile {
    pub name: &'static str,
    pub dataset: Dataset,
    /// Records in the first version.
    pub records: usize,
    pub versions: usize,
    /// Versions handed over per `add_versions` call.
    pub release: usize,
    pub ingest: IngestPath,
    /// Checkpoint cadence of the durable store, in versions.
    pub checkpoint_every: u32,
    pub shares: Shares,
}

impl Profile {
    pub fn indexed(&self) -> bool {
        self.ingest != IngestPath::MemStore
    }
}

pub const PROFILES: [Profile; 3] = [
    Profile {
        name: "curate",
        dataset: Dataset::Omim,
        records: 400,
        versions: 24,
        release: 5,
        ingest: IngestPath::DurableHandle,
        checkpoint_every: 10,
        shares: Shares {
            ingest: 0.45,
            serve: 0.15,
            stream: 0.1,
            reopen: 0.15,
            cold: 0.15,
        },
    },
    Profile {
        name: "serve",
        dataset: Dataset::Omim,
        records: 400,
        versions: 24,
        release: 5,
        ingest: IngestPath::MemHandle,
        checkpoint_every: 10,
        shares: Shares {
            ingest: 0.2,
            serve: 0.45,
            stream: 0.1,
            reopen: 0.125,
            cold: 0.125,
        },
    },
    Profile {
        name: "churn",
        dataset: Dataset::SwissProt,
        records: 300,
        versions: 8,
        release: 3,
        ingest: IngestPath::MemStore,
        checkpoint_every: 4,
        shares: Shares {
            ingest: 0.4,
            serve: 0.15,
            stream: 0.2,
            reopen: 0.125,
            cold: 0.125,
        },
    },
];

pub fn profile(name: &str) -> Option<&'static Profile> {
    PROFILES.iter().find(|p| p.name == name)
}

/// Root, record and record-key tags of a dataset.
pub fn tags(d: Dataset) -> (&'static str, &'static str, &'static str) {
    match d {
        Dataset::Omim => ("ROOT", "Record", "Num"),
        Dataset::SwissProt => ("ROOT", "Record", "pac"),
    }
}

/// The generated version sequence, as the XML text the program is given.
pub struct Inputs {
    pub spec: KeySpec,
    pub xml: Vec<String>,
}

impl Inputs {
    pub fn total_bytes(&self) -> usize {
        self.xml.iter().map(String::len).sum()
    }

    /// Version numbers (1-based) grouped into releases of `size`.
    pub fn releases(&self, size: usize) -> Vec<std::ops::Range<usize>> {
        (0..self.xml.len())
            .step_by(size)
            .map(|lo| lo..(lo + size).min(self.xml.len()))
            .collect()
    }
}

/// Generates the workload's versions from `seed`.
pub fn generate(p: &Profile, seed: u64) -> Inputs {
    let (spec, docs): (KeySpec, Vec<Document>) = match p.dataset {
        Dataset::Omim => (
            omim_spec(),
            OmimGen::new(seed).sequence(p.records, p.versions),
        ),
        Dataset::SwissProt => (
            swissprot_spec(),
            SwissProtGen::new(seed).sequence(p.records, p.versions),
        ),
    };
    Inputs {
        spec,
        xml: docs.iter().map(to_compact_string).collect(),
    }
}

/// A small deterministic generator (SplitMix64) for query mixes.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in [0, n).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.unit() * n as f64) as usize).min(n.saturating_sub(1))
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}
