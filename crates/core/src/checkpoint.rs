//! Checkpoint/resume for long active-learning runs.
//!
//! A real tuning campaign annotates hundreds of configurations at tens of
//! seconds each; the process hosting it will eventually be killed. An
//! [`ActiveCheckpoint`] captures everything Algorithm 1's iteration loop
//! mutates — the labeled set, the remaining pool, the quarantine list, all
//! three RNG streams (annotation, selection, pool sampling) and the
//! iteration counter — so [`crate::active::resume`] can continue the run
//! *bit-identically* to the run that saved it. The from-scratch forest is
//! deliberately not serialized: it is a pure function of the training set
//! and the iteration-derived seed, so resume refits it instead.
//!
//! The on-disk format is a hand-rolled line-oriented text file (the
//! workspace has no serialization dependency). Every `f64` is stored as its
//! IEEE-754 bit pattern in hex, so round-trips are exact — a resumed run
//! sees the same bits the killed run saw. Writes go through a temp file in
//! the same directory followed by an atomic rename, so a crash mid-write
//! leaves the previous checkpoint intact rather than a torn file; the file
//! and then its directory are `fsync`ed, so a written checkpoint also
//! survives a power loss ([`write_durable`]). Encoding fills one pre-sized
//! buffer and parsing borrows from the file text.
//!
//! Two integrity layers sit on top of the text format:
//!
//! - every file [`ActiveCheckpoint::save_atomic`] writes ends with a
//!   `footer <body-bytes> <fnv1a64>` line; [`ActiveCheckpoint::load_verified`]
//!   demands it and returns a typed [`CheckpointError::Corrupt`] — never a
//!   panic, never a silent misparse — when the file is truncated, bit-flipped
//!   or otherwise damaged;
//! - [`GenerationStore`] keeps the last few checkpoints as numbered
//!   generations (`gen-NNNN.ckpt`), so a corrupt newest generation rolls
//!   back to the previous durable one instead of losing the session.

use std::fmt;
use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::str::SplitWhitespace;

use pwu_forest::FitMode;
use pwu_space::PoolLintCounts;

use crate::active::{SelectionTrace, Snapshot};
use crate::annotator::MeasurementStats;

/// When and where a run saves checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Checkpoint file path (the temp file is written next to it).
    pub path: PathBuf,
    /// Save every this many iterations (a final save always happens when
    /// the run completes).
    pub every: u64,
}

impl CheckpointPolicy {
    /// Creates a policy saving to `path` every `every` iterations.
    ///
    /// # Panics
    /// Panics if `every` is zero.
    #[must_use]
    pub fn new(path: impl Into<PathBuf>, every: u64) -> Self {
        assert!(every > 0, "checkpoint interval must be positive");
        Self {
            path: path.into(),
            every,
        }
    }
}

/// Why a checkpoint could not be saved, loaded or resumed.
#[derive(Debug)]
pub enum CheckpointError {
    /// The checkpoint file could not be read or written.
    Io(std::io::Error),
    /// The checkpoint file is malformed.
    Parse {
        /// 1-based line number where parsing failed.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// The checkpoint does not belong to the given target/configuration.
    Mismatch(String),
    /// The checkpoint file is damaged: truncated, bit-flipped, missing its
    /// integrity footer, or failing the footer's length/checksum test.
    Corrupt(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Parse { line, message } => {
                write!(f, "checkpoint parse error at line {line}: {message}")
            }
            CheckpointError::Mismatch(msg) => write!(f, "checkpoint mismatch: {msg}"),
            CheckpointError::Corrupt(msg) => write!(f, "checkpoint corrupt: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// A serializable snapshot of an in-flight active-learning run.
///
/// Captured at iteration boundaries (after the refit and any history
/// recording), so resuming replays the loop from the next iteration with
/// nothing lost and nothing repeated.
#[derive(Debug, Clone, PartialEq)]
pub struct ActiveCheckpoint {
    /// Name of the target being tuned (verified on resume).
    pub target_name: String,
    /// Iterations completed.
    pub iteration: u64,
    /// The derived forest seed (refits use `derive_seed(forest_seed, i)`).
    pub forest_seed: u64,
    /// Cold-start size of the saving run (verified on resume).
    pub n_init: usize,
    /// Batch size of the saving run (verified on resume).
    pub n_batch: usize,
    /// Stop size of the saving run (verified on resume).
    pub n_max: usize,
    /// Measurement repeats of the saving run (verified on resume).
    pub repeats: usize,
    /// Forest fit engine of the saving run (verified on resume: the two
    /// engines produce bitwise-different forests, so resuming a run under
    /// the other engine would silently fork its trajectory).
    pub fit_mode: FitMode,
    /// RMSE@α levels of the saving run (verified bit-exactly on resume).
    pub alphas: Vec<f64>,
    /// Annotation RNG stream position.
    pub annotator_rng: [u64; 4],
    /// Annotations attempted so far.
    pub annotator_evaluations: usize,
    /// Measurement tally so far.
    pub stats: MeasurementStats,
    /// Selection RNG stream position.
    pub select_rng: [u64; 4],
    /// Pool-sampling RNG stream position.
    pub pool_rng: [u64; 4],
    /// Lint tally over the original pool.
    pub lint: PoolLintCounts,
    /// Labeled configurations (levels; features are re-encoded on resume).
    pub train_configs: Vec<Vec<u32>>,
    /// Labels aligned with `train_configs`.
    pub train_labels: Vec<f64>,
    /// Remaining pool configurations (levels).
    pub pool_configs: Vec<Vec<u32>>,
    /// Quarantined configurations (levels).
    pub quarantined: Vec<Vec<u32>>,
    /// Test-set evaluation snapshots recorded so far.
    pub history: Vec<Snapshot>,
    /// Selection traces recorded so far.
    pub selections: Vec<SelectionTrace>,
}

// v2 added the `fit-mode` line; older files are rejected at the magic with
// a parse error rather than resumed under a silently-assumed engine.
const MAGIC: &str = "pwu-active-checkpoint v2";

/// FNV-1a 64-bit hash — the checksum in the checkpoint integrity footer.
///
/// Public so sibling crates (`pwu-serve` session metadata) can stamp their
/// own durable files with the same footer convention.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Appends the `footer <body-bytes> <fnv1a64>` integrity line to a durable
/// text body. The companion [`split_verified_body`] checks and strips it.
#[must_use]
pub fn with_integrity_footer(body: &str) -> String {
    let mut out = String::with_capacity(body.len() + 48);
    out.push_str(body);
    push_footer(&mut out);
    out
}

/// Verifies the integrity footer on raw file bytes and returns the body.
///
/// # Errors
/// Returns [`CheckpointError::Corrupt`] when the bytes are not UTF-8, the
/// footer is missing or malformed, the recorded length does not match the
/// body, or the checksum disagrees — i.e. on any truncation or bit flip.
pub fn split_verified_body(bytes: &[u8]) -> Result<&str, CheckpointError> {
    verify_footer(bytes).map(|(body, _)| body)
}

/// [`split_verified_body`], also returning the body's FNV-1a digest.
fn verify_footer(bytes: &[u8]) -> Result<(&str, u64), CheckpointError> {
    let corrupt = |msg: &str| CheckpointError::Corrupt(msg.to_string());
    let text =
        std::str::from_utf8(bytes).map_err(|_| corrupt("file is not valid UTF-8"))?;
    let at = text
        .rfind("footer ")
        .filter(|&i| i == 0 || text.as_bytes()[i - 1] == b'\n')
        .ok_or_else(|| corrupt("missing integrity footer"))?;
    let (body, footer) = text.split_at(at);
    let mut it = footer.split_whitespace();
    let (Some("footer"), Some(len), Some(sum), None) = (it.next(), it.next(), it.next(), it.next())
    else {
        return Err(corrupt("malformed integrity footer"));
    };
    let len: usize = len
        .parse()
        .map_err(|_| corrupt("malformed footer length"))?;
    let sum = u64::from_str_radix(sum, 16).map_err(|_| corrupt("malformed footer checksum"))?;
    if body.len() != len {
        return Err(corrupt("body length does not match the footer"));
    }
    if fnv1a64(body.as_bytes()) != sum {
        return Err(corrupt("body checksum does not match the footer"));
    }
    Ok((body, sum))
}

/// A `u64` printed as 16 zero-padded lowercase hex digits — the form every
/// float (by its bits) and RNG word takes in the text format.
struct Hex(u64);

impl fmt::Display for Hex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Appends `items` separated by `sep`: the `join` form, written straight
/// into `out` instead of through a `Vec<String>`.
fn push_joined<T: fmt::Display>(out: &mut String, sep: char, items: impl IntoIterator<Item = T>) {
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(sep);
        }
        let _ = write!(out, "{item}");
    }
}

/// Appends a configuration's levels as `l0,l1,...`, in decimal without
/// going through `fmt`: the pool's levels are most of a checkpoint's bytes.
fn push_levels(out: &mut String, levels: &[u32]) {
    for (i, &level) in levels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let mut digits = [0u8; 10];
        let mut at = digits.len();
        let mut v = level;
        loop {
            at -= 1;
            digits[at] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        out.extend(digits[at..].iter().map(|&d| char::from(d)));
    }
}

/// Appends the `footer <body-bytes> <fnv1a64>` line for the body that
/// fills `out` and returns the body's digest.
fn push_footer(out: &mut String) -> u64 {
    let len = out.len();
    let digest = fnv1a64(out.as_bytes());
    let _ = writeln!(out, "footer {len} {}", Hex(digest));
    digest
}

/// A checkpoint encoded once for durable storage: the text body followed by
/// its integrity footer, and the body's FNV-1a digest (which is also the
/// session fingerprint `pwu-serve` reports).
#[derive(Debug, Clone)]
pub struct EncodedCheckpoint {
    bytes: String,
    digest: u64,
}

impl EncodedCheckpoint {
    /// The file bytes: body plus footer.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        self.bytes.as_bytes()
    }

    /// FNV-1a of the body — equal to `fnv1a64(checkpoint.to_text())`.
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.digest
    }
}

impl ActiveCheckpoint {
    /// Serializes to the line-oriented checkpoint text format.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(self.text_capacity());
        self.write_text(&mut out);
        out
    }

    /// Serializes to the durable file form (text plus integrity footer) in
    /// one buffer, hashing the body once.
    #[must_use]
    pub fn encode(&self) -> EncodedCheckpoint {
        let mut bytes = String::with_capacity(self.text_capacity());
        self.write_text(&mut bytes);
        let digest = push_footer(&mut bytes);
        EncodedCheckpoint { bytes, digest }
    }

    /// An upper estimate of the encoded size (footer included), so encoding
    /// fills one buffer without regrowing it.
    fn text_capacity(&self) -> usize {
        // A level takes at most 10 digits and a comma; a hex word 17 bytes.
        let width = self.train_configs.first().map_or(0, Vec::len) * 11;
        let configs = self.train_configs.len() + self.pool_configs.len() + self.quarantined.len();
        let history: usize = self.history.iter().map(|s| 40 + 17 * s.rmse.len()).sum();
        1024 + 17 * self.alphas.len()
            + configs * (width + 1)
            + 17 * self.train_labels.len()
            + history
            + 51 * self.selections.len()
            + self.target_name.len()
    }

    fn write_text(&self, w: &mut String) {
        let _ = writeln!(w, "{MAGIC}");
        let _ = writeln!(w, "target {}", self.target_name);
        let _ = writeln!(w, "iteration {}", self.iteration);
        let _ = writeln!(w, "forest-seed {}", self.forest_seed);
        let _ = writeln!(
            w,
            "counts {} {} {} {}",
            self.n_init, self.n_batch, self.n_max, self.repeats
        );
        let _ = writeln!(w, "fit-mode {}", self.fit_mode.token());
        w.push_str("alphas ");
        push_joined(w, ' ', self.alphas.iter().map(|a| Hex(a.to_bits())));
        w.push('\n');
        for (tag, state) in [
            ("annotator-rng", &self.annotator_rng),
            ("select-rng", &self.select_rng),
            ("pool-rng", &self.pool_rng),
        ] {
            let _ = writeln!(
                w,
                "{tag} {} {} {} {}",
                Hex(state[0]),
                Hex(state[1]),
                Hex(state[2]),
                Hex(state[3])
            );
        }
        let _ = writeln!(w, "annotator-evaluations {}", self.annotator_evaluations);
        let s = &self.stats;
        let _ = writeln!(
            w,
            "stats {} {} {} {} {} {} {} {} {}",
            s.annotations,
            s.readings,
            s.compile_failures,
            s.crashes,
            s.bad_readings,
            s.timeouts,
            s.retries,
            s.failed_annotations,
            Hex(s.wasted_cost.to_bits())
        );
        let _ = writeln!(
            w,
            "lint {} {} {}",
            self.lint.legal, self.lint.flagged, self.lint.illegal
        );
        let _ = writeln!(w, "train {}", self.train_configs.len());
        for (cfg, label) in self.train_configs.iter().zip(&self.train_labels) {
            push_levels(w, cfg);
            let _ = writeln!(w, " {}", Hex(label.to_bits()));
        }
        for (tag, configs) in [("pool", &self.pool_configs), ("quarantined", &self.quarantined)] {
            let _ = writeln!(w, "{tag} {}", configs.len());
            for cfg in configs {
                push_levels(w, cfg);
                w.push('\n');
            }
        }
        let _ = writeln!(w, "history {}", self.history.len());
        for snap in &self.history {
            let _ = write!(w, "{} {} ", snap.n_train, Hex(snap.cumulative_cost.to_bits()));
            push_joined(w, ' ', snap.rmse.iter().map(|r| Hex(r.to_bits())));
            w.push('\n');
        }
        let _ = writeln!(w, "selections {}", self.selections.len());
        for sel in &self.selections {
            let _ = writeln!(
                w,
                "{} {} {}",
                Hex(sel.mean.to_bits()),
                Hex(sel.std.to_bits()),
                Hex(sel.observed.to_bits())
            );
        }
        w.push_str("end\n");
    }

    /// Parses the checkpoint text format.
    ///
    /// # Errors
    /// Returns [`CheckpointError::Parse`] with a 1-based line number on any
    /// malformed line.
    pub fn from_text(text: &str) -> Result<Self, CheckpointError> {
        let mut lines = Lines::new(text);
        lines.expect_exact(MAGIC)?;
        let target_name = lines.tagged_rest("target")?.to_string();
        let iteration = lines
            .tagged_rest("iteration")?
            .trim()
            .parse()
            .map_err(|e: std::num::ParseIntError| lines.err(format!("bad iteration: {e}")))?;
        let forest_seed = lines
            .tagged_rest("forest-seed")?
            .trim()
            .parse()
            .map_err(|e: std::num::ParseIntError| lines.err(format!("bad forest-seed: {e}")))?;
        let counts = lines.tagged_rest("counts")?;
        let mut it = counts.split_whitespace();
        let n_init = lines.next_usize(&mut it, "counts")?;
        let n_batch = lines.next_usize(&mut it, "counts")?;
        let n_max = lines.next_usize(&mut it, "counts")?;
        let repeats = lines.next_usize(&mut it, "counts")?;
        let fit_mode_token = lines.tagged_rest("fit-mode")?.trim();
        let fit_mode = FitMode::parse(fit_mode_token)
            .ok_or_else(|| lines.err(format!("unknown fit-mode {fit_mode_token:?}")))?;
        let alphas = lines
            .tagged_rest("alphas")?
            .split_whitespace()
            .map(|tok| lines.parse_hex_f64(tok))
            .collect::<Result<Vec<f64>, _>>()?;
        let annotator_rng = lines.rng_state("annotator-rng")?;
        let select_rng = lines.rng_state("select-rng")?;
        let pool_rng = lines.rng_state("pool-rng")?;
        let annotator_evaluations = lines
            .tagged_rest("annotator-evaluations")?
            .trim()
            .parse()
            .map_err(|e: std::num::ParseIntError| lines.err(format!("bad evaluations: {e}")))?;
        let mut it = lines.tagged_rest("stats")?.split_whitespace();
        let stats = MeasurementStats {
            annotations: lines.next_usize(&mut it, "stats")?,
            readings: lines.next_usize(&mut it, "stats")?,
            compile_failures: lines.next_usize(&mut it, "stats")?,
            crashes: lines.next_usize(&mut it, "stats")?,
            bad_readings: lines.next_usize(&mut it, "stats")?,
            timeouts: lines.next_usize(&mut it, "stats")?,
            retries: lines.next_usize(&mut it, "stats")?,
            failed_annotations: lines.next_usize(&mut it, "stats")?,
            wasted_cost: {
                let tok = it
                    .next()
                    .ok_or_else(|| lines.err("stats line is missing wasted_cost".into()))?;
                lines.parse_hex_f64(tok)?
            },
        };
        let mut it = lines.tagged_rest("lint")?.split_whitespace();
        let lint = PoolLintCounts {
            legal: lines.next_usize(&mut it, "lint")?,
            flagged: lines.next_usize(&mut it, "lint")?,
            illegal: lines.next_usize(&mut it, "lint")?,
        };

        let n_train = lines.counted_section("train")?;
        let mut train_configs: Vec<Vec<u32>> = Vec::with_capacity(n_train);
        let mut train_labels = Vec::with_capacity(n_train);
        for _ in 0..n_train {
            let line = lines.next_line()?;
            let (levels, label) = line
                .rsplit_once(' ')
                .ok_or_else(|| lines.err("train line needs 'levels label'".into()))?;
            let width = train_configs.last().map_or(0, Vec::len);
            train_configs.push(lines.parse_levels(levels, width)?);
            train_labels.push(lines.parse_hex_f64(label)?);
        }
        let pool_configs = lines.levels_section("pool")?;
        let quarantined = lines.levels_section("quarantined")?;
        let n_history = lines.counted_section("history")?;
        let mut history = Vec::with_capacity(n_history);
        for _ in 0..n_history {
            let mut it = lines.next_line()?.split_whitespace();
            let n_train = lines.next_usize(&mut it, "history")?;
            let cumulative_cost = {
                let tok = it
                    .next()
                    .ok_or_else(|| lines.err("history line is missing cost".into()))?;
                lines.parse_hex_f64(tok)?
            };
            let rmse = it
                .map(|tok| lines.parse_hex_f64(tok))
                .collect::<Result<Vec<f64>, _>>()?;
            history.push(Snapshot {
                n_train,
                cumulative_cost,
                rmse,
            });
        }
        let n_selections = lines.counted_section("selections")?;
        let mut selections = Vec::with_capacity(n_selections);
        for _ in 0..n_selections {
            let mut it = lines.next_line()?.split_whitespace();
            let mut next = |what: &str| -> Result<f64, CheckpointError> {
                let tok = it
                    .next()
                    .ok_or_else(|| lines.err(format!("selection line is missing {what}")))?;
                lines.parse_hex_f64(tok)
            };
            selections.push(SelectionTrace {
                mean: next("mean")?,
                std: next("std")?,
                observed: next("observed")?,
            });
        }
        lines.expect_exact("end")?;
        Ok(Self {
            target_name,
            iteration,
            forest_seed,
            n_init,
            n_batch,
            n_max,
            repeats,
            fit_mode,
            alphas,
            annotator_rng,
            annotator_evaluations,
            stats,
            select_rng,
            pool_rng,
            lint,
            train_configs,
            train_labels,
            pool_configs,
            quarantined,
            history,
            selections,
        })
    }

    /// Writes the checkpoint atomically and durably (with the integrity
    /// footer) through [`write_durable`]: a crash mid-write cannot corrupt an
    /// existing checkpoint, and once this returns the new file survives a
    /// power loss.
    ///
    /// # Errors
    /// Returns [`CheckpointError::Io`] on any filesystem failure.
    pub fn save_atomic(&self, path: &Path) -> Result<(), CheckpointError> {
        write_durable(path, self.encode().as_bytes())?;
        Ok(())
    }

    /// Loads a checkpoint from disk without demanding the integrity footer
    /// (the parser ignores trailing lines, so footered and legacy files both
    /// load). Prefer [`ActiveCheckpoint::load_verified`] for anything that
    /// must distinguish damage from absence.
    ///
    /// # Errors
    /// Returns [`CheckpointError::Io`] if the file cannot be read and
    /// [`CheckpointError::Parse`] if it is malformed.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let text = fs::read_to_string(path)?;
        Self::from_text(&text)
    }

    /// Loads a checkpoint, verifying the integrity footer first.
    ///
    /// # Errors
    /// Returns [`CheckpointError::Io`] if the file cannot be read,
    /// [`CheckpointError::Corrupt`] if it is truncated, bit-flipped or
    /// missing its footer, and [`CheckpointError::Parse`] if a body that
    /// passed the checksum still fails to parse (i.e. a valid footer was
    /// stamped onto a malformed body — possible only for hand-built files).
    pub fn load_verified(path: &Path) -> Result<Self, CheckpointError> {
        Self::read_verified(path).map(|(checkpoint, _)| checkpoint)
    }

    /// [`ActiveCheckpoint::load_verified`], also returning the body's
    /// FNV-1a digest read off the verified footer.
    fn read_verified(path: &Path) -> Result<(Self, u64), CheckpointError> {
        let bytes = fs::read(path)?;
        let (body, digest) = verify_footer(&bytes)?;
        Ok((Self::from_text(body)?, digest))
    }
}

/// Replaces `path` with `bytes` atomically and durably: write a temp file
/// in the same directory, `fsync` it, rename it over `path`, then (on Unix)
/// `fsync` the directory so the rename itself is on disk. A crash at any
/// point leaves either the old file or the new one; after a power loss the
/// new one is there once this has returned.
///
/// # Errors
/// Returns any filesystem error.
pub fn write_durable(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    sync_parent_dir(path)
}

/// Flushes the directory holding `path`, so a rename into it or a new entry
/// (file or directory) created in it is durable.
///
/// # Errors
/// Returns any filesystem error.
#[cfg(unix)]
pub fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    fs::File::open(dir)?.sync_all()
}

/// Directory handles cannot be synced portably off Unix; there the rename
/// is as durable as the platform makes it.
///
/// # Errors
/// Never fails.
#[cfg(not(unix))]
pub fn sync_parent_dir(_path: &Path) -> std::io::Result<()> {
    Ok(())
}

/// A directory of generation-numbered checkpoints (`gen-NNNNNNNNNN.ckpt`).
///
/// Each save lands in a fresh, higher-numbered file (atomically, footer
/// included) and then prunes all but the newest `keep` generations. Loading
/// walks generations newest-first, *rolling back* past any corrupt file, so
/// a crash — even one that damages the newest checkpoint — costs at most
/// the work since the previous durable generation.
#[derive(Debug, Clone)]
pub struct GenerationStore {
    dir: PathBuf,
    keep: usize,
}

/// What [`GenerationStore::load_latest`] recovered.
#[derive(Debug, Clone)]
pub struct Recovered {
    /// The generation number that loaded cleanly.
    pub generation: u64,
    /// Newer generations that were corrupt and rolled past.
    pub rolled_back: usize,
    /// The recovered checkpoint.
    pub checkpoint: ActiveCheckpoint,
    /// FNV-1a of the recovered file's body, read off its verified footer:
    /// the [`EncodedCheckpoint::digest`] the save reported.
    pub digest: u64,
}

impl GenerationStore {
    /// A store rooted at `dir`, keeping the newest 2 generations.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            keep: 2,
        }
    }

    /// Overrides how many generations are retained.
    ///
    /// # Panics
    /// Panics if `keep` is zero.
    #[must_use]
    pub fn with_keep(mut self, keep: usize) -> Self {
        assert!(keep > 0, "must keep at least one generation");
        self.keep = keep;
        self
    }

    /// The directory this store writes into.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The on-disk path of generation `generation`.
    #[must_use]
    pub fn path_for(&self, generation: u64) -> PathBuf {
        self.dir.join(format!("gen-{generation:010}.ckpt"))
    }

    /// Existing generation numbers, ascending. A missing directory is an
    /// empty store; unrelated files are ignored.
    #[must_use]
    pub fn generations(&self) -> Vec<u64> {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut gens: Vec<u64> = entries
            .filter_map(Result::ok)
            .filter_map(|e| {
                let name = e.file_name();
                let name = name.to_str()?;
                name.strip_prefix("gen-")?
                    .strip_suffix(".ckpt")?
                    .parse()
                    .ok()
            })
            .collect();
        gens.sort_unstable();
        gens
    }

    /// Saves `checkpoint` as the next generation and prunes old ones.
    /// Returns the new generation number.
    ///
    /// # Errors
    /// Returns [`CheckpointError::Io`] on any filesystem failure. Pruning
    /// failures are ignored — a stale extra generation is harmless.
    pub fn save(&self, checkpoint: &ActiveCheckpoint) -> Result<u64, CheckpointError> {
        self.save_encoded(&checkpoint.encode())
    }

    /// [`GenerationStore::save`] for a checkpoint already encoded, so a
    /// caller that also needs its digest encodes it once.
    ///
    /// The new generation is durable (file and directory entry synced, see
    /// [`write_durable`]) before any older one is pruned, so a power loss
    /// mid-save never leaves the store without a durable generation.
    ///
    /// # Errors
    /// As [`GenerationStore::save`].
    pub fn save_encoded(&self, encoded: &EncodedCheckpoint) -> Result<u64, CheckpointError> {
        fs::create_dir_all(&self.dir)?;
        let gens = self.generations();
        let next = gens.last().map_or(0, |g| g + 1);
        write_durable(&self.path_for(next), encoded.as_bytes())?;
        for &old in gens.iter().rev().skip(self.keep - 1) {
            let _ = fs::remove_file(self.path_for(old));
        }
        Ok(next)
    }

    /// Loads the newest generation that passes integrity verification,
    /// rolling back past corrupt ones. `Ok(None)` means the store holds no
    /// generations at all (nothing was ever saved).
    ///
    /// # Errors
    /// Returns [`CheckpointError::Corrupt`] when generations exist but every
    /// one of them is damaged.
    pub fn load_latest(&self) -> Result<Option<Recovered>, CheckpointError> {
        let gens = self.generations();
        if gens.is_empty() {
            return Ok(None);
        }
        let mut rolled_back = 0usize;
        for &generation in gens.iter().rev() {
            match ActiveCheckpoint::read_verified(&self.path_for(generation)) {
                Ok((checkpoint, digest)) => {
                    return Ok(Some(Recovered {
                        generation,
                        rolled_back,
                        checkpoint,
                        digest,
                    }))
                }
                Err(_) => rolled_back += 1,
            }
        }
        Err(CheckpointError::Corrupt(format!(
            "all {rolled_back} generation(s) under {} are damaged",
            self.dir.display()
        )))
    }
}

/// Line cursor with 1-based error positions.
struct Lines<'a> {
    iter: std::str::Lines<'a>,
    line_no: usize,
}

impl<'a> Lines<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            iter: text.lines(),
            line_no: 0,
        }
    }

    fn err(&self, message: String) -> CheckpointError {
        CheckpointError::Parse {
            line: self.line_no,
            message,
        }
    }

    fn next_line(&mut self) -> Result<&'a str, CheckpointError> {
        self.line_no += 1;
        self.iter.next().ok_or(CheckpointError::Parse {
            line: self.line_no,
            message: "unexpected end of file".into(),
        })
    }

    fn expect_exact(&mut self, expected: &str) -> Result<(), CheckpointError> {
        let line = self.next_line()?;
        if line == expected {
            Ok(())
        } else {
            Err(self.err(format!("expected '{expected}', found '{line}'")))
        }
    }

    /// Consumes a `tag rest...` line and returns `rest`.
    fn tagged_rest(&mut self, tag: &str) -> Result<&'a str, CheckpointError> {
        let line = self.next_line()?;
        line.strip_prefix(tag)
            .and_then(|rest| {
                rest.strip_prefix(' ')
                    .or(Some(rest).filter(|r| r.is_empty()))
            })
            .ok_or_else(|| self.err(format!("expected '{tag} ...', found '{line}'")))
    }

    /// Consumes a `tag <count>` section header and returns the count.
    fn counted_section(&mut self, tag: &str) -> Result<usize, CheckpointError> {
        let rest = self.tagged_rest(tag)?;
        rest.trim()
            .parse()
            .map_err(|e| self.err(format!("bad {tag} count: {e}")))
    }

    fn next_usize(
        &self,
        it: &mut SplitWhitespace<'_>,
        what: &str,
    ) -> Result<usize, CheckpointError> {
        let tok = it
            .next()
            .ok_or_else(|| self.err(format!("{what} line is missing a field")))?;
        tok.parse()
            .map_err(|e| self.err(format!("bad {what} field '{tok}': {e}")))
    }

    fn parse_hex_u64(&self, tok: &str) -> Result<u64, CheckpointError> {
        u64::from_str_radix(tok, 16).map_err(|e| self.err(format!("bad hex '{tok}': {e}")))
    }

    fn parse_hex_f64(&self, tok: &str) -> Result<f64, CheckpointError> {
        self.parse_hex_u64(tok).map(f64::from_bits)
    }

    fn rng_state(&mut self, tag: &str) -> Result<[u64; 4], CheckpointError> {
        let mut it = self.tagged_rest(tag)?.split_whitespace();
        let mut state = [0u64; 4];
        for slot in &mut state {
            let tok = it
                .next()
                .ok_or_else(|| self.err(format!("{tag} needs four words")))?;
            *slot = self.parse_hex_u64(tok)?;
        }
        Ok(state)
    }

    /// Parses `l0,l1,...`; `width` is a capacity hint.
    fn parse_levels(&self, s: &str, width: usize) -> Result<Vec<u32>, CheckpointError> {
        let mut levels = Vec::with_capacity(width);
        for tok in s.trim().split(',') {
            levels.push(
                tok.parse()
                    .map_err(|e| self.err(format!("bad level '{tok}': {e}")))?,
            );
        }
        Ok(levels)
    }

    /// Consumes a `tag <count>` header and that many level lines.
    fn levels_section(&mut self, tag: &str) -> Result<Vec<Vec<u32>>, CheckpointError> {
        let n = self.counted_section(tag)?;
        let mut configs: Vec<Vec<u32>> = Vec::with_capacity(n);
        for _ in 0..n {
            let line = self.next_line()?;
            let width = configs.last().map_or(0, Vec::len);
            configs.push(self.parse_levels(line, width)?);
        }
        Ok(configs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ActiveCheckpoint {
        ActiveCheckpoint {
            target_name: "synthetic".into(),
            iteration: 17,
            forest_seed: 0xDEAD_BEEF,
            n_init: 10,
            n_batch: 2,
            n_max: 100,
            repeats: 35,
            fit_mode: FitMode::Fast,
            alphas: vec![0.05, 0.10],
            annotator_rng: [1, 2, 3, 4],
            annotator_evaluations: 42,
            stats: MeasurementStats {
                annotations: 42,
                readings: 1400,
                compile_failures: 3,
                crashes: 5,
                bad_readings: 1,
                timeouts: 2,
                retries: 8,
                failed_annotations: 4,
                wasted_cost: 12.375,
            },
            select_rng: [5, 6, 7, 8],
            pool_rng: [9, 10, 11, 12],
            lint: PoolLintCounts {
                legal: 90,
                flagged: 7,
                illegal: 3,
            },
            train_configs: vec![vec![0, 1, 2], vec![3, 4, 5]],
            // The second label is the smallest subnormal — an awkward bit
            // pattern that proves exact round-tripping through hex.
            train_labels: vec![0.25, f64::from_bits(0x0000_0000_0000_0001)],
            pool_configs: vec![vec![6, 7, 8]],
            quarantined: vec![vec![9, 9, 9]],
            history: vec![Snapshot {
                n_train: 10,
                cumulative_cost: 3.5,
                rmse: vec![0.1, 0.2],
            }],
            selections: vec![SelectionTrace {
                mean: 0.3,
                std: 0.01,
                observed: 0.29,
            }],
        }
    }

    /// The exact text of [`sample`]: pins the on-disk format byte for byte,
    /// so every digest computed over it stays stable.
    const SAMPLE_TEXT: &str = "\
pwu-active-checkpoint v2
target synthetic
iteration 17
forest-seed 3735928559
counts 10 2 100 35
fit-mode fast
alphas 3fa999999999999a 3fb999999999999a
annotator-rng 0000000000000001 0000000000000002 0000000000000003 0000000000000004
select-rng 0000000000000005 0000000000000006 0000000000000007 0000000000000008
pool-rng 0000000000000009 000000000000000a 000000000000000b 000000000000000c
annotator-evaluations 42
stats 42 1400 3 5 1 2 8 4 4028c00000000000
lint 90 7 3
train 2
0,1,2 3fd0000000000000
3,4,5 0000000000000001
pool 1
6,7,8
quarantined 1
9,9,9
history 1
10 400c000000000000 3fb999999999999a 3fc999999999999a
selections 1
3fd3333333333333 3f847ae147ae147b 3fd28f5c28f5c28f
end
";

    #[test]
    fn text_format_is_pinned_byte_for_byte() {
        assert_eq!(sample().to_text(), SAMPLE_TEXT);
        assert_eq!(
            with_integrity_footer(SAMPLE_TEXT),
            format!(
                "{SAMPLE_TEXT}footer {} {:016x}\n",
                SAMPLE_TEXT.len(),
                fnv1a64(SAMPLE_TEXT.as_bytes())
            )
        );
    }

    #[test]
    fn levels_are_written_in_decimal_comma_separated() {
        let mut out = String::new();
        push_levels(&mut out, &[0, 9, 10, 407, u32::MAX]);
        assert_eq!(out, "0,9,10,407,4294967295");
    }

    #[test]
    fn encode_is_the_footered_text_and_its_digest() {
        let cp = sample();
        let encoded = cp.encode();
        assert_eq!(encoded.as_bytes(), with_integrity_footer(SAMPLE_TEXT).as_bytes());
        assert_eq!(encoded.digest(), fnv1a64(SAMPLE_TEXT.as_bytes()));
        let (body, digest) = verify_footer(encoded.as_bytes()).unwrap();
        assert_eq!((body, digest), (SAMPLE_TEXT, encoded.digest()));

        // Extreme values keep the fixed-width and decimal forms exact.
        let mut wide = cp.clone();
        wide.iteration = u64::MAX;
        wide.forest_seed = 0;
        wide.train_configs[0] = vec![u32::MAX, 0, 10];
        wide.alphas = vec![f64::from_bits(u64::MAX)];
        let text = wide.to_text();
        assert!(text.contains("\niteration 18446744073709551615\n"));
        assert!(text.contains("\nforest-seed 0\n"));
        assert!(text.contains("\n4294967295,0,10 3fd0000000000000\n"));
        assert!(text.contains("\nalphas ffffffffffffffff\n"));
        let back = ActiveCheckpoint::from_text(&text).unwrap();
        assert_eq!(back.iteration, u64::MAX);
        assert_eq!(back.train_configs, wide.train_configs);
        assert_eq!(back.alphas[0].to_bits(), u64::MAX);
    }

    #[test]
    fn text_round_trip_is_exact() {
        let cp = sample();
        let text = cp.to_text();
        let back = ActiveCheckpoint::from_text(&text).unwrap();
        assert_eq!(back, cp);
        // Exact bits, including the subnormal label.
        assert_eq!(back.train_labels[1].to_bits(), cp.train_labels[1].to_bits());
    }

    #[test]
    fn save_and_load_round_trip_via_disk() {
        let dir = std::env::temp_dir().join("pwu-checkpoint-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.ckpt");
        let cp = sample();
        cp.save_atomic(&path).unwrap();
        let back = ActiveCheckpoint::load(&path).unwrap();
        assert_eq!(back, cp);
        // The temp file was renamed away.
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(!PathBuf::from(tmp).exists());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn atomic_save_replaces_previous_checkpoint() {
        let dir = std::env::temp_dir().join("pwu-checkpoint-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("replace.ckpt");
        let mut cp = sample();
        cp.save_atomic(&path).unwrap();
        cp.iteration = 18;
        cp.save_atomic(&path).unwrap();
        assert_eq!(ActiveCheckpoint::load(&path).unwrap().iteration, 18);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let cp = sample();
        let mut text = cp.to_text();
        // Corrupt the magic line.
        text = text.replacen("pwu-active-checkpoint", "bogus", 1);
        match ActiveCheckpoint::from_text(&text) {
            Err(CheckpointError::Parse { line: 1, .. }) => {}
            other => panic!("expected parse error on line 1, got {other:?}"),
        }
        // Truncated file.
        let cut: String = cp
            .to_text()
            .lines()
            .take(5)
            .map(|l| format!("{l}\n"))
            .collect();
        match ActiveCheckpoint::from_text(&cut) {
            Err(CheckpointError::Parse { line, ref message }) => {
                assert!(line >= 6, "line {line}");
                assert!(message.contains("end of file") || !message.is_empty());
            }
            other => panic!("expected truncation error, got {other:?}"),
        }
        // Garbage hex in a label.
        let bad = cp.to_text().replacen("stats", "stats zzz", 1);
        assert!(matches!(
            ActiveCheckpoint::from_text(&bad),
            Err(CheckpointError::Parse { .. })
        ));
    }

    #[test]
    fn verified_load_round_trips_and_rejects_damage() {
        let dir = std::env::temp_dir().join("pwu-checkpoint-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("verified.ckpt");
        let cp = sample();
        cp.save_atomic(&path).unwrap();
        assert_eq!(ActiveCheckpoint::load_verified(&path).unwrap(), cp);

        // A single flipped byte in the body fails the checksum.
        let mut bytes = fs::read(&path).unwrap();
        bytes[40] ^= 0x20;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            ActiveCheckpoint::load_verified(&path),
            Err(CheckpointError::Corrupt(_))
        ));

        // Truncation (losing the footer, or part of it) is Corrupt too.
        let full = with_integrity_footer(&cp.to_text()).into_bytes();
        fs::write(&path, &full[..full.len() - 9]).unwrap();
        assert!(matches!(
            ActiveCheckpoint::load_verified(&path),
            Err(CheckpointError::Corrupt(_))
        ));

        // A footer-less (legacy) file is Corrupt under verification but
        // still loads through the lenient path.
        fs::write(&path, cp.to_text()).unwrap();
        assert!(matches!(
            ActiveCheckpoint::load_verified(&path),
            Err(CheckpointError::Corrupt(_))
        ));
        assert_eq!(ActiveCheckpoint::load(&path).unwrap(), cp);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn generation_store_numbers_prunes_and_rolls_back() {
        let dir = std::env::temp_dir().join("pwu-genstore-test");
        let _ = fs::remove_dir_all(&dir);
        let store = GenerationStore::new(&dir).with_keep(2);
        assert!(store.load_latest().unwrap().is_none());

        let mut cp = sample();
        for i in 0..4 {
            cp.iteration = 20 + i;
            assert_eq!(store.save(&cp).unwrap(), i);
        }
        // keep = 2 → only the two newest generations survive.
        assert_eq!(store.generations(), vec![2, 3]);
        let got = store.load_latest().unwrap().unwrap();
        assert_eq!(got.generation, 3);
        assert_eq!(got.rolled_back, 0);
        assert_eq!(got.checkpoint.iteration, 23);
        // The digest comes off the verified footer: the one the save encoded.
        assert_eq!(got.digest, cp.encode().digest());

        // Corrupt the newest generation: recovery rolls back to gen 2.
        let newest = store.path_for(3);
        let mut bytes = fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&newest, &bytes).unwrap();
        let got = store.load_latest().unwrap().unwrap();
        assert_eq!(got.generation, 2);
        assert_eq!(got.rolled_back, 1);
        assert_eq!(got.checkpoint.iteration, 22);

        // Corrupt every generation: typed Corrupt, not a panic.
        let older = store.path_for(2);
        fs::write(&older, b"not a checkpoint").unwrap();
        assert!(matches!(
            store.load_latest(),
            Err(CheckpointError::Corrupt(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn footer_helpers_pin_format() {
        let body = "hello\n";
        let footered = with_integrity_footer(body);
        assert!(footered.starts_with(body));
        assert!(footered.contains("footer 6 "));
        assert_eq!(split_verified_body(footered.as_bytes()).unwrap(), body);
        // Non-UTF8 bytes are Corrupt, not a panic.
        assert!(matches!(
            split_verified_body(&[0xFF, 0xFE, b'f']),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn error_display_and_policy_validation() {
        let e = CheckpointError::Mismatch("different target".into());
        assert!(e.to_string().contains("mismatch"));
        let e = CheckpointError::Parse {
            line: 3,
            message: "bad".into(),
        };
        assert!(e.to_string().contains("line 3"));
        let p = CheckpointPolicy::new("/tmp/x.ckpt", 5);
        assert_eq!(p.every, 5);
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn zero_checkpoint_interval_is_rejected() {
        let _ = CheckpointPolicy::new("/tmp/x.ckpt", 0);
    }
}
