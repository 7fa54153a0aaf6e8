//! Persistent summary-cache snapshots: versioned, dependency-free
//! binary serialization of a [`Session`]'s DYNSUM working set, so a
//! JIT/IDE-style process restart starts **warm** instead of recomputing
//! every summary from scratch.
//!
//! The paper's economics (§1, §7) amortize summary computation across a
//! long-lived query stream; without persistence that amortization dies
//! with the process. [`Session::save_snapshot`] serializes the shared
//! summary cache — the *capped working set*, post-eviction, not the
//! unbounded history — together with the interned field-stack prefix its
//! keys reference, and [`Session::load_snapshot`] restores it by
//! re-interning every field stack through the same
//! [`Session::absorb`] machinery a parallel batch merge uses.
//!
//! # Safety model: reject, never trust
//!
//! A snapshot is advisory. The header carries a format version, a
//! [PAG fingerprint](pag_fingerprint), an [`EngineConfig`] semantic
//! digest ([`EngineConfig::semantic_digest`]) and a payload checksum;
//! the payload carries the session's invalidation epochs. **Any**
//! mismatch — version skew, code changed underneath the snapshot
//! (the incomplete-program setting), different analysis configuration,
//! truncation, bit rot, malformed structure — degrades to a cold start
//! ([`SnapshotLoad::Cold`]) instead of corrupting results. Loading never
//! panics on arbitrary bytes. Reuse charges each summary's recorded cold
//! cost, so a warm restore is *outcome-invisible*: every query answers
//! byte-identically to a cold process, only faster.
//!
//! # Wire format (version 2)
//!
//! All integers little-endian; no external dependencies (the workspace
//! is offline, so the codec is hand-rolled). The full specification,
//! versioning rules and the compatibility-rejection matrix live in
//! `docs/ARCHITECTURE.md`.
//!
//! ```text
//! header (45 bytes):
//!   magic            8  b"DSUMSNAP"
//!   version          u32
//!   engine kind      u8   (0 NOREFINE / 1 REFINEPTS / 2 DYNSUM / 3 STASUM)
//!   pag fingerprint  u64  (pag_fingerprint)
//!   config digest    u64  (EngineConfig::semantic_digest)
//!   payload length   u64
//!   payload checksum u64  (StableHasher over the payload bytes)
//! payload:
//!   epoch            u64
//!   invalidations    u32 count, then (method u32, epoch u64) each
//!   field-stack pool u32 count, then (element u32, parent u32) each,
//!                    in id order (StackPool::export); an element is a
//!                    FieldFrame as (field id << 1) | kind, kind 0 = Get,
//!                    1 = Put (the version 1 → 2 change)
//!   summary cache    u32 count, then per entry:
//!                      node u32, field stack u32, direction u8,
//!                      cost u64,
//!                      objs u32 count + obj u32 each,
//!                      boundaries u32 count +
//!                        (node u32, field stack u32, direction u8) each
//! ```
//!
//! # Examples
//!
//! Round-trip a warm cache through bytes; the restored session hits it
//! immediately:
//!
//! ```
//! use dynsum_core::{EngineConfig, EngineKind, Session, SnapshotLoad};
//! use dynsum_pag::PagBuilder;
//!
//! let mut b = PagBuilder::new();
//! let m = b.add_method("main", None)?;
//! let v = b.add_local("v", m, None)?;
//! let o = b.add_obj("o1", None, Some(m))?;
//! b.add_new(o, v)?;
//! let pag = b.finish();
//!
//! // Warm a session, then persist its working set.
//! let mut session = Session::new(&pag, EngineKind::DynSum);
//! let shard = {
//!     let mut h = session.handle();
//!     h.points_to(v);
//!     h.into_summaries()
//! };
//! session.absorb(shard);
//! let mut bytes = Vec::new();
//! session.save_snapshot(&mut bytes)?;
//!
//! // "Restart": a fresh process loads the bytes and starts warm.
//! let (mut warm, load) =
//!     Session::load_snapshot(&bytes[..], &pag, EngineKind::DynSum, EngineConfig::default());
//! assert!(load.is_warm());
//! assert_eq!(warm.summary_count(), session.summary_count());
//! let r = warm.handle().points_to(v);
//! assert!(r.resolved && r.pts.contains_obj(o));
//! assert!(r.stats.cache_hits > 0, "first query served from the snapshot");
//!
//! // Garbage degrades to a cold start — never a panic, never bad data.
//! let (cold, load) =
//!     Session::load_snapshot(&b"not a snapshot"[..], &pag, EngineKind::DynSum, Default::default());
//! assert!(!load.is_warm());
//! assert_eq!(cold.summary_count(), 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::hash::Hasher;
use std::io::{self, Read, Write};
use std::sync::Arc;

use dynsum_cfl::{Direction, FieldFrame, FieldStackId, FxHashMap, StableHasher, StackPool};
use dynsum_pag::{FieldId, MethodId, NodeId, Pag};

use crate::engine::EngineConfig;
use crate::session::{EngineKind, Session, SharedState, SummaryShard};
use crate::summary::{Summary, SummaryCache, SummaryKey};

/// The 8-byte magic prefix of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"DSUMSNAP";

/// The wire-format version this build writes and accepts. Bump on any
/// layout change; old versions are rejected (cold start), never
/// migrated in place.
pub const SNAPSHOT_VERSION: u32 = 2;

/// Header size in bytes: magic + version + kind + fingerprint + digest
/// + payload length + payload checksum.
const HEADER_LEN: usize = 8 + 4 + 1 + 8 + 8 + 8 + 8;

/// Why a snapshot was rejected. Every variant degrades the load to a
/// clean cold start; none of them is a process-level error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotReject {
    /// The reader failed mid-read (filesystem error).
    Io(io::ErrorKind),
    /// The bytes do not start with [`SNAPSHOT_MAGIC`] — not a snapshot.
    BadMagic,
    /// A snapshot, but of a different format version.
    UnsupportedVersion {
        /// The version recorded in the header.
        found: u32,
    },
    /// Saved from a session running a different engine kind.
    EngineMismatch {
        /// The engine-kind tag recorded in the header.
        found: u8,
    },
    /// The PAG fingerprint differs: the code changed underneath the
    /// snapshot, so its summaries may describe methods that no longer
    /// exist in that shape.
    PagMismatch,
    /// The [`EngineConfig::semantic_digest`] differs: the snapshot's
    /// summaries were computed under different analysis semantics.
    ConfigMismatch,
    /// The byte stream ended before the header/payload was complete.
    Truncated,
    /// Structural validation failed; the message names the first check
    /// that tripped (checksum, id range, duplicate key, …).
    Corrupt(&'static str),
}

impl std::fmt::Display for SnapshotReject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotReject::Io(kind) => write!(f, "read failed: {kind}"),
            SnapshotReject::BadMagic => f.write_str("not a snapshot (bad magic)"),
            SnapshotReject::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported format version {found} (want {SNAPSHOT_VERSION})"
                )
            }
            SnapshotReject::EngineMismatch { found } => {
                write!(f, "snapshot is for engine kind tag {found}")
            }
            SnapshotReject::PagMismatch => f.write_str("PAG fingerprint mismatch (code changed)"),
            SnapshotReject::ConfigMismatch => f.write_str("engine-config digest mismatch"),
            SnapshotReject::Truncated => f.write_str("snapshot truncated"),
            SnapshotReject::Corrupt(what) => write!(f, "snapshot corrupt: {what}"),
        }
    }
}

/// The outcome of [`Session::load_snapshot`]. The session itself is
/// always usable; this reports whether it starts warm or cold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotLoad {
    /// The snapshot was accepted and its working set restored.
    Warm {
        /// Summaries merged into the shared cache (after re-interning
        /// and re-applying the loader's eviction cap).
        summaries: usize,
        /// Field stacks re-interned from the snapshot pool.
        stacks: usize,
    },
    /// The snapshot was rejected; the session is a clean cold start.
    Cold(SnapshotReject),
}

impl SnapshotLoad {
    /// `true` when the load restored a snapshot.
    pub fn is_warm(&self) -> bool {
        matches!(self, SnapshotLoad::Warm { .. })
    }

    /// Summaries restored (0 on a cold start).
    pub fn summaries(&self) -> usize {
        match self {
            SnapshotLoad::Warm { summaries, .. } => *summaries,
            SnapshotLoad::Cold(_) => 0,
        }
    }

    /// The rejection reason, when cold.
    pub fn reject(&self) -> Option<SnapshotReject> {
        match self {
            SnapshotLoad::Warm { .. } => None,
            SnapshotLoad::Cold(reason) => Some(*reason),
        }
    }
}

/// The stable structural fingerprint of a [`Pag`] that snapshot headers
/// carry: [`Pag::fingerprint`], which hashes the graph once per frozen
/// graph (about 11–16 ms for the benchmark's 136k–153k-edge graphs at
/// generator scale 0.5) and
/// answers every later call in O(1). So a daemon `hello` on an existing
/// session, a [`Session::save_snapshot`] and a
/// [`Session::load_snapshot`] all read the cached value.
pub fn pag_fingerprint(pag: &Pag) -> u64 {
    pag.fingerprint()
}

fn kind_tag(kind: EngineKind) -> u8 {
    match kind {
        EngineKind::NoRefine => 0,
        EngineKind::RefinePts => 1,
        EngineKind::DynSum => 2,
        EngineKind::StaSum => 3,
    }
}

fn direction_tag(dir: Direction) -> u8 {
    match dir {
        Direction::S1 => 0,
        Direction::S2 => 1,
    }
}

fn direction_of(tag: u8) -> Option<Direction> {
    match tag {
        0 => Some(Direction::S1),
        1 => Some(Direction::S2),
        _ => None,
    }
}

/// Wire form of a [`FieldFrame`]: the field id in the high bits, the
/// provenance kind in bit 0 (`0` = `Get`, `1` = `Put`). Introduced in
/// format version 2 — version-1 snapshots stored untagged field ids and
/// are rejected by the version gate.
fn frame_encode(frame: FieldFrame) -> u32 {
    let kind = match frame {
        FieldFrame::Get(_) => 0,
        FieldFrame::Put(_) => 1,
    };
    (frame.field().as_raw() << 1) | kind
}

fn frame_decode(raw: u32) -> FieldFrame {
    let field = FieldId::from_raw(raw >> 1);
    if raw & 1 == 0 {
        FieldFrame::Get(field)
    } else {
        FieldFrame::Put(field)
    }
}

// ---- little-endian codec ---------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn checksum(bytes: &[u8]) -> u64 {
    let mut h = StableHasher::new();
    h.write(bytes);
    h.finish()
}

/// Bounds-checked forward reader over the snapshot bytes. Every read
/// past the end is a clean [`SnapshotReject::Truncated`], which is what
/// makes arbitrary truncation safe.
struct Cursor<'a> {
    bytes: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotReject> {
        if self.bytes.len() < n {
            return Err(SnapshotReject::Truncated);
        }
        let (head, rest) = self.bytes.split_at(n);
        self.bytes = rest;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, SnapshotReject> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SnapshotReject> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, SnapshotReject> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

impl<'p> Session<'p> {
    /// Serializes this session's persistent working set — the DYNSUM
    /// summary cache (post-eviction: exactly the capped working set),
    /// the field-stack pool entries its keys reference, and the
    /// invalidation epochs — as a versioned binary snapshot.
    ///
    /// The header pins the format version, the engine kind, the
    /// [`pag_fingerprint`] and the [`EngineConfig::semantic_digest`], so
    /// [`load_snapshot`](Self::load_snapshot) can refuse anything the
    /// bytes no longer describe. Sessions of engines without cross-query
    /// state (NOREFINE / REFINEPTS / STASUM, whose store is recomputed
    /// from the PAG) write a valid snapshot with an empty working set.
    ///
    /// Lifetime counters ([`cache_stats`](Self::cache_stats),
    /// [`stale_rejections`](Self::stale_rejections), …) and clock
    /// recency bits are per-process observability, not analysis state:
    /// they are deliberately **not** persisted.
    pub fn save_snapshot<W: Write>(&self, writer: &mut W) -> io::Result<()> {
        let payload = self.snapshot_payload();
        let mut head = Vec::with_capacity(HEADER_LEN);
        head.extend_from_slice(&SNAPSHOT_MAGIC);
        put_u32(&mut head, SNAPSHOT_VERSION);
        head.push(kind_tag(self.engine()));
        put_u64(&mut head, pag_fingerprint(self.pag()));
        put_u64(&mut head, self.config().semantic_digest());
        put_u64(&mut head, payload.len() as u64);
        put_u64(&mut head, checksum(&payload));
        writer.write_all(&head)?;
        writer.write_all(&payload)
    }

    /// [`save_snapshot`](Self::save_snapshot) with **atomic replace**
    /// semantics: the bytes are written to a sibling temp file
    /// (`<path>.tmp`), synced, and renamed over `path` only once every
    /// byte landed. An IO failure mid-write — injected or real — can
    /// therefore never leave a truncated snapshot at `path`: a previous
    /// snapshot there survives intact, and the temp file is removed on
    /// failure (best effort).
    ///
    /// # Errors
    ///
    /// Any IO error from creating, writing, syncing, or renaming the
    /// temp file. `path` is unchanged on error.
    pub fn save_snapshot_to_path(&self, path: &std::path::Path) -> io::Result<()> {
        let mut tmp_name = path.as_os_str().to_owned();
        tmp_name.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp_name);
        let result = (|| {
            let mut file = std::fs::File::create(&tmp)?;
            self.save_snapshot(&mut file)?;
            file.sync_all()?;
            drop(file);
            std::fs::rename(&tmp, path)
        })();
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        result
    }

    /// [`load_snapshot`](Self::load_snapshot) from a file path. A
    /// missing or unreadable file degrades to a cold start like any
    /// other reject — the returned session is always valid.
    pub fn load_snapshot_from_path(
        path: &std::path::Path,
        pag: &'p Pag,
        kind: EngineKind,
        config: EngineConfig,
    ) -> (Session<'p>, SnapshotLoad) {
        match std::fs::File::open(path) {
            Ok(file) => Self::load_snapshot(io::BufReader::new(file), pag, kind, config),
            Err(e) => (
                Session::with_config(pag, kind, config),
                SnapshotLoad::Cold(SnapshotReject::Io(e.kind())),
            ),
        }
    }

    /// The snapshot body: epoch, invalidation map, stack pool, cache.
    fn snapshot_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u64(&mut out, self.epoch);
        let mut invalidated: Vec<(MethodId, u64)> =
            self.invalidated_at.iter().map(|(&m, &e)| (m, e)).collect();
        invalidated.sort_unstable();
        put_u32(&mut out, invalidated.len() as u32);
        for (m, e) in invalidated {
            put_u32(&mut out, m.as_raw());
            put_u64(&mut out, e);
        }
        match &self.state {
            SharedState::DynSum { cache, fields } => {
                put_u32(&mut out, fields.len() as u32);
                for (elem, parent) in fields.export() {
                    put_u32(&mut out, frame_encode(elem));
                    put_u32(&mut out, parent.as_raw());
                }
                // Sorted by key, so byte output is independent of hash
                // map iteration order (same state ⇒ same bytes).
                let mut entries: Vec<(&SummaryKey, &Arc<Summary>)> = cache.entries().collect();
                entries.sort_unstable_by_key(|(k, _)| **k);
                put_u32(&mut out, entries.len() as u32);
                for (&(node, fstack, dir), sum) in entries {
                    put_u32(&mut out, node.index() as u32);
                    put_u32(&mut out, fstack.as_raw());
                    out.push(direction_tag(dir));
                    put_u64(&mut out, sum.cost);
                    put_u32(&mut out, sum.objs.len() as u32);
                    for o in &sum.objs {
                        put_u32(&mut out, o.as_raw());
                    }
                    put_u32(&mut out, sum.boundaries.len() as u32);
                    for &(bn, bf, bd) in &sum.boundaries {
                        put_u32(&mut out, bn.index() as u32);
                        put_u32(&mut out, bf.as_raw());
                        out.push(direction_tag(bd));
                    }
                }
            }
            _ => {
                // No cross-query working set: empty pool + empty cache.
                put_u32(&mut out, 0);
                put_u32(&mut out, 0);
            }
        }
        out
    }

    /// Restores a session from snapshot bytes, degrading to a **cold
    /// start on any mismatch** — the returned session is always valid
    /// and always produces correct results; [`SnapshotLoad`] reports
    /// whether the working set was restored and, if not, why.
    ///
    /// Acceptance requires: the exact [`SNAPSHOT_VERSION`], the caller's
    /// `kind`, a [`pag_fingerprint`] match against `pag`, an
    /// [`EngineConfig::semantic_digest`] match against `config`, an
    /// intact checksum, and
    /// structural validity of every id in the payload. Restored
    /// field-stack ids are re-interned into the fresh session pool
    /// through [`Session::absorb`] — the same translation a parallel
    /// batch merge uses — and the loader's
    /// [`EngineConfig::max_cached_summaries`] cap is re-enforced, so a
    /// snapshot saved under a larger cap loads trimmed, not oversized.
    ///
    /// Invalidation epochs are restored too: methods fenced by
    /// [`invalidate_method`](Self::invalidate_method) before the save
    /// stay fenced in the restored session (their summaries were already
    /// evicted at save time and can never resurrect through the
    /// snapshot).
    pub fn load_snapshot<R: Read>(
        mut reader: R,
        pag: &'p Pag,
        kind: EngineKind,
        config: EngineConfig,
    ) -> (Session<'p>, SnapshotLoad) {
        let mut bytes = Vec::new();
        if let Err(e) = reader.read_to_end(&mut bytes) {
            let cold = Session::with_config(pag, kind, config);
            return (cold, SnapshotLoad::Cold(SnapshotReject::Io(e.kind())));
        }
        match Self::restore(&bytes, pag, kind, config) {
            Ok(warm) => warm,
            Err(reject) => {
                let cold = Session::with_config(pag, kind, config);
                (cold, SnapshotLoad::Cold(reject))
            }
        }
    }

    /// The fallible body of [`load_snapshot`](Self::load_snapshot):
    /// header checks, payload validation, absorb-based restore.
    fn restore(
        bytes: &[u8],
        pag: &'p Pag,
        kind: EngineKind,
        config: EngineConfig,
    ) -> Result<(Session<'p>, SnapshotLoad), SnapshotReject> {
        let mut cur = Cursor { bytes };
        if cur.take(8).map_err(|_| SnapshotReject::BadMagic)? != SNAPSHOT_MAGIC {
            return Err(SnapshotReject::BadMagic);
        }
        let version = cur.u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotReject::UnsupportedVersion { found: version });
        }
        let found_kind = cur.u8()?;
        if found_kind != kind_tag(kind) {
            return Err(SnapshotReject::EngineMismatch { found: found_kind });
        }
        if cur.u64()? != pag_fingerprint(pag) {
            return Err(SnapshotReject::PagMismatch);
        }
        if cur.u64()? != config.semantic_digest() {
            return Err(SnapshotReject::ConfigMismatch);
        }
        let payload_len = cur.u64()?;
        let declared_checksum = cur.u64()?;
        let payload = cur.bytes;
        if (payload.len() as u64) < payload_len {
            return Err(SnapshotReject::Truncated);
        }
        if (payload.len() as u64) > payload_len {
            return Err(SnapshotReject::Corrupt("trailing bytes"));
        }
        if checksum(payload) != declared_checksum {
            return Err(SnapshotReject::Corrupt("payload checksum"));
        }

        let mut cur = Cursor { bytes: payload };
        let epoch = cur.u64()?;
        let n_invalidated = cur.u32()?;
        let mut invalidated_at: FxHashMap<MethodId, u64> = FxHashMap::default();
        for _ in 0..n_invalidated {
            let m = cur.u32()?;
            let e = cur.u64()?;
            if m as usize >= pag.num_methods() {
                return Err(SnapshotReject::Corrupt(
                    "invalidated method id out of range",
                ));
            }
            if e > epoch {
                return Err(SnapshotReject::Corrupt(
                    "invalidation epoch beyond session epoch",
                ));
            }
            if invalidated_at.insert(MethodId::from_raw(m), e).is_some() {
                return Err(SnapshotReject::Corrupt("duplicate invalidated method"));
            }
        }

        let n_stacks = cur.u32()?;
        let mut pairs: Vec<(FieldFrame, FieldStackId)> = Vec::new();
        for _ in 0..n_stacks {
            let elem = cur.u32()?;
            let parent = cur.u32()?;
            if (elem >> 1) as usize >= pag.num_fields() {
                return Err(SnapshotReject::Corrupt("field id out of range"));
            }
            pairs.push((frame_decode(elem), FieldStackId::from_raw(parent)));
        }
        let fields: StackPool<FieldFrame> = StackPool::import(pairs)
            .ok_or(SnapshotReject::Corrupt("stack pool is not a valid export"))?;

        let n_summaries = cur.u32()?;
        let mut cache = SummaryCache::new();
        let stack_id = |cur: &mut Cursor<'_>| -> Result<FieldStackId, SnapshotReject> {
            let raw = cur.u32()?;
            if raw > n_stacks {
                return Err(SnapshotReject::Corrupt("field-stack id out of range"));
            }
            Ok(FieldStackId::from_raw(raw))
        };
        let node_id = |raw: u32| -> Result<NodeId, SnapshotReject> {
            if raw as usize >= pag.num_nodes() {
                return Err(SnapshotReject::Corrupt("node id out of range"));
            }
            Ok(NodeId::from_raw(raw))
        };
        for _ in 0..n_summaries {
            let node = node_id(cur.u32()?)?;
            let fstack = stack_id(&mut cur)?;
            let dir =
                direction_of(cur.u8()?).ok_or(SnapshotReject::Corrupt("bad direction tag"))?;
            let cost = cur.u64()?;
            let n_objs = cur.u32()?;
            let mut objs = Vec::new();
            for _ in 0..n_objs {
                let raw = cur.u32()?;
                if raw as usize >= pag.num_objs() {
                    return Err(SnapshotReject::Corrupt("object id out of range"));
                }
                objs.push(dynsum_pag::ObjId::from_raw(raw));
            }
            let n_bounds = cur.u32()?;
            let mut boundaries = Vec::new();
            for _ in 0..n_bounds {
                let bn = node_id(cur.u32()?)?;
                let bf = stack_id(&mut cur)?;
                let bd = direction_of(cur.u8()?)
                    .ok_or(SnapshotReject::Corrupt("bad boundary direction tag"))?;
                boundaries.push((bn, bf, bd));
            }
            let before = cache.len();
            cache.insert_if_absent(
                (node, fstack, dir),
                Arc::new(Summary {
                    objs,
                    boundaries,
                    cost,
                }),
            );
            if cache.len() == before {
                return Err(SnapshotReject::Corrupt("duplicate summary key"));
            }
        }
        if !cur.is_empty() {
            return Err(SnapshotReject::Corrupt("payload longer than its contents"));
        }
        if kind != EngineKind::DynSum && (n_stacks != 0 || n_summaries != 0) {
            return Err(SnapshotReject::Corrupt(
                "working set on a cache-less engine",
            ));
        }

        // Build the cold session, restore the fences, then merge the
        // snapshot exactly like a detached batch shard: absorb
        // re-interns every field stack into the session pool and
        // re-enforces the loader's eviction cap. The shard is stamped
        // with the saved epoch, so entries pass the fence (every
        // invalidation recorded in the snapshot already evicted its
        // summaries before the save).
        let mut session = Session::with_config(pag, kind, config);
        session.epoch = epoch;
        session.invalidated_at = invalidated_at;
        let restored_stacks = fields.len();
        let summaries = session.absorb(SummaryShard {
            cache,
            fields,
            epoch,
        });
        let load = SnapshotLoad::Warm {
            summaries,
            stacks: restored_stacks,
        };
        Ok((session, load))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynsum_pag::{ObjId, PagBuilder, VarId};

    /// r = get(c) where get loads this.f — summaries with non-empty
    /// field stacks in keys and boundaries, so the snapshot exercises
    /// the pool export and the absorb re-interning path.
    fn field_pag() -> (Pag, VarId, ObjId) {
        let mut b = PagBuilder::new();
        let main = b.add_method("main", None).unwrap();
        let get = b.add_method("get", None).unwrap();
        let f = b.field("f");
        let this_g = b.add_local("this_g", get, None).unwrap();
        let ret = b.add_local("ret", get, None).unwrap();
        b.add_load(f, this_g, ret).unwrap();
        let c = b.add_local("c", main, None).unwrap();
        let x = b.add_local("x", main, None).unwrap();
        let r = b.add_local("r", main, None).unwrap();
        let oc = b.add_obj("oc", None, Some(main)).unwrap();
        let ox = b.add_obj("ox", None, Some(main)).unwrap();
        b.add_new(oc, c).unwrap();
        b.add_new(ox, x).unwrap();
        b.add_store(f, x, c).unwrap();
        let s = b.add_call_site("1", main).unwrap();
        b.add_entry(s, c, this_g).unwrap();
        b.add_exit(s, ret, r).unwrap();
        (b.finish(), r, ox)
    }

    fn warm_session(pag: &Pag, r: VarId) -> Session<'_> {
        let mut session = Session::new(pag, EngineKind::DynSum);
        let shard = {
            let mut h = session.handle();
            h.points_to(r);
            h.into_summaries()
        };
        session.absorb(shard);
        session
    }

    fn snapshot_of(session: &Session<'_>) -> Vec<u8> {
        let mut bytes = Vec::new();
        session.save_snapshot(&mut bytes).unwrap();
        bytes
    }

    /// A `Write` that fails with an injected error once `fail_after`
    /// write calls have succeeded — the IO half of the fault plan.
    struct FailingWriter {
        ok: Vec<u8>,
        calls: u64,
        fail_after: u64,
    }

    impl FailingWriter {
        fn new(fail_after: u64) -> Self {
            FailingWriter {
                ok: Vec::new(),
                calls: 0,
                fail_after,
            }
        }
    }

    impl io::Write for FailingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.calls >= self.fail_after {
                return Err(io::Error::other("injected IO fault"));
            }
            self.calls += 1;
            self.ok.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A unique scratch directory per test (no tempfile dependency).
    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dynsum_snapshot_{}_{}", tag, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn save_fails_cleanly_at_every_write_call() {
        let (pag, r, _) = field_pag();
        let session = warm_session(&pag, r);
        // Count the writes of a clean save, then inject a failure at
        // every single write index: each save must surface the error
        // (never panic, never silently succeed short).
        let total = {
            let mut probe = FailingWriter::new(u64::MAX);
            session.save_snapshot(&mut probe).unwrap();
            probe.calls
        };
        assert!(total >= 2, "header and payload are separate writes");
        for fail_at in 0..total {
            let mut w = FailingWriter::new(fail_at);
            let err = session.save_snapshot(&mut w).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::Other, "write {fail_at}");
            // Whatever landed before the fault is a strict prefix of the
            // good bytes — a reader can reject it as truncated.
            let good = snapshot_of(&session);
            assert!(good.starts_with(&w.ok), "write {fail_at}");
            assert!(w.ok.len() < good.len(), "write {fail_at}");
        }
    }

    #[test]
    fn truncated_bytes_always_reject_as_cold() {
        let (pag, r, _) = field_pag();
        let session = warm_session(&pag, r);
        let good = snapshot_of(&session);
        // Every possible truncation point — a torn non-atomic write —
        // must degrade to a cold start, not a corrupt warm one.
        for cut in 0..good.len() {
            let (restored, load) = Session::load_snapshot(
                &good[..cut],
                &pag,
                EngineKind::DynSum,
                EngineConfig::default(),
            );
            assert!(matches!(load, SnapshotLoad::Cold(_)), "cut {cut}");
            assert_eq!(restored.summary_count(), 0, "cut {cut}");
        }
    }

    #[test]
    fn path_save_round_trips_and_leaves_no_temp_file() {
        let (pag, r, ox) = field_pag();
        let session = warm_session(&pag, r);
        let dir = scratch_dir("roundtrip");
        let path = dir.join("warm.snap");
        session.save_snapshot_to_path(&path).unwrap();
        assert!(!dir.join("warm.snap.tmp").exists(), "temp renamed away");
        let (mut restored, load) = Session::load_snapshot_from_path(
            &path,
            &pag,
            EngineKind::DynSum,
            EngineConfig::default(),
        );
        assert!(load.is_warm());
        assert_eq!(restored.summary_count(), session.summary_count());
        let got = restored.run_batch_vars(&[r], 1);
        assert!(got[0].resolved && got[0].pts.contains_obj(ox));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_path_save_preserves_the_previous_snapshot() {
        let (pag, r, _) = field_pag();
        let session = warm_session(&pag, r);
        let dir = scratch_dir("atomic");
        let path = dir.join("warm.snap");
        session.save_snapshot_to_path(&path).unwrap();
        let before = std::fs::read(&path).unwrap();
        // Force the temp-file create to fail by squatting a directory on
        // the temp path: the save must error out, and the previous
        // snapshot at `path` must survive byte-identical.
        let tmp = dir.join("warm.snap.tmp");
        std::fs::create_dir(&tmp).unwrap();
        assert!(session.save_snapshot_to_path(&path).is_err());
        assert_eq!(std::fs::read(&path).unwrap(), before);
        let (restored, load) = Session::load_snapshot_from_path(
            &path,
            &pag,
            EngineKind::DynSum,
            EngineConfig::default(),
        );
        assert!(load.is_warm());
        assert!(restored.summary_count() > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_path_degrades_to_cold() {
        let (pag, ..) = field_pag();
        let dir = scratch_dir("missing");
        let (restored, load) = Session::load_snapshot_from_path(
            &dir.join("nope.snap"),
            &pag,
            EngineKind::DynSum,
            EngineConfig::default(),
        );
        assert!(matches!(
            load,
            SnapshotLoad::Cold(SnapshotReject::Io(io::ErrorKind::NotFound))
        ));
        assert_eq!(restored.summary_count(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn round_trip_restores_the_working_set() {
        let (pag, r, ox) = field_pag();
        let session = warm_session(&pag, r);
        assert!(session.summary_count() > 0);
        let bytes = snapshot_of(&session);

        let (warm, load) = Session::load_snapshot(
            &bytes[..],
            &pag,
            EngineKind::DynSum,
            EngineConfig::default(),
        );
        assert_eq!(
            load,
            SnapshotLoad::Warm {
                summaries: session.summary_count(),
                stacks: 1, // the [f] stack
            }
        );
        assert_eq!(warm.summary_count(), session.summary_count());
        let res = warm.handle().points_to(r);
        assert!(res.resolved && res.pts.contains_obj(ox));
        assert!(res.stats.cache_hits > 0, "snapshot cache must serve hits");
        // Saving the restored session reproduces identical bytes (the
        // payload is sorted, so this is a meaningful determinism check).
        assert_eq!(snapshot_of(&warm), bytes);
    }

    #[test]
    fn snapshot_bytes_are_deterministic() {
        let (pag, r, _) = field_pag();
        let a = snapshot_of(&warm_session(&pag, r));
        let b = snapshot_of(&warm_session(&pag, r));
        assert_eq!(a, b);
    }

    #[test]
    fn every_truncation_degrades_to_cold() {
        let (pag, r, ox) = field_pag();
        let bytes = snapshot_of(&warm_session(&pag, r));
        for len in 0..bytes.len() {
            let (s, load) = Session::load_snapshot(
                &bytes[..len],
                &pag,
                EngineKind::DynSum,
                EngineConfig::default(),
            );
            assert!(!load.is_warm(), "prefix of {len} bytes accepted");
            assert_eq!(s.summary_count(), 0);
            assert!(s.handle().points_to(r).pts.contains_obj(ox));
        }
    }

    #[test]
    fn every_single_byte_flip_degrades_to_cold() {
        let (pag, r, _) = field_pag();
        let bytes = snapshot_of(&warm_session(&pag, r));
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x41;
            let (s, load) =
                Session::load_snapshot(&bad[..], &pag, EngineKind::DynSum, EngineConfig::default());
            assert!(!load.is_warm(), "flip at byte {i} accepted");
            assert_eq!(s.summary_count(), 0);
        }
    }

    #[test]
    fn header_mismatches_carry_their_reason() {
        let (pag, r, _) = field_pag();
        let bytes = snapshot_of(&warm_session(&pag, r));
        let load_with =
            |bytes: &[u8], kind, config| Session::load_snapshot(bytes, &pag, kind, config).1;

        let mut versioned = bytes.clone();
        versioned[8] = SNAPSHOT_VERSION as u8 + 1;
        assert_eq!(
            load_with(&versioned, EngineKind::DynSum, EngineConfig::default()).reject(),
            Some(SnapshotReject::UnsupportedVersion {
                found: SNAPSHOT_VERSION + 1
            })
        );

        assert_eq!(
            load_with(&bytes, EngineKind::NoRefine, EngineConfig::default()).reject(),
            Some(SnapshotReject::EngineMismatch {
                found: kind_tag(EngineKind::DynSum)
            })
        );

        let other_budget = EngineConfig {
            budget: 1234,
            ..EngineConfig::default()
        };
        assert_eq!(
            load_with(&bytes, EngineKind::DynSum, other_budget).reject(),
            Some(SnapshotReject::ConfigMismatch)
        );

        assert_eq!(
            load_with(
                b"garbage-bytes",
                EngineKind::DynSum,
                EngineConfig::default()
            )
            .reject(),
            Some(SnapshotReject::BadMagic)
        );

        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(
            load_with(&trailing, EngineKind::DynSum, EngineConfig::default()).reject(),
            Some(SnapshotReject::Corrupt("trailing bytes"))
        );
    }

    #[test]
    fn pag_mismatch_is_rejected() {
        let (pag, r, _) = field_pag();
        let bytes = snapshot_of(&warm_session(&pag, r));
        // Same shape, one extra edge: different program, different
        // fingerprint.
        let mut b = PagBuilder::new();
        let m = b.add_method("main", None).unwrap();
        let v = b.add_local("v", m, None).unwrap();
        let o = b.add_obj("o1", None, Some(m)).unwrap();
        b.add_new(o, v).unwrap();
        let other = b.finish();
        assert_ne!(pag_fingerprint(&pag), pag_fingerprint(&other));
        let (s, load) = Session::load_snapshot(
            &bytes[..],
            &other,
            EngineKind::DynSum,
            EngineConfig::default(),
        );
        assert_eq!(load.reject(), Some(SnapshotReject::PagMismatch));
        assert_eq!(s.summary_count(), 0);
    }

    #[test]
    fn loader_cap_is_reenforced_on_restore() {
        let (pag, r, _) = field_pag();
        let session = warm_session(&pag, r);
        assert!(session.summary_count() > 1);
        let bytes = snapshot_of(&session);
        // The cap is outside the semantic digest, so the snapshot loads
        // — trimmed to the loader's bound.
        let capped = EngineConfig {
            max_cached_summaries: Some(1),
            ..EngineConfig::default()
        };
        let (s, load) = Session::load_snapshot(&bytes[..], &pag, EngineKind::DynSum, capped);
        assert!(load.is_warm());
        assert!(s.summary_count() <= 1);
        assert!(s.cache_stats().evictions > 0);
    }

    #[test]
    fn save_after_invalidation_keeps_the_fence() {
        let (pag, r, ox) = field_pag();
        let mut session = warm_session(&pag, r);
        let get = pag.find_method("get").unwrap();
        assert!(session.invalidate_method(get) > 0);
        let bytes = snapshot_of(&session);
        let (mut restored, load) = Session::load_snapshot(
            &bytes[..],
            &pag,
            EngineKind::DynSum,
            EngineConfig::default(),
        );
        assert!(load.is_warm());
        // The fenced method's summaries did not resurrect...
        assert_eq!(restored.invalidate_method(get), 0);
        // ...and queries recompute them correctly.
        let res = restored.handle().points_to(r);
        assert!(res.resolved && res.pts.contains_obj(ox));
    }

    #[test]
    fn cache_less_engines_round_trip_empty_snapshots() {
        let (pag, ..) = field_pag();
        for kind in [
            EngineKind::NoRefine,
            EngineKind::RefinePts,
            EngineKind::StaSum,
        ] {
            let session = Session::new(&pag, kind);
            let mut bytes = Vec::new();
            session.save_snapshot(&mut bytes).unwrap();
            let (s, load) = Session::load_snapshot(&bytes[..], &pag, kind, EngineConfig::default());
            assert_eq!(
                load,
                SnapshotLoad::Warm {
                    summaries: 0,
                    stacks: 0
                }
            );
            assert_eq!(s.engine(), kind);
        }
    }

    #[test]
    fn fingerprint_is_sensitive_to_semantic_flags() {
        // Recursion flags change traversal semantics without changing
        // the edge list; the fingerprint must see them.
        let build = |recursive: bool| {
            let mut b = PagBuilder::new();
            let m = b.add_method("m", None).unwrap();
            let m2 = b.add_method("m2", None).unwrap();
            let a = b.add_local("a", m, None).unwrap();
            let p = b.add_local("p", m2, None).unwrap();
            let s = b.add_call_site("1", m).unwrap();
            b.set_recursive(s, recursive).unwrap();
            b.add_entry(s, a, p).unwrap();
            b.finish()
        };
        assert_ne!(
            pag_fingerprint(&build(false)),
            pag_fingerprint(&build(true))
        );
    }

    #[test]
    fn config_digest_separates_semantics_from_tuning() {
        let base = EngineConfig::default();
        let semantic = EngineConfig {
            budget: base.budget + 1,
            ..base
        };
        assert_ne!(base.semantic_digest(), semantic.semantic_digest());
        let tuning = EngineConfig {
            max_cached_summaries: Some(7),
            worker_stack_bytes: 1 << 20,
            ..base
        };
        assert_eq!(base.semantic_digest(), tuning.semantic_digest());
    }
}
