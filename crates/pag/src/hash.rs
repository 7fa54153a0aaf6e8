//! The format-stable hasher, and the graph fingerprint it computes.
//!
//! Snapshot headers (`dynsum-core`'s `snapshot` module) carry a
//! fingerprint of the graph they were computed on, a digest of the
//! analysis configuration and a payload checksum. All three are
//! [`StableHasher`] digests, so this hasher's algorithm — and the byte
//! sequence [`Pag::fingerprint`] feeds it — are part of that on-disk
//! format. It lives here, below `dynsum-cfl`, because the fingerprint is
//! memoized on the frozen [`Pag`] itself; `dynsum_cfl::StableHasher`
//! re-exports it.

use std::hash::Hasher;

use crate::edge::EdgeKind;
use crate::graph::Pag;
use crate::ids::MethodId;

/// A **format-stable** 64-bit hasher (FNV-1a) for persistent artifacts.
///
/// The in-process hash tables of the engines use a fast hasher that is
/// free to evolve. `StableHasher` is the opposite contract: its output is
/// written into on-disk formats (the snapshot header's PAG fingerprint,
/// config digest and payload checksum — see `dynsum-core`'s `snapshot`
/// module), so the algorithm below is **frozen**. Changing it silently
/// invalidates every existing snapshot (they would all degrade to cold
/// starts); bump the snapshot format version instead of editing this
/// hasher.
///
/// Unlike the std `Hasher` defaults, every sized `write_*` method is
/// overridden to feed **little-endian** bytes, so the digest is identical
/// across platforms of either endianness.
///
/// ```
/// use std::hash::Hasher;
/// use dynsum_pag::StableHasher;
///
/// let mut a = StableHasher::default();
/// a.write_u32(7);
/// a.write_u64(9);
/// let mut b = StableHasher::default();
/// b.write_u32(7);
/// b.write_u64(9);
/// assert_eq!(a.finish(), b.finish());
/// // The empty-input digest is the FNV-1a offset basis — pinned, since
/// // the value is part of the snapshot format.
/// assert_eq!(StableHasher::default().finish(), 0xcbf2_9ce4_8422_2325);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct StableHasher {
    hash: u64,
}

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher { hash: FNV_OFFSET }
    }
}

impl StableHasher {
    /// Creates a hasher in the initial (offset-basis) state.
    pub fn new() -> Self {
        StableHasher::default()
    }
}

impl Hasher for StableHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.write(&[i]);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.write(&i.to_le_bytes());
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.write(&i.to_le_bytes());
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.write(&i.to_le_bytes());
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.write(&i.to_le_bytes());
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        // usize width varies by platform; widen so 32- and 64-bit hosts
        // agree on the digest.
        self.write(&(i as u64).to_le_bytes());
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// The fingerprint's one computation, run at most once per frozen graph
/// (the memo is [`Pag::fingerprint`]). The byte sequence it hashes is
/// part of the snapshot format: reorder nothing.
pub(crate) fn fingerprint_of(pag: &Pag) -> u64 {
    let mut h = StableHasher::new();
    let write_str = |h: &mut StableHasher, s: &str| {
        h.write_u32(s.len() as u32);
        h.write(s.as_bytes());
    };
    h.write_u32(pag.num_vars() as u32);
    h.write_u32(pag.num_objs() as u32);
    h.write_u32(pag.num_methods() as u32);
    h.write_u32(pag.num_fields() as u32);
    h.write_u32(pag.num_call_sites() as u32);
    h.write_u32(pag.num_edges() as u32);
    for e in pag.edges() {
        h.write_u32(e.src.index() as u32);
        h.write_u32(e.dst.index() as u32);
        let (tag, operand) = edge_kind_tag(e.kind);
        h.write_u8(tag);
        h.write_u32(operand);
    }
    for (_, name) in pag.fields() {
        write_str(&mut h, name);
    }
    for (m, _) in pag.methods() {
        write_str(&mut h, pag.method_name(m));
    }
    for (v, info) in pag.vars() {
        write_str(&mut h, pag.var_name(v));
        h.write_u32(info.kind.method().map_or(u32::MAX, MethodId::as_raw));
    }
    for (o, info) in pag.objs() {
        write_str(&mut h, pag.obj_label(o));
        h.write_u32(info.alloc_method.map_or(u32::MAX, MethodId::as_raw));
        h.write_u32(info.class.map_or(u32::MAX, |c| c.as_raw()));
    }
    for (s, info) in pag.call_sites() {
        write_str(&mut h, pag.site_label(s));
        h.write_u8(u8::from(info.recursive));
    }
    h.finish()
}

/// Stable tag + operand for an edge kind: fingerprint input, and part of
/// the builder's packed edge key (edges themselves are never
/// serialized).
pub(crate) fn edge_kind_tag(kind: EdgeKind) -> (u8, u32) {
    match kind {
        EdgeKind::New => (0, 0),
        EdgeKind::Assign => (1, 0),
        EdgeKind::Load(f) => (2, f.as_raw()),
        EdgeKind::Store(f) => (3, f.as_raw()),
        EdgeKind::AssignGlobal => (4, 0),
        EdgeKind::Entry(i) => (5, i.as_raw()),
        EdgeKind::Exit(i) => (6, i.as_raw()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_hasher_is_pinned_forever() {
        // These values are baked into the persistent snapshot format
        // (PAG fingerprint / config digest / payload checksum). If this
        // test fails, the hasher changed: revert it, or bump the
        // snapshot format version and re-pin.
        let mut h = StableHasher::new();
        h.write(b"dynsum");
        assert_eq!(h.finish(), 0xaae1_f28a_1c1b_412b);
        let mut h = StableHasher::default();
        h.write_u32(0xdead_beef);
        h.write_u64(0x0123_4567_89ab_cdef);
        h.write_u8(1);
        h.write_usize(42);
        assert_eq!(h.finish(), 0x350d_672b_a4ed_cff4);
        // Sized writes are little-endian byte writes, so the digest is
        // endianness-independent.
        let mut a = StableHasher::new();
        a.write_u16(0x1234);
        let mut b = StableHasher::new();
        b.write(&[0x34, 0x12]);
        assert_eq!(a.finish(), b.finish());
    }
}
