//! Hash-consed persistent stacks.
//!
//! The demand-driven analyses carry two stacks through every traversal
//! step: the **field stack** (unmatched `load(f)` labels, Algorithm 3) and
//! the **context stack** (unmatched call-site parentheses, Algorithm 4).
//! Both are immutable and shared across millions of worklist entries, and
//! both serve as summary-cache key components, so they are interned: a
//! stack is a 4-byte [`StackId`], push/pop are O(1) hash-table operations,
//! and equality is id equality.

use std::hash::Hash;
use std::marker::PhantomData;
use std::sync::Arc;

use crate::hash::FxHashMap;

/// An interned stack handle, branded by element type so field stacks and
/// context stacks cannot be mixed up.
///
/// Ids are only meaningful relative to the [`StackPool`] that produced
/// them. The empty stack is [`StackId::EMPTY`] in every pool.
pub struct StackId<E> {
    raw: u32,
    _marker: PhantomData<E>,
}

impl<E> StackId<E> {
    /// The empty stack (valid in every pool).
    pub const EMPTY: StackId<E> = StackId {
        raw: 0,
        _marker: PhantomData,
    };

    /// Raw interned index; 0 is the empty stack.
    #[inline]
    pub const fn as_raw(self) -> u32 {
        self.raw
    }

    /// Reconstructs a handle from a raw index (must come from the same
    /// pool).
    #[inline]
    pub const fn from_raw(raw: u32) -> Self {
        StackId {
            raw,
            _marker: PhantomData,
        }
    }

    /// `true` for the empty stack.
    #[inline]
    pub const fn is_empty(self) -> bool {
        self.raw == 0
    }
}

// Manual impls: derives would bound `E`, which is only a phantom brand.
impl<E> Copy for StackId<E> {}
impl<E> Clone for StackId<E> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<E> PartialEq for StackId<E> {
    fn eq(&self, other: &Self) -> bool {
        self.raw == other.raw
    }
}
impl<E> Eq for StackId<E> {}
impl<E> PartialOrd for StackId<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for StackId<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.raw.cmp(&other.raw)
    }
}
impl<E> Hash for StackId<E> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.raw.hash(state);
    }
}
impl<E> std::fmt::Debug for StackId<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "stack{}", self.raw)
    }
}

/// The flat storage of a pool (or of a pool's frozen prefix): the node
/// arena plus the interning table. Table keys are `(element, parent raw
/// id)` with **global** raw ids, so a frozen core and a private
/// extension compose without rewriting either.
#[derive(Debug, Clone)]
struct PoolCore<E> {
    /// `nodes[i]` backs `StackId(first + i)` where `first` is 1 for a
    /// base core and `base_len + 1` for an extension.
    nodes: Vec<(E, StackId<E>, u32)>,
    /// Interning table; push is one probe of this map. Keyed by dense
    /// in-tree ids, so the fast non-SipHash hasher is safe here.
    table: FxHashMap<(E, u32), StackId<E>>,
}

// Manual impl: a derive would bound `E: Default`, which element types
// need not satisfy.
impl<E> Default for PoolCore<E> {
    fn default() -> Self {
        PoolCore {
            nodes: Vec::new(),
            table: FxHashMap::default(),
        }
    }
}

/// Arena of hash-consed stacks over element type `E`.
///
/// A pool is a **frozen shared prefix** (an `Arc` installed by
/// [`freeze`](Self::freeze), shared O(1) between clones) plus a private
/// copy-on-extend tail. Cloning a freshly frozen pool is a reference
/// bump, not a deep copy — that is how a
/// [`Session`](../dynsum_core/struct.Session.html) hands every batch
/// worker an aligned field-stack pool without re-copying the interning
/// table each batch. Ids stay globally aligned across a pool and all
/// clones taken after the same freeze: pushes that re-derive a frozen
/// stack return its frozen id, and fresh pushes extend privately past
/// the frozen prefix exactly as they would have extended the original.
///
/// # Examples
///
/// ```
/// use dynsum_cfl::{StackId, StackPool};
///
/// let mut pool: StackPool<u32> = StackPool::new();
/// let s = pool.push(StackId::EMPTY, 7);
/// let t = pool.push(s, 9);
/// assert_eq!(pool.peek(t), Some(9));
/// let (top, rest) = pool.pop(t).unwrap();
/// assert_eq!(top, 9);
/// assert_eq!(rest, s);
/// // Hash-consing: the same sequence yields the same id.
/// let s2 = pool.push(StackId::EMPTY, 7);
/// assert_eq!(s, s2);
/// ```
#[derive(Debug, Clone)]
pub struct StackPool<E> {
    /// Frozen prefix (ids `1..=base_len`), shared between clones;
    /// `None` until the first [`freeze`](Self::freeze).
    base: Option<Arc<PoolCore<E>>>,
    /// `base.nodes.len()`, cached flat: `node()` runs on every stack
    /// pop/peek/depth of the inner analysis loops, and reading the
    /// length through the `Arc` would put a pointer chase on that path.
    base_len: u32,
    /// Private extension; `ext.nodes[i]` backs `StackId(base_len+i+1)`.
    ext: PoolCore<E>,
}

impl<E: Copy + Eq + Hash> StackPool<E> {
    /// Creates a pool containing only the empty stack.
    pub fn new() -> Self {
        StackPool {
            base: None,
            base_len: 0,
            ext: PoolCore::default(),
        }
    }

    /// Number of distinct non-empty stacks interned so far.
    pub fn len(&self) -> usize {
        self.base_len as usize + self.ext.nodes.len()
    }

    /// `true` when no non-empty stack has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn node(&self, s: StackId<E>) -> Option<&(E, StackId<E>, u32)> {
        if s.raw == 0 {
            return None;
        }
        let i = (s.raw - 1) as usize;
        let base_len = self.base_len as usize;
        if i < base_len {
            Some(&self.base.as_ref().expect("base_len > 0").nodes[i])
        } else {
            Some(&self.ext.nodes[i - base_len])
        }
    }

    /// Pushes `elem`, returning the interned result.
    pub fn push(&mut self, s: StackId<E>, elem: E) -> StackId<E> {
        let key = (elem, s.raw);
        if self.base_len > 0 {
            if let Some(&id) = self.base.as_ref().expect("base_len > 0").table.get(&key) {
                return id;
            }
        }
        if let Some(&id) = self.ext.table.get(&key) {
            return id;
        }
        let depth = self.depth(s) as u32 + 1;
        let id = StackId::from_raw(self.len() as u32 + 1);
        self.ext.nodes.push((elem, s, depth));
        self.ext.table.insert(key, id);
        id
    }

    /// Freezes the pool's current contents into the shared prefix, so
    /// that [`Clone`] is an O(1) reference bump instead of a deep copy
    /// until the next private push. Interned ids are unchanged. A no-op
    /// when nothing was pushed since the last freeze.
    ///
    /// When this pool holds the only reference to its current prefix
    /// (the steady state of a session pool whose per-batch clones have
    /// been dropped), the rebuild moves the existing storage and costs
    /// only the private tail; otherwise the prefix is copied once.
    pub fn freeze(&mut self) {
        if self.ext.nodes.is_empty() {
            return;
        }
        let mut core = match self.base.take() {
            Some(arc) => Arc::try_unwrap(arc).unwrap_or_else(|shared| (*shared).clone()),
            None => PoolCore::default(),
        };
        core.nodes.append(&mut self.ext.nodes);
        core.table.extend(self.ext.table.drain());
        self.base_len = core.nodes.len() as u32;
        self.base = Some(Arc::new(core));
    }

    /// Length of the frozen prefix this pool shares with `other`: ids
    /// `1..=shared_base_len` intern the **same stacks** in both pools
    /// (they hold the same `Arc`). 0 when the pools share nothing —
    /// callers must then translate every id. The cheap identity test
    /// behind [`Session::absorb`](../dynsum_core/struct.Session.html)'s
    /// fast path.
    pub fn shared_base_len(&self, other: &StackPool<E>) -> usize {
        match (&self.base, &other.base) {
            (Some(a), Some(b)) if Arc::ptr_eq(a, b) => a.nodes.len(),
            _ => 0,
        }
    }

    /// Exports every interned (non-empty) stack in id order `1..=len()`
    /// as `(top element, parent id)` pairs — the pool's persistent wire
    /// form, re-importable with [`import`](Self::import).
    ///
    /// A stack's parent is always interned before the stack itself, so
    /// every yielded parent id is strictly smaller than the id of the
    /// pair that carries it (`0`, the empty stack, is always valid).
    /// That ordering is what makes the flat pair list self-contained:
    /// replaying it through [`push`](Self::push) rebuilds the exact same
    /// id assignment. Both the frozen prefix and the private extension
    /// are exported; clone-sharing is a memory optimization, not part of
    /// the pool's logical content.
    ///
    /// # Examples
    ///
    /// ```
    /// use dynsum_cfl::{StackId, StackPool};
    ///
    /// let mut pool: StackPool<u8> = StackPool::new();
    /// let seven = pool.push(StackId::EMPTY, 7);
    /// let s = pool.push(seven, 9);
    /// pool.freeze();
    /// let t = pool.push(s, 11); // extends past the frozen prefix
    ///
    /// let pairs: Vec<(u8, StackId<u8>)> = pool.export().collect();
    /// let rebuilt = StackPool::import(pairs).expect("valid export");
    /// assert_eq!(rebuilt.len(), pool.len());
    /// assert_eq!(rebuilt.to_vec(t), vec![7, 9, 11]); // ids align
    /// ```
    pub fn export(&self) -> impl Iterator<Item = (E, StackId<E>)> + '_ {
        let frozen = self.base.as_deref().map_or(&[][..], |c| c.nodes.as_slice());
        frozen
            .iter()
            .chain(self.ext.nodes.iter())
            .map(|&(elem, parent, _)| (elem, parent))
    }

    /// Rebuilds a pool from pairs produced by [`export`](Self::export),
    /// assigning ids `1..=n` in order. Returns `None` when the pairs are
    /// not a valid export — a parent id at or beyond the id being defined
    /// (forward/self reference), or a duplicate `(element, parent)` pair
    /// (which would collapse under hash-consing and shift every later
    /// id). Untrusted inputs (snapshot files) rely on this validation to
    /// fail loudly instead of silently mis-aligning ids.
    ///
    /// The rebuilt pool answers every operation identically to the
    /// exported one, under the same ids. It is returned unfrozen; call
    /// [`freeze`](Self::freeze) if cheap clones are needed.
    pub fn import<I>(pairs: I) -> Option<StackPool<E>>
    where
        I: IntoIterator<Item = (E, StackId<E>)>,
    {
        let mut pool = StackPool::new();
        for (i, (elem, parent)) in pairs.into_iter().enumerate() {
            let id = u32::try_from(i).ok()?.checked_add(1)?;
            if parent.as_raw() >= id {
                return None;
            }
            if pool.push(parent, elem).as_raw() != id {
                return None;
            }
        }
        Some(pool)
    }

    /// Pops the top element, returning it with the remaining stack;
    /// `None` on the empty stack.
    #[inline]
    pub fn pop(&self, s: StackId<E>) -> Option<(E, StackId<E>)> {
        self.node(s).map(|&(e, parent, _)| (e, parent))
    }

    /// The top element, if any.
    #[inline]
    pub fn peek(&self, s: StackId<E>) -> Option<E> {
        self.node(s).map(|&(e, _, _)| e)
    }

    /// Number of elements in the stack.
    #[inline]
    pub fn depth(&self, s: StackId<E>) -> usize {
        self.node(s).map_or(0, |&(_, _, d)| d as usize)
    }

    /// Elements bottom-to-top (push order).
    pub fn to_vec(&self, s: StackId<E>) -> Vec<E> {
        let mut out = Vec::with_capacity(self.depth(s));
        let mut cur = s;
        while let Some((e, parent)) = self.pop(cur) {
            out.push(e);
            cur = parent;
        }
        out.reverse();
        out
    }

    /// Forgets every interned stack (the empty stack remains valid),
    /// keeping the private backing allocations for reuse. Any frozen
    /// shared prefix is dropped too — after `clear` the pool interns
    /// exactly like a fresh one.
    ///
    /// Outstanding non-empty [`StackId`]s are invalidated. Engines use
    /// this to make pools **per-query scratch**: clearing at query start
    /// makes every interned id a deterministic function of that query
    /// alone, independent of what was interned by earlier queries — the
    /// property that lets parallel query batches return results
    /// byte-identical to sequential execution.
    pub fn clear(&mut self) {
        self.base = None;
        self.base_len = 0;
        self.ext.nodes.clear();
        self.ext.table.clear();
    }

    /// Interns a stack from elements given bottom-to-top.
    #[cfg(test)]
    pub fn from_slice(&mut self, elems: &[E]) -> StackId<E> {
        let mut s = StackId::EMPTY;
        for &e in elems {
            s = self.push(s, e);
        }
        s
    }

    /// `true` when `prefix` (read top-down) matches the topmost
    /// `depth(prefix)` elements of `s`. Used by STASUM when applying a
    /// relative summary to a concrete stack.
    pub fn is_top_prefix(&self, s: StackId<E>, prefix: &[E]) -> bool {
        let mut cur = s;
        for &want in prefix {
            match self.pop(cur) {
                Some((e, parent)) if e == want => cur = parent,
                _ => return false,
            }
        }
        true
    }

    /// Removes the topmost `n` elements; `None` if the stack is shorter.
    pub fn pop_n(&self, s: StackId<E>, n: usize) -> Option<StackId<E>> {
        let mut cur = s;
        for _ in 0..n {
            cur = self.pop(cur)?.1;
        }
        Some(cur)
    }
}

impl<E: Copy + Eq + Hash + Ord> StackPool<E> {
    /// Content-based total order on two stacks of this pool: by depth,
    /// then elementwise from the top. Unlike comparing raw [`StackId`]s
    /// (which reflect interning history), the result depends only on the
    /// stacks' contents — engines sort summary boundaries with this so
    /// traversal order, and with it the partial result of an over-budget
    /// query, is identical in every pool.
    pub fn cmp_stacks(&self, a: StackId<E>, b: StackId<E>) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        if a == b {
            // Hash-consing: equal ids ⟺ equal contents.
            return Ordering::Equal;
        }
        let (da, db) = (self.depth(a), self.depth(b));
        if da != db {
            return da.cmp(&db);
        }
        let (mut x, mut y) = (a, b);
        while x != y {
            let (ex, px) = self.pop(x).expect("equal depth, not exhausted");
            let (ey, py) = self.pop(y).expect("equal depth, not exhausted");
            match ex.cmp(&ey) {
                Ordering::Equal => {
                    x = px;
                    y = py;
                }
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl<E: Copy + Eq + Hash> Default for StackPool<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_stack_properties() {
        let pool: StackPool<u8> = StackPool::new();
        assert!(StackId::<u8>::EMPTY.is_empty());
        assert_eq!(pool.depth(StackId::EMPTY), 0);
        assert_eq!(pool.peek(StackId::EMPTY), None);
        assert_eq!(pool.pop(StackId::EMPTY), None);
        assert!(pool.to_vec(StackId::EMPTY).is_empty());
    }

    #[test]
    fn push_pop_round_trip() {
        let mut pool = StackPool::new();
        let s1 = pool.push(StackId::EMPTY, 'a');
        let s2 = pool.push(s1, 'b');
        assert_eq!(pool.depth(s2), 2);
        assert_eq!(pool.peek(s2), Some('b'));
        assert_eq!(pool.pop(s2), Some(('b', s1)));
        assert_eq!(pool.to_vec(s2), vec!['a', 'b']);
    }

    #[test]
    fn hash_consing_dedups() {
        let mut pool = StackPool::new();
        let a = pool.from_slice(&[1, 2, 3]);
        let b = pool.from_slice(&[1, 2, 3]);
        let c = pool.from_slice(&[1, 2]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(pool.len(), 3); // [1], [1,2], [1,2,3]
    }

    #[test]
    fn top_prefix_checks_topdown() {
        let mut pool = StackPool::new();
        let s = pool.from_slice(&[1, 2, 3]); // top = 3
        assert!(pool.is_top_prefix(s, &[]));
        assert!(pool.is_top_prefix(s, &[3]));
        assert!(pool.is_top_prefix(s, &[3, 2]));
        assert!(pool.is_top_prefix(s, &[3, 2, 1]));
        assert!(!pool.is_top_prefix(s, &[2]));
        assert!(!pool.is_top_prefix(s, &[3, 2, 1, 0]));
    }

    #[test]
    fn content_order_ignores_interning_history() {
        use std::cmp::Ordering;
        // Pool 1 interns [2,9] before [1,3]; pool 2 the other way round.
        let mut p1 = StackPool::new();
        let hi1 = p1.from_slice(&[2, 9]);
        let lo1 = p1.from_slice(&[1, 3]);
        let mut p2 = StackPool::new();
        let lo2 = p2.from_slice(&[1, 3]);
        let hi2 = p2.from_slice(&[2, 9]);
        // Raw ids disagree across pools; content order does not.
        assert!(hi1.as_raw() < lo1.as_raw());
        assert!(lo2.as_raw() < hi2.as_raw());
        assert_eq!(p1.cmp_stacks(lo1, hi1), Ordering::Less);
        assert_eq!(p2.cmp_stacks(lo2, hi2), Ordering::Less);
        // Depth dominates; equal ids are equal; top element decides.
        let short = p1.from_slice(&[9]);
        assert_eq!(p1.cmp_stacks(short, hi1), Ordering::Less);
        assert_eq!(p1.cmp_stacks(hi1, hi1), Ordering::Equal);
        let a = p1.from_slice(&[5, 1]);
        let b = p1.from_slice(&[4, 2]);
        assert_eq!(p1.cmp_stacks(a, b), Ordering::Less, "top 1 < top 2");
    }

    #[test]
    fn clear_resets_interning_deterministically() {
        let mut pool = StackPool::new();
        let a = pool.from_slice(&[7, 8, 9]);
        pool.clear();
        assert!(pool.is_empty());
        assert_eq!(pool.depth(StackId::EMPTY), 0);
        // Interning the same sequence after clear yields the same ids as
        // a fresh pool would.
        let b = pool.from_slice(&[7, 8, 9]);
        assert_eq!(a, b);
        let mut fresh = StackPool::new();
        assert_eq!(fresh.from_slice(&[7, 8, 9]), b);
    }

    #[test]
    fn freeze_preserves_ids_and_shares_storage() {
        let mut pool = StackPool::new();
        let a = pool.from_slice(&[1, 2, 3]);
        let b = pool.from_slice(&[4]);
        pool.freeze();
        // Frozen contents answer identically.
        assert_eq!(pool.to_vec(a), vec![1, 2, 3]);
        assert_eq!(pool.to_vec(b), vec![4]);
        assert_eq!(pool.len(), 4);
        // Re-pushing a frozen stack returns its frozen id.
        assert_eq!(pool.from_slice(&[1, 2, 3]), a);
        // A clone taken after freeze shares the whole prefix.
        let snap = pool.clone();
        assert_eq!(pool.shared_base_len(&snap), 4);
        assert_eq!(snap.to_vec(a), vec![1, 2, 3]);
        // Freezing again with no new pushes is a no-op (still shared).
        pool.freeze();
        assert_eq!(pool.shared_base_len(&snap), 4);
    }

    #[test]
    fn snapshot_extends_like_a_deep_clone() {
        // The alignment invariant absorb relies on: a post-freeze clone
        // pushed further interns exactly the ids a deep copy would.
        let mut pool = StackPool::new();
        pool.from_slice(&[7, 8]);
        pool.freeze();
        let mut snap = pool.clone();
        let mut deep = StackPool::new();
        deep.from_slice(&[7, 8]);
        let s1 = snap.from_slice(&[7, 9]);
        let s2 = deep.from_slice(&[7, 9]);
        assert_eq!(s1, s2);
        assert_eq!(snap.len(), deep.len());
        // Private extension does not leak back into the original.
        assert_eq!(pool.len(), 2);
        // Ids at or below the shared prefix denote the same stacks.
        let shared = pool.shared_base_len(&snap);
        assert_eq!(shared, 2);
        for raw in 1..=shared as u32 {
            let id = StackId::from_raw(raw);
            assert_eq!(pool.to_vec(id), snap.to_vec(id));
        }
    }

    #[test]
    fn unrelated_pools_share_nothing() {
        let mut a = StackPool::new();
        a.from_slice(&[1]);
        a.freeze();
        let mut b = StackPool::new();
        b.from_slice(&[1]);
        b.freeze();
        assert_eq!(a.shared_base_len(&b), 0, "distinct Arcs never alias");
        let unfrozen: StackPool<u16> = StackPool::new();
        assert_eq!(unfrozen.shared_base_len(&unfrozen.clone()), 0);
    }

    #[test]
    fn clear_drops_the_frozen_prefix() {
        let mut pool = StackPool::new();
        let a = pool.from_slice(&[5, 6]);
        pool.freeze();
        let snap = pool.clone();
        pool.clear();
        assert!(pool.is_empty());
        assert_eq!(pool.shared_base_len(&snap), 0);
        // Interning after clear matches a fresh pool again.
        assert_eq!(pool.from_slice(&[5, 6]), a);
    }

    #[test]
    fn freeze_mid_stream_keeps_push_pop_consistent() {
        let mut pool = StackPool::new();
        let s1 = pool.from_slice(&[1, 2]);
        pool.freeze();
        let s2 = pool.push(s1, 3); // crosses the frozen/private border
        assert_eq!(pool.pop(s2), Some((3, s1)));
        assert_eq!(pool.depth(s2), 3);
        assert_eq!(pool.to_vec(s2), vec![1, 2, 3]);
        assert!(pool.is_top_prefix(s2, &[3, 2, 1]));
        assert_eq!(pool.pop_n(s2, 2), Some(pool.from_slice(&[1])));
    }

    #[test]
    fn export_import_round_trips_across_the_freeze_border() {
        let mut pool = StackPool::new();
        let a = pool.from_slice(&[1u16, 2, 3]);
        pool.freeze();
        let b = pool.push(a, 9); // private extension past the prefix
        let c = pool.from_slice(&[4]);
        let rebuilt = StackPool::import(pool.export()).expect("valid");
        assert_eq!(rebuilt.len(), pool.len());
        for s in [a, b, c] {
            assert_eq!(rebuilt.to_vec(s), pool.to_vec(s));
            assert_eq!(rebuilt.depth(s), pool.depth(s));
        }
        // Re-interning a known stack hits the same id in both pools.
        let mut rebuilt = rebuilt;
        assert_eq!(rebuilt.from_slice(&[1, 2, 3]), a);
    }

    #[test]
    fn import_rejects_malformed_pair_lists() {
        // Forward reference: pair 1 (id 1) naming parent 1 or later.
        assert!(StackPool::import(vec![(5u16, StackId::from_raw(1))]).is_none());
        assert!(StackPool::import(vec![(5u16, StackId::from_raw(7))]).is_none());
        // Duplicate (element, parent): hash-consing would collapse it
        // and shift every later id.
        let dup = vec![
            (5u16, StackId::EMPTY),
            (5u16, StackId::EMPTY),
            (6u16, StackId::from_raw(2)),
        ];
        assert!(StackPool::import(dup).is_none());
        // The empty export is a valid (empty) pool.
        let empty = StackPool::<u16>::import(std::iter::empty()).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn pop_n_behaviour() {
        let mut pool = StackPool::new();
        let s = pool.from_slice(&[1, 2, 3]);
        assert_eq!(pool.pop_n(s, 0), Some(s));
        assert_eq!(pool.pop_n(s, 2), Some(pool.from_slice(&[1])));
        assert_eq!(pool.pop_n(s, 3), Some(StackId::EMPTY));
        assert_eq!(pool.pop_n(s, 4), None);
    }

    proptest! {
        #[test]
        fn from_slice_to_vec_round_trips(elems in proptest::collection::vec(0u16..64, 0..24)) {
            let mut pool = StackPool::new();
            let s = pool.from_slice(&elems);
            prop_assert_eq!(pool.to_vec(s), elems.clone());
            prop_assert_eq!(pool.depth(s), elems.len());
        }

        #[test]
        fn interning_is_injective(
            a in proptest::collection::vec(0u16..8, 0..12),
            b in proptest::collection::vec(0u16..8, 0..12),
        ) {
            let mut pool = StackPool::new();
            let sa = pool.from_slice(&a);
            let sb = pool.from_slice(&b);
            prop_assert_eq!(sa == sb, a == b);
        }

        #[test]
        fn push_then_pop_is_identity(
            base in proptest::collection::vec(0u16..8, 0..12),
            elem in 0u16..8,
        ) {
            let mut pool = StackPool::new();
            let s = pool.from_slice(&base);
            let pushed = pool.push(s, elem);
            prop_assert_eq!(pool.pop(pushed), Some((elem, s)));
        }
    }
}
