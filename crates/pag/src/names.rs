//! Name storage: every name once, in one arena, found through keyed
//! slot tables.
//!
//! Every field, method, variable, object and call-site name lives in
//! one `String` arena. Each namespace keeps the arena span of each id
//! and a [`SlotTable`] over those ids, so a name resolves with one hash
//! and a short linear probe, and a declaration checks for a duplicate
//! and finds its free slot in the same probe. The builder deduplicates
//! edges with the same [`SlotTable`], keyed by the packed edge. All of a
//! builder's tables hash through one per-builder [`RandomState`], so
//! `.pag` text cannot choose collisions. (Class names live in the
//! [`Hierarchy`](crate::Hierarchy)'s records, which find them through a
//! [`SlotTable`] of their own.)

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

use crate::builder::BuildError;

/// The heap bytes a vector holds: its capacity, not its length.
pub(crate) fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// A free slot.
const EMPTY: u32 = u32::MAX;

/// An open-addressing hash table of dense `u32` ids whose keys live
/// elsewhere: lookups compare keys through a closure, and growth
/// rehashes each id through another.
///
/// Ids are inserted in order `0, 1, 2, …` (the arenas' ids), which is
/// how the table knows its fill without a count. The slot count is a
/// power of two, kept at least twice the id count (load ≤ ½), and
/// collisions probe linearly.
#[derive(Debug, Clone, Default)]
pub(crate) struct SlotTable {
    slots: Vec<u32>,
}

/// Where [`SlotTable::probe`] stopped short of a match: the key's hash
/// and the free slot that ends its probe sequence.
#[derive(Debug)]
pub(crate) struct Vacant {
    hash: u64,
    slot: usize,
}

impl SlotTable {
    /// The id whose key `is_key` accepts, probing from `hash`'s home
    /// slot; or, when there is none, where that key would go.
    pub(crate) fn probe(
        &self,
        hash: u64,
        mut is_key: impl FnMut(u32) -> bool,
    ) -> Result<u32, Vacant> {
        if self.slots.is_empty() {
            // `insert` grows the table before it uses the slot.
            return Err(Vacant { hash, slot: 0 });
        }
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            match self.slots[slot] {
                EMPTY => return Err(Vacant { hash, slot }),
                id if is_key(id) => return Ok(id),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Stores `id` — the next id, equal to the number already stored —
    /// at the slot `probe` found for its key. When that would fill more
    /// than half the table, doubles it first, rehashing every stored id
    /// through `hash_of`.
    pub(crate) fn insert(&mut self, at: Vacant, id: u32, hash_of: impl Fn(u32) -> u64) {
        let slot = if (id as usize + 1) * 2 > self.slots.len() {
            let grown = (self.slots.len() * 2).max(8);
            let old = std::mem::replace(&mut self.slots, vec![EMPTY; grown]);
            for old_id in old.into_iter().filter(|&i| i != EMPTY) {
                let s = self.free_slot(hash_of(old_id));
                self.slots[s] = old_id;
            }
            self.free_slot(at.hash)
        } else {
            at.slot
        };
        self.slots[slot] = id;
    }

    fn free_slot(&self, hash: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        while self.slots[slot] != EMPTY {
            slot = (slot + 1) & mask;
        }
        slot
    }

    pub(crate) fn heap_bytes(&self) -> usize {
        vec_bytes(&self.slots)
    }
}

/// The five namespaces a [`Names`] holds.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Ns {
    Field,
    Method,
    Var,
    Obj,
    Site,
}

/// One namespace: the arena span `(start, end)` of each id's name, and
/// the slot table that finds an id by name.
#[derive(Debug, Clone, Default)]
struct Space {
    spans: Vec<(u32, u32)>,
    slots: SlotTable,
}

/// The names of every named entity but classes. The builder fills them,
/// rejecting duplicates, and [`PagBuilder::finish`](crate::PagBuilder::finish)
/// moves them into the frozen [`Pag`](crate::Pag), so a graph resolves
/// names through the tables it was built with.
#[derive(Debug, Clone, Default)]
pub(crate) struct Names {
    arena: String,
    spaces: [Space; 5],
    hasher: RandomState,
}

impl Names {
    /// The hasher of every keyed table of one builder (and, after
    /// `finish`, of its graph).
    pub(crate) fn hasher(&self) -> &RandomState {
        &self.hasher
    }

    /// Number of names in `ns`.
    pub(crate) fn len(&self, ns: Ns) -> usize {
        self.spaces[ns as usize].spans.len()
    }

    /// The name of id `id` in `ns`.
    #[inline]
    pub(crate) fn get(&self, ns: Ns, id: u32) -> &str {
        let (start, end) = self.spaces[ns as usize].spans[id as usize];
        &self.arena[start as usize..end as usize]
    }

    /// The id of `name` in `ns`, or where `add` would put it.
    pub(crate) fn lookup(&self, ns: Ns, name: &str) -> Result<u32, Vacant> {
        let space = &self.spaces[ns as usize];
        space.slots.probe(self.hasher.hash_one(name), |id| {
            let (start, end) = space.spans[id as usize];
            &self.arena[start as usize..end as usize] == name
        })
    }

    /// The id of `name` in `ns`, if declared.
    pub(crate) fn find(&self, ns: Ns, name: &str) -> Option<u32> {
        self.lookup(ns, name).ok()
    }

    /// Adds `name` to `ns` at the slot `lookup` found for it and returns
    /// its id (the namespace's length before the call). The caller has
    /// checked that the id fits.
    ///
    /// # Errors
    ///
    /// Fails when the arena would pass 2³² − 1 bytes, the reach of its
    /// `u32` spans.
    pub(crate) fn add(&mut self, ns: Ns, name: &str, at: Vacant) -> Result<u32, BuildError> {
        let Names {
            arena,
            spaces,
            hasher,
        } = self;
        let start = u32::try_from(arena.len()).ok();
        let end = arena
            .len()
            .checked_add(name.len())
            .and_then(|e| u32::try_from(e).ok());
        let (Some(start), Some(end)) = (start, end) else {
            return Err(BuildError::TooManyIds("name byte"));
        };
        arena.push_str(name);
        let space = &mut spaces[ns as usize];
        let id = space.spans.len() as u32;
        space.spans.push((start, end));
        let spans = &space.spans;
        space.slots.insert(at, id, |old| {
            let (start, end) = spans[old as usize];
            hasher.hash_one(&arena[start as usize..end as usize])
        });
        Ok(id)
    }

    /// Drops the arena's and spans' growth slack; the slot tables keep
    /// their size, which lookups need.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.arena.shrink_to_fit();
        for space in &mut self.spaces {
            space.spans.shrink_to_fit();
        }
    }

    /// The bytes the arena, spans and slot tables hold.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.arena.capacity()
            + self
                .spaces
                .iter()
                .map(|s| vec_bytes(&s.spans) + s.slots.heap_bytes())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_table_grows_and_keeps_every_id() {
        let keys: Vec<u64> = (0..1000).map(|i| i * 7919).collect();
        let hasher = RandomState::new();
        let mut t = SlotTable::default();
        for (id, &k) in keys.iter().enumerate() {
            let at = t
                .probe(hasher.hash_one(k), |i| keys[i as usize] == k)
                .unwrap_err();
            t.insert(at, id as u32, |i| hasher.hash_one(keys[i as usize]));
            assert!(t.slots.len() >= 2 * (id + 1), "load stays at most one half");
        }
        for (id, &k) in keys.iter().enumerate() {
            let found = t.probe(hasher.hash_one(k), |i| keys[i as usize] == k);
            assert_eq!(found.ok(), Some(id as u32));
        }
    }

    #[test]
    fn names_live_once_in_the_arena() {
        let mut n = Names::default();
        for (ns, name) in [(Ns::Var, "ab"), (Ns::Obj, "ab"), (Ns::Var, "a")] {
            let at = n.lookup(ns, name).unwrap_err();
            n.add(ns, name, at).unwrap();
        }
        assert_eq!(n.arena, "ababa");
        assert_eq!((n.get(Ns::Var, 0), n.get(Ns::Var, 1)), ("ab", "a"));
        assert_eq!(n.find(Ns::Obj, "ab"), Some(0));
        assert_eq!(n.find(Ns::Obj, "a"), None);
        assert_eq!((n.len(Ns::Var), n.len(Ns::Field)), (2, 0));
    }
}
