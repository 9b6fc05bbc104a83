//! [`IdSlab`] — the session engine's map from session id to live state.
//!
//! The ids live at any instant cluster in a narrow window: prefills are
//! admitted roughly in arrival (= id) order and a session lives a handful
//! of iterations. The slab indexes exactly that window — a `VecDeque`
//! with one slot per id from `base` up, each holding the position of the
//! id's entry in a dense `Vec` — so `get`, `get_mut`, `insert` and
//! `remove` are index arithmetic with no tree descent. The
//! window grows at either end on insert (EDF admits prefills out of id
//! order, so an id below `base` is legal) and trims vacant slots at both
//! ends on remove, so it never outgrows the span of ids live together.
//! Entries stay dense (`swap_remove`), so memory is one entry per live
//! id plus one word per id of window span, however sparse the window.
//!
//! The slab is never iterated: the engine only looks entries up by id,
//! so the storage order cannot leak into report bytes.

use std::collections::VecDeque;

/// Window slot of an id with no entry.
const VACANT: usize = usize::MAX;

/// Entries keyed by `u64` id in a dense id window (see the module docs).
pub(crate) struct IdSlab<T> {
    /// Id of `slots[0]` (meaningless while `slots` is empty).
    base: u64,
    /// Per id in `base..base + slots.len()`: its index in `entries`, or
    /// [`VACANT`]. Both ends are occupied whenever the slab is non-empty.
    slots: VecDeque<usize>,
    /// The live entries with their ids, in no particular order.
    entries: Vec<(u64, T)>,
}

impl<T> IdSlab<T> {
    pub(crate) fn new() -> Self {
        Self { base: 0, slots: VecDeque::new(), entries: Vec::new() }
    }

    /// Number of live entries.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Window slot of `id`, if it falls inside the window.
    #[inline(always)]
    fn slot(&self, id: u64) -> Option<usize> {
        let i = usize::try_from(id.checked_sub(self.base)?).ok()?;
        (i < self.slots.len()).then_some(i)
    }

    /// Index in `entries` of `id`'s entry.
    #[inline(always)]
    fn entry(&self, id: u64) -> Option<usize> {
        let e = *self.slots.get(self.slot(id)?)?;
        (e != VACANT).then_some(e)
    }

    #[inline(always)]
    pub(crate) fn get(&self, id: u64) -> Option<&T> {
        Some(&self.entries.get(self.entry(id)?)?.1)
    }

    #[inline(always)]
    pub(crate) fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        let e = self.entry(id)?;
        Some(&mut self.entries.get_mut(e)?.1)
    }

    /// Stores `value` under `id`, returning the entry it replaces. The
    /// window extends to cover `id` on whichever side it falls.
    pub(crate) fn insert(&mut self, id: u64, value: T) -> Option<T> {
        if let Some(e) = self.entry(id) {
            return Some(std::mem::replace(&mut self.entries[e].1, value));
        }
        if self.slots.is_empty() {
            self.base = id;
        } else if id < self.base {
            for _ in id..self.base {
                self.slots.push_front(VACANT);
            }
            self.base = id;
        }
        let i = (id - self.base) as usize;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, VACANT);
        }
        self.slots[i] = self.entries.len();
        self.entries.push((id, value));
        None
    }

    /// Removes and returns the entry under `id`, trimming the window's
    /// vacant ends.
    #[inline(always)]
    pub(crate) fn remove(&mut self, id: u64) -> Option<T> {
        let i = self.slot(id)?;
        let e = std::mem::replace(self.slots.get_mut(i)?, VACANT);
        if e == VACANT {
            return None;
        }
        let (_, value) = self.entries.swap_remove(e);
        // The former last entry now lives at `e`: repoint its slot.
        if let Some(&(moved, _)) = self.entries.get(e) {
            if let Some(j) = self.slot(moved) {
                self.slots[j] = e;
            }
        }
        while self.slots.front() == Some(&VACANT) {
            self.slots.pop_front();
            self.base += 1;
        }
        while self.slots.back() == Some(&VACANT) {
            self.slots.pop_back();
        }
        Some(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use defa_tensor::rng::TensorRng;
    use std::collections::BTreeMap;

    /// Applies one operation to both the slab and the `BTreeMap` model
    /// and asserts they answer identically.
    fn step(slab: &mut IdSlab<u64>, model: &mut BTreeMap<u64, u64>, op: u32, id: u64, v: u64) {
        match op {
            0 => assert_eq!(slab.insert(id, v), model.insert(id, v), "insert {id}"),
            1 => assert_eq!(slab.remove(id), model.remove(&id), "remove {id}"),
            2 => assert_eq!(slab.get(id), model.get(&id), "get {id}"),
            _ => {
                let (a, b) = (slab.get_mut(id), model.get_mut(&id));
                assert_eq!(a.as_deref(), b.as_deref(), "get_mut {id}");
                if let (Some(a), Some(b)) = (a, b) {
                    *a += v;
                    *b += v;
                }
            }
        }
        assert_eq!(slab.len(), model.len(), "len");
        assert_eq!(slab.is_empty(), model.is_empty(), "is_empty");
        // The window spans exactly the live ids: both ends occupied.
        match (model.keys().next(), model.keys().next_back()) {
            (Some(&lo), Some(&hi)) => {
                assert_eq!(slab.base, lo, "window base");
                assert_eq!(slab.slots.len() as u64, hi - lo + 1, "window span");
            }
            _ => assert!(slab.slots.is_empty(), "empty slab keeps a window"),
        }
    }

    /// Seeded random operation streams over a sliding id window — ids
    /// inserted out of order and below the base, removals at the front,
    /// middle and back — agree with a `BTreeMap` at every step, including
    /// across the slab draining empty and refilling.
    #[test]
    fn slab_matches_btreemap_on_seeded_operation_streams() {
        for seed in 0..16u64 {
            let mut rng = TensorRng::seed_from(seed);
            let mut slab = IdSlab::new();
            let mut model = BTreeMap::new();
            let mut lo = 1_000 * seed;
            for i in 0..4_000u64 {
                // Slide the live window forward, as admissions do.
                if rng.index(8) == 0 {
                    lo += rng.index(4) as u64;
                }
                let id = lo + rng.index(24) as u64;
                step(&mut slab, &mut model, rng.index(4) as u32, id, i);
                // Periodically drain everything, then reuse the slab.
                if i % 997 == 996 {
                    let ids: Vec<u64> = model.keys().copied().collect();
                    for id in ids {
                        step(&mut slab, &mut model, 1, id, 0);
                    }
                    assert!(slab.is_empty());
                }
            }
        }
    }

    /// The edge cases the random streams hit only by chance, spelled out.
    #[test]
    fn slab_handles_out_of_order_ids_and_every_removal_position() {
        let mut slab = IdSlab::new();
        let mut model = BTreeMap::new();
        let script: &[(u32, u64)] = &[
            (0, 10),      // first insert sets the base
            (0, 14),      // grows the back
            (0, 7),       // below the base: grows the front
            (0, 12),      // middle
            (2, 11),      // hole inside the window
            (2, 3),       // below the window
            (2, 99),      // above the window
            (1, 12),      // remove from the middle: window unchanged
            (1, 7),       // remove the front: trims to 10
            (1, 14),      // remove the back: trims to 10..=10
            (0, 5),       // far below the base again
            (1, 10),      // remove the back
            (1, 5),       // empties the slab
            (1, 5),       // removing from an empty slab
            (0, 1 << 40), // reuse after emptying re-bases anywhere
            (3, 1 << 40),
            (0, (1 << 40) - 1),
        ];
        for (i, &(op, id)) in script.iter().enumerate() {
            step(&mut slab, &mut model, op, id, i as u64);
        }
    }
}
