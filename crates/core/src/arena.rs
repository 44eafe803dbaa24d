//! Per-workload arena accounting, the slab-style value-count table
//! behind [`crate::track::FullProfile`], and the keyed per-entity map
//! every profiler finds its trackers in.
//!
//! PR 5's governor could only *estimate* resident bytes, because
//! `FullProfile` sat on `std::collections::HashMap`, whose bucket layout
//! (control bytes, group padding) is an implementation detail. This
//! module removes the estimate in two moves:
//!
//! * [`ValueMap`] — an open-addressed `u64 → u64` count table whose
//!   entire storage is one `Box<[Slot]>` of power-of-two length. Its
//!   footprint is `capacity × 16` bytes *by construction*: there is
//!   nothing else to account for, so `footprint_bytes()` is ground
//!   truth, not a model.
//! * [`Arena`] — the bump-style byte meter a governed workload charges
//!   every tracker allocation against. `live_bytes` tracks the exact
//!   resident total; [`Arena::mark`] records the high-water mark of
//!   *settled* states (the governor marks after enforcement, so the peak
//!   never reports a transient the budget already rolled back).
//!
//! Both are deterministic: capacities are a pure function of the
//! observation sequence, so governed runs — and their reported peaks —
//! reproduce bit-for-bit.
//!
//! [`EntityMap`] is the third piece: the `pc`/address/slot → state map of
//! every profiler, on the keyed [`EntityHash`] instead of SipHash. Its
//! seeds are random per map, so its iteration order is not reproducible;
//! every output path sorts by entity id instead.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// Exact byte meter for one workload's profile state.
///
/// The arena does not own allocations; it owns the *accounting*. Every
/// tracker block in a governed profiler has a capacity-determined exact
/// size ([`ValueMap::footprint_bytes`], `TnvTable::footprint_bytes`), so
/// charging those sizes here makes `live_bytes` the true resident total
/// and `high_water_bytes` the true peak — which is what
/// `GovernorStats::bytes_peak` now reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Arena {
    live: usize,
    high: usize,
}

impl Arena {
    /// An empty meter.
    pub fn new() -> Arena {
        Arena::default()
    }

    /// Records `bytes` of new allocation.
    pub fn charge(&mut self, bytes: usize) {
        self.live += bytes;
    }

    /// Records `bytes` freed (a degraded histogram, a dropped tracker).
    pub fn release(&mut self, bytes: usize) {
        debug_assert!(bytes <= self.live, "released more than was charged");
        self.live = self.live.saturating_sub(bytes);
    }

    /// Folds the current live total into the high-water mark. Callers
    /// mark at settled points — after budget enforcement, not between
    /// charge and release — so the peak reflects states that actually
    /// persisted.
    pub fn mark(&mut self) {
        self.high = self.high.max(self.live);
    }

    /// Exact resident bytes right now.
    pub fn live_bytes(&self) -> usize {
        self.live
    }

    /// Highest `live_bytes` ever observed by [`Arena::mark`].
    pub fn high_water_bytes(&self) -> usize {
        self.high
    }

    /// Overwrites the live total (merging shards replaces this meter's
    /// view with the combined profiler's exact footprint). The next
    /// `mark` folds the new level into the high-water mark.
    pub fn reset_live(&mut self, bytes: usize) {
        self.live = bytes;
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    key: u64,
    count: u64, // 0 ⟺ slot empty; live entries always have count ≥ 1
}

/// Open-addressed `u64 → u64` count map with linear probing over a
/// single power-of-two slab.
///
/// Replaces `HashMap<u64, u64>` in the exact histogram for two reasons:
/// the slab makes the footprint exact (see module docs), and the
/// fixed mixer below replaces SipHash — value counting needs speed and
/// determinism, not DoS keying. Grows by doubling at 7/8 load, so
/// capacity — and therefore footprint — is a deterministic, monotone
/// function of the observation sequence.
#[derive(Debug, Clone, Default)]
pub struct ValueMap {
    slots: Box<[Slot]>,
    len: usize,
}

/// SplitMix64 finalizer: full-avalanche mixing so clustered values
/// (small integers, aligned pointers) spread across the slab.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl ValueMap {
    /// An empty map (no slab until the first insertion).
    pub fn new() -> ValueMap {
        ValueMap::default()
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no keys have been inserted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Allocated slots (the whole slab, not just the occupied part).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The count for `key`, or `None` if it was never bumped.
    pub fn get(&self, key: u64) -> Option<u64> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = (mix(key) as usize) & mask;
        loop {
            let slot = &self.slots[i];
            if slot.count == 0 {
                return None;
            }
            if slot.key == key {
                return Some(slot.count);
            }
            i = (i + 1) & mask;
        }
    }

    /// Adds `by` (> 0) to `key`'s count, inserting it at zero first.
    pub fn bump(&mut self, key: u64, by: u64) {
        debug_assert!(by > 0, "a zero bump would plant an empty-looking live slot");
        if (self.len + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = (mix(key) as usize) & mask;
        loop {
            let slot = &mut self.slots[i];
            if slot.count == 0 {
                *slot = Slot { key, count: by };
                self.len += 1;
                return;
            }
            if slot.key == key {
                slot.count += by;
                return;
            }
            i = (i + 1) & mask;
        }
    }

    /// Iterates `(key, count)` pairs in slab order (an arbitrary but
    /// deterministic order — callers that need a canonical order sort).
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.slots.iter().filter(|s| s.count != 0).map(|s| (s.key, s.count))
    }

    /// Exact bytes of the slab. The map's entire heap state is the one
    /// `Box<[Slot]>`, so this is not an estimate.
    pub fn footprint_bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<Slot>()
    }

    fn grow(&mut self) {
        let new_cap = (self.slots.len() * 2).max(8);
        let old = std::mem::replace(&mut self.slots, vec![Slot::default(); new_cap].into());
        let mask = new_cap - 1;
        for slot in old.iter().filter(|s| s.count != 0) {
            let mut i = (mix(slot.key) as usize) & mask;
            while self.slots[i].count != 0 {
                i = (i + 1) & mask;
            }
            self.slots[i] = *slot;
        }
    }
}

/// The per-entity state map of every profiler: instruction, memory
/// location or parameter slot → tracker state.
pub type EntityMap<K, V> = HashMap<K, V, EntityHash>;

/// Keyed multiply-fold hashing for [`EntityMap`].
///
/// A profiler pays one entity lookup per observed event — and per
/// *skipped* event, since the sampling state lives in the map — so the
/// hash must cost a multiply, not SipHash's rounds. Entity keys arrive
/// from untrusted VPC1 traces (`vprof serve`), so it must also be keyed:
/// each hash is the folded 128-bit product of `key ^ k0` and an odd
/// `k1`, with both seeds drawn once per map from
/// [`RandomState`]. The high half of the product depends on every key
/// bit, so no fixed key pattern (say, `pc << 16`) lands in one bucket
/// for every seed.
#[derive(Debug, Clone, Copy)]
pub struct EntityHash {
    k0: u64,
    k1: u64,
}

impl Default for EntityHash {
    /// Fresh random seeds.
    fn default() -> EntityHash {
        let seed = RandomState::new();
        EntityHash { k0: seed.hash_one(0u64), k1: seed.hash_one(1u64) | 1 }
    }
}

impl BuildHasher for EntityHash {
    type Hasher = EntityHasher;

    fn build_hasher(&self) -> EntityHasher {
        EntityHasher { state: self.k0, k1: self.k1 }
    }
}

/// The [`Hasher`] of [`EntityHash`]: each word written folds into the
/// state as `fold(state ^ word, k1)`.
#[derive(Debug, Clone)]
pub struct EntityHasher {
    state: u64,
    k1: u64,
}

/// Folded multiply: the XOR of the two halves of the 128-bit product.
fn fold_mul(x: u64, k: u64) -> u64 {
    let product = u128::from(x) * u128::from(k);
    (product as u64) ^ ((product >> 64) as u64)
}

impl Hasher for EntityHasher {
    fn write_u64(&mut self, word: u64) {
        self.state = fold_mul(self.state ^ word, self.k1);
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    /// Fields without a direct method above, such as the `u8` inside a
    /// parameter-slot key, arrive as bytes: each little-endian 8-byte
    /// word, the last zero-padded, folds in like a `u64`.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn finish(&self) -> u64 {
        self.state
    }
}

impl PartialEq for ValueMap {
    /// Content equality: same keys with same counts, regardless of slab
    /// capacity or slot placement.
    fn eq(&self, other: &ValueMap) -> bool {
        self.len == other.len && self.iter().all(|(k, c)| other.get(k) == Some(c))
    }
}

impl Eq for ValueMap {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn slot_is_sixteen_bytes() {
        // The footprint-exactness story is `capacity × 16`; a padding
        // surprise here would silently turn it back into an estimate.
        assert_eq!(std::mem::size_of::<Slot>(), 16);
    }

    #[test]
    fn value_map_matches_hash_map_reference() {
        let mut map = ValueMap::new();
        let mut reference: HashMap<u64, u64> = HashMap::new();
        // Clustered, colliding, and wide keys; repeated bumps.
        let keys: Vec<u64> =
            (0..5000u64).map(|i| (i * i) % 701).chain((0..64).map(|i| i << 56)).collect();
        for (n, &k) in keys.iter().enumerate() {
            let by = (n as u64 % 3) + 1;
            map.bump(k, by);
            *reference.entry(k).or_insert(0) += by;
        }
        assert_eq!(map.len(), reference.len());
        for (&k, &c) in &reference {
            assert_eq!(map.get(k), Some(c), "key {k}");
        }
        assert_eq!(map.get(u64::MAX), None);
        let mut collected: Vec<(u64, u64)> = map.iter().collect();
        collected.sort_unstable();
        let mut expect: Vec<(u64, u64)> = reference.into_iter().collect();
        expect.sort_unstable();
        assert_eq!(collected, expect);
    }

    #[test]
    fn capacity_is_deterministic_and_monotone() {
        let mut a = ValueMap::new();
        let mut b = ValueMap::new();
        let mut last_cap = 0;
        for i in 0..10_000u64 {
            a.bump(i % 3001, 1);
            b.bump(i % 3001, 1);
            assert!(a.capacity() >= last_cap, "slab shrank at {i}");
            last_cap = a.capacity();
            assert_eq!(a.capacity(), b.capacity(), "same stream, same slab at {i}");
        }
        assert!(last_cap.is_power_of_two());
        assert_eq!(a.footprint_bytes(), last_cap * 16);
        // 7/8 load ceiling actually holds.
        assert!(a.len() * 8 <= a.capacity() * 7);
    }

    #[test]
    fn content_equality_ignores_slab_shape() {
        // Same content via different insertion orders (and therefore
        // possibly different probe placements) compares equal.
        let mut fwd = ValueMap::new();
        let mut rev = ValueMap::new();
        for k in 0..100u64 {
            fwd.bump(k, k + 1);
        }
        for k in (0..100u64).rev() {
            rev.bump(k, k + 1);
        }
        assert_eq!(fwd, rev);
        rev.bump(7, 1);
        assert_ne!(fwd, rev);
    }

    #[test]
    fn independently_built_hashers_disagree() {
        // Seeds are per map: some key of a small range must hash
        // differently under two fresh builders (a fixed, unkeyed hash
        // would agree on all of them).
        let (a, b) = (EntityHash::default(), EntityHash::default());
        assert!((0..64u32).any(|pc| a.hash_one(pc) != b.hash_one(pc)));
        // One builder is a pure function of the key.
        assert_eq!(a.hash_one(7u32), a.hash_one(7u32));
    }

    #[test]
    fn composite_key_write_path_is_stable_and_word_sensitive() {
        let build = EntityHash::default();
        let bytes = |b: &[u8]| {
            let mut h = build.build_hasher();
            h.write(b);
            h.finish()
        };
        let key = [3u8, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5];
        assert_eq!(bytes(&key), bytes(&key), "same bytes, same hash");
        // A short write is the zero-padded word.
        assert_eq!(bytes(&[0xAB, 0xCD]), build.hash_one(0xCDABu64));
        // Every word reaches the state: changing the tail changes the hash.
        let mut tail = key;
        tail[10] ^= 1;
        assert_ne!(bytes(&key), bytes(&tail));
        // The derived-`Hash` composite key of the parameter profiler
        // hashes the same on every call.
        let slot = (5usize, crate::params::ParamSlot::Arg(2));
        assert_eq!(build.hash_one(slot), build.hash_one(slot));
        assert_ne!(build.hash_one(slot), build.hash_one((5usize, crate::params::ParamSlot::Ret)));
    }

    #[test]
    fn entity_map_spreads_keys_that_share_low_bits() {
        // `pc << 16` keys share their low 16 bits. An unkeyed multiply
        // would bucket them together; the fold must spread them over the
        // table's bucket range.
        let build = EntityHash::default();
        let buckets: std::collections::HashSet<u64> =
            (0..4096u32).map(|i| build.hash_one(i << 16) & 4095).collect();
        assert!(buckets.len() > 2048, "only {} of 4096 buckets used", buckets.len());
    }

    #[test]
    fn arena_tracks_live_and_marked_peak() {
        let mut arena = Arena::new();
        arena.charge(100);
        arena.mark();
        arena.charge(400);
        // Not yet marked: a transient spike the governor rolls back
        // before settling must not become the reported peak.
        arena.release(300);
        arena.mark();
        assert_eq!(arena.live_bytes(), 200);
        assert_eq!(arena.high_water_bytes(), 200);
        arena.release(200);
        arena.mark();
        assert_eq!(arena.live_bytes(), 0);
        assert_eq!(arena.high_water_bytes(), 200, "peak is sticky");
        arena.reset_live(5000);
        arena.mark();
        assert_eq!(arena.high_water_bytes(), 5000);
    }
}
