//! Per-workload arena accounting, the slab-style value-count table
//! behind [`crate::track::FullProfile`], and the per-entity containers
//! every profiler finds its trackers in.
//!
//! PR 5's governor could only *estimate* resident bytes, because
//! `FullProfile` sat on `std::collections::HashMap`, whose bucket layout
//! (control bytes, group padding) is an implementation detail. This
//! module removes the estimate in two moves:
//!
//! * [`ValueMap`] — an open-addressed `u64 → u64` count table whose
//!   entire storage is one `Box<[Slot]>` of power-of-two length, capped
//!   at [`ValueMap::MAX_SLOTS`]. Its footprint is `capacity × 16` bytes
//!   *by construction*: there is nothing else to account for, so
//!   `footprint_bytes()` is ground truth, not a model. It is the exact
//!   histogram's first stage; a profile whose values outgrow the cap
//!   counts them in a sorted run instead (see [`crate::track`]).
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
//! The per-entity state lives in two containers:
//!
//! * [`EntityTable`] — the instruction (`u32` pc) → state table of the
//!   full, convergent, sampled and temporal profilers and the governor's
//!   blacklist. A pc below [`DENSE_CAP`] finds its slot through a direct
//!   index, as ATOM binds each instrumented instruction to its own data:
//!   no hash on the per-event path. Larger pcs, which only a hostile or
//!   synthetic trace carries, go to an [`EntityMap`] overflow.
//! * [`EntityMap`] — the keyed hash map of the memory-location (`u64`)
//!   and parameter-slot profilers, and the table's overflow, on the keyed
//!   [`EntityHash`] instead of SipHash.
//!
//! An `EntityMap`'s seeds are random per map, so neither container's
//! iteration order is reproducible; every output path sorts by entity id
//! instead. Neither container's own bookkeeping (the hash buckets, the
//! dense index) is charged to the [`Arena`]: the governor meters tracker
//! state only.

use std::collections::hash_map::{self, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// Exact byte meter for one workload's profile state.
///
/// The arena does not own allocations; it owns the *accounting*. Every
/// tracker block in a governed profiler has a capacity-determined exact
/// size ([`ValueMap::footprint_bytes`], `FixedTnv::footprint_bytes`), so
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
}

#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    key: u64,
    count: u64, // 0 ⟺ slot empty; live entries always have count ≥ 1
}

/// Open-addressed `u64 → u64` count map with linear probing over a
/// single power-of-two slab of at most [`ValueMap::MAX_SLOTS`] slots.
///
/// The hashed stage of the exact histogram. The slab makes the footprint
/// exact (see module docs), and the fixed mixer below replaces SipHash —
/// value counting needs speed and determinism, not DoS keying. No key
/// sits [`ValueMap::MAX_PROBE`] or more slots past its home slot, so a
/// lookup reads at most that many slots. The slab doubles when an insert
/// would pass 7/8 load or would land that far from home (checked only
/// when a key is inserted), so capacity — and therefore footprint — is
/// a deterministic, monotone function of the keys inserted. It never
/// grows past the cap: a bump that would is refused. Keys a hostile
/// stream builds by inverting the mixer all probe from one home slot, so
/// the slab refuses the 65th of them, and no hit walks a longer chain.
#[derive(Debug, Clone, Default)]
pub struct ValueMap {
    slots: Box<[Slot]>,
    len: usize,
}

/// SplitMix64 finalizer: full-avalanche mixing so clustered values
/// (small integers, aligned pointers) spread across the slab.
pub(crate) fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The inverse of [`mix`]: `mix(unmix(x)) == x`, so tests can choose the
/// home slot of every key they insert.
#[cfg(test)]
pub(crate) fn unmix(mut x: u64) -> u64 {
    // The inverse of an odd multiplier mod 2^64, by Newton's method:
    // each step doubles the correct low bits, from 3 to 96.
    let inverse =
        |c: u64| (0..5).fold(c, |i, _| i.wrapping_mul(2u64.wrapping_sub(c.wrapping_mul(i))));
    x ^= (x >> 31) ^ (x >> 62);
    x = x.wrapping_mul(inverse(0x94D0_49BB_1331_11EB));
    x ^= (x >> 27) ^ (x >> 54);
    x = x.wrapping_mul(inverse(0xBF58_476D_1CE4_E5B9));
    x ^ (x >> 30) ^ (x >> 60)
}

impl ValueMap {
    /// The largest slab, in slots (16 KiB).
    pub const MAX_SLOTS: usize = 1024;

    /// The most keys the map holds: the capped slab at 7/8 load.
    pub const MAX_LEN: usize = ValueMap::MAX_SLOTS / 8 * 7;

    /// Every key sits less than this many slots past its home slot. At
    /// 7/8 load a random stream's longest probe usually passes it, so
    /// most instructions with 700–896 distinct values leave the slab a
    /// little before it is full; few with fewer do.
    pub const MAX_PROBE: usize = 64;

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
        let mask = self.slots.len().wrapping_sub(1);
        let home = mix(key) as usize;
        for d in 0..ValueMap::MAX_PROBE {
            let slot = self.slots.get(home.wrapping_add(d) & mask)?;
            if slot.count == 0 {
                return None;
            }
            if slot.key == key {
                return Some(slot.count);
            }
        }
        None
    }

    /// Adds `by` (> 0) to `key`'s count, inserting it at zero first.
    /// Returns false, and changes nothing, when `key` is absent and no
    /// slab of at most [`ValueMap::MAX_SLOTS`] slots holds it within 7/8
    /// load and [`ValueMap::MAX_PROBE`] slots of its home.
    #[inline]
    #[must_use]
    pub fn try_bump(&mut self, key: u64, by: u64) -> bool {
        debug_assert!(by > 0, "a zero bump would plant an empty-looking live slot");
        let capacity = self.slots.len();
        let mask = capacity.wrapping_sub(1);
        let home = mix(key) as usize;
        for d in 0..ValueMap::MAX_PROBE {
            // Only the empty map has no slot to probe.
            let Some(slot) = self.slots.get_mut(home.wrapping_add(d) & mask) else { break };
            if slot.count == 0 {
                // The load factor is checked on insert only, so a hit
                // never grows the slab.
                if (self.len + 1) * 8 > capacity * 7 {
                    break;
                }
                *slot = Slot { key, count: by };
                self.len += 1;
                return true;
            }
            if slot.key == key {
                slot.count += by;
                return true;
            }
        }
        self.grow_and_insert(key, by)
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

    /// Inserts the absent `key` into the smallest larger slab that holds
    /// every key within [`ValueMap::MAX_PROBE`] slots of its home, or
    /// returns false, changing nothing, when none up to the cap does.
    #[cold]
    fn grow_and_insert(&mut self, key: u64, by: u64) -> bool {
        let mut capacity = self.slots.len();
        while capacity < ValueMap::MAX_SLOTS {
            capacity = (capacity * 2).max(8);
            let live = self.slots.iter().filter(|s| s.count != 0);
            if let Some(slots) = place(live.chain([&Slot { key, count: by }]), capacity) {
                self.slots = slots;
                self.len += 1;
                return true;
            }
        }
        false
    }
}

/// A slab of `capacity` slots holding `slots`, or `None` when one of them
/// would sit [`ValueMap::MAX_PROBE`] or more slots past its home.
fn place<'a>(slots: impl Iterator<Item = &'a Slot>, capacity: usize) -> Option<Box<[Slot]>> {
    let mut slab = vec![Slot::default(); capacity].into_boxed_slice();
    let mask = capacity - 1;
    for slot in slots {
        let home = mix(slot.key) as usize;
        let d = (0..ValueMap::MAX_PROBE).find(|&d| slab[home.wrapping_add(d) & mask].count == 0)?;
        slab[home.wrapping_add(d) & mask] = *slot;
    }
    Some(slab)
}

/// The keyed per-entity map: memory location or parameter slot →
/// tracker state, and the overflow of an [`EntityTable`].
pub type EntityMap<K, V> = HashMap<K, V, EntityHash>;

/// Keys below this are dense in an [`EntityTable`]: their slot is found
/// through a direct index that grows only as far as the largest dense key
/// seen needs, so it costs at most `DENSE_CAP × 4` bytes (256 KiB). Every
/// suite program and adversarial stream keeps its pcs far below it.
pub const DENSE_CAP: u32 = 1 << 16;

/// Entries the dense index starts with (1 KiB): the pcs of every suite
/// program and adversarial stream fit, so their index is allocated once.
const MIN_INDEX: usize = 256;

/// The per-instruction state table: `u32` entity → `V`.
///
/// A key below [`DENSE_CAP`] costs one index load and one slot load, with
/// no hashing; the slots are one contiguous `Vec` of `(key, state)`
/// pairs, so iteration walks them directly. A key at or above the cap
/// goes to a keyed [`EntityMap`] overflow: untrusted VPC1 and serve
/// traces can carry any `u32`, and a hostile pc must not size the index.
/// Removal swaps the last slot into the hole, so iteration order is
/// unspecified, as an `EntityMap`'s is.
///
/// ```
/// use vp_core::arena::{EntityTable, DENSE_CAP};
///
/// let mut table = EntityTable::new();
/// *table.get_or_insert_with(7, || 0u64) += 1;
/// *table.get_or_insert_with(DENSE_CAP, || 0) += 2; // overflow
/// assert_eq!(table.get(7), Some(&1));
/// assert_eq!(table.remove(DENSE_CAP), Some(2));
/// assert_eq!(table.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct EntityTable<V> {
    /// `index[key]` is one more than a dense key's slot, 0 when absent.
    index: Vec<u32>,
    slots: Vec<(u32, V)>,
    overflow: EntityMap<u32, V>,
}

impl<V> Default for EntityTable<V> {
    fn default() -> EntityTable<V> {
        EntityTable { index: Vec::new(), slots: Vec::new(), overflow: EntityMap::default() }
    }
}

impl<V> EntityTable<V> {
    /// An empty table.
    pub fn new() -> EntityTable<V> {
        EntityTable::default()
    }

    /// Number of entities held.
    pub fn len(&self) -> usize {
        self.slots.len() + self.overflow.len()
    }

    /// True when no entity is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The slot of a dense key. The index holds at most [`DENSE_CAP`]
    /// entries, so an overflow key misses here without a separate compare.
    #[inline]
    fn slot(&self, key: u32) -> Option<usize> {
        match self.index.get(key as usize) {
            Some(&s) if s != 0 => Some(s as usize - 1),
            _ => None,
        }
    }

    /// The state of `key`, if present.
    #[inline]
    pub fn get(&self, key: u32) -> Option<&V> {
        match self.slot(key) {
            Some(s) => Some(&self.slots[s].1),
            None if key < DENSE_CAP => None,
            None => self.overflow.get(&key),
        }
    }

    /// The mutable state of `key`, if present.
    #[inline]
    pub fn get_mut(&mut self, key: u32) -> Option<&mut V> {
        match self.slot(key) {
            Some(s) => Some(&mut self.slots[s].1),
            None if key < DENSE_CAP => None,
            None => self.overflow.get_mut(&key),
        }
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: u32) -> bool {
        self.get(key).is_some()
    }

    /// The state of `key`, inserting `make()` first if it is absent.
    #[inline]
    pub fn get_or_insert_with(&mut self, key: u32, make: impl FnOnce() -> V) -> &mut V {
        if let Some(s) = self.slot(key) {
            return &mut self.slots[s].1;
        }
        if key >= DENSE_CAP {
            return self.overflow.entry(key).or_insert_with(make);
        }
        self.push_dense(key, make())
    }

    /// Sets `key`'s state, returning the one it replaces.
    pub fn insert(&mut self, key: u32, value: V) -> Option<V> {
        if let Some(old) = self.get_mut(key) {
            return Some(std::mem::replace(old, value));
        }
        if key >= DENSE_CAP {
            return self.overflow.insert(key, value);
        }
        self.push_dense(key, value);
        None
    }

    /// Appends an absent dense key's slot.
    fn push_dense(&mut self, key: u32, value: V) -> &mut V {
        let at = key as usize;
        if at >= self.index.len() {
            // Powers of two from MIN_INDEX up to DENSE_CAP, so a small
            // program's index is allocated once: every reallocation leaves
            // a freed scrap between the profilers' large buffers, and
            // enough of them raise peak RSS by megabytes.
            self.index.resize((at + 1).next_power_of_two().max(MIN_INDEX), 0);
        }
        self.slots.push((key, value));
        // At most DENSE_CAP slots, so the count fits the index's `u32`.
        self.index[at] = self.slots.len() as u32;
        &mut self.slots.last_mut().expect("just pushed").1
    }

    /// Removes `key`, returning its state. A dense removal moves the last
    /// slot into the freed one.
    pub fn remove(&mut self, key: u32) -> Option<V> {
        let Some(s) = self.slot(key) else {
            return if key < DENSE_CAP { None } else { self.overflow.remove(&key) };
        };
        self.index[key as usize] = 0;
        let (_, value) = self.slots.swap_remove(s);
        if let Some(&(moved, _)) = self.slots.get(s) {
            self.index[moved as usize] = s as u32 + 1;
        }
        Some(value)
    }

    /// Every `(key, state)` pair, in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &V)> + '_ {
        let dense = self.slots.iter().map(|(key, value)| (*key, value));
        dense.chain(self.overflow.iter().map(|(&key, value)| (key, value)))
    }

    /// Every key, in unspecified order.
    pub fn keys(&self) -> impl Iterator<Item = u32> + '_ {
        self.iter().map(|(key, _)| key)
    }

    /// Every state, in unspecified order.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.iter().map(|(_, value)| value)
    }
}

impl<V> IntoIterator for EntityTable<V> {
    type Item = (u32, V);
    type IntoIter = std::iter::Chain<std::vec::IntoIter<(u32, V)>, hash_map::IntoIter<u32, V>>;

    /// Every `(key, state)` pair, in unspecified order.
    fn into_iter(self) -> Self::IntoIter {
        self.slots.into_iter().chain(self.overflow)
    }
}

/// Keyed multiply-fold hashing for [`EntityMap`].
///
/// A profiler pays one entity lookup per observed event, so the hash
/// must cost a multiply, not SipHash's rounds. Entity keys arrive
/// from untrusted VPC1 traces (`vprof serve`), so it must also be keyed:
/// each hash is the folded 128-bit product of `key ^ k0` and an odd
/// `k1`, with both seeds drawn once per map from
/// [`RandomState`], and [`finish`](Hasher::finish) folds the result by
/// `k1` once more. The high half of a product depends on every key bit,
/// and the second fold mixes it into the low bits the table indexes by,
/// so no fixed key pattern (say, `pc << 16`) crowds into few buckets.
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
/// state as `fold(state ^ word, k1)`, and the hash is `fold(state, k1)`.
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

    /// One more fold of the state: after a single fold, a key's low
    /// bits reach the bucket index only through the high half of one
    /// product, and for some seeds `pc << 16` keys then crowd into a few
    /// dozen of 4096 buckets.
    fn finish(&self) -> u64 {
        fold_mul(self.state, self.k1)
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
        // Clustered, colliding, and wide keys; repeated bumps. The 351
        // quadratic residues mod 701 and 64 wide keys fit under the cap.
        let keys: Vec<u64> =
            (0..5000u64).map(|i| (i * i) % 701).chain((0..64).map(|i| i << 56)).collect();
        for (n, &k) in keys.iter().enumerate() {
            let by = (n as u64 % 3) + 1;
            assert!(map.try_bump(k, by), "key {k} refused");
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
            assert!(a.try_bump(i % 877, 1) && b.try_bump(i % 877, 1));
            assert!(a.capacity() >= last_cap, "slab shrank at {i}");
            last_cap = a.capacity();
            assert_eq!(a.capacity(), b.capacity(), "same stream, same slab at {i}");
        }
        assert_eq!(last_cap, ValueMap::MAX_SLOTS);
        assert_eq!(a.footprint_bytes(), last_cap * 16);
        // 7/8 load ceiling actually holds.
        assert!(a.len() * 8 <= a.capacity() * 7);
    }

    #[test]
    fn growth_is_checked_on_insert_only_and_stops_at_the_cap() {
        // Key `unmix(k)` has home slot `k mod capacity`: no probe is long.
        let key = |k: usize| unmix(k as u64);
        let mut map = ValueMap::new();
        // 7 keys fill 8 slots to the 7/8 limit; hits there do not grow it.
        for k in 0..7 {
            assert!(map.try_bump(key(k), 1));
        }
        assert_eq!(map.capacity(), 8);
        for k in 0..7 {
            assert!(map.try_bump(key(k), 1));
        }
        assert_eq!(map.capacity(), 8, "a hit at the load limit grew the slab");
        assert!(map.try_bump(key(7), 1));
        assert_eq!(map.capacity(), 16);
        // Fill the capped slab to its limit: 896 keys in 1024 slots.
        let limit = ValueMap::MAX_LEN;
        for k in 8..limit {
            assert!(map.try_bump(key(k), 1));
        }
        assert_eq!((map.len(), map.capacity()), (limit, ValueMap::MAX_SLOTS));
        // Hits still count; a new key is refused and changes nothing.
        assert!(map.try_bump(key(3), 5));
        assert_eq!(map.get(key(3)), Some(7));
        assert!(!map.try_bump(key(limit), 1));
        assert_eq!((map.len(), map.get(key(limit))), (limit, None));
    }

    #[test]
    fn no_key_sits_max_probe_slots_from_home() {
        // Keys whose mixed images share their low 20 bits all probe from
        // one home slot at every slab size. A long probe grows the slab
        // first, so the small slab is outgrown at once.
        let collide = |i: u64| unmix(i << 20 | 0x5_A5A5);
        let mut map = ValueMap::new();
        for i in 0..ValueMap::MAX_PROBE as u64 {
            assert!(map.try_bump(collide(i), 1), "colliding key {i} refused");
        }
        assert_eq!(map.capacity(), 128, "grown past the 7/8 load of 64 keys only");
        // The next one would sit MAX_PROBE slots from home in every slab:
        // refused, and nothing changes.
        let full = map.clone();
        assert!(!map.try_bump(collide(ValueMap::MAX_PROBE as u64), 1));
        assert_eq!((map.capacity(), map.len()), (128, ValueMap::MAX_PROBE));
        assert_eq!(map, full);
        // Hits on the chain still count, and a key with another home fits.
        assert!(map.try_bump(collide(ValueMap::MAX_PROBE as u64 - 1), 2));
        assert_eq!(map.get(collide(ValueMap::MAX_PROBE as u64 - 1)), Some(3));
        assert!(map.try_bump(unmix(0), 1));
        assert_eq!(map.get(collide(ValueMap::MAX_PROBE as u64)), None);
    }

    #[test]
    fn content_equality_ignores_slab_shape() {
        // Same content via different insertion orders (and therefore
        // possibly different probe placements) compares equal.
        let mut fwd = ValueMap::new();
        let mut rev = ValueMap::new();
        for k in 0..100u64 {
            assert!(fwd.try_bump(k, k + 1));
        }
        for k in (0..100u64).rev() {
            assert!(rev.try_bump(k, k + 1));
        }
        assert_eq!(fwd, rev);
        assert!(rev.try_bump(7, 1));
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
        // table's bucket range for every seed, so try many fresh ones.
        for _ in 0..64 {
            let build = EntityHash::default();
            let buckets: std::collections::HashSet<u64> =
                (0..4096u32).map(|i| build.hash_one(i << 16) & 4095).collect();
            assert!(buckets.len() > 2048, "only {} of 4096 buckets used", buckets.len());
        }
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
    }
}
