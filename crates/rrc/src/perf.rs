//! Allocation-discipline primitives for the hot analysis path.
//!
//! The parse → extract → detect pipeline runs millions of events per
//! campaign; this module holds the three small data structures that keep
//! that path off the heap:
//!
//! * [`InlineVec`] — a small-vector storing up to `N` elements inline and
//!   spilling to a `Vec` beyond that. Reconfiguration add/release lists and
//!   measurement-report rows are almost always tiny (≤4 cells in practice),
//!   so cloning a record into the classifier's evidence window stops
//!   allocating.
//! * [`FxMap`] — a hand-rolled FxHash open-addressing map for hot counters
//!   (channel usage histograms, campaign aggregation shards). No removal —
//!   the counters only ever grow — which keeps probing tombstone-free. It
//!   serializes exactly like `BTreeMap` (sorted string keys), so persisted
//!   output stays bitwise identical at any worker count.
//! * [`StrInterner`] — a string interner mapping labels to dense
//!   [`Symbol`] ids, for analysis layers that want compact keys for
//!   free-form strings (cell labels, message names) without per-record
//!   `String` churn.
//!
//! `onoff-rrc` sits at the bottom of the workspace graph, so these types
//! live here, where every layer above can reach them (downstream users
//! through `fiveg_onoff::rrc::perf`).
//!
//! Everything is implemented from scratch against the offline shim-based
//! workspace: no registry dependencies.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::mem::MaybeUninit;

use serde::{de, Deserialize, Serialize, Value};

// ---------------------------------------------------------------------------
// InlineVec
// ---------------------------------------------------------------------------

/// A vector storing up to `N` elements inline, spilling to the heap past
/// that. API-compatible with the `Vec` subset the workspace uses; derefs
/// to `[T]` so every slice method works.
///
/// ```
/// use onoff_rrc::perf::InlineVec;
///
/// let mut v: InlineVec<u32, 4> = InlineVec::new();
/// v.push(1);
/// v.push(2);
/// assert_eq!(v.as_slice(), &[1, 2]);
/// assert!(!v.spilled());
/// for x in 3..=9 {
///     v.push(x);
/// }
/// assert!(v.spilled());
/// assert_eq!(v.len(), 9);
/// assert_eq!(v.remove(0), 1);
/// ```
pub struct InlineVec<T, const N: usize> {
    repr: Repr<T, N>,
}

enum Repr<T, const N: usize> {
    /// `len` live elements at the front of `buf`.
    Inline {
        len: usize,
        buf: [MaybeUninit<T>; N],
    },
    Heap(Vec<T>),
}

impl<T, const N: usize> InlineVec<T, N> {
    /// An empty vector (no heap allocation).
    pub const fn new() -> InlineVec<T, N> {
        InlineVec {
            repr: Repr::Inline {
                len: 0,
                // `MaybeUninit` is allowed to be uninitialized.
                buf: unsafe { MaybeUninit::uninit().assume_init() },
            },
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Inline { len, .. } => *len,
            Repr::Heap(v) => v.len(),
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True once the contents have spilled to the heap.
    pub fn spilled(&self) -> bool {
        matches!(self.repr, Repr::Heap(_))
    }

    /// The elements as a slice.
    pub fn as_slice(&self) -> &[T] {
        match &self.repr {
            Repr::Inline { len, buf } => {
                // SAFETY: the first `len` slots are initialized.
                unsafe { std::slice::from_raw_parts(buf.as_ptr().cast::<T>(), *len) }
            }
            Repr::Heap(v) => v.as_slice(),
        }
    }

    /// The elements as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        match &mut self.repr {
            Repr::Inline { len, buf } => {
                // SAFETY: the first `len` slots are initialized.
                unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr().cast::<T>(), *len) }
            }
            Repr::Heap(v) => v.as_mut_slice(),
        }
    }

    /// Builds from a slice, reusing `spare`'s heap capacity when the slice
    /// overflows the inline buffer. With `None` (or an undersized spare)
    /// this is equivalent to `src.iter().cloned().collect()`; either way
    /// the *contents* are identical — only where the bytes live differs —
    /// so recorded traces stay bitwise-equal whether or not a spare was
    /// available. Hot recording paths (the simulator's per-step
    /// measurement reports) pair this with [`InlineVec::take_spilled`] to
    /// cycle one heap buffer per in-flight report instead of allocating a
    /// fresh one per event.
    pub fn from_slice_reusing(src: &[T], spare: Option<Vec<T>>) -> Self
    where
        T: Clone,
    {
        if src.len() <= N {
            return src.iter().cloned().collect();
        }
        let mut v = spare.unwrap_or_default();
        v.clear();
        v.extend_from_slice(src);
        InlineVec {
            repr: Repr::Heap(v),
        }
    }

    /// Takes the heap buffer out of a spilled vector (cleared, capacity
    /// kept), leaving `self` empty. Returns `None` when the contents never
    /// spilled — there is no heap storage to recycle.
    pub fn take_spilled(&mut self) -> Option<Vec<T>> {
        match &mut self.repr {
            Repr::Heap(v) => {
                let mut v = std::mem::take(v);
                v.clear();
                self.repr = Repr::Inline {
                    len: 0,
                    // `MaybeUninit` is allowed to be uninitialized.
                    buf: unsafe { MaybeUninit::uninit().assume_init() },
                };
                Some(v)
            }
            Repr::Inline { .. } => None,
        }
    }

    /// Appends an element, spilling to the heap at the `N+1`-th push.
    pub fn push(&mut self, value: T) {
        match &mut self.repr {
            Repr::Inline { len, buf } => {
                if *len < N {
                    buf[*len].write(value);
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(N * 2);
                    // SAFETY: all N slots are initialized; moving them out
                    // and immediately switching repr prevents double drops.
                    for slot in buf.iter() {
                        v.push(unsafe { slot.as_ptr().read() });
                    }
                    v.push(value);
                    self.repr = Repr::Heap(v);
                }
            }
            Repr::Heap(v) => v.push(value),
        }
    }

    /// Removes and returns the last element.
    pub fn pop(&mut self) -> Option<T> {
        match &mut self.repr {
            Repr::Inline { len, buf } => {
                if *len == 0 {
                    None
                } else {
                    *len -= 1;
                    // SAFETY: slot `len` was initialized and is now out of
                    // the live range.
                    Some(unsafe { buf[*len].as_ptr().read() })
                }
            }
            Repr::Heap(v) => v.pop(),
        }
    }

    /// Inserts an element at `index`, shifting the tail right.
    ///
    /// # Panics
    /// Panics when `index > len`, like `Vec::insert`.
    pub fn insert(&mut self, index: usize, value: T) {
        let len = self.len();
        assert!(index <= len, "insertion index out of bounds");
        self.push(value);
        self.as_mut_slice()[index..].rotate_right(1);
    }

    /// Removes and returns the element at `index`, shifting the tail left.
    ///
    /// # Panics
    /// Panics when `index >= len`, like `Vec::remove`.
    pub fn remove(&mut self, index: usize) -> T {
        match &mut self.repr {
            Repr::Inline { len, buf } => {
                assert!(index < *len, "removal index out of bounds");
                // SAFETY: `index` is in the live range; the shift moves
                // initialized slots down by one and shrinks the range.
                unsafe {
                    let out = buf[index].as_ptr().read();
                    let p = buf.as_mut_ptr();
                    std::ptr::copy(p.add(index + 1), p.add(index), *len - index - 1);
                    *len -= 1;
                    out
                }
            }
            Repr::Heap(v) => v.remove(index),
        }
    }

    /// Removes all elements (keeps heap capacity when spilled).
    pub fn clear(&mut self) {
        match &mut self.repr {
            Repr::Inline { len, buf } => {
                let live = *len;
                *len = 0;
                for slot in buf.iter_mut().take(live) {
                    // SAFETY: the slot was live and the length is already 0.
                    unsafe { slot.as_ptr().read() };
                }
            }
            Repr::Heap(v) => v.clear(),
        }
    }

    /// Converts into a plain `Vec`.
    pub fn into_vec(mut self) -> Vec<T> {
        match std::mem::replace(
            &mut self.repr,
            Repr::Inline {
                len: 0,
                buf: unsafe { MaybeUninit::uninit().assume_init() },
            },
        ) {
            Repr::Inline { len, buf } => {
                let mut v = Vec::with_capacity(len);
                for slot in buf.iter().take(len) {
                    // SAFETY: live slots; the original repr was replaced by
                    // an empty one, so nothing double-drops.
                    v.push(unsafe { slot.as_ptr().read() });
                }
                v
            }
            Repr::Heap(v) => v,
        }
    }
}

impl<T, const N: usize> Drop for InlineVec<T, N> {
    fn drop(&mut self) {
        if let Repr::Inline { len, buf } = &mut self.repr {
            for slot in buf.iter_mut().take(*len) {
                // SAFETY: the first `len` slots are live exactly once.
                unsafe { std::ptr::drop_in_place(slot.as_mut_ptr()) };
            }
        }
    }
}

impl<T, const N: usize> std::ops::Deref for InlineVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T, const N: usize> std::ops::DerefMut for InlineVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        InlineVec::new()
    }
}

impl<T: Clone, const N: usize> Clone for InlineVec<T, N> {
    fn clone(&self) -> Self {
        // Representation-preserving: an inline vector clones with zero heap
        // allocations, a spilled one with exactly one (the `Vec` clone) —
        // never by re-pushing element-by-element through the spill boundary.
        match &self.repr {
            Repr::Inline { len, buf } => {
                let mut out = InlineVec::new();
                if let Repr::Inline {
                    len: out_len,
                    buf: out_buf,
                } = &mut out.repr
                {
                    for (src, dst) in buf.iter().take(*len).zip(out_buf.iter_mut()) {
                        // SAFETY: the first `len` source slots are live.
                        dst.write(unsafe { &*src.as_ptr() }.clone());
                        *out_len += 1;
                    }
                }
                out
            }
            Repr::Heap(v) => InlineVec {
                repr: Repr::Heap(v.clone()),
            },
        }
    }
}

impl<T: fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl<T: PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: PartialEq, const N: usize> PartialEq<Vec<T>> for InlineVec<T, N> {
    fn eq(&self, other: &Vec<T>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: PartialEq, const N: usize> PartialEq<InlineVec<T, N>> for Vec<T> {
    fn eq(&self, other: &InlineVec<T, N>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Hash, const N: usize> Hash for InlineVec<T, N> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

impl<T: PartialOrd, const N: usize> PartialOrd for InlineVec<T, N> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        self.as_slice().partial_cmp(other.as_slice())
    }
}

impl<T: Ord, const N: usize> Ord for InlineVec<T, N> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl<T, const N: usize> From<Vec<T>> for InlineVec<T, N> {
    fn from(v: Vec<T>) -> Self {
        if v.len() > N {
            InlineVec {
                repr: Repr::Heap(v),
            }
        } else {
            v.into_iter().collect()
        }
    }
}

impl<T, const N: usize, const M: usize> From<[T; M]> for InlineVec<T, N> {
    fn from(arr: [T; M]) -> Self {
        arr.into_iter().collect()
    }
}

impl<T, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let iter = iter.into_iter();
        // A known-oversize iterator goes straight to a right-sized heap
        // vector instead of spilling incrementally through `push`.
        if iter.size_hint().0 > N {
            return InlineVec {
                repr: Repr::Heap(iter.collect()),
            };
        }
        let mut out = InlineVec::new();
        for x in iter {
            out.push(x);
        }
        out
    }
}

impl<T, const N: usize> Extend<T> for InlineVec<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<T, const N: usize> IntoIterator for InlineVec<T, N> {
    type Item = T;
    type IntoIter = std::vec::IntoIter<T>;

    fn into_iter(self) -> Self::IntoIter {
        self.into_vec().into_iter()
    }
}

/// Serializes as a JSON array, byte-identical to `Vec<T>`.
impl<T: Serialize, const N: usize> Serialize for InlineVec<T, N> {
    fn to_value(&self) -> Value {
        Value::Array(self.as_slice().iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize, const N: usize> Deserialize for InlineVec<T, N> {
    fn from_value(v: &Value) -> Result<Self, de::Error> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            _ => Err(de::Error::invalid_type("array", v)),
        }
    }
}

// ---------------------------------------------------------------------------
// FxMap
// ---------------------------------------------------------------------------

/// The FxHash multiplication constant (from rustc's hasher).
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// rustc's FxHash: fold words into the state with rotate–xor–multiply.
/// Not collision-resistant against adversaries — these maps only ever key
/// on trusted internal values (channel numbers, enum tags, operators).
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

fn fx_hash<K: Hash + ?Sized>(key: &K) -> u64 {
    let mut h = FxHasher::default();
    key.hash(&mut h);
    h.finish()
}

/// An open-addressing hash map (FxHash, linear probing, power-of-two
/// capacity) for hot-path counters.
///
/// Deliberately minimal: insertion, lookup, and iteration only — the
/// counter maps it replaces never remove keys, so probing needs no
/// tombstones. Serialization sorts keys (through the BTree-backed JSON
/// object), so output is byte-identical to the `BTreeMap` it replaced
/// regardless of insertion order — the workers-invariance property the
/// campaign relies on.
///
/// ```
/// use onoff_rrc::perf::FxMap;
///
/// let mut m: FxMap<u32, u64> = FxMap::new();
/// *m.entry(387410).or_insert(0) += 1;
/// *m.entry(387410).or_insert(0) += 1;
/// assert_eq!(m.get(&387410), Some(&2));
/// assert_eq!(m.len(), 1);
/// ```
pub struct FxMap<K, V> {
    /// Power-of-two slot array; `None` = empty (no tombstones).
    slots: Box<[Option<(K, V)>]>,
    len: usize,
}

impl<K, V> FxMap<K, V> {
    /// An empty map (no allocation until the first insert).
    pub fn new() -> FxMap<K, V> {
        FxMap {
            slots: Box::default(),
            len: 0,
        }
    }

    /// An empty map pre-sized for `cap` entries.
    pub fn with_capacity(cap: usize) -> FxMap<K, V> {
        let mut m = FxMap::new();
        if cap > 0 {
            m.slots = empty_slots(slot_count_for(cap));
        }
        m
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates entries in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.slots
            .iter()
            .filter_map(|s| s.as_ref().map(|(k, v)| (k, v)))
    }

    /// Iterates entries mutably, in unspecified order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&K, &mut V)> {
        self.slots
            .iter_mut()
            .filter_map(|s| s.as_mut().map(|(k, v)| (&*k, v)))
    }

    /// Iterates values mutably, in unspecified order — the online scorer's
    /// session reset walks its per-cell reservoirs in place this way.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.iter_mut().map(|(_, v)| v)
    }

    /// Removes every entry, keeping the slot array: the map can be refilled
    /// up to its previous size without reallocating. Streaming sessions
    /// reset per-session state through this instead of rebuilding the map.
    pub fn clear(&mut self) {
        for slot in self.slots.iter_mut() {
            *slot = None;
        }
        self.len = 0;
    }

    /// Heap bytes of the slot array (capacity-based, like the analyzers'
    /// `mem_hint`s); heap the values own is not counted.
    pub fn mem_hint(&self) -> usize {
        self.slots.len() * std::mem::size_of::<Option<(K, V)>>()
    }

    /// Iterates keys in unspecified order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.iter().map(|(k, _)| k)
    }

    /// Iterates values in unspecified order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }
}

fn slot_count_for(entries: usize) -> usize {
    // Load factor ≤ 0.75.
    (entries * 4 / 3 + 1).next_power_of_two().max(8)
}

fn empty_slots<K, V>(n: usize) -> Box<[Option<(K, V)>]> {
    let mut v = Vec::with_capacity(n);
    v.resize_with(n, || None);
    v.into_boxed_slice()
}

impl<K: Hash + Eq, V> FxMap<K, V> {
    fn probe(&self, key: &K) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut idx = fx_hash(key) as usize & mask;
        loop {
            match &self.slots[idx] {
                None => return None,
                Some((k, _)) if k == key => return Some(idx),
                Some(_) => idx = (idx + 1) & mask,
            }
        }
    }

    /// Looks up a key.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.probe(key)
            .map(|i| &self.slots[i].as_ref().expect("probed slot is live").1)
    }

    /// Looks up a key, mutably.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.probe(key)
            .map(|i| &mut self.slots[i].as_mut().expect("probed slot is live").1)
    }

    /// True when the key is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.probe(key).is_some()
    }

    /// Inserts a value, returning the previous one if present.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        if let Some(i) = self.probe(&key) {
            let slot = self.slots[i].as_mut().expect("probed slot is live");
            return Some(std::mem::replace(&mut slot.1, value));
        }
        self.insert_new(key, value);
        None
    }

    /// Inserts a key known to be absent, growing as needed.
    fn insert_new(&mut self, key: K, value: V) -> usize {
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow(slot_count_for(self.len + 1));
        }
        let mask = self.slots.len() - 1;
        let mut idx = fx_hash(&key) as usize & mask;
        while self.slots[idx].is_some() {
            idx = (idx + 1) & mask;
        }
        self.slots[idx] = Some((key, value));
        self.len += 1;
        idx
    }

    fn grow(&mut self, new_slots: usize) {
        let old = std::mem::replace(&mut self.slots, empty_slots(new_slots));
        let mask = self.slots.len() - 1;
        for entry in old.into_vec().into_iter().flatten() {
            let (k, v) = entry;
            let mut idx = fx_hash(&k) as usize & mask;
            while self.slots[idx].is_some() {
                idx = (idx + 1) & mask;
            }
            self.slots[idx] = Some((k, v));
        }
    }

    /// Entry API covering the `entry(k).or_insert(v)` /
    /// `entry(k).or_default()` idioms of the maps this replaces.
    pub fn entry(&mut self, key: K) -> Entry<'_, K, V> {
        Entry { map: self, key }
    }
}

impl<K, V> IntoIterator for FxMap<K, V> {
    type Item = (K, V);
    type IntoIter = std::iter::Flatten<std::vec::IntoIter<Option<(K, V)>>>;

    fn into_iter(self) -> Self::IntoIter {
        self.slots.into_vec().into_iter().flatten()
    }
}

/// A view into a single map entry (present or vacant).
pub struct Entry<'a, K, V> {
    map: &'a mut FxMap<K, V>,
    key: K,
}

impl<'a, K: Hash + Eq, V> Entry<'a, K, V> {
    /// Returns the value, inserting `default` when vacant.
    pub fn or_insert(self, default: V) -> &'a mut V {
        self.or_insert_with(|| default)
    }

    /// Returns the value, inserting `V::default()` when vacant.
    pub fn or_default(self) -> &'a mut V
    where
        V: Default,
    {
        self.or_insert_with(V::default)
    }

    /// Returns the value, inserting `f()` when vacant.
    pub fn or_insert_with(self, f: impl FnOnce() -> V) -> &'a mut V {
        let idx = match self.map.probe(&self.key) {
            Some(i) => i,
            None => self.map.insert_new(self.key, f()),
        };
        &mut self.map.slots[idx].as_mut().expect("slot is live").1
    }
}

impl<K, V> Default for FxMap<K, V> {
    fn default() -> Self {
        FxMap::new()
    }
}

impl<K: Clone, V: Clone> Clone for FxMap<K, V> {
    fn clone(&self) -> Self {
        FxMap {
            slots: self.slots.clone(),
            len: self.len,
        }
    }
}

impl<K: fmt::Debug + Hash + Eq, V: fmt::Debug> fmt::Debug for FxMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Order-independent equality, like `HashMap`'s.
impl<K: Hash + Eq, V: PartialEq> PartialEq for FxMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().all(|(k, v)| other.get(k) == Some(v))
    }
}

impl<K: Hash + Eq, V: Eq> Eq for FxMap<K, V> {}

impl<K: Hash + Eq, V> std::ops::Index<&K> for FxMap<K, V> {
    type Output = V;

    fn index(&self, key: &K) -> &V {
        self.get(key).expect("no entry found for key")
    }
}

impl<K: Hash + Eq, V> FromIterator<(K, V)> for FxMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut m = FxMap::new();
        for (k, v) in iter {
            m.insert(k, v);
        }
        m
    }
}

/// Converts a serialized key into a JSON object key the way serde_json
/// (and the serde shim) do: strings pass through, numbers and bools
/// stringify.
fn key_to_string(v: Value) -> String {
    match v {
        Value::String(s) => s,
        Value::Number(n) => n.to_json(),
        Value::Bool(b) => b.to_string(),
        other => panic!(
            "map key must serialize to a string or number, got {}",
            other.kind()
        ),
    }
}

/// Serializes as a sorted JSON object — byte-identical to the `BTreeMap`
/// encoding (the serde shim's `Map` is BTree-backed, so insertion order
/// never leaks into the output).
impl<K: Serialize, V: Serialize> Serialize for FxMap<K, V> {
    fn to_value(&self) -> Value {
        let mut m = serde::Map::new();
        for (k, v) in self.slots.iter().flatten() {
            m.insert(key_to_string(k.to_value()), v.to_value());
        }
        Value::Object(m)
    }
}

impl<K: Deserialize + Hash + Eq, V: Deserialize> Deserialize for FxMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, de::Error> {
        match v {
            Value::Object(m) => {
                let mut out = FxMap::with_capacity(m.len());
                for (k, val) in m.iter() {
                    let key = K::from_value(&Value::String(k.clone()))?;
                    out.insert(key, V::from_value(val)?);
                }
                Ok(out)
            }
            _ => Err(de::Error::invalid_type("object", v)),
        }
    }
}

// ---------------------------------------------------------------------------
// StrInterner
// ---------------------------------------------------------------------------

/// A dense id for an interned string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

/// A string interner: `intern` maps equal strings to one stable
/// [`Symbol`]; `resolve` returns the original text. Lookup is an FxHash
/// open-addressing probe over the interned table, so re-interning a known
/// label allocates nothing.
///
/// ```
/// use onoff_rrc::perf::StrInterner;
///
/// let mut i = StrInterner::new();
/// let a = i.intern("387410");
/// let b = i.intern("521310");
/// assert_ne!(a, b);
/// assert_eq!(i.intern("387410"), a);
/// assert_eq!(i.resolve(a), "387410");
/// assert_eq!(i.len(), 2);
/// ```
#[derive(Debug, Default, Clone)]
pub struct StrInterner {
    /// Interned strings, indexed by `Symbol`.
    strings: Vec<Box<str>>,
    /// Open-addressing index into `strings` (`u32::MAX` = empty slot).
    slots: Box<[u32]>,
}

const INTERN_EMPTY: u32 = u32::MAX;

impl StrInterner {
    /// An empty interner.
    pub fn new() -> StrInterner {
        StrInterner::default()
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True before anything is interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Interns a string, returning its stable symbol. Only the first
    /// occurrence of a given string allocates.
    pub fn intern(&mut self, s: &str) -> Symbol {
        if !self.slots.is_empty() {
            let mask = self.slots.len() - 1;
            let mut idx = fx_hash(s) as usize & mask;
            loop {
                let slot = self.slots[idx];
                if slot == INTERN_EMPTY {
                    break;
                }
                if &*self.strings[slot as usize] == s {
                    return Symbol(slot);
                }
                idx = (idx + 1) & mask;
            }
        }
        let sym = u32::try_from(self.strings.len()).expect("interner overflow");
        self.strings.push(s.into());
        if (self.strings.len() + 1) * 4 > self.slots.len() * 3 {
            self.rebuild(slot_count_for(self.strings.len() + 1));
        } else {
            self.place(sym);
        }
        Symbol(sym)
    }

    /// Returns the interned text for a symbol.
    ///
    /// # Panics
    /// Panics when the symbol came from a different interner (id out of
    /// range).
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.strings[sym.0 as usize]
    }

    /// Looks up a string without interning it.
    pub fn lookup(&self, s: &str) -> Option<Symbol> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut idx = fx_hash(s) as usize & mask;
        loop {
            let slot = self.slots[idx];
            if slot == INTERN_EMPTY {
                return None;
            }
            if &*self.strings[slot as usize] == s {
                return Some(Symbol(slot));
            }
            idx = (idx + 1) & mask;
        }
    }

    fn place(&mut self, sym: u32) {
        let mask = self.slots.len() - 1;
        let mut idx = fx_hash(&*self.strings[sym as usize]) as usize & mask;
        while self.slots[idx] != INTERN_EMPTY {
            idx = (idx + 1) & mask;
        }
        self.slots[idx] = sym;
    }

    fn rebuild(&mut self, n: usize) {
        self.slots = vec![INTERN_EMPTY; n].into_boxed_slice();
        for sym in 0..self.strings.len() as u32 {
            self.place(sym);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_vec_basics() {
        let mut v: InlineVec<u8, 2> = InlineVec::new();
        assert!(v.is_empty());
        v.push(1);
        v.push(2);
        assert!(!v.spilled());
        v.push(3); // spill boundary
        assert!(v.spilled());
        assert_eq!(v.as_slice(), &[1, 2, 3]);
        assert_eq!(v.remove(1), 2);
        assert_eq!(v.pop(), Some(3));
        assert_eq!(v.pop(), Some(1));
        assert_eq!(v.pop(), None);
    }

    #[test]
    fn inline_vec_from_and_eq() {
        let v: InlineVec<u32, 4> = vec![1, 2, 3].into();
        assert!(!v.spilled());
        assert_eq!(v, vec![1, 2, 3]);
        let big: InlineVec<u32, 2> = vec![1, 2, 3].into();
        assert!(big.spilled());
        assert_eq!(big, vec![1, 2, 3]);
        assert_eq!(v.first(), Some(&1));
        assert_eq!((&v).into_iter().copied().sum::<u32>(), 6);
        assert_eq!(v.into_vec(), vec![1, 2, 3]);
    }

    #[test]
    fn inline_vec_drops_inline_elements() {
        use std::rc::Rc;
        let x = Rc::new(5);
        {
            let mut v: InlineVec<Rc<u32>, 4> = InlineVec::new();
            v.push(x.clone());
            v.push(x.clone());
            assert_eq!(Rc::strong_count(&x), 3);
            v.clear();
            assert_eq!(Rc::strong_count(&x), 1);
            v.push(x.clone());
        }
        assert_eq!(Rc::strong_count(&x), 1);
    }

    #[test]
    fn inline_vec_serde_matches_vec() {
        let v: InlineVec<u32, 2> = vec![5, 6, 7].into();
        assert_eq!(v.to_value(), vec![5u32, 6, 7].to_value());
        let back = InlineVec::<u32, 2>::from_value(&v.to_value()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn fxmap_insert_get_grow() {
        let mut m: FxMap<u32, u64> = FxMap::new();
        for i in 0..1000u32 {
            m.insert(i, u64::from(i) * 2);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u32 {
            assert_eq!(m.get(&i), Some(&(u64::from(i) * 2)));
        }
        assert_eq!(m.get(&1000), None);
        assert_eq!(m.insert(5, 99), Some(10));
        assert_eq!(m[&5], 99);
    }

    #[test]
    fn fxmap_entry_api() {
        let mut m: FxMap<u32, u64> = FxMap::new();
        *m.entry(7).or_insert(0) += 1;
        *m.entry(7).or_insert(0) += 1;
        *m.entry(8).or_default() += 5;
        assert_eq!(m[&7], 2);
        assert_eq!(m[&8], 5);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn fxmap_clear_keeps_capacity_and_refills() {
        let mut m: FxMap<u32, u64> = FxMap::new();
        for i in 0..100u32 {
            m.insert(i, u64::from(i));
        }
        let slots_before = m.slots.len();
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.slots.len(), slots_before, "clear must keep the slots");
        assert_eq!(m.get(&5), None);
        for i in 0..100u32 {
            m.insert(i, u64::from(i) + 1);
        }
        assert_eq!(m.slots.len(), slots_before, "refill must not regrow");
        assert_eq!(m[&5], 6);
        for v in m.values_mut() {
            *v *= 2;
        }
        assert_eq!(m[&5], 12);
    }

    #[test]
    fn fxmap_eq_is_order_independent() {
        let mut a: FxMap<u32, u64> = FxMap::new();
        let mut b: FxMap<u32, u64> = FxMap::new();
        for i in 0..50 {
            a.insert(i, u64::from(i));
        }
        for i in (0..50).rev() {
            b.insert(i, u64::from(i));
        }
        assert_eq!(a, b);
        b.insert(99, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn fxmap_serializes_sorted_like_btreemap() {
        let mut fx: FxMap<u32, u64> = FxMap::new();
        let mut bt: std::collections::BTreeMap<u32, u64> = Default::default();
        for &(k, v) in &[(40u32, 1u64), (2, 2), (900, 3), (17, 4)] {
            fx.insert(k, v);
            bt.insert(k, v);
        }
        assert_eq!(fx.to_value(), bt.to_value());
        let back = FxMap::<u32, u64>::from_value(&fx.to_value()).unwrap();
        assert_eq!(back, fx);
    }

    #[test]
    fn interner_roundtrips_and_dedups() {
        let mut i = StrInterner::new();
        let syms: Vec<Symbol> = (0..100).map(|n| i.intern(&format!("s{n}"))).collect();
        assert_eq!(i.len(), 100);
        for (n, sym) in syms.iter().enumerate() {
            assert_eq!(i.resolve(*sym), format!("s{n}"));
            assert_eq!(i.intern(&format!("s{n}")), *sym);
        }
        assert_eq!(i.lookup("s42"), Some(syms[42]));
        assert_eq!(i.lookup("absent"), None);
    }
}
