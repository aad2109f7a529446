//! Allocation-discipline primitives for the hot analysis path.
//!
//! The parse → extract → detect pipeline runs millions of events per
//! campaign; this module holds the two small primitives that keep that
//! path off the heap and off the slow hasher:
//!
//! * [`InlineVec`] — a small-vector storing up to `N` elements inline and
//!   spilling to a `Vec` beyond that. Reconfiguration add/release lists and
//!   measurement-report rows are almost always tiny (≤4 cells in practice),
//!   so cloning a record into the classifier's evidence window stops
//!   allocating.
//! * [`FxMap`] — `std`'s `HashMap` under rustc's FxHash ([`FxHasher`]) for
//!   hot counters and per-cell tables (channel usage histograms, campaign
//!   aggregation shards, the scorer's last-RSRP table). The hasher is what
//!   buys the speed over `HashMap`'s default SipHash; the serde shim
//!   serializes any `HashMap` as a key-sorted object, exactly like
//!   `BTreeMap`, so persisted output stays bitwise identical at any worker
//!   count.
//!
//! `onoff-rrc` sits at the bottom of the workspace graph, so these types
//! live here, where every layer above can reach them (downstream users
//! through `fiveg_onoff::rrc::perf`).

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
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

    /// An empty vector with room for `n` elements: inline when they fit,
    /// otherwise one heap buffer of exactly `n`, so pushing them never
    /// regrows it.
    pub fn with_capacity(n: usize) -> InlineVec<T, N> {
        if n <= N {
            InlineVec::new()
        } else {
            InlineVec {
                repr: Repr::Heap(Vec::with_capacity(n)),
            }
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

    /// Heap bytes the vector owns: its spilled buffer's capacity, or 0
    /// while the elements sit inline.
    pub fn heap_bytes(&self) -> usize {
        match &self.repr {
            Repr::Inline { .. } => 0,
            Repr::Heap(v) => v.capacity() * std::mem::size_of::<T>(),
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
// FxHasher / FxMap
// ---------------------------------------------------------------------------

/// The FxHash multiplication constant (from rustc's hasher).
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// rustc's FxHash: fold words into the state with rotate–xor–multiply.
/// Not collision-resistant against adversaries: these maps key on
/// internal values (channel numbers, enum tags, operators, cells) and, in
/// the store encoder's dictionaries, on a trace's cells and trigger
/// labels, where crafted collisions could only slow encoding down.
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

/// `std`'s `HashMap` hashed with [`FxHasher`], for hot-path counters and
/// tables. Build one with `FxMap::default()`. Iteration order is
/// unspecified, so every caller either folds order-independently (sums,
/// maxima) or sorts; serialization sorts keys (through the BTree-backed
/// JSON object), so output is byte-identical to a `BTreeMap`'s regardless
/// of insertion order — the workers-invariance property the campaign
/// relies on.
///
/// ```
/// use onoff_rrc::perf::FxMap;
///
/// let mut m: FxMap<u32, u64> = FxMap::default();
/// *m.entry(387410).or_insert(0) += 1;
/// *m.entry(387410).or_insert(0) += 1;
/// assert_eq!(m.get(&387410), Some(&2));
/// assert_eq!(m.len(), 1);
/// ```
pub type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

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
    fn fxmap_serializes_sorted_like_btreemap() {
        let mut fx: FxMap<u32, u64> = FxMap::default();
        let mut bt: std::collections::BTreeMap<u32, u64> = Default::default();
        for &(k, v) in &[(40u32, 1u64), (2, 2), (900, 3), (17, 4)] {
            fx.insert(k, v);
            bt.insert(k, v);
        }
        assert_eq!(fx.to_value(), bt.to_value());
        let back = FxMap::<u32, u64>::from_value(&fx.to_value()).unwrap();
        assert_eq!(back, fx);
    }
}
