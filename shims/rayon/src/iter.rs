//! Chunked parallel iterators with a *deterministic reduction order*.
//!
//! Every data-parallel operation here follows one recipe: split the
//! index space `0..len` into [`chunk_count`]`(len)` contiguous chunks
//! whose boundaries are a **pure function of `len`** (never of the
//! thread count), execute chunks on the pool via
//! `pool::run_batch`, and merge per-chunk results **in chunk
//! order**. Because neither the chunk structure nor the merge order can
//! observe scheduling, every terminal operation — `collect`, `reduce`,
//! `try_reduce`, `sum`, `par_sort_unstable` — returns *bit-identical*
//! results at any `SPSEP_THREADS`, including non-associative-in-
//! floating-point folds. That determinism contract is what the
//! differential test layer in `spsep-testkit` pins down.
//!
//! The design is index-based rather than splitter-based (as real rayon
//! is): a producer exposes `(len, item(i))` and adaptors compose on
//! top. This covers the API subset the workspace uses with far less
//! machinery, while keeping real multi-threaded execution.

use std::cell::UnsafeCell;
use std::marker::PhantomData;

use crate::pool;

/// Upper bound on chunks per parallel region. More chunks than threads
/// keeps the claim loop load-balanced (work stealing at chunk grain);
/// a constant bound keeps per-region overhead O(1).
pub const TARGET_CHUNKS: usize = 64;

/// Number of chunks for a region over `len` items — pure in `len`.
#[inline]
pub fn chunk_count(len: usize) -> usize {
    len.min(TARGET_CHUNKS)
}

/// Half-open bounds of chunk `c` of `nc` over `len` items — pure in
/// `(len, nc, c)`, exhaustive and non-overlapping.
#[inline]
pub fn chunk_bounds(len: usize, nc: usize, c: usize) -> (usize, usize) {
    let lo = (len as u128 * c as u128 / nc as u128) as usize;
    let hi = (len as u128 * (c + 1) as u128 / nc as u128) as usize;
    (lo, hi)
}

/// One write-once slot per chunk; chunk `c` writes slot `c`, the caller
/// reads them all only after the batch completed. This is how ordered
/// merges receive out-of-order execution.
struct Slots<T> {
    slots: Vec<UnsafeCell<Option<T>>>,
}

// SAFETY: slot `c` is written by exactly one chunk execution (chunk
// indices are claimed uniquely) and read only after `run_batch`
// returned, which synchronizes-with every chunk completion.
unsafe impl<T: Send> Sync for Slots<T> {}

impl<T: Send> Slots<T> {
    fn new(n: usize) -> Self {
        Slots {
            slots: (0..n).map(|_| UnsafeCell::new(None)).collect(),
        }
    }

    /// SAFETY: caller guarantees exclusive access to slot `c`.
    unsafe fn put(&self, c: usize, value: T) {
        unsafe { *self.slots[c].get() = Some(value) };
    }

    fn into_ordered(self) -> Vec<T> {
        self.slots
            .into_iter()
            .map(|cell| {
                cell.into_inner()
                    .expect("completed batch filled every slot")
            })
            .collect()
    }
}

/// Run `f(lo, hi)` over every chunk of `0..len` on the pool and return
/// the per-chunk results **in chunk order**.
fn run_chunked<R, F>(len: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, usize) -> R + Sync,
{
    let nc = chunk_count(len);
    if nc == 0 {
        return Vec::new();
    }
    let slots = Slots::new(nc);
    let body = |c: usize| {
        let (lo, hi) = chunk_bounds(len, nc, c);
        // SAFETY: chunk `c` runs at most once per batch.
        unsafe { slots.put(c, f(lo, hi)) };
    };
    pool::run_batch(nc, &body);
    slots.into_ordered()
}

/// The shim's parallel iterator: an indexed producer plus composable
/// adaptors. `pi_len`/`pi_item` are the producer contract; everything
/// else has a default chunked implementation.
pub trait ParallelIterator: Sized + Send + Sync {
    /// Items crossing chunk boundaries must be sendable.
    type Item: Send;

    /// Number of underlying positions (pre-filtering).
    fn pi_len(&self) -> usize;

    /// Produce the item at `index`, or `None` if filtered out.
    ///
    /// # Safety
    /// Each `index` must be accessed at most once across all threads per
    /// traversal — mutable producers hand out `&mut` per position.
    unsafe fn pi_item(&self, index: usize) -> Option<Self::Item>;

    /// Map each item through `f`.
    fn map<F, R>(self, f: F) -> Map<Self, F>
    where
        F: Fn(Self::Item) -> R + Send + Sync,
        R: Send,
    {
        Map { base: self, f }
    }

    /// Map-and-filter each item through `f`.
    fn filter_map<F, R>(self, f: F) -> FilterMap<Self, F>
    where
        F: Fn(Self::Item) -> Option<R> + Send + Sync,
        R: Send,
    {
        FilterMap { base: self, f }
    }

    /// Pair each item with its producer index.
    fn enumerate(self) -> Enumerate<Self> {
        Enumerate { base: self }
    }

    /// Consume every item with `f`, in parallel.
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Send + Sync,
    {
        let len = self.pi_len();
        let nc = chunk_count(len);
        if nc == 0 {
            return;
        }
        let body = |c: usize| {
            let (lo, hi) = chunk_bounds(len, nc, c);
            for i in lo..hi {
                // SAFETY: chunks are disjoint and claimed uniquely.
                if let Some(item) = unsafe { self.pi_item(i) } {
                    f(item);
                }
            }
        };
        pool::run_batch(nc, &body);
    }

    /// Collect into anything buildable from a `Vec` (in practice:
    /// `Vec<Item>`), preserving producer order.
    fn collect<C>(self) -> C
    where
        C: From<Vec<Self::Item>>,
    {
        let len = self.pi_len();
        let chunks = run_chunked(len, |lo, hi| {
            let mut out = Vec::with_capacity(hi - lo);
            for i in lo..hi {
                // SAFETY: chunks are disjoint and claimed uniquely.
                if let Some(item) = unsafe { self.pi_item(i) } {
                    out.push(item);
                }
            }
            out
        });
        let mut out = Vec::with_capacity(len);
        for chunk in chunks {
            out.extend(chunk);
        }
        C::from(out)
    }

    /// Fold with `identity`/`op`, merging chunk results in chunk order —
    /// deterministic even for non-associative (floating-point) ops.
    fn reduce<ID, OP>(self, identity: ID, op: OP) -> Self::Item
    where
        ID: Fn() -> Self::Item + Send + Sync,
        OP: Fn(Self::Item, Self::Item) -> Self::Item + Send + Sync,
    {
        let len = self.pi_len();
        let chunks = run_chunked(len, |lo, hi| {
            let mut acc = identity();
            for i in lo..hi {
                // SAFETY: chunks are disjoint and claimed uniquely.
                if let Some(item) = unsafe { self.pi_item(i) } {
                    acc = op(acc, item);
                }
            }
            acc
        });
        let mut acc = identity();
        for chunk in chunks {
            acc = op(acc, chunk);
        }
        acc
    }

    /// Sum of all items; chunk partial sums merged in chunk order.
    fn sum<S>(self) -> S
    where
        S: Send + std::iter::Sum<Self::Item> + std::iter::Sum<S>,
    {
        let len = self.pi_len();
        let chunks = run_chunked(len, |lo, hi| {
            (lo..hi)
                // SAFETY: chunks are disjoint and claimed uniquely.
                .filter_map(|i| unsafe { self.pi_item(i) })
                .sum::<S>()
        });
        chunks.into_iter().sum()
    }
}

/// Fallible reduction over iterators of `Result`s, mirroring rayon's
/// `try_reduce`. The returned `Err` is the one at the smallest item
/// index (chunk-ordered merge), matching a sequential left fold.
pub trait TryReduceExt<T, E>: ParallelIterator<Item = Result<T, E>>
where
    T: Send,
    E: Send,
{
    /// Reduce `Ok` items with `op`; `identity` seeds each accumulator.
    fn try_reduce<ID, OP>(self, identity: ID, op: OP) -> Result<T, E>
    where
        ID: Fn() -> T + Send + Sync,
        OP: Fn(T, T) -> Result<T, E> + Send + Sync,
    {
        let len = self.pi_len();
        let chunks = run_chunked(len, |lo, hi| -> Result<T, E> {
            let mut acc = identity();
            for i in lo..hi {
                // SAFETY: chunks are disjoint and claimed uniquely.
                if let Some(item) = unsafe { self.pi_item(i) } {
                    acc = op(acc, item?)?;
                }
            }
            Ok(acc)
        });
        let mut acc = identity();
        for chunk in chunks {
            acc = op(acc, chunk?)?;
        }
        Ok(acc)
    }
}

impl<P, T, E> TryReduceExt<T, E> for P
where
    P: ParallelIterator<Item = Result<T, E>>,
    T: Send,
    E: Send,
{
}

// ---------------------------------------------------------------------
// Adaptors
// ---------------------------------------------------------------------

/// See [`ParallelIterator::map`].
pub struct Map<P, F> {
    base: P,
    f: F,
}

impl<P, F, R> ParallelIterator for Map<P, F>
where
    P: ParallelIterator,
    F: Fn(P::Item) -> R + Send + Sync,
    R: Send,
{
    type Item = R;

    fn pi_len(&self) -> usize {
        self.base.pi_len()
    }

    unsafe fn pi_item(&self, index: usize) -> Option<R> {
        // SAFETY: forwarded contract.
        unsafe { self.base.pi_item(index) }.map(&self.f)
    }
}

/// See [`ParallelIterator::filter_map`].
pub struct FilterMap<P, F> {
    base: P,
    f: F,
}

impl<P, F, R> ParallelIterator for FilterMap<P, F>
where
    P: ParallelIterator,
    F: Fn(P::Item) -> Option<R> + Send + Sync,
    R: Send,
{
    type Item = R;

    fn pi_len(&self) -> usize {
        self.base.pi_len()
    }

    unsafe fn pi_item(&self, index: usize) -> Option<R> {
        // SAFETY: forwarded contract.
        unsafe { self.base.pi_item(index) }.and_then(&self.f)
    }
}

/// See [`ParallelIterator::enumerate`]. Indices are *producer* indices,
/// which for the indexed producers below (slices, ranges, chunks) match
/// rayon's `enumerate` exactly.
pub struct Enumerate<P> {
    base: P,
}

impl<P> ParallelIterator for Enumerate<P>
where
    P: ParallelIterator,
{
    type Item = (usize, P::Item);

    fn pi_len(&self) -> usize {
        self.base.pi_len()
    }

    unsafe fn pi_item(&self, index: usize) -> Option<(usize, P::Item)> {
        // SAFETY: forwarded contract.
        unsafe { self.base.pi_item(index) }.map(|item| (index, item))
    }
}

// ---------------------------------------------------------------------
// Producers
// ---------------------------------------------------------------------

/// Raw pointer that may cross threads; exclusivity of each reachable
/// element is guaranteed by the chunking protocol, not the type.
struct SendPtr<T>(*mut T);

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

// SAFETY: see type-level comment; T itself must be sendable.
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Parallel shared-slice iterator (`par_iter`).
pub struct Iter<'a, T: Sync> {
    slice: &'a [T],
}

impl<'a, T: Sync> ParallelIterator for Iter<'a, T> {
    type Item = &'a T;

    fn pi_len(&self) -> usize {
        self.slice.len()
    }

    unsafe fn pi_item(&self, index: usize) -> Option<&'a T> {
        Some(&self.slice[index])
    }
}

/// Parallel exclusive-slice iterator (`par_iter_mut`).
pub struct IterMut<'a, T: Send> {
    ptr: SendPtr<T>,
    len: usize,
    // fn-pointer marker: borrows the slice for 'a without making the
    // iterator !Sync (exclusivity comes from the indexing protocol).
    _marker: PhantomData<fn(&'a ()) -> &'a mut T>,
}

impl<'a, T: Send> ParallelIterator for IterMut<'a, T> {
    type Item = &'a mut T;

    fn pi_len(&self) -> usize {
        self.len
    }

    unsafe fn pi_item(&self, index: usize) -> Option<&'a mut T> {
        assert!(index < self.len);
        // SAFETY: each index is visited at most once per traversal
        // (trait contract), so the &mut references never alias.
        Some(unsafe { &mut *self.ptr.0.add(index) })
    }
}

/// Parallel chunked shared view (`par_chunks`).
pub struct Chunks<'a, T: Sync> {
    slice: &'a [T],
    size: usize,
}

impl<'a, T: Sync> ParallelIterator for Chunks<'a, T> {
    type Item = &'a [T];

    fn pi_len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }

    unsafe fn pi_item(&self, index: usize) -> Option<&'a [T]> {
        let lo = index * self.size;
        let hi = (lo + self.size).min(self.slice.len());
        Some(&self.slice[lo..hi])
    }
}

/// Parallel chunked exclusive view (`par_chunks_mut`).
pub struct ChunksMut<'a, T: Send> {
    ptr: SendPtr<T>,
    len: usize,
    size: usize,
    _marker: PhantomData<fn(&'a ()) -> &'a mut T>,
}

impl<'a, T: Send> ParallelIterator for ChunksMut<'a, T> {
    type Item = &'a mut [T];

    fn pi_len(&self) -> usize {
        self.len.div_ceil(self.size)
    }

    unsafe fn pi_item(&self, index: usize) -> Option<&'a mut [T]> {
        let lo = index * self.size;
        let hi = (lo + self.size).min(self.len);
        assert!(lo < hi || (lo == 0 && hi == 0));
        // SAFETY: chunk windows are disjoint and each index is visited
        // at most once per traversal (trait contract).
        Some(unsafe { std::slice::from_raw_parts_mut(self.ptr.0.add(lo), hi - lo) })
    }
}

/// Parallel integer-range iterator (`(a..b).into_par_iter()`).
pub struct RangeIter<T> {
    start: T,
    len: usize,
}

macro_rules! int_range_producers {
    ($($t:ty),*) => {$(
        impl ParallelIterator for RangeIter<$t> {
            type Item = $t;

            fn pi_len(&self) -> usize {
                self.len
            }

            unsafe fn pi_item(&self, index: usize) -> Option<$t> {
                debug_assert!(index < self.len);
                Some(self.start + index as $t)
            }
        }

        impl IntoParallelIterator for std::ops::Range<$t> {
            type Item = $t;
            type Iter = RangeIter<$t>;

            fn into_par_iter(self) -> RangeIter<$t> {
                let len = if self.end > self.start {
                    usize::try_from(self.end - self.start)
                        .expect("parallel range length overflows usize")
                } else {
                    0
                };
                RangeIter { start: self.start, len }
            }
        }
    )*};
}

int_range_producers!(usize, u32, u64, i32, i64);

// ---------------------------------------------------------------------
// Entry-point traits (the `prelude` surface)
// ---------------------------------------------------------------------

/// Mirror of `rayon::iter::IntoParallelIterator`.
pub trait IntoParallelIterator {
    /// Item type.
    type Item: Send;
    /// Concrete parallel iterator.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Consume `self` into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

/// Mirror of `rayon::iter::IntoParallelRefIterator` (`.par_iter()`).
/// Implemented for `[T]`; `Vec` callers arrive via auto-deref.
pub trait IntoParallelRefIterator<'a> {
    /// Item type.
    type Item: Send + 'a;
    /// Concrete parallel iterator.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Iterate `&self` in parallel.
    fn par_iter(&'a self) -> Self::Iter;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    type Iter = Iter<'a, T>;

    fn par_iter(&'a self) -> Iter<'a, T> {
        Iter { slice: self }
    }
}

/// Mirror of `rayon::iter::IntoParallelRefMutIterator`
/// (`.par_iter_mut()`). Implemented for `[T]`.
pub trait IntoParallelRefMutIterator<'a> {
    /// Item type.
    type Item: Send + 'a;
    /// Concrete parallel iterator.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Iterate `&mut self` in parallel.
    fn par_iter_mut(&'a mut self) -> Self::Iter;
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for [T] {
    type Item = &'a mut T;
    type Iter = IterMut<'a, T>;

    fn par_iter_mut(&'a mut self) -> IterMut<'a, T> {
        IterMut {
            ptr: SendPtr(self.as_mut_ptr()),
            len: self.len(),
            _marker: PhantomData,
        }
    }
}

/// Mirror of `rayon::slice::ParallelSlice`.
pub trait ParallelSlice<T: Sync> {
    /// Shared chunks of at most `chunk_size` elements.
    fn par_chunks(&self, chunk_size: usize) -> Chunks<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, chunk_size: usize) -> Chunks<'_, T> {
        assert!(chunk_size > 0, "chunk_size must be positive");
        Chunks {
            slice: self,
            size: chunk_size,
        }
    }
}

/// Below this length `par_sort_unstable` defers entirely to
/// `slice::sort_unstable` — chunked sort + merge cannot win on inputs
/// this small.
pub const SORT_SEQ_CUTOFF: usize = 4096;

/// Fixed fan-in of the parallel sort: chunk boundaries (and therefore
/// the exact comparison sequence of the merge) depend only on `len`.
const SORT_CHUNKS: usize = 8;

/// Mirror of `rayon::slice::ParallelSliceMut`.
pub trait ParallelSliceMut<T: Send> {
    /// Exclusive chunks of at most `chunk_size` elements.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ChunksMut<'_, T>;

    /// Unstable parallel sort: fixed chunks sorted on the pool, then a
    /// sequential ordered k-way merge (ties to the lowest chunk), so
    /// the output permutation is thread-count independent.
    fn par_sort_unstable(&mut self)
    where
        T: Ord;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ChunksMut<'_, T> {
        assert!(chunk_size > 0, "chunk_size must be positive");
        ChunksMut {
            ptr: SendPtr(self.as_mut_ptr()),
            len: self.len(),
            size: chunk_size,
            _marker: PhantomData,
        }
    }

    fn par_sort_unstable(&mut self)
    where
        T: Ord,
    {
        let len = self.len();
        if len < SORT_SEQ_CUTOFF {
            self.sort_unstable();
            return;
        }
        let nc = SORT_CHUNKS;
        let ptr = SendPtr(self.as_mut_ptr());
        let body = move |c: usize| {
            // Rebind the whole `SendPtr` so the closure captures it (and
            // its Sync impl) instead of disjointly capturing the
            // non-Sync `*mut T` field.
            let base = ptr;
            let (lo, hi) = chunk_bounds(len, nc, c);
            // SAFETY: chunk windows are disjoint; each chunk index runs
            // at most once per batch.
            unsafe { std::slice::from_raw_parts_mut(base.0.add(lo), hi - lo) }.sort_unstable();
        };
        pool::run_batch(nc, &body);

        // K-way merge into scratch. `scratch` is kept at len 0 and
        // written through raw pointers only: if a comparator panics
        // mid-merge the original slice still owns every element and the
        // scratch buffer frees without running any drops — no element
        // is ever dropped twice.
        let mut scratch: Vec<T> = Vec::with_capacity(len);
        let dst = scratch.as_mut_ptr();
        let mut cursor: Vec<(usize, usize)> = (0..nc).map(|c| chunk_bounds(len, nc, c)).collect();
        for out in 0..len {
            let mut best: Option<usize> = None;
            for (c, &(lo, hi)) in cursor.iter().enumerate() {
                if lo < hi && best.is_none_or(|b| self[lo] < self[cursor[b].0]) {
                    best = Some(c);
                }
            }
            let b = best.expect("merge exhausted chunks early");
            let lo = cursor[b].0;
            // SAFETY: `out < len <= capacity`; source index in bounds.
            unsafe { std::ptr::copy_nonoverlapping(self.as_ptr().add(lo), dst.add(out), 1) };
            cursor[b].0 += 1;
        }
        // SAFETY: scratch[..len] fully initialized above.
        unsafe { std::ptr::copy_nonoverlapping(dst, self.as_mut_ptr(), len) };
    }
}
