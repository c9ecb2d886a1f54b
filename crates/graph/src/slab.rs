//! Zero-copy typed slabs over aligned byte buffers (the mmap substrate).
//!
//! The `spsep-oracle/v2` snapshot format stores the oracle's flat CSR
//! arrays as aligned little-endian sections that can be *borrowed*
//! straight out of a memory-mapped file instead of decoded element by
//! element. This module provides the three layers that make that sound:
//!
//! * [`SlabBytes`] — an immutable byte buffer whose base address is
//!   guaranteed 8-aligned: either an owned copy (backed by a `Vec<u64>`)
//!   or a read-only memory mapping of a file ([`SlabBytes::map_file`]).
//! * [`Slab<T>`] — a typed, bounds- and alignment-checked view of a
//!   byte range of a shared [`SlabBytes`], exposing `&[T]` for
//!   plain-old-data element types ([`Pod`]).
//! * [`Store<T>`] — either a plain `Vec<T>` or a [`Slab<T>`], behind
//!   `Deref<Target = [T]>`, so data structures like
//!   [`DiGraph`](crate::DiGraph) can be backed by a snapshot without
//!   changing any call-site that reads them as slices.
//!
//! # Safety design
//!
//! All `unsafe` in the mmap/borrow path lives in this module, which is
//! compiled under `deny(unsafe_op_in_unsafe_fn)`. The invariants:
//!
//! * a [`SlabBytes`] base pointer is always 8-aligned and non-null
//!   (a `Vec<u64>` allocation, or a page-aligned mapping);
//! * the buffer is immutable for the lifetime of the value — no `&mut`
//!   access exists anywhere, and mapped files use `PROT_READ`;
//! * [`Slab::new`] is the only constructor and re-checks, with typed
//!   [`SpsepError`]s (never panics), that the requested byte range is
//!   in bounds and that its offset is a multiple of the element
//!   alignment, so the later `&[T]` reborrow in `Slab::as_slice` needs
//!   no per-call validation;
//! * [`Pod`] element types guarantee every bit pattern is a valid value
//!   and that the type has no padding, so reading them out of an
//!   attacker-controlled file can produce *wrong* values but never
//!   undefined behavior. Semantic validation (index ranges, NaN
//!   checks, monotone offsets) is the snapshot reader's job.
//!
//! The one hazard that cannot be checked in-process: if another process
//! truncates a file while it is mapped, touching the vanished pages
//! raises `SIGBUS` (standard mmap semantics, shared with every mmap
//! consumer). Snapshot files are written once and then immutable by
//! convention; the daemon documents this operational invariant.

use std::fmt;
use std::fs::File;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use crate::digraph::Edge;
use crate::error::SpsepError;

/// Cache-line alignment of [`AlignedVec`] allocations: one x86 cache
/// line, and the natural alignment of an AVX-512 register, so every
/// matrix row that starts at a multiple of 8 elements begins on an
/// aligned line.
pub const CACHE_LINE: usize = 64;

/// A growable buffer of `Copy` elements whose base address is always
/// [`CACHE_LINE`]-aligned (64 bytes).
///
/// [`SlabBytes`] gives snapshot readers an 8-aligned substrate; this is
/// the write-side counterpart for the dense kernels: `SemiMatrix` routes
/// its row storage through it so SIMD loads start from cache-line-aligned
/// rows and a row tile never straddles an extra line. The API is the
/// subset of `Vec` the kernels use (`clear`/`resize`/`capacity` plus
/// slice access through `Deref`); elements must be `Copy`, so there are
/// no drop obligations.
pub struct AlignedVec<T: Copy> {
    ptr: std::ptr::NonNull<T>,
    cap: usize,
    len: usize,
}

// SAFETY: AlignedVec owns its allocation exclusively (no aliasing); it
// is a Vec with a stricter alignment, so Send/Sync follow T's.
unsafe impl<T: Copy + Send> Send for AlignedVec<T> {}
// SAFETY: see above.
unsafe impl<T: Copy + Sync> Sync for AlignedVec<T> {}

impl<T: Copy> AlignedVec<T> {
    /// Empty buffer; allocates nothing until the first `resize`.
    pub const fn new() -> Self {
        AlignedVec {
            ptr: std::ptr::NonNull::dangling(),
            cap: 0,
            len: 0,
        }
    }

    fn layout(cap: usize) -> std::alloc::Layout {
        let bytes = cap
            .checked_mul(std::mem::size_of::<T>())
            .unwrap_or_else(|| panic!("AlignedVec capacity overflow: {cap} elements"));
        match std::alloc::Layout::from_size_align(bytes, CACHE_LINE.max(std::mem::align_of::<T>()))
        {
            Ok(l) => l,
            // 64 is a power of two and the size was overflow-checked.
            Err(_) => unreachable!("valid AlignedVec layout"),
        }
    }

    /// Grow the allocation to hold at least `min_cap` elements,
    /// preserving the first `len` elements. No-op when already large
    /// enough.
    fn grow_to(&mut self, min_cap: usize) {
        if min_cap <= self.cap || std::mem::size_of::<T>() == 0 {
            return;
        }
        let new_cap = min_cap.max(self.cap * 2);
        let new_layout = Self::layout(new_cap);
        // SAFETY: layout has non-zero size (size_of::<T> > 0 and
        // new_cap >= min_cap > cap >= 0, so new_cap >= 1).
        let raw = unsafe { std::alloc::alloc(new_layout) };
        let Some(new_ptr) = std::ptr::NonNull::new(raw.cast::<T>()) else {
            std::alloc::handle_alloc_error(new_layout);
        };
        if self.cap > 0 {
            // SAFETY: both pointers are valid for `len <= cap <= new_cap`
            // elements and belong to distinct allocations.
            unsafe {
                std::ptr::copy_nonoverlapping(self.ptr.as_ptr(), new_ptr.as_ptr(), self.len);
                std::alloc::dealloc(self.ptr.as_ptr().cast::<u8>(), Self::layout(self.cap));
            }
        }
        self.ptr = new_ptr;
        self.cap = new_cap;
    }

    /// Number of live elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Allocated capacity in elements.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Drop all elements (keeps the allocation).
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Resize to `n` elements, filling any new tail slots with `value`.
    pub fn resize(&mut self, n: usize, value: T) {
        self.grow_to(n);
        if n > self.len {
            // SAFETY: `grow_to` guaranteed capacity >= n; slots
            // `len..n` are in bounds of the allocation.
            unsafe {
                for i in self.len..n {
                    self.ptr.as_ptr().add(i).write(value);
                }
            }
        }
        self.len = n;
    }

    /// Fresh buffer holding a copy of `src`.
    pub fn from_slice(src: &[T]) -> Self {
        let mut v = AlignedVec::new();
        v.grow_to(src.len());
        if !src.is_empty() {
            // SAFETY: capacity >= src.len(), distinct allocations.
            unsafe {
                std::ptr::copy_nonoverlapping(src.as_ptr(), v.ptr.as_ptr(), src.len());
            }
        }
        v.len = src.len();
        v
    }

    /// The elements as a slice. The base pointer is 64-byte aligned.
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: `ptr` is valid for `len` initialized elements
        // (resize/from_slice wrote them); dangling-but-aligned when
        // len == 0, which from_raw_parts permits.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    /// The elements as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        // SAFETY: see `as_slice`; `&mut self` guarantees uniqueness.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl<T: Copy> Drop for AlignedVec<T> {
    fn drop(&mut self) {
        if self.cap > 0 && std::mem::size_of::<T>() > 0 {
            // SAFETY: the allocation was made with exactly this layout;
            // T: Copy, so no element drops are owed.
            unsafe {
                std::alloc::dealloc(self.ptr.as_ptr().cast::<u8>(), Self::layout(self.cap));
            }
        }
    }
}

impl<T: Copy> Default for AlignedVec<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy> Clone for AlignedVec<T> {
    fn clone(&self) -> Self {
        Self::from_slice(self.as_slice())
    }
}

impl<T: Copy> Deref for AlignedVec<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy> DerefMut for AlignedVec<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Copy + fmt::Debug> fmt::Debug for AlignedVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AlignedVec")
            .field("len", &self.len)
            .field("cap", &self.cap)
            .finish()
    }
}

/// Marker for plain-old-data element types that may be reinterpreted
/// from raw snapshot bytes.
///
/// # Safety
///
/// Implementors must guarantee all of:
///
/// * the type is `#[repr(C)]` (or a primitive) with **no padding
///   bytes** — `size_of::<T>()` equals the sum of the field sizes;
/// * **every** bit pattern of `size_of::<T>()` bytes is a valid value
///   (no `bool`, no references, no enums with niches);
/// * `align_of::<T>() <= 8`, so an 8-aligned [`SlabBytes`] base plus a
///   validated offset is sufficiently aligned.
pub unsafe trait Pod: Copy + 'static {}

// SAFETY: primitives have no padding, accept any bit pattern (f64 NaN
// payloads are valid *values*; rejecting NaN weights is semantic
// validation, not a soundness issue), and align to at most 8.
unsafe impl Pod for u8 {}
// SAFETY: see above.
unsafe impl Pod for u32 {}
// SAFETY: see above.
unsafe impl Pod for u64 {}
// SAFETY: see above.
unsafe impl Pod for i64 {}
// SAFETY: see above.
unsafe impl Pod for f64 {}

// SAFETY: `Edge<f64>` is #[repr(C)] { u32, u32, f64 } — offsets 0, 4, 8,
// size 16, align 8, no padding; all three fields accept any bit pattern.
unsafe impl Pod for Edge<f64> {}

/// The bytes of a slice of [`Pod`] values, in memory order. On the
/// little-endian hosts the snapshot format supports, these are exactly
/// the values' little-endian encoding, so a writer can stream a typed
/// array without serializing it element by element.
pub fn pod_bytes<T: Pod>(values: &[T]) -> &[u8] {
    // SAFETY: `T: Pod` has no padding bytes, so every byte of the slice
    // is initialized; `u8` has alignment 1 and the length is the slice's
    // own byte size, so the view covers exactly the borrowed memory.
    unsafe {
        std::slice::from_raw_parts(values.as_ptr().cast::<u8>(), std::mem::size_of_val(values))
    }
}

/// Read-only memory mapping of a file (Unix).
///
/// Declared against the raw C ABI because the build environment has no
/// crates.io access (no `libc` crate); `std` already links the platform
/// libc, so `mmap`/`munmap` resolve at link time.
#[cfg(unix)]
mod sys {
    #![allow(non_camel_case_types)]

    use std::fs::File;
    use std::io;
    use std::os::unix::io::AsRawFd;

    type c_int = i32;
    type c_void = core::ffi::c_void;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    const PROT_READ: c_int = 1;
    /// `MAP_SHARED`: all processes mapping the same snapshot file share
    /// one physical page-cache copy — the multi-daemon story of
    /// `spsep-oracle/v2`. The mapping is `PROT_READ`, so sharing is
    /// observationally identical to `MAP_PRIVATE` minus the COW
    /// bookkeeping.
    const MAP_SHARED: c_int = 1;

    /// A `PROT_READ`/`MAP_SHARED` mapping of an entire file.
    ///
    /// Invariants: `ptr` is page-aligned (hence 8-aligned), non-null,
    /// valid for reads of `len` bytes for the lifetime of the value,
    /// and never written through. `len > 0` (zero-length files take the
    /// owned path in [`super::SlabBytes`]).
    pub struct MmapFile {
        ptr: *const u8,
        len: usize,
    }

    // SAFETY: the mapping is read-only and private to this value; it is
    // never mutated, so shared references from any thread are fine.
    unsafe impl Send for MmapFile {}
    // SAFETY: see above — concurrent reads of immutable memory.
    unsafe impl Sync for MmapFile {}

    impl MmapFile {
        /// Map `len` bytes of `file` read-only. `len` must be positive
        /// and no larger than the file (enforced by the caller, which
        /// just read the metadata).
        pub fn map(file: &File, len: usize) -> io::Result<MmapFile> {
            debug_assert!(len > 0);
            // SAFETY: fd is a valid open descriptor borrowed from
            // `file`; addr=null lets the kernel pick a page-aligned
            // address; the result is checked against MAP_FAILED before
            // use.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_SHARED,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 {
                return Err(io::Error::last_os_error());
            }
            Ok(MmapFile {
                ptr: ptr as *const u8,
                len,
            })
        }

        pub fn bytes(&self) -> &[u8] {
            // SAFETY: `ptr` is non-null, 8-aligned and valid for `len`
            // read-only bytes until Drop (type invariant).
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }
    }

    impl Drop for MmapFile {
        fn drop(&mut self) {
            // SAFETY: exactly the region returned by a successful mmap;
            // no borrow of the mapping can outlive `self` (the only
            // accessor ties the slice lifetime to `&self`).
            let rc = unsafe { munmap(self.ptr as *mut c_void, self.len) };
            debug_assert_eq!(rc, 0, "munmap failed");
        }
    }
}

/// An immutable, 8-aligned byte buffer that typed [`Slab`]s borrow from.
///
/// Either an owned aligned copy of arbitrary bytes, or a read-only
/// memory mapping of a file. Both variants guarantee the same contract:
/// the base address is at least 8-aligned and the contents never change.
pub enum SlabBytes {
    /// Owned copy, stored in a `Vec<u64>` so the base address is
    /// 8-aligned; `len` is the live byte length (the final word may be
    /// zero-padded).
    Owned {
        /// 8-aligned backing storage (last word zero-padded).
        words: Vec<u64>,
        /// Live byte length (`<= words.len() * 8`).
        len: usize,
    },
    /// Read-only mapping of a snapshot file (Unix only).
    #[cfg(unix)]
    Mapped(sys::MmapFile),
}

impl SlabBytes {
    /// Copy `bytes` into an owned 8-aligned buffer.
    pub fn from_vec(bytes: Vec<u8>) -> SlabBytes {
        let len = bytes.len();
        let mut words = vec![0u64; len.div_ceil(8)];
        // SAFETY: the destination is a fresh `Vec<u64>` of at least
        // `len` bytes; `u64` has no padding or invalid bit patterns, so
        // writing raw bytes into it is sound; source and destination
        // are distinct allocations.
        unsafe {
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), words.as_mut_ptr().cast::<u8>(), len);
        }
        SlabBytes::Owned { words, len }
    }

    /// Memory-map `file` read-only (zero-length files degrade to an
    /// empty owned buffer, since `mmap` rejects length 0).
    ///
    /// On non-Unix targets this falls back to reading the file into an
    /// owned aligned buffer — same contract, no zero-copy.
    pub fn map_file(file: &File) -> std::io::Result<SlabBytes> {
        #[cfg(unix)]
        {
            let len = file.metadata()?.len();
            let len = usize::try_from(len).map_err(|_| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "file too large to map")
            })?;
            if len == 0 {
                return Ok(SlabBytes::from_vec(Vec::new()));
            }
            Ok(SlabBytes::Mapped(sys::MmapFile::map(file, len)?))
        }
        #[cfg(not(unix))]
        {
            use std::io::Read;
            let mut buf = Vec::new();
            let mut f = file;
            f.read_to_end(&mut buf)?;
            Ok(SlabBytes::from_vec(buf))
        }
    }

    /// The buffer contents. The base pointer of the returned slice is
    /// always at least 8-aligned.
    pub fn bytes(&self) -> &[u8] {
        match self {
            SlabBytes::Owned { words, len } => {
                // SAFETY: `words` owns at least `len` initialized bytes
                // (invariant of `from_vec`); a `u64` buffer may always
                // be viewed as bytes.
                unsafe { std::slice::from_raw_parts(words.as_ptr().cast::<u8>(), *len) }
            }
            #[cfg(unix)]
            SlabBytes::Mapped(m) => m.bytes(),
        }
    }

    /// Byte length of the buffer.
    pub fn len(&self) -> usize {
        match self {
            SlabBytes::Owned { len, .. } => *len,
            #[cfg(unix)]
            SlabBytes::Mapped(m) => m.bytes().len(),
        }
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when backed by a memory mapping (false for owned copies).
    pub fn is_mapped(&self) -> bool {
        match self {
            SlabBytes::Owned { .. } => false,
            #[cfg(unix)]
            SlabBytes::Mapped(_) => true,
        }
    }
}

impl fmt::Debug for SlabBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SlabBytes")
            .field("len", &self.len())
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

/// A typed view of `len` elements of `T` at byte offset `off` of a
/// shared [`SlabBytes`].
///
/// Constructed only by [`Slab::new`], which validates bounds and
/// alignment with typed errors; thereafter [`Slab::as_slice`] (and
/// `Deref`) are infallible. Cloning is O(1) (an `Arc` bump).
pub struct Slab<T> {
    bytes: Arc<SlabBytes>,
    off: usize,
    len: usize,
    _elem: PhantomData<fn() -> T>,
}

impl<T: Pod> Slab<T> {
    /// Borrow `len` elements of `T` starting at byte offset `off`.
    ///
    /// Fails with a typed [`SpsepError::Parse`] when the range is out
    /// of bounds (overflow-checked) or `off` is not a multiple of the
    /// element alignment.
    pub fn new(bytes: Arc<SlabBytes>, off: usize, len: usize) -> Result<Slab<T>, SpsepError> {
        let align = std::mem::align_of::<T>();
        debug_assert!(align <= 8, "Pod contract: align_of::<T>() <= 8");
        if !off.is_multiple_of(align) {
            return Err(SpsepError::parse(format!(
                "misaligned slab: offset {off} is not a multiple of alignment {align}"
            )));
        }
        let nbytes = len
            .checked_mul(std::mem::size_of::<T>())
            .and_then(|n| n.checked_add(off));
        match nbytes {
            Some(end) if end <= bytes.len() => Ok(Slab {
                bytes,
                off,
                len,
                _elem: PhantomData,
            }),
            _ => Err(SpsepError::parse(format!(
                "slab out of bounds: {len} elements of {} bytes at offset {off} exceed buffer of {} bytes",
                std::mem::size_of::<T>(),
                bytes.len()
            ))),
        }
    }

    /// A sub-slab over elements `start..end` of this slab (O(1), shares
    /// the backing buffer). Typed error when the range is invalid.
    pub fn subslab(&self, start: usize, end: usize) -> Result<Slab<T>, SpsepError> {
        if start > end || end > self.len {
            return Err(SpsepError::parse(format!(
                "subslab range {start}..{end} out of bounds for slab of {} elements",
                self.len
            )));
        }
        Ok(Slab {
            bytes: Arc::clone(&self.bytes),
            off: self.off + start * std::mem::size_of::<T>(),
            len: end - start,
            _elem: PhantomData,
        })
    }
}

impl<T> Slab<T> {
    /// The elements as a slice. Infallible: bounds and alignment were
    /// validated by [`Slab::new`].
    pub fn as_slice(&self) -> &[T] {
        let b = self.bytes.bytes();
        // SAFETY: `Slab::new` (the only constructor, `T: Pod` bound)
        // validated that `off..off + len * size_of::<T>()` is in bounds
        // of `b` and that `off` is a multiple of `align_of::<T>()`; the
        // `SlabBytes` base is 8-aligned >= align_of::<T>(); `Pod`
        // guarantees every bit pattern is a valid `T`; the buffer is
        // immutable, and the borrow is tied to `&self`, which keeps the
        // `Arc` (and any mapping) alive.
        unsafe { std::slice::from_raw_parts(b.as_ptr().add(self.off).cast::<T>(), self.len) }
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the slab is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<T> Clone for Slab<T> {
    fn clone(&self) -> Self {
        Slab {
            bytes: Arc::clone(&self.bytes),
            off: self.off,
            len: self.len,
            _elem: PhantomData,
        }
    }
}

impl<T> Deref for Slab<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

// Manual impl so `Slab<T>: Debug` does not demand `T: Debug` (derive
// would add that bound and poison downstream derives).
impl<T> fmt::Debug for Slab<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Slab")
            .field("off", &self.off)
            .field("len", &self.len)
            .finish()
    }
}

/// Element storage that is either an owned `Vec` or a borrowed
/// snapshot [`Slab`], behind `Deref<Target = [T]>`.
///
/// Freshly built structures use [`Store::Owned`]; structures
/// reconstituted from a `spsep-oracle/v2` snapshot use [`Store::Slab`]
/// and never copy the elements. All read paths are identical.
pub enum Store<T: Copy> {
    /// Heap-owned elements.
    Owned(Vec<T>),
    /// Borrowed from a shared (possibly memory-mapped) snapshot buffer.
    Slab(Slab<T>),
}

impl<T: Copy> Store<T> {
    /// The elements as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match self {
            Store::Owned(v) => v,
            Store::Slab(s) => s.as_slice(),
        }
    }
}

impl<T: Copy> Deref for Store<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy> From<Vec<T>> for Store<T> {
    fn from(v: Vec<T>) -> Self {
        Store::Owned(v)
    }
}

impl<T: Copy> From<Slab<T>> for Store<T> {
    fn from(s: Slab<T>) -> Self {
        Store::Slab(s)
    }
}

impl<T: Copy> Clone for Store<T> {
    fn clone(&self) -> Self {
        match self {
            Store::Owned(v) => Store::Owned(v.clone()),
            Store::Slab(s) => Store::Slab(s.clone()),
        }
    }
}

impl<T: Copy> fmt::Debug for Store<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self {
            Store::Owned(_) => "owned",
            Store::Slab(_) => "slab",
        };
        f.debug_struct("Store")
            .field("len", &self.as_slice().len())
            .field("kind", &kind)
            .finish()
    }
}

impl<T: Copy + PartialEq> PartialEq for Store<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arc(bytes: Vec<u8>) -> Arc<SlabBytes> {
        Arc::new(SlabBytes::from_vec(bytes))
    }

    #[test]
    fn aligned_vec_base_is_cache_line_aligned_across_growth() {
        let mut v = AlignedVec::<f64>::new();
        assert!(v.is_empty());
        for n in [1usize, 7, 8, 63, 64, 65, 1024] {
            v.resize(n, 1.5);
            assert_eq!(v.as_slice().as_ptr() as usize % CACHE_LINE, 0, "n={n}");
            assert_eq!(v.len(), n);
            assert!(v.capacity() >= n);
            assert!(v.iter().all(|&x| x == 1.5));
        }
    }

    #[test]
    fn aligned_vec_resize_preserves_prefix_and_fills_tail() {
        let mut v = AlignedVec::<u32>::new();
        v.resize(4, 9);
        v.as_mut_slice().copy_from_slice(&[1, 2, 3, 4]);
        v.resize(7, 0);
        assert_eq!(&v[..], &[1, 2, 3, 4, 0, 0, 0]);
        v.clear();
        assert_eq!(v.len(), 0);
        let cap = v.capacity();
        v.resize(5, 8);
        assert_eq!(v.capacity(), cap, "clear must keep the allocation");
        assert_eq!(&v[..], &[8, 8, 8, 8, 8]);
    }

    #[test]
    fn aligned_vec_clone_and_from_slice_copy_payload() {
        let v = AlignedVec::from_slice(&[0.5f64, -0.0, f64::INFINITY]);
        let c = v.clone();
        assert_eq!(c.len(), 3);
        assert_eq!(c.as_slice().as_ptr() as usize % CACHE_LINE, 0);
        for (a, b) in v.iter().zip(c.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let e = AlignedVec::<f64>::from_slice(&[]);
        assert!(e.is_empty());
        assert_eq!(e.capacity(), 0);
    }

    #[test]
    fn owned_roundtrip_preserves_bytes() {
        for n in [0usize, 1, 7, 8, 9, 64, 65] {
            let src: Vec<u8> = (0..n).map(|i| (i * 37 % 251) as u8).collect();
            let sb = SlabBytes::from_vec(src.clone());
            assert_eq!(sb.bytes(), &src[..]);
            assert_eq!(sb.len(), n);
            assert!(!sb.is_mapped());
        }
    }

    #[test]
    fn base_is_8_aligned() {
        let sb = arc(vec![1, 2, 3, 4, 5]);
        assert_eq!(sb.bytes().as_ptr() as usize % 8, 0);
    }

    #[test]
    fn u32_slab_reads_little_endian_words() {
        let mut bytes = Vec::new();
        for v in [7u32, 0, u32::MAX, 42] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let slab: Slab<u32> = Slab::new(arc(bytes), 0, 4).unwrap();
        #[cfg(target_endian = "little")]
        assert_eq!(slab.as_slice(), &[7, 0, u32::MAX, 42]);
        assert_eq!(slab.len(), 4);
    }

    #[test]
    fn misaligned_offset_is_a_typed_error() {
        let b = arc(vec![0u8; 64]);
        for off in [1usize, 2, 3, 5, 6, 7] {
            let r: Result<Slab<f64>, _> = Slab::new(Arc::clone(&b), off, 1);
            match r {
                Err(SpsepError::Parse { what, .. }) => {
                    assert!(what.contains("misaligned"), "{what}")
                }
                other => panic!("expected misaligned error at offset {off}, got {other:?}"),
            }
        }
        // 4-aligned offset is fine for u32 but not for f64.
        assert!(Slab::<u32>::new(Arc::clone(&b), 4, 1).is_ok());
        assert!(Slab::<f64>::new(Arc::clone(&b), 4, 1).is_err());
    }

    #[test]
    fn out_of_bounds_is_a_typed_error_including_overflow() {
        let b = arc(vec![0u8; 16]);
        assert!(Slab::<u64>::new(Arc::clone(&b), 0, 2).is_ok());
        assert!(Slab::<u64>::new(Arc::clone(&b), 0, 3).is_err());
        assert!(Slab::<u64>::new(Arc::clone(&b), 8, 2).is_err());
        // len * size overflows usize: must be a typed error, not a panic.
        let r = Slab::<u64>::new(Arc::clone(&b), 0, usize::MAX / 4);
        assert!(matches!(r, Err(SpsepError::Parse { .. })));
    }

    #[test]
    fn empty_slabs_are_fine() {
        let b = arc(Vec::new());
        let s: Slab<u64> = Slab::new(Arc::clone(&b), 0, 0).unwrap();
        assert!(s.as_slice().is_empty());
        assert!(s.is_empty());
        // One-past-the-end offset with zero elements is in bounds.
        let b = arc(vec![0u8; 8]);
        let s: Slab<u64> = Slab::new(b, 8, 0).unwrap();
        assert!(s.as_slice().is_empty());
    }

    #[test]
    fn edge_f64_slab_roundtrips() {
        let edges = [
            Edge::new(0, 1, 1.5),
            Edge::new(1, 2, -0.0),
            Edge::new(2, 0, f64::INFINITY),
        ];
        let mut bytes = Vec::new();
        for e in &edges {
            bytes.extend_from_slice(&e.from.to_le_bytes());
            bytes.extend_from_slice(&e.to.to_le_bytes());
            bytes.extend_from_slice(&e.w.to_le_bytes());
        }
        assert_eq!(std::mem::size_of::<Edge<f64>>(), 16);
        assert_eq!(std::mem::align_of::<Edge<f64>>(), 8);
        let slab: Slab<Edge<f64>> = Slab::new(arc(bytes), 0, 3).unwrap();
        #[cfg(target_endian = "little")]
        {
            for (a, b) in slab.as_slice().iter().zip(edges.iter()) {
                assert_eq!(a.from, b.from);
                assert_eq!(a.to, b.to);
                assert_eq!(a.w.to_bits(), b.w.to_bits());
            }
        }
    }

    #[test]
    fn subslab_shares_and_checks_bounds() {
        let mut bytes = Vec::new();
        for v in 0..10u32 {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let slab: Slab<u32> = Slab::new(arc(bytes), 0, 10).unwrap();
        let sub = slab.subslab(2, 5).unwrap();
        #[cfg(target_endian = "little")]
        assert_eq!(sub.as_slice(), &[2, 3, 4]);
        assert!(slab.subslab(5, 2).is_err());
        assert!(slab.subslab(0, 11).is_err());
        let whole = slab.subslab(0, 10).unwrap();
        assert_eq!(whole.len(), 10);
    }

    #[test]
    fn store_deref_is_uniform() {
        let owned: Store<u32> = vec![1, 2, 3].into();
        assert_eq!(&owned[..], &[1, 2, 3]);
        let mut bytes = Vec::new();
        for v in [1u32, 2, 3] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let slab: Store<u32> = Slab::new(arc(bytes), 0, 3).unwrap().into();
        #[cfg(target_endian = "little")]
        {
            assert_eq!(&slab[..], &[1, 2, 3]);
            assert_eq!(owned, slab);
        }
        let c = slab.clone();
        assert_eq!(c.len(), 3);
        assert!(format!("{slab:?}").contains("slab"));
        assert!(format!("{owned:?}").contains("owned"));
    }

    #[cfg(unix)]
    #[test]
    fn mmap_roundtrips_and_is_shared() {
        use std::io::Write;
        let dir = std::env::temp_dir().join(format!("spsep-slab-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mmap-roundtrip.bin");
        let payload: Vec<u8> = (0..4096 + 37).map(|i| (i % 253) as u8).collect();
        std::fs::File::create(&path)
            .unwrap()
            .write_all(&payload)
            .unwrap();
        let f = std::fs::File::open(&path).unwrap();
        let sb = SlabBytes::map_file(&f).unwrap();
        assert!(sb.is_mapped());
        assert_eq!(sb.bytes(), &payload[..]);
        assert_eq!(sb.bytes().as_ptr() as usize % 8, 0);
        drop(sb); // munmap must not fault
        let empty = dir.join("empty.bin");
        std::fs::File::create(&empty).unwrap();
        let f = std::fs::File::open(&empty).unwrap();
        let sb = SlabBytes::map_file(&f).unwrap();
        assert!(!sb.is_mapped());
        assert!(sb.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
