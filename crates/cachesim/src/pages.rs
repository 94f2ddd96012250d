//! Zero-filled arrays whose memory comes straight from the OS.
//!
//! A cache's arrays start all zero and are touched only as sets are
//! used, so a cold cache should cost only the pages it touched.
//! `vec![0; n]` gives that only when `calloc` hands out fresh pages.
//! glibc raises its `mmap` threshold to the size of any mapped block it
//! frees, so after one simulator is dropped the next one's arrays come
//! from the heap; once anything else sits above them there, `calloc`
//! must clear recycled memory byte by byte and every page of the arrays
//! becomes resident. On x86-64 and AArch64 Linux, arrays of at least
//! [`MAP_MIN_BYTES`] are therefore anonymous private mappings of their
//! own, which read as zero, become resident page by page on first
//! write, and go back to the OS when dropped. Smaller arrays, other
//! targets and a failed mapping use the heap.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;

/// Arrays from this size on get a mapping of their own.
pub(crate) const MAP_MIN_BYTES: usize = 64 * 1024;

/// An element type whose all-zero bit pattern is a valid value.
///
/// # Safety
///
/// Every all-zero bit pattern of the type's size must be a valid value:
/// [`ZeroedArray`] hands out zeroed memory as `T`s.
pub(crate) unsafe trait Zeroable: Copy {}

// SAFETY: zero is a valid integer.
unsafe impl Zeroable for u8 {}
// SAFETY: zero is a valid integer.
unsafe impl Zeroable for u32 {}

/// A fixed-length, zero-initialized array (see the module docs).
pub(crate) struct ZeroedArray<T: Zeroable> {
    ptr: NonNull<T>,
    len: usize,
    /// Whether `ptr` is a mapping of its own rather than a heap block.
    mapped: bool,
}

// SAFETY: the array owns its memory exclusively, like a `Box<[T]>`.
unsafe impl<T: Zeroable + Send> Send for ZeroedArray<T> {}
// SAFETY: shared access only reads, like `&[T]`.
unsafe impl<T: Zeroable + Sync> Sync for ZeroedArray<T> {}

impl<T: Zeroable> ZeroedArray<T> {
    /// `len` zero elements.
    #[must_use]
    pub(crate) fn new(len: usize) -> ZeroedArray<T> {
        let bytes = len
            .checked_mul(std::mem::size_of::<T>())
            .expect("array size overflows");
        if bytes >= MAP_MIN_BYTES {
            if let Some(ptr) = os::map_zeroed(bytes) {
                return ZeroedArray {
                    ptr: ptr.cast(),
                    len,
                    mapped: true,
                };
            }
        }
        // SAFETY: `T: Zeroable`, so the all-zero pattern is a valid `T`.
        let zero: T = unsafe { std::mem::zeroed() };
        let heap = Box::into_raw(vec![zero; len].into_boxed_slice());
        ZeroedArray {
            // SAFETY: `Box::into_raw` never returns null.
            ptr: unsafe { NonNull::new_unchecked(heap.cast::<T>()) },
            len,
            mapped: false,
        }
    }
}

impl<T: Zeroable> Deref for ZeroedArray<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        // SAFETY: `ptr` points to `len` initialized elements this array
        // owns (zeroed by the OS or by `vec!`, then written through
        // `deref_mut`).
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl<T: Zeroable> DerefMut for ZeroedArray<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        // SAFETY: as in `deref`, and `&mut self` makes the access unique.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl<T: Zeroable> Drop for ZeroedArray<T> {
    fn drop(&mut self) {
        if self.mapped {
            os::unmap(self.ptr.cast(), self.len * std::mem::size_of::<T>());
        } else {
            let slice = std::ptr::slice_from_raw_parts_mut(self.ptr.as_ptr(), self.len);
            // SAFETY: a heap array came from `Box::into_raw` of a boxed
            // slice of exactly this length.
            drop(unsafe { Box::from_raw(slice) });
        }
    }
}

impl<T: Zeroable> Clone for ZeroedArray<T> {
    fn clone(&self) -> ZeroedArray<T> {
        let mut copy = ZeroedArray::new(self.len);
        copy.copy_from_slice(self);
        copy
    }
}

impl<T: Zeroable + fmt::Debug> fmt::Debug for ZeroedArray<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod os {
    use std::ffi::{c_int, c_long, c_void};
    use std::ptr::NonNull;

    const PROT_READ: c_int = 0x1;
    const PROT_WRITE: c_int = 0x2;
    const MAP_PRIVATE: c_int = 0x02;
    const MAP_ANONYMOUS: c_int = 0x20;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: c_long,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    /// A fresh anonymous mapping of `bytes` zero bytes, or `None` if the
    /// OS refuses one.
    pub(super) fn map_zeroed(bytes: usize) -> Option<NonNull<u8>> {
        // SAFETY: an anonymous private mapping at an address of the OS's
        // choosing aliases no existing memory.
        let p = unsafe {
            mmap(
                std::ptr::null_mut(),
                bytes,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        // `MAP_FAILED` is `(void *) -1`.
        if p as isize == -1 {
            return None;
        }
        NonNull::new(p.cast())
    }

    /// Returns a mapping made by [`map_zeroed`] to the OS.
    pub(super) fn unmap(ptr: NonNull<u8>, bytes: usize) {
        // SAFETY: `ptr` and `bytes` describe exactly one live mapping
        // from `map_zeroed`, which its owner drops once. A failure could
        // only leave the pages mapped; a drop has nothing to do about it.
        unsafe { munmap(ptr.as_ptr().cast(), bytes) };
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod os {
    use std::ptr::NonNull;

    pub(super) fn map_zeroed(_bytes: usize) -> Option<NonNull<u8>> {
        None
    }

    /// Never called: no mappings are made on this target.
    pub(super) fn unmap(_ptr: NonNull<u8>, _bytes: usize) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_and_large_arrays_start_zero_and_keep_writes() {
        for len in [0, 1, 100, MAP_MIN_BYTES / 4 - 1, MAP_MIN_BYTES / 4, 1 << 20] {
            let mut a = ZeroedArray::<u32>::new(len);
            assert_eq!(a.len(), len);
            let linux = cfg!(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ));
            assert_eq!(a.mapped, linux && len * 4 >= MAP_MIN_BYTES);
            assert!(a.iter().all(|&x| x == 0));
            for (i, x) in a.iter_mut().enumerate().step_by(997) {
                *x = i as u32;
            }
            let b = a.clone();
            assert_eq!(&a[..], &b[..]);
            assert!(b
                .iter()
                .enumerate()
                .step_by(997)
                .all(|(i, &x)| x == i as u32));
        }
        let bytes = ZeroedArray::<u8>::new(3 * MAP_MIN_BYTES);
        assert_eq!(bytes.len(), 3 * MAP_MIN_BYTES);
        assert!(bytes.iter().all(|&x| x == 0));
    }

    #[test]
    fn arrays_move_between_threads() {
        let mut a = ZeroedArray::<u8>::new(MAP_MIN_BYTES);
        a[5] = 9;
        let a = std::thread::spawn(move || {
            a[6] = 7;
            a
        })
        .join()
        .unwrap();
        assert_eq!((a[5], a[6]), (9, 7));
    }
}
