//! Offline crossbeam shim: `utils::CachePadded`.

pub mod utils {
    use std::ops::{Deref, DerefMut};

    /// Pads and aligns a value to 128 bytes so adjacent atomics do not
    /// false-share a cache line (matches crossbeam's x86_64 alignment).
    #[derive(Debug, Default)]
    #[repr(align(128))]
    pub struct CachePadded<T>(T);

    impl<T> CachePadded<T> {
        /// Pad a value.
        pub fn new(value: T) -> Self {
            CachePadded(value)
        }

        /// Unwrap the padded value.
        pub fn into_inner(self) -> T {
            self.0
        }
    }

    impl<T> Deref for CachePadded<T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.0
        }
    }

    impl<T> DerefMut for CachePadded<T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.0
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn cache_padded_alignment() {
        let v = crate::utils::CachePadded::new(0u64);
        assert_eq!(&v as *const _ as usize % 128, 0);
        assert_eq!(*v, 0);
    }
}
