//! Strongly-typed identifiers for tasks, data items and GPUs.
//!
//! The paper models the input as a bipartite graph `G = (T ∪ D, E)` between
//! tasks `T = {T1..Tm}` and data `D = {D1..Dn}`. We index both sides with
//! dense `u32` newtypes so they can be used directly as `Vec` indices
//! without accidentally mixing the two sides of the graph.

use std::fmt;

macro_rules! id_type {
    ($(#[$meta:meta])* $name:ident, $prefix:expr) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// Build an id from a `usize` index (panics if it does not fit in `u32`).
            #[inline]
            pub fn from_usize(i: usize) -> Self {
                Self(u32::try_from(i).expect("id overflows u32"))
            }

            /// The id as a `usize`, for direct indexing.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            fn from(v: u32) -> Self {
                Self(v)
            }
        }
    };
}

id_type!(
    /// Identifier of a task (`Ti` in the paper).
    TaskId,
    "T"
);
id_type!(
    /// Identifier of a data item (`Dj` in the paper).
    DataId,
    "D"
);
id_type!(
    /// Identifier of a GPU (`GPUk` in the paper).
    GpuId,
    "GPU"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_usize() {
        let t = TaskId::from_usize(42);
        assert_eq!(t.index(), 42);
        assert_eq!(t, TaskId(42));
    }

    #[test]
    fn display_uses_paper_notation() {
        assert_eq!(TaskId(3).to_string(), "T3");
        assert_eq!(DataId(7).to_string(), "D7");
        assert_eq!(GpuId(0).to_string(), "GPU0");
        assert_eq!(format!("{:?}", DataId(1)), "D1");
    }

    #[test]
    fn ordering_follows_raw_index() {
        assert!(TaskId(1) < TaskId(2));
        assert!(DataId(0) < DataId(10));
    }

    #[test]
    #[should_panic(expected = "id overflows u32")]
    fn from_usize_overflow_panics() {
        let _ = TaskId::from_usize(usize::MAX);
    }
}
